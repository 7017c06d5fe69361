//! The runtime hardware monitor.
//!
//! The hardware design gets a 4-bit hash of the processor's current
//! operation each clock and compares it with the monitoring graph. Because
//! the monitor has no data path, it cannot know which way a branch went —
//! it tracks the *set* of graph positions consistent with the hash stream
//! observed so far (an NFA over the graph). An empty set means the
//! processor's behaviour matches no valid path: an attack is flagged.
//!
//! This also faithfully reproduces the probabilistic escape behaviour the
//! paper analyses: injected code survives one comparison only when its hash
//! happens to match some candidate position (chance ≈ 2⁻⁴ per
//! instruction), so the escape probability decreases geometrically with
//! attack length.

use crate::graph::MonitoringGraph;
use crate::hash::{InstructionHash, BLOCK_LANES};
use sdmmon_npu::core::{BlockObserver, Core, RETIRE_BLOCK};
use sdmmon_npu::cpu::{ExecutionObserver, Observation};
use sdmmon_npu::runtime::PacketOutcome;

/// "No singleton candidate" sentinel for [`BlockRun::node`].
const NO_NODE: u32 = u32::MAX;

// The core's retirement buffer and the bit-sliced hash data path must agree
// on the block width; a full buffer flush is exactly one SWAR pass.
const _: () = assert!(RETIRE_BLOCK == BLOCK_LANES);

/// Counters kept by a monitor across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Packet runs observed (calls to `begin`).
    pub runs: u64,
    /// Instructions checked against the graph.
    pub instructions_checked: u64,
    /// Violations flagged.
    pub violations: u64,
    /// High-water mark of the candidate set (hardware sizing input).
    pub max_candidates: usize,
}

/// A per-core hardware monitor: monitoring graph + parameterized hash +
/// candidate-set tracking.
///
/// Matching uses **only the hash stream**, never the reported pc, mirroring
/// the hardware. See the crate-level example for typical usage with a
/// [`sdmmon_npu::core::Core`].
#[derive(Debug, Clone)]
pub struct HardwareMonitor<H: InstructionHash> {
    graph: MonitoringGraph,
    hash: H,
    /// Per-node instruction hash, indexed by node index — the dense table
    /// the hardware actually compares against, one memory access per
    /// retired instruction.
    node_hashes: Vec<u8>,
    /// Flattened per-node successor lists as node indices (not
    /// addresses), each sorted and deduplicated — exactly the set the
    /// general path's `sort_unstable` + `dedup` produces for a singleton
    /// candidate set, computed once at construction so the
    /// block-verification path ([`ExecutionObserver::run_packet`]) advances
    /// with a span copy instead of a sort per instruction.
    fast_edges: Vec<u32>,
    /// Per-node `(start, end)` span into [`Self::fast_edges`].
    fast_spans: Vec<(u32, u32)>,
    /// Candidate graph positions (node indices) consistent with the
    /// observed hash stream.
    current: Vec<u32>,
    scratch: Vec<u32>,
    stats: MonitorStats,
}

impl<H: InstructionHash> HardwareMonitor<H> {
    /// Couples a monitoring graph with the hash function it was built
    /// under. (SDMMon guarantees the coupling cryptographically: graph and
    /// hash parameter travel in the same signed package.)
    ///
    /// The graph is compiled into dense index-based tables here, so the
    /// per-instruction check in [`ExecutionObserver::observe`] is a plain
    /// array compare with no address arithmetic or bounds decisions.
    /// Successor addresses that fall outside the graph (possible only in
    /// hand-crafted or corrupted serialized graphs) are dropped during
    /// compilation — they could never match any future hash, which is
    /// exactly how the uncompiled monitor treated them.
    ///
    /// # Panics
    ///
    /// Panics if the graph's hash width differs from the function's — a
    /// mismatched installation that hardware could not even wire up.
    pub fn new(graph: MonitoringGraph, hash: H) -> HardwareMonitor<H> {
        assert_eq!(
            graph.hash_bits(),
            hash.output_bits(),
            "graph and hash function disagree on output width"
        );
        let mut node_hashes = Vec::with_capacity(graph.len());
        let mut fast_edges = Vec::new();
        let mut fast_spans = Vec::with_capacity(graph.len());
        for (_, node) in graph.iter() {
            node_hashes.push(node.hash);
            let mut successors: Vec<u32> = node
                .successors
                .iter()
                .filter_map(|&addr| node_index(&graph, addr))
                .collect();
            successors.sort_unstable();
            successors.dedup();
            let start = fast_edges.len() as u32;
            fast_edges.extend(successors);
            fast_spans.push((start, fast_edges.len() as u32));
        }
        HardwareMonitor {
            graph,
            hash,
            node_hashes,
            fast_edges,
            fast_spans,
            current: Vec::new(),
            scratch: Vec::new(),
            stats: MonitorStats::default(),
        }
    }

    /// The monitoring graph installed in this monitor.
    pub fn graph(&self) -> &MonitoringGraph {
        &self.graph
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Number of graph positions currently considered possible.
    pub fn candidate_count(&self) -> usize {
        self.current.len()
    }
}

/// Maps an address to its dense node index, if it is a covered, aligned
/// graph position.
fn node_index(graph: &MonitoringGraph, addr: u32) -> Option<u32> {
    let off = addr.wrapping_sub(graph.base());
    if addr < graph.base() || !off.is_multiple_of(4) {
        return None;
    }
    let idx = off / 4;
    ((idx as usize) < graph.len()).then_some(idx)
}

impl<H: InstructionHash> HardwareMonitor<H> {
    fn begin_impl(&mut self, entry: u32) {
        self.stats.runs += 1;
        self.current.clear();
        self.current.extend(node_index(&self.graph, entry));
    }

    /// The reference per-instruction check: hash the word, compare against
    /// every candidate, advance to the union of matched successors. This is
    /// the hardware's data path and the oracle the block-verification path
    /// must agree with.
    fn observe_general(&mut self, word: u32) -> Observation {
        let observed = self.hash.hash(word);
        self.advance_candidates(observed)
    }

    /// Candidate-set advance for an already-computed hash value: the
    /// union of the matched candidates' successor spans, sorted and
    /// deduplicated.
    fn advance_candidates(&mut self, observed: u8) -> Observation {
        self.scratch.clear();
        let mut matched = false;
        for i in 0..self.current.len() {
            let cand = self.current[i] as usize;
            if self.node_hashes[cand] == observed {
                matched = true;
                let (start, end) = self.fast_spans[cand];
                self.scratch
                    .extend_from_slice(&self.fast_edges[start as usize..end as usize]);
            }
        }
        if !matched {
            self.stats.violations += 1;
            return Observation::Violation;
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        std::mem::swap(&mut self.current, &mut self.scratch);
        self.stats.max_candidates = self.stats.max_candidates.max(self.current.len());
        Observation::Continue
    }
}

/// The block-verification observer [`HardwareMonitor::run_packet`] hands
/// to [`Core::process_packet_blocks`]: full retirement blocks are hashed in
/// one bit-sliced pass ([`InstructionHash::hash_block`]) and the NFA walk
/// consumes the precomputed lane hashes; partial final blocks (trap,
/// `break 0`, step-limit) take the scalar tail. Per-run bookkeeping lives
/// in register-friendly locals merged back into [`MonitorStats`] once per
/// packet. Private on purpose — the block path is reachable only through
/// [`ExecutionObserver::run_packet`], keeping the trait's per-instruction
/// `observe` the unchanged reference implementation (the differential
/// oracle).
struct BlockRun<'a, H: InstructionHash> {
    mon: &'a mut HardwareMonitor<H>,
    /// The sole candidate while the set is a singleton ([`NO_NODE`]
    /// otherwise) — the overwhelmingly common straight-line mode, kept in
    /// a register instead of `current[0]`.
    node: u32,
    /// Both live arms of a branch while the set has exactly two
    /// candidates (`pair.0 == NO_NODE` otherwise; always sorted, like the
    /// sets the reference path produces). The pair resolves with two
    /// table compares, so the branch round-trip — the most common
    /// non-singleton shape by far — never touches `mon.current`.
    pair: (u32, u32),
    /// Local high-water mark of the candidate-set sizes produced by the
    /// register-resident advances; merged into `stats.max_candidates` at
    /// the end of the packet (the materialized fallback updates the stat
    /// directly, and `max` is order-independent).
    max_seen: usize,
    /// Full 16-lane blocks hashed bit-sliced this run.
    blocks: u64,
    /// Instructions hashed by the scalar tail this run.
    tail: u64,
    /// Per-lane hashes of the block being walked.
    hashes: [u8; BLOCK_LANES],
}

impl<'a, H: InstructionHash> BlockRun<'a, H> {
    fn new(mon: &'a mut HardwareMonitor<H>) -> BlockRun<'a, H> {
        BlockRun {
            mon,
            node: NO_NODE,
            pair: (NO_NODE, NO_NODE),
            max_seen: 0,
            blocks: 0,
            tail: 0,
            hashes: [0; BLOCK_LANES],
        }
    }

    /// After a proven match on `cand`, move to its pre-sorted, pre-deduped
    /// successor span, picking the cheapest mode for the new set size and
    /// recording the high-water statistic the reference path would.
    #[inline]
    fn advance_span(&mut self, cand: usize) {
        let (start, end) = self.mon.fast_spans[cand];
        let span = &self.mon.fast_edges[start as usize..end as usize];
        match *span {
            [next] => {
                self.node = next;
                self.pair = (NO_NODE, NO_NODE);
                self.max_seen = self.max_seen.max(1);
            }
            [a, b] => {
                self.node = NO_NODE;
                self.pair = (a, b);
                self.max_seen = self.max_seen.max(2);
            }
            _ => {
                self.node = NO_NODE;
                self.pair = (NO_NODE, NO_NODE);
                self.max_seen = self.max_seen.max(span.len());
                self.mon.current.clear();
                self.mon.current.extend_from_slice(span);
            }
        }
    }

    /// Writes the register-resident candidate set (singleton or pair) back
    /// into `mon.current` and leaves the run in general mode. No-op when
    /// the set already lives there.
    fn materialize(&mut self) {
        if self.node != NO_NODE {
            self.mon.current.clear();
            self.mon.current.push(self.node);
            self.node = NO_NODE;
        } else if self.pair.0 != NO_NODE {
            self.mon.current.clear();
            self.mon.current.push(self.pair.0);
            self.mon.current.push(self.pair.1);
            self.pair = (NO_NODE, NO_NODE);
        }
    }

    /// Re-enters the cheapest mode for whatever set the materialized
    /// fallback left in `mon.current` (which stays a stale copy while a
    /// register mode is active).
    fn sync_mode(&mut self) {
        match *self.mon.current.as_slice() {
            [only] => {
                self.node = only;
                self.pair = (NO_NODE, NO_NODE);
            }
            [a, b] => {
                self.node = NO_NODE;
                self.pair = (a, b);
            }
            _ => {
                self.node = NO_NODE;
                self.pair = (NO_NODE, NO_NODE);
            }
        }
    }

    /// One NFA step for a precomputed lane hash. Must stay in lockstep
    /// with [`HardwareMonitor::advance_candidates`] — same matches, same
    /// resulting set, same statistics; only the dispatch differs (register
    /// modes for singleton/pair sets, the reference-shaped fallback for
    /// everything else). On a violation the candidate state is left
    /// untouched, exactly like the reference path.
    #[inline]
    fn advance(&mut self, observed: u8) -> Observation {
        let node = self.node;
        if node != NO_NODE {
            if self.mon.node_hashes[node as usize] == observed {
                self.advance_span(node as usize);
                return Observation::Continue;
            }
            self.mon.stats.violations += 1;
            return Observation::Violation;
        }
        if self.pair.0 != NO_NODE {
            return self.advance_pair(observed);
        }
        let obs = self.mon.advance_candidates(observed);
        if obs == Observation::Continue {
            self.sync_mode();
        }
        obs
    }

    /// Pair-mode step: resolve both arms of a live branch with two table
    /// compares. The both-match case (a hash collision between the arms)
    /// takes the materialized reference-shaped fallback.
    fn advance_pair(&mut self, observed: u8) -> Observation {
        let (pa, pb) = (self.pair.0 as usize, self.pair.1 as usize);
        let m0 = self.mon.node_hashes[pa] == observed;
        let m1 = self.mon.node_hashes[pb] == observed;
        if m0 != m1 {
            self.advance_span(if m0 { pa } else { pb });
            return Observation::Continue;
        }
        if !m0 {
            self.mon.stats.violations += 1;
            return Observation::Violation;
        }
        self.materialize();
        let obs = self.mon.advance_candidates(observed);
        if obs == Observation::Continue {
            self.sync_mode();
        }
        obs
    }
}

impl<H: InstructionHash> BlockObserver for BlockRun<'_, H> {
    fn begin(&mut self, entry: u32) {
        self.mon.begin_impl(entry);
        self.sync_mode();
    }

    fn observe_block(&mut self, words: &[u32]) -> Option<usize> {
        // Full blocks go through the bit-sliced tree — one SWAR pass for
        // all 16 lanes; the partial final block falls back to the scalar
        // hash (the block path's scalar tail).
        if let Ok(full) = <&[u32; BLOCK_LANES]>::try_from(words) {
            self.hashes = self.mon.hash.hash_block(full);
            self.blocks += 1;
        } else {
            for (h, &w) in self.hashes.iter_mut().zip(words) {
                *h = self.mon.hash.hash(w);
            }
            self.tail += words.len() as u64;
        }
        (0..words.len()).find(|&i| self.advance(self.hashes[i]) == Observation::Violation)
    }
}

impl<H: InstructionHash> ExecutionObserver for HardwareMonitor<H> {
    fn begin(&mut self, entry: u32) {
        self.begin_impl(entry);
    }

    fn observe(&mut self, _pc: u32, word: u32) -> Observation {
        self.stats.instructions_checked += 1;
        self.observe_general(word)
    }

    /// The block per-packet path: the core retires instructions into
    /// 16-word blocks ([`Core::process_packet_blocks`]), full blocks are
    /// hashed in one bit-sliced SWAR pass, and the NFA walk consumes the
    /// precomputed lane hashes. Outcomes and statistics are identical to
    /// the default per-instruction dispatch — the block loop rolls the
    /// step count back to the violating lane and discards speculative
    /// over-execution.
    fn run_packet(&mut self, core: &mut Core, packet: &[u8]) -> PacketOutcome {
        let mut run = BlockRun::new(self);
        let out = core.process_packet_blocks(packet, &mut run);
        // The candidate set must survive the run (`candidate_count` is
        // public API and `begin` of the next packet reads nothing else),
        // so flush whatever register mode the run ended in.
        run.materialize();
        let (max_seen, blocks, tail) = (run.max_seen, run.blocks, run.tail);

        // The block loop checks exactly one hash per retired instruction —
        // the count the core already returns — so the per-instruction
        // counter the general path keeps can be settled once per packet.
        self.stats.instructions_checked += out.steps;
        self.stats.max_candidates = self.stats.max_candidates.max(max_seen);
        let metrics = sdmmon_obs::metrics();
        metrics.add(sdmmon_obs::Counter::MonitorBlocksVerified, blocks);
        metrics.add(sdmmon_obs::Counter::MonitorScalarTailInstructions, tail);
        metrics.observe(sdmmon_obs::Hist::MonitorBlocksPerPacket, blocks);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::MerkleTreeHash;
    use sdmmon_npu::core::Core;
    use sdmmon_npu::programs::{self, testing};
    use sdmmon_npu::runtime::{HaltReason, Verdict};

    fn monitored_core(
        program: &sdmmon_isa::asm::Program,
        param: u32,
    ) -> (Core, HardwareMonitor<MerkleTreeHash>) {
        let hash = MerkleTreeHash::new(param);
        let graph = MonitoringGraph::extract(program, &hash).unwrap();
        let monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        (core, monitor)
    }

    #[test]
    fn legitimate_traffic_passes_all_workloads() {
        for program in [
            programs::ipv4_forward().unwrap(),
            programs::ipv4_cm().unwrap(),
            programs::vulnerable_forward().unwrap(),
        ] {
            let (mut core, mut monitor) = monitored_core(&program, 0x1357_9bdf);
            for dst in 1u8..6 {
                let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"data");
                let out = core.process_packet(&packet, &mut monitor);
                assert_eq!(out.halt, HaltReason::Completed);
                assert_eq!(out.verdict, Verdict::Forward(dst as u32));
            }
            assert_eq!(monitor.stats().violations, 0);
            assert!(monitor.stats().instructions_checked > 100);
        }
    }

    #[test]
    fn benign_options_pass_the_vulnerable_binary() {
        let program = programs::vulnerable_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 0xABCD_EF01);
        let out = core.process_packet(&testing::benign_options_packet(3), &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(out.verdict, Verdict::Forward(3));
    }

    #[test]
    fn stack_smash_hijack_is_detected() {
        // The same attack that silently succeeds without a monitor
        // (see sdmmon-npu tests) is caught here. We test several router
        // parameters; each escape needs a fresh hash collision per injected
        // instruction, so detection before clean completion is
        // overwhelmingly likely — and the verdict is forced to Drop.
        let program = programs::vulnerable_forward().unwrap();
        let attack = testing::hijack_packet(
            "li $t4, 0x0007fff0
             li $t5, 15
             sw $t5, 0($t4)
             li $t6, 0x1234
             li $t7, 0x5678
             break 0",
        )
        .unwrap();
        let mut detected = 0;
        for param in [1u32, 0xdead_beef, 0x0bad_f00d, 42, 0x8000_0001] {
            let (mut core, mut monitor) = monitored_core(&program, param);
            let out = core.process_packet(&attack, &mut monitor);
            assert_eq!(out.verdict, Verdict::Drop, "param {param:#x}");
            if out.halt == HaltReason::MonitorViolation {
                detected += 1;
            }
        }
        assert_eq!(detected, 5, "all parameters should detect this attack");
    }

    #[test]
    fn corrupted_instruction_detected() {
        // Flip one bit in the installed binary: the monitor flags the first
        // execution of the corrupted instruction (unless the 4-bit hash
        // collides; we pick a parameter where it does not).
        let program = programs::ipv4_forward().unwrap();
        let hash = MerkleTreeHash::new(7);
        // Corrupting word 3 changes its hash under the sum compression
        // whenever the flipped nibble sum differs; flipping bit 0 changes
        // nibble 0 by ±1, so the hash always differs.
        let (mut core, mut monitor) = monitored_core(&program, 7);
        let addr = program.base + 12;
        let word = core.memory().load_u32(addr).unwrap();
        core.memory_mut().store_u32(addr, word ^ 1).unwrap();
        let _ = hash; // parameter choice documented above
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(monitor.stats().violations, 1);
    }

    #[test]
    fn graph_for_wrong_parameter_rejects_immediately() {
        // SR2: a monitoring graph built for router A's parameter is useless
        // (flags instantly) under router B's parameter. With the sum
        // compression, parameter 1 shifts every hash by 1, so the very
        // first instruction mismatches.
        let program = programs::ipv4_forward().unwrap();
        let graph_a = MonitoringGraph::extract(&program, &MerkleTreeHash::new(0)).unwrap();
        let mut monitor = HardwareMonitor::new(graph_a, MerkleTreeHash::new(1));
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(out.steps, 1, "first comparison already fails");
    }

    #[test]
    fn monitor_resyncs_between_packets() {
        let program = programs::ipv4_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 0x600D_CAFE);
        for _ in 0..5 {
            let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
            let out = core.process_packet(&packet, &mut monitor);
            assert_eq!(out.halt, HaltReason::Completed);
        }
        assert_eq!(monitor.stats().runs, 5);
    }

    #[test]
    fn candidate_set_stays_small_on_straightline_code() {
        let program = programs::ipv4_forward().unwrap();
        let (mut core, mut monitor) = monitored_core(&program, 3);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        core.process_packet(&packet, &mut monitor);
        // Bounded by the return-site set plus hash-collision ambiguity;
        // must stay far below the program size for hardware viability.
        assert!(
            monitor.stats().max_candidates <= 8,
            "{}",
            monitor.stats().max_candidates
        );
    }

    #[test]
    fn compiled_tables_mirror_graph() {
        // The dense index tables built at construction must be a faithful
        // compilation of the address-keyed graph: per node, its hash and
        // its successor set, sorted and deduplicated.
        let program = programs::ipv4_cm().unwrap();
        let hash = MerkleTreeHash::new(0x1234);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        let monitor = HardwareMonitor::new(graph.clone(), hash);
        for (i, (addr, node)) in graph.iter().enumerate() {
            assert_eq!(monitor.node_hashes[i], node.hash, "hash at {addr:#x}");
            let (start, end) = monitor.fast_spans[i];
            let succ_addrs: Vec<u32> = monitor.fast_edges[start as usize..end as usize]
                .iter()
                .map(|&idx| graph.base() + 4 * idx)
                .collect();
            let mut want = node.successors.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(succ_addrs, want, "successors at {addr:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "output width")]
    fn mismatched_widths_rejected() {
        let program = programs::ipv4_forward().unwrap();
        let graph = MonitoringGraph::extract(&program, &crate::hash::WidthHash::new(0, 8)).unwrap();
        let _ = HardwareMonitor::new(graph, MerkleTreeHash::new(0));
    }

    #[test]
    fn works_through_network_processor_recovery() {
        // Full loop: NP with monitored cores; attack packet detected,
        // dropped, core recovered, next packets fine.
        let program = programs::vulnerable_forward().unwrap();
        let image = program.to_bytes();
        let mut np = sdmmon_npu::np::NetworkProcessor::new(2);
        np.install_all(&image, program.base, |i| {
            let hash = MerkleTreeHash::new(0x5eed_0000 + i as u32);
            let graph = MonitoringGraph::extract(&program, &hash).unwrap();
            Box::new(HardwareMonitor::new(graph, hash))
        });
        let attack = testing::hijack_packet("li $t5, 15\nli $t6, 3\nli $t7, 9\nbreak 0").unwrap();
        let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        np.process(&attack);
        let (_, out) = np.process(&good); // other core
        assert_eq!(out.verdict, Verdict::Forward(2));
        let (_, out) = np.process(&good); // recovered core
        assert_eq!(out.verdict, Verdict::Forward(2));
        let stats = np.stats();
        assert_eq!(stats.violations, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.forwarded, 2);
    }
}
