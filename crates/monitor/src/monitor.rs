//! The runtime hardware monitor.
//!
//! The hardware design gets a 4-bit hash of the processor's current
//! operation each clock and compares it with the monitoring graph. Because
//! the monitor has no data path, it cannot know which way a branch went —
//! it tracks the *set* of graph positions consistent with the hash stream
//! observed so far (an NFA over the graph). An empty set means the
//! processor's behaviour matches no valid path: an attack is flagged.
//!
//! [`HardwareMonitor::new`] compiles those NFA semantics into a table, a
//! DFA whose states are the reachable candidate sets, so the block path
//! advances with one table load per instruction. The per-instruction
//! `observe` path walks the set itself and is the table's oracle.
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
use std::collections::HashMap;

/// Transition-table cell of a hash that no candidate matches: a violation.
const REJECT: u32 = u32::MAX;

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
/// candidate-set tracking, compiled to a transition table.
///
/// Matching uses **only the hash stream**, never the reported pc, mirroring
/// the hardware. See the crate-level example for typical usage with a
/// [`sdmmon_npu::core::Core`].
#[derive(Debug, Clone)]
pub struct HardwareMonitor<H: InstructionHash> {
    /// Address of node 0.
    base: u32,
    hash: H,
    nodes: Nodes,
    dfa: Dfa,
    /// Candidate graph positions (node indices) consistent with the
    /// observed hash stream.
    current: Vec<u32>,
    scratch: Vec<u32>,
    stats: MonitorStats,
}

/// The graph compiled to node indices: per node, the instruction hash the
/// hardware compares against and the in-graph successors, sorted and
/// deduplicated (node `i`'s are `edges[starts[i]..starts[i + 1]]`).
#[derive(Debug, Clone, Default)]
struct Nodes {
    hashes: Vec<u8>,
    edges: Vec<u32>,
    starts: Vec<u32>,
}

impl Nodes {
    fn successors(&self, node: u32) -> &[u32] {
        let node = node as usize;
        &self.edges[self.starts[node] as usize..self.starts[node + 1] as usize]
    }

    /// The monitor's one transition rule, run by the reference path and by
    /// the table builder: `into` becomes the union of the successors of
    /// every candidate in `from` whose hash is `observed`, sorted and
    /// deduplicated. Returns `false` — a violation — when none matches.
    fn step(&self, from: &[u32], observed: u8, into: &mut Vec<u32>) -> bool {
        into.clear();
        let mut matched = false;
        for &cand in from {
            if self.hashes[cand as usize] == observed {
                matched = true;
                into.extend_from_slice(self.successors(cand));
            }
        }
        into.sort_unstable();
        into.dedup();
        matched
    }
}

/// The candidate-set NFA compiled to a DFA over the hash alphabet. State
/// `i < n` is the singleton `{i}`, so a state's id is its node index;
/// state `n` is the empty set; the multi-candidate sets reachable from
/// those follow in the order the construction finds them, each found
/// again through a hash of its members.
#[derive(Debug, Clone, Default)]
struct Dfa {
    /// Row width in bits: the hash's output width.
    bits: u32,
    /// `next[state << bits | hash]`: the successor state, or [`REJECT`].
    /// Empty for a graph whose construction passed the state cap.
    next: Vec<u32>,
    /// State `s`'s candidate set is `members[starts[s]..starts[s + 1]]`.
    members: Vec<u32>,
    starts: Vec<u32>,
}

impl Dfa {
    /// Subset-constructs the table of `nodes` over `bits`-bit hashes.
    /// Graphs arrive in packages from outside the program, so the
    /// construction stops, returning `None`, at `4·n` states.
    fn build(nodes: &Nodes, bits: u32) -> Option<Dfa> {
        let n = nodes.hashes.len();
        // The sets {0}, …, {n − 1}, then the empty set.
        let mut dfa = Dfa {
            bits,
            next: vec![REJECT; (n + 1) << bits],
            members: (0..n as u32).collect(),
            starts: (0..=n as u32).chain([n as u32]).collect(),
        };
        // The multi-candidate states by a 64-bit hash of their members.
        let mut index = HashMap::new();
        // A singleton moves on its node's hash alone, to its successors. A
        // hash wider than the row (possible in a loaded graph) never matches.
        for node in 0..n {
            let hash = usize::from(nodes.hashes[node]);
            if hash >> bits == 0 {
                let successors = nodes.successors(node as u32);
                dfa.next[node << bits | hash] = dfa.intern(successors, n, &mut index)?;
            }
        }
        // Multi-candidate rows, which may find further sets. Only the
        // members' own hashes can match.
        let mut into = Vec::new();
        let mut state = n + 1;
        while state + 1 < dfa.starts.len() {
            let (lo, hi) = (dfa.starts[state] as usize, dfa.starts[state + 1] as usize);
            for k in lo..hi {
                let hash = nodes.hashes[dfa.members[k] as usize];
                let cell = state << bits | usize::from(hash);
                if usize::from(hash) >> bits == 0 && dfa.next[cell] == REJECT {
                    nodes.step(&dfa.members[lo..hi], hash, &mut into);
                    dfa.next[cell] = dfa.intern(&into, n, &mut index)?;
                }
            }
            state += 1;
        }
        Some(dfa)
    }

    /// The state of the sorted, deduplicated candidate `set`, added with
    /// an all-[`REJECT`] row if it is a new multi-candidate set; `None`
    /// once the table holds `4·n` states. Members are compared only where
    /// `index` holds the set's key; a key another set holds probes the
    /// next key.
    fn intern(&mut self, set: &[u32], n: usize, index: &mut HashMap<u64, u32>) -> Option<u32> {
        match *set {
            [] => Some(n as u32),
            [only] => Some(only),
            _ => {
                let mut key = set_key(set);
                while let Some(&s) = index.get(&key) {
                    if self.set(s) == set {
                        return Some(s);
                    }
                    key = key.wrapping_add(1);
                }
                let states = self.starts.len() - 1;
                if states >= 4 * n {
                    return None;
                }
                index.insert(key, states as u32);
                self.members.extend_from_slice(set);
                self.starts.push(self.members.len() as u32);
                self.next.resize(self.next.len() + (1 << self.bits), REJECT);
                Some(states as u32)
            }
        }
    }

    fn set(&self, state: u32) -> &[u32] {
        let state = state as usize;
        &self.members[self.starts[state] as usize..self.starts[state + 1] as usize]
    }
}

/// A candidate set's 64-bit key: FNV-1a over its members, a word at a time.
fn set_key(set: &[u32]) -> u64 {
    set.iter().fold(0xcbf2_9ce4_8422_2325, |h, &m| {
        (h ^ u64::from(m)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl<H: InstructionHash> HardwareMonitor<H> {
    /// Couples a monitoring graph with the hash function it was built
    /// under. (SDMMon guarantees the coupling cryptographically: graph and
    /// hash parameter travel in the same signed package.)
    ///
    /// The graph is compiled here into dense index-based tables and the
    /// transition table of [`ExecutionObserver::run_packet`] (none past
    /// `4·n` states; `run_packet` then checks per instruction). Successor
    /// addresses that fall outside the graph (possible only in hand-crafted
    /// or corrupted serialized graphs) are dropped during compilation —
    /// they could never match any future hash, which is exactly how the
    /// uncompiled monitor treated them.
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
        let (base, len) = (graph.base(), graph.len());
        let mut nodes = Nodes::default();
        nodes.starts.push(0);
        let mut successors = Vec::new();
        for (_, node) in graph.iter() {
            nodes.hashes.push(node.hash);
            successors.clear();
            successors.extend(
                node.successors
                    .iter()
                    .filter_map(|&addr| node_index(base, len, addr)),
            );
            successors.sort_unstable();
            successors.dedup();
            nodes.edges.extend_from_slice(&successors);
            nodes.starts.push(nodes.edges.len() as u32);
        }
        let dfa = Dfa::build(&nodes, hash.output_bits().into()).unwrap_or_default();
        HardwareMonitor {
            base,
            hash,
            nodes,
            dfa,
            current: Vec::new(),
            scratch: Vec::new(),
            stats: MonitorStats::default(),
        }
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
/// position of the `len`-node graph at `base`.
fn node_index(base: u32, len: usize, addr: u32) -> Option<u32> {
    let off = addr.wrapping_sub(base);
    if addr < base || !off.is_multiple_of(4) {
        return None;
    }
    let idx = off / 4;
    ((idx as usize) < len).then_some(idx)
}

impl<H: InstructionHash> HardwareMonitor<H> {
    /// Starts a packet run at `entry`; returns the entry's node, if the
    /// graph covers it.
    fn begin_impl(&mut self, entry: u32) -> Option<u32> {
        self.stats.runs += 1;
        let node = node_index(self.base, self.nodes.hashes.len(), entry);
        self.current.clear();
        self.current.extend(node);
        node
    }

    /// The reference per-instruction check for an already-computed hash:
    /// advance the candidate set by the step rule. This is the hardware's
    /// data path and the oracle the transition table must agree with.
    fn advance_candidates(&mut self, observed: u8) -> Observation {
        if !self.nodes.step(&self.current, observed, &mut self.scratch) {
            self.stats.violations += 1;
            return Observation::Violation;
        }
        std::mem::swap(&mut self.current, &mut self.scratch);
        self.stats.max_candidates = self.stats.max_candidates.max(self.current.len());
        Observation::Continue
    }
}

/// The block-verification observer [`HardwareMonitor::run_packet`] hands
/// to [`Core::process_packet_blocks`]: full retirement blocks are hashed in
/// one bit-sliced pass ([`InstructionHash::hash_block`]), partial final
/// blocks (trap, `break 0`, step limit) by the scalar tail, and each lane
/// moves the DFA state with one table load. Per-run bookkeeping lives in
/// locals merged back into [`MonitorStats`] once per packet. Private on
/// purpose — the block path is reachable only through
/// [`ExecutionObserver::run_packet`], keeping the trait's per-instruction
/// `observe` the unchanged reference implementation (the differential
/// oracle).
struct BlockRun<'a, H: InstructionHash> {
    mon: &'a mut HardwareMonitor<H>,
    /// The DFA state after the lanes walked so far; a violating lane
    /// leaves it, like the reference path's set. [`REJECT`] until `begin`.
    state: u32,
    /// High-water mark of the candidate-set sizes reached this run.
    max_seen: usize,
    /// Full 16-lane blocks hashed bit-sliced this run.
    blocks: u64,
    /// Instructions hashed by the scalar tail this run.
    tail: u64,
}

impl<H: InstructionHash> BlockObserver for BlockRun<'_, H> {
    fn begin(&mut self, entry: u32) {
        let empty = self.mon.nodes.hashes.len() as u32;
        self.state = self.mon.begin_impl(entry).unwrap_or(empty);
    }

    fn observe_block(&mut self, words: &[u32]) -> Option<usize> {
        let mon = &mut *self.mon;
        // Full blocks go through the bit-sliced tree — one SWAR pass for
        // all 16 lanes; the partial final block falls back to the scalar
        // hash (the block path's scalar tail).
        let hashes = if let Ok(full) = <&[u32; BLOCK_LANES]>::try_from(words) {
            self.blocks += 1;
            mon.hash.hash_block(full)
        } else {
            self.tail += words.len() as u64;
            std::array::from_fn(|i| words.get(i).map_or(0, |&w| mon.hash.hash(w)))
        };
        let dfa = &mon.dfa;
        for (lane, &hash) in hashes[..words.len()].iter().enumerate() {
            let next = dfa.next[(self.state as usize) << dfa.bits | usize::from(hash)];
            if next == REJECT {
                mon.stats.violations += 1;
                return Some(lane);
            }
            self.state = next;
            self.max_seen = self.max_seen.max(dfa.set(next).len());
        }
        None
    }
}

impl<H: InstructionHash> ExecutionObserver for HardwareMonitor<H> {
    fn begin(&mut self, entry: u32) {
        self.begin_impl(entry);
    }

    fn observe(&mut self, _pc: u32, word: u32) -> Observation {
        self.stats.instructions_checked += 1;
        let observed = self.hash.hash(word);
        self.advance_candidates(observed)
    }

    /// The block per-packet path: the core retires instructions into
    /// 16-word blocks ([`Core::process_packet_blocks`]), full blocks are
    /// hashed in one bit-sliced SWAR pass, and the transition table
    /// consumes the lane hashes. Outcomes and statistics are identical to
    /// the default per-instruction dispatch — the block loop rolls the
    /// step count back to the violating lane and discards speculative
    /// over-execution. A monitor without a table takes that default.
    fn run_packet(&mut self, core: &mut Core, packet: &[u8]) -> PacketOutcome {
        if self.dfa.next.is_empty() {
            return core.process_packet(packet, self);
        }
        let mut run = BlockRun {
            mon: self,
            state: REJECT,
            max_seen: 0,
            blocks: 0,
            tail: 0,
        };
        let out = core.process_packet_blocks(packet, &mut run);
        let (state, max_seen, blocks, tail) = (run.state, run.max_seen, run.blocks, run.tail);
        // The candidate set must survive the run (`candidate_count` is
        // public API); an oversized packet begins no run and keeps it.
        if state != REJECT {
            self.current.clear();
            self.current.extend_from_slice(self.dfa.set(state));
        }

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
            assert_eq!(monitor.nodes.hashes[i], node.hash, "hash at {addr:#x}");
            let succ_addrs: Vec<u32> = monitor
                .nodes
                .successors(i as u32)
                .iter()
                .map(|&idx| graph.base() + 4 * idx)
                .collect();
            let mut want = node.successors.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(succ_addrs, want, "successors at {addr:#x}");
        }
    }

    /// Loads a hand-built graph through the `MonitoringGraph::to_bytes`
    /// layout, the way a graph extraction would never produce reaches a
    /// monitor: `(hash, successor addresses)` per node from `base` on.
    fn loaded_graph(base: u32, bits: u8, nodes: &[(u8, Vec<u32>)]) -> MonitoringGraph {
        let mut bytes = b"SDMG".to_vec();
        bytes.extend_from_slice(&base.to_be_bytes());
        bytes.push(bits);
        bytes.extend_from_slice(&(nodes.len() as u32).to_be_bytes());
        for (hash, successors) in nodes {
            bytes.push(*hash);
            bytes.extend_from_slice(&(successors.len() as u16).to_be_bytes());
            for addr in successors {
                bytes.extend_from_slice(&addr.to_be_bytes());
            }
        }
        MonitoringGraph::from_bytes(&bytes).expect("well-formed graph")
    }

    /// Checks every cell of `monitor`'s table against one step of the
    /// reference rule from its state's candidate set, and the state
    /// layout: singletons first, then the empty set, then distinct,
    /// sorted multi-candidate sets, at most `4·n` states.
    fn assert_one_step_per_cell<H: InstructionHash>(monitor: &HardwareMonitor<H>, at: &str) {
        let (nodes, dfa) = (&monitor.nodes, &monitor.dfa);
        let n = nodes.hashes.len();
        let states = dfa.starts.len() - 1;
        assert!(states <= 4 * n, "{at}: {states} states for {n} nodes");
        assert_eq!(dfa.next.len(), states << dfa.bits, "{at}");
        for node in 0..n as u32 {
            assert_eq!(dfa.set(node), [node], "{at}");
        }
        assert!(dfa.set(n as u32).is_empty(), "{at}");
        let mut want = Vec::new();
        for state in 0..states as u32 {
            let set = dfa.set(state);
            if state as usize > n {
                assert!(set.len() > 1 && set.windows(2).all(|w| w[0] < w[1]), "{at}");
                assert!(
                    (n as u32 + 1..state).all(|s| dfa.set(s) != set),
                    "{at}: duplicate"
                );
            }
            for hash in 0..=u8::MAX >> (8 - dfa.bits) {
                let cell = dfa.next[(state as usize) << dfa.bits | usize::from(hash)];
                if nodes.step(set, hash, &mut want) {
                    assert_eq!(dfa.set(cell), want, "{at} state {state} hash {hash}");
                } else {
                    assert_eq!(cell, REJECT, "{at} state {state} hash {hash}");
                }
            }
        }
    }

    #[test]
    fn transition_table_is_one_reference_step_per_cell() {
        use crate::hash::WidthHash;
        use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};
        for program in [
            programs::ipv4_forward().unwrap(),
            programs::ipv4_cm().unwrap(),
            programs::vulnerable_forward().unwrap(),
        ] {
            for bits in [2, 4, 8] {
                for param in [0, 0x1357_9bdf, 0xdead_beef] {
                    let hash = WidthHash::new(param, bits);
                    let graph = MonitoringGraph::extract(&program, &hash).unwrap();
                    let monitor = HardwareMonitor::new(graph, hash);
                    assert!(!monitor.dfa.next.is_empty());
                    assert_one_step_per_cell(&monitor, &format!("{bits} bits {param:#x}"));
                }
            }
        }
        // A loaded graph whose nodes repeat successors and point outside
        // the graph, and whose hashes need not fit the width.
        let mut rng = StdRng::seed_from_u64(0x4D0_000B);
        let (base, len) = (0x100u32, 12u32);
        let outside = [base - 4, base + 4 * len, base + 2];
        let nodes: Vec<(u8, Vec<u32>)> = (0..len)
            .map(|i| {
                let first = base + 4 * ((i + 1) % len);
                let mut successors = vec![first, first];
                for _ in 0..rng.gen_range(0..5usize) {
                    successors.push(if rng.gen_bool(0.25) {
                        outside[rng.gen_range(0..outside.len())]
                    } else {
                        base + 4 * rng.gen_range(0..len)
                    });
                }
                (rng.next_u32() as u8 & 0x1f, successors)
            })
            .collect();
        let monitor = HardwareMonitor::new(loaded_graph(base, 4, &nodes), MerkleTreeHash::new(0));
        assert!(!monitor.dfa.next.is_empty());
        assert_one_step_per_cell(&monitor, "loaded graph");
    }

    #[test]
    fn interning_probes_past_a_key_another_set_holds() {
        // {1, 2}'s key is handed to {0, 3} first, as a hash collision would.
        let n = 4;
        let mut dfa = Dfa {
            bits: 1,
            next: vec![REJECT; (n + 1) << 1],
            members: (0..n as u32).collect(),
            starts: (0..=n as u32).chain([n as u32]).collect(),
        };
        let mut index = HashMap::new();
        let first = dfa.intern(&[0, 3], n, &mut index).unwrap();
        index.insert(set_key(&[1, 2]), first);
        let second = dfa.intern(&[1, 2], n, &mut index).unwrap();
        assert_ne!(second, first);
        assert_eq!(dfa.set(second), [1, 2]);
        assert_eq!(dfa.intern(&[1, 2], n, &mut index), Some(second));
        assert_eq!(dfa.intern(&[0, 3], n, &mut index), Some(first));
        assert_eq!(dfa.next.len(), (n + 3) << 1);
    }

    #[test]
    fn repeated_graph_keeps_a_table() {
        // ipv4_forward's graph 100 times over, each copy's successors
        // moved into its own address range: 8,100 nodes, and 100 copies
        // of every multi-candidate set for the index to tell apart.
        let program = programs::ipv4_forward().unwrap();
        let hash = MerkleTreeHash::new(0x1357_9bdf);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        let span = 4 * graph.len() as u32;
        let nodes: Vec<(u8, Vec<u32>)> = (0..100)
            .flat_map(|copy| {
                graph.iter().map(move |(_, node)| {
                    let moved = node.successors.iter().map(|&a| a + copy * span);
                    (node.hash, moved.collect())
                })
            })
            .collect();
        let monitor = HardwareMonitor::new(loaded_graph(graph.base(), 4, &nodes), hash);
        let single = HardwareMonitor::new(graph, hash);
        let multi = |m: &HardwareMonitor<_>| m.dfa.starts.len() - 2 - m.nodes.hashes.len();
        assert!(multi(&single) > 0);
        assert_eq!(multi(&monitor), 100 * multi(&single));
        assert_one_step_per_cell(&monitor, "ipv4_forward x100");
    }

    #[test]
    fn graph_past_the_state_cap_keeps_no_table() {
        // ipv4_forward's graph plus a gadget that remembers the last K
        // hashes: node (q, c), hash c, stands for NFA state q of "the hash
        // K steps back was 1" about to read c. Its subset construction
        // reaches all 2^K histories, more than 4·n states.
        const K: u32 = 9;
        let program = programs::ipv4_forward().unwrap();
        let hash = MerkleTreeHash::new(0x600D_CAFE);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        let gadget = graph.len() as u32;
        let node = |q: u32, c: u32| graph.base() + 4 * (gadget + 2 * q + c);
        let mut nodes: Vec<(u8, Vec<u32>)> = graph
            .iter()
            .map(|(_, n)| (n.hash, n.successors.clone()))
            .collect();
        for q in 0..=K {
            for c in 0..2 {
                let to: &[u32] = match (q, c) {
                    (0, 0) => &[0],
                    (0, _) => &[0, 1],
                    (q, _) if q < K => &[q + 1],
                    _ => &[],
                };
                let successors = to.iter().flat_map(|&t| [node(t, 0), node(t, 1)]).collect();
                nodes.push((c as u8, successors));
            }
        }
        let capped = loaded_graph(graph.base(), 4, &nodes);
        assert!(!HardwareMonitor::new(graph, hash).dfa.next.is_empty());
        let mut reference = HardwareMonitor::new(capped.clone(), hash);
        let mut blockwise = HardwareMonitor::new(capped, hash);
        assert!(blockwise.dfa.next.is_empty());

        let mut core_a = Core::new();
        let mut core_b = Core::new();
        for core in [&mut core_a, &mut core_b] {
            core.install(&program.to_bytes(), program.base);
        }
        for round in 0..2 {
            if round == 1 {
                // A corrupted word: a violation on both paths.
                for core in [&mut core_a, &mut core_b] {
                    core.memory_mut().store_u32(program.base + 40, 0).unwrap();
                }
            }
            for dst in 1u8..4 {
                let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"data");
                let want = core_a.process_packet(&packet, &mut reference);
                assert_eq!(blockwise.run_packet(&mut core_b, &packet), want);
                assert_eq!(blockwise.stats(), reference.stats());
                assert_eq!(blockwise.candidate_count(), reference.candidate_count());
            }
        }
        assert_eq!(reference.stats().violations, 3);
        assert!(reference.stats().max_candidates > 1);
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
