//! Randomized property tests for the monitoring stack — the soundness
//! property the whole paper rests on: **legitimate execution is never
//! flagged**, for any workload, parameter, compression, and traffic.
//!
//! Cases are drawn from seeded [`StdRng`] streams so failures reproduce.

use sdmmon_isa::asm::Assembler;
use sdmmon_monitor::block::{BlockGraph, BlockMonitor};
use sdmmon_monitor::graph::MonitoringGraph;
use sdmmon_monitor::hash::{Compression, InstructionHash, MerkleTreeHash, WidthHash, BLOCK_LANES};
use sdmmon_monitor::monitor::HardwareMonitor;
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::{ExecutionObserver, Observation};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::HaltReason;
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};

const CASES: usize = 64;

fn arb_compression(rng: &mut StdRng) -> Compression {
    Compression::ALL[rng.gen_range(0..Compression::ALL.len())]
}

/// No false positives: any parameter, any compression, any valid or
/// malformed packet — the instruction-level monitor never flags the
/// legitimate binary.
#[test]
fn no_false_positives_instruction_level() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0001);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let compression = arb_compression(&mut rng);
        let dst = rng.gen::<u8>();
        let ttl = rng.gen::<u8>();
        let mut payload = vec![0u8; rng.gen_range(0..128usize)];
        rng.fill_bytes(&mut payload);
        let hash = MerkleTreeHash::with_compression(param, compression);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], ttl, &payload);
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(monitor.stats().violations, 0);
    }
}

/// Same soundness for the block-granularity monitor.
#[test]
fn no_false_positives_block_level() {
    let program = programs::ipv4_cm().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0002);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let dst = rng.gen::<u8>();
        let mut payload = vec![0u8; rng.gen_range(0..128usize)];
        rng.fill_bytes(&mut payload);
        let hash = MerkleTreeHash::new(param);
        let graph = BlockGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = BlockMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, &payload);
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(monitor.stats().violations, 0);
    }
}

/// Width-ablated monitors are sound too.
#[test]
fn no_false_positives_any_width() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0003);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let width = [2, 4, 8][rng.gen_range(0..3usize)];
        let dst = rng.gen_range(1..10u8);
        let hash = WidthHash::new(param, width);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"x");
        let out = core.process_packet(&packet, &mut monitor);
        assert_eq!(out.halt, HaltReason::Completed);
    }
}

/// Graph serialization round-trips for arbitrary small programs built from
/// random (mostly invalid) words — the graph treats undecodable words as
/// data and must survive them.
#[test]
fn graph_serialization_round_trips_any_program() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0004);
    for _ in 0..CASES {
        let words: Vec<u32> = (0..rng.gen_range(1..64usize))
            .map(|_| rng.next_u32())
            .collect();
        let param = rng.next_u32();
        let program = sdmmon_isa::asm::Program {
            base: 0,
            words,
            symbols: Default::default(),
        };
        let hash = MerkleTreeHash::new(param);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let restored = MonitoringGraph::from_bytes(&graph.to_bytes()).expect("round trip");
        assert_eq!(restored, graph);
    }
}

/// Corrupting any single instruction of the binary is detected when that
/// instruction executes on the hot path — or at worst the run completes
/// with identical observable behaviour (a 4-bit hash collision AND
/// semantically harmless change). The monitor must never produce a *wrong
/// verdict silently while flagging nothing on a changed hash*.
#[test]
fn corruption_is_detected_or_collides() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0005);
    for _ in 0..CASES {
        let param = rng.next_u32();
        let word_index = rng.gen_range(0..program.words.len().min(40));
        let bit = rng.gen_range(0..32usize);
        let hash = MerkleTreeHash::with_compression(param, Compression::SBox);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut monitor = HardwareMonitor::new(graph, hash);
        let mut core = Core::new();
        core.install(&program.to_bytes(), program.base);
        let addr = program.base + 4 * word_index as u32;
        let original = core.memory().load_u32(addr).expect("in range");
        let corrupted = original ^ (1 << bit);
        core.memory_mut()
            .store_u32(addr, corrupted)
            .expect("in range");
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"pp");
        let out = core.process_packet(&packet, &mut monitor);
        if out.halt == HaltReason::MonitorViolation {
            // Detected: fine. The hash of the corrupted word must indeed
            // differ... from at least the corrupted position's node
            // (otherwise the monitor had a real reason elsewhere).
            assert_eq!(monitor.stats().violations, 1);
        } else {
            // Not flagged: either the corrupted word never executed, or its
            // hash collided. In both cases the run must have ended in an
            // orderly way.
            assert!(matches!(
                out.halt,
                HaltReason::Completed | HaltReason::Fault(_) | HaltReason::StepLimit
            ));
        }
    }
}

/// Monitoring-graph structure is parameter-independent: only hashes change
/// with the parameter, never successor sets.
#[test]
fn graph_structure_is_parameter_independent() {
    let program = programs::vulnerable_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0006);
    for _ in 0..16 {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        let ga = MonitoringGraph::extract(&program, &MerkleTreeHash::new(a)).expect("graph");
        let gb = MonitoringGraph::extract(&program, &MerkleTreeHash::new(b)).expect("graph");
        for (addr, node) in ga.iter() {
            assert_eq!(
                &node.successors,
                &gb.node(addr).expect("same shape").successors
            );
        }
    }
}

/// Deterministic: a graph extracted from one workload rejects execution of
/// a different workload almost immediately (cross-binary install guard).
#[test]
fn wrong_binary_graph_rejects_quickly() {
    let fwd = programs::ipv4_forward().unwrap();
    let cm = programs::ipv4_cm().unwrap();
    let hash = MerkleTreeHash::new(0x1122_3344);
    let graph_for_cm = MonitoringGraph::extract(&cm, &hash).unwrap();
    let mut monitor = HardwareMonitor::new(graph_for_cm, hash);
    let mut core = Core::new();
    core.install(&fwd.to_bytes(), fwd.base);
    let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
    let out = core.process_packet(&packet, &mut monitor);
    assert_eq!(out.halt, HaltReason::MonitorViolation);
    assert!(
        out.steps < 40,
        "mismatch found within a few instructions: {}",
        out.steps
    );
}

/// The bit-sliced block hash is a drop-in for the scalar tree: for every
/// compression, random parameters, and random instruction words, all 16
/// lanes of [`InstructionHash::hash_block`] agree with the scalar
/// [`InstructionHash::hash`] — including words whose nibbles exercise the
/// full 0..16 range in every plane.
#[test]
fn bitsliced_block_hash_matches_scalar_all_compressions() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0007);
    for _ in 0..CASES {
        let param = rng.next_u32();
        for compression in Compression::ALL {
            let hash = MerkleTreeHash::with_compression(param, compression);
            let mut words = [0u32; BLOCK_LANES];
            for w in &mut words {
                *w = rng.next_u32();
            }
            let block = hash.hash_block(&words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(
                    block[i],
                    hash.hash(w),
                    "lane {i} param {param:#010x} {compression:?}"
                );
            }
        }
    }
}

/// [`WidthHash`] block hashing agrees with its scalar path at every
/// ablation width (2, 4, 8 bits), random parameters and words.
#[test]
fn width_hash_block_path_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0x4D0_0008);
    for _ in 0..CASES {
        let param = rng.next_u32();
        for width in [2, 4, 8] {
            let hash = WidthHash::new(param, width);
            let mut words = [0u32; BLOCK_LANES];
            for w in &mut words {
                *w = rng.next_u32();
            }
            let block = hash.hash_block(&words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(block[i], hash.hash(w), "lane {i} width {width}");
            }
        }
    }
}

/// The block-verification packet path ([`ExecutionObserver::run_packet`],
/// which retires 16-instruction blocks and hashes them bit-sliced) is
/// observationally identical to the per-instruction reference dispatch:
/// same verdict, halt reason, and step count, same monitor statistics and
/// final candidate set — for random parameters, compressions, packets, and
/// randomly corrupted binaries (so violations land at arbitrary offsets
/// inside a block, including partial final blocks of 1..=15 instructions).
#[test]
fn block_path_is_byte_identical_to_reference_path() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut rng = StdRng::seed_from_u64(0x4D0_0009);
    for case in 0..CASES * 2 {
        let param = rng.next_u32();
        let compression = arb_compression(&mut rng);
        let dst = rng.gen::<u8>();
        let ttl = rng.gen::<u8>();
        let mut payload = vec![0u8; rng.gen_range(0..96usize)];
        rng.fill_bytes(&mut payload);
        let corrupt = rng.gen_bool(0.5);

        let hash = MerkleTreeHash::with_compression(param, compression);
        let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
        let mut reference = HardwareMonitor::new(graph.clone(), hash);
        let mut blockwise = HardwareMonitor::new(graph, hash);

        let mut core_a = Core::new();
        let mut core_b = Core::new();
        core_a.install(&program.to_bytes(), program.base);
        core_b.install(&program.to_bytes(), program.base);
        if corrupt {
            let word_index = rng.gen_range(0..program.words.len().min(40));
            let bit = rng.gen_range(0..32usize);
            let addr = program.base + 4 * word_index as u32;
            let original = core_a.memory().load_u32(addr).expect("in range");
            let patched = original ^ (1 << bit);
            core_a
                .memory_mut()
                .store_u32(addr, patched)
                .expect("in range");
            core_b
                .memory_mut()
                .store_u32(addr, patched)
                .expect("in range");
        }

        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], ttl, &payload);
        // Reference: the trait's default per-instruction observe loop.
        let ref_out = core_a.process_packet(&packet, &mut reference);
        // Under test: the block path behind `run_packet`.
        let blk_out = blockwise.run_packet(&mut core_b, &packet);

        assert_eq!(blk_out, ref_out, "case {case} outcome");
        assert_eq!(blockwise.stats(), reference.stats(), "case {case} stats");
        assert_eq!(
            blockwise.candidate_count(),
            reference.candidate_count(),
            "case {case} candidates"
        );
    }
}

/// Deterministic: monitors survive tiny synthetic programs with odd shapes
/// (single instruction, all-data, immediate self-loop).
#[test]
fn degenerate_programs_are_handled() {
    for src in ["break 0", "spin: b spin", ".word 0xffffffff"] {
        let program = Assembler::new().assemble(src).unwrap();
        let hash = MerkleTreeHash::new(9);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        assert_eq!(graph.len(), program.words.len(), "{src}");
        let block_graph = BlockGraph::extract(&program, &hash).unwrap();
        assert!(!block_graph.is_empty(), "{src}");
    }
}

/// Serializes a hand-built graph (the `MonitoringGraph::to_bytes` layout)
/// and loads it — the way a graph whose successor lists extraction would
/// never produce reaches a monitor.
fn crafted_graph(base: u32, hashes: &[u8], successors: &[Vec<u32>]) -> MonitoringGraph {
    let mut bytes = b"SDMG".to_vec();
    bytes.extend_from_slice(&base.to_be_bytes());
    bytes.push(4);
    bytes.extend_from_slice(&(hashes.len() as u32).to_be_bytes());
    for (&hash, succ) in hashes.iter().zip(successors) {
        bytes.push(hash);
        bytes.extend_from_slice(&(succ.len() as u16).to_be_bytes());
        for addr in succ {
            bytes.extend_from_slice(&addr.to_be_bytes());
        }
    }
    MonitoringGraph::from_bytes(&bytes).expect("well-formed graph")
}

/// One step of the direct walk over the address-keyed graph, as
/// `campaign::escape_model_for` runs it: the union of the successors of
/// every candidate whose hash matches, sorted and deduplicated; `None`
/// when no candidate matches. Successors outside the graph can never
/// match a later hash, so the walk drops them, as the compiled monitor
/// does at construction.
fn graph_step(graph: &MonitoringGraph, candidates: &[u32], observed: u8) -> Option<Vec<u32>> {
    let mut next = Vec::new();
    let mut matched = false;
    for &c in candidates {
        let node = graph.node(c).expect("candidates are graph nodes");
        if node.hash == observed {
            matched = true;
            next.extend(
                node.successors
                    .iter()
                    .copied()
                    .filter(|&s| graph.node(s).is_some()),
            );
        }
    }
    next.sort_unstable();
    next.dedup();
    matched.then_some(next)
}

/// The compiled monitor follows the graph it compiles: started at random
/// nodes and fed legitimate and random instruction words through
/// `observe`, it reaches the same verdict and the same candidate-set size
/// as [`graph_step`] at every step, and keeps the same statistics.
/// Graphs: the seeded workloads, seeded random-word programs, a `beq`
/// that targets its own fall-through, and a loaded graph whose nodes
/// repeat successors and point outside the graph.
#[test]
fn compiled_monitor_matches_a_direct_graph_walk() {
    let mut rng = StdRng::seed_from_u64(0x4D0_000A);
    let self_branch = Assembler::new()
        .assemble(
            "loop: beq $t0, $t1, next   # taken target == fall-through
             next: addiu $t0, $t0, 1
                   bne $t0, $t2, loop
                   break 0",
        )
        .expect("assembles");
    let mut programs = vec![
        programs::ipv4_forward().expect("workload assembles"),
        programs::ipv4_cm().expect("workload assembles"),
        programs::vulnerable_forward().expect("workload assembles"),
        self_branch,
    ];
    for _ in 0..8 {
        let words = (0..rng.gen_range(1..64usize))
            .map(|_| rng.next_u32())
            .collect();
        programs.push(sdmmon_isa::asm::Program {
            base: 0,
            words,
            symbols: Default::default(),
        });
    }
    let mut cases: Vec<(MonitoringGraph, MerkleTreeHash, Vec<u32>)> = programs
        .into_iter()
        .map(|program| {
            let hash = MerkleTreeHash::with_compression(rng.next_u32(), arb_compression(&mut rng));
            let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
            (graph, hash, program.words)
        })
        .collect();

    let base = 0x100u32;
    let len = 12u32;
    let hash = MerkleTreeHash::new(rng.next_u32());
    let words: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
    let hashes: Vec<u8> = words.iter().map(|&w| hash.hash(w)).collect();
    let outside = [base - 4, base + 4 * len, base + 2];
    let successors: Vec<Vec<u32>> = (0..len)
        .map(|i| {
            // Every node repeats its first successor.
            let first = base + 4 * ((i + 1) % len);
            let mut succ = vec![first, first];
            for _ in 0..rng.gen_range(0..5usize) {
                succ.push(if rng.gen_bool(0.25) {
                    outside[rng.gen_range(0..outside.len())]
                } else {
                    base + 4 * rng.gen_range(0..len)
                });
            }
            succ
        })
        .collect();
    cases.push((crafted_graph(base, &hashes, &successors), hash, words));

    for (case, (graph, hash, words)) in cases.into_iter().enumerate() {
        let mut monitor = HardwareMonitor::new(graph.clone(), hash);
        let (mut violations, mut max_seen) = (0u64, 0usize);
        for run in 0..CASES {
            let start = graph.base() + 4 * rng.gen_range(0..graph.len()) as u32;
            monitor.begin(start);
            let mut candidates = vec![start];
            assert_eq!(monitor.candidate_count(), 1, "case {case} run {run}");
            for step in 0..64 {
                let word = if !candidates.is_empty() && rng.gen_bool(0.8) {
                    let at = candidates[rng.gen_range(0..candidates.len())];
                    words[((at - graph.base()) / 4) as usize]
                } else {
                    rng.next_u32()
                };
                let verdict = monitor.observe(0, word);
                let walked = graph_step(&graph, &candidates, hash.hash(word));
                let at = format!("case {case} run {run} step {step}");
                assert_eq!(verdict == Observation::Continue, walked.is_some(), "{at}");
                let Some(next) = walked else {
                    violations += 1;
                    assert_eq!(monitor.candidate_count(), candidates.len(), "{at}");
                    break;
                };
                candidates = next;
                max_seen = max_seen.max(candidates.len());
                assert_eq!(monitor.candidate_count(), candidates.len(), "{at}");
            }
        }
        assert_eq!(monitor.stats().violations, violations, "case {case}");
        assert_eq!(monitor.stats().max_candidates, max_seen, "case {case}");
    }
}
