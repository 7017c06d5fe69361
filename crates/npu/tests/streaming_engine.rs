//! Integration pins for the streaming ingest engine (PR 9).
//!
//! * Determinism: [`NetworkProcessor::process_stream`] — bounded ingress
//!   admission plus deterministic work stealing of whole core queues — must
//!   be byte-identical to [`NetworkProcessor::process_stream_serial`] at
//!   the same shard count: outcomes, [`NpStats`], *and* the supervisor
//!   event stream, for shard counts 1/2/4/8 and multiple seeds including
//!   one that escalates cores through redeploy and quarantine mid-stream.
//!   With a bus traced at 0, 200 and 1000 per mille the two paths
//!   also emit one event stream — admission and execution spans and
//!   flight promotions included — event for event. At nonzero rates that
//!   stream ingests sampled packets, admits no more than it ingests, and
//!   verifies each dispatched one exactly once.
//! * Backpressure: `offered == admitted + dropped` holds exactly, drops
//!   land on precisely the `None` outcome slots, and a skewed arrival
//!   pattern actually provokes steals.
//! * Replay: the same seed reproduces the same [`StreamOutcome`] —
//!   including the steal count — run after run.

use sdmmon_npu::cpu::NullObserver;
use sdmmon_npu::np::{NetworkProcessor, StreamConfig};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_obs::{Event, EventBus, Span, TraceContext};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

const CORES: usize = 8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Two traffic seeds; the second opens with an attack burst that drives at
/// least one core through redeploys into quarantine mid-stream.
const SEEDS: [(u64, bool); 2] = [(0x57AE_0001, false), (0x57AE_0BAD, true)];

fn loaded_np(policy: SupervisorPolicy) -> NetworkProcessor {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(CORES, policy);
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np
}

fn attack_variants() -> Vec<Vec<u8>> {
    (0..4)
        .map(|i| testing::hijack_packet(&format!("li $t5, {i}\nbreak 1")).unwrap())
        .collect()
}

/// Open-loop arrival rounds: mixed forwards/drops/hijacks, deliberately
/// skewed — every round aims a burst at one "elephant" flow so core loads
/// are imbalanced (provoking steals) and some rounds overshoot the ingress
/// budget (provoking drops). With `burst`, round 0 opens with back-to-back
/// attack copies so the {redeploy_after: 2, quarantine_after: 2} ladder
/// tops out while the stream is still running.
fn rounds(seed: u64, rounds: usize, per_round: usize, burst: bool) -> Vec<Vec<Vec<u8>>> {
    let attacks = attack_variants();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut round = Vec::with_capacity(per_round + 16);
        if burst && r == 0 {
            for attack in &attacks {
                for _ in 0..4 {
                    round.push(attack.clone());
                }
            }
        }
        // The elephant: one flow (fixed 5-tuple) takes ~half the round.
        for _ in 0..per_round / 2 {
            round.push(testing::ipv4_packet(
                [10, 7, 7, 7],
                [10, 0, 0, 3],
                64,
                b"eeee",
            ));
        }
        for _ in 0..per_round / 2 {
            if rng.gen_range(0..8u32) == 0 {
                round.push(attacks[rng.gen_range(0..attacks.len())].clone());
            } else {
                let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
                let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
                round.push(testing::ipv4_packet(src, dst, 64, b"pay"));
            }
        }
        out.push(round);
    }
    out
}

/// The events the determinism contract covers: everything the supervisor
/// emits (`supervisor.*`, including forensics and paroles). `np.batch` is
/// telemetry of the streaming path only and is excluded by design.
fn supervisor_events(bus: &EventBus) -> Vec<Event> {
    bus.take()
        .into_iter()
        .filter(|e| e.kind.starts_with("supervisor."))
        .collect()
}

#[test]
fn streaming_is_byte_identical_to_serial_for_all_shard_counts_and_seeds() {
    let policy = SupervisorPolicy::ladder(2, 2);
    let cfg = StreamConfig { shard_capacity: 24 };
    for (seed, burst) in SEEDS {
        let traffic = rounds(seed, 6, 60, burst);
        for shards in SHARD_COUNTS {
            // Admission budgets are per shard, so the oracle runs at the
            // *same* shard count — only the execution strategy differs.
            let oracle_bus = Arc::new(EventBus::new());
            let mut oracle = loaded_np(policy);
            oracle.set_shards(shards);
            oracle.set_event_bus(Some(oracle_bus.clone()));
            let want = oracle.process_stream_serial(&traffic, &cfg);

            let stream_bus = Arc::new(EventBus::new());
            let mut np = loaded_np(policy);
            np.set_shards(shards);
            np.set_event_bus(Some(stream_bus.clone()));
            let got = np.process_stream(&traffic, &cfg);

            assert_eq!(
                got.outcomes, want.outcomes,
                "outcomes diverged from serial at {shards} shards, seed {seed:#x}"
            );
            assert_eq!(
                (got.report.offered, got.report.admitted, got.report.dropped),
                (
                    want.report.offered,
                    want.report.admitted,
                    want.report.dropped
                ),
                "backpressure accounting diverged at {shards} shards, seed {seed:#x}"
            );
            assert_eq!(
                np.stats(),
                oracle.stats(),
                "NpStats diverged from serial at {shards} shards, seed {seed:#x}"
            );
            assert_eq!(
                supervisor_events(&stream_bus),
                supervisor_events(&oracle_bus),
                "supervisor event stream diverged at {shards} shards, seed {seed:#x}"
            );
            if burst {
                let stats = np.stats();
                assert!(
                    stats.redeploys >= 2 && stats.quarantined_cores >= 1,
                    "quarantine seed must actually escalate mid-stream: {stats}"
                );
            }
        }
    }
}

/// The span books of a sampled stream: it emits ingest spans, admits no
/// more sampled packets than it ingested, and verifies every dispatched
/// sampled packet exactly once, with at least one retired instruction.
fn check_span_books(events: &[Event], context: &str) {
    let count = |of: fn(&Span) -> bool| events.iter().filter_map(|e| e.span).filter(of).count();
    let ingest = count(|s| matches!(s, Span::Ingest { .. }));
    assert!(ingest > 0, "no ingest spans: {context}");
    assert!(
        count(|s| matches!(s, Span::Admit { .. })) <= ingest,
        "{context}"
    );
    // A packet is its (ordinal, trace) pair.
    let mut dispatched = Vec::new();
    let mut verified = Vec::new();
    for event in events {
        match event.span {
            Some(Span::Dispatch { trace, .. }) => dispatched.push((event.clock, trace)),
            Some(Span::Verify { trace, steps, .. }) => {
                assert!(steps > 0, "{event:?}: {context}");
                verified.push((event.clock, trace));
            }
            _ => {}
        }
    }
    dispatched.sort_unstable();
    verified.sort_unstable();
    assert_eq!(
        verified, dispatched,
        "not one verify span per dispatch span: {context}"
    );
}

#[test]
fn traced_streaming_emits_the_serial_event_stream() {
    let policy = SupervisorPolicy::ladder(2, 2);
    let cfg = StreamConfig { shard_capacity: 24 };
    // Not every run carries trace content (without the opening burst the
    // elephant's shard drops every attack, so nothing is promoted at 0
    // per mille), but each sampling rate must carry some somewhere.
    let mut carried = [false; 3];
    for (seed, burst) in SEEDS {
        let traffic = rounds(seed, 6, 60, burst);
        for (rate, per_mille) in [0u16, 200, 1000].into_iter().enumerate() {
            // Flight promotions carry the trace at 0 per mille, ingest
            // spans above it.
            let traced = |e: &Event| match e.span {
                Some(Span::Flight { .. }) => per_mille == 0,
                Some(Span::Ingest { .. }) => per_mille > 0,
                _ => false,
            };
            for shards in SHARD_COUNTS {
                let run = |serial: bool| {
                    let bus = Arc::new(EventBus::traced(TraceContext::new(seed, per_mille)));
                    let mut np = loaded_np(policy);
                    np.set_shards(shards);
                    np.set_event_bus(Some(bus.clone()));
                    let got = if serial {
                        np.process_stream_serial(&traffic, &cfg)
                    } else {
                        np.process_stream(&traffic, &cfg)
                    };
                    // `np.batch` is telemetry of the streaming path only.
                    let events: Vec<Event> = bus
                        .take()
                        .into_iter()
                        .filter(|e| e.kind != "np.batch")
                        .collect();
                    (got.outcomes, np.stats(), events)
                };
                let context = format!("{shards} shards, seed {seed:#x}, per-mille {per_mille}");
                let want = run(true);
                carried[rate] |= want.2.iter().any(traced);
                if per_mille > 0 {
                    check_span_books(&want.2, &context);
                }
                assert_eq!(
                    run(false),
                    want,
                    "traced stream diverged from serial at {context}"
                );
            }
        }
    }
    assert_eq!(
        carried, [true; 3],
        "a sampling rate emitted no trace content"
    );
}

#[test]
fn streaming_replays_exactly_including_steal_counts() {
    let traffic = rounds(0x57AE_0001, 5, 48, false);
    let cfg = StreamConfig { shard_capacity: 20 };
    let run = |shards: usize| {
        let mut np = loaded_np(SupervisorPolicy::never());
        np.set_shards(shards);
        np.process_stream(&traffic, &cfg)
    };
    for shards in SHARD_COUNTS {
        let first = run(shards);
        let second = run(shards);
        assert_eq!(first, second, "stream replay diverged at {shards} shards");
    }
}

#[test]
fn backpressure_accounting_matches_the_outcome_vector() {
    // Tight budget: the elephant flow alone overflows its shard each round.
    let traffic = rounds(0x57AE_0002, 4, 64, false);
    let offered_total: usize = traffic.iter().map(Vec::len).sum();
    let cfg = StreamConfig { shard_capacity: 10 };
    for shards in [2usize, 4] {
        let mut np = loaded_np(SupervisorPolicy::never());
        np.set_shards(shards);
        let out = np.process_stream(&traffic, &cfg);
        let report = out.report;
        assert_eq!(report.offered, offered_total as u64);
        assert_eq!(
            report.admitted + report.dropped,
            report.offered,
            "admission identity broken at {shards} shards"
        );
        assert!(report.dropped > 0, "tight budget must actually drop");
        assert_eq!(out.outcomes.len(), offered_total);
        let processed = out.outcomes.iter().filter(|o| o.is_some()).count() as u64;
        assert_eq!(
            processed, report.admitted,
            "a None per drop, a Some per admit"
        );
        assert_eq!(np.stats().processed, report.admitted);
    }
}

#[test]
fn skewed_arrivals_provoke_steals_and_balanced_ones_do_not() {
    let cfg = StreamConfig { shard_capacity: 64 };
    // Skew: the elephant dominates one core, so some shard is overloaded.
    let skewed = rounds(0x57AE_0003, 4, 60, false);
    let mut np = loaded_np(SupervisorPolicy::never());
    np.set_shards(4);
    let report = np.process_stream(&skewed, &cfg).report;
    assert!(
        report.steals > 0,
        "an elephant flow must re-home at least one queue: {report:?}"
    );

    // One shard has nothing to steal from and nowhere to steal to.
    let mut single = loaded_np(SupervisorPolicy::never());
    single.set_shards(1);
    let report = single.process_stream(&skewed, &cfg).report;
    assert_eq!(report.steals, 0, "single shard cannot steal");
}
