//! Event-stream determinism pins for the observability layer (PR 5).
//!
//! The `sdmmon-events-v1` contract: an event stream is a byte-identical
//! function of the seed (and explicit configuration), never of scheduling
//! or wall time. These tests pin the two places that could break it:
//!
//! * the campaign harness — same seed ⇒ byte-identical JSONL, two seeds
//!   checked, plus every line passing schema validation;
//! * the sharded batch engine — supervisor events buffered per shard and
//!   merged by logical clock must render identically at 1 and 4 shards
//!   (the clock is the packet's batch ordinal, so the merged stream is
//!   shard-count-independent by construction).

use sdmmon::npu::cpu::NullObserver;
use sdmmon::npu::np::{NetworkProcessor, StreamConfig};
use sdmmon::npu::programs::{self, testing};
use sdmmon::npu::supervisor::SupervisorPolicy;
use sdmmon::obs::{
    assemble_traces, validate_event_line, Event, EventBus, Stage, StreamValidator, Trace,
    TraceContext, EVENTS_SCHEMA,
};
use sdmmon::testkit::{run_campaign, CampaignConfig};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// A small-but-complete campaign configuration (mirrors the testkit's own
/// smoke sizing).
fn campaign_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed)
        .with_budget(40)
        .with_routers(2)
        .with_escape_trials(400)
}

/// Renders the campaign event stream for one seed.
fn campaign_jsonl(seed: u64) -> String {
    let bus = EventBus::new();
    bus.extend(
        run_campaign(&campaign_cfg(seed))
            .expect("campaign runs")
            .to_events(),
    );
    bus.render_jsonl()
}

#[test]
fn campaign_event_stream_replays_byte_identically_for_two_seeds() {
    for seed in [5u64, 1234] {
        let a = campaign_jsonl(seed);
        let b = campaign_jsonl(seed);
        assert_eq!(a, b, "seed {seed}: stream must replay byte-identically");
        assert!(!a.is_empty());
        for line in a.lines() {
            validate_event_line(line).expect("every line carries the schema");
            assert!(line.contains(&format!("\"schema\":\"{EVENTS_SCHEMA}\"")));
        }
    }
    assert_ne!(
        campaign_jsonl(5),
        campaign_jsonl(1234),
        "different seeds must differ (the stream reflects the run)"
    );
}

/// Mixed traffic with an attack burst dense enough to drive supervisor
/// ladder transitions mid-batch (same shape as the sharded-engine pins).
fn traffic(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let attacks: Vec<Vec<u8>> = (0..4)
        .map(|i| testing::hijack_packet(&format!("li $t5, {i}\nbreak 1")).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(n + 16);
    for attack in &attacks {
        for _ in 0..4 {
            packets.push(attack.clone());
        }
    }
    for _ in 0..n {
        if rng.gen_range(0..8u32) == 0 {
            packets.push(attacks[rng.gen_range(0..attacks.len())].clone());
        } else {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
            packets.push(testing::ipv4_packet(src, dst, 64, b"pay"));
        }
    }
    packets
}

/// Runs the burst workload on a fresh NP at the given shard count and
/// returns the rendered event stream.
fn np_jsonl(seed: u64, shards: usize) -> String {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    let packets = traffic(seed, 160);
    np.process_batch(&packets);
    // A second batch repartitions against the degraded core set.
    np.process_batch(&traffic(seed ^ 0xFFFF, 80));
    bus.render_jsonl()
}

/// Runs a graded-supervisor workload (PR 8): a short attack burst that
/// walks one core up the threat ladder to quarantine (flushing its
/// forensic ring), then clean batches that walk it back down through
/// parole. Returns the rendered event stream.
fn graded_np_jsonl(seed: u64, shards: usize) -> String {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::default());
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::new());
    np.set_event_bus(Some(bus.clone()));
    let mut rng = StdRng::seed_from_u64(seed);
    let benign = |rng: &mut StdRng| {
        let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
        let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
        testing::ipv4_packet(src, dst, 64, b"pay")
    };
    // All hijack packets share one flow (fixed header), so the burst lands
    // on a single victim core: two hits clear the quarantine threshold
    // without reaching the zeroize one (a zeroized core never paroles).
    let attack = testing::hijack_packet("li $t5, 7\nbreak 1").unwrap();
    let mut burst: Vec<Vec<u8>> = (0..2).map(|_| attack.clone()).collect();
    for _ in 0..48 {
        burst.push(benign(&mut rng));
    }
    np.process_batch(&burst);
    // Clean batches tick the parole clock: quarantine -> throttled -> full.
    for _ in 0..12 {
        let clean: Vec<Vec<u8>> = (0..24).map(|_| benign(&mut rng)).collect();
        np.process_batch(&clean);
    }
    bus.render_jsonl()
}

/// Runs the burst workload as a traced stream (PR 10) at the given shard
/// count and returns the full event stream. The shard budget is sized
/// above the largest round so admission never drops — the precondition
/// for span streams being shard-count-invariant.
fn traced_stream_events(seed: u64, shards: usize, per_mille: u16) -> Vec<Event> {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(shards);
    let bus = Arc::new(EventBus::traced(TraceContext::new(seed, per_mille)));
    np.set_event_bus(Some(bus.clone()));
    let packets = traffic(seed, 160);
    let rounds: Vec<Vec<Vec<u8>>> = packets.chunks(40).map(<[_]>::to_vec).collect();
    let out = np.process_stream(
        &rounds,
        &StreamConfig {
            shard_capacity: 512,
        },
    );
    assert_eq!(out.report.dropped, 0, "budget must admit every round");
    bus.take()
}

/// The trace-layer event kinds (spans plus flight-recorder promotions).
fn trace_kinds(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.span.is_some())
        .cloned()
        .collect()
}

/// Checks the values a renamed or missing span key would zero: every
/// admission, dispatch, verify and respond span names its core, every
/// verify span retired instructions and halted with a known label, and
/// every respond note names an action and a level.
fn assert_span_values(traces: &[Trace]) {
    for span in traces.iter().flat_map(|t| &t.spans) {
        if [
            Stage::Admission,
            Stage::Dispatch,
            Stage::Verify,
            Stage::Respond,
        ]
        .contains(&span.stage)
        {
            assert!(span.entity >= 0, "{span:?}");
        }
        if span.stage == Stage::Verify {
            assert!(span.cost > 0, "{span:?}");
            assert!(
                ["clean", "violation", "fault"].contains(&span.note.as_str()),
                "{span:?}"
            );
        }
        if span.stage == Stage::Respond {
            assert!(!span.note.contains('?'), "{span:?}");
        }
    }
}

#[test]
fn trace_span_stream_is_identical_across_shard_counts() {
    for seed in [0xC0DE_CAFEu64, 0x5EED_0002] {
        let one = trace_kinds(&traced_stream_events(seed, 1, 200));
        assert!(!one.is_empty(), "seed {seed:#x}: sampler must fire at 200‰");
        for shards in [2usize, 4, 8] {
            let other = trace_kinds(&traced_stream_events(seed, shards, 200));
            assert_eq!(
                one, other,
                "seed {seed:#x}: span stream must be identical at {shards} shards"
            );
        }
        // And the assembled artifact view agrees with itself on replay.
        let replay = trace_kinds(&traced_stream_events(seed, 1, 200));
        let traces = assemble_traces(&one);
        assert_eq!(traces, assemble_traces(&replay));
        assert_span_values(&traces);
    }
}

#[test]
fn flight_recorder_promotes_hijacked_flow_to_full_trace() {
    // Sampling off: every trace present can only come from retroactive
    // flight-recorder promotion at detection time.
    let events = traced_stream_events(0xC0DE_CAFE, 4, 0);
    let traces = assemble_traces(&events);
    assert!(
        !traces.is_empty(),
        "hijack burst must promote at least one flow"
    );
    assert_span_values(&traces);
    let flight = traces
        .iter()
        .find(|t| t.spans.iter().any(|s| s.stage == Stage::Respond))
        .expect("a promoted trace must reach the graded response");
    assert!(!flight.sampled, "promotion is not sampling");
    // The causal chain runs from admission through dispatch and
    // verification to the graded response, with every parent resolving to
    // another span of the same trace.
    for stage in [
        Stage::Admission,
        Stage::Dispatch,
        Stage::Verify,
        Stage::Respond,
    ] {
        assert!(
            flight.spans.iter().any(|s| s.stage == stage),
            "promoted trace missing {stage:?}: {flight:?}"
        );
    }
    for span in &flight.spans {
        if span.stage == Stage::Ingest || span.stage == Stage::Admission {
            continue; // chain roots
        }
        assert!(
            flight.spans.iter().any(|s| s.id == span.parent),
            "span {span:?} has a dangling parent in {flight:?}"
        );
    }
}

#[test]
fn traced_streams_satisfy_the_stream_validator() {
    // The tightened validator (duplicate keys, per-kind clock monotonicity,
    // seq ordering) must accept every real producer stream — spans and
    // flight promotions included.
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(8, SupervisorPolicy::ladder(2, 2));
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np.set_shards(4);
    let bus = Arc::new(EventBus::traced(TraceContext::new(0x5EED_0002, 200)));
    np.set_event_bus(Some(bus.clone()));
    let packets = traffic(0x5EED_0002, 160);
    let rounds: Vec<Vec<Vec<u8>>> = packets.chunks(40).map(<[_]>::to_vec).collect();
    np.process_stream(
        &rounds,
        &StreamConfig {
            shard_capacity: 512,
        },
    );
    let jsonl = bus.render_jsonl();
    let mut validator = StreamValidator::new();
    let mut saw_span = false;
    for line in jsonl.lines() {
        validator.check_line(line).expect("stream must validate");
        saw_span |= line.contains("\"kind\":\"span.");
    }
    assert!(saw_span, "workload must emit spans: {jsonl}");
}

#[test]
fn np_event_stream_is_identical_across_shard_counts() {
    for seed in [0xC0DE_CAFEu64, 0x5EED_0002] {
        let one = np_jsonl(seed, 1);
        let four = np_jsonl(seed, 4);
        // Supervisor events carry the packet-ordinal clock, so the merged
        // stream is independent of sharding. Only the np.batch telemetry
        // lines describe the engine configuration itself (shard count,
        // imbalance), so they are excluded from the cross-shard
        // comparison; their count and positions must still agree.
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("\"kind\":\"np.batch\""))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "seed {seed:#x}: shard count must not reorder or change events"
        );
        assert_eq!(one.lines().count(), four.lines().count());
        assert_eq!(one, np_jsonl(seed, 1), "replay at 1 shard");
        assert_eq!(four, np_jsonl(seed, 4), "replay at 4 shards");
        assert!(
            one.contains("supervisor.quarantine"),
            "burst workload must exercise the ladder"
        );
        for line in four.lines() {
            validate_event_line(line).unwrap();
        }
    }
}

#[test]
fn graded_supervisor_stream_is_identical_across_shard_counts() {
    for seed in [0x6EAD_0001u64, 0x6EAD_0002] {
        let one = graded_np_jsonl(seed, 1);
        let four = graded_np_jsonl(seed, 4);
        // Same invariant the strike ladder satisfies: supervisor events
        // (including forensic flushes and parole records) carry logical
        // clocks, so sharding may not reorder or change them. np.batch
        // telemetry describes the engine configuration and is excluded.
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("\"kind\":\"np.batch\""))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "seed {seed:#x}: graded stream must be shard-count-independent"
        );
        assert_eq!(one.lines().count(), four.lines().count());
        assert_eq!(one, graded_np_jsonl(seed, 1), "replay at 1 shard");
        assert_eq!(four, graded_np_jsonl(seed, 4), "replay at 4 shards");
        for kind in [
            "supervisor.throttle",
            "supervisor.quarantine",
            "supervisor.forensic",
            "supervisor.parole",
        ] {
            assert!(
                one.contains(kind),
                "seed {seed:#x}: workload must produce {kind}"
            );
        }
        for line in four.lines() {
            validate_event_line(line).unwrap();
        }
    }
}
