//! Reproducibility: every experiment in this repository is seeded, so the
//! whole pipeline — key generation, packaging, installation, traffic,
//! detection — must be bit-for-bit deterministic for a fixed seed.

use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::system::Fleet;
use sdmmon::net::traffic::{TrafficConfig, TrafficGenerator};
use sdmmon::npu::programs;
use sdmmon_rng::SeedableRng;

const KEY_BITS: usize = 512;

fn build_fleet(seed: u64) -> (Fleet, Vec<u32>) {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let program = programs::ipv4_forward().expect("workload");
    let fleet =
        Fleet::deploy(&manufacturer, &operator, &program, 3, 2, KEY_BITS, &mut rng).expect("fleet");
    let params = fleet
        .routers()
        .iter()
        .map(|r| r.installed(0).expect("programmed").hash_param)
        .collect();
    (fleet, params)
}

#[test]
fn same_seed_same_fleet() {
    let (_, params_a) = build_fleet(42);
    let (_, params_b) = build_fleet(42);
    assert_eq!(
        params_a, params_b,
        "identical seeds give identical parameters"
    );
    let (_, params_c) = build_fleet(43);
    assert_ne!(params_a, params_c, "different seeds diverge");
}

#[test]
fn same_seed_same_packaging_bytes() {
    let run = || {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(7);
        let manufacturer = Manufacturer::new("m", KEY_BITS, &mut rng).expect("keygen");
        let mut operator = NetworkOperator::new("o", KEY_BITS, &mut rng).expect("keygen");
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "o"));
        let router = manufacturer
            .provision_router("r", 1, KEY_BITS, &mut rng)
            .expect("router");
        let program = programs::ipv4_cm().expect("workload");
        operator
            .prepare_package(&program, router.public_key(), &mut rng)
            .expect("package")
            .to_bytes()
    };
    assert_eq!(run(), run(), "identical bundles bit for bit");
}

#[test]
fn same_seed_same_traffic_outcomes() {
    let run = || {
        let (mut fleet, _) = build_fleet(1234);
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed: 99,
            malformed_rate: 0.3,
            payload_range: (0, 128),
            destinations: (1..=9).collect(),
        });
        let mut verdicts = Vec::new();
        for _ in 0..50 {
            let (packet, _) = gen.next_packet();
            for out in fleet.broadcast(&packet) {
                verdicts.push(out.verdict);
            }
        }
        verdicts
    };
    assert_eq!(run(), run());
}

/// The hijack stream runs long enough for its permanent quarantines
/// (`SupervisorPolicy::ladder(2, 2)` never paroles) to take every core.
/// From then on each round admits nothing instead of panicking, the
/// admission books balance, and the sharded engine still equals its
/// serial oracle at every shard count.
#[test]
fn stream_past_full_quarantine_drops_and_matches_the_oracle() {
    use sdmmon::bench::hijack::HijackScenario;
    use sdmmon::npu::np::StreamConfig;
    use sdmmon::obs::{Event, EventBus, Value};
    use std::sync::Arc;

    let scenario = HijackScenario::new(0xBE7C_000A, 200);
    // Above the largest round, so every drop is a round with no core.
    let cfg = StreamConfig {
        shard_capacity: 512,
    };
    for shards in [1, 2, 4, 8] {
        let run = |serial: bool| {
            let bus = Arc::new(EventBus::new());
            let mut np = scenario.np(shards);
            np.set_event_bus(Some(bus.clone()));
            let out = if serial {
                np.process_stream_serial(&scenario.rounds, &cfg)
            } else {
                np.process_stream(&scenario.rounds, &cfg)
            };
            // `np.batch` is telemetry of the sharded path only.
            let events: Vec<Event> = bus
                .take()
                .into_iter()
                .filter(|e| e.kind != "np.batch")
                .collect();
            (out, np.stats(), events)
        };
        let (streamed, stats, events) = run(false);
        let report = streamed.report;
        assert_eq!(
            report.offered,
            report.admitted + report.dropped,
            "{shards} shards: {report:?}"
        );
        assert!(
            report.dropped > 0,
            "{shards} shards: no round lost every core"
        );
        assert_eq!(stats.processed, report.admitted, "{shards} shards");
        assert_eq!(stats.quarantined_cores, 8, "{shards} shards");
        let refused: u64 = events
            .iter()
            .filter(|e| e.kind == "stream.no_active_core")
            .map(|e| match e.fields[..] {
                [("dropped", Value::U64(n))] => n,
                ref other => panic!("{other:?}"),
            })
            .sum();
        assert_eq!(refused, report.dropped, "{shards} shards");
        let none = streamed.outcomes.iter().filter(|o| o.is_none()).count();
        assert_eq!(none as u64, report.dropped, "{shards} shards");

        let (want, want_stats, want_events) = run(true);
        assert_eq!(streamed.outcomes, want.outcomes, "{shards} shards");
        assert_eq!(stats, want_stats, "{shards} shards");
        assert_eq!(events, want_events, "{shards} shards");
    }
}
