//! The transport books balance. Every attempt a download logs is a probe
//! or chunk fetch the server saw, except integrity rejects, which discard
//! an assembly without a round trip. So on both deploy paths
//! `net_download_attempts - net_integrity_restarts` equals the servers'
//! own attempt count, and on the per-router path the deploy records book
//! every attempt and integrity restart, downloads that gave up included.
//! The relay-tree push is also amortized: one shared package, signed once,
//! and one key wrap per router, and a traced push counts one `trace_spans`
//! per span event it records. This file holds a single test, which runs
//! in its own process, so the global metrics registry's counts are exact.

use sdmmon::core::distrib::{deploy_fleet, FleetDeployConfig};
use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::system::{Fleet, ResilientConfig};
use sdmmon::net::channel::{Channel, FileServer};
use sdmmon::net::download::RetryPolicy;
use sdmmon::net::resilience::{FlakyServer, LossyChannel, OutageWindow};
use sdmmon::npu::programs;
use sdmmon::npu::supervisor::SupervisorPolicy;
use sdmmon::obs::{metrics, Counter, EventBus, TraceContext};
use sdmmon_rng::{RngCore, SeedableRng, StdRng};

/// Loss, corruption and stall on one link.
fn faulty_link(loss: f64, corrupt: f64) -> LossyChannel {
    LossyChannel::clean(Channel::ideal_gigabit())
        .with_loss(loss)
        .with_corrupt(corrupt)
        .with_stall(0.05)
}

/// `(net_download_attempts, net_integrity_restarts)` since the last reset.
fn client_books() -> (u64, u64) {
    (
        metrics().counter(Counter::NetDownloadAttempts),
        metrics().counter(Counter::NetIntegrityRestarts),
    )
}

/// One `Fleet::deploy_resilient` run from a clean registry, set up the way
/// `sdmmon deploy` sets it up (512-bit authorities, then the server seeded
/// from the same rng and armed by `arm`). Checks the per-router books
/// against the registry: attempts against the server's and the deploy
/// records', integrity restarts against the deploy records'.
fn check_per_router_books(
    seed: u64,
    (routers, cores, key_bits): (usize, usize, usize),
    config: &ResilientConfig,
    arm: impl FnOnce(&mut FlakyServer),
) {
    metrics().reset();
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let mut rng = StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("acme", 512, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", 512, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut server = FlakyServer::new(FileServer::new(), rng.next_u64());
    arm(&mut server);
    let fleet = Fleet::deploy_resilient(
        &manufacturer,
        &operator,
        &program,
        routers,
        cores,
        key_bits,
        &mut server,
        config,
        &mut rng,
        None,
    )
    .expect("deploy");
    let (attempts, restarts) = client_books();
    assert!(restarts > 0, "seed {seed}: no integrity restart exercised");
    assert_eq!(attempts - restarts, server.attempts(), "seed {seed}");
    let logged: u64 = fleet
        .deployments
        .iter()
        .map(|d| u64::from(d.transport_attempts))
        .sum();
    assert_eq!(attempts, logged, "seed {seed}");
    let booked: u64 = fleet
        .deployments
        .iter()
        .map(|d| u64::from(d.integrity_restarts))
        .sum();
    assert_eq!(restarts, booked, "seed {seed}");
}

#[test]
fn client_attempts_match_server_attempts_on_both_deploy_paths() {
    let retry = RetryPolicy::default()
        .with_chunk_bytes(16 * 1024)
        .with_max_attempts(60);

    // Per-router path: whole-file downloads from one flaky server.
    for seed in [3u64, 4, 5] {
        let config = ResilientConfig {
            link: faulty_link(0.3, 0.3),
            retry,
            max_deploy_attempts: 3,
            supervisor: SupervisorPolicy::default(),
        };
        check_per_router_books(seed, (6, 1, 256), &config, |server| {
            server.schedule_outage(OutageWindow { from: 2, len: 5 });
            server.blackhole("pkg/router-2.sdmmon");
        });
    }
    // `sdmmon deploy --routers 5 --cores 2 --seed 4 --loss 0.2 --corrupt 0.5
    // --stall 0.1 --max-retries 6 --deploy-attempts 2`: downloads give up
    // after integrity restarts, which the deploy records must book too.
    let config = ResilientConfig {
        link: faulty_link(0.2, 0.5).with_stall(0.1),
        retry: retry.with_max_attempts(6),
        max_deploy_attempts: 2,
        supervisor: SupervisorPolicy::default(),
    };
    check_per_router_books(4, (5, 2, 512), &config, |_| {});

    // Relay tree: ranged section fetches from the origin and the relays.
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    for seed in [7u64, 8, 9] {
        metrics().reset();
        let config = FleetDeployConfig {
            routers: 24,
            relays: 3,
            key_pool: 4,
            link: faulty_link(0.2, 0.05),
            retry,
            outage: Some(OutageWindow { from: 3, len: 6 }),
            blackhole_router: Some(5),
            ..FleetDeployConfig::default()
        };
        // One seed runs on a traced bus; tracing must not move the books.
        let bus = EventBus::traced(TraceContext::new(seed, 1000));
        let traced = (seed == 7).then_some(&bus);
        let report = deploy_fleet(&config, &program, seed, traced).expect("deploy");
        let (attempts, restarts) = client_books();
        assert!(restarts > 0, "seed {seed}: no integrity restart exercised");
        assert_eq!(
            attempts - restarts,
            report.transport_attempts,
            "seed {seed}"
        );
        // The push is amortized: two signatures (the operator certificate
        // and the one shared package), one prepared update, and one key
        // wrap per router.
        let routers = config.routers as u64;
        let count = |c| metrics().counter(c);
        assert_eq!(count(Counter::CryptoRsaSign), 2, "seed {seed}");
        assert_eq!(count(Counter::FleetUpdatesPrepared), 1, "seed {seed}");
        assert_eq!(count(Counter::FleetKeyWraps), routers, "seed {seed}");
        assert_eq!(count(Counter::CryptoRsaWrap), routers, "seed {seed}");
        let spans = bus.take().iter().filter(|e| e.span.is_some()).count() as u64;
        assert_eq!(spans > 0, traced.is_some(), "seed {seed}");
        assert_eq!(count(Counter::TraceSpans), spans, "seed {seed}");
    }
}
