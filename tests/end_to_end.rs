//! End-to-end system tests: the full SDMMon lifecycle — provisioning,
//! secure deployment over the simulated network, mixed data-plane traffic,
//! attack detection and recovery, and runtime re-programming.

use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::system::{deploy, Fleet};
use sdmmon::net::channel::{Channel, FileServer};
use sdmmon::net::traffic::{PacketKind, TrafficConfig, TrafficGenerator};
use sdmmon::npu::programs::{self, testing};
use sdmmon::npu::runtime::{HaltReason, Verdict};
use sdmmon_rng::SeedableRng;

const KEY_BITS: usize = 512;

#[test]
fn full_lifecycle_with_mixed_traffic() {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xE2E);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut router = manufacturer
        .provision_router("edge-1", 4, KEY_BITS, &mut rng)
        .expect("provision");

    // Secure deployment over the simulated FTP path.
    let program = programs::ipv4_forward().expect("workload");
    let mut server = FileServer::new();
    let channel = Channel::paper_testbed();
    let report = deploy(
        &operator,
        &program,
        &mut router,
        &[0, 1, 2, 3],
        &mut server,
        &channel,
        &mut rng,
    )
    .expect("deployment");
    assert!(
        report.total_time().as_secs_f64() > 1.0,
        "modelled install takes seconds"
    );

    // Mixed traffic: 20% structurally malformed packets. Malformed input
    // is *normal traffic* to the monitor — the binary's validation path
    // handles it, so no violations may fire.
    let mut gen = TrafficGenerator::new(TrafficConfig {
        seed: 1,
        malformed_rate: 0.2,
        payload_range: (8, 256),
        destinations: (1..=9).collect(),
    });
    let mut malformed = 0u64;
    for _ in 0..300 {
        let (packet, kind) = gen.next_packet();
        let (_, outcome) = router.process(&packet);
        assert_eq!(
            outcome.halt,
            HaltReason::Completed,
            "validation handles junk"
        );
        match kind {
            PacketKind::Valid => assert_ne!(outcome.verdict, Verdict::Drop),
            PacketKind::Malformed => {
                malformed += 1;
                assert_eq!(outcome.verdict, Verdict::Drop);
            }
        }
    }
    assert!(malformed > 30, "the generator produced malformed packets");
    let stats = router.np().stats();
    assert_eq!(stats.processed, 300);
    assert_eq!(stats.violations, 0);
    assert_eq!(stats.recoveries, 0);
}

#[test]
fn attack_detection_and_recovery_through_full_stack() {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xE2F);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut router = manufacturer
        .provision_router("edge-2", 2, KEY_BITS, &mut rng)
        .expect("provision");

    let program = programs::vulnerable_forward().expect("workload");
    let bundle = operator
        .prepare_package(&program, router.public_key(), &mut rng)
        .expect("package");
    router.install_bundle(&bundle, &[0, 1]).expect("install");

    let attack = testing::hijack_packet(
        "li $t4, 0x0007fff0
         li $t5, 15
         sw $t5, 0($t4)
         break 0",
    )
    .expect("attack assembles");
    let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"ok");

    // Alternate attacks and good packets across both cores.
    for round in 0..3 {
        let out = router.process_on(round % 2, &attack);
        assert_eq!(out.halt, HaltReason::MonitorViolation, "round {round}");
        assert_eq!(out.verdict, Verdict::Drop);
        let out = router.process_on(round % 2, &good);
        assert_eq!(
            out.verdict,
            Verdict::Forward(2),
            "service restored, round {round}"
        );
    }
    let stats = router.np().stats();
    assert_eq!(stats.violations, 3);
    assert_eq!(stats.recoveries, 3);
    assert_eq!(stats.forwarded, 3);
}

#[test]
fn runtime_reprogramming_switches_and_keeps_monitoring() {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xE30);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut router = manufacturer
        .provision_router("edge-3", 1, KEY_BITS, &mut rng)
        .expect("provision");

    let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 3], 64, b"x");
    for program in [
        programs::ipv4_forward().expect("workload"),
        programs::ipv4_cm().expect("workload"),
        programs::ipv4_forward().expect("workload"),
    ] {
        let bundle = operator
            .prepare_package(&program, router.public_key(), &mut rng)
            .expect("package");
        router.install_bundle(&bundle, &[0]).expect("install");
        let out = router.process_on(0, &packet);
        assert_eq!(out.halt, HaltReason::Completed);
        assert_eq!(out.verdict, Verdict::Forward(3));
    }
    assert_eq!(
        router.np().stats().violations,
        0,
        "reprogramming never trips the monitor"
    );
}

#[test]
fn fleet_survives_broadcast_attack_storm() {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xE31);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let program = programs::vulnerable_forward().expect("workload");
    let mut fleet = Fleet::deploy(&manufacturer, &operator, &program, 5, 1, KEY_BITS, &mut rng)
        .expect("fleet deploys");

    // A naive (non-mimicry) hijack broadcast: every router detects.
    let attack = testing::hijack_packet(
        "li $t4, 0x0007fff0
         li $t5, 15
         sw $t5, 0($t4)
         li $t6, 1
         li $t7, 2
         break 0",
    )
    .expect("attack assembles");
    for round in 0..4 {
        let outcomes = fleet.broadcast(&attack);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(
                out.halt,
                HaltReason::MonitorViolation,
                "round {round}, router {i}"
            );
        }
    }
    // And the fleet still forwards legitimate traffic afterwards.
    let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 4], 64, b"y");
    for out in fleet.broadcast(&good) {
        assert_eq!(out.verdict, Verdict::Forward(4));
    }
}
