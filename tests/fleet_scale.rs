//! Fleet-scale integration tests (PR 7): the hierarchical distribution
//! surface end-to-end through the facade — the v1-vs-v2 install
//! differential across seeds and core counts, the delta-equals-full
//! download property (including under link faults), and seeded campaign
//! replay with O(relays) origin egress.

use sdmmon::core::distrib::{deploy_fleet, fetch_document, FleetDeployConfig, SectionCache};
use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::wire2::BundleV2;
use sdmmon::crypto::rsa::RsaKeyPair;
use sdmmon::isa::asm::Program;
use sdmmon::net::channel::{Channel, FileServer};
use sdmmon::net::download::{DownloadClient, RetryPolicy};
use sdmmon::net::resilience::{FlakyServer, LossyChannel};
use sdmmon::npu::programs;
use sdmmon::testkit::fleet_report_json;
use sdmmon_rng::SeedableRng;

/// Signing authorities need SHA-256-sized moduli.
const AUTHORITY_BITS: usize = 512;
/// Router device keys only wrap the 16-byte AES key.
const DEVICE_BITS: usize = 256;

struct FleetWorld {
    manufacturer: Manufacturer,
    operator: NetworkOperator,
    rng: sdmmon_rng::StdRng,
}

fn fleet_world(seed: u64) -> FleetWorld {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("acme", AUTHORITY_BITS, &mut rng).expect("keygen");
    let mut operator = NetworkOperator::new("op", AUTHORITY_BITS, &mut rng).expect("keygen");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    FleetWorld {
        manufacturer,
        operator,
        rng,
    }
}

/// A workload large enough that its encrypted payload spans several 4 KiB
/// sections — the regime where delta downloads actually matter.
fn padded_program() -> Program {
    let mut source = String::from(
        "    li   $t4, 0x0007fff0\n    li   $t3, 2\n    sw   $t3, 0($t4)\n    break 0\npad:\n",
    );
    for i in 0..2400 {
        source.push_str(&format!("    .word {i}\n"));
    }
    sdmmon::isa::asm::Assembler::new()
        .assemble(&source)
        .expect("padded workload assembles")
}

/// The shared-key-wrap differential: a router installing the v1 rendering
/// and its twin installing the v2 rendering of the *same* fleet update end
/// up byte-identical — installed app state, packet verdicts, and NpStats —
/// across seeds and core counts.
#[test]
fn v1_and_v2_installs_agree_across_seeds_and_core_counts() {
    let program = programs::ipv4_forward().expect("workload");
    let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"fleet");
    for seed in [1u64, 0x5EED, 0x00FE_EDF0] {
        for cores in [1usize, 2, 4] {
            let mut w = fleet_world(seed);
            let keys = RsaKeyPair::generate(DEVICE_BITS, &mut w.rng).expect("keygen");
            let mut r_v1 =
                w.manufacturer
                    .provision_router_with_keys("twin-v1", cores, keys.clone());
            let mut r_v2 =
                w.manufacturer
                    .provision_router_with_keys("twin-v2", cores, keys.clone());

            let update = w
                .operator
                .prepare_fleet_update(&program, &mut w.rng)
                .expect("update");
            let v1 = update
                .bundle_v1_for(&keys.public, &mut w.rng)
                .expect("v1 rendering");
            let v2 = update
                .bundle_v2_for(&keys.public, &mut w.rng)
                .expect("v2 rendering");

            let all: Vec<usize> = (0..cores).collect();
            r_v1.install_bundle(&v1, &all).expect("v1 installs");
            r_v2.install_bundle_v2(&v2, &all).expect("v2 installs");
            for c in 0..cores {
                assert_eq!(
                    r_v1.installed(c),
                    r_v2.installed(c),
                    "seed {seed}, {cores} cores, core {c}"
                );
            }
            for i in 0..4 * cores {
                assert_eq!(
                    r_v1.process_on(i % cores, &packet),
                    r_v2.process_on(i % cores, &packet),
                    "seed {seed}, {cores} cores, packet {i}"
                );
            }
            assert_eq!(
                r_v1.np().stats(),
                r_v2.np().stats(),
                "seed {seed}, {cores} cores"
            );
        }
    }
}

/// The delta-update property: for a version pair (update, successor), a
/// router holding version A's sections in cache and delta-fetching version
/// B receives exactly the sections a cold full download receives — and
/// installs to the identical state — while re-downloading only the
/// signature and the final changed ciphertext segment. Holds on a clean
/// link and under loss/corrupt/stall faults injected mid-delta.
#[test]
fn delta_update_equals_full_download_for_any_version_pair() {
    let program = padded_program();
    let path = "fleet/shared.sdb2";
    let clean = LossyChannel::clean(Channel::ideal_gigabit());
    let faulty = [
        ("clean", clean),
        ("loss+corrupt", clean.with_loss(0.1).with_corrupt(0.1)),
        ("stall", clean.with_stall(0.15)),
    ];
    let client = DownloadClient::new(
        RetryPolicy::default()
            .with_chunk_bytes(1024)
            .with_max_attempts(200),
    );
    for (fault_seed, (name, link)) in faulty.into_iter().enumerate() {
        let mut w = fleet_world(0x00DE_17A0 + fault_seed as u64);
        let keys = RsaKeyPair::generate(DEVICE_BITS, &mut w.rng).expect("keygen");
        let mut delta_router = w
            .manufacturer
            .provision_router_with_keys("delta", 1, keys.clone());
        let mut full_router = w
            .manufacturer
            .provision_router_with_keys("full", 1, keys.clone());

        let v_a = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .expect("version A");
        let v_b = w
            .operator
            .prepare_fleet_successor(&v_a, &program)
            .expect("version B");

        let mut server = FlakyServer::new(FileServer::new(), 0x00F1_0000 + fault_seed as u64);
        server
            .server_mut()
            .publish(path.to_string(), v_a.shared_document());

        // Warm the delta router's cache with version A over the faulty link.
        let mut warm = SectionCache::new();
        let (a_sections, _) =
            fetch_document(&client, &mut server, path, &link, &mut warm, &mut w.rng)
                .unwrap_or_else(|e| panic!("{name}: warming fetch failed: {e}"));

        // Publish the successor and fetch it both ways.
        server
            .server_mut()
            .publish(path.to_string(), v_b.shared_document());
        let (delta_sections, delta_stats) =
            fetch_document(&client, &mut server, path, &link, &mut warm, &mut w.rng)
                .unwrap_or_else(|e| panic!("{name}: delta fetch failed: {e}"));
        let mut cold = SectionCache::new();
        let (full_sections, full_stats) =
            fetch_document(&client, &mut server, path, &link, &mut cold, &mut w.rng)
                .unwrap_or_else(|e| panic!("{name}: full fetch failed: {e}"));

        // Property: the delta path delivers the full document.
        assert_eq!(delta_sections, full_sections, "{name}");
        let n = full_sections.len() as u64;
        assert!(n >= 4, "{name}: padded payload must span multiple sections");
        // Only the signature and the trailing ciphertext segment changed
        // between A and B (pure sequence bump, deterministic encryption).
        assert_eq!(delta_stats.sections_fetched, 2, "{name}");
        assert_eq!(delta_stats.sections_reused, n - 2, "{name}");
        assert_eq!(full_stats.sections_fetched, n, "{name}");
        assert!(
            delta_stats.bytes_fetched < full_stats.bytes_fetched,
            "{name}: delta must move fewer payload bytes"
        );
        assert_ne!(a_sections, delta_sections, "{name}: B differs from A");

        // Both routers install version B to the identical state.
        let wrapped = v_b.wrap_key_for(&keys.public, &mut w.rng).expect("wrap");
        let from_delta = BundleV2::assemble(&delta_sections, wrapped.clone()).expect("assemble");
        let from_full = BundleV2::assemble(&full_sections, wrapped).expect("assemble");
        delta_router
            .install_bundle_v2(&from_delta, &[0])
            .unwrap_or_else(|e| panic!("{name}: delta install failed: {e:?}"));
        full_router
            .install_bundle_v2(&from_full, &[0])
            .unwrap_or_else(|e| panic!("{name}: full install failed: {e:?}"));
        assert_eq!(
            delta_router.installed(0),
            full_router.installed(0),
            "{name}"
        );
    }
}

/// Seeded campaign replay and the O(relays) egress law at integration
/// scale: identical seeds render byte-identical reports, doubling the
/// relay tier exactly doubles origin shared egress, and relay egress (the
/// tier that actually serves routers) is unchanged.
#[test]
fn fleet_campaign_replays_and_origin_egress_is_o_relays() {
    let program = programs::ipv4_forward().expect("workload");
    let cfg = FleetDeployConfig {
        routers: 96,
        relays: 4,
        ..FleetDeployConfig::default()
    };
    let r1 = deploy_fleet(&cfg, &program, 0x00AB_CDEF, None).expect("campaign");
    let r2 = deploy_fleet(&cfg, &program, 0x00AB_CDEF, None).expect("campaign replay");
    assert_eq!(
        fleet_report_json(&r1).render(0),
        fleet_report_json(&r2).render(0),
        "same seed must render byte-identical reports"
    );
    assert_eq!(r1.installed, 96);
    assert_eq!(r1.quarantined, 0);

    let wide = deploy_fleet(
        &FleetDeployConfig { relays: 8, ..cfg },
        &program,
        0x00AB_CDEF,
        None,
    )
    .expect("wide campaign");
    assert_eq!(
        wide.origin_shared_egress_bytes,
        2 * r1.origin_shared_egress_bytes,
        "origin shared egress is O(relays)"
    );
    assert_eq!(
        wide.relay_egress_bytes, r1.relay_egress_bytes,
        "relay egress depends on routers, not relay count"
    );
}

/// A blackholed key document quarantines exactly its router even when the
/// links are faulty — everyone else installs, and the quarantine row names
/// the victim.
#[test]
fn blackholed_router_quarantines_alone_under_faults() {
    let program = programs::ipv4_forward().expect("workload");
    let mut cfg = FleetDeployConfig {
        routers: 24,
        relays: 3,
        blackhole_router: Some(17),
        ..FleetDeployConfig::default()
    };
    cfg.link = cfg.link.with_loss(0.05).with_corrupt(0.05);
    let report = deploy_fleet(&cfg, &program, 7, None).expect("campaign");
    assert_eq!(report.quarantined_routers, vec![17]);
    assert_eq!(report.installed, 23);
    let doc = fleet_report_json(&report).render(0);
    assert!(doc.contains("\"router\": 17"), "{doc}");
}
