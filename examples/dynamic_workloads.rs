//! The paper's "Dynamics" challenge, live: traffic shifts over time, a
//! workload manager reallocates NP cores proportionally to demand, and
//! every reassignment goes through the full SDMMon secure-installation
//! path — fresh hash parameter, signed + encrypted package — while the
//! data plane keeps forwarding under monitor protection.
//!
//! Run with: `cargo run --example dynamic_workloads`

use sdmmon::core::entities::{Manufacturer, NetworkOperator};
use sdmmon::core::workload::WorkloadManager;
use sdmmon::npu::programs::{self, testing};
use sdmmon::npu::runtime::Verdict;
use sdmmon_rng::SeedableRng;

const KEY_BITS: usize = 512;
const CORES: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xD1CE);
    let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng)?;
    let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng)?;
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut router = manufacturer.provision_router("edge", CORES, KEY_BITS, &mut rng)?;

    let mut manager = WorkloadManager::new();
    manager.register("ipv4", programs::ipv4_forward()?)?;
    manager.register("ipv4cm", programs::ipv4_cm()?)?;

    // Three traffic epochs with shifting demand.
    let epochs = [
        ("all plain IPv4", 1000u64, 0u64),
        ("congestion builds: CM demand appears", 500, 500),
        ("CM dominates", 100, 900),
    ];
    for (label, ipv4_demand, cm_demand) in epochs {
        manager.decay_demand();
        manager.record_demand("ipv4", ipv4_demand)?;
        manager.record_demand("ipv4cm", cm_demand)?;
        let changes = manager.reconcile(&operator, &mut router, &mut rng)?;
        println!("epoch: {label}");
        println!("  demand ipv4={ipv4_demand} ipv4cm={cm_demand}");
        if changes.is_empty() {
            println!("  no reprogramming needed");
        }
        for (core, app) in &changes {
            println!("  core {core} securely reprogrammed -> {app} (fresh hash parameter)");
        }
        let alloc: Vec<&str> = manager
            .assignments()
            .iter()
            .map(|a| a.as_deref().unwrap_or("-"))
            .collect();
        println!("  allocation: {alloc:?}");

        // The data plane never stops.
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"data");
        for _ in 0..CORES {
            let (_core, out) = router.process(&packet);
            assert_eq!(out.verdict, Verdict::Forward(2));
        }
        println!(
            "  traffic check: {} packets forwarded, 0 violations\n",
            CORES
        );
    }
    println!("router stats: {}", router.np().stats());
    Ok(())
}
