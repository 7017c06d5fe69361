//! The `sdmmon-fleet-v1` report: a byte-stable JSON rendering of the
//! [`FleetScaleReport`] that [`sdmmon_core::distrib::deploy_fleet`] —
//! operator → relays → routers — returns with its books already checked.
//!
//! `sdmmon deploy --routers N --relays M` and the CI deploy smoke build a
//! `FleetDeployConfig`, call `deploy_fleet` and render the result with
//! [`fleet_report_json`]. Everything replays byte-identically from the
//! seed — the report contains no wall-clock values, and the per-router rows
//! are summarized (full rows for quarantined routers only) so a 10k-router
//! report stays small and diffable.

use crate::json::Json;
use sdmmon_core::distrib::FleetScaleReport;

/// Schema identifier embedded in every fleet report.
pub const FLEET_SCHEMA: &str = "sdmmon-fleet-v1";

/// Renders the report as a byte-stable JSON document: run parameters,
/// install/quarantine totals, the egress ledger, and one detail row per
/// *quarantined* router (installed routers are aggregated, keeping a
/// 10k-router report small).
pub fn fleet_report_json(report: &FleetScaleReport) -> Json {
    let quarantined = report
        .rows
        .iter()
        .filter(|r| !r.installed)
        .map(|r| {
            Json::obj([
                ("router", Json::from(r.router)),
                ("relay", Json::from(r.relay)),
                ("cycles", Json::from(r.cycles)),
                ("sections_fetched", Json::from(r.sections_fetched)),
                ("sections_reused", Json::from(r.sections_reused)),
                (
                    "error",
                    r.error
                        .as_deref()
                        .map_or(Json::Null, |e| Json::from(e.to_owned())),
                ),
            ])
        })
        .collect::<Vec<_>>();
    let total_cycles: u64 = report.rows.iter().map(|r| u64::from(r.cycles)).sum();
    Json::obj([
        ("schema", Json::from(FLEET_SCHEMA)),
        ("seed", Json::from(report.seed)),
        ("routers", Json::from(report.routers)),
        ("relays", Json::from(report.relays)),
        ("cores_each", Json::from(report.cores_each)),
        ("key_bits", Json::from(report.key_bits)),
        ("key_pool", Json::from(report.key_pool)),
        ("installed", Json::from(report.installed)),
        ("quarantined", Json::from(report.quarantined)),
        ("relays_synced", Json::from(report.relays_synced)),
        ("deploy_cycles", Json::from(total_cycles)),
        (
            "shared_document_bytes",
            Json::from(report.shared_document_bytes),
        ),
        ("key_document_bytes", Json::from(report.key_document_bytes)),
        ("package_bytes", Json::from(report.package_bytes)),
        (
            "origin_shared_egress_bytes",
            Json::from(report.origin_shared_egress_bytes),
        ),
        (
            "origin_key_egress_bytes",
            Json::from(report.origin_key_egress_bytes),
        ),
        ("relay_egress_bytes", Json::from(report.relay_egress_bytes)),
        ("sections_fetched", Json::from(report.sections_fetched)),
        ("sections_reused", Json::from(report.sections_reused)),
        ("transport_attempts", Json::from(report.transport_attempts)),
        ("quarantined_rows", Json::Array(quarantined)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_core::distrib::{deploy_fleet, FleetDeployConfig};
    use sdmmon_npu::programs;
    use sdmmon_obs::EventBus;

    /// A clean `routers` / `relays` tree.
    fn tree(routers: usize, relays: usize) -> FleetDeployConfig {
        FleetDeployConfig {
            routers,
            relays,
            ..FleetDeployConfig::default()
        }
    }

    /// Deploys the baseline IPv4 forwarding workload at `seed`.
    fn deploy(cfg: &FleetDeployConfig, seed: u64, bus: Option<&EventBus>) -> FleetScaleReport {
        let program = programs::ipv4_forward().unwrap();
        deploy_fleet(cfg, &program, seed, bus).unwrap()
    }

    #[test]
    fn clean_scenario_replays_byte_identically() {
        let cfg = tree(12, 3);
        let a = fleet_report_json(&deploy(&cfg, 42, None)).render(0);
        let b = fleet_report_json(&deploy(&cfg, 42, None)).render(0);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"sdmmon-fleet-v1\""));
        assert!(a.contains("\"installed\": 12"));
        assert!(a.contains("\"quarantined_rows\": []"));
    }

    #[test]
    fn faulty_scenario_still_balances() {
        let mut cfg = tree(10, 2);
        cfg.link = cfg.link.with_loss(0.15).with_corrupt(0.15);
        let report = deploy(&cfg, 9, None);
        assert_eq!(report.installed + report.quarantined, 10);
    }

    #[test]
    fn blackholed_router_appears_in_quarantine_rows() {
        let cfg = FleetDeployConfig {
            blackhole_router: Some(3),
            ..tree(6, 2)
        };
        let report = deploy(&cfg, 5, None);
        assert_eq!(report.quarantined_routers, vec![3]);
        let doc = fleet_report_json(&report).render(0);
        assert!(doc.contains("\"router\": 3"), "{doc}");
    }

    #[test]
    fn event_stream_replays_per_seed() {
        let cfg = tree(8, 2);
        let bus_a = EventBus::new();
        deploy(&cfg, 77, Some(&bus_a));
        let bus_b = EventBus::new();
        deploy(&cfg, 77, Some(&bus_b));
        assert_eq!(bus_a.render_jsonl(), bus_b.render_jsonl());
        assert!(bus_a.render_jsonl().contains("fleet.deploy_done"));
    }
}
