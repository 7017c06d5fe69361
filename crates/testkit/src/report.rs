//! Campaign composition and the serializable, byte-stable report.
//!
//! [`run_campaign`] derives one sub-seed per campaign from the master seed
//! (`split_seed`), so adding a campaign never perturbs the randomness of
//! the others, and the whole report replays byte-for-byte from `--seed`.

use crate::campaign::{self, CampaignConfig, CampaignOutcome, EscapeRow};
use crate::differential::{run_differentials, DiffBudget, DifferentialReport};
use crate::json::Json;
use sdmmon_core::SdmmonError;
use sdmmon_obs::Event;
use sdmmon_rng::split_seed;
use std::fmt::Write as _;

/// Schema identifier embedded in every report (bump on layout changes).
pub const SCHEMA: &str = "sdmmon-campaign-v1";

/// Everything one campaign run produced. Serialize with
/// [`CampaignReport::to_json`]; gate on [`CampaignReport::verify_accounting`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The master seed the run replays from.
    pub seed: u64,
    /// The configured adversarial-trial budget.
    pub budget: u64,
    /// Per-campaign outcomes, in a fixed order.
    pub campaigns: Vec<CampaignOutcome>,
    /// Escape-probability model rows (`k = 1..`).
    pub escape_model: Vec<EscapeRow>,
    /// Fast-path-vs-oracle differential results.
    pub differential: DifferentialReport,
}

/// Runs the full suite: six adversarial campaigns, the escape-probability
/// model, and the differential checks.
///
/// The budget is split deterministically: 40% stack-smash variants, 30%
/// packet fuzzing, 20% instruction-memory fault/recovery cycles, a
/// budget-scaled (1..=16) trial count per wire-fault class, and a
/// budget-scaled (1..=4) trial count per transport-fault class; the
/// evasive campaign is fixed-size (two fleets). Every division is integer
/// arithmetic on the configured budget — nothing depends on timing.
///
/// # Errors
///
/// Propagates infrastructure failures (key generation, packaging). Attack
/// outcomes — including escapes — are never errors; they are tallied.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, SdmmonError> {
    let s = cfg.seed;
    let per_wire_kind = (cfg.budget / 100).clamp(1, 16);
    let per_transport_kind = (cfg.budget / 400).clamp(1, 4);
    let campaigns = vec![
        campaign::stack_smash(cfg, (cfg.budget * 2 / 5).max(1), split_seed(s, 1))?,
        campaign::packet_fuzz(cfg, (cfg.budget * 3 / 10).max(1), split_seed(s, 2))?,
        campaign::wire_faults(cfg, per_wire_kind, split_seed(s, 3))?,
        campaign::fault_recovery(cfg, (cfg.budget / 5).max(1), split_seed(s, 4))?,
        campaign::evasive_propagation(cfg, split_seed(s, 5))?,
        campaign::resilient_deploy(cfg, per_transport_kind, split_seed(s, 8))?,
    ];
    let escape_model = campaign::escape_model(cfg.escape_trials, 4, split_seed(s, 6));
    let differential = run_differentials(split_seed(s, 7), DiffBudget::smoke())?;
    Ok(CampaignReport {
        seed: cfg.seed,
        budget: cfg.budget,
        campaigns,
        escape_model,
        differential,
    })
}

impl CampaignReport {
    /// Undetected escapes across all adversarial campaigns.
    pub fn total_escapes(&self) -> u64 {
        self.campaigns.iter().map(|c| c.tally.escaped).sum()
    }

    /// Verifies the report's internal invariants — the guarantee that no
    /// injected fault or attack fell out of the books:
    ///
    /// * every campaign tally is exhaustively accounted
    ///   (attempted = detected + faulted + rejected + clean + escaped);
    /// * every detection contributed a latency sample;
    /// * escape-model rows are monotone non-increasing in `k` with
    ///   `escapes ≤ trials`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for c in &self.campaigns {
            if !c.tally.is_accounted() {
                return Err(format!(
                    "campaign {}: {} attempted but buckets sum to {} ({:?})",
                    c.name,
                    c.tally.attempted,
                    c.tally.detected
                        + c.tally.faulted
                        + c.tally.rejected
                        + c.tally.clean
                        + c.tally.escaped,
                    c.tally
                ));
            }
            if c.latency.count != c.tally.detected {
                return Err(format!(
                    "campaign {}: {} detections but {} latency samples",
                    c.name, c.tally.detected, c.latency.count
                ));
            }
        }
        let mut prev = u64::MAX;
        for row in &self.escape_model {
            if row.escapes > row.trials {
                return Err(format!(
                    "escape model k={}: {} escapes out of {} trials",
                    row.k, row.escapes, row.trials
                ));
            }
            if row.escapes > prev {
                return Err(format!(
                    "escape model k={}: escapes increased ({} after {})",
                    row.k, row.escapes, prev
                ));
            }
            prev = row.escapes;
        }
        Ok(())
    }

    /// Renders the canonical JSON document. Byte-identical for identical
    /// `(seed, budget, routers, escape_trials)` — the replay contract the
    /// CLI and CI rely on. Contains no wall-clock values by construction.
    pub fn to_json(&self) -> String {
        let campaigns = self.campaigns.iter().map(|c| {
            Json::obj([
                ("name", Json::from(c.name)),
                (
                    "tally",
                    Json::obj([
                        ("attempted", Json::from(c.tally.attempted)),
                        ("detected", Json::from(c.tally.detected)),
                        ("faulted", Json::from(c.tally.faulted)),
                        ("rejected", Json::from(c.tally.rejected)),
                        ("clean", Json::from(c.tally.clean)),
                        ("escaped", Json::from(c.tally.escaped)),
                    ]),
                ),
                (
                    "detection_latency_steps",
                    Json::obj([
                        ("count", Json::from(c.latency.count)),
                        ("min", Json::from(c.latency.min)),
                        ("max", Json::from(c.latency.max)),
                        ("mean", Json::fixed(c.latency.mean(), 3)),
                    ]),
                ),
                ("recoveries", Json::from(c.recoveries)),
                (
                    "details",
                    Json::obj(c.details.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
                ),
            ])
        });
        let escape_rows = self.escape_model.iter().map(|r| {
            Json::obj([
                ("k", Json::from(r.k)),
                ("trials", Json::from(r.trials)),
                ("escapes", Json::from(r.escapes)),
                ("observed_rate", Json::fixed(r.observed_rate(), 8)),
                ("model_rate_16_pow_minus_k", Json::fixed(r.model_rate(), 8)),
            ])
        });
        let diffs = self.differential.checks.iter().map(|c| {
            Json::obj([
                ("name", Json::from(c.name)),
                ("trials", Json::from(c.trials)),
                ("divergences", Json::from(c.divergences)),
            ])
        });
        let doc = Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("budget", Json::from(self.budget)),
            ("campaigns", Json::array(campaigns)),
            ("escape_model", Json::array(escape_rows)),
            ("differential", Json::array(diffs)),
        ]);
        let mut text = doc.render(0);
        text.push('\n');
        text
    }

    /// Renders the report as structured events for the observability bus:
    /// `campaign.start`, one `campaign.done` per adversarial campaign, one
    /// `escape_model.row` per `k`, one `differential.done` per check, and a
    /// closing `campaign.report`. The logical clock is the cumulative trial
    /// count — attempted attacks, then escape-model trials, then
    /// differential trials — so the stream orders by work performed and
    /// never touches wall time.
    pub fn to_events(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.campaigns.len() + self.escape_model.len() + 4);
        events.push(
            Event::new("campaign.start", 0)
                .field("seed", self.seed)
                .field("budget", self.budget)
                .field("campaigns", self.campaigns.len()),
        );
        let mut clock = 0u64;
        for c in &self.campaigns {
            clock += c.tally.attempted;
            events.push(
                Event::new("campaign.done", clock)
                    .field("name", c.name)
                    .field("attempted", c.tally.attempted)
                    .field("detected", c.tally.detected)
                    .field("faulted", c.tally.faulted)
                    .field("rejected", c.tally.rejected)
                    .field("clean", c.tally.clean)
                    .field("escaped", c.tally.escaped)
                    .field("recoveries", c.recoveries)
                    .field("latency_min_steps", c.latency.min)
                    .field("latency_max_steps", c.latency.max),
            );
        }
        for r in &self.escape_model {
            clock += r.trials;
            events.push(
                Event::new("escape_model.row", clock)
                    .field("k", r.k)
                    .field("trials", r.trials)
                    .field("escapes", r.escapes),
            );
        }
        for c in &self.differential.checks {
            clock += c.trials;
            events.push(
                Event::new("differential.done", clock)
                    .field("name", c.name)
                    .field("trials", c.trials)
                    .field("divergences", c.divergences),
            );
        }
        events.push(
            Event::new("campaign.report", clock)
                .field("total_escapes", self.total_escapes())
                .field(
                    "accounting",
                    if self.verify_accounting().is_ok() {
                        "ok"
                    } else {
                        "violated"
                    },
                ),
        );
        events
    }

    /// Human-readable summary table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>8} {:>7} {:>8} {:>7} {:>7} {:>10}",
            "campaign",
            "attempted",
            "detected",
            "faulted",
            "rejected",
            "clean",
            "escaped",
            "recoveries"
        );
        for c in &self.campaigns {
            let t = &c.tally;
            let _ = writeln!(
                out,
                "{:<20} {:>9} {:>8} {:>7} {:>8} {:>7} {:>7} {:>10}",
                c.name,
                t.attempted,
                t.detected,
                t.faulted,
                t.rejected,
                t.clean,
                t.escaped,
                c.recoveries
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "escape model (random k-instruction deviations):");
        for r in &self.escape_model {
            let _ = writeln!(
                out,
                "  k={}  trials={:<9} escapes={:<7} observed={:.8}  model 16^-k={:.8}",
                r.k,
                r.trials,
                r.escapes,
                r.observed_rate(),
                r.model_rate()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "differential checks (fast path vs oracle):");
        for c in &self.differential.checks {
            let _ = writeln!(
                out,
                "  {:<28} trials={:<6} divergences={}",
                c.name, c.trials, c.divergences
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny() -> CampaignConfig {
        CampaignConfig::new(5)
            .with_budget(40)
            .with_routers(2)
            .with_escape_trials(400)
    }

    /// The tiny campaign's report, run once and shared by the tests that
    /// only read it (one run takes seconds in a debug build). The replay
    /// tests still make their own independent runs.
    fn tiny_report() -> &'static CampaignReport {
        static REPORT: OnceLock<CampaignReport> = OnceLock::new();
        REPORT.get_or_init(|| run_campaign(&tiny()).unwrap())
    }

    fn render(events: Vec<Event>) -> String {
        let bus = sdmmon_obs::EventBus::new();
        bus.extend(events);
        bus.render_jsonl()
    }

    #[test]
    fn report_passes_accounting() {
        let report = tiny_report();
        report.verify_accounting().unwrap();
        assert_eq!(report.campaigns.len(), 6);
        let resilient = report
            .campaigns
            .iter()
            .find(|c| c.name == "resilient_deploy")
            .expect("healing campaign present");
        assert_eq!(resilient.tally.escaped, 0);
        assert_eq!(report.escape_model.len(), 4);
        assert_eq!(report.differential.total_divergences(), 0);
    }

    #[test]
    fn json_is_byte_stable_across_runs() {
        let replay = run_campaign(&tiny()).unwrap();
        let a = tiny_report().to_json();
        assert_eq!(a, replay.to_json());
        assert!(a.contains("\"schema\": \"sdmmon-campaign-v1\""));
        assert!(a.ends_with('\n'));
        // The event stream is a pure function of the byte-stable report.
        assert_eq!(
            render(tiny_report().to_events()),
            render(replay.to_events())
        );
    }

    #[test]
    fn different_seeds_differ() {
        let b = run_campaign(
            &CampaignConfig::new(6)
                .with_budget(40)
                .with_routers(2)
                .with_escape_trials(400),
        )
        .unwrap()
        .to_json();
        assert_ne!(tiny_report().to_json(), b);
    }

    #[test]
    fn observed_run_narrates_the_report_deterministically() {
        let report = tiny_report();
        let jsonl = render(report.to_events());
        let lines: Vec<&str> = jsonl.lines().collect();
        // start + one per campaign + one per escape row + one per
        // differential check + the closing report event.
        assert_eq!(
            lines.len(),
            1 + report.campaigns.len()
                + report.escape_model.len()
                + report.differential.checks.len()
                + 1
        );
        for line in &lines {
            sdmmon_obs::validate_event_line(line).unwrap();
        }
        assert!(lines[0].contains("\"kind\":\"campaign.start\""));
        assert!(lines
            .last()
            .unwrap()
            .contains("\"kind\":\"campaign.report\""));
        // Clocks are cumulative trial counts: monotone non-decreasing.
        let events = report.to_events();
        assert!(events.windows(2).all(|w| w[0].clock <= w[1].clock));
    }

    #[test]
    fn summary_lists_every_campaign() {
        let report = tiny_report();
        let text = report.summary();
        for c in &report.campaigns {
            assert!(text.contains(c.name), "{text}");
        }
    }
}
