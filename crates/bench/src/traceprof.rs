//! The sampled-tracing overhead gate: the [`HijackScenario`] stream timed
//! with the span/trace layer off and on.
//!
//! One untimed reference pair first asserts that tracing changes neither
//! packet outcomes nor `NpStats`. Then interleaved timed runs compare
//! tracing-off against tracing-on throughput: both sides carry an event
//! bus, traced only on the tracing-on side (so the delta isolates the
//! trace layer, not event plumbing), best-of-`repeats` per side, and
//! `sdmmon bench` fails when the overhead exceeds [`OVERHEAD_GATE_PCT`].

use crate::hijack::{HijackScenario, CORES};
use crate::render_table;
use sdmmon_npu::np::StreamConfig;
use sdmmon_obs::trace::TraceContext;
use sdmmon_obs::EventBus;
use std::sync::Arc;
use std::time::Instant;

/// The overhead budget the scenario is gated on, in percent.
pub const OVERHEAD_GATE_PCT: f64 = 5.0;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct TraceProfConfig {
    /// Arrival rounds per run.
    pub rounds: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Per-shard ingress budget per round.
    pub shard_capacity: usize,
    /// Timed repeats per side (best-of is reported).
    pub repeats: usize,
    /// Open-loop source seed (also the trace-sampler seed).
    pub seed: u64,
    /// Per-mille flow sampling rate for the tracing-on side.
    pub sample_per_mille: u16,
}

impl TraceProfConfig {
    /// Standard run: the `sdmmon stream` hijack recipe at 64‰ sampling.
    /// `quick` shrinks the round count for CI smoke runs.
    pub fn new(quick: bool) -> TraceProfConfig {
        TraceProfConfig {
            rounds: if quick { 8 } else { 48 },
            shards: 4,
            shard_capacity: 48,
            repeats: if quick { 3 } else { 5 },
            seed: 0xBE7C_000A,
            sample_per_mille: 64,
        }
    }
}

/// The scenario's result. The untimed reference pair asserts identical
/// packet outcomes and `NpStats` with tracing off and on, so a report
/// that exists at all certifies tracing never perturbed execution.
#[derive(Debug, Clone)]
pub struct TraceProfReport {
    /// Arrival rounds per run.
    pub rounds: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Per-mille flow sampling rate.
    pub sample_per_mille: u16,
    /// Timed repeats per side.
    pub repeats: usize,
    /// Best-of-repeats admitted packets/second with tracing off.
    pub pps_off: f64,
    /// Best-of-repeats admitted packets/second with tracing on.
    pub pps_on: f64,
}

impl TraceProfReport {
    /// Sampled-tracing throughput overhead in percent (clamped at 0 —
    /// a faster tracing-on run is noise, not a speedup).
    pub fn overhead_pct(&self) -> f64 {
        ((self.pps_off / self.pps_on - 1.0) * 100.0).max(0.0)
    }

    /// Whether the overhead sits within [`OVERHEAD_GATE_PCT`].
    pub fn within_gate(&self) -> bool {
        self.overhead_pct() <= OVERHEAD_GATE_PCT
    }

    /// ASCII summary table: tracing off against tracing on.
    pub fn table(&self) -> String {
        let kpps = |pps: f64| format!("{:.0}", pps / 1e3);
        render_table(
            &[
                &format!(
                    "stream, {CORES} cores / {} shards, {} rounds",
                    self.shards, self.rounds
                ),
                "admitted kpps",
                "overhead",
            ],
            &[
                vec!["tracing off".into(), kpps(self.pps_off), "-".into()],
                vec![
                    format!("tracing on, {}\u{2030} sampled", self.sample_per_mille),
                    kpps(self.pps_on),
                    format!("{:.2}%", self.overhead_pct()),
                ],
            ],
        )
    }
}

/// Runs the scenario: the [`HijackScenario`] workload, one untimed
/// reference pair for the identity assertion, then interleaved timed
/// off/on runs for the overhead pair.
pub fn run(cfg: &TraceProfConfig) -> TraceProfReport {
    let scenario = HijackScenario::new(cfg.seed, cfg.rounds);
    let rounds = &scenario.rounds;
    let build = || scenario.np(cfg.shards);
    let stream_cfg = StreamConfig {
        shard_capacity: cfg.shard_capacity,
    };
    let tc = TraceContext::new(cfg.seed, cfg.sample_per_mille);

    // Reference pair, untimed: tracing must not perturb execution.
    let mut plain = build();
    let expected = plain.process_stream(rounds, &stream_cfg);
    let mut traced = build();
    traced.set_event_bus(Some(Arc::new(EventBus::traced(tc))));
    let got = traced.process_stream(rounds, &stream_cfg);
    assert_eq!(
        got.outcomes, expected.outcomes,
        "tracing changed packet outcomes"
    );
    assert_eq!(traced.stats(), plain.stats(), "tracing changed NpStats");

    // Timed pair, interleaved: off then on per repeat, best-of each side.
    // Both sides carry a bus so the measured delta is the trace layer.
    let mut pps_off = 0f64;
    let mut pps_on = 0f64;
    for _ in 0..cfg.repeats {
        let mut np = build();
        np.set_event_bus(Some(Arc::new(EventBus::new())));
        let t = Instant::now();
        let out = np.process_stream(rounds, &stream_cfg);
        pps_off = pps_off.max(out.report.admitted as f64 / t.elapsed().as_secs_f64());

        let mut np = build();
        np.set_event_bus(Some(Arc::new(EventBus::traced(tc))));
        let t = Instant::now();
        let out = np.process_stream(rounds, &stream_cfg);
        pps_on = pps_on.max(out.report.admitted as f64 / t.elapsed().as_secs_f64());
    }

    TraceProfReport {
        rounds: cfg.rounds,
        shards: cfg.shards,
        sample_per_mille: cfg.sample_per_mille,
        repeats: cfg.repeats,
        pps_off,
        pps_on,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_times_both_sides() {
        let cfg = TraceProfConfig {
            rounds: 3,
            shards: 2,
            shard_capacity: 24,
            repeats: 1,
            seed: 0xBE7C_000A,
            sample_per_mille: 200,
        };
        let report = run(&cfg);
        assert!(report.pps_off > 0.0 && report.pps_on > 0.0);
        assert!(report.overhead_pct() >= 0.0);
        assert!(report.table().contains("tracing on, 200"));
    }
}
