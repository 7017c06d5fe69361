//! The `trace_profile` scenario (PR 10): trace-driven profiling of the
//! streaming pipeline, plus the tracing-overhead gate.
//!
//! One untimed reference run with the span/trace layer armed yields the
//! span aggregates — per-stage counts and the stage cost budgets (queue
//! delay at admission, run-queue position at dispatch, retired
//! instructions and full hash blocks at verification). Then interleaved
//! timed runs compare tracing-off against tracing-on throughput: both
//! sides carry an event bus (so the delta isolates the trace layer, not
//! event plumbing), best-of-`repeats` per side, and the report records the
//! overhead percentage that `perf_report` gates at ≤ 5%.

use crate::hijack::{HijackScenario, CORES};
use crate::render_table;
use sdmmon_monitor::full_blocks;
use sdmmon_npu::np::{StreamConfig, StreamReport};
use sdmmon_obs::trace::{
    TraceContext, KIND_FLIGHT, KIND_SPAN_ADMIT, KIND_SPAN_DISPATCH, KIND_SPAN_INGEST,
    KIND_SPAN_RESPOND, KIND_SPAN_VERIFY,
};
use sdmmon_obs::{Event, EventBus, Value};
use std::fmt::Write as _;
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
    /// `quick` shrinks the round count for CI smoke runs; the report
    /// schema is identical.
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

/// Span-aggregate budget of one pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBudget {
    /// Spans observed at this stage.
    pub count: u64,
    /// Total stage cost in the stage's logical unit (queue delay,
    /// run-queue position, retired instructions, …).
    pub cost_total: u64,
}

impl StageBudget {
    /// Mean cost per span (0 when the stage saw no spans).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cost_total as f64 / self.count as f64
        }
    }
}

/// The scenario's result. The untimed reference run asserts byte-identity
/// between the tracing-off and tracing-on packet outcomes, so a report
/// that exists at all certifies tracing never perturbed execution.
#[derive(Debug, Clone)]
pub struct TraceProfReport {
    /// Simulated NP cores.
    pub cores: usize,
    /// Host hardware threads (what the shard workers actually ran on).
    pub host_cores: usize,
    /// Arrival rounds per run.
    pub rounds: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Per-mille flow sampling rate.
    pub sample_per_mille: u16,
    /// Backpressure accounting of the reference run.
    pub report: StreamReport,
    /// `span.ingest` count (sampled offered packets).
    pub ingest: StageBudget,
    /// `span.admit` budget: cost = queue delay at admission.
    pub admission: StageBudget,
    /// `span.dispatch` budget: cost = position in the core's run queue.
    pub dispatch: StageBudget,
    /// `span.verify` budget: cost = retired instructions.
    pub verify: StageBudget,
    /// Full 16-lane hash blocks the monitor verified over sampled packets
    /// (derived from the verify budget via [`full_blocks`]).
    pub verify_blocks: u64,
    /// `span.respond` count (graded responses on sampled/promoted flows).
    pub respond: StageBudget,
    /// `supervisor.flight` events (retroactively promoted packet records).
    pub flight_records: u64,
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

    /// ASCII summary table: one row per pipeline stage.
    pub fn table(&self) -> String {
        let row = |stage: &str, b: &StageBudget, unit: &str| {
            vec![
                stage.to_string(),
                format!("{}", b.count),
                format!("{}", b.cost_total),
                format!("{:.1} {unit}", b.mean()),
            ]
        };
        let rows = vec![
            row("ingest", &self.ingest, "-"),
            row("admission", &self.admission, "pkts ahead"),
            row("dispatch", &self.dispatch, "queue pos"),
            row("verify", &self.verify, "instr"),
            row("respond", &self.respond, "-"),
        ];
        let mut out = render_table(
            &[
                &format!(
                    "trace profile, {} cores, {} rounds, {}\u{2030}",
                    self.cores, self.rounds, self.sample_per_mille
                ),
                "spans",
                "cost total",
                "mean cost",
            ],
            &rows,
        );
        let _ = writeln!(
            out,
            "verify blocks {} / flight records {} / tracing off {:.0} pps, on {:.0} pps \
             ({:.2}% overhead, gate {OVERHEAD_GATE_PCT}%)",
            self.verify_blocks,
            self.flight_records,
            self.pps_off,
            self.pps_on,
            self.overhead_pct(),
        );
        out
    }

    /// The `"trace_profile"` JSON object (keys only, caller wraps),
    /// matching the `sdmmon-perf-report-v6` schema.
    pub fn json_object(&self) -> String {
        let stage = |json: &mut String, name: &str, b: &StageBudget, comma: &str| {
            let _ = writeln!(
                json,
                "      {{ \"stage\": \"{name}\", \"spans\": {}, \"cost_total\": {}, \"cost_mean\": {:.2} }}{comma}",
                b.count, b.cost_total, b.mean()
            );
        };
        let mut json = String::new();
        let _ = writeln!(json, "  \"trace_profile\": {{");
        let _ = writeln!(json, "    \"cores\": {},", self.cores);
        let _ = writeln!(json, "    \"host_cores\": {},", self.host_cores);
        let _ = writeln!(json, "    \"rounds\": {},", self.rounds);
        let _ = writeln!(json, "    \"shards\": {},", self.shards);
        let _ = writeln!(json, "    \"sample_per_mille\": {},", self.sample_per_mille);
        let _ = writeln!(json, "    \"offered\": {},", self.report.offered);
        let _ = writeln!(json, "    \"admitted\": {},", self.report.admitted);
        let _ = writeln!(json, "    \"stages\": [");
        stage(&mut json, "ingest", &self.ingest, ",");
        stage(&mut json, "admission", &self.admission, ",");
        stage(&mut json, "dispatch", &self.dispatch, ",");
        stage(&mut json, "verify", &self.verify, ",");
        stage(&mut json, "respond", &self.respond, "");
        let _ = writeln!(json, "    ],");
        let _ = writeln!(json, "    \"verify_blocks\": {},", self.verify_blocks);
        let _ = writeln!(json, "    \"flight_records\": {},", self.flight_records);
        let _ = writeln!(json, "    \"pps_off\": {:.0},", self.pps_off);
        let _ = writeln!(json, "    \"pps_on\": {:.0},", self.pps_on);
        let _ = writeln!(json, "    \"overhead_pct\": {:.2},", self.overhead_pct());
        let _ = writeln!(json, "    \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},");
        let _ = writeln!(json, "    \"within_gate\": {}", self.within_gate());
        let _ = write!(json, "  }}");
        json
    }
}

fn field_u64(event: &Event, key: &str) -> u64 {
    event
        .fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            Value::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
        .unwrap_or(0)
}

/// Runs the scenario: the [`HijackScenario`] workload, one untimed
/// traced reference run for the span aggregates and the byte-identity
/// assertion, then interleaved timed off/on runs for the overhead pair.
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
    let expected_stats = plain.stats();
    let bus = Arc::new(EventBus::new());
    let mut traced = build();
    traced.set_event_bus(Some(bus.clone()));
    traced.set_trace(Some(tc));
    let got = traced.process_stream(rounds, &stream_cfg);
    assert_eq!(
        got.outcomes, expected.outcomes,
        "tracing changed packet outcomes"
    );
    assert_eq!(traced.stats(), expected_stats, "tracing changed NpStats");

    // Span aggregates from the traced reference run.
    let mut ingest = StageBudget::default();
    let mut admission = StageBudget::default();
    let mut dispatch = StageBudget::default();
    let mut verify = StageBudget::default();
    let mut respond = StageBudget::default();
    let mut flight_records = 0u64;
    for event in bus.take() {
        match event.kind {
            KIND_SPAN_INGEST => ingest.count += 1,
            KIND_SPAN_ADMIT => {
                admission.count += 1;
                admission.cost_total += field_u64(&event, "delay");
            }
            KIND_SPAN_DISPATCH => {
                dispatch.count += 1;
                dispatch.cost_total += field_u64(&event, "qpos");
            }
            KIND_SPAN_VERIFY => {
                verify.count += 1;
                verify.cost_total += field_u64(&event, "steps");
            }
            KIND_SPAN_RESPOND => respond.count += 1,
            KIND_FLIGHT => flight_records += 1,
            _ => {}
        }
    }

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
        np.set_event_bus(Some(Arc::new(EventBus::new())));
        np.set_trace(Some(tc));
        let t = Instant::now();
        let out = np.process_stream(rounds, &stream_cfg);
        pps_on = pps_on.max(out.report.admitted as f64 / t.elapsed().as_secs_f64());
    }

    TraceProfReport {
        cores: CORES,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rounds: cfg.rounds,
        shards: cfg.shards,
        sample_per_mille: cfg.sample_per_mille,
        report: expected.report,
        ingest,
        admission,
        dispatch,
        verify_blocks: full_blocks(verify.cost_total),
        verify,
        respond,
        flight_records,
        pps_off,
        pps_on,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trace_profile_attributes_stage_budgets() {
        let cfg = TraceProfConfig {
            rounds: 3,
            shards: 2,
            shard_capacity: 24,
            repeats: 1,
            seed: 0xBE7C_000A,
            sample_per_mille: 200,
        };
        let report = run(&cfg);
        assert!(
            report.ingest.count > 0,
            "sampled flows must emit ingest spans"
        );
        assert!(report.admission.count <= report.ingest.count);
        assert_eq!(
            report.dispatch.count, report.verify.count,
            "every dispatched sampled packet is verified"
        );
        assert!(report.verify.cost_total > 0);
        assert_eq!(report.verify_blocks, full_blocks(report.verify.cost_total));
        assert!(report.pps_off > 0.0 && report.pps_on > 0.0);
        let json = report.json_object();
        for key in [
            "\"trace_profile\"",
            "\"host_cores\"",
            "\"stages\"",
            "\"verify_blocks\"",
            "\"overhead_pct\"",
            "\"within_gate\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.table().contains("verify"));
    }
}
