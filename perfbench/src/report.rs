//! Metric declarations, statistics helpers, the per-layer ledger printer
//! and the result line.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics. Every workload reports each of them from its
/// untraced run (`--trace 0`); `README.md` gives the per-workload meaning.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pps", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer a
/// workload never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("npu.engine.admit_ns_per_pkt", "ns"),
    ("npu.engine.steal_plan_ns_per_round", "ns"),
    ("npu.engine.handoff_us_per_round", "us"),
    ("npu.core.retire_ns_per_pkt", "ns"),
    ("monitor.verify_ns_per_pkt", "ns"),
    ("monitor.hash_ns_per_block", "ns"),
    ("npu.np.settle_ns_per_pkt", "ns"),
    ("npu.core.reset_us", "us"),
    ("npu.np.round_self_us", "us"),
    ("npu.core.instr_per_pkt", "count"),
    ("monitor.full_blocks_per_pkt", "count"),
    ("monitor.tail_instr_per_pkt", "count"),
    ("npu.engine.steals", "count"),
    ("npu.engine.dropped", "count"),
    ("npu.engine.queue_delay_p99", "packets"),
    ("npu.np.recoveries", "count"),
    ("npu.np.redeploys", "count"),
    ("npu.np.quarantines", "count"),
    ("bench.gen_late_p99_us", "us"),
    ("crypto.rsa.keygen_ms", "ms"),
    ("core.entities.package_us", "us"),
    ("crypto.rsa.sign_us", "us"),
    ("core.entities.wrap_us_per_router", "us"),
    ("core.entities.provision_us_per_router", "us"),
    ("core.distrib.fetch_us_per_router", "us"),
    ("core.entities.install_us", "us"),
    ("crypto.rsa.unwrap_us", "us"),
    ("core.cert.verify_us", "us"),
    ("crypto.rsa.sig_verify_us", "us"),
    ("crypto.aes.decrypt_us", "us"),
    ("net.download.attempts", "count"),
    ("core.distrib.sections_fetched", "count"),
    ("core.distrib.sections_reused", "count"),
    ("core.distrib.origin_egress_bytes", "bytes"),
    ("core.distrib.relay_egress_bytes", "bytes"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("deploy_s", "s"),
    ("fail_rate", "ratio"),
    ("escape_rate", "ratio"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// What a workload run hands back to the printer.
#[derive(Debug, Default)]
pub struct Results {
    /// Operations attempted across every measured pass.
    pub attempted: u64,
    /// Operations whose result was wrong (false flag, escaped hijack,
    /// failed install, quarantined router).
    pub failed: u64,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Run context, as pre-rendered JSON values.
    pub context: Vec<(&'static str, String)>,
}

impl Results {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records one context field.
    pub fn context(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Prints one human-readable metric line.
pub fn show(name: &str, value: f64, note: &str) {
    let unit = unit_of(name);
    if note.is_empty() {
        println!("metric {name} = {value:.4} {unit}");
    } else {
        println!("metric {name} = {value:.4} {unit} ({note})");
    }
}

/// Prints the context line and the final result line. The metric set is
/// exactly the declared list for the mode: every end-to-end metric must have
/// been measured; per-layer metrics a workload does not exercise read 0.
pub fn print_result(args: &Args, r: &Results) {
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in r.values.keys() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this mode"
        );
    }
    let mut ctx = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"host_cores\": {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds.as_secs_f64(),
        host_cores()
    );
    for (key, value) in &r.context {
        let _ = write!(ctx, ", \"{key}\": {value}");
    }
    println!("context {ctx}}}");

    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted.max(1),
        r.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match r.values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Hardware threads available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place). 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Quantile `q` of `(value, weight)` samples (sorted in place): the
/// smallest value whose cumulative weight reaches `q` of the total. 0 when
/// the total weight is 0.
pub fn weighted_quantile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= target {
            return value;
        }
    }
    0.0
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `f`, returning its result and wall time.
#[inline]
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// A per-layer ledger: the traced end-to-end time split into the timed
/// layers, plus what no layer accounts for.
#[derive(Debug)]
pub struct Ledger {
    title: String,
    /// Operations the totals are divided by for the per-op column.
    ops: f64,
    op_name: &'static str,
    e2e: Duration,
    /// `(name, total, depth)`; depth 0 rows partition the end-to-end time,
    /// depth 1 rows break down the row above them.
    rows: Vec<(String, Duration, u8)>,
}

impl Ledger {
    /// Starts a ledger for `e2e` traced wall time over `ops` operations.
    pub fn new(title: impl Into<String>, e2e: Duration, ops: u64, op_name: &'static str) -> Ledger {
        Ledger {
            title: title.into(),
            ops: ops.max(1) as f64,
            op_name,
            e2e,
            rows: Vec::new(),
        }
    }

    /// Adds a layer that partitions the end-to-end time.
    pub fn layer(&mut self, name: impl Into<String>, total: Duration) {
        self.rows.push((name.into(), total, 0));
    }

    /// Adds a breakdown row of the preceding layer.
    pub fn part(&mut self, name: impl Into<String>, total: Duration) {
        self.rows.push((name.into(), total, 1));
    }

    /// End-to-end time minus the sum of the top-level layers, as a signed
    /// number of seconds.
    pub fn unattributed_s(&self) -> f64 {
        let layers: f64 = self
            .rows
            .iter()
            .filter(|r| r.2 == 0)
            .map(|r| r.1.as_secs_f64())
            .sum();
        self.e2e.as_secs_f64() - layers
    }

    /// Unattributed remainder as a share of end to end, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_s() / self.e2e.as_secs_f64().max(1e-12)
    }

    /// Prints the ledger table.
    pub fn print(&self) {
        let e2e = self.e2e.as_secs_f64().max(1e-12);
        let per_op = |s: f64| s * 1e6 / self.ops;
        println!(
            "ledger {}: traced end to end {:.4} s = {:.3} us per {} over {} {}s",
            self.title,
            e2e,
            per_op(e2e),
            self.op_name,
            self.ops,
            self.op_name
        );
        for (name, total, depth) in &self.rows {
            let s = total.as_secs_f64();
            let indent = if *depth == 0 { "  " } else { "      " };
            println!(
                "ledger {indent}{name:<44} {:>12.3} us/{} {:>7.2}%",
                per_op(s),
                self.op_name,
                100.0 * s / e2e
            );
        }
        let rest = self.unattributed_s();
        println!(
            "ledger   {:<44} {:>12.3} us/{} {:>7.2}%",
            "unattributed (end to end - layers)",
            per_op(rest),
            self.op_name,
            self.unattributed_pct()
        );
    }
}

/// Prints the tracing overhead line and returns it in percent.
pub fn overhead_pct(traced: Duration, untraced_median: Duration) -> f64 {
    let pct = 100.0 * (traced.as_secs_f64() / untraced_median.as_secs_f64().max(1e-12) - 1.0);
    println!(
        "ledger tracing overhead: traced end to end {:.4} s vs untraced median {:.4} s ({pct:+.2}%)",
        traced.as_secs_f64(),
        untraced_median.as_secs_f64()
    );
    pct
}
