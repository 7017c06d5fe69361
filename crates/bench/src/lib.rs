//! Shared helpers for the SDMMon benchmark harness.
//!
//! Each paper table/figure has a dedicated binary (see `src/bin/`):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | FPGA resource use (paper Table 1) |
//! | `table2` | security-function timing on the control processor (Table 2) |
//! | `table3` | hash-circuit implementation cost (Table 3) |
//! | `fig6` | Hamming-distance distribution of hashed pairs (Figure 6) |
//! | `detection` | detection/escape probability vs attack length (§2.1) |
//! | `ablation_hash_width` | why 4-bit hashes (graph size vs escape rate) |
//! | `ablation_compression` | sum vs xor vs S-box compression (incl. the SR2 transfer finding) |
//! | `graph_size` | monitoring-graph compactness across workloads |
//!
//! `sdmmon bench` is the one performance gate harness. It runs three
//! scenarios, each timed against the in-tree path it must beat: the
//! [`sharded`] sweep (the sharded batch engine at least as fast as serial
//! reference dispatch), the [`hashbench`] sweep (the bit-sliced `sip`
//! hash at least 4x the scalar loop) and the [`traceprof`] pair (sampled
//! tracing within 5% of untraced throughput). The [`hijack`] scenario is
//! the one hijack-salted workload `sdmmon stream`, `sdmmon trace` and
//! [`traceprof`] all run. The committed `BENCH_PR*.json` files are frozen
//! artifacts of an earlier report binary; nothing writes them any more.

pub mod hashbench;
pub mod hijack;
pub mod sharded;
pub mod traceprof;

use std::fmt::Write as _;

/// Renders an ASCII table with a header row and aligned columns.
///
/// # Examples
///
/// ```
/// let t = sdmmon_bench::render_table(
///     &["name", "value"],
///     &[vec!["x".into(), "1".into()], vec!["y".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{:-<w$}-", "", w = w);
        }
        let _ = writeln!(out, "+");
    };
    rule(&mut out);
    for (w, h) in widths.iter().zip(header) {
        let _ = write!(out, "| {h:<w$} ", w = w);
    }
    let _ = writeln!(out, "|");
    rule(&mut out);
    for row in rows {
        for (w, cell) in widths.iter().zip(row) {
            let _ = write!(out, "| {cell:<w$} ", w = w);
        }
        let _ = writeln!(out, "|");
    }
    rule(&mut out);
    out
}

/// Renders a horizontal ASCII bar of `value` against `max` (for figure
/// reproductions in the terminal).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Formats a `std::time::Duration` as seconds with two decimals, matching
/// the paper's Table 2 presentation.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["xxx".into(), "1".into()], vec!["y".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{t}");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(10.0, 10.0, 4), "####");
        assert_eq!(bar(0.0, 10.0, 4), "....");
        assert_eq!(bar(20.0, 10.0, 4), "####");
        assert_eq!(bar(5.0, 10.0, 4), "##..");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
