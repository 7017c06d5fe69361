//! The sharded-engine scenario: serial reference dispatch vs
//! the sharded batch engine, swept over shard counts, with byte-identity
//! asserted on every timed run.
//!
//! The serial baseline is [`NetworkProcessor::process_batch_serial`] — the
//! per-instruction-dispatch oracle the engine is pinned to. The optimized
//! side is [`NetworkProcessor::process_batch`] at each swept shard count.
//! Runs are interleaved (serial, then every shard count, per repeat) so a
//! frequency ramp or noisy neighbor biases all configurations alike, and
//! the best of `repeats` is reported per configuration.
//!
//! On a single-CPU host the shard counts are throughput-neutral — every
//! worker shares one core — so the measured gain is the engine's fused
//! per-packet dispatch; see `docs/PERF.md` for how to read the sweep.

use crate::render_table;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_npu::np::NetworkProcessor;
use sdmmon_npu::programs::{self, testing};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::time::Instant;

/// Simulated NP core count for the sweep (a property of the modelled
/// device; 8 cores admit the full {1, 2, 4, 8} shard sweep).
const CORES: usize = 8;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Packets per timed batch.
    pub packets: usize,
    /// Timed repeats per configuration (best-of is reported).
    pub repeats: usize,
    /// Shard counts to sweep, ascending.
    pub shard_counts: Vec<usize>,
}

impl ShardedConfig {
    /// Standard sweep: `{1, 2, 4, 8}` shards capped at `max_shards`
    /// (default all). `quick` shrinks the batch for CI smoke runs.
    pub fn new(quick: bool, max_shards: Option<usize>) -> ShardedConfig {
        let max = max_shards.unwrap_or(CORES).clamp(1, CORES);
        let mut shard_counts: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|&s| s <= max).collect();
        if !shard_counts.contains(&max) {
            shard_counts.push(max);
        }
        ShardedConfig {
            packets: if quick { 1024 } else { 16_384 },
            repeats: if quick { 2 } else { 3 },
            shard_counts,
        }
    }
}

/// One swept configuration's best observed throughput.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Engine shard count.
    pub shards: usize,
    /// Best-of-repeats packets per second.
    pub pps: f64,
}

/// The scenario's result: serial baseline plus the sweep. Byte-identity
/// (outcomes and `NpStats`) is asserted during [`run`], so a report that
/// exists at all certifies it.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Simulated NP cores.
    pub cores: usize,
    /// Host hardware threads — what the shard workers actually ran on.
    /// On a one-CPU host every sweep point above 1 shard times the same
    /// physical resource, which is why the sweep can be non-monotone; see
    /// `docs/PERF.md`.
    pub host_cores: usize,
    /// Packets per timed batch.
    pub packets: usize,
    /// Timed repeats per configuration.
    pub repeats: usize,
    /// Best-of-repeats serial (reference-dispatch) packets per second.
    pub serial_pps: f64,
    /// Sharded-engine sweep, in ascending shard order.
    pub sweep: Vec<ShardPoint>,
}

impl ShardedReport {
    /// Speedup of one sweep point over the serial baseline.
    pub fn speedup(&self, point: &ShardPoint) -> f64 {
        point.pps / self.serial_pps
    }

    /// The headline point: the highest swept shard count.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty (cannot happen via [`run`]).
    pub fn headline(&self) -> ShardPoint {
        *self.sweep.last().expect("sweep is never empty")
    }

    /// ASCII summary table.
    pub fn table(&self) -> String {
        let mut rows = vec![vec![
            "serial (reference dispatch)".into(),
            format!("{:.0}", self.serial_pps / 1e3),
            "1.00x".into(),
        ]];
        for point in &self.sweep {
            rows.push(vec![
                format!("sharded engine, {} shard(s)", point.shards),
                format!("{:.0}", point.pps / 1e3),
                format!("{:.2}x", self.speedup(point)),
            ]);
        }
        render_table(
            &[
                &format!(
                    "np batch, {} cores, {} packets, {} host cores",
                    self.cores, self.packets, self.host_cores
                ),
                "kpps",
                "vs serial",
            ],
            &rows,
        )
    }
}

/// Runs the sweep. Every timed batch — serial and sharded alike — is
/// compared against a reference result computed up front, and the final
/// `NpStats` of every NP must match the serial twin exactly; any
/// divergence panics rather than reporting a tainted number. The timed
/// NPs carry no event bus, so the loop is free of event plumbing.
pub fn run(cfg: &ShardedConfig) -> ShardedReport {
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let image = program.to_bytes();
    let install = |np: &mut NetworkProcessor| {
        np.install_all(&image, program.base, |i| {
            let hash = MerkleTreeHash::new(0x0bad_5eed ^ i as u32);
            let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
            Box::new(HardwareMonitor::new(graph, hash))
        });
    };
    let mut rng = StdRng::seed_from_u64(0xBE7C_0003);
    let packets: Vec<Vec<u8>> = (0..cfg.packets)
        .map(|_| {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..10u8)];
            testing::ipv4_udp_packet(src, dst, 4000, rng.gen_range(1000..2000u16), b"batch pay")
        })
        .collect();

    // Reference outcomes, computed once untimed.
    let mut oracle = NetworkProcessor::new(CORES);
    install(&mut oracle);
    let expected = oracle.process_batch_serial(&packets);

    let mut serial_np = NetworkProcessor::new(CORES);
    install(&mut serial_np);
    let mut shard_nps: Vec<NetworkProcessor> = cfg
        .shard_counts
        .iter()
        .map(|&shards| {
            let mut np = NetworkProcessor::new(CORES);
            install(&mut np);
            np.set_shards(shards);
            np
        })
        .collect();

    let mut serial_pps = 0f64;
    let mut sweep_pps = vec![0f64; shard_nps.len()];
    for _ in 0..cfg.repeats {
        let t = Instant::now();
        let out = serial_np.process_batch_serial(&packets);
        serial_pps = serial_pps.max(packets.len() as f64 / t.elapsed().as_secs_f64());
        assert_eq!(out, expected, "serial run diverged from the oracle");
        for (np, best) in shard_nps.iter_mut().zip(sweep_pps.iter_mut()) {
            let t = Instant::now();
            let out = np.process_batch(&packets);
            *best = best.max(packets.len() as f64 / t.elapsed().as_secs_f64());
            assert_eq!(
                out,
                expected,
                "sharded engine diverged from serial at {} shards",
                np.shards()
            );
        }
    }
    // Every NP processed the identical workload the same number of times,
    // so their aggregate statistics must be byte-identical.
    let want = serial_np.stats();
    for np in &shard_nps {
        assert_eq!(
            np.stats(),
            want,
            "NpStats diverged from serial at {} shards",
            np.shards()
        );
    }

    ShardedReport {
        cores: CORES,
        host_cores: sdmmon_npu::engine::host_threads(),
        packets: cfg.packets,
        repeats: cfg.repeats,
        serial_pps,
        sweep: cfg
            .shard_counts
            .iter()
            .zip(sweep_pps)
            .map(|(&shards, pps)| ShardPoint { shards, pps })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reports_every_shard_count() {
        let cfg = ShardedConfig {
            packets: 64,
            repeats: 1,
            shard_counts: vec![1, 2],
        };
        let report = run(&cfg);
        assert_eq!(report.sweep.len(), 2);
        assert_eq!(report.headline().shards, 2);
        assert!(report.serial_pps > 0.0);
    }

    #[test]
    fn config_caps_the_sweep() {
        let cfg = ShardedConfig::new(true, Some(3));
        assert_eq!(cfg.shard_counts, vec![1, 2, 3]);
        let cfg = ShardedConfig::new(true, None);
        assert_eq!(cfg.shard_counts, vec![1, 2, 4, 8]);
    }
}
