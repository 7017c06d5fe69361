//! The `hash` scenario (PR 6): scalar Merkle-tree hashing vs the SWAR
//! bit-sliced block path, per compression function, plus the end-to-end
//! effect on monitored packet throughput.
//!
//! The microbench times [`InstructionHash::hash`] in a scalar loop against
//! [`InstructionHash::hash_block`] over the same words in 16-lane blocks
//! (the monitor's retirement-block width). Both sides hash the identical
//! word stream and their outputs are folded into a checksum that must
//! agree — a timed run that diverges panics instead of reporting.
//!
//! The end-to-end pair runs one monitored core over the same packet batch
//! twice: once through [`Core::process_packet`] (the per-instruction
//! reference dispatch) and once through [`ExecutionObserver::run_packet`]
//! (the block path behind the batch engine), asserting identical outcomes.

use crate::render_table;
use sdmmon_monitor::hash::{Compression, MerkleTreeHash, BLOCK_LANES};
use sdmmon_monitor::{HardwareMonitor, InstructionHash, MonitoringGraph};
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::ExecutionObserver;
use sdmmon_npu::programs::{self, testing};
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Bench parameters.
#[derive(Debug, Clone, Copy)]
pub struct HashBenchConfig {
    /// Instruction words hashed per timed microbench pass (a multiple of
    /// [`BLOCK_LANES`]).
    pub words: usize,
    /// Packets in the end-to-end batch.
    pub packets: usize,
    /// Timed repeats per configuration (best-of is reported).
    pub repeats: usize,
}

impl HashBenchConfig {
    /// Standard run; `quick` shrinks the workload for CI smoke runs.
    pub fn new(quick: bool) -> HashBenchConfig {
        HashBenchConfig {
            words: if quick { 1 << 16 } else { 1 << 20 },
            packets: if quick { 1024 } else { 8192 },
            repeats: if quick { 3 } else { 5 },
        }
    }
}

/// One compression's microbench point.
#[derive(Debug, Clone, Copy)]
pub struct HashPoint {
    /// The measured compression function.
    pub compression: Compression,
    /// Best-of-repeats scalar hashes per second.
    pub scalar_hps: f64,
    /// Best-of-repeats bit-sliced hashes per second (per lane-hash, not
    /// per block, so the two columns are directly comparable).
    pub bitsliced_hps: f64,
}

impl HashPoint {
    /// Bit-sliced over scalar speedup.
    pub fn speedup(&self) -> f64 {
        self.bitsliced_hps / self.scalar_hps
    }

    /// Label for the compression (matches `sdmmon`'s `--compression`
    /// values).
    pub fn label(&self) -> &'static str {
        match self.compression {
            Compression::SumMod16 => "sum",
            Compression::Xor => "xor",
            Compression::SBox => "sbox",
            Compression::SipRound => "sip",
        }
    }
}

/// The scenario's result: the per-compression microbench sweep plus the
/// end-to-end dispatch pair. Output identity (checksums and packet
/// outcomes) is asserted during [`run`], so a report that exists at all
/// certifies it.
#[derive(Debug, Clone)]
pub struct HashBenchReport {
    /// Words per microbench pass.
    pub words: usize,
    /// Packets in the end-to-end batch.
    pub packets: usize,
    /// Timed repeats per configuration.
    pub repeats: usize,
    /// Microbench sweep in [`Compression::ALL`] order.
    pub sweep: Vec<HashPoint>,
    /// Best-of-repeats packets per second through the per-instruction
    /// reference dispatch.
    pub reference_pps: f64,
    /// Best-of-repeats packets per second through the block path.
    pub block_pps: f64,
}

impl HashBenchReport {
    /// The gated point: the keyed [`Compression::SipRound`].
    ///
    /// Gating on SipRound is deliberate. For the associative compressions
    /// (sum, xor) the *scalar* tree collapses too — LLVM reassociates the
    /// chained masked adds/xors into one fold — so their scalar baseline
    /// is already far from the paper's 15-node hardware model and the
    /// measured ratio understates the SWAR win. SipRound's per-node
    /// nonlinearity keeps the scalar side an honest tree, making its ratio
    /// the faithful scalar-vs-bit-sliced comparison.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty (cannot happen via [`run`]).
    pub fn headline(&self) -> HashPoint {
        *self
            .sweep
            .iter()
            .find(|p| p.compression == Compression::SipRound)
            .expect("sweep covers Compression::ALL")
    }

    /// End-to-end speedup of the block path over reference dispatch.
    pub fn e2e_speedup(&self) -> f64 {
        self.block_pps / self.reference_pps
    }

    /// ASCII summary table.
    pub fn table(&self) -> String {
        let mut rows = Vec::new();
        for point in &self.sweep {
            rows.push(vec![
                point.label().to_string(),
                format!("{:.1}", point.scalar_hps / 1e6),
                format!("{:.1}", point.bitsliced_hps / 1e6),
                format!("{:.2}x", point.speedup()),
            ]);
        }
        let mut out = render_table(
            &[
                &format!("hash, {} words", self.words),
                "scalar Mh/s",
                "bitsliced Mh/s",
                "speedup",
            ],
            &rows,
        );
        let _ = writeln!(
            out,
            "end-to-end: reference {:.0} pps, block path {:.0} pps ({:.2}x)",
            self.reference_pps,
            self.block_pps,
            self.e2e_speedup()
        );
        out
    }
}

/// Runs the microbench sweep and the end-to-end pair. Scalar and
/// bit-sliced sides hash identical word streams and their folded checksums
/// must agree; the two dispatch paths must produce identical packet
/// outcomes. Any divergence panics rather than reporting a tainted number.
pub fn run(cfg: &HashBenchConfig) -> HashBenchReport {
    let words_len = cfg.words / BLOCK_LANES * BLOCK_LANES;
    assert!(words_len > 0, "word budget below one block");
    let mut rng = StdRng::seed_from_u64(0xBE7C_0006);
    let words: Vec<u32> = (0..words_len).map(|_| rng.next_u32()).collect();

    let sweep = Compression::ALL
        .iter()
        .map(|&compression| {
            let hash = MerkleTreeHash::with_compression(0x5D3_C0DE, compression);
            let mut scalar_hps = 0f64;
            let mut bitsliced_hps = 0f64;
            let mut scalar_sum = 0u64;
            let mut block_sum = 0u64;
            for _ in 0..cfg.repeats {
                let t = Instant::now();
                let mut acc = 0u64;
                for &w in &words {
                    // `black_box` on the input pins each word to a register
                    // so the *scalar* baseline stays scalar — without it
                    // LLVM may auto-vectorize this loop into a SIMD hash,
                    // which is not the per-retired-instruction path the
                    // monitor actually runs.
                    acc = acc.wrapping_add(u64::from(black_box(hash.hash(black_box(w)))));
                }
                scalar_hps = scalar_hps.max(words_len as f64 / t.elapsed().as_secs_f64());
                scalar_sum = acc;

                let t = Instant::now();
                let mut acc = 0u64;
                for block in words.chunks_exact(BLOCK_LANES) {
                    let block: &[u32; BLOCK_LANES] = block.try_into().expect("exact chunk");
                    for h in black_box(hash.hash_block(block)) {
                        acc = acc.wrapping_add(u64::from(h));
                    }
                }
                bitsliced_hps = bitsliced_hps.max(words_len as f64 / t.elapsed().as_secs_f64());
                block_sum = acc;
            }
            assert_eq!(
                scalar_sum, block_sum,
                "bit-sliced {compression:?} diverged from scalar"
            );
            HashPoint {
                compression,
                scalar_hps,
                bitsliced_hps,
            }
        })
        .collect();

    // End-to-end: one monitored core, same packets, both dispatch paths.
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let hash = MerkleTreeHash::new(0x0bad_5eed);
    let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
    let packets: Vec<Vec<u8>> = (0..cfg.packets)
        .map(|_| {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..10u8)];
            testing::ipv4_udp_packet(src, dst, 4000, rng.gen_range(1000..2000u16), b"hash pay")
        })
        .collect();
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    let mut reference = HardwareMonitor::new(graph.clone(), hash);
    let mut blockwise = HardwareMonitor::new(graph, hash);

    let mut reference_pps = 0f64;
    let mut block_pps = 0f64;
    for _ in 0..cfg.repeats {
        let t = Instant::now();
        let ref_out: Vec<_> = packets
            .iter()
            .map(|p| core.process_packet(p, &mut reference))
            .collect();
        reference_pps = reference_pps.max(packets.len() as f64 / t.elapsed().as_secs_f64());

        let t = Instant::now();
        let blk_out: Vec<_> = packets
            .iter()
            .map(|p| blockwise.run_packet(&mut core, p))
            .collect();
        block_pps = block_pps.max(packets.len() as f64 / t.elapsed().as_secs_f64());
        assert_eq!(blk_out, ref_out, "block path diverged from reference");
    }
    assert_eq!(
        blockwise.stats(),
        reference.stats(),
        "monitor statistics diverged between dispatch paths"
    );

    HashBenchReport {
        words: words_len,
        packets: cfg.packets,
        repeats: cfg.repeats,
        sweep,
        reference_pps,
        block_pps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_reports_every_compression() {
        let cfg = HashBenchConfig {
            words: 256,
            packets: 16,
            repeats: 1,
        };
        let report = run(&cfg);
        assert_eq!(report.sweep.len(), Compression::ALL.len());
        assert!(report.sweep.iter().all(|p| p.scalar_hps > 0.0));
        assert_eq!(report.headline().compression, Compression::SipRound);
    }

    #[test]
    fn word_budget_rounds_to_whole_blocks() {
        let cfg = HashBenchConfig {
            words: BLOCK_LANES + 3,
            packets: 4,
            repeats: 1,
        };
        assert_eq!(run(&cfg).words, BLOCK_LANES);
    }
}
