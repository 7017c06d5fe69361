//! Machine-readable performance report for the hot paths: Montgomery/CRT
//! RSA, the NPU pre-decoded instruction cache, the parallel fleet/batch
//! paths, the sharded batch engine (schema v2), the SWAR bit-sliced
//! monitor hash (schema v3), the shared-package fleet-update crypto
//! (schema v4), the streaming ingest engine with bounded ingress and
//! deterministic work stealing (schema v5), and the span tracing layer
//! with its trace-driven stage profile and ≤5% overhead gate (schema v6)
//! — each measured against the code path it replaced (which stays alive
//! as the differential-test oracle).
//!
//! Writes `BENCH_PR10.json` (schema `sdmmon-perf-report-v6`) at the
//! repository root and prints a summary table; the committed
//! `BENCH_PR1.json`, `BENCH_PR4.json`, `BENCH_PR6.json`,
//! `BENCH_PR7.json` and `BENCH_PR9.json` are the frozen v1/v2/v3/v4/v5
//! artifacts of the earlier overhauls. Run with:
//!
//! ```text
//! cargo run --release -p sdmmon-bench --bin perf_report [-- --quick] [--shards N]
//! ```
//!
//! `--quick` shrinks iteration counts for CI smoke runs; `--shards N`
//! caps the sharded sweep. The JSON schema is identical either way.

use sdmmon_bench::hashbench::HashBenchConfig;
use sdmmon_bench::render_table;
use sdmmon_bench::sharded::ShardedConfig;
use sdmmon_bench::streaming::StreamingConfig;
use sdmmon_bench::traceprof::{self, TraceProfConfig};
use sdmmon_core::entities::{Manufacturer, NetworkOperator};
use sdmmon_core::system::Fleet;
use sdmmon_crypto::bignum::BigUint;
use sdmmon_crypto::rsa::RsaKeyPair;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_npu::cpu::{Cpu, DecodeCache, ExecutionObserver, Observation, Trap};
use sdmmon_npu::mem::Memory;
use sdmmon_npu::np::NetworkProcessor;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{MEM_SIZE, PKT_DATA_ADDR, PKT_LEN_ADDR, STACK_TOP, VERDICT_ADDR};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::time::Instant;

/// RSA modulus size for the crypto measurements (the paper's key size).
const RSA_BITS: usize = 2048;
/// Key size for the fleet experiment (whole-protocol wall clock, so the
/// small test key keeps the run short; the scaling is size-agnostic).
const FLEET_KEY_BITS: usize = 512;

/// Host hardware threads. Every section records it (v6) so a report read
/// in isolation says where its timings came from — even for the
/// single-threaded measurements, where it documents the noise floor.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Config {
    sign_iters: usize,
    modexp_iters: usize,
    ips_packets: usize,
    throughput_packets: usize,
    fleet_routers: usize,
    /// Fleet size of the shared-package deploy measurement.
    deploy_routers: usize,
    /// Routers actually prepared on the naive per-router side (the full
    /// per-router packaging is what the shared path exists to avoid, so it
    /// is sampled and reported per-router, never extrapolated to a total).
    naive_sample: usize,
}

impl Config {
    fn new(quick: bool) -> Config {
        if quick {
            Config {
                sign_iters: 2,
                modexp_iters: 2,
                ips_packets: 64,
                throughput_packets: 128,
                fleet_routers: 2,
                deploy_routers: 500,
                naive_sample: 8,
            }
        } else {
            // Sized so each timed side runs long enough (≥100 ms) that
            // scheduler noise does not dominate the ratio.
            Config {
                sign_iters: 8,
                modexp_iters: 4,
                ips_packets: 32_768,
                throughput_packets: 16_384,
                fleet_routers: 6,
                deploy_routers: 10_000,
                naive_sample: 128,
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let max_shards = args.iter().position(|a| a == "--shards").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .expect("--shards wants a positive integer")
    });
    let cfg = Config::new(quick);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"sdmmon-perf-report-v6\",");
    let _ = writeln!(json, "  \"quick\": {quick},");

    rsa_section(&cfg, &mut rows, &mut json);
    npu_section(&cfg, &mut rows, &mut json);
    hash_section(quick, &mut rows, &mut json);
    throughput_section(&cfg, &mut rows, &mut json);
    sharded_section(quick, max_shards, &mut rows, &mut json);
    streaming_section(quick, &mut rows, &mut json);
    traceprof_section(quick, &mut rows, &mut json);
    fleet_section(&cfg, &mut rows, &mut json);
    deploy_section(&cfg, &mut rows, &mut json);

    // Drop the trailing comma of the last section.
    json.truncate(json.trim_end().trim_end_matches(',').len());
    json.push_str("\n}\n");

    print!(
        "{}",
        render_table(&["measurement", "baseline", "optimized", "speedup"], &rows)
    );

    // Quick (CI smoke) runs go to a scratch path so they never clobber the
    // committed full-run report at the repository root.
    let path = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_PR10.quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json")
    };
    std::fs::write(path, &json).expect("write perf report json");
    println!("\nwrote {path}");
}

/// RSA-2048: key generation (Montgomery-backed Miller–Rabin), and the
/// private operation — legacy plain `c^d mod n` (the seed's only path)
/// vs Montgomery + CRT.
fn rsa_section(cfg: &Config, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let mut rng = StdRng::seed_from_u64(0xBE7C_0001);

    let t = Instant::now();
    let keys = RsaKeyPair::generate(RSA_BITS, &mut rng).expect("keygen");
    let keygen_ms = t.elapsed().as_secs_f64() * 1e3;

    let n = BigUint::from_be_bytes(&keys.public.modulus_bytes());
    let inputs: Vec<BigUint> = (0..cfg.sign_iters)
        .map(|_| BigUint::random_below(&n, &mut rng))
        .collect();

    let t = Instant::now();
    let plain: Vec<BigUint> = inputs
        .iter()
        .map(|c| keys.private.private_op_plain(c))
        .collect();
    let sign_legacy_ms = t.elapsed().as_secs_f64() * 1e3 / cfg.sign_iters as f64;

    let t = Instant::now();
    let fast: Vec<BigUint> = inputs
        .iter()
        .map(|c| keys.private.private_op_crt(c))
        .collect();
    let sign_fast_ms = t.elapsed().as_secs_f64() * 1e3 / cfg.sign_iters as f64;
    assert_eq!(plain, fast, "fast path must be bit-identical to the oracle");
    let sign_speedup = sign_legacy_ms / sign_fast_ms;

    // Raw modular exponentiation at full width (no CRT), isolating the
    // Montgomery/windowing gain from the CRT gain.
    let mut modulus = BigUint::random_exact_bits(RSA_BITS, &mut rng);
    if modulus.is_even() {
        modulus = &modulus + &BigUint::one();
    }
    let base = BigUint::random_below(&modulus, &mut rng);
    let exp = BigUint::random_exact_bits(RSA_BITS, &mut rng);
    let t = Instant::now();
    let mut legacy_out = BigUint::zero();
    for _ in 0..cfg.modexp_iters {
        legacy_out = base.mod_pow(&exp, &modulus);
    }
    let modexp_legacy_ms = t.elapsed().as_secs_f64() * 1e3 / cfg.modexp_iters as f64;
    let t = Instant::now();
    let mut mont_out = BigUint::zero();
    for _ in 0..cfg.modexp_iters {
        mont_out = base.mod_pow_fast(&exp, &modulus);
    }
    let modexp_mont_ms = t.elapsed().as_secs_f64() * 1e3 / cfg.modexp_iters as f64;
    assert_eq!(legacy_out, mont_out);
    let modexp_speedup = modexp_legacy_ms / modexp_mont_ms;

    rows.push(vec![
        format!("rsa-{RSA_BITS} keygen"),
        "-".into(),
        format!("{keygen_ms:.0} ms"),
        "-".into(),
    ]);
    rows.push(vec![
        format!("rsa-{RSA_BITS} sign (ms/op)"),
        format!("{sign_legacy_ms:.1}"),
        format!("{sign_fast_ms:.1}"),
        format!("{sign_speedup:.1}x"),
    ]);
    rows.push(vec![
        format!("modexp {RSA_BITS}-bit (ms/op)"),
        format!("{modexp_legacy_ms:.1}"),
        format!("{modexp_mont_ms:.1}"),
        format!("{modexp_speedup:.1}x"),
    ]);

    let _ = writeln!(json, "  \"rsa\": {{");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"key_bits\": {RSA_BITS},");
    let _ = writeln!(json, "    \"keygen_ms\": {keygen_ms:.3},");
    let _ = writeln!(json, "    \"sign_legacy_ms_per_op\": {sign_legacy_ms:.3},");
    let _ = writeln!(json, "    \"sign_fast_ms_per_op\": {sign_fast_ms:.3},");
    let _ = writeln!(json, "    \"sign_speedup\": {sign_speedup:.2},");
    let _ = writeln!(
        json,
        "    \"modexp_legacy_ms_per_op\": {modexp_legacy_ms:.3},"
    );
    let _ = writeln!(
        json,
        "    \"modexp_montgomery_ms_per_op\": {modexp_mont_ms:.3},"
    );
    let _ = writeln!(json, "    \"modexp_speedup\": {modexp_speedup:.2}");
    let _ = writeln!(json, "  }},");
}

/// Replicates the core's packet loop on bare `Cpu`/`Memory` so the fetch
/// path (plain vs pre-decoded) can be chosen; returns retired instructions.
fn run_monitored_packets(
    program: &sdmmon_isa::asm::Program,
    monitor: &mut HardwareMonitor<MerkleTreeHash>,
    packets: &[Vec<u8>],
    cached: bool,
) -> u64 {
    let image = program.to_bytes();
    let mut mem = Memory::new(MEM_SIZE);
    mem.write_bytes(program.base, &image).expect("image fits");
    let mut cache = DecodeCache::build(&mem, program.base, image.len() as u32);
    let mut cpu = Cpu::new();
    let mut retired = 0u64;
    for packet in packets {
        mem.store_u32(PKT_LEN_ADDR, packet.len() as u32).unwrap();
        mem.write_bytes(PKT_DATA_ADDR, packet).unwrap();
        mem.store_u32(VERDICT_ADDR, 0).unwrap();
        cpu.reset();
        cpu.set_pc(program.base);
        cpu.set_reg(sdmmon_isa::Reg::SP, STACK_TOP);
        monitor.begin(program.base);
        loop {
            let stepped = if cached {
                cpu.step_cached(&mut mem, &mut cache)
            } else {
                cpu.step(&mut mem)
            };
            match stepped {
                Ok(r) => {
                    retired += 1;
                    if monitor.observe(r.pc, r.word) == Observation::Violation {
                        panic!("legitimate traffic flagged");
                    }
                }
                Err(Trap::Break(0)) => {
                    retired += 1;
                    break;
                }
                Err(t) => panic!("unexpected trap: {t}"),
            }
        }
    }
    retired
}

/// Monitored-core interpreter speed (instructions/second), with and
/// without the pre-decoded instruction cache.
fn npu_section(cfg: &Config, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let program = programs::ipv4_forward().expect("assembles");
    let hash = MerkleTreeHash::new(0x5eed_cafe);
    let graph = MonitoringGraph::extract(&program, &hash).expect("graph");
    let mut rng = StdRng::seed_from_u64(0xBE7C_0002);
    let packets: Vec<Vec<u8>> = (0..cfg.ips_packets)
        .map(|_| {
            let dst = rng.gen_range(1..10u8);
            testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"perf payload")
        })
        .collect();

    let mut monitor = HardwareMonitor::new(graph.clone(), hash);
    let t = Instant::now();
    let retired_u = run_monitored_packets(&program, &mut monitor, &packets, false);
    let ips_uncached = retired_u as f64 / t.elapsed().as_secs_f64();

    let mut monitor = HardwareMonitor::new(graph, hash);
    let t = Instant::now();
    let retired_c = run_monitored_packets(&program, &mut monitor, &packets, true);
    let ips_cached = retired_c as f64 / t.elapsed().as_secs_f64();
    assert_eq!(
        retired_u, retired_c,
        "cached run must retire the same stream"
    );
    let speedup = ips_cached / ips_uncached;

    rows.push(vec![
        "monitored core (M inst/s)".into(),
        format!("{:.1}", ips_uncached / 1e6),
        format!("{:.1}", ips_cached / 1e6),
        format!("{speedup:.2}x"),
    ]);
    let _ = writeln!(json, "  \"npu\": {{");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"packets\": {},", cfg.ips_packets);
    let _ = writeln!(json, "    \"instructions\": {retired_c},");
    let _ = writeln!(json, "    \"ips_uncached\": {ips_uncached:.0},");
    let _ = writeln!(json, "    \"ips_cached\": {ips_cached:.0},");
    let _ = writeln!(json, "    \"decode_cache_speedup\": {speedup:.3}");
    let _ = writeln!(json, "  }},");
}

/// The bit-sliced monitor hash (PR 6): scalar tree hashing vs the 16-lane
/// SWAR block path per compression, plus the end-to-end dispatch pair
/// (see [`sdmmon_bench::hashbench`]). Output identity is asserted inside
/// the scenario.
fn hash_section(quick: bool, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let report = sdmmon_bench::hashbench::run(&HashBenchConfig::new(quick));
    let headline = report.headline();
    rows.push(vec![
        "monitor hash, sip (M hash/s)".into(),
        format!("{:.1}", headline.scalar_hps / 1e6),
        format!("{:.1}", headline.bitsliced_hps / 1e6),
        format!("{:.2}x", headline.speedup()),
    ]);
    rows.push(vec![
        "monitored core dispatch (kpps)".into(),
        format!("{:.0}", report.reference_pps / 1e3),
        format!("{:.0}", report.block_pps / 1e3),
        format!("{:.2}x", report.e2e_speedup()),
    ]);
    let _ = writeln!(json, "{},", report.json_object());
}

/// Multi-packet simulation across NP cores: sequential flow dispatch vs
/// the scoped-thread batch path (monitored cores in both cases).
fn throughput_section(cfg: &Config, rows: &mut Vec<Vec<String>>, json: &mut String) {
    // Simulated NP core count (a property of the modelled device, not the
    // host); batch speedup depends on host parallelism and is reported as
    // measured.
    let cores = 4;
    let program = programs::ipv4_forward().expect("assembles");
    let image = program.to_bytes();
    let install = |np: &mut NetworkProcessor| {
        np.install_all(&image, program.base, |i| {
            let hash = MerkleTreeHash::new(0x0bad_5eed ^ i as u32);
            let graph = MonitoringGraph::extract(&program, &hash).expect("graph");
            Box::new(HardwareMonitor::new(graph, hash))
        });
    };
    let mut rng = StdRng::seed_from_u64(0xBE7C_0003);
    let packets: Vec<Vec<u8>> = (0..cfg.throughput_packets)
        .map(|_| {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..10u8)];
            testing::ipv4_udp_packet(src, dst, 4000, rng.gen_range(1000..2000u16), b"batch pay")
        })
        .collect();

    let mut np = NetworkProcessor::new(cores);
    install(&mut np);
    let t = Instant::now();
    let seq: Vec<_> = packets.iter().map(|p| np.process_flow(p)).collect();
    let seq_pps = packets.len() as f64 / t.elapsed().as_secs_f64();

    let mut np = NetworkProcessor::new(cores);
    install(&mut np);
    let t = Instant::now();
    let batch = np.process_batch(&packets);
    let batch_pps = packets.len() as f64 / t.elapsed().as_secs_f64();
    assert_eq!(seq, batch, "batch path must be outcome-identical");
    let speedup = batch_pps / seq_pps;
    // Deterministic NP counters for the batch side, on stdout only — the
    // committed BENCH json carries timing, not per-run packet accounting.
    println!("np stats (batch side): {}", np.stats().to_json());

    rows.push(vec![
        format!("np throughput, {cores} cores (kpps)"),
        format!("{:.0}", seq_pps / 1e3),
        format!("{:.0}", batch_pps / 1e3),
        format!("{speedup:.2}x"),
    ]);
    let _ = writeln!(json, "  \"throughput\": {{");
    let _ = writeln!(json, "    \"cores\": {cores},");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"packets\": {},", cfg.throughput_packets);
    let _ = writeln!(json, "    \"sequential_pps\": {seq_pps:.0},");
    let _ = writeln!(json, "    \"batch_pps\": {batch_pps:.0},");
    let _ = writeln!(json, "    \"batch_speedup\": {speedup:.3}");
    let _ = writeln!(json, "  }},");
}

/// The sharded batch engine (PR 4): serial per-instruction oracle vs
/// `process_batch` on the persistent worker pool, swept over shard counts
/// (see [`sdmmon_bench::sharded`]). Byte-identity of outcomes and
/// `NpStats` is asserted inside the scenario.
fn sharded_section(
    quick: bool,
    max_shards: Option<usize>,
    rows: &mut Vec<Vec<String>>,
    json: &mut String,
) {
    let report = sdmmon_bench::sharded::run(&ShardedConfig::new(quick, max_shards), None);
    let headline = report.headline();
    rows.push(vec![
        format!(
            "sharded engine, {} cores / {} shards (kpps)",
            report.cores, headline.shards
        ),
        format!("{:.0}", report.serial_pps / 1e3),
        format!("{:.0}", headline.pps / 1e3),
        format!("{:.2}x", report.speedup(&headline)),
    ]);
    let _ = writeln!(json, "{},", report.json_object());
}

/// The streaming ingest engine (PR 9): open-loop heavy-tailed traffic
/// through bounded ingress admission + deterministic whole-queue work
/// stealing, vs the serial streaming oracle (see
/// [`sdmmon_bench::streaming`]). Byte-identity of outcomes and `NpStats`
/// is asserted inside the scenario; the JSON carries the backpressure
/// accounting and the queue-delay tail percentiles.
fn streaming_section(quick: bool, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let report = sdmmon_bench::streaming::run(&StreamingConfig::new(quick));
    rows.push(vec![
        format!(
            "streaming engine, {} cores / {} shards (kpps)",
            report.cores, report.shards
        ),
        format!("{:.0}", report.serial_pps / 1e3),
        format!("{:.0}", report.stream_pps / 1e3),
        format!("{:.2}x", report.speedup()),
    ]);
    let _ = writeln!(json, "{},", report.json_object());
}

/// The span tracing layer (PR 10): the streaming hijack workload with the
/// sampled tracer armed, profiled per pipeline stage from its own spans,
/// and the tracing-off vs tracing-on throughput pair (see
/// [`sdmmon_bench::traceprof`]). Outcome identity between the two sides
/// is asserted inside the scenario; the report is gated on sampled
/// tracing costing at most 5% of admitted throughput.
fn traceprof_section(quick: bool, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let report = traceprof::run(&TraceProfConfig::new(quick));
    rows.push(vec![
        format!(
            "sampled tracing, {} cores / {}\u{2030} (kpps)",
            report.cores, report.sample_per_mille
        ),
        format!("{:.0}", report.pps_off / 1e3),
        format!("{:.0}", report.pps_on / 1e3),
        format!("{:.2}% overhead", report.overhead_pct()),
    ]);
    let _ = writeln!(json, "{},", report.json_object());
    assert!(
        report.within_gate(),
        "sampled tracing overhead above the {}% gate: {:.2}%",
        traceprof::OVERHEAD_GATE_PCT,
        report.overhead_pct()
    );
}

/// Fleet deployment (per-router keygen + packaging + secure install):
/// serial reference vs scoped-thread parallel path, plus the wall clock of
/// one secure installation.
fn fleet_section(cfg: &Config, rows: &mut Vec<Vec<String>>, json: &mut String) {
    let program = programs::ipv4_forward().expect("assembles");
    let world = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let manufacturer = Manufacturer::new("acme", FLEET_KEY_BITS, &mut rng).expect("keys");
        let mut operator = NetworkOperator::new("op", FLEET_KEY_BITS, &mut rng).expect("keys");
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
        (manufacturer, operator, rng)
    };

    // One secure install, timed end to end (package prep + full SR1–SR4
    // verification; the RSA unwrap now rides the Montgomery/CRT path).
    let (manufacturer, operator, mut rng) = world(0xBE7C_0004);
    let mut router = manufacturer
        .provision_router("r-perf", 1, FLEET_KEY_BITS, &mut rng)
        .expect("router");
    let t = Instant::now();
    let bundle = operator
        .prepare_package(&program, router.public_key(), &mut rng)
        .expect("pkg");
    let report = router.install_bundle(&bundle, &[0]).expect("install");
    let install_ms = t.elapsed().as_secs_f64() * 1e3;

    // RSA key generation alone for the same fleet, timed separately: the
    // deploy wall clock below is keygen-bound, and the v3 report's bare
    // `parallel_speedup` ≈ 1.0 read as "parallelism is broken" when it
    // actually meant "the timed region is mostly this serial-equivalent
    // RSA work". The fraction makes that denominator explicit.
    let (_, _, mut rng) = world(0xBE7C_0005);
    let t = Instant::now();
    for _ in 0..cfg.fleet_routers {
        RsaKeyPair::generate(FLEET_KEY_BITS, &mut rng).expect("pool key");
    }
    let keygen_ms = t.elapsed().as_secs_f64() * 1e3;

    let (manufacturer, operator, mut rng) = world(0xBE7C_0005);
    let t = Instant::now();
    let serial = Fleet::deploy_serial(
        &manufacturer,
        &operator,
        &program,
        cfg.fleet_routers,
        1,
        FLEET_KEY_BITS,
        &mut rng,
    )
    .expect("serial deploy");
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;

    let (manufacturer, operator, mut rng) = world(0xBE7C_0005);
    let t = Instant::now();
    let parallel = Fleet::deploy(
        &manufacturer,
        &operator,
        &program,
        cfg.fleet_routers,
        1,
        FLEET_KEY_BITS,
        &mut rng,
    )
    .expect("parallel deploy");
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        serial.reports(),
        parallel.reports(),
        "deploys must be deterministic"
    );
    let speedup = serial_ms / parallel_ms;

    rows.push(vec![
        "secure install (ms)".into(),
        "-".into(),
        format!("{install_ms:.0}"),
        "-".into(),
    ]);
    rows.push(vec![
        format!("fleet deploy, {} routers (ms)", cfg.fleet_routers),
        format!("{serial_ms:.0}"),
        format!("{parallel_ms:.0}"),
        format!("{speedup:.2}x"),
    ]);
    let _ = writeln!(json, "  \"install\": {{");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"key_bits\": {FLEET_KEY_BITS},");
    let _ = writeln!(json, "    \"package_bytes\": {},", report.package_bytes);
    let _ = writeln!(json, "    \"install_ms\": {install_ms:.3}");
    let _ = writeln!(json, "  }},");
    let keygen_fraction = (keygen_ms / serial_ms).min(1.0);
    let _ = writeln!(json, "  \"fleet\": {{");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"routers\": {},", cfg.fleet_routers);
    let _ = writeln!(json, "    \"key_bits\": {FLEET_KEY_BITS},");
    let _ = writeln!(json, "    \"keygen_ms\": {keygen_ms:.3},");
    let _ = writeln!(json, "    \"keygen_fraction\": {keygen_fraction:.3},");
    let _ = writeln!(json, "    \"serial_deploy_ms\": {serial_ms:.3},");
    let _ = writeln!(json, "    \"parallel_deploy_ms\": {parallel_ms:.3},");
    let _ = writeln!(json, "    \"parallel_speedup\": {speedup:.3}");
    let _ = writeln!(json, "  }},");
}

/// The PR 7 shared-package fleet update: per-router crypto cost of the
/// naive path (one full package — graph extraction, signature, AES
/// encryption, key wrap — per router) vs the shared path (one package +
/// one batched key wrap per router), then the hierarchical transport
/// campaign timed **separately** so simulated-network work never pollutes
/// the crypto figures.
fn deploy_section(cfg: &Config, rows: &mut Vec<Vec<String>>, json: &mut String) {
    use sdmmon_core::distrib::{deploy_fleet, FleetDeployConfig};
    use sdmmon_crypto::rsa::RsaPublicKey;

    /// Router device key size: the 16-byte package key + 11 bytes PKCS#1
    /// padding needs ≥ 216 bits; small keys keep 10k wraps honest about
    /// the *amortization*, which is key-size-agnostic.
    const DEVICE_KEY_BITS: usize = 256;
    const KEY_POOL: usize = 64;

    let program = programs::ipv4_forward().expect("assembles");
    let mut rng = StdRng::seed_from_u64(0xBE7C_0007);
    let manufacturer = Manufacturer::new("acme", FLEET_KEY_BITS, &mut rng).expect("keys");
    let mut operator = NetworkOperator::new("op", FLEET_KEY_BITS, &mut rng).expect("keys");
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    // Both paths draw recipients from the same bounded pool, exactly like
    // the fleet campaign.
    let pool: Vec<RsaKeyPair> = (0..KEY_POOL)
        .map(|_| RsaKeyPair::generate(DEVICE_KEY_BITS, &mut rng).expect("pool key"))
        .collect();

    // Naive side: a complete per-router package, sampled (preparing 10k of
    // them is precisely the cost this PR removes).
    let naive_n = cfg.naive_sample.min(cfg.deploy_routers).max(1);
    let t = Instant::now();
    for i in 0..naive_n {
        operator
            .prepare_package(&program, &pool[i % KEY_POOL].public, &mut rng)
            .expect("naive package");
    }
    let naive_total_ms = t.elapsed().as_secs_f64() * 1e3;
    let naive_per_router_us = naive_total_ms * 1e3 / naive_n as f64;

    // Shared side at full fleet size: one package preparation, then one
    // batched wrap of the symmetric key for every router.
    let routers = cfg.deploy_routers;
    let t = Instant::now();
    let update = operator
        .prepare_fleet_update(&program, &mut rng)
        .expect("fleet update");
    let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
    let recipients: Vec<&RsaPublicKey> = (0..routers).map(|i| &pool[i % KEY_POOL].public).collect();
    let t = Instant::now();
    let wrapped = update.wrap_keys(&recipients, &mut rng).expect("wrap keys");
    let wrap_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(wrapped.len(), routers);
    let shared_per_router_us = (prepare_ms + wrap_ms) * 1e3 / routers as f64;
    let amortization = naive_per_router_us / shared_per_router_us;

    // Transport, as its own measurement: the full hierarchical campaign
    // over the simulated faulty network. Its wall clock includes fault
    // simulation and install verification — reported separately so the
    // crypto amortization above stays a pure crypto ratio.
    let relays = 16usize.min(routers.max(1));
    let config = FleetDeployConfig {
        routers,
        relays,
        key_pool: KEY_POOL,
        ..FleetDeployConfig::default()
    };
    let t = Instant::now();
    let report = deploy_fleet(&config, &program, 0xBE7C_0007, None).expect("fleet campaign");
    let tree_ms = t.elapsed().as_secs_f64() * 1e3;
    report.verify_accounting().expect("campaign accounting");

    rows.push(vec![
        format!("fleet update crypto, {routers} routers (us/router)"),
        format!("{naive_per_router_us:.0}"),
        format!("{shared_per_router_us:.1}"),
        format!("{amortization:.1}x"),
    ]);
    rows.push(vec![
        format!("fleet campaign, {routers} routers x {relays} relays (ms)"),
        "-".into(),
        format!("{tree_ms:.0}"),
        "-".into(),
    ]);

    let _ = writeln!(json, "  \"deploy\": {{");
    let _ = writeln!(json, "    \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "    \"routers\": {routers},");
    let _ = writeln!(json, "    \"relays\": {relays},");
    let _ = writeln!(json, "    \"device_key_bits\": {DEVICE_KEY_BITS},");
    let _ = writeln!(json, "    \"key_pool\": {KEY_POOL},");
    let _ = writeln!(json, "    \"naive_sample_routers\": {naive_n},");
    let _ = writeln!(json, "    \"naive_total_ms\": {naive_total_ms:.3},");
    let _ = writeln!(
        json,
        "    \"naive_per_router_crypto_us\": {naive_per_router_us:.3},"
    );
    let _ = writeln!(json, "    \"shared_prepare_ms\": {prepare_ms:.3},");
    let _ = writeln!(json, "    \"shared_wrap_ms\": {wrap_ms:.3},");
    let _ = writeln!(
        json,
        "    \"shared_per_router_crypto_us\": {shared_per_router_us:.3},"
    );
    let _ = writeln!(json, "    \"crypto_amortization_x\": {amortization:.3},");
    let _ = writeln!(json, "    \"tree_deploy_ms\": {tree_ms:.3},");
    let _ = writeln!(
        json,
        "    \"transport_attempts\": {},",
        report.transport_attempts
    );
    let _ = writeln!(
        json,
        "    \"origin_shared_egress_bytes\": {},",
        report.origin_shared_egress_bytes
    );
    let _ = writeln!(
        json,
        "    \"origin_key_egress_bytes\": {},",
        report.origin_key_egress_bytes
    );
    let _ = writeln!(
        json,
        "    \"relay_egress_bytes\": {},",
        report.relay_egress_bytes
    );
    let _ = writeln!(json, "    \"installed\": {},", report.installed);
    let _ = writeln!(json, "    \"quarantined\": {}", report.quarantined);
    let _ = writeln!(json, "  }},");

    assert!(
        amortization >= 10.0,
        "shared-package crypto amortization below the 10x gate: {amortization:.2}x"
    );
}
