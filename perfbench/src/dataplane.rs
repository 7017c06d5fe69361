//! The data-plane workloads `fwd-bulk` and `hijack-mix`: open-loop rounds
//! through the streaming engine of an 8-core monitored NP at 2 shards.
//!
//! Untraced, a run alternates two passes over the same seeded rounds, each
//! on a freshly built NP (whose build is one `setup_s` sample):
//!
//! * a closed-loop capacity pass, rounds fed back to back through
//!   `process_stream` in two calls (first half, second half), giving `pps`;
//! * a paced open-loop pass, one `process_stream` call per round at the
//!   pinned round period, giving the latency of every admitted packet from
//!   its round's due time until the call that ran it returns.
//!
//! Both passes must reproduce the untimed `process_stream_serial` oracle
//! exactly (outcomes, admission accounting, `NpStats`).
//!
//! Traced, the same rounds run once more one round per call, and around
//! each call the benchmark replays the round's work through each layer's
//! public entry points on replica cores, timing every call (see
//! [`traced_pass`]).

use crate::report::{self, clock, median, quantile, show, Ledger, Results};
use crate::Args;
use sdmmon_isa::asm::{AsmError, Program};
use sdmmon_monitor::hash::bitslice::BitslicedMerkleHash;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_net::traffic::{OpenLoopConfig, OpenLoopSource};
use sdmmon_npu::core::{Core, RETIRE_BLOCK};
use sdmmon_npu::cpu::{ExecutionObserver, NullObserver};
use sdmmon_npu::engine::{dispatch_slots, steal_plan, IngressQueues, WorkerPool};
use sdmmon_npu::np::{
    flow_hash, NetworkProcessor, NpStats, StreamConfig, StreamOutcome, StreamReport,
};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{HaltReason, PacketOutcome, Verdict};
use sdmmon_npu::supervisor::{AdaptiveConfig, SupervisorPolicy};
use sdmmon_npu::trace::Tracer;
use sdmmon_obs::{metrics, Counter};
use sdmmon_rng::{split_seed, Rng, SeedableRng, StdRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Simulated NP cores.
const CORES: usize = 8;
/// Engine shards (worker threads): the host's 2 cores.
const SHARDS: usize = 2;
/// Concurrent flows of the open-loop source: enough that flow-to-core
/// balance, and so throughput, does not hinge on the seed.
const ACTIVE_FLOWS: usize = 256;
/// Distinct attack flows in `hijack-mix` (the injected code's first word
/// is the flow's L4 key, so each variant hashes to its own core).
const ATTACK_FLOWS: usize = 4;

/// One data-plane workload.
#[derive(Debug)]
pub struct Spec {
    name: &'static str,
    program: fn() -> Result<Program, AsmError>,
    /// Arrival events per round of the open-loop source.
    bursts_per_round: usize,
    /// Offered packets per pass: rounds are drawn until they reach it, so
    /// every seed offers (almost) the same amount of work.
    packets: usize,
    /// Per-shard ingress budget per round.
    shard_capacity: usize,
    /// One packet in this many is replaced by a hijack (0: none).
    hijack_one_in: usize,
    policy: fn() -> SupervisorPolicy,
    /// Pinned round period of the paced pass: about a quarter of the
    /// capacity round rate measured at seed 1 on the reference host. At
    /// half, the host's slow phases pushed the paced load past capacity
    /// and the backlog, not the program, set the latency (README.md).
    paced_period_us: u64,
}

/// Benign forwarding in large rounds; ingress never drops.
pub const FWD_BULK: Spec = Spec {
    name: "fwd-bulk",
    program: programs::ipv4_forward,
    bursts_per_round: 96,
    packets: 60_000,
    shard_capacity: 4096,
    hijack_one_in: 0,
    policy: SupervisorPolicy::default,
    paced_period_us: 4400,
};

/// Small rounds of the vulnerable forwarder with 1 in 24 packets a hijack;
/// tight ingress.
pub const HIJACK_MIX: Spec = Spec {
    name: "hijack-mix",
    program: programs::vulnerable_forward,
    bursts_per_round: 24,
    packets: 50_000,
    shard_capacity: 72,
    hijack_one_in: 24,
    policy: stationary_policy,
    paced_period_us: 2600,
};

/// The `hijack-mix` policy: strikes redeploy, nothing escalates to
/// zeroize, so the core set stays stationary over a long run.
fn stationary_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        redeploy_after: 3,
        quarantine_after: 0,
        adaptive: AdaptiveConfig {
            critical: u64::MAX,
            ..AdaptiveConfig::default()
        },
    }
}

/// Seeded inputs of one run.
struct Inputs {
    rounds: Vec<Vec<Vec<u8>>>,
    /// Whether each offered packet is a hijack, per round.
    attack: Vec<Vec<bool>>,
    /// Per-core hash parameters.
    params: [u32; CORES],
}

fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut source = OpenLoopSource::new(OpenLoopConfig {
        seed: split_seed(seed, 1),
        bursts_per_round: spec.bursts_per_round,
        active_flows: ACTIVE_FLOWS,
        ..OpenLoopConfig::default()
    });
    let mut rounds = Vec::new();
    let mut offered = 0;
    while offered < spec.packets {
        let round = source.next_round();
        offered += round.len();
        rounds.push(round);
    }
    let attacks: Vec<Vec<u8>> = (1..=ATTACK_FLOWS)
        .map(|port| {
            testing::hijack_packet(&format!(
                "li $t5, {port}\nli $t4, 0x0007fff0\nsw $t5, 0($t4)\nbreak 0"
            ))
            .expect("attack payload assembles")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 2));
    let attack = rounds
        .iter_mut()
        .map(|round| {
            round
                .iter_mut()
                .map(|packet| {
                    let hit = spec.hijack_one_in > 0 && rng.gen_range(0..spec.hijack_one_in) == 0;
                    if hit {
                        *packet = attacks[rng.gen_range(0..ATTACK_FLOWS)].clone();
                    }
                    hit
                })
                .collect()
        })
        .collect();
    Inputs {
        rounds,
        attack,
        params: std::array::from_fn(|i| split_seed(seed, 16 + i as u64) as u32),
    }
}

/// Program, per-core monitors and engine settings.
struct Plane {
    program: Program,
    image: Vec<u8>,
    params: [u32; CORES],
    policy: SupervisorPolicy,
    cfg: StreamConfig,
}

impl Plane {
    fn monitor(&self, core: usize) -> HardwareMonitor<MerkleTreeHash> {
        let hash = MerkleTreeHash::new(self.params[core]);
        let graph = MonitoringGraph::extract(&self.program, &hash).expect("graph extracts");
        HardwareMonitor::new(graph, hash)
    }

    /// The set-up users pay before serving: build the NP and install the
    /// monitored program on every core (graph extraction included).
    fn build(&self) -> NetworkProcessor {
        let mut np = NetworkProcessor::with_policy(CORES, self.policy);
        np.install_all(&self.image, self.program.base, |i| {
            Box::new(self.monitor(i))
        });
        np.set_shards(SHARDS);
        np
    }

    fn core(&self) -> Core {
        let mut core = Core::new();
        core.install(&self.image, self.program.base);
        core
    }
}

/// The untimed serial oracle every pass must reproduce.
struct Expected {
    outcomes: Vec<Option<(usize, PacketOutcome)>>,
    report: StreamReport,
    stats: NpStats,
}

type Outcomes = Vec<Option<(usize, PacketOutcome)>>;

/// A pass's outcomes and admission accounting, accumulated call by call.
#[derive(Default)]
struct Tally {
    outcomes: Outcomes,
    report: StreamReport,
}

impl Tally {
    fn add(&mut self, out: StreamOutcome) {
        let r = &mut self.report;
        r.rounds += out.report.rounds;
        r.offered += out.report.offered;
        r.admitted += out.report.admitted;
        r.dropped += out.report.dropped;
        r.steals += out.report.steals;
        self.outcomes.extend(out.outcomes);
    }

    /// Compares the pass against the oracle. Steals are not compared: the
    /// serial oracle never steals.
    fn check(&self, label: &str, np: &NetworkProcessor, exp: &Expected) -> Result<(), String> {
        let (outcomes, report, stats) = (&self.outcomes, &self.report, np.stats());
        if let Some(i) = (0..exp.outcomes.len().max(outcomes.len()))
            .find(|&i| outcomes.get(i) != exp.outcomes.get(i))
        {
            return Err(format!(
                "{label}: offered packet {i} diverged from the serial oracle: {:?} vs {:?}",
                outcomes.get(i),
                exp.outcomes.get(i)
            ));
        }
        let key = |r: &StreamReport| (r.rounds, r.offered, r.admitted, r.dropped);
        if key(report) != key(&exp.report) {
            return Err(format!(
                "{label}: admission accounting {report:?} diverged from the oracle {:?}",
                exp.report
            ));
        }
        if stats != exp.stats {
            return Err(format!(
                "{label}: NpStats {stats:?} diverged from the oracle {:?}",
                exp.stats
            ));
        }
        Ok(())
    }
}

/// Stationarity guard: no lockdown, at least one core in dispatch.
fn guard(np: &NetworkProcessor) -> Result<(), String> {
    if np.is_locked_down() {
        return Err("the NP went into lockdown".into());
    }
    if np.active_cores().is_empty() {
        return Err("every core is quarantined".into());
    }
    Ok(())
}

/// Security and service outcome of the oracle run (identical for every
/// pass, since every pass must match it).
#[derive(Debug, Default)]
struct Verdicts {
    benign: u64,
    /// Benign packets dropped at admission.
    shed: u64,
    /// Benign admitted packets halted uncleanly (false flags).
    false_flags: u64,
    hijacks_admitted: u64,
    /// Admitted hijacks that did not halt on a monitor violation.
    escapes: u64,
}

impl Verdicts {
    fn of(inputs: &Inputs, outcomes: &Outcomes) -> Verdicts {
        let mut v = Verdicts::default();
        let flags = inputs.attack.iter().flatten();
        for (outcome, &attack) in outcomes.iter().zip(flags) {
            match (attack, outcome) {
                (false, None) => {
                    v.benign += 1;
                    v.shed += 1;
                }
                (false, Some((_, o))) => {
                    v.benign += 1;
                    v.false_flags += u64::from(!o.halt.is_clean());
                }
                (true, None) => {}
                (true, Some((_, o))) => {
                    v.hijacks_admitted += 1;
                    v.escapes += u64::from(o.halt != HaltReason::MonitorViolation);
                }
            }
        }
        v
    }

    /// Benign offered packets not forwarded (shed or falsely flagged).
    fn fail_rate(&self) -> f64 {
        (self.shed + self.false_flags) as f64 / self.benign.max(1) as f64
    }

    fn escape_rate(&self) -> f64 {
        self.escapes as f64 / self.hijacks_admitted.max(1) as f64
    }

    /// Wrong results per pass: false flags and escaped hijacks. Admission
    /// drops are designed backpressure, counted in `fail_rate` only.
    fn wrong(&self) -> u64 {
        self.false_flags + self.escapes
    }
}

/// Extra NP builds per iteration, beyond the one per pass, for `setup_s`.
const SETUP_BUILDS: usize = 2;

/// Consecutive `process_stream` calls a capacity pass is split into; each
/// call is one throughput sample.
const CHUNKS: usize = 8;

/// One closed-loop capacity pass on a fresh NP.
struct Capacity {
    setup: Duration,
    /// Per call: admitted packets and wall time.
    chunks: Vec<(u64, Duration)>,
}

fn capacity_pass(plane: &Plane, inputs: &Inputs, exp: &Expected) -> Result<Capacity, String> {
    let (mut np, setup) = clock(|| plane.build());
    let mut tally = Tally::default();
    let mut chunks = Vec::with_capacity(CHUNKS);
    let per = inputs.rounds.len().div_ceil(CHUNKS);
    for rounds in inputs.rounds.chunks(per) {
        let (out, d) = clock(|| np.process_stream(rounds, &plane.cfg));
        guard(&np)?;
        chunks.push((out.report.admitted, d));
        tally.add(out);
    }
    tally.check("capacity pass", &np, exp)?;
    Ok(Capacity { setup, chunks })
}

/// Untraced reference for the traced pass: the same per-round calls, back
/// to back, on a fresh NP; returns the summed call time.
fn per_round_pass(plane: &Plane, inputs: &Inputs, exp: &Expected) -> Result<Duration, String> {
    let mut np = plane.build();
    let mut tally = Tally::default();
    let mut total = Duration::ZERO;
    for round in &inputs.rounds {
        let (out, d) = clock(|| np.process_stream(std::slice::from_ref(round), &plane.cfg));
        guard(&np)?;
        total += d;
        tally.add(out);
    }
    tally.check("per-round pass", &np, exp)?;
    Ok(total)
}

/// One paced pass.
struct Paced {
    setup: Duration,
    /// Per round: latency in microseconds of each of its admitted packets
    /// (they share the round's due time and its call's return), and their
    /// count.
    latency: Vec<(f64, u64)>,
    /// Per round: how late it was issued, in microseconds.
    late: Vec<f64>,
}

/// One paced open-loop pass on a fresh NP.
fn paced_pass(
    plane: &Plane,
    inputs: &Inputs,
    exp: &Expected,
    period: Duration,
) -> Result<Paced, String> {
    let (mut np, setup) = clock(|| plane.build());
    let mut tally = Tally::default();
    let mut latency = Vec::with_capacity(inputs.rounds.len());
    let mut late = Vec::with_capacity(inputs.rounds.len());
    let start = Instant::now() + period;
    for (r, round) in inputs.rounds.iter().enumerate() {
        let due = start + period * r as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let issued = Instant::now();
        let out = np.process_stream(std::slice::from_ref(round), &plane.cfg);
        let done = Instant::now();
        guard(&np)?;
        late.push((issued - due).as_secs_f64() * 1e6);
        latency.push(((done - due).as_secs_f64() * 1e6, out.report.admitted));
        tally.add(out);
    }
    tally.check("paced pass", &np, exp)?;
    Ok(Paced {
        setup,
        latency,
        late,
    })
}

/// Runs one data-plane workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Results, String> {
    let program = (spec.program)().map_err(|e| format!("workload assembles: {e}"))?;
    let inputs = inputs(spec, args.seed);
    let plane = Plane {
        image: program.to_bytes(),
        program,
        params: inputs.params,
        policy: (spec.policy)(),
        cfg: StreamConfig {
            shard_capacity: spec.shard_capacity,
        },
    };
    let mut oracle = plane.build();
    let out = oracle.process_stream_serial(&inputs.rounds, &plane.cfg);
    guard(&oracle)?;
    let exp = Expected {
        outcomes: out.outcomes,
        report: out.report,
        stats: oracle.stats(),
    };
    drop(oracle);
    let verdicts = Verdicts::of(&inputs, &exp.outcomes);
    let forwarded = exp
        .outcomes
        .iter()
        .flatten()
        .filter(|(_, o)| matches!(o.verdict, Verdict::Forward(_)))
        .count();
    println!(
        "workload {}: {} rounds, {} offered, {} admitted, {} dropped, {} forwarded, \
         {CORES} cores, {SHARDS} shards, capacity {} per shard per round",
        spec.name,
        exp.report.rounds,
        exp.report.offered,
        exp.report.admitted,
        exp.report.dropped,
        forwarded,
        spec.shard_capacity
    );
    println!(
        "outcome: benign {} (shed {}, false flags {}), hijacks admitted {} (escaped {})",
        verdicts.benign,
        verdicts.shed,
        verdicts.false_flags,
        verdicts.hijacks_admitted,
        verdicts.escapes
    );
    show(
        "fail_rate",
        verdicts.fail_rate(),
        "benign offered not forwarded",
    );
    show(
        "escape_rate",
        verdicts.escape_rate(),
        "admitted hijacks not flagged",
    );

    let period = Duration::from_micros(spec.paced_period_us);
    let mut results = Results::default();
    results.context("shards", SHARDS);
    results.context("sim_cores", CORES);
    results.context("rounds", inputs.rounds.len());
    results.context("shard_capacity", spec.shard_capacity);
    results.context("paced_round_period_us", spec.paced_period_us);
    if args.trace {
        traced(
            spec,
            args,
            &plane,
            &inputs,
            &exp,
            &verdicts,
            period,
            &mut results,
        )?;
        return Ok(results);
    }

    let deadline = Instant::now() + args.seconds;
    let mut setups = Vec::new();
    let mut pps = Vec::new();
    let mut half_pps = [Vec::new(), Vec::new()];
    // Per paced pass: its p50, p90 and p99 latency. The run reports the
    // median over passes, so a host stall inside one pass does not decide
    // the run's tail.
    let mut pass_quantiles: [Vec<f64>; 3] = Default::default();
    let mut paced_passes = 0u64;
    let mut late = Vec::new();
    loop {
        for _ in 0..SETUP_BUILDS {
            setups.push(clock(|| plane.build()).1.as_secs_f64());
        }
        let cap = capacity_pass(&plane, &inputs, &exp)?;
        setups.push(cap.setup.as_secs_f64());
        for (k, &(admitted, d)) in cap.chunks.iter().enumerate() {
            let sample = admitted as f64 / d.as_secs_f64();
            pps.push(sample);
            half_pps[usize::from(2 * k >= cap.chunks.len())].push(sample);
        }
        let mut paced = paced_pass(&plane, &inputs, &exp, period)?;
        setups.push(paced.setup.as_secs_f64());
        for (q, values) in [0.5, 0.9, 0.99].into_iter().zip(&mut pass_quantiles) {
            values.push(report::weighted_quantile(&mut paced.latency, q));
        }
        late.extend(paced.late);
        paced_passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let (first, second) = (median(&mut half_pps[0]), median(&mut half_pps[1]));
    println!(
        "stationarity: pps first half {first:.0}, second half {second:.0} ({:+.2}%), \
         no lockdown and a core in dispatch after every call",
        100.0 * (second / first - 1.0)
    );
    let samples = exp.report.admitted * paced_passes;
    let note = format!(
        "median over {paced_passes} paced passes of each pass's percentile, n={} per pass",
        exp.report.admitted
    );
    let [p50, p90, p99] = pass_quantiles.each_mut().map(|v| median(v));
    let late_p99 = quantile(&mut late, 0.99);
    println!("paced generator: rounds issued late by p99 {late_p99:.1} us (validity check)");
    let values = [
        (
            "setup_s",
            median(&mut setups),
            format!("median of {} builds", setups.len()),
        ),
        (
            "pps",
            median(&mut pps),
            format!("median of {} capacity samples", pps.len()),
        ),
        ("latency_p50_us", p50, note.clone()),
        ("peak_rss_mb", report::peak_rss_mb(), String::new()),
    ];
    for (name, value, note) in values {
        show(name, value, &note);
        results.set(name, value);
    }
    println!(
        "also latency_p90_us = {p90:.4} us, latency_p99_us = {p99:.4} us \
         ({note}; unbounded, see README.md)"
    );
    results.context("latency_samples", samples);
    results.context("paced_passes", paced_passes);
    results.context("pps_samples", pps.len());
    results.context("setup_samples", setups.len());
    // Every iteration runs two passes over the same inputs.
    results.attempted = exp.report.offered * 2 * paced_passes;
    results.failed = verdicts.wrong() * 2 * paced_passes;
    Ok(results)
}

/// Replica state of one simulated core: a bare core for retire, a
/// monitored core on the block path, a monitored core on the reference
/// per-instruction path, and a core that captures the retired words.
struct Replica {
    bare: Core,
    block: (Core, HardwareMonitor<MerkleTreeHash>),
    reference: (Core, HardwareMonitor<MerkleTreeHash>),
    capture: Core,
    sliced: BitslicedMerkleHash,
}

/// Per-layer totals of the traced pass.
#[derive(Debug, Default)]
struct Layers {
    admit: Duration,
    steal: Duration,
    steal_rounds: u64,
    handoff: Duration,
    handoff_rounds: u64,
    retire: Duration,
    run: Duration,
    reference: Duration,
    process_on: Duration,
    hash: Duration,
    blocks: u64,
    reset: Duration,
    resets: u64,
    rounds_total: Duration,
    /// Signed seconds: a replica slower than the engine can exceed it.
    round_self: f64,
    /// Critical-shard (wall-clock) shares of the per-packet layers.
    crit_retire: Duration,
    crit_verify: Duration,
    crit_hash: Duration,
    crit_settle: Duration,
    crit_reset: Duration,
    delays: Vec<f64>,
    steps: u64,
    full_blocks: u64,
    tail: u64,
    quarantines: u64,
    steals: u64,
    offered: u64,
    admitted: u64,
    dropped: u64,
}

fn timer_overhead() -> Duration {
    let mut v: Vec<f64> = (0..4001)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed()).as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&mut v))
}

/// Times `f`, minus the calibrated cost of reading the clock.
#[inline]
fn lap<T>(overhead: Duration, f: impl FnOnce() -> T) -> (T, Duration) {
    let (out, d) = clock(f);
    (out, d.saturating_sub(overhead))
}

fn same(what: &str, got: &PacketOutcome, want: &PacketOutcome) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "traced replica ({what}) diverged: {got:?} vs engine {want:?}"
        ))
    }
}

/// The traced pass: every round runs through the real engine in its own
/// `process_stream` call, and the benchmark replays the round through the
/// public entry point of each layer, timing every call:
///
/// * admission: `np::flow_hash` + `IngressQueues::offer` over the round,
///   against the dispatch table rebuilt from public core state;
/// * `engine::steal_plan` over the admitted loads, and
///   `WorkerPool::run_batch` of empty jobs (the hand-off);
/// * per admitted packet, on replica cores in engine order:
///   `Core::process_packet` with `NullObserver` bounded to the engine's
///   step count (retire), `HardwareMonitor::run_packet` (retire + verify),
///   `Core::process_packet` with the monitor (the reference path) and
///   `NetworkProcessor::process_on` on a replica NP (reference path +
///   settle), and `Core::reset` after every unclean halt;
/// * `BitslicedMerkleHash::hash_block` over the retired words captured
///   with `npu::trace::Tracer`.
///
/// Every replica must reproduce the engine's outcome for the packet.
fn traced_pass(plane: &Plane, inputs: &Inputs, exp: &Expected) -> Result<Layers, String> {
    let overhead = timer_overhead();
    let mut np = plane.build();
    let mut shadow = plane.build();
    let pool = WorkerPool::new(SHARDS);
    let mut replicas: Vec<Replica> = (0..CORES)
        .map(|c| Replica {
            bare: plane.core(),
            block: (plane.core(), plane.monitor(c)),
            reference: (plane.core(), plane.monitor(c)),
            capture: plane.core(),
            sliced: BitslicedMerkleHash::from_scalar(&MerkleTreeHash::new(plane.params[c])),
        })
        .collect();
    let mut tracer = Tracer::keep_last(1 << 16);
    let mut l = Layers::default();
    let mut tally = Tally::default();
    let m = metrics();
    for round in &inputs.rounds {
        // Admission, against the dispatch table the engine will use.
        let weighted: Vec<(usize, u32)> = np
            .active_cores()
            .into_iter()
            .map(|c| (c, if np.is_throttled(c) { 1 } else { 2 }))
            .collect();
        let table = dispatch_slots(&weighted);
        let mut ingress = IngressQueues::new(CORES, SHARDS, plane.cfg.shard_capacity);
        let (_, admit) = lap(overhead, || {
            for (i, packet) in round.iter().enumerate() {
                let core = table[(flow_hash(packet) % table.len() as u64) as usize];
                black_box(ingress.offer(core, i));
            }
        });
        let loads = ingress.loads();
        let admitted: usize = loads.iter().sum();
        let (mut steal, mut handoff) = (Duration::ZERO, Duration::ZERO);
        let owner = if SHARDS > 1 && admitted > 0 {
            let ((owner, steals), d) = lap(overhead, || steal_plan(&loads, SHARDS));
            steal = d;
            l.steal_rounds += 1;
            l.steals += steals;
            let (_, d) = lap(overhead, || {
                pool.run_batch(
                    (0..SHARDS)
                        .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
                        .collect(),
                )
            });
            handoff = d;
            l.handoff_rounds += 1;
            owner
        } else {
            vec![0; CORES]
        };

        // The real round.
        let before = (
            m.counter(Counter::MonitorBlocksVerified),
            m.counter(Counter::MonitorScalarTailInstructions),
            m.counter(Counter::NpQuarantines),
        );
        let (out, t_round) = clock(|| np.process_stream(std::slice::from_ref(round), &plane.cfg));
        l.full_blocks += m.counter(Counter::MonitorBlocksVerified) - before.0;
        l.tail += m.counter(Counter::MonitorScalarTailInstructions) - before.1;
        l.quarantines += m.counter(Counter::NpQuarantines) - before.2;
        guard(&np)?;

        // The admission replica must have admitted exactly what the engine
        // admitted, to the same cores.
        for (core, queue) in ingress.queues().iter().enumerate() {
            for (pos, &i) in queue.iter().enumerate() {
                if !matches!(out.outcomes[i], Some((c, _)) if c == core) {
                    return Err(format!(
                        "admission replica placed packet {i} on core {core}, engine: {:?}",
                        out.outcomes[i]
                    ));
                }
                l.delays.push(pos as f64);
            }
        }
        if admitted as u64 != out.report.admitted {
            return Err("admission replica admitted a different count".into());
        }

        // Per-core replicas, in engine order.
        let mut shard_work = [Duration::ZERO; SHARDS];
        let mut core_parts = [[Duration::ZERO; 5]; CORES];
        for (core, queue) in ingress.queues().iter().enumerate() {
            let rep = &mut replicas[core];
            let mut blocks: Vec<[u32; RETIRE_BLOCK]> = Vec::new();
            let parts = &mut core_parts[core];
            for &i in queue {
                let packet = &round[i];
                let want = out.outcomes[i].expect("admitted").1;
                l.steps += want.steps;
                rep.bare.set_step_limit(want.steps);
                let (bare, retire) = lap(overhead, || {
                    rep.bare.process_packet(packet, &mut NullObserver)
                });
                let (got, run) = lap(overhead, || {
                    rep.block.1.run_packet(&mut rep.block.0, packet)
                });
                same("run_packet", &got, &want)?;
                let (got, reference) = lap(overhead, || {
                    rep.reference.0.process_packet(packet, &mut rep.reference.1)
                });
                same("reference path", &got, &want)?;
                let (got, on) = lap(overhead, || shadow.process_on(core, packet));
                same("process_on", &got, &want)?;
                rep.capture.set_step_limit(want.steps);
                rep.capture.process_packet(packet, &mut tracer);
                let words: Vec<u32> = tracer.entries().map(|e| e.word).collect();
                blocks.extend(
                    words
                        .chunks_exact(RETIRE_BLOCK)
                        .map(|c| <[u32; RETIRE_BLOCK]>::try_from(c).expect("full block")),
                );
                if !want.halt.is_clean() {
                    let (_, reset) = lap(overhead, || rep.bare.reset());
                    parts[4] += reset;
                    l.reset += reset;
                    l.resets += 1;
                    rep.block.0.reset();
                    rep.reference.0.reset();
                    rep.capture.reset();
                } else if !bare.halt.is_clean() {
                    return Err(format!(
                        "bare retire of a clean packet halted {:?}",
                        bare.halt
                    ));
                }
                parts[0] += retire;
                parts[1] += run.saturating_sub(retire);
                parts[3] += on.saturating_sub(reference);
                l.retire += retire;
                l.run += run;
                l.reference += reference;
                l.process_on += on;
            }
            let sliced = &rep.sliced;
            let (_, hash) = lap(overhead, || {
                for block in &blocks {
                    black_box(sliced.hash_block(black_box(block)));
                }
            });
            parts[2] += hash;
            l.hash += hash;
            l.blocks += blocks.len() as u64;
            shard_work[owner[core]] += parts[0] + parts[1] + parts[3];
        }
        let crit = (0..SHARDS)
            .max_by_key(|&s| shard_work[s])
            .expect("shards > 0");
        for core in (0..CORES).filter(|&c| owner[c] == crit) {
            let p = &core_parts[core];
            l.crit_retire += p[0];
            l.crit_verify += p[1];
            l.crit_hash += p[2];
            l.crit_settle += p[3];
            l.crit_reset += p[4];
        }
        l.admit += admit;
        l.steal += steal;
        l.handoff += handoff;
        l.rounds_total += t_round;
        let children = admit + steal + handoff + shard_work[crit];
        l.round_self += t_round.as_secs_f64() - children.as_secs_f64();
        tally.add(out);
    }
    tally.check("traced pass", &np, exp)?;
    let report = tally.report;
    if l.steals != report.steals {
        return Err(format!(
            "steal_plan replica planned {} steals, engine {}",
            l.steals, report.steals
        ));
    }
    l.offered = report.offered;
    l.admitted = report.admitted;
    l.dropped = report.dropped;
    Ok(l)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &Spec,
    args: &Args,
    plane: &Plane,
    inputs: &Inputs,
    exp: &Expected,
    verdicts: &Verdicts,
    period: Duration,
    results: &mut Results,
) -> Result<(), String> {
    // Untraced reference passes with the traced pass's per-round calls (the
    // tracing-overhead baseline), on both sides of the traced pass, and one
    // paced pass for the generator's lateness and the p99.
    let deadline = Instant::now() + args.seconds / 2;
    let mut untraced = Vec::new();
    while untraced.len() < 3 || Instant::now() < deadline {
        untraced.push(per_round_pass(plane, inputs, exp)?.as_secs_f64());
    }
    let mut paced = paced_pass(plane, inputs, exp, period)?;
    let l = traced_pass(plane, inputs, exp)?;
    for _ in 0..2 {
        untraced.push(per_round_pass(plane, inputs, exp)?.as_secs_f64());
    }
    let passes = untraced.len() as u64 + 2;
    results.attempted = exp.report.offered * passes;
    results.failed = verdicts.wrong() * passes;

    let ns = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let rounds = inputs.rounds.len() as u64;
    let mut ledger = Ledger::new(spec.name, l.rounds_total, l.admitted, "pkt");
    ledger.layer("npu.engine.admit", l.admit);
    ledger.layer("npu.engine.steal_plan", l.steal);
    ledger.layer("npu.engine.handoff", l.handoff);
    ledger.layer("npu.core.retire (critical shard)", l.crit_retire);
    ledger.layer("monitor.verify (critical shard)", l.crit_verify);
    ledger.part("monitor.hash (critical shard)", l.crit_hash);
    ledger.layer("npu.np.settle (critical shard)", l.crit_settle);
    ledger.part("npu.core.reset (critical shard)", l.crit_reset);
    ledger.print();
    println!(
        "ledger   the unattributed remainder is npu.np.round_self: partition, merge, \
         event sort and rollup inside process_stream"
    );
    let overhead = report::overhead_pct(
        l.rounds_total,
        Duration::from_secs_f64(median(&mut untraced)),
    );

    let values = [
        ("npu.engine.admit_ns_per_pkt", ns(l.admit, l.offered)),
        (
            "npu.engine.steal_plan_ns_per_round",
            ns(l.steal, l.steal_rounds),
        ),
        (
            "npu.engine.handoff_us_per_round",
            us(l.handoff, l.handoff_rounds),
        ),
        ("npu.core.retire_ns_per_pkt", ns(l.retire, l.admitted)),
        (
            "monitor.verify_ns_per_pkt",
            ns(l.run.saturating_sub(l.retire), l.admitted),
        ),
        ("monitor.hash_ns_per_block", ns(l.hash, l.blocks)),
        (
            "npu.np.settle_ns_per_pkt",
            ns(l.process_on.saturating_sub(l.reference), l.admitted),
        ),
        ("npu.core.reset_us", us(l.reset, l.resets)),
        (
            "npu.np.round_self_us",
            l.round_self * 1e6 / rounds.max(1) as f64,
        ),
        (
            "npu.core.instr_per_pkt",
            l.steps as f64 / l.admitted.max(1) as f64,
        ),
        (
            "monitor.full_blocks_per_pkt",
            l.full_blocks as f64 / l.admitted.max(1) as f64,
        ),
        (
            "monitor.tail_instr_per_pkt",
            l.tail as f64 / l.admitted.max(1) as f64,
        ),
        ("npu.engine.steals", l.steals as f64),
        ("npu.engine.dropped", l.dropped as f64),
        (
            "npu.engine.queue_delay_p99",
            quantile(&mut l.delays.clone(), 0.99),
        ),
        ("npu.np.recoveries", exp.stats.recoveries as f64),
        ("npu.np.redeploys", exp.stats.redeploys as f64),
        ("npu.np.quarantines", l.quarantines as f64),
        ("bench.gen_late_p99_us", quantile(&mut paced.late, 0.99)),
        (
            "latency_p90_us",
            report::weighted_quantile(&mut paced.latency, 0.9),
        ),
        (
            "latency_p99_us",
            report::weighted_quantile(&mut paced.latency, 0.99),
        ),
        ("fail_rate", verdicts.fail_rate()),
        ("escape_rate", verdicts.escape_rate()),
        ("bench.unattributed_pct", ledger.unattributed_pct()),
        ("bench.trace_overhead_pct", overhead),
    ];
    for (name, value) in values {
        show(name, value, "");
        results.set(name, value);
    }
    results.context("traced_packets", l.admitted);
    results.context("untraced_reference_passes", untraced.len());
    results.context("resets_timed", l.resets);
    results.context("blocks_hashed", l.blocks);
    Ok(())
}
