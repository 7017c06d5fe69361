//! The availability-vs-security frontier: a policy sweep quantifying the
//! tradeoff the graded supervisor navigates.
//!
//! The graded response table (`sdmmon_npu::supervisor`) buys security with
//! availability: throttling halves a core's dispatch share, quarantine
//! removes it, zeroize destroys its wrapped key, and lockdown stops the
//! device. Each step admits fewer evasive escapes *and* serves fewer
//! benign packets. This module measures both ends of that trade on one
//! campaign grid:
//!
//! * **Scenarios** — attack intensities. An adversary who has obtained one
//!   router's secret hash parameter (the shared-bundle leak of the
//!   `evasive_propagation` campaign) sends a mix of *evasive* hijacks
//!   (hash-colliding, complete undetected — the escapes) and *noisy*
//!   hijacks (ordinary stack smashes the monitors catch — the signal the
//!   supervisor's EWMA baselines respond to). All attack packets share one
//!   flow, so the noise automatically lands on whichever core currently
//!   serves the evasive flow.
//! * **Policies** — a strictness ladder from `off`
//!   ([`SupervisorPolicy::never`], reset-only recovery: maximum service,
//!   every escape admitted) through `lenient`/`default`/`strict` to
//!   `paranoid` (hair-trigger thresholds, long parole).
//!
//! Each `(scenario, policy)` cell drives the same seeded traffic through a
//! securely installed [`sdmmon_core::entities::RouterDevice`] with a
//! bounded per-core ingress
//! capacity (a throttled core accepts half), counts benign packets served
//! and evasive escapes admitted, and stops feeding when the device latches
//! lockdown or runs out of dispatchable cores. The report renders as a
//! deterministic `sdmmon-frontier-v1` JSON document and an ASCII table;
//! two runs with the same seed are byte-identical.

use crate::json::Json;
use sdmmon_core::entities::{Manufacturer, NetworkOperator};
use sdmmon_core::system::craft_evasive_hijack;
use sdmmon_core::SdmmonError;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{HaltReason, PacketOutcome, Verdict};
use sdmmon_npu::supervisor::{AdaptiveConfig, SupervisorPolicy};
use sdmmon_obs::{bucket_index, percentile, EventBus, HIST_BUCKETS};
use sdmmon_rng::{split_seed, Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Schema identifier embedded in every frontier report.
pub const FRONTIER_SCHEMA: &str = "sdmmon-frontier-v1";

/// One frontier sweep: a master seed plus the traffic and capacity knobs.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Master seed; every cell derives its own rng from it.
    pub seed: u64,
    /// NP cores per router.
    pub cores: usize,
    /// RSA modulus size for the install protocol (small keys are fine —
    /// the sweep measures the data plane, not the crypto).
    pub key_bits: usize,
    /// Batches offered per cell (a cell may stop early on lockdown).
    pub batches: usize,
    /// Packets offered per batch.
    pub batch_packets: usize,
    /// Per-core ingress capacity per batch; a throttled core accepts half.
    pub core_capacity: usize,
}

impl FrontierConfig {
    /// The full campaign grid at `seed`.
    pub fn new(seed: u64) -> FrontierConfig {
        FrontierConfig {
            seed,
            cores: 4,
            key_bits: 512,
            batches: 24,
            // Offered load exceeds the healthy fleet's capacity (4×8), so
            // ingress is always the bottleneck and every throttled or
            // quarantined core costs served packets *systematically* —
            // not just through flow-remap luck.
            batch_packets: 36,
            core_capacity: 8,
        }
    }

    /// A reduced grid for CI smoke runs (`sdmmon frontier --quick`).
    #[must_use]
    pub fn quick(mut self) -> FrontierConfig {
        self.batches = 10;
        self
    }
}

/// One policy point on the strictness ladder.
struct PolicyPoint {
    name: &'static str,
    policy: SupervisorPolicy,
}

/// The five-point strictness ladder, loosest first. `off` is reset-only
/// recovery; the graded points share the default EWMA shifts and scale
/// their thresholds and parole length.
fn policy_ladder() -> Vec<PolicyPoint> {
    let graded = |low, elevated, high, critical, parole| {
        SupervisorPolicy::graded(AdaptiveConfig {
            low,
            elevated,
            high,
            critical,
            parole_batches: parole,
            ..AdaptiveConfig::default()
        })
    };
    vec![
        PolicyPoint {
            name: "off",
            policy: SupervisorPolicy::never(),
        },
        PolicyPoint {
            name: "lenient",
            policy: graded(120, 360, 640, 900, 2),
        },
        PolicyPoint {
            name: "default",
            policy: graded(60, 180, 320, 520, 4),
        },
        PolicyPoint {
            name: "strict",
            policy: graded(30, 90, 160, 260, 6),
        },
        PolicyPoint {
            name: "paranoid",
            policy: graded(15, 45, 80, 130, 8),
        },
    ]
}

/// One attack-intensity scenario: `attack_num` of every `attack_den`
/// offered packets are attacks, and every `evasive_every`-th attack is the
/// evasive (escaping) variant.
struct Scenario {
    name: &'static str,
    attack_num: u64,
    attack_den: u64,
    evasive_every: u64,
}

const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "light",
        attack_num: 1,
        attack_den: 8,
        evasive_every: 3,
    },
    Scenario {
        name: "heavy",
        attack_num: 1,
        attack_den: 3,
        evasive_every: 3,
    },
];

/// Measured outcome of one `(scenario, policy)` cell.
#[derive(Debug, Clone)]
pub struct FrontierCell {
    /// Policy name on the strictness ladder (`off` … `paranoid`).
    pub policy: &'static str,
    /// 0-based ladder position (0 = loosest).
    pub strictness: usize,
    /// Packets the traffic generator offered before service stopped.
    pub offered: u64,
    /// Benign packets forwarded end-to-end (the availability axis).
    pub served: u64,
    /// Evasive hijacks that completed and forwarded (the security axis).
    pub escapes: u64,
    /// Packets shed at ingress by the capacity model.
    pub shed: u64,
    /// Monitor violations (noisy attacks caught).
    pub detections: u64,
    /// `supervisor.throttle` events.
    pub throttles: u64,
    /// `supervisor.quarantine` events.
    pub quarantines: u64,
    /// `supervisor.zeroize` events.
    pub zeroizes: u64,
    /// `supervisor.parole` events.
    pub paroles: u64,
    /// `supervisor.forensic` window entries flushed.
    pub forensics: u64,
    /// 1-based batch at which service stopped (lockdown or no
    /// dispatchable core), or `None` if the cell ran to completion.
    pub halted_batch: Option<u64>,
    /// Detection-latency histogram over [`HIST_BUCKETS`] powers of two.
    pub latency_hist: [u64; HIST_BUCKETS],
}

impl FrontierCell {
    /// The `q`-quantile (in per-cent) of the detection-latency histogram,
    /// reported as the lower bound of the bucket that crosses it — the
    /// shared [`sdmmon_obs::percentile`] convention.
    pub fn latency_quantile(&self, percent: u64) -> u64 {
        percentile(&self.latency_hist, percent * 10)
    }
}

/// One scenario's sweep across the policy ladder.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name (`light` / `heavy`).
    pub name: &'static str,
    /// Attack rate numerator.
    pub attack_num: u64,
    /// Attack rate denominator.
    pub attack_den: u64,
    /// One cell per ladder point, loosest first.
    pub cells: Vec<FrontierCell>,
}

/// The full frontier report.
#[derive(Debug, Clone)]
pub struct FrontierReport {
    /// The configuration that produced it.
    pub config: FrontierConfig,
    /// One row per scenario.
    pub scenarios: Vec<ScenarioRow>,
}

impl FrontierReport {
    /// Verifies the frontier is a monotone tradeoff: along the strictness
    /// ladder, every step serves no more benign packets *and* admits no
    /// more escapes, and at least one step strictly reduces each.
    ///
    /// # Errors
    ///
    /// Returns the first violated comparison, rendered for a test message.
    pub fn verify_monotone(&self) -> Result<(), String> {
        for row in &self.scenarios {
            let mut served_drops = 0u64;
            let mut escape_drops = 0u64;
            for pair in row.cells.windows(2) {
                let (loose, strict) = (&pair[0], &pair[1]);
                if strict.served > loose.served {
                    return Err(format!(
                        "{}: {} serves {} > {} served by looser {}",
                        row.name, strict.policy, strict.served, loose.served, loose.policy
                    ));
                }
                if strict.escapes > loose.escapes {
                    return Err(format!(
                        "{}: {} admits {} escapes > {} admitted by looser {}",
                        row.name, strict.policy, strict.escapes, loose.escapes, loose.policy
                    ));
                }
                served_drops += u64::from(strict.served < loose.served);
                escape_drops += u64::from(strict.escapes < loose.escapes);
            }
            if served_drops == 0 || escape_drops == 0 {
                return Err(format!(
                    "{}: the ladder never strictly traded (served drops {}, escape drops {})",
                    row.name, served_drops, escape_drops
                ));
            }
        }
        Ok(())
    }
}

/// Counts drained from a cell's event stream.
#[derive(Default)]
struct EventCounts {
    throttles: u64,
    quarantines: u64,
    zeroizes: u64,
    paroles: u64,
    forensics: u64,
}

fn count_events(bus: &EventBus) -> EventCounts {
    let mut c = EventCounts::default();
    for event in bus.take() {
        match event.kind {
            "supervisor.throttle" => c.throttles += 1,
            "supervisor.quarantine" => c.quarantines += 1,
            "supervisor.zeroize" => c.zeroizes += 1,
            "supervisor.parole" => c.paroles += 1,
            "supervisor.forensic" => c.forensics += 1,
            _ => {}
        }
    }
    c
}

/// A benign packet with a seeded flow identity, forwarded by the
/// vulnerable forwarder (destination low nibble 1–15 selects the port).
fn benign_packet(rng: &mut StdRng) -> Vec<u8> {
    let src = [10, rng.gen_range(0..8u8), rng.gen_range(0..255u8), 1];
    let low = rng.gen_range(1..16u8);
    let dst = [10, 0, 0, (rng.gen_range(0..15u8) << 4) | low];
    testing::ipv4_packet(src, dst, 64, b"frontier")
}

/// Pre-generates the noisy attack pool: randomized stack smashes that the
/// monitor detects (the supervisor's signal). All hijack packets share one
/// flow, so the pool follows the evasive flow's core automatically.
fn noisy_pool(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let regs = ["$t5", "$t0", "$t2", "$t7", "$v0"];
    (0..8)
        .map(|_| {
            let rt = regs[rng.gen_range(0..regs.len())];
            let port = rng.gen_range(1..=255u32);
            let mut asm = String::new();
            for _ in 0..rng.gen_range(0..4usize) {
                asm.push_str(&format!("ori $zero, $zero, 0x{:x}\n", rng.gen::<u16>()));
            }
            asm.push_str(&format!(
                "addiu {rt}, $zero, {port}\nsw {rt}, -16($s0)\nbreak 0"
            ));
            testing::hijack_packet(&asm).expect("noisy payload assembles")
        })
        .collect()
}

/// Runs one `(scenario, policy)` cell.
fn run_cell(
    cfg: &FrontierConfig,
    scenario: &Scenario,
    point: &PolicyPoint,
    strictness: usize,
    cell_seed: u64,
) -> Result<FrontierCell, SdmmonError> {
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let manufacturer = Manufacturer::new("acme", cfg.key_bits, &mut rng)?;
    let mut operator = NetworkOperator::new("op", cfg.key_bits, &mut rng)?;
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let mut router = manufacturer.provision_router("r-0", cfg.cores, cfg.key_bits, &mut rng)?;

    // One bundle on every core: the shared-parameter deployment whose leak
    // the evasive attacker exploits.
    let program = programs::vulnerable_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let bundle = operator.prepare_package(&program, router.public_key(), &mut rng)?;
    let cores: Vec<usize> = (0..cfg.cores).collect();
    router.install_bundle(&bundle, &cores)?;
    router.set_supervisor_policy(point.policy);
    let bus = Arc::new(EventBus::new());
    router.set_event_bus(Some(bus.clone()));

    let leaked = router.installed(0).expect("just installed").hash_param;
    let compression = operator.compression();
    let evasive = craft_evasive_hijack(&program, leaked, compression)
        .ok_or_else(|| SdmmonError::Graph("evasive search found no collision path".into()))?;
    let noisy = noisy_pool(&mut rng);

    let mut cell = FrontierCell {
        policy: point.name,
        strictness,
        offered: 0,
        served: 0,
        escapes: 0,
        shed: 0,
        detections: 0,
        throttles: 0,
        quarantines: 0,
        zeroizes: 0,
        paroles: 0,
        forensics: 0,
        halted_batch: None,
        latency_hist: [0; HIST_BUCKETS],
    };

    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Benign,
        Noisy,
        Evasive,
    }

    let mut attacks_sent = 0u64;
    'batches: for batch in 1..=cfg.batches as u64 {
        if router.np().is_locked_down() || router.np().active_cores().is_empty() {
            cell.halted_batch = Some(batch);
            break 'batches;
        }
        // Offer the batch, shedding at per-core ingress capacity (the
        // availability cost of throttle/quarantine: survivors inherit the
        // load and overflow).
        let mut kept: Vec<(Kind, Vec<u8>)> = Vec::with_capacity(cfg.batch_packets);
        let mut admitted = vec![0usize; cfg.cores];
        for _ in 0..cfg.batch_packets {
            cell.offered += 1;
            let (kind, packet) = if rng.gen_range(0..scenario.attack_den) < scenario.attack_num {
                attacks_sent += 1;
                if attacks_sent.is_multiple_of(scenario.evasive_every) {
                    (Kind::Evasive, evasive.packet.clone())
                } else {
                    let variant = rng.gen_range(0..noisy.len());
                    (Kind::Noisy, noisy[variant].clone())
                }
            } else {
                (Kind::Benign, benign_packet(&mut rng))
            };
            let core = router.np().core_for(&packet);
            let cap = if router.np().is_throttled(core) {
                (cfg.core_capacity / 2).max(1)
            } else {
                cfg.core_capacity
            };
            if admitted[core] >= cap {
                cell.shed += 1;
                continue;
            }
            admitted[core] += 1;
            kept.push((kind, packet));
        }
        let packets: Vec<Vec<u8>> = kept.iter().map(|(_, p)| p.clone()).collect();
        let outcomes: Vec<(usize, PacketOutcome)> = router.process_batch(&packets);
        for ((kind, _), (_, out)) in kept.iter().zip(&outcomes) {
            match out.halt {
                HaltReason::MonitorViolation => {
                    cell.detections += 1;
                    cell.latency_hist[bucket_index(out.steps)] += 1;
                }
                HaltReason::Completed => match kind {
                    Kind::Benign if matches!(out.verdict, Verdict::Forward(_)) => cell.served += 1,
                    Kind::Evasive if out.verdict == Verdict::Forward(evasive.port) => {
                        cell.escapes += 1;
                    }
                    _ => {}
                },
                HaltReason::Fault(_) | HaltReason::StepLimit => {}
            }
        }
    }

    let counts = count_events(&bus);
    cell.throttles = counts.throttles;
    cell.quarantines = counts.quarantines;
    cell.zeroizes = counts.zeroizes;
    cell.paroles = counts.paroles;
    cell.forensics = counts.forensics;
    Ok(cell)
}

/// Runs the full campaign grid: every scenario × every ladder point, each
/// cell from its own derived sub-seed, so the report replays byte-for-byte.
///
/// # Errors
///
/// Propagates install-protocol failures and an evasive-search miss (the
/// leaked-parameter attack must exist for the security axis to mean
/// anything).
pub fn run_frontier(cfg: &FrontierConfig) -> Result<FrontierReport, SdmmonError> {
    let ladder = policy_ladder();
    let mut scenarios = Vec::with_capacity(SCENARIOS.len());
    for (s, scenario) in SCENARIOS.iter().enumerate() {
        let mut cells = Vec::with_capacity(ladder.len());
        for (p, point) in ladder.iter().enumerate() {
            // All ladder points of a scenario share one sub-seed, so every
            // policy faces the *same* traffic realization — the sweep is a
            // paired comparison and the cells differ only by policy.
            let cell_seed = split_seed(cfg.seed, s as u64);
            cells.push(run_cell(cfg, scenario, point, p, cell_seed)?);
        }
        scenarios.push(ScenarioRow {
            name: scenario.name,
            attack_num: scenario.attack_num,
            attack_den: scenario.attack_den,
            cells,
        });
    }
    Ok(FrontierReport {
        config: cfg.clone(),
        scenarios,
    })
}

/// Renders the report as a byte-stable `sdmmon-frontier-v1` JSON document.
pub fn frontier_json(report: &FrontierReport) -> Json {
    let cfg = &report.config;
    let scenarios = report.scenarios.iter().map(|row| {
        let cells = row.cells.iter().map(|c| {
            Json::obj([
                ("policy", Json::from(c.policy)),
                ("strictness", Json::from(c.strictness)),
                ("offered", Json::from(c.offered)),
                ("served", Json::from(c.served)),
                ("escapes", Json::from(c.escapes)),
                ("shed", Json::from(c.shed)),
                ("detections", Json::from(c.detections)),
                ("throttles", Json::from(c.throttles)),
                ("quarantines", Json::from(c.quarantines)),
                ("zeroizes", Json::from(c.zeroizes)),
                ("paroles", Json::from(c.paroles)),
                ("forensics", Json::from(c.forensics)),
                (
                    "halted_batch",
                    c.halted_batch.map_or(Json::Null, Json::from),
                ),
                ("latency_p50", Json::from(c.latency_quantile(50))),
                ("latency_p99", Json::from(c.latency_quantile(99))),
            ])
        });
        Json::obj([
            ("name", Json::from(row.name)),
            ("attack_num", Json::from(row.attack_num)),
            ("attack_den", Json::from(row.attack_den)),
            ("cells", Json::array(cells)),
        ])
    });
    Json::obj([
        ("schema", Json::from(FRONTIER_SCHEMA)),
        ("seed", Json::from(cfg.seed)),
        ("cores", Json::from(cfg.cores)),
        ("key_bits", Json::from(cfg.key_bits)),
        ("batches", Json::from(cfg.batches)),
        ("batch_packets", Json::from(cfg.batch_packets)),
        ("core_capacity", Json::from(cfg.core_capacity)),
        ("scenarios", Json::array(scenarios)),
    ])
}

/// Renders the packets-served vs escapes-admitted table the CLI prints.
pub fn frontier_table(report: &FrontierReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for row in &report.scenarios {
        let _ = writeln!(
            out,
            "scenario {} (attacks {}/{} of offered traffic)",
            row.name, row.attack_num, row.attack_den
        );
        let _ = writeln!(
            out,
            "  {:<9} {:>7} {:>7} {:>7} {:>5} {:>9} {:>11} {:>8} {:>7} {:>7}",
            "policy",
            "served",
            "escapes",
            "shed",
            "det",
            "throttles",
            "quarantines",
            "zeroizes",
            "paroles",
            "halted"
        );
        for c in &row.cells {
            let halted = c
                .halted_batch
                .map_or_else(|| "-".to_owned(), |b| format!("b{b}"));
            let _ = writeln!(
                out,
                "  {:<9} {:>7} {:>7} {:>7} {:>5} {:>9} {:>11} {:>8} {:>7} {:>7}",
                c.policy,
                c.served,
                c.escapes,
                c.shed,
                c.detections,
                c.throttles,
                c.quarantines,
                c.zeroizes,
                c.paroles,
                halted
            );
        }
    }
    out
}
