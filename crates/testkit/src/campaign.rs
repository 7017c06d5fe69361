//! Adversarial-campaign generators: mass-produced attack and fault
//! variants pushed through the full protocol stack, with strict accounting.
//!
//! Every campaign draws all its randomness from one `u64` sub-seed and
//! classifies **every** trial into exactly one [`Tally`] bucket — an
//! undetected escape can never silently vanish from the report, which is
//! what makes the escape counters trustworthy evidence.

use crate::fault::{flip_text_bit, mutate_packet, TransportFault, WireFault, WireFaultInjector};
use sdmmon_core::entities::{Manufacturer, NetworkOperator, RouterDevice};
use sdmmon_core::package::InstallationBundle;
use sdmmon_core::system::{craft_evasive_hijack, Fleet};
use sdmmon_core::SdmmonError;
use sdmmon_monitor::hash::Compression;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_net::channel::{Channel, FileServer};
use sdmmon_net::download::{DownloadClient, DownloadError, RetryPolicy};
use sdmmon_net::resilience::FlakyServer;
use sdmmon_npu::cpu::{ExecutionObserver, Observation};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{HaltReason, PacketOutcome, Verdict};
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};

/// The registered adversarial campaigns, in the order
/// [`crate::report::run_campaign`] executes them, with one-line
/// descriptions (`sdmmon campaign --list` prints this catalog).
pub const CAMPAIGN_CATALOG: &[(&str, &str)] = &[
    (
        "stack_smash",
        "randomized stack-smashing hijack variants vs the monitored vulnerable forwarder (AC1)",
    ),
    (
        "packet_fuzz",
        "structurally mutated packets vs the hardened and vulnerable workloads",
    ),
    (
        "wire_faults",
        "bit flips, foreign keys, forged certs, and truncation on serialized install bundles",
    ),
    (
        "fault_recovery",
        "live instruction-memory corruption and forced resets against the recovery loop",
    ),
    (
        "evasive_propagation",
        "hash-colliding hijacks crafted from a leaked parameter, across a deployed fleet",
    ),
    (
        "resilient_deploy",
        "every transport-fault class injected into the secure download/install path",
    ),
];

/// Tunable knobs of a full campaign run. All sizes are in *trials*, never
/// in wall-clock time, so runs are reproducible on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; every campaign derives its own sub-seed from it.
    pub seed: u64,
    /// Total adversarial-trial budget split across the packet campaigns.
    pub budget: u64,
    /// Routers per fleet in the cross-router propagation campaign.
    pub routers: usize,
    /// NP cores per router.
    pub cores_each: usize,
    /// RSA modulus size for all key material (512 keeps campaigns fast;
    /// the protocol is size-agnostic).
    pub key_bits: usize,
    /// Trials per deviation length `k` in the escape-probability model.
    pub escape_trials: u64,
}

impl CampaignConfig {
    /// Defaults sized for a CI smoke run (a couple of seconds in release).
    pub fn new(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            budget: 2_000,
            routers: 4,
            cores_each: 1,
            key_bits: 512,
            escape_trials: 20_000,
        }
    }

    /// Sets the adversarial-trial budget.
    pub fn with_budget(mut self, budget: u64) -> CampaignConfig {
        self.budget = budget.max(1);
        self
    }

    /// Sets the fleet size for propagation campaigns.
    pub fn with_routers(mut self, routers: usize) -> CampaignConfig {
        self.routers = routers.max(2);
        self
    }

    /// Sets the per-`k` trial count of the escape-probability model.
    pub fn with_escape_trials(mut self, trials: u64) -> CampaignConfig {
        self.escape_trials = trials.max(1);
        self
    }
}

/// Exhaustive classification of campaign trials. The invariant — checked
/// by [`Tally::is_accounted`] and enforced report-wide by
/// [`crate::report::CampaignReport::verify_accounting`] — is that every
/// attempted trial lands in exactly one outcome bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Trials injected.
    pub attempted: u64,
    /// Stopped by the hardware monitor (the paper's success case).
    pub detected: u64,
    /// Stopped by a processor trap or the step limit (crash containment,
    /// not monitor detection).
    pub faulted: u64,
    /// Rejected at the protocol layer before any code ran (wire faults).
    pub rejected: u64,
    /// Completed without achieving the adversarial goal.
    pub clean: u64,
    /// Completed *with* the adversarial goal — an undetected escape.
    pub escaped: u64,
}

impl Tally {
    /// True when every attempted trial is classified.
    pub fn is_accounted(&self) -> bool {
        self.attempted == self.detected + self.faulted + self.rejected + self.clean + self.escaped
    }
}

/// Detection latency in *retired instructions* (never wall-clock, so the
/// serialized report is byte-stable across machines and runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySteps {
    /// Number of detections measured.
    pub count: u64,
    /// Fewest instructions before the monitor fired.
    pub min: u64,
    /// Most instructions before the monitor fired.
    pub max: u64,
    /// Sum over all detections (for the mean).
    pub sum: u64,
}

impl LatencySteps {
    /// Records one detection after `steps` retired instructions.
    pub fn record(&mut self, steps: u64) {
        if self.count == 0 {
            self.min = steps;
            self.max = steps;
        } else {
            self.min = self.min.min(steps);
            self.max = self.max.max(steps);
        }
        self.count += 1;
        self.sum += steps;
    }

    /// Mean steps-to-detection (0.0 when nothing was detected).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Result of one campaign: the tally plus campaign-specific counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Stable snake_case campaign name.
    pub name: &'static str,
    /// Trial classification.
    pub tally: Tally,
    /// Steps-to-detection over all detected trials.
    pub latency: LatencySteps,
    /// Core recovery cycles performed during the campaign.
    pub recoveries: u64,
    /// Named sub-counters (per fault kind, per target, …), in a fixed
    /// deterministic order.
    pub details: Vec<(String, u64)>,
}

/// One row of the escape-probability model: `trials` random `k`-deep
/// deviations against a fresh monitoring parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EscapeRow {
    /// Deviation length in instructions.
    pub k: u32,
    /// Trials at this depth.
    pub trials: u64,
    /// Deviations that survived all `k` hash checks.
    pub escapes: u64,
}

impl EscapeRow {
    /// Observed escape rate.
    pub fn observed_rate(&self) -> f64 {
        self.escapes as f64 / self.trials as f64
    }

    /// The paper's model rate, `16^-k`.
    pub fn model_rate(&self) -> f64 {
        16f64.powi(-(self.k as i32))
    }
}

/// Protocol-world fixture: one certified operator, one provisioned router.
struct World {
    operator: NetworkOperator,
    router: RouterDevice,
    rng: StdRng,
}

impl World {
    fn new(seed: u64, cores: usize, key_bits: usize) -> Result<World, SdmmonError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let manufacturer = Manufacturer::new("acme", key_bits, &mut rng)?;
        let mut operator = NetworkOperator::new("op", key_bits, &mut rng)?;
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
        let router = manufacturer.provision_router("r-0", cores, key_bits, &mut rng)?;
        Ok(World {
            operator,
            router,
            rng,
        })
    }
}

/// Classifies one packet outcome against an optional adversarial goal.
fn classify(
    tally: &mut Tally,
    latency: &mut LatencySteps,
    out: &PacketOutcome,
    goal: Option<Verdict>,
) {
    tally.attempted += 1;
    match out.halt {
        HaltReason::MonitorViolation => {
            tally.detected += 1;
            latency.record(out.steps);
        }
        HaltReason::Fault(_) | HaltReason::StepLimit => tally.faulted += 1,
        HaltReason::Completed => {
            if goal.is_some_and(|g| out.verdict == g) {
                tally.escaped += 1;
            } else {
                tally.clean += 1;
            }
        }
    }
}

/// Registers the verdict-writing tail of a randomized hijack payload:
/// `(staging+store asm with a {port} already substituted, max port)`.
fn hijack_store_variant<R: RngCore>(rng: &mut R, port: u32) -> String {
    let regs = ["$t5", "$t0", "$t2", "$t7", "$v0"];
    let rt = regs[rng.gen_range(0..regs.len())];
    match rng.gen_range(0..3u32) {
        // Relative to the packet ABI base still held in $s0.
        0 => format!("addiu {rt}, $zero, {port}\nsw {rt}, -16($s0)"),
        // Byte store of the low verdict byte (big-endian offset +3).
        1 => format!("addiu {rt}, $zero, {port}\nsb {rt}, -13($s0)"),
        // Absolute address staged in a second register.
        _ => format!("addiu {rt}, $zero, {port}\nli $t4, 0x0007fff0\nsw {rt}, 0($t4)"),
    }
}

/// AC1 at scale: randomized stack-smashing hijack variants against the
/// securely installed vulnerable forwarder. Each variant varies the
/// injected-code length (padding layers), registers, store width, and
/// attacker port — the population over which the paper's 16⁻ᵏ detection
/// argument is made.
pub fn stack_smash(
    cfg: &CampaignConfig,
    trials: u64,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut w = World::new(seed, cfg.cores_each, cfg.key_bits)?;
    let program = programs::vulnerable_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let bundle = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)?;
    let cores: Vec<usize> = (0..cfg.cores_each).collect();
    w.router.install_bundle(&bundle, &cores)?;

    let mut tally = Tally::default();
    let mut latency = LatencySteps::default();
    let mut assembly_failures = 0u64;
    for trial in 0..trials {
        let port = w.rng.gen_range(1..=255u32);
        let layers = w.rng.gen_range(0..=6usize);
        let mut asm = String::new();
        for _ in 0..layers {
            let imm: u16 = w.rng.gen();
            asm.push_str(&format!("ori $zero, $zero, 0x{imm:x}\n"));
        }
        asm.push_str(&hijack_store_variant(&mut w.rng, port));
        asm.push_str("\nbreak 0");
        let Ok(packet) = testing::hijack_packet(&asm) else {
            assembly_failures += 1;
            continue;
        };
        let core = (trial % cfg.cores_each as u64) as usize;
        let out = w.router.process_on(core, &packet);
        classify(&mut tally, &mut latency, &out, Some(Verdict::Forward(port)));
    }
    assert_eq!(assembly_failures, 0, "generated payloads must assemble");
    Ok(CampaignOutcome {
        name: "stack_smash",
        recoveries: w.router.np().stats().recoveries,
        details: vec![("payload_variants".into(), tally.attempted)],
        tally,
        latency,
    })
}

/// Data-plane fuzzing: structurally mutated packets against both the
/// hardened and the vulnerable forwarder. For the hardened workload the
/// claim is robustness (no faults at all); for the vulnerable one, that
/// accidental corruption lands in the detected/faulted buckets rather
/// than escaping.
pub fn packet_fuzz(
    cfg: &CampaignConfig,
    trials: u64,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut w = World::new(seed, 2.max(cfg.cores_each), cfg.key_bits)?;
    let hardened = programs::ipv4_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let vulnerable =
        programs::vulnerable_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let b0 = w
        .operator
        .prepare_package(&hardened, w.router.public_key(), &mut w.rng)?;
    w.router.install_bundle(&b0, &[0])?;
    let b1 = w
        .operator
        .prepare_package(&vulnerable, w.router.public_key(), &mut w.rng)?;
    w.router.install_bundle(&b1, &[1])?;

    let mut tally = Tally::default();
    let mut latency = LatencySteps::default();
    let mut hardened_faults = 0u64;
    let mut vulnerable_noise = 0u64;
    for trial in 0..trials {
        let dst = [10, 0, 0, w.rng.gen_range(1..=255u8)];
        let src = [w.rng.gen(), w.rng.gen(), w.rng.gen(), w.rng.gen()];
        let ttl = w.rng.gen_range(1..=255u8);
        let payload_len = w.rng.gen_range(0..64usize);
        let mut payload = vec![0u8; payload_len];
        w.rng.fill_bytes(&mut payload);
        let mut packet = if w.rng.gen_bool(0.5) {
            let mut options = vec![0u8; 4 * w.rng.gen_range(1..=10usize)];
            w.rng.fill_bytes(&mut options);
            testing::ipv4_packet_with_options(src, dst, ttl, &options, &payload)
        } else {
            testing::ipv4_packet(src, dst, ttl, &payload)
        };
        for _ in 0..w.rng.gen_range(1..=3u32) {
            mutate_packet(&mut packet, &mut w.rng);
        }
        let core = (trial % 2) as usize;
        let out = w.router.process_on(core, &packet);
        if core == 0 && !matches!(out.halt, HaltReason::Completed) {
            hardened_faults += 1;
        }
        if core == 1 && !matches!(out.halt, HaltReason::Completed) {
            vulnerable_noise += 1;
        }
        classify(&mut tally, &mut latency, &out, None);
    }
    Ok(CampaignOutcome {
        name: "packet_fuzz",
        recoveries: w.router.np().stats().recoveries,
        details: vec![
            ("hardened_unclean_halts".into(), hardened_faults),
            ("vulnerable_unclean_halts".into(), vulnerable_noise),
        ],
        tally,
        latency,
    })
}

/// Deploys one package over the file server with an attacker mutating the
/// published transport bytes, then attempts the installation — the wire
/// half of [`sdmmon_core::system::deploy`] with a tamper step in between.
fn deploy_tampered(
    w: &mut World,
    server: &mut FileServer,
    channel: &Channel,
    program: &sdmmon_isa::asm::Program,
    cores: &[usize],
    tamper: impl FnOnce(&mut Vec<u8>),
) -> Result<(), SdmmonError> {
    let bundle = w
        .operator
        .prepare_package(program, w.router.public_key(), &mut w.rng)?;
    let path = format!("pkg/{}.sdmmon", w.router.name());
    server.publish(path.clone(), bundle.to_bytes());
    assert!(server.tamper(&path, tamper), "path was just published");
    let (bytes, _) = server
        .fetch(&path, channel)
        .map_err(|e| SdmmonError::Download(e.to_string()))?;
    let bundle = InstallationBundle::from_bytes(&bytes)
        .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
    w.router.install_bundle(&bundle, cores)?;
    Ok(())
}

/// SR1–SR4 under fire: every [`WireFault`] class injected repeatedly into
/// the published transport, plus stale-bundle replay. A fault that the
/// control processor *accepts* is an escape; a rejection is additionally
/// checked against the error variant the violated requirement predicts.
pub fn wire_faults(
    cfg: &CampaignConfig,
    trials_per_kind: u64,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut w = World::new(seed, cfg.cores_each, cfg.key_bits)?;
    let injector = WireFaultInjector::new(cfg.key_bits, &mut w.rng)?;
    let program = programs::ipv4_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let mut server = FileServer::new();
    let channel = Channel::ideal_gigabit();
    let cores: Vec<usize> = (0..cfg.cores_each).collect();

    let mut tally = Tally::default();
    let mut expected_variant = 0u64;
    let mut details: Vec<(String, u64)> = Vec::new();
    for fault in WireFault::ALL {
        let mut kind_rejected = 0u64;
        for _ in 0..trials_per_kind {
            tally.attempted += 1;
            let result = {
                let rng = &mut StdRng::seed_from_u64(w.rng.next_u64());
                deploy_tampered(&mut w, &mut server, &channel, &program, &cores, |bytes| {
                    injector.inject(fault, bytes, rng)
                })
            };
            match result {
                Ok(()) => tally.escaped += 1,
                Err(err) => {
                    tally.rejected += 1;
                    kind_rejected += 1;
                    if fault.matches_expected(&err) {
                        expected_variant += 1;
                    }
                }
            }
        }
        details.push((fault.name().to_string(), kind_rejected));
    }

    // Stale replay: a recorded old bundle re-published after an upgrade
    // must be rejected by the sequence high-water mark.
    let mut replay_rejected = 0u64;
    for _ in 0..trials_per_kind {
        tally.attempted += 1;
        let old = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)?;
        let new = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)?;
        w.router.install_bundle(&old, &cores)?;
        w.router.install_bundle(&new, &cores)?;
        let path = "pkg/replayed.sdmmon";
        server.publish(path, old.to_bytes());
        let (bytes, _) = server
            .fetch(path, &channel)
            .map_err(|e| SdmmonError::Download(e.to_string()))?;
        let replayed = InstallationBundle::from_bytes(&bytes)
            .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
        match w.router.install_bundle(&replayed, &cores) {
            Ok(_) => tally.escaped += 1,
            Err(SdmmonError::ReplayedPackage { .. }) => {
                tally.rejected += 1;
                replay_rejected += 1;
                expected_variant += 1;
            }
            Err(_) => tally.rejected += 1,
        }
    }
    details.push(("replay_stale_bundle".into(), replay_rejected));
    details.push(("expected_error_variant".into(), expected_variant));

    Ok(CampaignOutcome {
        name: "wire_faults",
        tally,
        latency: LatencySteps::default(),
        recoveries: w.router.np().stats().recoveries,
        details,
    })
}

/// Transient-fault campaign: random bit flips in live instruction memory,
/// followed by traffic and a forced recovery reset. A flip on the executed
/// path must be detected (monitor) or contained (trap); a flip that
/// silently changes the forwarding decision is an escape. Every trial ends
/// with verified service restoration.
pub fn fault_recovery(
    cfg: &CampaignConfig,
    trials: u64,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut w = World::new(seed, cfg.cores_each, cfg.key_bits)?;
    let program = programs::ipv4_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let image_len = program.to_bytes().len() as u32;
    let base = program.base;
    let bundle = w
        .operator
        .prepare_package(&program, w.router.public_key(), &mut w.rng)?;
    let cores: Vec<usize> = (0..cfg.cores_each).collect();
    w.router.install_bundle(&bundle, &cores)?;

    let mut tally = Tally::default();
    let mut latency = LatencySteps::default();
    let mut unrecovered = 0u64;
    for trial in 0..trials {
        let core = (trial % cfg.cores_each as u64) as usize;
        let _flip = flip_text_bit(w.router.core_mut(core), base, image_len, &mut w.rng);
        let octet = w.rng.gen_range(1..=15u8);
        let expected = Verdict::Forward(octet as u32);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, octet], 64, b"probe");
        let out = w.router.process_on(core, &packet);
        // Escape here = the flip silently changed the forwarding decision.
        tally.attempted += 1;
        match out.halt {
            HaltReason::MonitorViolation => {
                tally.detected += 1;
                latency.record(out.steps);
            }
            HaltReason::Fault(_) | HaltReason::StepLimit => tally.faulted += 1,
            HaltReason::Completed if out.verdict == expected => tally.clean += 1,
            HaltReason::Completed => tally.escaped += 1,
        }
        // Forced mid-run recovery: unclean halts already reset the core
        // (the NP's recovery policy); clean completions left the flipped
        // word in memory, so the operator commands a reset.
        if matches!(out.halt, HaltReason::Completed) {
            w.router.reset_core(core);
        }
        let probe = w.router.process_on(core, &packet);
        if probe.verdict != expected || probe.halt != HaltReason::Completed {
            unrecovered += 1;
        }
    }
    Ok(CampaignOutcome {
        name: "fault_recovery",
        tally,
        latency,
        recoveries: w.router.np().stats().recoveries,
        details: vec![("unrecovered_after_reset".into(), unrecovered)],
    })
}

/// AC2 / SR2: the mimicry attacker with one leaked hash parameter, replayed
/// across a diversified fleet — and, as the ablation the reproduction
/// documents, across a fleet using the paper's linear sum compression,
/// where the same packet compromises every router.
pub fn evasive_propagation(
    cfg: &CampaignConfig,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut tally = Tally::default();
    let mut latency = LatencySteps::default();
    let mut details: Vec<(String, u64)> = Vec::new();
    let mut recoveries = 0u64;
    let program = programs::vulnerable_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;

    for (label, compression) in [
        ("diversified_sbox", Compression::SBox),
        ("linear_summod16", Compression::SumMod16),
    ] {
        let mut rng =
            StdRng::seed_from_u64(sdmmon_rng::split_seed(seed, compression.to_id() as u64));
        let manufacturer = Manufacturer::new("acme", cfg.key_bits, &mut rng)?;
        let mut operator = NetworkOperator::new("op", cfg.key_bits, &mut rng)?;
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
        operator.set_compression(compression);
        let mut fleet = Fleet::deploy(
            &manufacturer,
            &operator,
            &program,
            cfg.routers,
            cfg.cores_each,
            cfg.key_bits,
            &mut rng,
        )?;
        let leaked = fleet.routers()[0]
            .installed(0)
            .expect("installed")
            .hash_param;
        let Some(attack) = craft_evasive_hijack(&program, leaked, compression) else {
            details.push((format!("{label}_search_failed"), 1));
            continue;
        };
        let mut escapes_here = 0u64;
        for out in fleet.broadcast(&attack.packet) {
            classify(
                &mut tally,
                &mut latency,
                &out,
                Some(Verdict::Forward(attack.port)),
            );
            if out.halt == HaltReason::Completed && out.verdict == Verdict::Forward(attack.port) {
                escapes_here += 1;
            }
        }
        recoveries += fleet
            .routers()
            .iter()
            .map(|r| r.np().stats().recoveries)
            .sum::<u64>();
        details.push((format!("{label}_escapes"), escapes_here));
        details.push((format!("{label}_search_runs"), attack.search_runs));
    }

    Ok(CampaignOutcome {
        name: "evasive_propagation",
        tally,
        latency,
        recoveries,
        details,
    })
}

/// The healing loop under fire: every [`TransportFault`] class injected
/// into the download path of a secure deployment, `trials_per_kind` times
/// each, with the retrying/resuming download client in between. Bucket
/// semantics for this campaign:
///
/// * `clean` — the pipeline healed: the bundle arrived bit-exact through
///   the fault stream and installed;
/// * `rejected` — the pipeline gave up within its bounded budget (the
///   quarantine path; expected *only* for the unreachable class) or the
///   control processor rejected a transfer the transport checksum missed;
/// * `escaped` — an installed bundle whose bytes differ from what the
///   operator published (a security failure; must never happen — the
///   signature covers the payload).
///
/// Every trial draws its fault stream from its own derived sub-seed, so
/// the campaign replays byte-for-byte.
pub fn resilient_deploy(
    cfg: &CampaignConfig,
    trials_per_kind: u64,
    seed: u64,
) -> Result<CampaignOutcome, SdmmonError> {
    let mut w = World::new(seed, cfg.cores_each, cfg.key_bits)?;
    let program = programs::ipv4_forward().map_err(|e| SdmmonError::Graph(e.to_string()))?;
    let cores: Vec<usize> = (0..cfg.cores_each).collect();
    let client = DownloadClient::new(
        RetryPolicy::default()
            .with_chunk_bytes(16 * 1024)
            .with_max_attempts(80),
    );
    let base = Channel::ideal_gigabit();
    let path = format!("pkg/{}.sdmmon", w.router.name());

    let mut tally = Tally::default();
    let mut details: Vec<(String, u64)> = Vec::new();
    let mut transport_attempts = 0u64;
    let mut integrity_restarts = 0u64;
    let mut resumed_bytes = 0u64;
    for fault in TransportFault::ALL {
        let mut healed = 0u64;
        for _ in 0..trials_per_kind {
            tally.attempted += 1;
            let bundle = w
                .operator
                .prepare_package(&program, w.router.public_key(), &mut w.rng)?;
            let published = bundle.to_bytes();
            let mut server = FlakyServer::new(FileServer::new(), w.rng.next_u64());
            server.server_mut().publish(path.clone(), published.clone());
            let link = fault.link(base);
            fault.arm(&mut server, &path);
            let fetched = client.download(&mut server, &path, &link, &mut w.rng);
            // A download that gives up spent transport effort too.
            if let Ok(spent) | Err(DownloadError::AttemptsExhausted { spent, .. }) = &fetched {
                transport_attempts += spent.attempts.len() as u64;
                integrity_restarts += u64::from(spent.integrity_restarts);
                resumed_bytes += spent.resumed_bytes as u64;
            }
            match fetched {
                Ok(report) => {
                    let bit_exact = report.bytes == published;
                    let installed = InstallationBundle::from_bytes(&report.bytes)
                        .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))
                        .and_then(|b| w.router.install_bundle(&b, &cores))
                        .is_ok();
                    match (installed, bit_exact) {
                        (true, true) => {
                            tally.clean += 1;
                            healed += 1;
                        }
                        // Signature verified over different bytes: security
                        // failure.
                        (true, false) => tally.escaped += 1,
                        // The control processor caught what the transport
                        // checksum missed.
                        (false, _) => tally.rejected += 1,
                    }
                }
                // Bounded give-up: the quarantine path.
                Err(_) => tally.rejected += 1,
            }
        }
        details.push((format!("{}_healed", fault.name()), healed));
    }
    details.push(("transport_attempts".into(), transport_attempts));
    details.push(("integrity_restarts".into(), integrity_restarts));
    details.push(("resumed_bytes".into(), resumed_bytes));

    Ok(CampaignOutcome {
        name: "resilient_deploy",
        tally,
        latency: LatencySteps::default(),
        recoveries: w.router.np().stats().recoveries,
        details,
    })
}

/// The paper's §2.1 detection model at campaign scale: `trials` random
/// `k_max`-instruction deviations checked by a [`HardwareMonitor`] on the
/// graph (its candidate-set rule resolves branch ambiguity). Returns one
/// row per `k` in `1..=k_max`; escapes at depth `k` required `k`
/// consecutive 4-bit hash collisions, so the observed rate should track
/// `16^-k`.
pub fn escape_model(trials: u64, k_max: u32, seed: u64) -> Vec<EscapeRow> {
    escape_model_for(Compression::SumMod16, trials, k_max, seed)
}

/// [`escape_model`] generalized over the compression function, so the
/// keyed [`Compression::SipRound`] variant (and the ablation compressions)
/// can be validated against the same `16^-k` curve. The paper's model only
/// needs the per-node hash to be uniform over the parameter; every wired
/// compression is bijective in each argument, so the curve should hold for
/// all of them.
pub fn escape_model_for(
    compression: Compression,
    trials: u64,
    k_max: u32,
    seed: u64,
) -> Vec<EscapeRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let hash = MerkleTreeHash::with_compression(rng.gen(), compression);
    let graph = MonitoringGraph::extract(&program, &hash).expect("graph extracts");
    let (base, nodes) = (graph.base(), graph.len());
    let mut monitor = HardwareMonitor::new(graph, hash);
    let mut escapes = vec![0u64; k_max as usize];
    for _ in 0..trials {
        // The deviation starts while the monitor tracks some valid node.
        monitor.begin(base + 4 * rng.gen_range(0..nodes) as u32);
        for slot in escapes.iter_mut() {
            // One injected (uniformly random) instruction word retires.
            if monitor.observe(0, rng.gen()) == Observation::Violation {
                break;
            }
            *slot += 1;
        }
    }
    escapes
        .iter()
        .enumerate()
        .map(|(i, &e)| EscapeRow {
            k: i as u32 + 1,
            trials,
            escapes: e,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig::new(3)
            .with_budget(24)
            .with_routers(2)
            .with_escape_trials(200)
    }

    #[test]
    fn stack_smash_accounts_every_trial() {
        let out = stack_smash(&tiny(), 24, 11).unwrap();
        assert_eq!(out.tally.attempted, 24);
        assert!(out.tally.is_accounted(), "{:?}", out.tally);
        assert_eq!(out.latency.count, out.tally.detected);
        assert!(out.tally.detected > 0, "{:?}", out.tally);
        assert!(out.recoveries >= out.tally.detected);
    }

    #[test]
    fn packet_fuzz_never_escapes() {
        let out = packet_fuzz(&tiny(), 30, 12).unwrap();
        assert!(out.tally.is_accounted());
        assert_eq!(out.tally.escaped, 0, "fuzz has no adversarial goal");
    }

    #[test]
    fn wire_faults_all_rejected() {
        let out = wire_faults(&tiny(), 2, 13).unwrap();
        assert!(out.tally.is_accounted());
        assert_eq!(out.tally.escaped, 0, "{:?}", out.details);
        assert_eq!(out.tally.rejected, out.tally.attempted);
        let expected = out
            .details
            .iter()
            .find(|(k, _)| k == "expected_error_variant")
            .unwrap()
            .1;
        assert_eq!(expected, out.tally.attempted, "{:?}", out.details);
    }

    #[test]
    fn fault_recovery_restores_service() {
        let out = fault_recovery(&tiny(), 20, 14).unwrap();
        assert!(out.tally.is_accounted());
        let unrecovered = out
            .details
            .iter()
            .find(|(k, _)| k == "unrecovered_after_reset")
            .unwrap()
            .1;
        assert_eq!(unrecovered, 0, "{:?}", out.tally);
        assert!(out.recoveries > 0);
    }

    #[test]
    fn resilient_deploy_heals_recoverable_classes_only() {
        let out = resilient_deploy(&tiny(), 2, 17).unwrap();
        assert!(out.tally.is_accounted(), "{:?}", out.tally);
        assert_eq!(out.tally.escaped, 0, "installed bytes must be bit-exact");
        let get = |k: &str| {
            out.details
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for fault in TransportFault::ALL {
            let healed = get(&format!("{}_healed", fault.name()));
            if fault.recoverable() {
                assert_eq!(healed, 2, "{} should heal every trial", fault.name());
            } else {
                assert_eq!(healed, 0, "{} must end in give-up", fault.name());
            }
        }
        assert!(get("transport_attempts") > 0);
    }

    #[test]
    fn resilient_deploy_replays_per_seed() {
        let a = resilient_deploy(&tiny(), 2, 18).unwrap();
        let b = resilient_deploy(&tiny(), 2, 18).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, resilient_deploy(&tiny(), 2, 19).unwrap());
    }

    #[test]
    fn evasive_propagation_escapes_victim_only_under_sbox() {
        let out = evasive_propagation(&tiny(), 15).unwrap();
        assert!(out.tally.is_accounted());
        let get = |k: &str| out.details.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        // Diversified fleet: the leaked-parameter victim escapes, the
        // linear fleet is fully compromised (escapes == fleet size).
        if let Some(sbox) = get("diversified_sbox_escapes") {
            assert_eq!(sbox, 1, "victim-only escape");
        }
        if let Some(linear) = get("linear_summod16_escapes") {
            assert_eq!(linear, 2, "linear compression transfers everywhere");
        }
        assert!(out.tally.escaped >= 1);
    }

    #[test]
    fn escape_model_golden_rows() {
        for (compression, want) in [
            (Compression::SumMod16, [1192, 72, 4, 0]),
            (Compression::SipRound, [1236, 80, 4, 0]),
        ] {
            let escapes: Vec<u64> = escape_model_for(compression, 20_000, 4, 0x6E5)
                .iter()
                .map(|row| row.escapes)
                .collect();
            assert_eq!(escapes, want, "{compression:?}");
        }
    }

    #[test]
    fn escape_model_rates_decay_geometrically() {
        let rows = escape_model(60_000, 3, 16);
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(w[0].escapes >= w[1].escapes, "{rows:?}");
        }
        let p1 = rows[0].observed_rate();
        assert!((0.03..0.12).contains(&p1), "p1 = {p1}");
    }
}
