//! Full-system flows: secure deployment over the network, router fleets,
//! and the homogeneity (SR2) experiment.
//!
//! The fleet experiment reproduces the paper's core argument against
//! monitoring-system homogeneity: an attacker who — by brute force or
//! device compromise — finds an instruction sequence whose hashes evade
//! *one* router's monitor gains nothing against any other router, because
//! every router runs a different secret hash parameter.
//! [`craft_evasive_hijack`] plays the attacker: given one router's
//! parameter, it searches for a hash-colliding attack packet; the bench
//! harness then shows that packet failing across the rest of the fleet.

use crate::entities::{InstallReport, Manufacturer, NetworkOperator, RouterDevice};
use crate::package::InstallationBundle;
use crate::SdmmonError;
use sdmmon_isa::asm::Program;
use sdmmon_monitor::hash::Compression;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_net::channel::{Channel, FileServer};
use sdmmon_net::download::{DownloadClient, DownloadError, RetryPolicy};
use sdmmon_net::resilience::{FlakyServer, LossyChannel};
use sdmmon_npu::core::Core;
use sdmmon_npu::engine::{host_threads, shard_spans, WorkerPool};
use sdmmon_npu::programs::testing::hijack_packet;
use sdmmon_npu::runtime::{HaltReason, PacketOutcome, Verdict};
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_obs::{metrics, Counter, Event, EventBus};
use sdmmon_rng::{RngCore, SeedableRng};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The process-wide control-plane worker pool, spawned on first use and
/// reused by every subsequent deployment, which runs router provisioning
/// ([`provision_fleet`]) on it. Per-router RSA key generation dominates a
/// fleet deploy, so the pool pays: with provisioning alone on it, parallel
/// [`Fleet::deploy`] measured 1.05–1.56× faster than
/// [`Fleet::deploy_serial`] for 3–8 routers on a 2-core host, with
/// identical reports. Guarded by a mutex because
/// [`WorkerPool`]'s completion channels are single-consumer; concurrent
/// deploys simply take turns.
fn deploy_pool() -> &'static Mutex<WorkerPool> {
    static POOL: OnceLock<Mutex<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(WorkerPool::new(host_threads().clamp(1, 8))))
}

/// Runs `task(i)` for every index over the persistent deploy pool and
/// writes each result into its own slot: contiguous index chunks, one per
/// worker, merged **by index** — so the outcome is independent of worker
/// scheduling and byte-identical to a serial loop whenever `task` is a
/// pure function of its index.
fn run_indexed<T, F>(slots: &mut [Option<T>], task: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if slots.is_empty() {
        return;
    }
    let pool = deploy_pool().lock().unwrap_or_else(|e| e.into_inner());
    let spans = shard_spans(slots.len(), pool.len().min(slots.len()));
    let task = &task;
    let mut rest: &mut [Option<T>] = slots;
    let mut consumed = 0;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(pool.len());
    for span in &spans {
        let (chunk, tail) = rest.split_at_mut(span.end - consumed);
        rest = tail;
        consumed = span.end;
        let start = span.start;
        jobs.push(Box::new(move || {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(task(start + offset));
            }
        }));
    }
    // Fewer chunks than workers: pad with no-ops (run_batch is 1:1).
    while jobs.len() < pool.len() {
        jobs.push(Box::new(|| {}));
    }
    pool.run_batch(jobs);
}

/// Outcome of a complete deployment (download + install).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Modelled download duration over the channel.
    pub download_time: Duration,
    /// The control-processor installation report.
    pub install: InstallReport,
}

impl DeploymentReport {
    /// Total modelled wall-clock of the deployment (Table 2's "Total").
    pub fn total_time(&self) -> Duration {
        self.download_time + self.install.timing.total()
    }
}

/// Runs the paper's end-to-end flow for one router: the operator prepares
/// and publishes a bundle on its file server, the router downloads it over
/// `channel` and performs the secure installation on `cores`.
///
/// # Errors
///
/// Propagates packaging, download, and verification failures; nothing is
/// installed if any step fails.
pub fn deploy<R: RngCore + ?Sized>(
    operator: &NetworkOperator,
    program: &Program,
    router: &mut RouterDevice,
    cores: &[usize],
    server: &mut FileServer,
    channel: &Channel,
    rng: &mut R,
) -> Result<DeploymentReport, SdmmonError> {
    let bundle = operator.prepare_package(program, router.public_key(), rng)?;
    let path = format!("pkg/{}.sdmmon", router.name());
    server.publish(path.clone(), bundle.to_bytes());
    let (bytes, download_time) = server
        .fetch(&path, channel)
        .map_err(|e| SdmmonError::Download(e.to_string()))?;
    let bundle = InstallationBundle::from_bytes(&bytes)
        .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
    let install = router.install_bundle(&bundle, cores)?;
    Ok(DeploymentReport {
        download_time,
        install,
    })
}

/// A fleet of identical routers running the same binary — the homogeneity
/// scenario of the paper's introduction — each with its own secret hash
/// parameter thanks to per-router packages.
#[derive(Debug)]
pub struct Fleet {
    routers: Vec<RouterDevice>,
    reports: Vec<InstallReport>,
}

impl Fleet {
    /// Provisions `count` routers from `manufacturer`, then securely
    /// installs `program` on all cores of each via `operator`. Every
    /// router receives a freshly parameterized package.
    ///
    /// Provisioning (RSA key generation, the dominant cost) runs on the
    /// persistent process-wide deploy pool; packaging and installation
    /// follow serially in router order. Determinism is
    /// preserved by construction: a single master seed is drawn from `rng`,
    /// router `i` derives its own seed as `split_seed(master, i)` and its
    /// package sequence from one reserved block, and provisioned routers
    /// merge by index, so the result is byte-identical to
    /// [`Fleet::deploy_serial`] regardless of worker scheduling.
    ///
    /// # Errors
    ///
    /// Propagates provisioning and installation failures
    /// ([`SdmmonError::NoSuchCore`] for `cores_each == 0`).
    pub fn deploy<R: RngCore + ?Sized>(
        manufacturer: &Manufacturer,
        operator: &NetworkOperator,
        program: &Program,
        count: usize,
        cores_each: usize,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<Fleet, SdmmonError> {
        let routers = provision_fleet(manufacturer, count, cores_each, key_bits, rng, true)?;
        Fleet::install_in_order(operator, program, routers)
    }

    /// The serial reference implementation of [`Fleet::deploy`]: identical
    /// seed and sequence derivation, with provisioning run inline instead
    /// of on the deploy pool. Exists so the parallel path can be
    /// differentially tested (and benchmarked) against it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fleet::deploy`].
    pub fn deploy_serial<R: RngCore + ?Sized>(
        manufacturer: &Manufacturer,
        operator: &NetworkOperator,
        program: &Program,
        count: usize,
        cores_each: usize,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<Fleet, SdmmonError> {
        let routers = provision_fleet(manufacturer, count, cores_each, key_bits, rng, false)?;
        Fleet::install_in_order(operator, program, routers)
    }

    /// Packages and installs each provisioned router in router order on all
    /// of its cores: router `i` takes sequence `first + i` of one reserved
    /// block and continues its own RNG stream.
    fn install_in_order(
        operator: &NetworkOperator,
        program: &Program,
        provisioned: Vec<(RouterDevice, sdmmon_rng::StdRng)>,
    ) -> Result<Fleet, SdmmonError> {
        let first_seq = operator.reserve_sequences(provisioned.len() as u64);
        let mut fleet = Fleet {
            routers: Vec::with_capacity(provisioned.len()),
            reports: Vec::with_capacity(provisioned.len()),
        };
        for (i, (mut router, mut rng)) in provisioned.into_iter().enumerate() {
            let sequence = first_seq + i as u64;
            let bundle = operator.prepare_package_with_sequence(
                program,
                router.public_key(),
                sequence,
                &mut rng,
            )?;
            let cores: Vec<usize> = (0..router.np().num_cores()).collect();
            fleet.reports.push(router.install_bundle(&bundle, &cores)?);
            fleet.routers.push(router);
        }
        Ok(fleet)
    }

    /// The deployed routers.
    pub fn routers(&self) -> &[RouterDevice] {
        &self.routers
    }

    /// Per-router installation reports, in router order.
    pub fn reports(&self) -> &[InstallReport] {
        &self.reports
    }

    /// Mutable access (for processing traffic).
    pub fn routers_mut(&mut self) -> &mut [RouterDevice] {
        &mut self.routers
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Sends the same packet to core 0 of every router (the paper's
    /// Internet-scale attack scenario), returning the per-router outcomes.
    pub fn broadcast(&mut self, packet: &[u8]) -> Vec<PacketOutcome> {
        self.routers
            .iter_mut()
            .map(|r| r.process_on(0, packet))
            .collect()
    }
}

/// Knobs of [`Fleet::deploy_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Fault model of the link between the operator's server and every
    /// router (loss / corruption / stall probabilities).
    pub link: LossyChannel,
    /// Per-download transport retry policy (attempt budget, backoff,
    /// chunking).
    pub retry: RetryPolicy,
    /// Full download + verify + install cycles per router before the
    /// deployment gives up and quarantines it.
    pub max_deploy_attempts: u32,
    /// Supervisor policy installed on every successfully deployed router
    /// (the runtime half of the healing loop).
    pub supervisor: SupervisorPolicy,
}

impl Default for ResilientConfig {
    fn default() -> ResilientConfig {
        ResilientConfig {
            link: LossyChannel::clean(Channel::paper_testbed()),
            retry: RetryPolicy::default(),
            max_deploy_attempts: 3,
            supervisor: SupervisorPolicy::default(),
        }
    }
}

/// Where a router's deployment state machine ended up
/// (pending → downloading → verifying → installed | quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployPhase {
    /// Every reachable router finishes here.
    Installed,
    /// The attempt budget ran out; the router is excluded from the fleet.
    Quarantined,
}

/// Per-router record of one resilient deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterDeployment {
    /// Router name (`router-<i>`).
    pub router: String,
    /// Terminal state of the deployment state machine.
    pub phase: DeployPhase,
    /// Download + verify + install cycles spent (1 = first try worked).
    pub deploy_attempts: u32,
    /// Transport attempts across all download cycles.
    pub transport_attempts: u32,
    /// Modelled time on the wire across all cycles.
    pub transfer_time: Duration,
    /// Modelled backoff time across all cycles.
    pub backoff_time: Duration,
    /// Whole-file restarts forced by the transport integrity re-check.
    pub integrity_restarts: u32,
    /// The last error, for quarantined routers.
    pub error: Option<String>,
}

impl RouterDeployment {
    /// Total modelled wall-clock the transport layer spent on this router.
    pub fn network_time(&self) -> Duration {
        self.transfer_time + self.backoff_time
    }
}

/// Result of [`Fleet::deploy_resilient`]: the routers that made it, plus a
/// deployment record for *every* requested router (partial-fleet success).
#[derive(Debug)]
pub struct ResilientFleet {
    /// The successfully deployed routers (quarantined ones are excluded).
    pub fleet: Fleet,
    /// One record per requested router, in router order — including the
    /// quarantined ones.
    pub deployments: Vec<RouterDeployment>,
}

impl ResilientFleet {
    /// Routers that reached `Installed`.
    pub fn installed(&self) -> usize {
        self.deployments
            .iter()
            .filter(|d| d.phase == DeployPhase::Installed)
            .count()
    }

    /// Routers that ended `Quarantined`.
    pub fn quarantined(&self) -> usize {
        self.deployments.len() - self.installed()
    }
}

impl Fleet {
    /// Deploys a fleet over a *faulty* transport, driving each router's
    /// deployment state machine (pending → downloading → verifying →
    /// installed | quarantined) to a terminal state:
    ///
    /// * each cycle prepares a **fresh** bundle (new sequence, parameter,
    ///   and keys — a re-download of a stale bundle would be rejected as a
    ///   replay), publishes it on `server`, and downloads it through
    ///   `config.link` with the retrying, resuming
    ///   [`DownloadClient`];
    /// * verification failures (a corrupted transfer that slipped past the
    ///   transport checksum, a stale sequence) roll back atomically —
    ///   [`RouterDevice::install_bundle`] programs nothing on any error —
    ///   and burn one of the router's `max_deploy_attempts` cycles;
    /// * a router whose budget runs out is **quarantined**: recorded in
    ///   [`ResilientFleet::deployments`] but excluded from the returned
    ///   fleet, without failing the routers that did deploy
    ///   (partial-fleet success);
    /// * every deployed router gets `config.supervisor` installed, so the
    ///   runtime half of the healing loop (redeploy/quarantine ladder,
    ///   degraded dispatch) is armed.
    ///
    /// Provisioning (RSA key generation) runs on the persistent deploy pool
    /// through the same step as [`Fleet::deploy`]; the download/verify/
    /// install cycles then run **serially in router-index order**: the
    /// flaky server's fault clock is attempt-ordered shared state, so every
    /// server interaction must happen in one deterministic sequence. Each
    /// router's RNG stream flows from provisioning into its install cycles,
    /// so the outcome is byte-identical to a fully serial deployment: a
    /// given (rng, server-seed, config) triple replays byte-identically.
    ///
    /// When `bus` is attached, the serial download/install phase narrates
    /// each router's state machine as structured events — one
    /// `deploy.cycle` per download + verify + install cycle, the download
    /// attempt timeline via
    /// [`DownloadReport::to_events`](sdmmon_net::download::DownloadReport::to_events),
    /// `deploy.verify_failed` for rejected bundles, and a terminal
    /// `deploy.installed` or `deploy.quarantined`. Every event's logical
    /// clock is the flaky server's transport-attempt count (the fault
    /// clock), which the serial router-index ordering makes deterministic,
    /// so the stream replays byte-identically too. Fleet counters are
    /// recorded on the global metrics registry either way.
    ///
    /// # Errors
    ///
    /// Returns an error only for *systemic* failures (provisioning or
    /// packaging — e.g. a missing operator certificate). Transport and
    /// verification failures never error; they end in quarantine records.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_resilient<R: RngCore + ?Sized>(
        manufacturer: &Manufacturer,
        operator: &NetworkOperator,
        program: &Program,
        count: usize,
        cores_each: usize,
        key_bits: usize,
        server: &mut FlakyServer,
        config: &ResilientConfig,
        rng: &mut R,
        bus: Option<&EventBus>,
    ) -> Result<ResilientFleet, SdmmonError> {
        let provisioned = provision_fleet(manufacturer, count, cores_each, key_bits, rng, true)?;
        let client = DownloadClient::new(config.retry);
        let mut routers = Vec::new();
        let mut reports = Vec::new();
        let mut deployments = Vec::with_capacity(count);
        for (mut router, mut router_rng) in provisioned {
            let path = format!("pkg/{}.sdmmon", router.name());
            let cores: Vec<usize> = (0..cores_each).collect();
            let mut record = RouterDeployment {
                router: router.name().to_owned(),
                phase: DeployPhase::Quarantined,
                deploy_attempts: 0,
                transport_attempts: 0,
                transfer_time: Duration::ZERO,
                backoff_time: Duration::ZERO,
                integrity_restarts: 0,
                error: None,
            };
            let mut outcome = None;
            while record.deploy_attempts < config.max_deploy_attempts.max(1) {
                record.deploy_attempts += 1;
                metrics().inc(Counter::FleetDeployCycles);
                // The fault clock: every probe/fetch ticks it, and the
                // serial router order makes it a deterministic logical time.
                let clock0 = server.attempts();
                if let Some(bus) = bus {
                    bus.record(
                        Event::new("deploy.cycle", clock0)
                            .field("router", record.router.as_str())
                            .field("cycle", record.deploy_attempts),
                    );
                }
                // Pending → Downloading: fresh bundle every cycle.
                let bundle =
                    operator.prepare_package(program, router.public_key(), &mut router_rng)?;
                server.server_mut().publish(path.clone(), bundle.to_bytes());
                let fetched = client.download(server, &path, &config.link, &mut router_rng);
                // A download that gives up spent attempts, restarts and
                // wire time too: book them whatever the outcome.
                if let Ok(spent) | Err(DownloadError::AttemptsExhausted { spent, .. }) = &fetched {
                    record.transport_attempts += spent.attempts.len() as u32;
                    record.transfer_time += spent.transfer_time();
                    record.backoff_time += spent.backoff_time();
                    record.integrity_restarts += spent.integrity_restarts;
                }
                let download = match fetched {
                    Ok(d) => d,
                    Err(e) => {
                        record.error = Some(e.to_string());
                        if let Some(bus) = bus {
                            bus.record(
                                Event::new("deploy.download_failed", server.attempts())
                                    .field("router", record.router.as_str())
                                    .field("cycle", record.deploy_attempts)
                                    .field("error", e.to_string()),
                            );
                        }
                        continue;
                    }
                };
                if let Some(bus) = bus {
                    bus.extend(download.to_events(&record.router, clock0));
                }
                // Downloading → Verifying: parse + full SR1–SR4 install.
                let result = InstallationBundle::from_bytes(&download.bytes)
                    .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))
                    .and_then(|b| router.install_bundle(&b, &cores));
                match result {
                    Ok(report) => {
                        outcome = Some(report);
                        break;
                    }
                    // Verifying → (rolled back) Pending: install_bundle is
                    // atomic, so the router is exactly as before the cycle.
                    Err(e) => {
                        if let Some(bus) = bus {
                            bus.record(
                                Event::new("deploy.verify_failed", server.attempts())
                                    .field("router", record.router.as_str())
                                    .field("cycle", record.deploy_attempts)
                                    .field("error", e.to_string()),
                            );
                        }
                        record.error = Some(e.to_string());
                    }
                }
            }
            match outcome {
                Some(report) => {
                    record.phase = DeployPhase::Installed;
                    record.error = None;
                    router.set_supervisor_policy(config.supervisor);
                    routers.push(router);
                    reports.push(report);
                    metrics().inc(Counter::FleetRoutersInstalled);
                }
                None => {
                    // Quarantined: dropped from the fleet, kept on record.
                    metrics().inc(Counter::FleetRoutersQuarantined);
                }
            }
            if let Some(bus) = bus {
                let kind = match record.phase {
                    DeployPhase::Installed => "deploy.installed",
                    DeployPhase::Quarantined => "deploy.quarantined",
                };
                let mut event = Event::new(kind, server.attempts())
                    .field("router", record.router.as_str())
                    .field("cycles", record.deploy_attempts)
                    .field("transport_attempts", record.transport_attempts)
                    .field("integrity_restarts", record.integrity_restarts);
                if let Some(error) = &record.error {
                    event = event.field("error", error.as_str());
                }
                bus.record(event);
            }
            deployments.push(record);
        }
        Ok(ResilientFleet {
            fleet: Fleet { routers, reports },
            deployments,
        })
    }
}

/// The one provisioning step of every [`Fleet`] deployment: one master
/// seed is drawn from `rng`, and router `i` is named `router-<i>`, seeds
/// its own RNG from `split_seed(master, i)`, and is manufactured with a
/// fresh key pair. Runs on the deploy pool when `pooled` (merged by index,
/// so scheduling cannot leak into the result), inline otherwise; returns
/// each router with its advanced RNG, so packaging continues the
/// per-router stream where provisioning left it.
fn provision_fleet<R: RngCore + ?Sized>(
    manufacturer: &Manufacturer,
    count: usize,
    cores_each: usize,
    key_bits: usize,
    rng: &mut R,
    pooled: bool,
) -> Result<Vec<(RouterDevice, sdmmon_rng::StdRng)>, SdmmonError> {
    let master = rng.next_u64();
    let step = |i: usize| {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(sdmmon_rng::split_seed(master, i as u64));
        let router = manufacturer.provision_router(
            &format!("router-{i}"),
            cores_each,
            key_bits,
            &mut rng,
        )?;
        Ok((router, rng))
    };
    if !pooled {
        return (0..count).map(step).collect();
    }
    let mut slots = (0..count).map(|_| None).collect::<Vec<_>>();
    run_indexed(&mut slots, step);
    slots
        .into_iter()
        .map(|slot| slot.expect("pool ran every job"))
        .collect()
}

/// An attack packet crafted to evade one specific router's monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvasiveAttack {
    /// The crafted packet bytes.
    pub packet: Vec<u8>,
    /// The attacker-chosen output port the hijacked core forwards to.
    pub port: u32,
    /// Tunable padding instructions the search inserted.
    pub nop_layers: usize,
    /// Monitor simulations the search spent.
    pub search_runs: u64,
}

/// Maximum mimicry-path length (padding instructions) the attacker tries.
const MAX_LAYERS: usize = 48;

/// Plays the paper's AC2 attacker against a *known* hash parameter:
/// constructs a stack-smashing packet (against the vulnerable forwarder)
/// whose injected instructions all hash-collide with a valid
/// monitoring-graph path, so the hijack completes without a violation.
///
/// The attack is the mimicry the paper's security analysis describes: the
/// injected code must "match a predetermined sequence of hash values".
/// With the parameter in hand, the attacker picks a walk through the
/// monitoring graph — starting at the indirect-jump successor set active
/// when the hijacked `jr $ra` retires, ending at a node whose hash equals
/// the hash of the one *fixed* payload instruction (the verdict-writing
/// `sw $t5, -16($s0)`; `$s0` still holds the packet ABI base at hijack
/// time) — and then tunes a free 16-bit immediate in every padding
/// instruction (`ori $zero, $zero, immᵢ`, an architectural no-op) plus the
/// attacker port in `addiu $t5, $zero, port` so each injected instruction
/// hashes exactly to its path node. Without the parameter (every other
/// router in the fleet), each of those collisions is a 2⁻⁴ lottery —
/// which is the SR2 experiment.
///
/// Returns `None` when no suitable graph walk of bounded length
/// exists or an immediate cannot be tuned (possible for degenerate
/// compression functions).
///
/// # Panics
///
/// Panics if `program` does not contain the vulnerable forwarder's
/// indirect return (no `jr`-style instruction to hijack).
pub fn craft_evasive_hijack(
    program: &Program,
    hash_param: u32,
    compression: Compression,
) -> Option<EvasiveAttack> {
    use sdmmon_isa::{ControlFlow, Inst};
    use sdmmon_monitor::hash::InstructionHash;

    let hash = MerkleTreeHash::with_compression(hash_param, compression);
    let graph = MonitoringGraph::extract(program, &hash).expect("program has a graph");
    let mut runs = 0u64;

    // The candidate set right after the hijacked `jr $ra` is the graph's
    // indirect-target set: the return site after every linking call.
    let mut start: Vec<u32> = Vec::new();
    for (i, &word) in program.words.iter().enumerate() {
        let pc = program.base + 4 * i as u32;
        if let Ok(inst) = Inst::decode(word) {
            let linking = match inst.control_flow() {
                ControlFlow::Jump { linking, .. }
                | ControlFlow::Indirect { linking }
                | ControlFlow::Branch { linking, .. } => linking,
                ControlFlow::Sequential => false,
            };
            if linking {
                start.push(pc + 4);
            }
        }
    }
    assert!(
        !start.is_empty(),
        "no indirect return to hijack in this program"
    );

    // The final observed injected instruction is the verdict write
    // (`break 0` traps before it is ever observed by the monitor). Its
    // word is fixed once chosen, but the attacker has many semantically
    // equivalent encodings to pick from: store width (the runtime zeroes
    // the verdict word, so a half or byte store of the port suffices),
    // temp register, and base register ($s0 holds the packet ABI base,
    // $s1 the packet data base, at hijack time). Each encoding has its own
    // hash, so at least one is almost always reachable in the graph.
    let finals = final_store_candidates();

    // BFS over the monitoring graph, keeping per-level parent maps for
    // path reconstruction. parents[d] maps a node first reached at depth
    // d+1 to its predecessor at depth d.
    let mut frontiers: Vec<Vec<u32>> = vec![start.clone()];
    let mut parents: Vec<std::collections::BTreeMap<u32, u32>> = Vec::new();
    for _ in 0..MAX_LAYERS {
        let frontier = frontiers.last().expect("seeded with the start set");
        let mut next: Vec<u32> = Vec::new();
        let mut level = std::collections::BTreeMap::new();
        for &node in frontier {
            let Some(n) = graph.node(node) else { continue };
            for &s in &n.successors {
                if let std::collections::btree_map::Entry::Vacant(e) = level.entry(s) {
                    e.insert(node);
                    next.push(s);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        parents.push(level);
        frontiers.push(next);
    }

    // The run ends with `break 0`, which also retires and is observed, so
    // the walk needs one more hop: a successor of the store's node whose
    // hash equals the break word's hash.
    let break_hash = hash.hash(Inst::Break { code: 0 }.encode());

    // Pick the shallowest goal over all final-store encodings: a node at
    // depth >= 1 (leaving room for the addiu hop) whose hash equals the
    // candidate store's hash and that can be followed by a break-hash node.
    let mut goal: Option<(usize, u32, &FinalStore)> = None;
    #[allow(clippy::needless_range_loop)] // `depth` is the BFS depth, not a mere index
    'outer: for depth in 1..frontiers.len() {
        for fin in &finals {
            let target_hash = hash.hash(fin.word);
            runs += 1;
            if let Some(&node) = frontiers[depth].iter().find(|&&n| {
                graph.node(n).is_some_and(|x| {
                    x.hash == target_hash
                        && x.successors
                            .iter()
                            .any(|&s| graph.node(s).map(|y| y.hash) == Some(break_hash))
                })
            }) {
                goal = Some((depth, node, fin));
                break 'outer;
            }
        }
    }
    let (depth, goal_node, fin) = goal?;

    // Reconstruct the walk: path[0] ∈ start, …, path[depth] = goal_node.
    let mut path = vec![goal_node];
    let mut cur = goal_node;
    for level in (0..depth).rev() {
        cur = parents[level][&cur];
        path.push(cur);
    }
    path.reverse();

    // Tune each injected instruction to its path node's hash. The walk has
    // depth+1 nodes: nodes 0..=depth-2 are matched by tunable `ori` nops,
    // node depth-1 by the tunable `addiu`, node depth by the final store.
    let node_hash = |addr: u32| graph.node(addr).expect("path stays in graph").hash;
    let mut imms: Vec<u16> = Vec::with_capacity(depth.saturating_sub(1));
    for &node in &path[..depth - 1] {
        let want = node_hash(node);
        let imm = (0..=u16::MAX).find(|&imm| {
            runs += 1;
            hash.hash(
                Inst::Ori {
                    rt: sdmmon_isa::Reg::ZERO,
                    rs: sdmmon_isa::Reg::ZERO,
                    imm,
                }
                .encode(),
            ) == want
        })?;
        imms.push(imm);
    }
    let want_addiu = node_hash(path[depth - 1]);
    let port = (1..=fin.max_port).find(|&port| {
        runs += 1;
        hash.hash(
            Inst::Addiu {
                rt: fin.rt,
                rs: sdmmon_isa::Reg::ZERO,
                imm: port as i16,
            }
            .encode(),
        ) == want_addiu
    })?;

    // Build and verify the packet against a replica of the victim.
    let payload = evasive_payload(&imms, port, fin);
    let packet = hijack_packet(&payload).expect("payload assembles");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    let mut monitor = HardwareMonitor::new(graph.clone(), hash);
    let out = core.process_packet(&packet, &mut monitor);
    runs += out.steps;
    if out.halt != HaltReason::Completed || out.verdict != Verdict::Forward(port as u32) {
        return None;
    }
    Some(EvasiveAttack {
        packet,
        port: port as u32,
        nop_layers: imms.len(),
        search_runs: runs,
    })
}

/// One way of writing the attacker's port into the verdict word.
#[derive(Debug, Clone)]
struct FinalStore {
    /// The exact instruction word the monitor will observe.
    word: u32,
    /// Assembly rendering with a `{}` placeholder-free form.
    asm: String,
    /// Register the port is staged in.
    rt: sdmmon_isa::Reg,
    /// Largest port value the store width can carry.
    max_port: u16,
}

/// Enumerates the semantically equivalent verdict writes available at
/// hijack time (see [`craft_evasive_hijack`]).
fn final_store_candidates() -> Vec<FinalStore> {
    use sdmmon_isa::{Inst, Reg};
    let temps = [
        Reg::T5,
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::T3,
        Reg::T4,
        Reg::T6,
        Reg::T7,
        Reg::T8,
        Reg::T9,
        Reg::V0,
        Reg::V1,
        Reg::AT,
    ];
    // (base register, offset of the verdict word relative to it)
    let bases = [(Reg::S0, -16i16), (Reg::S1, -20i16)];
    let mut out = Vec::new();
    for &(base, off) in &bases {
        for &rt in &temps {
            // Full-word store of the port.
            out.push(FinalStore {
                word: Inst::Sw {
                    rt,
                    base,
                    offset: off,
                }
                .encode(),
                asm: format!("sw {rt}, {off}({base})"),
                rt,
                max_port: i16::MAX as u16,
            });
            // The runtime zeroes the verdict slot before each run, so a
            // half-word store of the low half (big-endian: offset + 2) or a
            // byte store of the low byte (offset + 3) also sets it.
            out.push(FinalStore {
                word: Inst::Sh {
                    rt,
                    base,
                    offset: off + 2,
                }
                .encode(),
                asm: format!("sh {rt}, {}({base})", off + 2),
                rt,
                max_port: i16::MAX as u16,
            });
            out.push(FinalStore {
                word: Inst::Sb {
                    rt,
                    base,
                    offset: off + 3,
                }
                .encode(),
                asm: format!("sb {rt}, {}({base})", off + 3),
                rt,
                max_port: 255,
            });
        }
    }
    out
}

/// Renders the tunable attack payload (see [`craft_evasive_hijack`]).
fn evasive_payload(imms: &[u16], port: u16, fin: &FinalStore) -> String {
    use std::fmt::Write;
    let mut asm = String::new();
    for imm in imms {
        // Writes to $zero are architectural no-ops with 16 free bits.
        let _ = writeln!(asm, "ori $zero, $zero, 0x{imm:x}");
    }
    // Stage the port, write the verdict, halt. At hijack time $s0 still
    // holds PKT_LEN_ADDR and $s1 the packet data base.
    let _ = writeln!(asm, "addiu {}, $zero, {port}", fin.rt);
    let _ = writeln!(asm, "{}", fin.asm);
    let _ = writeln!(asm, "break 0");
    asm
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_npu::programs::{self, testing};
    use sdmmon_rng::SeedableRng;

    const KEY_BITS: usize = 512;

    fn setup(seed: u64) -> (Manufacturer, NetworkOperator, sdmmon_rng::StdRng) {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
        let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).unwrap();
        let mut operator = NetworkOperator::new("op", KEY_BITS, &mut rng).unwrap();
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
        (manufacturer, operator, rng)
    }

    #[test]
    fn deploy_over_file_server() {
        let (manufacturer, operator, mut rng) = setup(11);
        let mut router = manufacturer
            .provision_router("r", 2, KEY_BITS, &mut rng)
            .unwrap();
        let program = programs::ipv4_forward().unwrap();
        let mut server = FileServer::new();
        let channel = Channel::paper_testbed();
        let report = deploy(
            &operator,
            &program,
            &mut router,
            &[0, 1],
            &mut server,
            &channel,
            &mut rng,
        )
        .unwrap();
        assert!(report.download_time > Duration::ZERO);
        assert!(report.total_time() > report.download_time);
        assert_eq!(server.fetches(), 1);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 4], 64, b"");
        let (_, out) = router.process(&packet);
        assert_eq!(out.verdict, Verdict::Forward(4));
    }

    #[test]
    fn fleet_routers_have_distinct_parameters() {
        let (manufacturer, operator, mut rng) = setup(12);
        let program = programs::ipv4_forward().unwrap();
        let fleet =
            Fleet::deploy(&manufacturer, &operator, &program, 5, 1, KEY_BITS, &mut rng).unwrap();
        assert_eq!(fleet.len(), 5);
        let params: Vec<u32> = fleet
            .routers()
            .iter()
            .map(|r| r.installed(0).unwrap().hash_param)
            .collect();
        let mut unique = params.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            params.len(),
            "SR2: parameters must differ: {params:?}"
        );
    }

    #[test]
    fn fleet_forwards_normal_traffic() {
        let (manufacturer, operator, mut rng) = setup(13);
        let program = programs::ipv4_forward().unwrap();
        let mut fleet =
            Fleet::deploy(&manufacturer, &operator, &program, 3, 1, KEY_BITS, &mut rng).unwrap();
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 7], 64, b"");
        for out in fleet.broadcast(&packet) {
            assert_eq!(out.verdict, Verdict::Forward(7));
        }
    }

    #[test]
    fn parallel_deploy_is_bit_identical_to_serial() {
        // Two identically seeded worlds: one deployed in parallel, one
        // serially. Thread scheduling must not leak into any observable
        // output — router identity, key material, hash parameters, or the
        // install reports.
        let program = programs::ipv4_forward().unwrap();
        let (m_par, o_par, mut rng_par) = setup(16);
        let (m_ser, o_ser, mut rng_ser) = setup(16);
        let parallel =
            Fleet::deploy(&m_par, &o_par, &program, 4, 2, KEY_BITS, &mut rng_par).unwrap();
        let serial =
            Fleet::deploy_serial(&m_ser, &o_ser, &program, 4, 2, KEY_BITS, &mut rng_ser).unwrap();

        assert_eq!(parallel.len(), serial.len());
        assert_eq!(parallel.reports(), serial.reports());
        for (a, b) in parallel.routers().iter().zip(serial.routers()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.public_key().modulus_bytes(),
                b.public_key().modulus_bytes()
            );
            assert_eq!(a.installed(0), b.installed(0));
            assert_eq!(a.installed(1), b.installed(1));
        }
        // The resilient path over a clean link, one cycle per router and no
        // supervisor, is the paper path with a transport in between: the
        // same routers, packages, and installs.
        let (m_res, o_res, mut rng_res) = setup(16);
        let mut server = FlakyServer::new(FileServer::new(), 0x5e_7e12);
        let config = ResilientConfig {
            max_deploy_attempts: 1,
            supervisor: SupervisorPolicy::never(),
            ..ResilientConfig::default()
        };
        let resilient = Fleet::deploy_resilient(
            &m_res,
            &o_res,
            &program,
            4,
            2,
            KEY_BITS,
            &mut server,
            &config,
            &mut rng_res,
            None,
        )
        .unwrap()
        .fleet;
        assert_eq!(resilient.reports(), parallel.reports());
        for (a, b) in resilient.routers().iter().zip(parallel.routers()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.public_key().modulus_bytes(),
                b.public_key().modulus_bytes()
            );
            assert_eq!(a.installed(0), b.installed(0));
            assert_eq!(a.installed(1), b.installed(1));
        }
        assert_eq!(resilient.len(), parallel.len());

        // All three deployments leave the caller's rng in the same state.
        let next = rng_par.next_u64();
        assert_eq!(next, rng_ser.next_u64());
        assert_eq!(next, rng_res.next_u64());
    }

    #[test]
    fn zero_core_fleets_are_an_error_not_a_panic() {
        let (manufacturer, operator, mut rng) = setup(23);
        let program = programs::ipv4_forward().unwrap();
        let no_core = SdmmonError::NoSuchCore { core: 0, cores: 0 };
        // Rejected before key generation: the rng is untouched.
        let mut probe = rng.clone();
        assert_eq!(
            manufacturer
                .provision_router("r", 0, KEY_BITS, &mut probe)
                .unwrap_err(),
            no_core
        );
        assert_eq!(probe.next_u64(), rng.clone().next_u64());
        for deploy in [Fleet::deploy, Fleet::deploy_serial] {
            let err = deploy(&manufacturer, &operator, &program, 2, 0, KEY_BITS, &mut rng);
            assert_eq!(err.unwrap_err(), no_core);
        }
        let mut server = FlakyServer::new(FileServer::new(), 3);
        let err = Fleet::deploy_resilient(
            &manufacturer,
            &operator,
            &program,
            2,
            0,
            KEY_BITS,
            &mut server,
            &ResilientConfig::default(),
            &mut rng,
            None,
        );
        assert_eq!(err.unwrap_err(), no_core);
        assert_eq!(
            server.stats().attempts,
            0,
            "no transport before provisioning"
        );
    }

    fn hostile_world() -> (FlakyServer, ResilientConfig) {
        // Lossy, corrupting, stalling link; one five-attempt server outage
        // early on; router-2's package path is blackholed (unreachable).
        let mut server = FlakyServer::new(FileServer::new(), 0xf1ee7);
        server.schedule_outage(sdmmon_net::resilience::OutageWindow { from: 2, len: 5 });
        server.blackhole("pkg/router-2.sdmmon");
        let config = ResilientConfig {
            link: LossyChannel::clean(Channel::ideal_gigabit())
                .with_loss(0.2)
                .with_corrupt(0.05)
                .with_stall(0.05),
            retry: RetryPolicy::default()
                .with_chunk_bytes(16 * 1024)
                .with_max_attempts(60),
            max_deploy_attempts: 3,
            supervisor: SupervisorPolicy::default(),
        };
        (server, config)
    }

    fn resilient_run(seed: u64) -> (ResilientFleet, u64) {
        let (manufacturer, operator, mut rng) = setup(seed);
        let (mut server, config) = hostile_world();
        let program = programs::ipv4_forward().unwrap();
        let result = Fleet::deploy_resilient(
            &manufacturer,
            &operator,
            &program,
            4,
            2,
            KEY_BITS,
            &mut server,
            &config,
            &mut rng,
            None,
        )
        .unwrap();
        (result, server.stats().attempts)
    }

    #[test]
    fn resilient_deploy_converges_under_faults() {
        // The acceptance-criteria scenario: seeded loss + corruption +
        // stalls + one server outage + one unreachable router. Every
        // reachable router must install; only the unreachable one may be
        // quarantined.
        let (result, _) = resilient_run(17);
        assert_eq!(result.deployments.len(), 4);
        assert_eq!(result.installed(), 3);
        assert_eq!(result.quarantined(), 1);
        assert_eq!(result.fleet.len(), 3);
        for (i, d) in result.deployments.iter().enumerate() {
            if i == 2 {
                assert_eq!(d.phase, DeployPhase::Quarantined, "{d:?}");
                assert!(d.error.is_some());
                assert_eq!(d.deploy_attempts, 3, "budget fully spent");
            } else {
                assert_eq!(d.phase, DeployPhase::Installed, "{d:?}");
                assert!(d.error.is_none());
                assert!(d.transport_attempts > 0);
            }
        }
        // Partial-fleet success: the survivors forward traffic and carry
        // distinct SR2 parameters.
        let mut fleet = result.fleet;
        let params: Vec<u32> = fleet
            .routers()
            .iter()
            .map(|r| r.installed(0).unwrap().hash_param)
            .collect();
        let mut unique = params.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), params.len(), "SR2 held: {params:?}");
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 6], 64, b"");
        for out in fleet.broadcast(&packet) {
            assert_eq!(out.verdict, Verdict::Forward(6));
        }

        // Degraded dispatch: quarantine core 0 of a deployed router and a
        // quarantined core never receives a packet again.
        let router = &mut fleet.routers_mut()[0];
        router.quarantine_core(0);
        assert_eq!(router.np().active_cores(), vec![1]);
        for _ in 0..8 {
            let (core, out) = router.process(&packet);
            assert_eq!(core, 1, "quarantined core 0 got a packet");
            assert_eq!(out.verdict, Verdict::Forward(6));
        }
        assert_eq!(router.np().stats().quarantined_cores, 1);
    }

    #[test]
    fn resilient_deploy_replays_byte_identically() {
        let (a, a_attempts) = resilient_run(17);
        let (b, b_attempts) = resilient_run(17);
        assert_eq!(a.deployments, b.deployments);
        assert_eq!(a.fleet.reports(), b.fleet.reports());
        assert_eq!(a_attempts, b_attempts, "same server-side fault clock");
        for (x, y) in a.fleet.routers().iter().zip(b.fleet.routers()) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.installed(0), y.installed(0));
            assert_eq!(
                x.public_key().modulus_bytes(),
                y.public_key().modulus_bytes()
            );
        }
        // A different seed takes a different path through the faults.
        let (c, _) = resilient_run(18);
        assert_ne!(
            a.deployments, c.deployments,
            "distinct seeds should differ somewhere in the timeline"
        );
    }

    #[test]
    fn clean_transport_deploys_first_try() {
        let (manufacturer, operator, mut rng) = setup(19);
        let mut server = FlakyServer::new(FileServer::new(), 9);
        let config = ResilientConfig::default();
        let program = programs::ipv4_forward().unwrap();
        let result = Fleet::deploy_resilient(
            &manufacturer,
            &operator,
            &program,
            3,
            1,
            KEY_BITS,
            &mut server,
            &config,
            &mut rng,
            None,
        )
        .unwrap();
        assert_eq!(result.installed(), 3);
        assert_eq!(result.quarantined(), 0);
        for d in &result.deployments {
            assert_eq!(d.deploy_attempts, 1, "no faults, no retries: {d:?}");
            assert_eq!(d.integrity_restarts, 0);
            assert_eq!(d.backoff_time, Duration::ZERO);
        }
    }

    #[test]
    fn evasive_attack_compromises_only_the_targeted_router() {
        // The SR2 experiment end to end: the attacker knows router 0's
        // parameter (AC2 / brute-force success) and crafts an evading
        // packet; the rest of the fleet still detects it.
        let (manufacturer, operator, mut rng) = setup(14);
        let program = programs::vulnerable_forward().unwrap();
        let mut fleet =
            Fleet::deploy(&manufacturer, &operator, &program, 4, 1, KEY_BITS, &mut rng).unwrap();
        let leaked_param = fleet.routers()[0].installed(0).unwrap().hash_param;

        let attack = craft_evasive_hijack(&program, leaked_param, Compression::SBox)
            .expect("search should find an evading packet for the leaked parameter");
        let outcomes = fleet.broadcast(&attack.packet);

        // Router 0 is silently compromised: the hijack completes and
        // forwards to the attacker's port.
        assert_eq!(outcomes[0].halt, HaltReason::Completed, "victim evaded");
        assert_eq!(outcomes[0].verdict, Verdict::Forward(attack.port));

        // The same packet against differently parameterized monitors must
        // be caught (each escape needs a fresh chain of 4-bit collisions).
        let detected = outcomes[1..]
            .iter()
            .filter(|o| o.halt == HaltReason::MonitorViolation)
            .count();
        assert!(
            detected >= 2,
            "at least 2 of 3 other routers detect; outcomes: {outcomes:?}"
        );
    }

    #[test]
    fn evasive_search_reports_effort() {
        let program = programs::vulnerable_forward().unwrap();
        let attack = craft_evasive_hijack(&program, 0x1234_5678, Compression::SBox).unwrap();
        assert!(attack.search_runs > 0);
        assert!(attack.port > 0);
    }

    #[test]
    fn paper_sum_compression_lets_attacks_transfer() {
        // The reproduction finding: with the paper's sum-mod-16 compression,
        // hash collisions are parameter-independent, so the evasive packet
        // crafted against one router compromises EVERY router. This is why
        // the protocol layer defaults to the S-box compression.
        let (manufacturer, mut operator, mut rng) = {
            let (m, mut o, r) = setup(15);
            o.set_compression(Compression::SumMod16);
            (m, o, r)
        };
        let _ = &mut operator;
        let program = programs::vulnerable_forward().unwrap();
        let mut fleet =
            Fleet::deploy(&manufacturer, &operator, &program, 4, 1, KEY_BITS, &mut rng).unwrap();
        let leaked = fleet.routers()[0].installed(0).unwrap().hash_param;
        let attack = craft_evasive_hijack(&program, leaked, Compression::SumMod16).unwrap();
        let outcomes = fleet.broadcast(&attack.packet);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(
                out.halt,
                HaltReason::Completed,
                "router {i} should be compromised under the linear compression"
            );
            assert_eq!(out.verdict, Verdict::Forward(attack.port));
        }
    }
}
