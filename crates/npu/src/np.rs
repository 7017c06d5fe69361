//! The multicore network processor: several cores with per-core execution
//! observers, round-robin and flow-affinity dispatch, and the paper's
//! recovery policy (detect → drop packet → reset core → continue with the
//! next packet), optionally escalated by the [`crate::supervisor`] — the
//! structural strike ladder (redeploy after repeated recoveries,
//! quarantine after repeated redeploys) plus the adaptive graded response
//! table (alert → throttle a core's dispatch share → quarantine → zeroize
//! its wrapped key and latch NP lockdown), with timed parole restoring
//! throttled and quarantined cores after clean batches and a bounded
//! per-core forensic ring flushed as `supervisor.forensic` events on
//! escalation.
//!
//! Every packet, whichever entry point admits it, runs through one body,
//! `Slot::step`: dispatch (the fused per-packet path or the
//! per-instruction reference oracle), supervisor settle, the forensic
//! ring, escalation events, and trace spans. Batches and stream rounds run
//! through one executor, `NetworkProcessor::execute`, which hands each
//! core's queue to the worker an *owner plan* names — the static
//! [`shard_of`] plan for [`NetworkProcessor::process_batch`], the
//! [`steal_plan`] for [`NetworkProcessor::process_stream`], one inline
//! worker for the serial oracles — then merges events by clock and
//! outcomes by input index and folds [`NpStats`] on the caller. The
//! caller thread runs owner group 0 itself while the persistent
//! [`WorkerPool`] runs groups 1 and up, so a round wakes `shards - 1`
//! threads and the caller works on a shard instead of only waiting.
//!
//! Recovery is cheap on the data path too: [`Core::reset`] zeroes only
//! the memory pages written since the core's last reset.

use crate::core::{Core, RETIRE_BLOCK};
use crate::cpu::{ExecutionObserver, NullObserver};
use crate::engine::{dispatch_slots, shard_of, shard_spans, steal_plan, IngressQueues, WorkerPool};
use crate::runtime::{HaltReason, PacketOutcome};
use crate::supervisor::{CoreHealth, Parole, SupervisorAction, SupervisorPolicy};
use sdmmon_obs::trace::{self, TraceContext};
use sdmmon_obs::{metrics, Counter, Event, EventBus, Gauge, Hist};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Aggregate counters over all packets the NP has processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NpStats {
    /// Packets handed to a core.
    pub processed: u64,
    /// Packets forwarded to an output port.
    pub forwarded: u64,
    /// Packets dropped (policy drops and recovery drops alike).
    pub dropped: u64,
    /// Runs stopped by the execution observer (hardware monitor).
    pub violations: u64,
    /// Runs stopped by a processor trap.
    pub faults: u64,
    /// Core resets performed as recovery.
    pub recoveries: u64,
    /// Supervisor redeploys (last-known-good re-flashes) across all cores.
    pub redeploys: u64,
    /// Cores currently quarantined out of dispatch.
    pub quarantined_cores: u64,
}

impl fmt::Display for NpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processed {} / forwarded {} / dropped {} / violations {} / faults {} / \
             recoveries {} / redeploys {} / quarantined {}",
            self.processed,
            self.forwarded,
            self.dropped,
            self.violations,
            self.faults,
            self.recoveries,
            self.redeploys,
            self.quarantined_cores
        )
    }
}

impl NpStats {
    /// Renders the counters as one line of JSON with a fixed key order —
    /// the shared formatting `sdmmon stats` and `perf_report` print
    /// (hand-rolled; the workspace has no serialization dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"processed\":{},\"forwarded\":{},\"dropped\":{},\"violations\":{},\
             \"faults\":{},\"recoveries\":{},\"redeploys\":{},\"quarantined_cores\":{}}}",
            self.processed,
            self.forwarded,
            self.dropped,
            self.violations,
            self.faults,
            self.recoveries,
            self.redeploys,
            self.quarantined_cores
        )
    }

    /// Folds one packet outcome into the counters (recovery is implied by
    /// any unclean halt — see [`Slot::settle`]).
    fn record(&mut self, outcome: &PacketOutcome) {
        self.processed += 1;
        match outcome.halt {
            HaltReason::Completed => {}
            HaltReason::MonitorViolation => self.violations += 1,
            HaltReason::Fault(_) | HaltReason::StepLimit => self.faults += 1,
        }
        if outcome.halt.is_clean() {
            match outcome.verdict {
                crate::runtime::Verdict::Drop => self.dropped += 1,
                crate::runtime::Verdict::Forward(_) => self.forwarded += 1,
            }
        } else {
            self.dropped += 1;
            self.recoveries += 1;
        }
    }
}

/// One settled packet remembered by the forensic ring.
#[derive(Debug, Clone, Copy)]
struct ForensicEntry {
    /// The packet's batch-wide ordinal (its event clock).
    at: u64,
    /// How the run halted: `clean`, `violation`, or `fault`.
    halt: &'static str,
    /// Retired instructions.
    steps: u64,
}

/// One settled packet remembered by the flight recorder for retroactive
/// trace promotion (see [`sdmmon_obs::trace`]). Unlike [`ForensicEntry`]
/// it is keyed by flow, so promotion lifts exactly the flagged flow's
/// recent packets out of the ring.
#[derive(Debug, Clone, Copy)]
struct FlightRecord {
    /// The packet's batch-wide ordinal (its event clock).
    at: u64,
    /// Flow-affinity hash — the promotion key.
    flow: u64,
    /// Position in the core's run queue (the queueing cost).
    delay: u64,
    /// Retired instructions.
    steps: u64,
    /// How the run halted: `clean`, `violation`, or `fault`.
    halt: &'static str,
}

/// Halt label used by forensic events.
fn halt_label(halt: &HaltReason) -> &'static str {
    match halt {
        HaltReason::Completed => "clean",
        HaltReason::MonitorViolation => "violation",
        HaltReason::Fault(_) | HaltReason::StepLimit => "fault",
    }
}

/// One core, its attached observer, its supervisor ledger, and the bounded
/// forensic ring of recently settled packets.
struct Slot {
    core: Core,
    observer: Box<dyn ExecutionObserver + Send>,
    health: CoreHealth,
    /// Pre-detection window, capacity `AdaptiveConfig::forensic_window`.
    /// Touched only by the core's owning thread, so the captured window is
    /// identical at every shard count.
    forensics: VecDeque<ForensicEntry>,
    /// Flight recorder: recent *unsampled* packet records, capacity
    /// [`TraceContext::DEFAULT_FLIGHT_WINDOW`]. Same single-owner
    /// discipline as `forensics`, so promotions replay identically at
    /// every shard count.
    flight: VecDeque<FlightRecord>,
}

/// Which per-packet dispatch path a pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchPath {
    /// [`ExecutionObserver::run_packet`] — one virtual call per packet, so
    /// observers with a monomorphized fast path (the hardware monitor) run
    /// it.
    Fused,
    /// [`Core::process_packet`] via `&mut dyn` — one virtual call per
    /// retired instruction; the oracle path. Outcomes equal the fused
    /// path's by the trait's contract, which the determinism tests and the
    /// testkit differentials pin.
    Reference,
}

/// What every packet of one execution pass shares; workers read it by
/// reference.
#[derive(Debug)]
struct Pass {
    policy: SupervisorPolicy,
    /// Clock of input index 0: the NP's processed count at entry.
    base_clock: u64,
    /// Whether an event bus is attached (escalation events are buffered).
    record_events: bool,
    /// Span context; `None` unless tracing is on and a bus is attached.
    trace: Option<TraceContext>,
    path: DispatchPath,
}

impl Slot {
    /// Runs the packet at input index `i` of a pass, which sits at `qpos`
    /// in this core's queue — the one per-packet body of every entry
    /// point. Dispatches it on `pass.path`, settles it (recovery and the
    /// supervisor), remembers it in the forensic ring, and buffers its
    /// escalation events and trace spans into `events`. Every event is
    /// stamped with the packet's clock, `base_clock + i`, so a stable
    /// clock sort of any set of worker buffers yields one canonical
    /// stream. The NP-wide stats are left to the caller.
    fn step(
        &mut self,
        pass: &Pass,
        core: usize,
        qpos: usize,
        i: usize,
        packet: &[u8],
        events: &mut Vec<Event>,
    ) -> (PacketOutcome, Option<SupervisorAction>) {
        let outcome = match pass.path {
            DispatchPath::Fused => self.observer.run_packet(&mut self.core, packet),
            DispatchPath::Reference => self.core.process_packet(packet, self.observer.as_mut()),
        };
        let action = self.settle(&outcome, &pass.policy);
        let clock = pass.base_clock + i as u64;
        self.note_forensic(clock, &outcome, pass.policy.adaptive.forensic_window);
        if let Some(action) = action.filter(|_| pass.record_events) {
            if action >= SupervisorAction::Quarantine {
                self.flush_forensics(clock, core, events);
            }
            events.extend(supervisor_event(action, clock, core, &self.health));
        }
        if let Some(tc) = &pass.trace {
            self.note_trace(
                tc,
                packet,
                clock,
                core,
                qpos as u64,
                &outcome,
                action,
                events,
            );
        }
        (outcome, action)
    }

    /// Post-packet bookkeeping for both dispatch paths. Returns the
    /// supervisor's verdict on an unclean halt (`None` for clean packets)
    /// so [`Slot::step`] can turn escalations into events; the process-wide
    /// metrics are recorded here — a few relaxed atomic adds per packet,
    /// all commutative, so worker-thread interleaving cannot perturb a
    /// snapshot.
    fn settle(
        &mut self,
        outcome: &PacketOutcome,
        policy: &SupervisorPolicy,
    ) -> Option<SupervisorAction> {
        let m = metrics();
        m.inc(Counter::NpPackets);
        m.add(Counter::NpInstructionsRetired, outcome.steps);
        if outcome.halt.is_clean() {
            self.health.record_clean(policy);
            return None;
        }
        if matches!(outcome.halt, HaltReason::MonitorViolation) {
            m.inc(Counter::NpViolations);
            m.observe(Hist::DetectionLatencySteps, outcome.steps);
        } else {
            m.inc(Counter::NpFaults);
        }
        m.inc(Counter::NpRecoveries);
        // Recovery: drop the packet and reset the core so the next
        // packet starts from a pristine image. A supervisor-ordered
        // redeploy re-flashes the same last-known-good image — here
        // `reset()` already restores exactly that, so escalation only
        // changes the book-keeping (and, at the top, quarantines).
        self.core.reset();
        let action = self.health.record_unclean(policy, outcome.steps);
        match action {
            SupervisorAction::Recover => {}
            SupervisorAction::Alert => m.inc(Counter::NpAlerts),
            SupervisorAction::Throttle => m.inc(Counter::NpThrottles),
            SupervisorAction::Redeploy => m.inc(Counter::NpRedeploys),
            SupervisorAction::Quarantine => m.inc(Counter::NpQuarantines),
            SupervisorAction::Zeroize => m.inc(Counter::NpZeroizes),
        }
        Some(action)
    }

    /// Remembers one settled packet in the forensic ring (no-op when the
    /// window is zero).
    fn note_forensic(&mut self, at: u64, outcome: &PacketOutcome, window: usize) {
        if window == 0 {
            return;
        }
        while self.forensics.len() >= window {
            self.forensics.pop_front();
        }
        self.forensics.push_back(ForensicEntry {
            at,
            halt: halt_label(&outcome.halt),
            steps: outcome.steps,
        });
    }

    /// Drains the forensic ring into `supervisor.forensic` events — the
    /// pre-detection window, oldest first, all stamped with the escalating
    /// packet's clock (their own ordinals ride in the `at` field, so the
    /// clock-sorted merge keeps the flush contiguous at every shard
    /// count).
    fn flush_forensics(&mut self, clock: u64, core: usize, events: &mut Vec<Event>) {
        for (index, entry) in self.forensics.drain(..).enumerate() {
            events.push(
                Event::new("supervisor.forensic", clock)
                    .field("core", core)
                    .field("window_index", index)
                    .field("at", entry.at)
                    .field("halt", entry.halt)
                    .field("steps", entry.steps),
            );
        }
    }

    /// Per-packet causal record for trace-enabled runs. Sampled flows
    /// emit `span.dispatch` + `span.verify` directly (and `span.respond`
    /// when the supervisor escalates past plain recovery); unsampled
    /// flows are remembered in the bounded flight ring and retroactively
    /// promoted to `supervisor.flight` events — stamped at the detection
    /// clock, own ordinals riding in `at`, mirroring the forensic flush —
    /// the moment the monitor flags the flow or the supervisor escalates
    /// on it. Sampling, ids, and ring contents are pure functions of
    /// `(seed, flow, packet ordinal)`, so the emitted spans are identical
    /// at every shard count.
    #[allow(clippy::too_many_arguments)]
    fn note_trace(
        &mut self,
        tc: &TraceContext,
        packet: &[u8],
        clock: u64,
        core: usize,
        qpos: u64,
        outcome: &PacketOutcome,
        action: Option<SupervisorAction>,
        events: &mut Vec<Event>,
    ) {
        let flow = flow_hash(packet);
        let trace_id = tc.trace_id(flow);
        let halt = halt_label(&outcome.halt);
        let escalated = action.is_some_and(|a| a > SupervisorAction::Recover);
        let m = metrics();
        if tc.sampled(flow) {
            m.add(Counter::TraceSpans, 2);
            events.push(
                Event::new(trace::KIND_SPAN_DISPATCH, clock)
                    .field("trace", trace_id)
                    .field("core", core)
                    .field("qpos", qpos),
            );
            events.push(
                Event::new(trace::KIND_SPAN_VERIFY, clock)
                    .field("trace", trace_id)
                    .field("core", core)
                    .field("steps", outcome.steps)
                    .field("blocks", outcome.steps / RETIRE_BLOCK as u64)
                    .field("halt", halt),
            );
        } else {
            while self.flight.len() >= TraceContext::DEFAULT_FLIGHT_WINDOW {
                self.flight.pop_front();
            }
            self.flight.push_back(FlightRecord {
                at: clock,
                flow,
                delay: qpos,
                steps: outcome.steps,
                halt,
            });
            if !outcome.halt.is_clean() || escalated {
                // Promote the flagged flow's remembered packets
                // (including this one) out of the ring.
                m.inc(Counter::TraceFlightPromotions);
                let mut promoted: Vec<FlightRecord> = Vec::new();
                self.flight.retain(|r| {
                    if r.flow == flow {
                        promoted.push(*r);
                        false
                    } else {
                        true
                    }
                });
                for (index, r) in promoted.iter().enumerate() {
                    events.push(
                        Event::new(trace::KIND_FLIGHT, clock)
                            .field("trace", trace_id)
                            .field("core", core)
                            .field("flow", r.flow)
                            .field("window_index", index)
                            .field("at", r.at)
                            .field("delay", r.delay)
                            .field("steps", r.steps)
                            .field("halt", r.halt),
                    );
                }
            }
        }
        if escalated {
            let action = action.expect("escalated implies an action");
            m.inc(Counter::TraceSpans);
            events.push(
                Event::new(trace::KIND_SPAN_RESPOND, clock)
                    .field("trace", trace_id)
                    .field("core", core)
                    .field("action", action.name())
                    .field("level", self.health.threat.name()),
            );
        }
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("core", &self.core)
            .field("observer", &"<dyn ExecutionObserver>")
            .finish()
    }
}

/// A multiprocessor network processor, as in the paper's MPSoC model.
///
/// # Examples
///
/// ```
/// use sdmmon_npu::{np::NetworkProcessor, programs, runtime::Verdict};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = programs::ipv4_forward()?;
/// let mut np = NetworkProcessor::new(4);
/// np.install_all(&program.to_bytes(), program.base, |_core| {
///     Box::new(sdmmon_npu::cpu::NullObserver)
/// });
/// let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 5], 64, b"x");
/// let (core_id, outcome) = np.process(&packet);
/// assert_eq!(core_id, 0);
/// assert_eq!(outcome.verdict, Verdict::Forward(5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkProcessor {
    slots: Vec<Slot>,
    next: usize,
    stats: NpStats,
    policy: SupervisorPolicy,
    /// Desired batch-engine shard count (clamped to the core count at
    /// dispatch time). Shard 0 executes inline on the caller thread.
    shards: usize,
    /// Persistent workers for shards 1 and up (`shards - 1` threads),
    /// spawned lazily at the first multi-shard batch and kept across
    /// batches, since spawning per batch cost more than it saved. `None`
    /// until then, or while `shards == 1`.
    pool: Option<WorkerPool>,
    /// Optional structured-event sink (see [`sdmmon_obs::EventBus`]).
    /// `None` — the default — is the no-op sink: no event is constructed
    /// anywhere on the packet path.
    bus: Option<Arc<EventBus>>,
    /// Optional causal span/trace context (see [`sdmmon_obs::trace`]).
    /// Only consulted while a bus is attached.
    trace: Option<TraceContext>,
    /// Latched when any core receives a zeroize order (threat Critical):
    /// the control-plane signal that the NP should be pulled from service.
    /// Dispatch itself keeps working on the surviving cores — honoring the
    /// lockdown is the caller's decision — and an operator re-install of
    /// the zeroized core clears it.
    lockdown: bool,
}

/// Builds the event for one supervisor escalation. Plain recoveries
/// (strikes) are metrics-only — they fire on every unclean halt and would
/// swamp the stream; the *transitions* (graded responses and ladder steps)
/// are the events. Every event carries the threat level and score that
/// drove it (`level` is `none` when the structural ladder escalated on its
/// own).
fn supervisor_event(
    action: SupervisorAction,
    clock: u64,
    core: usize,
    health: &CoreHealth,
) -> Option<Event> {
    let kind = match action {
        SupervisorAction::Recover => return None,
        SupervisorAction::Alert => "supervisor.alert",
        SupervisorAction::Throttle => "supervisor.throttle",
        SupervisorAction::Redeploy => "supervisor.redeploy",
        SupervisorAction::Quarantine => "supervisor.quarantine",
        SupervisorAction::Zeroize => "supervisor.zeroize",
    };
    Some(
        Event::new(kind, clock)
            .field("core", core)
            .field("redeploys", health.redeploys)
            .field("unclean_halts", health.unclean_halts)
            .field("level", health.threat.name())
            .field("score", health.threat_score()),
    )
}

impl NetworkProcessor {
    /// Creates an NP with `cores` unprogrammed cores, null observers, and
    /// the paper's original reset-only recovery
    /// ([`SupervisorPolicy::never`] — no redeploy, no quarantine). Use
    /// [`NetworkProcessor::with_policy`] to enable the escalation ladder.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> NetworkProcessor {
        NetworkProcessor::with_policy(cores, SupervisorPolicy::never())
    }

    /// Creates an NP whose recovery escalates per `policy` (see
    /// [`crate::supervisor`]).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_policy(cores: usize, policy: SupervisorPolicy) -> NetworkProcessor {
        assert!(cores > 0, "a network processor needs at least one core");
        let slots = (0..cores)
            .map(|_| Slot {
                core: Core::new(),
                observer: Box::new(NullObserver) as Box<dyn ExecutionObserver + Send>,
                health: CoreHealth::default(),
                forensics: VecDeque::new(),
                flight: VecDeque::new(),
            })
            .collect();
        NetworkProcessor {
            slots,
            next: 0,
            stats: NpStats::default(),
            policy,
            shards: default_shards(cores),
            pool: None,
            bus: None,
            trace: None,
            lockdown: false,
        }
    }

    /// Attaches (or detaches, with `None`) a structured-event sink. Events
    /// carry the NP's packet ordinal as their logical clock; on the batch
    /// paths they are buffered per shard and merged in packet order, so
    /// the stream is byte-identical per workload for *any* shard count.
    pub fn set_event_bus(&mut self, bus: Option<Arc<EventBus>>) {
        self.bus = bus;
    }

    /// Attaches (or detaches, with `None`) the deterministic span/trace
    /// layer. Spans are emitted only while an event bus is attached;
    /// sampling and id derivation are pure functions of `(seed, flow)` —
    /// see [`TraceContext`] — so the span stream is byte-identical at any
    /// shard count and across the sharded / serial-oracle paths.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.slots.len()
    }

    /// The supervisor policy in force.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Replaces the supervisor policy. Existing per-core ledgers stand —
    /// the new thresholds apply from the next packet on.
    pub fn set_policy(&mut self, policy: SupervisorPolicy) {
        self.policy = policy;
    }

    /// The supervisor ledger of one core.
    pub fn core_health(&self, index: usize) -> CoreHealth {
        self.slots[index].health
    }

    /// Whether a core is quarantined out of dispatch.
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.slots[index].health.quarantined
    }

    /// Whether a core's dispatch share is currently halved by the graded
    /// supervisor.
    pub fn is_throttled(&self, index: usize) -> bool {
        self.slots[index].health.throttled
    }

    /// Whether the NP is in lockdown: some core's threat reached Critical
    /// and its key-zeroize order was issued. Dispatch keeps degraded
    /// service on the surviving cores; pulling the NP from the data plane
    /// is the caller's (fleet controller's) decision.
    pub fn is_locked_down(&self) -> bool {
        self.lockdown
    }

    /// Drains outstanding zeroize orders: core indices whose threat
    /// reached Critical since the last call. The control plane
    /// (`RouterDevice` in `sdmmon-core`, after every packet it dispatches)
    /// destroys each core's wrapped key material and calls
    /// [`NetworkProcessor::decommission`]; each order is returned once.
    pub fn take_zeroize_orders(&mut self) -> Vec<usize> {
        let mut orders = Vec::new();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.health.zeroize_ordered && !slot.health.zeroize_taken {
                slot.health.zeroize_taken = true;
                orders.push(index);
            }
        }
        orders
    }

    /// Wipes a zeroized core down to an unprogrammed state: fresh core,
    /// null observer, forensic and flight rings cleared. The supervisor
    /// ledger stands (still quarantined, zeroize on record) so the core
    /// stays out of dispatch until an operator re-installs a bundle on it.
    pub fn decommission(&mut self, core: usize) {
        let slot = &mut self.slots[core];
        slot.core = Core::new();
        slot.observer = Box::new(NullObserver);
        slot.forensics.clear();
        slot.flight.clear();
        slot.health.quarantined = true;
    }

    /// Indices of the cores still in dispatch (not quarantined), in order.
    pub fn active_cores(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.health.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Quarantines a core by operator decree (the harness hook; the
    /// supervisor normally quarantines through the ladder). Reversed by
    /// installing a bundle on the core.
    pub fn quarantine_core(&mut self, index: usize) {
        self.slots[index].health.quarantined = true;
    }

    /// Installs a program and observer on one core (what the SDMMon control
    /// processor does after verifying a package for that core). Installing
    /// rehabilitates the core: its supervisor ledger — strikes, redeploys,
    /// quarantine — is wiped, its forensic and flight rings forget packets
    /// that ran on the replaced image, and it rejoins dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn install(
        &mut self,
        core: usize,
        image: &[u8],
        base: u32,
        observer: Box<dyn ExecutionObserver + Send>,
    ) {
        let slot = &mut self.slots[core];
        slot.core.install(image, base);
        slot.observer = observer;
        slot.health.reinstated();
        slot.forensics.clear();
        slot.flight.clear();
        // Lockdown lifts once no core has an outstanding zeroize on
        // record — the operator vouched for the re-installed core.
        self.lockdown = self.slots.iter().any(|s| s.health.zeroize_ordered);
    }

    /// Installs the same program on every core, with a per-core observer
    /// built by `make_observer` (each core gets its *own* monitor instance,
    /// and — in the SDMMon design — its own hash parameter).
    pub fn install_all(
        &mut self,
        image: &[u8],
        base: u32,
        mut make_observer: impl FnMut(usize) -> Box<dyn ExecutionObserver + Send>,
    ) {
        for i in 0..self.slots.len() {
            self.install(i, image, base, make_observer(i));
        }
    }

    /// Immutable access to a core (for inspection in tests/benches).
    pub fn core(&self, index: usize) -> &Core {
        &self.slots[index].core
    }

    /// Mutable access to a core — the hook the fault-injection harness
    /// uses to corrupt instruction memory of a live core.
    pub fn core_mut(&mut self, index: usize) -> &mut Core {
        &mut self.slots[index].core
    }

    /// Forces a recovery reset of one core outside the normal violation
    /// path (models an operator-commanded or fault-injected mid-run reset).
    /// Counted in [`NpStats::recoveries`] and the `np_recoveries` metric
    /// like any other recovery cycle.
    pub fn reset_core(&mut self, index: usize) {
        self.slots[index].core.reset();
        self.stats.recoveries += 1;
        metrics().inc(Counter::NpRecoveries);
    }

    /// Processes one packet on the next round-robin core, applying the
    /// recovery policy on unclean halts. Quarantined cores are skipped
    /// (degraded mode). Returns the core index used and the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the selected core has no program installed, or if every
    /// core is quarantined.
    pub fn process(&mut self, packet: &[u8]) -> (usize, PacketOutcome) {
        let cores = self.slots.len();
        assert!(
            self.slots.iter().any(|s| !s.health.quarantined),
            "all cores quarantined: the NP cannot dispatch"
        );
        let mut index = self.next;
        while self.slots[index].health.quarantined {
            index = (index + 1) % cores;
        }
        self.next = (index + 1) % cores;
        let outcome = self.process_on(index, packet);
        (index, outcome)
    }

    /// Processes a packet on the core its *flow* hashes to, so packets of
    /// one conversation share a core (and its per-core state, e.g. the
    /// CM counters) — the dispatch real NPs use to keep flow affinity.
    ///
    /// The flow key is (src, dst, protocol) plus the first payload word
    /// (the L4 ports for UDP/TCP) when present; non-IPv4 runts hash over
    /// their raw bytes. The hash maps into the weighted dispatch table
    /// over the *active* (non-quarantined) cores — a throttled core holds
    /// half the slots of a healthy one. With nothing quarantined or
    /// throttled the table collapses to one slot per core, identical to
    /// hashing over all cores; in degraded mode flows of a quarantined
    /// core redistribute over the survivors.
    ///
    /// # Panics
    ///
    /// Panics if the selected core has no program installed, or if every
    /// core is quarantined.
    pub fn process_flow(&mut self, packet: &[u8]) -> (usize, PacketOutcome) {
        let index = self.core_for(packet);
        (index, self.process_on(index, packet))
    }

    /// The weighted flow-dispatch slot table over the active cores:
    /// healthy cores weigh 2, throttled cores 1 (half the share). Uniform
    /// weights collapse to one slot per core — bit-identical to the
    /// pre-graded `active[hash % active.len()]` mapping.
    fn dispatch_table(&self) -> Vec<usize> {
        let weighted: Vec<(usize, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.health.quarantined)
            .map(|(i, s)| (i, if s.health.throttled { 1 } else { 2 }))
            .collect();
        assert!(
            !weighted.is_empty(),
            "all cores quarantined: the NP cannot dispatch"
        );
        dispatch_slots(&weighted)
    }

    /// The core `packet`'s flow currently dispatches to (the exact mapping
    /// of [`NetworkProcessor::process_flow`] and the batch partition,
    /// against current core health). Public so harnesses modelling
    /// per-core capacity (the frontier sweep) can reproduce the engine's
    /// packet→core assignment without dispatching.
    ///
    /// # Panics
    ///
    /// Panics if every core is quarantined.
    pub fn core_for(&self, packet: &[u8]) -> usize {
        let table = self.dispatch_table();
        table[(flow_hash(packet) % table.len() as u64) as usize]
    }

    /// Processes one packet on a specific core (flow-pinned dispatch).
    /// This is the explicit-pin escape hatch: it dispatches even to a
    /// quarantined core (tests and the fault harness use it to poke
    /// specific cores); the quarantine-respecting paths are
    /// [`NetworkProcessor::process`], [`NetworkProcessor::process_flow`],
    /// and [`NetworkProcessor::process_batch`].
    ///
    /// Runs on the reference dispatch path and emits no trace spans: the
    /// span stream belongs to the batch and stream engines.
    pub fn process_on(&mut self, index: usize, packet: &[u8]) -> PacketOutcome {
        let pass = self.pass(DispatchPath::Reference, None);
        let mut events = Vec::new();
        let (outcome, action) = self.slots[index].step(&pass, index, 0, 0, packet, &mut events);
        self.stats.record(&outcome);
        if let Some(bus) = self.bus.as_ref().filter(|_| !events.is_empty()) {
            bus.extend(events);
        }
        if action == Some(SupervisorAction::Zeroize) {
            self.latch_lockdown(pass.base_clock);
        }
        outcome
    }

    /// The context of a pass starting at the NP's current clock. `trace`
    /// applies only while a bus is attached.
    fn pass(&self, path: DispatchPath, trace: Option<TraceContext>) -> Pass {
        let record_events = self.bus.is_some();
        Pass {
            policy: self.policy,
            base_clock: self.stats.processed,
            record_events,
            trace: trace.filter(|_| record_events),
            path,
        }
    }

    /// Latches NP lockdown (once) and emits the `supervisor.lockdown`
    /// event.
    fn latch_lockdown(&mut self, clock: u64) {
        if self.lockdown {
            return;
        }
        self.lockdown = true;
        metrics().inc(Counter::NpLockdowns);
        if let Some(bus) = &self.bus {
            let zeroized = self
                .slots
                .iter()
                .filter(|s| s.health.zeroize_ordered)
                .count();
            bus.record(Event::new("supervisor.lockdown", clock).field("cores_zeroized", zeroized));
        }
    }

    /// The batch engine's shard count (see
    /// [`NetworkProcessor::set_shards`]).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Sets the batch-engine shard count. Each shard owns a disjoint,
    /// contiguous block of cores and runs their queues on one thread: shard
    /// 0 on the caller, shards 1 and up on `shards - 1` persistent pool
    /// workers, so one shard means the batch runs entirely on the caller.
    /// The count is clamped to `[1, num_cores]` at dispatch time.
    ///
    /// Shard count is a *throughput* knob only: packet→core assignment is
    /// the flow mapping of [`NetworkProcessor::process_flow`] regardless of
    /// `shards`, so outcomes and statistics are byte-identical for every
    /// shard count (and to [`NetworkProcessor::process_batch_serial`]).
    pub fn set_shards(&mut self, shards: usize) {
        assert!(shards > 0, "at least one shard");
        if shards != self.shards {
            self.shards = shards;
            // Tear the pool down now; the next batch respawns at the new
            // width. (Dropping joins the workers.)
            self.pool = None;
        }
    }

    /// Partitions `packets` into per-core queues by flow affinity — the
    /// exact mapping of [`NetworkProcessor::process_flow`], applied against
    /// the active-core set at entry. Queue order preserves input order, so
    /// per-flow order is preserved (a flow never changes cores mid-batch).
    fn partition(&self, packets: &[Vec<u8>]) -> Vec<Vec<usize>> {
        let table = self.dispatch_table();
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (i, packet) in packets.iter().enumerate() {
            queues[table[(flow_hash(packet) % table.len() as u64) as usize]].push(i);
        }
        queues
    }

    /// Folds each active core's queue depth at batch entry into its
    /// baseline (the third graded-supervisor signal). Runs on the dispatch
    /// thread before any core executes, so the baselines are identical at
    /// every shard count.
    fn note_queue_depths(&mut self, queues: &[Vec<usize>]) {
        let policy = self.policy;
        if !policy.adaptive.enabled {
            return;
        }
        for (core, queue) in queues.iter().enumerate() {
            let health = &mut self.slots[core].health;
            if !health.quarantined {
                health.note_queue_depth(queue.len() as u64, &policy);
            }
        }
    }

    /// Processes a batch of packets on the sharded data-plane engine.
    ///
    /// Packets are partitioned by flow (same mapping as
    /// [`NetworkProcessor::process_flow`]), the cores are split into
    /// [`NetworkProcessor::shards`] disjoint contiguous shards (the static
    /// [`shard_of`] owner plan), and each shard works through its cores'
    /// queues on a persistent worker thread (spawned once, reused across
    /// batches, joined on drop — see [`crate::engine`]). Outcomes merge
    /// back into input order and [`NpStats`] is folded on the caller after
    /// the batch barrier.
    ///
    /// Because flow→core assignment is independent of the shard count and
    /// each core's queue runs in input order on exactly one worker,
    /// outcomes and statistics are byte-identical to
    /// [`NetworkProcessor::process_batch_serial`] — and to calling
    /// `process_flow` on each packet in turn when core health does not
    /// change mid-batch — for any seed and any shard count. Only the wall
    /// clock differs: shard workers dispatch whole packets through
    /// [`ExecutionObserver::run_packet`], the monomorphized per-packet
    /// fast path.
    ///
    /// Packets are partitioned against the active-core set *at entry*: a
    /// core the supervisor quarantines mid-batch still finishes its share
    /// (quarantine gates dispatch, not execution, and degrades only the
    /// owning shard) and drops out of the next batch's partitioning.
    ///
    /// # Panics
    ///
    /// Panics if a selected core has no program installed, or if every
    /// core is quarantined.
    pub fn process_batch(&mut self, packets: &[Vec<u8>]) -> Vec<(usize, PacketOutcome)> {
        let queues = self.partition(packets);
        let cores = self.slots.len();
        let shards = self.shards.clamp(1, cores);
        self.note_queue_depths(&queues);
        self.record_batch_telemetry(packets.len(), &queues, shards);
        let owner: Vec<usize> = (0..cores).map(|c| shard_of(c, cores, shards)).collect();
        let merged = self.execute(packets, &queues, &owner, shards, DispatchPath::Fused);
        self.finish_batch();
        merged
    }

    /// The serial oracle for [`NetworkProcessor::process_batch`]: identical
    /// partition-at-entry semantics, executed entirely on the caller thread
    /// through the reference per-instruction dispatch path (one virtual
    /// `observe` call per retired instruction, no worker pool, no fused
    /// fast path). The determinism tests and the `sharded_engine` testkit
    /// differential pin `process_batch` to this function byte-for-byte.
    ///
    /// # Panics
    ///
    /// Same contract as [`NetworkProcessor::process_batch`].
    pub fn process_batch_serial(&mut self, packets: &[Vec<u8>]) -> Vec<(usize, PacketOutcome)> {
        let queues = self.partition(packets);
        self.note_queue_depths(&queues);
        let merged = self.execute(packets, &queues, &[], 1, DispatchPath::Reference);
        self.finish_batch();
        merged
    }

    /// The one data-plane executor behind every batch and stream round.
    ///
    /// Runs each core's queue of indices into `packets` on the worker
    /// `owner[core]` names: ascending core order within a worker and each
    /// queue in input order, so no slot is touched by two workers and
    /// per-flow order holds. One worker (or an empty pass) runs inline on
    /// the caller and ignores `owner`. With more, the caller runs worker
    /// 0's group itself while the persistent [`WorkerPool`] runs groups 1
    /// and up, each slot handed over by `&mut` borrow; the pool has
    /// `workers - 1` threads and every group finishes before this returns.
    ///
    /// Worker event buffers merge by a stable sort on the packet clock — a
    /// packet's events are contiguous in its worker's buffer and clocks are
    /// unique per packet — and outcomes merge by input index, so the
    /// result, the event stream, and the [`NpStats`] folded here are the
    /// same for every owner plan and worker count.
    fn execute(
        &mut self,
        packets: &[Vec<u8>],
        queues: &[Vec<usize>],
        owner: &[usize],
        workers: usize,
        path: DispatchPath,
    ) -> Vec<(usize, PacketOutcome)> {
        let pass = self.pass(path, self.trace);
        let workers = if packets.is_empty() { 1 } else { workers };
        if workers > 1 && self.pool.as_ref().is_none_or(|p| p.len() != workers - 1) {
            self.pool = Some(WorkerPool::new(workers - 1));
        }
        let mut groups: Vec<Vec<(usize, &mut Slot)>> = (0..workers).map(|_| Vec::new()).collect();
        for (core, slot) in self.slots.iter_mut().enumerate() {
            groups[if workers == 1 { 0 } else { owner[core] }].push((core, slot));
        }
        // One output buffer per worker, pre-sized by its queue load; input
        // indices are globally unique, so the merge below cannot depend on
        // which worker ran which core.
        let mut outs: Vec<Vec<(usize, usize, PacketOutcome)>> = groups
            .iter()
            .map(|group| Vec::with_capacity(group.iter().map(|(c, _)| queues[*c].len()).sum()))
            .collect();
        let mut buffers: Vec<Vec<Event>> = (0..workers).map(|_| Vec::new()).collect();
        let run = |group: &mut Vec<(usize, &mut Slot)>,
                   out: &mut Vec<(usize, usize, PacketOutcome)>,
                   events: &mut Vec<Event>| {
            for (core, slot) in group.iter_mut() {
                for (qpos, &i) in queues[*core].iter().enumerate() {
                    let (outcome, _) = slot.step(&pass, *core, qpos, i, &packets[i], events);
                    out.push((i, *core, outcome));
                }
            }
        };
        let mut work = groups
            .iter_mut()
            .zip(outs.iter_mut().zip(buffers.iter_mut()));
        let (group, (out, events)) = work.next().expect("at least one worker");
        if workers == 1 {
            run(group, out, events);
        } else {
            let run = &run;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = work
                .map(|(group, (out, events))| {
                    Box::new(move || run(group, out, events)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool
                .as_ref()
                .expect("pool just ensured")
                .run_batch_with(jobs, || run(group, out, events));
        }
        if let Some(bus) = &self.bus {
            let mut events: Vec<Event> = buffers.into_iter().flatten().collect();
            events.sort_by_key(|e| e.clock);
            bus.extend(events);
        }
        let mut merged: Vec<Option<(usize, PacketOutcome)>> = vec![None; packets.len()];
        for (i, core, outcome) in outs.into_iter().flatten() {
            merged[i] = Some((core, outcome));
        }
        merged
            .into_iter()
            .map(|m| {
                let (core, outcome) = m.expect("every packet was dispatched");
                self.stats.record(&outcome);
                (core, outcome)
            })
            .collect()
    }

    /// Records the per-batch gauges (shard queue depths, imbalance) and —
    /// when a bus is attached — one `np.batch` event. Shared by
    /// [`NetworkProcessor::process_batch`] and
    /// [`NetworkProcessor::process_stream`]; the serial oracles skip it.
    fn record_batch_telemetry(&self, packets: usize, queues: &[Vec<usize>], shards: usize) {
        let m = metrics();
        m.inc(Counter::NpBatches);
        m.set_gauge(Gauge::BatchShards, shards as u64);
        m.set_gauge(Gauge::BatchPackets, packets as u64);
        let spans = shard_spans(self.slots.len(), shards);
        let mut min_load = u64::MAX;
        let mut max_load = 0u64;
        for (shard, span) in spans.iter().enumerate() {
            let load: u64 = queues[span.start..span.end]
                .iter()
                .map(|q| q.len() as u64)
                .sum();
            m.set_shard_depth(shard, load);
            min_load = min_load.min(load);
            max_load = max_load.max(load);
        }
        let imbalance = max_load.saturating_sub(min_load);
        m.set_gauge(Gauge::ShardImbalance, imbalance);
        if let Some(bus) = &self.bus {
            bus.record(
                Event::new("np.batch", self.stats.processed)
                    .field("shards", shards)
                    .field("packets", packets)
                    .field("imbalance", imbalance),
            );
        }
    }

    /// Batch epilogue, shared by the sharded, inline, and serial paths and
    /// always run on the caller thread: ticks the per-core parole clocks
    /// (in core-index order, so the emitted `supervisor.parole` events are
    /// independent of the shard count) and latches fleet lockdown if any
    /// core was ordered zeroized during the batch. The parole/lockdown
    /// clock is the post-batch processed count, which is identical for
    /// every shard count.
    fn finish_batch(&mut self) {
        let policy = self.policy;
        let clock = self.stats.processed;
        let mut events: Vec<Event> = Vec::new();
        let record_events = self.bus.is_some();
        for (core_index, slot) in self.slots.iter_mut().enumerate() {
            let Some(parole) = slot.health.note_batch_end(&policy) else {
                continue;
            };
            metrics().inc(Counter::NpParoles);
            if record_events {
                let restored = match parole {
                    Parole::Dispatch => "dispatch",
                    Parole::Full => "full",
                };
                events.push(
                    Event::new("supervisor.parole", clock)
                        .field("core", core_index)
                        .field("restored", restored)
                        .field("level", slot.health.threat.name()),
                );
            }
        }
        if let Some(bus) = &self.bus {
            bus.extend(events);
        }
        if self.slots.iter().any(|s| s.health.zeroize_ordered) {
            self.latch_lockdown(clock);
        }
    }

    /// Aggregate statistics. Redeploy and quarantine counts are derived
    /// from the per-core supervisor ledgers at call time.
    pub fn stats(&self) -> NpStats {
        let mut s = self.stats;
        s.redeploys = self.slots.iter().map(|sl| sl.health.redeploys as u64).sum();
        s.quarantined_cores = self.slots.iter().filter(|sl| sl.health.quarantined).count() as u64;
        s
    }

    /// Admits one round of offered packets through the bounded ingress —
    /// the shared front door of [`NetworkProcessor::process_stream`] and
    /// [`NetworkProcessor::process_stream_serial`], so both paths see the
    /// same admitted subset, the same per-core queues, and the same
    /// backpressure counters. Appends one slot per *offered* packet to
    /// `outcomes` (left `None` for drops) and returns the admitted packets
    /// plus their offer-order positions.
    ///
    /// When a trace context is supplied, sampled flows emit `span.ingest`
    /// and `span.admit` into `events`, stamped with the would-be execution
    /// clock (`base_clock` + position among this round's admissions) so
    /// the admission spans line up with the execution spans of the same
    /// packet. Both stream paths route through here, so the span stream is
    /// shared by construction.
    fn admit_round(
        table: &[usize],
        round: &[Vec<u8>],
        ingress: &mut IngressQueues,
        outcomes: &mut Vec<Option<(usize, PacketOutcome)>>,
        trace: Option<TraceContext>,
        base_clock: u64,
        events: &mut Vec<Event>,
    ) -> (Vec<Vec<u8>>, Vec<usize>) {
        let m = metrics();
        let mut admitted: Vec<Vec<u8>> = Vec::new();
        let mut offer_index: Vec<usize> = Vec::new();
        for packet in round {
            let global = outcomes.len();
            outcomes.push(None);
            m.inc(Counter::StreamOffered);
            let flow = flow_hash(packet);
            let core = table[(flow % table.len() as u64) as usize];
            let span = trace
                .filter(|tc| tc.sampled(flow))
                .map(|tc| tc.trace_id(flow));
            let clock = base_clock + admitted.len() as u64;
            if let Some(trace_id) = span {
                m.inc(Counter::TraceSpans);
                events.push(
                    Event::new(trace::KIND_SPAN_INGEST, clock)
                        .field("trace", trace_id)
                        .field("flow", flow),
                );
            }
            match ingress.offer(core, admitted.len()) {
                Some(delay) => {
                    m.inc(Counter::StreamAdmitted);
                    m.observe(Hist::StreamQueueDelay, delay);
                    if let Some(trace_id) = span {
                        m.inc(Counter::TraceSpans);
                        events.push(
                            Event::new(trace::KIND_SPAN_ADMIT, clock)
                                .field("trace", trace_id)
                                .field("core", core)
                                .field("delay", delay)
                                .field("admitted", true),
                        );
                    }
                    offer_index.push(global);
                    admitted.push(packet.clone());
                }
                None => {
                    m.inc(Counter::StreamDropped);
                    if let Some(trace_id) = span {
                        m.inc(Counter::TraceSpans);
                        events.push(
                            Event::new(trace::KIND_SPAN_ADMIT, clock)
                                .field("trace", trace_id)
                                .field("core", core)
                                .field("delay", 0u64)
                                .field("admitted", false),
                        );
                    }
                }
            }
        }
        (admitted, offer_index)
    }

    /// Processes open-loop rounds on the streaming engine: bounded ingress
    /// admission, then per-round execution with deterministic work stealing
    /// of whole core queues.
    ///
    /// Each round is one arrival burst from an open-loop source. Packets
    /// are routed to their flow's core (the [`NetworkProcessor::process_flow`]
    /// mapping) and admitted while the owning shard has ingress budget —
    /// [`StreamConfig::shard_capacity`] per shard per round; overflow is
    /// dropped and counted, which is where backpressure from an
    /// uncooperative source becomes visible. Admitted queues then run
    /// exactly like [`NetworkProcessor::process_batch`], except that the
    /// owner plan is the round's [`steal_plan`], which re-homes whole core
    /// queues from overloaded shards to underloaded ones. A queue moves
    /// *whole* — a flow is never split across workers — so every core's
    /// queue still runs contiguously in input order on exactly one worker,
    /// and the steal plan is a pure function of queue loads, so the whole
    /// run replays exactly.
    ///
    /// Consequently outcomes, [`NpStats`], and the supervisor event stream
    /// are byte-identical to [`NetworkProcessor::process_stream_serial`]
    /// at the *same shard count* for any seed. (Admission itself depends on
    /// the shard count: per-shard budgets partition differently, so runs at
    /// different shard counts are each pinned to their own serial oracle.)
    ///
    /// Returns one entry per offered packet in offer order — `None` if the
    /// packet was dropped at admission — plus the backpressure accounting.
    ///
    /// # Panics
    ///
    /// Panics if a selected core has no program installed, if every core is
    /// quarantined, or if `cfg.shard_capacity` is zero.
    pub fn process_stream(&mut self, rounds: &[Vec<Vec<u8>>], cfg: &StreamConfig) -> StreamOutcome {
        self.stream(rounds, cfg, DispatchPath::Fused)
    }

    /// The serial oracle for [`NetworkProcessor::process_stream`]: the same
    /// admission loop (same [`IngressQueues`], same per-shard budgets for
    /// the configured shard count), then each round's admitted queues run
    /// inline on the caller through the reference per-instruction dispatch
    /// path — no worker pool, no stealing, no batch telemetry. The
    /// streaming determinism tests pin `process_stream` to this function
    /// byte-for-byte: outcomes, [`NpStats`], and the event stream.
    ///
    /// # Panics
    ///
    /// Same contract as [`NetworkProcessor::process_stream`].
    pub fn process_stream_serial(
        &mut self,
        rounds: &[Vec<Vec<u8>>],
        cfg: &StreamConfig,
    ) -> StreamOutcome {
        self.stream(rounds, cfg, DispatchPath::Reference)
    }

    /// The admission loop both stream entry points share; they differ only
    /// in how a round executes. `Fused` records batch telemetry and runs
    /// the round under its steal plan on the shard workers; `Reference` is
    /// the serial oracle's single inline worker.
    fn stream(
        &mut self,
        rounds: &[Vec<Vec<u8>>],
        cfg: &StreamConfig,
        path: DispatchPath,
    ) -> StreamOutcome {
        let cores = self.slots.len();
        let shards = self.shards.clamp(1, cores);
        let mut ingress = IngressQueues::new(cores, shards, cfg.shard_capacity);
        let mut outcomes: Vec<Option<(usize, PacketOutcome)>> = Vec::new();
        let mut steals_total = 0u64;
        let trace = if self.bus.is_some() { self.trace } else { None };
        for round in rounds {
            ingress.clear_round();
            let table = self.dispatch_table();
            let mut trace_events: Vec<Event> = Vec::new();
            let (admitted, offer_index) = Self::admit_round(
                &table,
                round,
                &mut ingress,
                &mut outcomes,
                trace,
                self.stats.processed,
                &mut trace_events,
            );
            if !trace_events.is_empty() {
                if let Some(bus) = &self.bus {
                    bus.extend(trace_events);
                }
            }
            let queues = ingress.queues();
            self.note_queue_depths(queues);
            let merged = match path {
                DispatchPath::Fused => {
                    self.record_batch_telemetry(admitted.len(), queues, shards);
                    let (owner, steals) = steal_plan(&ingress.loads(), shards);
                    metrics().add(Counter::StreamSteals, steals);
                    steals_total += steals;
                    self.execute(&admitted, queues, &owner, shards, path)
                }
                DispatchPath::Reference => self.execute(&admitted, queues, &[], 1, path),
            };
            self.finish_batch();
            for (local, (core, outcome)) in merged.into_iter().enumerate() {
                outcomes[offer_index[local]] = Some((core, outcome));
            }
        }
        StreamOutcome {
            outcomes,
            report: StreamReport {
                rounds: rounds.len() as u64,
                offered: ingress.offered(),
                admitted: ingress.admitted(),
                dropped: ingress.dropped(),
                steals: steals_total,
            },
        }
    }
}

/// Streaming-engine knobs for [`NetworkProcessor::process_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Packets each shard admits per round; arrivals beyond the budget are
    /// dropped at ingress and counted as backpressure.
    pub shard_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig { shard_capacity: 64 }
    }
}

/// Backpressure and stealing accounting for one streaming run. The
/// admission identity `offered == admitted + dropped` holds by
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Arrival rounds processed.
    pub rounds: u64,
    /// Packets the open-loop source offered.
    pub offered: u64,
    /// Packets admitted past the bounded ingress.
    pub admitted: u64,
    /// Packets dropped by admission control.
    pub dropped: u64,
    /// Whole core queues re-homed by the steal planner.
    pub steals: u64,
}

/// Result of a streaming run: per-offered-packet outcomes in offer order
/// (`None` where admission dropped the packet) plus the accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// One entry per offered packet: `Some((core, outcome))` if admitted.
    pub outcomes: Vec<Option<(usize, PacketOutcome)>>,
    /// Backpressure + stealing counters for the whole run.
    pub report: StreamReport,
}

/// Default engine shard count for a fresh NP: one worker per available
/// hardware thread, clamped to the core count (never more shards than
/// cores, never zero). On a single-CPU host this is 1 — the batch path
/// runs inline and still gets the fused per-packet dispatch.
fn default_shards(cores: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, cores)
}

/// FNV-1a over the flow key of `packet` (see
/// [`NetworkProcessor::process_flow`]): src + dst + protocol + first L4
/// word for IPv4, raw bytes otherwise. Public so the affinity tests and
/// the bench can reproduce the engine's packet→core mapping.
pub fn flow_hash(packet: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1_0000_0193;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    if packet.len() >= 20 && packet[0] >> 4 == 4 {
        let header_len = ((packet[0] & 0xf) as usize) * 4;
        eat(&packet[12..20]); // src + dst
        eat(&packet[9..10]); // protocol
        if packet.len() >= header_len + 4 {
            eat(&packet[header_len..header_len + 4]); // L4 ports
        }
    } else {
        eat(packet);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{NullObserver, Observation};
    use crate::programs::{self, testing};
    use crate::runtime::Verdict;

    fn loaded_np(cores: usize) -> NetworkProcessor {
        let program = programs::ipv4_forward().unwrap();
        let mut np = NetworkProcessor::new(cores);
        np.install_all(&program.to_bytes(), program.base, |_| {
            Box::new(NullObserver)
        });
        np
    }

    #[test]
    fn round_robin_dispatch() {
        let mut np = loaded_np(3);
        let packet = testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 2], 64, b"");
        let ids: Vec<usize> = (0..6).map(|_| np.process(&packet).0).collect();
        assert_eq!(ids, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn stats_accumulate() {
        let mut np = loaded_np(2);
        let fwd = testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 2], 64, b"");
        let drop = testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 16], 64, b""); // route 0
        np.process(&fwd);
        np.process(&fwd);
        np.process(&drop);
        let s = np.stats();
        assert_eq!(s.processed, 3);
        assert_eq!(s.forwarded, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.recoveries, 0);
    }

    #[test]
    fn violation_triggers_recovery() {
        struct TripAfter(u64);
        impl ExecutionObserver for TripAfter {
            fn begin(&mut self, _e: u32) {}
            fn observe(&mut self, _pc: u32, _w: u32) -> Observation {
                if self.0 == 0 {
                    Observation::Violation
                } else {
                    self.0 -= 1;
                    Observation::Continue
                }
            }
        }
        let program = programs::ipv4_forward().unwrap();
        let mut np = NetworkProcessor::new(1);
        np.install(
            0,
            &program.to_bytes(),
            program.base,
            Box::new(TripAfter(10)),
        );
        let packet = testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 2], 64, b"");
        let (_, out) = np.process(&packet);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(out.verdict, Verdict::Drop);
        let s = np.stats();
        assert_eq!(s.violations, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn recovery_restores_service() {
        // A hijacked vulnerable core keeps serving good packets correctly
        // after reset.
        let program = programs::vulnerable_forward().unwrap();
        let mut np = NetworkProcessor::new(1);
        np.install_all(&program.to_bytes(), program.base, |_| {
            Box::new(NullObserver)
        });
        // Attack that corrupts the in-memory route table, then halts.
        let table = program.symbol("route_table").unwrap();
        let attack = testing::hijack_packet(&format!(
            "li $t4, 0x{:x}
             li $t5, 15
             sw $t5, 8($t4)      # route_table[2] = 15
             break 0",
            table
        ))
        .unwrap();
        let good = testing::ipv4_packet([1, 1, 1, 1], [10, 0, 0, 2], 64, b"");

        // Without detection the corruption persists (no monitor => no
        // recovery): subsequent packets misroute.
        np.process(&attack);
        let (_, out) = np.process(&good);
        assert_eq!(
            out.verdict,
            Verdict::Forward(15),
            "attack silently redirected traffic"
        );

        // A manual reset (what the monitor path automates) restores routing.
        np.slots[0].core.reset();
        let (_, out) = np.process(&good);
        assert_eq!(out.verdict, Verdict::Forward(2));
    }

    #[test]
    fn flow_dispatch_is_sticky_and_spreads() {
        let mut np = loaded_np(4);
        // Same flow always lands on the same core.
        let flow = testing::ipv4_packet([10, 1, 2, 3], [10, 0, 0, 5], 64, b"\x12\x34\x00\x50");
        let first = np.process_flow(&flow).0;
        for _ in 0..5 {
            assert_eq!(np.process_flow(&flow).0, first);
        }
        // Many distinct flows reach more than one core.
        let mut cores_hit = std::collections::BTreeSet::new();
        for i in 0..32u8 {
            let p = testing::ipv4_packet([10, 1, i, 3], [10, 0, 0, 5], 64, b"data");
            cores_hit.insert(np.process_flow(&p).0);
        }
        assert!(cores_hit.len() >= 3, "flows all piled on {cores_hit:?}");
        // Non-IPv4 runts are still dispatched somewhere valid.
        let (core, _) = np.process_flow(&[1, 2, 3]);
        assert!(core < 4);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        NetworkProcessor::new(0);
    }

    #[test]
    fn forced_reset_restores_corrupted_core() {
        let mut np = loaded_np(1);
        // Corrupt the text segment through the fault-injection hook.
        let word = np.core(0).memory().load_u32(0).unwrap();
        np.core_mut(0).memory_mut().store_u32(0, word ^ 1).unwrap();
        np.reset_core(0);
        assert_eq!(np.stats().recoveries, 1);
        assert_eq!(np.core(0).memory().load_u32(0).unwrap(), word);
        let packet = testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 2], 64, b"");
        let (_, out) = np.process(&packet);
        assert_eq!(out.verdict, Verdict::Forward(2));
    }

    #[test]
    fn batch_matches_sequential_flow_dispatch() {
        // Mixed traffic — forwards, policy drops, and hijacks that force
        // recoveries — must produce identical outcomes and stats whether
        // processed one at a time or as a parallel batch.
        let program = programs::vulnerable_forward().unwrap();
        let mut batch_np = NetworkProcessor::new(4);
        let mut seq_np = NetworkProcessor::new(4);
        for np in [&mut batch_np, &mut seq_np] {
            np.install_all(&program.to_bytes(), program.base, |_| {
                Box::new(NullObserver)
            });
        }

        let attack = testing::hijack_packet("li $t5, 15\nbreak 1").unwrap();
        let mut packets: Vec<Vec<u8>> = Vec::new();
        for i in 0..40u8 {
            packets.push(testing::ipv4_packet(
                [10, 1, i, 1],
                [10, 0, 0, 1 + i % 15],
                64,
                b"payload",
            ));
            if i % 10 == 3 {
                packets.push(attack.clone());
            }
        }

        let batched = batch_np.process_batch(&packets);
        let sequential: Vec<(usize, PacketOutcome)> =
            packets.iter().map(|p| seq_np.process_flow(p)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(batch_np.stats(), seq_np.stats());
        assert!(
            batch_np.stats().recoveries > 0,
            "the hijack packets must exercise recovery"
        );
    }

    fn loaded_supervised_np(cores: usize, policy: SupervisorPolicy) -> NetworkProcessor {
        let program = programs::vulnerable_forward().unwrap();
        let mut np = NetworkProcessor::with_policy(cores, policy);
        np.install_all(&program.to_bytes(), program.base, |_| {
            Box::new(NullObserver)
        });
        np
    }

    #[test]
    fn supervisor_escalates_to_quarantine_and_dispatch_skips_it() {
        let policy = SupervisorPolicy::ladder(2, 2);
        let mut np = loaded_supervised_np(3, policy);
        let attack = testing::hijack_packet("break 1").unwrap();
        // Hammer core 1 through the explicit pin until the ladder tops out:
        // 2 strikes -> redeploy, 2 more -> quarantine.
        for _ in 0..4 {
            np.process_on(1, &attack);
        }
        assert!(np.is_quarantined(1));
        assert_eq!(np.core_health(1).redeploys, 2);
        assert_eq!(np.active_cores(), vec![0, 2]);
        let s = np.stats();
        assert_eq!(s.redeploys, 2);
        assert_eq!(s.quarantined_cores, 1);
        assert_eq!(s.recoveries, 4, "every unclean halt still recovers");

        // Degraded round robin never lands on the quarantined core.
        let good = testing::ipv4_packet([1, 1, 1, 1], [10, 0, 0, 2], 64, b"");
        let ids: Vec<usize> = (0..6).map(|_| np.process(&good).0).collect();
        assert_eq!(ids, [0, 2, 0, 2, 0, 2]);

        // Degraded flow dispatch redistributes over the survivors.
        for i in 0..32u8 {
            let p = testing::ipv4_packet([10, 1, i, 3], [10, 0, 0, 5], 64, b"data");
            let (core, _) = np.process_flow(&p);
            assert_ne!(core, 1, "flow {i} reached a quarantined core");
        }
    }

    #[test]
    fn clean_traffic_holds_off_the_ladder() {
        let policy = SupervisorPolicy::ladder(2, 1);
        let mut np = loaded_supervised_np(1, policy);
        let attack = testing::hijack_packet("break 1").unwrap();
        let good = testing::ipv4_packet([1, 1, 1, 1], [10, 0, 0, 2], 64, b"");
        // Alternating bad/good never reaches two *consecutive* strikes.
        for _ in 0..8 {
            np.process(&attack);
            np.process(&good);
        }
        assert!(!np.is_quarantined(0));
        assert_eq!(np.stats().redeploys, 0);
        assert_eq!(np.stats().recoveries, 8);
    }

    #[test]
    fn reinstall_rehabilitates_a_quarantined_core() {
        let policy = SupervisorPolicy::ladder(1, 1);
        let mut np = loaded_supervised_np(2, policy);
        let attack = testing::hijack_packet("break 1").unwrap();
        np.process_on(0, &attack);
        assert!(np.is_quarantined(0));
        assert_eq!(np.active_cores(), vec![1]);

        let program = programs::vulnerable_forward().unwrap();
        np.install(0, &program.to_bytes(), program.base, Box::new(NullObserver));
        assert!(!np.is_quarantined(0));
        assert_eq!(np.core_health(0), crate::supervisor::CoreHealth::default());
        assert_eq!(np.active_cores(), vec![0, 1]);
        assert_eq!(np.stats().quarantined_cores, 0);
        let good = testing::ipv4_packet([1, 1, 1, 1], [10, 0, 0, 2], 64, b"");
        assert_eq!(np.process(&good).0, 0, "round robin includes it again");
    }

    #[test]
    fn batch_matches_sequential_under_quarantine() {
        let program = programs::vulnerable_forward().unwrap();
        let mut batch_np = NetworkProcessor::new(4);
        let mut seq_np = NetworkProcessor::new(4);
        for np in [&mut batch_np, &mut seq_np] {
            np.install_all(&program.to_bytes(), program.base, |_| {
                Box::new(NullObserver)
            });
            np.quarantine_core(2);
        }
        let packets: Vec<Vec<u8>> = (0..40u8)
            .map(|i| testing::ipv4_packet([10, 1, i, 1], [10, 0, 0, 1 + i % 15], 64, b"x"))
            .collect();
        let batched = batch_np.process_batch(&packets);
        let sequential: Vec<(usize, PacketOutcome)> =
            packets.iter().map(|p| seq_np.process_flow(p)).collect();
        assert_eq!(batched, sequential);
        assert!(batched.iter().all(|&(core, _)| core != 2));
        assert_eq!(batch_np.stats(), seq_np.stats());
    }

    #[test]
    #[should_panic(expected = "all cores quarantined")]
    fn fully_quarantined_np_refuses_dispatch() {
        let mut np = loaded_np(2);
        np.quarantine_core(0);
        np.quarantine_core(1);
        np.process(&testing::ipv4_packet([1, 1, 1, 1], [2, 2, 2, 2], 64, b""));
    }

    #[test]
    fn per_core_observers_are_distinct() {
        // Each call to make_observer corresponds to one core index.
        let program = programs::ipv4_forward().unwrap();
        let mut np = NetworkProcessor::new(3);
        let mut seen = Vec::new();
        np.install_all(&program.to_bytes(), program.base, |i| {
            seen.push(i);
            Box::new(NullObserver)
        });
        assert_eq!(seen, [0, 1, 2]);
    }

    use crate::supervisor::AdaptiveConfig;

    fn graded_np(cores: usize, adaptive: AdaptiveConfig) -> NetworkProcessor {
        loaded_supervised_np(cores, SupervisorPolicy::graded(adaptive))
    }

    /// Hammers one core with hijack packets until `done(np)` holds; panics
    /// if the graded supervisor never gets there within the bound.
    fn hammer_until(
        np: &mut NetworkProcessor,
        core: usize,
        bound: usize,
        done: impl Fn(&NetworkProcessor) -> bool,
    ) {
        let attack = testing::hijack_packet("break 1").unwrap();
        for _ in 0..bound {
            if done(np) {
                return;
            }
            np.process_on(core, &attack);
        }
        assert!(done(np), "graded supervisor never reached the target state");
    }

    #[test]
    fn graded_throttle_halves_the_dispatch_share() {
        let mut np = graded_np(
            3,
            AdaptiveConfig {
                parole_batches: 0,
                ..AdaptiveConfig::default()
            },
        );
        hammer_until(&mut np, 1, 8, |np| np.is_throttled(1));
        assert!(!np.is_quarantined(1), "throttle precedes quarantine");
        // Healthy cores weigh 2, a throttled core 1: the flow table is no
        // longer one-slot-per-core, so the throttled core's share drops.
        let hits: Vec<usize> = (0..64u8)
            .map(|i| np.core_for(&testing::ipv4_packet([10, 2, i, 7], [10, 0, 0, 3], 64, b"")))
            .collect();
        let share = |c: usize| hits.iter().filter(|&&h| h == c).count();
        assert!(share(1) > 0, "a throttled core keeps a reduced share");
        assert!(
            share(1) < share(0) && share(1) < share(2),
            "throttled core 1 outweighed by healthy peers: {:?}",
            [share(0), share(1), share(2)]
        );
    }

    #[test]
    fn healthy_core_for_matches_the_historical_uniform_mapping() {
        // With every core healthy the weighted table collapses to one slot
        // per core — byte-identical dispatch to the pre-graded NP.
        let mut healthy = loaded_np(4);
        let mut graded = graded_np(4, AdaptiveConfig::default());
        for i in 0..64u8 {
            let p = testing::ipv4_packet([10, 3, i, 9], [10, 0, 0, 2], 64, b"");
            assert_eq!(healthy.core_for(&p), graded.core_for(&p));
            assert_eq!(healthy.process_flow(&p).0, graded.process_flow(&p).0);
        }
    }

    #[test]
    fn graded_zeroize_latches_lockdown_until_reinstall() {
        let mut np = graded_np(
            2,
            AdaptiveConfig {
                parole_batches: 0,
                ..AdaptiveConfig::default()
            },
        );
        hammer_until(&mut np, 0, 32, |np| np.is_locked_down());
        let health = np.core_health(0);
        assert!(health.zeroize_ordered);
        assert!(health.quarantined);
        assert_eq!(health.threat, crate::supervisor::ThreatLevel::Critical);

        // Zeroize orders hand off exactly once.
        assert_eq!(np.take_zeroize_orders(), vec![0]);
        assert!(np.take_zeroize_orders().is_empty());

        // Decommission wipes the slot but keeps it out of dispatch.
        np.decommission(0);
        assert!(np.is_quarantined(0));
        assert_eq!(np.active_cores(), vec![1]);

        // Lockdown is latched until an operator reinstalls the core.
        np.process_batch(&[]);
        assert!(np.is_locked_down());
        let program = programs::vulnerable_forward().unwrap();
        np.install(0, &program.to_bytes(), program.base, Box::new(NullObserver));
        assert!(!np.is_locked_down());
        assert!(!np.is_quarantined(0));
    }

    #[test]
    fn parole_restores_a_throttled_core_after_clean_batches() {
        let mut np = graded_np(
            2,
            AdaptiveConfig {
                parole_batches: 2,
                ..AdaptiveConfig::default()
            },
        );
        hammer_until(&mut np, 0, 8, |np| np.is_throttled(0));
        let good: Vec<Vec<u8>> = (0..8u8)
            .map(|i| testing::ipv4_packet([10, 4, i, 1], [10, 0, 0, 2], 64, b""))
            .collect();
        // Batch 1 consumes the dirty-batch flag, batches 2 and 3 count as
        // clean; parole restores the full dispatch share on batch 3.
        np.process_batch(&good);
        assert!(np.is_throttled(0));
        np.process_batch(&good);
        assert!(np.is_throttled(0));
        np.process_batch(&good);
        assert!(!np.is_throttled(0), "parole restores the dispatch share");
        assert_eq!(
            np.core_health(0).threat,
            crate::supervisor::ThreatLevel::None
        );
    }

    #[test]
    fn reinstall_forgets_flight_records_of_the_replaced_image() {
        // Nothing sampled: every packet lands in the flight ring.
        let bus = Arc::new(EventBus::new());
        let mut np = loaded_np(1);
        np.set_event_bus(Some(bus.clone()));
        np.set_trace(Some(TraceContext::new(7, 0)));
        let attack = testing::hijack_packet("break 1").unwrap();
        // `ipv4_forward` ignores the payload: both runs are clean.
        let clean = np.process_batch(&[attack.clone(), attack.clone()]);
        assert!(clean.iter().all(|(_, out)| out.halt.is_clean()));

        // The replacement image is exploitable, so the same flow faults
        // and is promoted — but only its packet on the new image.
        let program = programs::vulnerable_forward().unwrap();
        np.install(0, &program.to_bytes(), program.base, Box::new(NullObserver));
        let (_, out) = np.process_batch(std::slice::from_ref(&attack))[0];
        assert!(!out.halt.is_clean());
        let flights: Vec<Event> = bus
            .take()
            .into_iter()
            .filter(|e| e.kind == trace::KIND_FLIGHT)
            .collect();
        assert_eq!(flights.len(), 1, "stale flight records: {flights:?}");
        assert_eq!(flights[0].clock, 2);
    }

    #[test]
    fn parole_walks_quarantine_back_through_throttle() {
        let mut np = graded_np(
            2,
            AdaptiveConfig {
                parole_batches: 1,
                ..AdaptiveConfig::default()
            },
        );
        hammer_until(&mut np, 0, 16, |np| np.is_quarantined(0));
        assert!(!np.core_health(0).zeroize_ordered, "stopped before zeroize");
        // Dirty-batch flag burns batch 1; batch 2 paroles quarantine down
        // to throttled; batch 3 restores the full share.
        np.process_batch(&[]);
        assert!(np.is_quarantined(0));
        np.process_batch(&[]);
        assert!(!np.is_quarantined(0));
        assert!(np.is_throttled(0), "quarantine paroles to throttled first");
        np.process_batch(&[]);
        assert!(!np.is_throttled(0));
    }
}
