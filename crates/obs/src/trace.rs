//! Deterministic span/trace layer on logical clocks (`sdmmon-trace-v1`).
//!
//! The event bus (PR 5) answers *that* something happened; this module
//! answers *why*: which flow, admitted with how much queueing, dispatched
//! to which core, verified over how many retired instructions, escalated
//! into which graded response. The causal record is carried as ordinary
//! [`Event`]s (kinds `span.*` and `supervisor.flight`) so it rides the
//! exact same per-worker buffers and clock-ordered merges the supervisor
//! stream already uses — no second transport, no new determinism rules.
//!
//! One declaration owns that record: [`Span`] lists each kind once, with
//! its typed fields in rendering order. Producers build its variants,
//! [`Span::event`] carries one on an event, which renders its fields
//! (each key is the field's name), and [`assemble_traces`] matches them,
//! so no span key is spelled twice. [`Stage`] names the stages of the
//! assembled spans in causal order.
//!
//! Everything is a pure function of `(seed, flow id)`:
//!
//! * [`TraceContext::trace_id`] derives a stable 64-bit trace id from the
//!   flow-affinity FNV-1a hash, and
//! * [`TraceContext::sampled`] decides per-mille sampling from the same
//!   two inputs — **never** from shard index, worker identity, or
//!   anything else that varies with engine configuration.
//!
//! Consequently the assembled trace set is byte-identical at any shard
//! count and across the sharded / serial-oracle paths, which is exactly
//! what `ci.sh` gates on the `sdmmon trace` artifact.
//!
//! Unsampled flows are not lost: the engine keeps a bounded per-core
//! *flight recorder* of recent packet records, and the moment a monitor
//! flags a flow (or the graded supervisor escalates on it) the recorder
//! retroactively promotes that flow's recent records to a full trace via
//! `supervisor.flight` events stamped at the detection clock. See
//! `docs/OBSERVABILITY.md` for the schema reference.

use crate::event::{Event, Value};

/// Schema identifier for the assembled trace artifact written by
/// `sdmmon trace` (bump on layout changes).
pub const TRACE_SCHEMA: &str = "sdmmon-trace-v1";

/// Declares [`Span`]: one variant per span event kind, with its kind
/// string and its typed fields in rendering order. A field's name is its
/// key.
macro_rules! span_schema {
    ($($(#[$doc:meta])* $variant:ident => $kind:literal { $($field:ident: $ty:ty),+ },)+) => {
        /// One record of the causal span layer, as its producer builds it
        /// and [`assemble_traces`] reads it. `trace` fields are
        /// [`TraceContext::trace_id`]s; `core`, `relay` and `router` are
        /// indices.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span {
            $($(#[$doc])* $variant { $($field: $ty),+ },)+
        }

        impl Span {
            /// The record as an `sdmmon-events-v1` event at `clock`. The
            /// event renders the record's fields in declaration order.
            pub fn event(self, clock: u64) -> Event {
                let kind = match self {
                    $(Span::$variant { .. } => $kind,)+
                };
                Event {
                    span: Some(self),
                    ..Event::new(kind, clock)
                }
            }

            /// Calls `f` with each field's key and value, in declaration
            /// order.
            pub(crate) fn for_each_field(self, mut f: impl FnMut(&'static str, Value)) {
                match self {
                    $(Span::$variant { $($field),+ } => {
                        $(f(stringify!($field), Value::from($field));)+
                    })+
                }
            }
        }
    };
}

span_schema! {
    /// A sampled packet offered at ingress; `flow` is its flow-affinity
    /// hash.
    Ingest => "span.ingest" { trace: u64, flow: u64 },
    /// A sampled packet's admission decision: the core its flow maps to,
    /// the packets ahead of it in that core's queue, and whether the
    /// shard's round budget admitted it.
    Admit => "span.admit" { trace: u64, core: u64, delay: u64, admitted: bool },
    /// A sampled packet's dispatch at position `qpos` of its core's run
    /// queue.
    Dispatch => "span.dispatch" { trace: u64, core: u64, qpos: u64 },
    /// A sampled packet's monitored run: retired instructions, full
    /// 16-lane hash blocks, and how it halted (`clean` / `violation` /
    /// `fault`).
    Verify => "span.verify" { trace: u64, core: u64, steps: u64, blocks: u64, halt: &'static str },
    /// The graded supervisor response on a sampled or promoted flow.
    Respond => "span.respond" { trace: u64, core: u64, action: &'static str, level: &'static str },
    /// One flight-recorder packet of a flagged flow, promoted at the
    /// detection clock: its place in the promoted window, its own packet
    /// clock `at`, its run-queue position, retired instructions and halt.
    Flight => "supervisor.flight" {
        trace: u64, core: u64, flow: u64, window_index: u64, at: u64, delay: u64, steps: u64,
        halt: &'static str
    },
    /// The fleet-side root: the operator preparing update `sequence`.
    Operator => "span.operator" { sequence: u64 },
    /// One relay's sync of the shared update, in transport attempts.
    Relay => "span.relay" { relay: u64, attempts: u64 },
    /// One router's install through `relay` after `cycles` deploy cycles.
    Install => "span.install" { trace: u64, router: u64, relay: u64, cycles: u64, installed: bool },
}

/// The stage of an assembled span, in causal order: at one clock the
/// fleet-side chain sorts before the data-plane chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Fleet-side root: the operator preparing one shared update (cost =
    /// update sequence).
    Operator,
    /// Fleet-side relay sync (cost = transport attempts).
    Relay,
    /// Fleet-side per-router install (cost = deploy cycles).
    Install,
    /// A sampled packet offered at ingress.
    Ingest,
    /// Bounded per-shard admission (cost = packets ahead in the core
    /// queue).
    Admission,
    /// Shard dispatch onto the owning core (cost = position in the core's
    /// run queue this round).
    Dispatch,
    /// Monitored execution (cost = retired instructions).
    Verify,
    /// Graded supervisor response to an unclean halt.
    Respond,
}

impl Stage {
    /// The stage's label in the trace artifact, hashed into [`span_id`].
    pub fn name(self) -> &'static str {
        match self {
            Stage::Operator => "operator",
            Stage::Relay => "relay",
            Stage::Install => "install",
            Stage::Ingest => "ingest",
            Stage::Admission => "admission",
            Stage::Dispatch => "dispatch",
            Stage::Verify => "verify",
            Stage::Respond => "respond",
        }
    }
}

/// SplitMix64 finalizer — the avalanche step used for id derivation and
/// sampling. Bijective, so distinct flows keep distinct trace ids.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Domain-separation salts so the sampler and the id generator draw
/// independent bits from the same `(seed, flow)` pair.
const SALT_TRACE_ID: u64 = 0x7ace_1d00_5d00_0001;
const SALT_SAMPLER: u64 = 0x5a3d_93b1_c0ff_ee01;

/// Deterministic sampling + id-derivation context. A traced
/// [`EventBus`](crate::EventBus) carries it into the streaming engine, the
/// sharded batch engine and `deploy_fleet`. `Copy`, so workers carry it
/// by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The run seed the ids and the sampler are derived from.
    pub seed: u64,
    /// Per-mille sampling rate in `[0, 1000]`; 1000 traces every flow.
    pub per_mille: u16,
}

impl TraceContext {
    /// Flight-recorder depth per core: the recent unsampled packet records
    /// kept for retroactive promotion.
    pub const DEFAULT_FLIGHT_WINDOW: usize = 32;

    /// A context sampling `per_mille`‰ of flows. `per_mille` is clamped
    /// to 1000.
    pub fn new(seed: u64, per_mille: u16) -> TraceContext {
        TraceContext {
            seed,
            per_mille: per_mille.min(1000),
        }
    }

    /// Stable, nonzero trace id for a flow — a pure function of
    /// `(seed, flow)`, independent of shard count and dispatch path.
    pub fn trace_id(&self, flow: u64) -> u64 {
        mix64(self.seed ^ SALT_TRACE_ID ^ mix64(flow)).max(1)
    }

    /// Whether the flow is head-sampled. Also a pure function of
    /// `(seed, flow)`; the sampler bits are independent of the id bits.
    pub fn sampled(&self, flow: u64) -> bool {
        (mix64(self.seed ^ SALT_SAMPLER ^ mix64(flow)) % 1000) < u64::from(self.per_mille)
    }
}

/// Stable span id: FNV-1a over `(trace, clock, stage name)`. Every
/// consumer — emitter, flight promotion, assembler — derives the same id
/// from the same coordinates, so retroactively promoted spans link into
/// the same chains head-sampled spans would have formed.
pub fn span_id(trace: u64, clock: u64, stage: Stage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1_0000_0193);
    };
    for b in trace.to_be_bytes() {
        eat(b);
    }
    for b in clock.to_be_bytes() {
        eat(b);
    }
    for b in stage.name().as_bytes() {
        eat(*b);
    }
    h.max(1)
}

/// Stable pseudo-flow id for control-plane entities (routers, relays) so
/// fleet spans share the flow-keyed id derivation.
pub fn entity_flow(label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.as_bytes().iter().copied().chain(index.to_be_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0193);
    }
    h
}

/// One assembled span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stable span id (see [`span_id`]).
    pub id: u64,
    /// Parent span id, `0` for a root span.
    pub parent: u64,
    /// The span's stage.
    pub stage: Stage,
    /// Logical clock the span is anchored at.
    pub clock: u64,
    /// Executing core / relay / router index, `-1` when not applicable.
    pub entity: i64,
    /// Stage cost in the stage's logical unit: queue delay (admission),
    /// run-queue position (dispatch), retired instructions (verify),
    /// transport attempts (relay), deploy cycles (install).
    pub cost: u64,
    /// Short outcome note (`clean` / `violation` / action name / …).
    pub note: String,
}

impl TraceSpan {
    /// The `stage` span of `trace` anchored at `clock`, parented on the
    /// span of the same trace at `parent`'s `(clock, stage)`, or a root.
    fn link(
        trace: u64,
        (clock, stage): (u64, Stage),
        parent: Option<(u64, Stage)>,
        entity: Option<u64>,
        cost: u64,
        note: impl Into<String>,
    ) -> TraceSpan {
        TraceSpan {
            id: span_id(trace, clock, stage),
            parent: parent.map_or(0, |(clock, stage)| span_id(trace, clock, stage)),
            stage,
            clock,
            entity: entity.map_or(-1, |e| e as i64),
            cost,
            note: note.into(),
        }
    }
}

/// One assembled trace: a flow (or fleet entity) and its span chain in
/// clock order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Stable trace id.
    pub id: u64,
    /// Flow id (flow-affinity hash, or [`entity_flow`] for fleet spans).
    pub flow: u64,
    /// `true` for head-sampled traces, `false` for flight-recorder
    /// promotions.
    pub sampled: bool,
    /// Spans in `(clock, causal stage)` order.
    pub spans: Vec<TraceSpan>,
}

/// Reassembles span chains from an event stream.
///
/// Matches the [`Span`] records of a recorded stream (other events are
/// ignored) and groups them into [`Trace`]s:
///
/// * head-sampled data-plane spans link ingest → admission → dispatch →
///   verify per packet clock, with `span.respond` parented on the
///   triggering packet's verify span;
/// * `supervisor.flight` records expand into the admission / dispatch /
///   verify spans the packet *would* have emitted had its flow been
///   sampled — same [`span_id`] coordinates, so the chains are
///   indistinguishable from head-sampled ones apart from `sampled:
///   false`;
/// * fleet spans link operator → relay → install per router trace.
///
/// Traces are ordered by `(first span clock, trace id)` and spans within
/// a trace by `(clock, causal stage order)` — both total orders over
/// deterministic inputs, so assembly is byte-stable.
pub fn assemble_traces(events: &[Event]) -> Vec<Trace> {
    use std::collections::BTreeMap;

    // Fleet-side shared context: the operator root and the relay spans
    // are emitted once but participate in every router trace.
    let mut operator: Option<(u64, u64)> = None; // (clock, sequence)
    let mut relays: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // relay -> (clock, attempts)
    for event in events {
        match event.span {
            Some(Span::Operator { sequence }) => operator = Some((event.clock, sequence)),
            Some(Span::Relay { relay, attempts }) => {
                relays.insert(relay, (event.clock, attempts));
            }
            _ => {}
        }
    }

    // trace id -> (flow, sampled, spans)
    let mut traces: BTreeMap<u64, (u64, bool, Vec<TraceSpan>)> = BTreeMap::new();
    let mut push = |trace: u64, flow: u64, sampled: bool, span: TraceSpan| {
        let entry = traces.entry(trace).or_insert((flow, sampled, Vec::new()));
        if flow != 0 {
            entry.0 = flow;
        }
        entry.1 &= sampled;
        // Flight promotion can synthesize a span the head-sampled path
        // already emitted (same id); keep the first occurrence.
        if !entry.2.iter().any(|s| s.id == span.id) {
            entry.2.push(span);
        }
    };

    for event in events {
        let Some(span) = event.span else { continue };
        let clock = event.clock;
        match span {
            Span::Ingest { trace, flow } => {
                let span = TraceSpan::link(trace, (clock, Stage::Ingest), None, None, 0, "");
                push(trace, flow, true, span);
            }
            Span::Admit {
                trace,
                core,
                delay,
                admitted,
            } => {
                let note = if admitted { "admitted" } else { "dropped" };
                let parent = Some((clock, Stage::Ingest));
                let at = (clock, Stage::Admission);
                let span = TraceSpan::link(trace, at, parent, Some(core), delay, note);
                push(trace, 0, true, span);
            }
            Span::Dispatch { trace, core, qpos } => {
                let parent = Some((clock, Stage::Admission));
                let at = (clock, Stage::Dispatch);
                let span = TraceSpan::link(trace, at, parent, Some(core), qpos, "");
                push(trace, 0, true, span);
            }
            Span::Verify {
                trace,
                core,
                steps,
                halt,
                ..
            } => {
                let parent = Some((clock, Stage::Dispatch));
                let at = (clock, Stage::Verify);
                let span = TraceSpan::link(trace, at, parent, Some(core), steps, halt);
                push(trace, 0, true, span);
            }
            Span::Respond {
                trace,
                core,
                action,
                level,
            } => {
                let note = format!("{action} ({level})");
                let parent = Some((clock, Stage::Verify));
                let at = (clock, Stage::Respond);
                let span = TraceSpan::link(trace, at, parent, Some(core), 0, note);
                push(trace, 0, true, span);
            }
            Span::Flight {
                trace,
                core,
                flow,
                at,
                delay,
                steps,
                halt,
                ..
            } => {
                // One remembered packet of the flagged flow: the chain it
                // would have emitted, anchored at its own packet clock
                // (`at`), not the detection clock.
                let mut link = |stage, parent: Option<Stage>, cost, note| {
                    let parent = parent.map(|stage| (at, stage));
                    let span = TraceSpan::link(trace, (at, stage), parent, Some(core), cost, note);
                    push(trace, flow, false, span);
                };
                link(Stage::Admission, None, delay, "admitted");
                link(Stage::Dispatch, Some(Stage::Admission), delay, "");
                link(Stage::Verify, Some(Stage::Dispatch), steps, halt);
            }
            Span::Install {
                trace,
                router,
                relay,
                cycles,
                installed,
            } => {
                let flow = entity_flow("router", router);
                let operator_at = operator.map(|(clock, _)| (clock, Stage::Operator));
                if let Some((op_clock, sequence)) = operator {
                    let at = (op_clock, Stage::Operator);
                    let span = TraceSpan::link(trace, at, None, None, sequence, "update prepared");
                    push(trace, flow, true, span);
                }
                let relay_at = relays.get(&relay).map(|&(clock, _)| (clock, Stage::Relay));
                if let Some(&(relay_clock, attempts)) = relays.get(&relay) {
                    let at = (relay_clock, Stage::Relay);
                    let span =
                        TraceSpan::link(trace, at, operator_at, Some(relay), attempts, "synced");
                    push(trace, flow, true, span);
                }
                let note = if installed {
                    "installed"
                } else {
                    "quarantined"
                };
                let at = (clock, Stage::Install);
                let span = TraceSpan::link(trace, at, relay_at, Some(router), cycles, note);
                push(trace, flow, true, span);
            }
            Span::Operator { .. } | Span::Relay { .. } => {}
        }
    }

    let mut out: Vec<Trace> = traces
        .into_iter()
        .map(|(id, (flow, sampled, mut spans))| {
            spans.sort_by_key(|s| (s.clock, s.stage));
            Trace {
                id,
                flow,
                sampled,
                spans,
            }
        })
        .collect();
    out.sort_by_key(|t| (t.spans.first().map_or(u64::MAX, |s| s.clock), t.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_sampling_are_pure_functions_of_seed_and_flow() {
        let tc = TraceContext::new(0x57AE, 100);
        for flow in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(tc.trace_id(flow), tc.trace_id(flow));
            assert_eq!(tc.sampled(flow), tc.sampled(flow));
            assert_ne!(tc.trace_id(flow), 0, "trace ids are nonzero");
        }
        // Different seeds decorrelate both ids and the sampled set.
        let other = TraceContext::new(0x57AF, 100);
        assert_ne!(tc.trace_id(7), other.trace_id(7));
    }

    #[test]
    fn sampler_rate_tracks_per_mille() {
        let tc = TraceContext::new(42, 100);
        let hits = (0u64..20_000).filter(|&f| tc.sampled(f)).count();
        let rate = hits as f64 / 20_000.0;
        assert!(
            (0.08..0.12).contains(&rate),
            "100 per-mille sampled {rate} of flows"
        );
        assert!((0u64..1000).all(|f| TraceContext::new(1, 1000).sampled(f)));
        assert!(!(0u64..1000).any(|f| TraceContext::new(1, 0).sampled(f)));
    }

    #[test]
    fn span_ids_separate_stages_and_clocks() {
        let a = span_id(9, 100, Stage::Verify);
        assert_eq!(a, span_id(9, 100, Stage::Verify));
        assert_ne!(a, span_id(9, 100, Stage::Dispatch));
        assert_ne!(a, span_id(9, 101, Stage::Verify));
        assert_ne!(a, span_id(8, 100, Stage::Verify));
    }

    fn sampled_chain(trace: u64, flow: u64, clock: u64) -> Vec<Event> {
        [
            Span::Ingest { trace, flow },
            Span::Admit {
                trace,
                core: 3,
                delay: 2,
                admitted: true,
            },
            Span::Dispatch {
                trace,
                core: 3,
                qpos: 2,
            },
            Span::Verify {
                trace,
                core: 3,
                steps: 57,
                blocks: 3,
                halt: "clean",
            },
        ]
        .map(|span| span.event(clock))
        .into()
    }

    #[test]
    fn assembles_a_sampled_chain_with_linked_parents() {
        let events = sampled_chain(0xABCD, 0xF10, 42);
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.id, t.flow, t.sampled), (0xABCD, 0xF10, true));
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].stage, Stage::Ingest);
        assert_eq!(t.spans[0].parent, 0);
        for pair in t.spans.windows(2) {
            assert_eq!(
                pair[1].parent, pair[0].id,
                "span chain must be parent-linked in stage order"
            );
        }
    }

    #[test]
    fn flight_promotion_builds_the_same_chain_shape() {
        let detection = 90u64;
        let flight = |window_index, at, delay, steps, halt| Span::Flight {
            trace: 7,
            core: 1,
            flow: 0xBEEF,
            window_index,
            at,
            delay,
            steps,
            halt,
        };
        let events = vec![
            flight(0, 80, 1, 33, "clean").event(detection),
            flight(1, 85, 0, 12, "violation").event(detection),
            Span::Respond {
                trace: 7,
                core: 1,
                action: "quarantine",
                level: "high",
            }
            .event(85),
        ];
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(!t.sampled, "flight promotions are tail-sampled");
        // Two packets × (admission, dispatch, verify) + one respond.
        assert_eq!(t.spans.len(), 7);
        let respond = t.spans.last().unwrap();
        assert_eq!(respond.stage, Stage::Respond);
        assert_eq!(
            respond.parent,
            span_id(7, 85, Stage::Verify),
            "respond links to the triggering packet's verify span"
        );
        // The chain reaches from admission to the graded response.
        let mut cursor = respond;
        let mut stages = vec![cursor.stage];
        while cursor.parent != 0 {
            cursor = t
                .spans
                .iter()
                .find(|s| s.id == cursor.parent)
                .expect("parent resolves inside the trace");
            stages.push(cursor.stage);
        }
        assert_eq!(
            stages,
            vec![
                Stage::Respond,
                Stage::Verify,
                Stage::Dispatch,
                Stage::Admission
            ]
        );
    }

    #[test]
    fn fleet_install_chains_operator_relay_router() {
        let tc = TraceContext::new(5, 1000);
        let trace = tc.trace_id(entity_flow("router", 2));
        let events = vec![
            Span::Operator { sequence: 4 }.event(0),
            Span::Relay {
                relay: 1,
                attempts: 12,
            }
            .event(12),
            Span::Install {
                trace,
                router: 2,
                relay: 1,
                cycles: 1,
                installed: true,
            }
            .event(30),
        ];
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        assert_eq!(
            spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![Stage::Operator, Stage::Relay, Stage::Install]
        );
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(traces[0].flow, entity_flow("router", 2));
    }

    /// One real line per span kind: eight from the event stream of
    /// `sdmmon trace --quick`, and a dropped admission from a traced
    /// stream over a tight ingress budget. They pin the kind, the keys and
    /// the key order of every span event.
    #[test]
    fn span_events_render_the_golden_lines() {
        let golden = [
            (
                0,
                Span::Ingest {
                    trace: 5490816253411230622,
                    flow: 10126079400601988657,
                }
                .event(36),
                r#"{"schema":"sdmmon-events-v1","seq":0,"clock":36,"kind":"span.ingest","trace":5490816253411230622,"flow":10126079400601988657}"#,
            ),
            (
                1,
                Span::Admit {
                    trace: 5490816253411230622,
                    core: 1,
                    delay: 0,
                    admitted: true,
                }
                .event(36),
                r#"{"schema":"sdmmon-events-v1","seq":1,"clock":36,"kind":"span.admit","trace":5490816253411230622,"core":1,"delay":0,"admitted":true}"#,
            ),
            (
                49,
                Span::Admit {
                    trace: 16524381400202838959,
                    core: 2,
                    delay: 0,
                    admitted: false,
                }
                .event(24),
                r#"{"schema":"sdmmon-events-v1","seq":49,"clock":24,"kind":"span.admit","trace":16524381400202838959,"core":2,"delay":0,"admitted":false}"#,
            ),
            (
                13,
                Span::Dispatch {
                    trace: 5490816253411230622,
                    core: 1,
                    qpos: 0,
                }
                .event(36),
                r#"{"schema":"sdmmon-events-v1","seq":13,"clock":36,"kind":"span.dispatch","trace":5490816253411230622,"core":1,"qpos":0}"#,
            ),
            (
                14,
                Span::Verify {
                    trace: 5490816253411230622,
                    core: 1,
                    steps: 187,
                    blocks: 11,
                    halt: "clean",
                }
                .event(36),
                r#"{"schema":"sdmmon-events-v1","seq":14,"clock":36,"kind":"span.verify","trace":5490816253411230622,"core":1,"steps":187,"blocks":11,"halt":"clean"}"#,
            ),
            (
                20,
                Span::Respond {
                    trace: 12215908019753396912,
                    core: 2,
                    action: "redeploy",
                    level: "none",
                }
                .event(83),
                r#"{"schema":"sdmmon-events-v1","seq":20,"clock":83,"kind":"span.respond","trace":12215908019753396912,"core":2,"action":"redeploy","level":"none"}"#,
            ),
            (
                17,
                Span::Flight {
                    trace: 12215908019753396912,
                    core: 2,
                    flow: 15843102476613556434,
                    window_index: 0,
                    at: 62,
                    delay: 5,
                    steps: 460,
                    halt: "violation",
                }
                .event(62),
                r#"{"schema":"sdmmon-events-v1","seq":17,"clock":62,"kind":"supervisor.flight","trace":12215908019753396912,"core":2,"flow":15843102476613556434,"window_index":0,"at":62,"delay":5,"steps":460,"halt":"violation"}"#,
            ),
            (
                128,
                Span::Operator { sequence: 1 }.event(0),
                r#"{"schema":"sdmmon-events-v1","seq":128,"clock":0,"kind":"span.operator","sequence":1}"#,
            ),
            (
                130,
                Span::Relay {
                    relay: 0,
                    attempts: 5,
                }
                .event(5),
                r#"{"schema":"sdmmon-events-v1","seq":130,"clock":5,"kind":"span.relay","relay":0,"attempts":5}"#,
            ),
            (
                134,
                Span::Install {
                    trace: 4890158957268373608,
                    router: 0,
                    relay: 0,
                    cycles: 1,
                    installed: true,
                }
                .event(18),
                r#"{"schema":"sdmmon-events-v1","seq":134,"clock":18,"kind":"span.install","trace":4890158957268373608,"router":0,"relay":0,"cycles":1,"installed":true}"#,
            ),
        ];
        for (seq, event, line) in golden {
            assert_eq!(event.render_line(seq), line);
        }
    }

    #[test]
    fn assembly_is_order_stable_and_idempotent() {
        let mut events = sampled_chain(3, 30, 10);
        events.extend(sampled_chain(2, 20, 5));
        let once = assemble_traces(&events);
        assert_eq!(once, assemble_traces(&events));
        // Ordered by first span clock, not by trace id.
        assert_eq!(once[0].id, 2);
        assert_eq!(once[1].id, 3);
    }
}
