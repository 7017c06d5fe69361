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

/// Data-plane span stages, in causal order. The fleet-side stages
/// ([`STAGE_OPERATOR`] … [`STAGE_INSTALL`]) mirror the control plane.
pub const STAGE_INGEST: &str = "ingest";
/// Bounded per-shard admission (cost = packets ahead in the core queue).
pub const STAGE_ADMISSION: &str = "admission";
/// Shard dispatch onto the owning core (cost = position in the core's
/// run queue this round).
pub const STAGE_DISPATCH: &str = "dispatch";
/// Monitored execution (cost = retired instructions; `blocks` counts the
/// full 16-lane hash blocks the bit-sliced monitor verified).
pub const STAGE_VERIFY: &str = "verify";
/// Graded supervisor response to an unclean halt.
pub const STAGE_RESPOND: &str = "respond";
/// Fleet-side root: the operator preparing one shared update.
pub const STAGE_OPERATOR: &str = "operator";
/// Fleet-side relay sync (cost = transport attempts).
pub const STAGE_RELAY: &str = "relay";
/// Fleet-side per-router install (cost = deploy cycles).
pub const STAGE_INSTALL: &str = "install";

/// Event kinds the trace layer emits. They are ordinary
/// `sdmmon-events-v1` lines; `assemble_traces` turns them back into span
/// chains.
pub const KIND_SPAN_INGEST: &str = "span.ingest";
/// Admission decision for a sampled flow's packet.
pub const KIND_SPAN_ADMIT: &str = "span.admit";
/// Core dispatch of a sampled flow's packet.
pub const KIND_SPAN_DISPATCH: &str = "span.dispatch";
/// Monitored execution of a sampled flow's packet.
pub const KIND_SPAN_VERIFY: &str = "span.verify";
/// Graded response linked to the triggering packet's verify span.
pub const KIND_SPAN_RESPOND: &str = "span.respond";
/// Retroactive flight-recorder promotion of an unsampled flow.
pub const KIND_FLIGHT: &str = "supervisor.flight";
/// Fleet-side operator root span.
pub const KIND_SPAN_OPERATOR: &str = "span.operator";
/// Fleet-side relay sync span.
pub const KIND_SPAN_RELAY: &str = "span.relay";
/// Fleet-side router install span.
pub const KIND_SPAN_INSTALL: &str = "span.install";

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

/// Stable span id: FNV-1a over `(trace, clock, stage)`. Every consumer —
/// emitter, flight promotion, assembler — derives the same id from the
/// same coordinates, so retroactively promoted spans link into the same
/// chains head-sampled spans would have formed.
pub fn span_id(trace: u64, clock: u64, stage: &str) -> u64 {
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
    for b in stage.as_bytes() {
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
    /// Stage label (one of the `STAGE_*` constants).
    pub stage: &'static str,
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

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event
        .fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            Value::I64(n) => u64::try_from(*n).ok(),
            Value::Bool(b) => Some(u64::from(*b)),
            Value::Str(_) => None,
        })
}

fn field_str<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    event
        .fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn stage_rank(stage: &str) -> u8 {
    match stage {
        STAGE_OPERATOR => 0,
        STAGE_RELAY => 1,
        STAGE_INSTALL => 2,
        STAGE_INGEST => 3,
        STAGE_ADMISSION => 4,
        STAGE_DISPATCH => 5,
        STAGE_VERIFY => 6,
        STAGE_RESPOND => 7,
        _ => 8,
    }
}

/// Reassembles span chains from an event stream.
///
/// Consumes the `span.*` / `supervisor.flight` events out of a recorded
/// stream (other kinds are ignored) and groups them into [`Trace`]s:
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
        match event.kind {
            KIND_SPAN_OPERATOR => {
                operator = Some((event.clock, field_u64(event, "sequence").unwrap_or(0)));
            }
            KIND_SPAN_RELAY => {
                if let Some(relay) = field_u64(event, "relay") {
                    relays.insert(
                        relay,
                        (event.clock, field_u64(event, "attempts").unwrap_or(0)),
                    );
                }
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
        let clock = event.clock;
        match event.kind {
            KIND_SPAN_INGEST => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                let flow = field_u64(event, "flow").unwrap_or(0);
                push(
                    trace,
                    flow,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_INGEST),
                        parent: 0,
                        stage: STAGE_INGEST,
                        clock,
                        entity: -1,
                        cost: 0,
                        note: String::new(),
                    },
                );
            }
            KIND_SPAN_ADMIT => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                let admitted = field_u64(event, "admitted").unwrap_or(1) == 1;
                push(
                    trace,
                    0,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_ADMISSION),
                        parent: span_id(trace, clock, STAGE_INGEST),
                        stage: STAGE_ADMISSION,
                        clock,
                        entity: field_u64(event, "core").map_or(-1, |c| c as i64),
                        cost: field_u64(event, "delay").unwrap_or(0),
                        note: if admitted { "admitted" } else { "dropped" }.to_owned(),
                    },
                );
            }
            KIND_SPAN_DISPATCH => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                push(
                    trace,
                    0,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_DISPATCH),
                        parent: span_id(trace, clock, STAGE_ADMISSION),
                        stage: STAGE_DISPATCH,
                        clock,
                        entity: field_u64(event, "core").map_or(-1, |c| c as i64),
                        cost: field_u64(event, "qpos").unwrap_or(0),
                        note: String::new(),
                    },
                );
            }
            KIND_SPAN_VERIFY => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                push(
                    trace,
                    0,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_VERIFY),
                        parent: span_id(trace, clock, STAGE_DISPATCH),
                        stage: STAGE_VERIFY,
                        clock,
                        entity: field_u64(event, "core").map_or(-1, |c| c as i64),
                        cost: field_u64(event, "steps").unwrap_or(0),
                        note: field_str(event, "halt").unwrap_or("").to_owned(),
                    },
                );
            }
            KIND_SPAN_RESPOND => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                push(
                    trace,
                    0,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_RESPOND),
                        parent: span_id(trace, clock, STAGE_VERIFY),
                        stage: STAGE_RESPOND,
                        clock,
                        entity: field_u64(event, "core").map_or(-1, |c| c as i64),
                        cost: 0,
                        note: format!(
                            "{} ({})",
                            field_str(event, "action").unwrap_or("?"),
                            field_str(event, "level").unwrap_or("?")
                        ),
                    },
                );
            }
            KIND_FLIGHT => {
                // One remembered packet of the flagged flow: synthesize
                // the chain it would have emitted, anchored at its own
                // packet clock (`at`), not the detection clock.
                let trace = field_u64(event, "trace").unwrap_or(0);
                let flow = field_u64(event, "flow").unwrap_or(0);
                let at = field_u64(event, "at").unwrap_or(clock);
                let entity = field_u64(event, "core").map_or(-1, |c| c as i64);
                push(
                    trace,
                    flow,
                    false,
                    TraceSpan {
                        id: span_id(trace, at, STAGE_ADMISSION),
                        parent: 0,
                        stage: STAGE_ADMISSION,
                        clock: at,
                        entity,
                        cost: field_u64(event, "delay").unwrap_or(0),
                        note: "admitted".to_owned(),
                    },
                );
                push(
                    trace,
                    flow,
                    false,
                    TraceSpan {
                        id: span_id(trace, at, STAGE_DISPATCH),
                        parent: span_id(trace, at, STAGE_ADMISSION),
                        stage: STAGE_DISPATCH,
                        clock: at,
                        entity,
                        cost: field_u64(event, "delay").unwrap_or(0),
                        note: String::new(),
                    },
                );
                push(
                    trace,
                    flow,
                    false,
                    TraceSpan {
                        id: span_id(trace, at, STAGE_VERIFY),
                        parent: span_id(trace, at, STAGE_DISPATCH),
                        stage: STAGE_VERIFY,
                        clock: at,
                        entity,
                        cost: field_u64(event, "steps").unwrap_or(0),
                        note: field_str(event, "halt").unwrap_or("").to_owned(),
                    },
                );
            }
            KIND_SPAN_INSTALL => {
                let trace = field_u64(event, "trace").unwrap_or(0);
                let router = field_u64(event, "router").unwrap_or(0);
                let relay = field_u64(event, "relay").unwrap_or(0);
                let flow = entity_flow("router", router);
                let installed = field_u64(event, "installed").unwrap_or(0) == 1;
                if let Some((op_clock, sequence)) = operator {
                    push(
                        trace,
                        flow,
                        true,
                        TraceSpan {
                            id: span_id(trace, op_clock, STAGE_OPERATOR),
                            parent: 0,
                            stage: STAGE_OPERATOR,
                            clock: op_clock,
                            entity: -1,
                            cost: sequence,
                            note: "update prepared".to_owned(),
                        },
                    );
                }
                if let Some(&(relay_clock, attempts)) = relays.get(&relay) {
                    push(
                        trace,
                        flow,
                        true,
                        TraceSpan {
                            id: span_id(trace, relay_clock, STAGE_RELAY),
                            parent: operator.map_or(0, |(c, _)| span_id(trace, c, STAGE_OPERATOR)),
                            stage: STAGE_RELAY,
                            clock: relay_clock,
                            entity: relay as i64,
                            cost: attempts,
                            note: "synced".to_owned(),
                        },
                    );
                }
                push(
                    trace,
                    flow,
                    true,
                    TraceSpan {
                        id: span_id(trace, clock, STAGE_INSTALL),
                        parent: relays
                            .get(&relay)
                            .map_or(0, |&(c, _)| span_id(trace, c, STAGE_RELAY)),
                        stage: STAGE_INSTALL,
                        clock,
                        entity: router as i64,
                        cost: field_u64(event, "cycles").unwrap_or(0),
                        note: if installed {
                            "installed"
                        } else {
                            "quarantined"
                        }
                        .to_owned(),
                    },
                );
            }
            _ => {}
        }
    }

    let mut out: Vec<Trace> = traces
        .into_iter()
        .map(|(id, (flow, sampled, mut spans))| {
            spans.sort_by_key(|s| (s.clock, stage_rank(s.stage)));
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
        let a = span_id(9, 100, STAGE_VERIFY);
        assert_eq!(a, span_id(9, 100, STAGE_VERIFY));
        assert_ne!(a, span_id(9, 100, STAGE_DISPATCH));
        assert_ne!(a, span_id(9, 101, STAGE_VERIFY));
        assert_ne!(a, span_id(8, 100, STAGE_VERIFY));
    }

    fn sampled_chain(trace: u64, flow: u64, clock: u64) -> Vec<Event> {
        vec![
            Event::new(KIND_SPAN_INGEST, clock)
                .field("trace", trace)
                .field("flow", flow),
            Event::new(KIND_SPAN_ADMIT, clock)
                .field("trace", trace)
                .field("core", 3u64)
                .field("delay", 2u64)
                .field("admitted", true),
            Event::new(KIND_SPAN_DISPATCH, clock)
                .field("trace", trace)
                .field("core", 3u64)
                .field("qpos", 2u64),
            Event::new(KIND_SPAN_VERIFY, clock)
                .field("trace", trace)
                .field("core", 3u64)
                .field("steps", 57u64)
                .field("blocks", 3u64)
                .field("halt", "clean"),
        ]
    }

    #[test]
    fn assembles_a_sampled_chain_with_linked_parents() {
        let events = sampled_chain(0xABCD, 0xF10, 42);
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.id, t.flow, t.sampled), (0xABCD, 0xF10, true));
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].stage, STAGE_INGEST);
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
        let events = vec![
            Event::new(KIND_FLIGHT, detection)
                .field("trace", 7u64)
                .field("core", 1u64)
                .field("flow", 0xBEEFu64)
                .field("window_index", 0u64)
                .field("at", 80u64)
                .field("delay", 1u64)
                .field("steps", 33u64)
                .field("halt", "clean"),
            Event::new(KIND_FLIGHT, detection)
                .field("trace", 7u64)
                .field("core", 1u64)
                .field("flow", 0xBEEFu64)
                .field("window_index", 1u64)
                .field("at", 85u64)
                .field("delay", 0u64)
                .field("steps", 12u64)
                .field("halt", "violation"),
            Event::new(KIND_SPAN_RESPOND, 85)
                .field("trace", 7u64)
                .field("core", 1u64)
                .field("action", "quarantine")
                .field("level", "high"),
        ];
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(!t.sampled, "flight promotions are tail-sampled");
        // Two packets × (admission, dispatch, verify) + one respond.
        assert_eq!(t.spans.len(), 7);
        let respond = t.spans.last().unwrap();
        assert_eq!(respond.stage, STAGE_RESPOND);
        assert_eq!(
            respond.parent,
            span_id(7, 85, STAGE_VERIFY),
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
            vec![STAGE_RESPOND, STAGE_VERIFY, STAGE_DISPATCH, STAGE_ADMISSION]
        );
    }

    #[test]
    fn fleet_install_chains_operator_relay_router() {
        let tc = TraceContext::new(5, 1000);
        let trace = tc.trace_id(entity_flow("router", 2));
        let events = vec![
            Event::new(KIND_SPAN_OPERATOR, 0).field("sequence", 4u64),
            Event::new(KIND_SPAN_RELAY, 12)
                .field("relay", 1u64)
                .field("attempts", 12u64),
            Event::new(KIND_SPAN_INSTALL, 30)
                .field("trace", trace)
                .field("router", 2u64)
                .field("relay", 1u64)
                .field("cycles", 1u64)
                .field("installed", true),
        ];
        let traces = assemble_traces(&events);
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        assert_eq!(
            spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![STAGE_OPERATOR, STAGE_RELAY, STAGE_INSTALL]
        );
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(traces[0].flow, entity_flow("router", 2));
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
