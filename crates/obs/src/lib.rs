//! # sdmmon-obs — deterministic observability layer
//!
//! The rest of the workspace is built around one contract: *everything
//! replays byte-identically from a seed*. A telemetry layer that stamps
//! wall-clock times or depends on thread interleaving would break that
//! contract the moment it was wired in, so this crate provides two
//! primitives designed around determinism instead:
//!
//! * **[`EventBus`]** — a structured event stream. Every [`Event`] carries
//!   a caller-supplied *logical* clock (packet ordinals, transport-attempt
//!   counts, retired-instruction counts — never wall time) and renders to
//!   one line of the versioned [`EVENTS_SCHEMA`] JSONL format. Producers
//!   that run on worker threads collect into their own `Vec<Event>` and
//!   the owner merges those buffers in a deterministic order (the sharded
//!   engine sorts them by clock) before [`EventBus::extend`], so the
//!   serialized stream is a pure function of the inputs.
//! * **[`MetricsRegistry`]** — counters, gauges, and fixed-bucket
//!   histograms over relaxed atomics. Recording is a handful of
//!   uncontended-in-practice atomic adds, cheap enough for per-packet hot
//!   paths; all operations are commutative, so the *snapshot* is
//!   deterministic even when the recording interleaving is not.
//! * **[`trace`]** — the causal layer on top of the event stream: a
//!   seeded per-mille flow sampler and stable trace/span ids
//!   ([`TraceContext`], [`span_id`]), span events that ride the existing
//!   clock-ordered merges, and [`assemble_traces`] to rebuild
//!   ingest → admission → dispatch → verify → respond chains (and the
//!   fleet-side operator → relay → install chains) byte-identically at
//!   any shard count.
//!
//! This crate sits below every other `sdmmon-*` crate (it depends on
//! nothing), which is why it carries its own minimal JSON rendering
//! instead of reusing the testkit's report builder.
//!
//! Nothing records per retired instruction: everything in this crate
//! records at packet or coarser granularity. The default observability
//! level is *events off* (no bus attached), *metrics on*.

mod event;
mod json;
mod metrics;
pub mod trace;

pub use event::{validate_event_line, Event, EventBus, StreamValidator, Value, EVENTS_SCHEMA};
pub use json::write_json_string;
pub use metrics::{
    bucket_bounds, bucket_index, metrics, percentile, Counter, Gauge, Hist, MetricsRegistry,
    HIST_BUCKETS, MAX_SHARD_SLOTS, METRICS_SCHEMA,
};
pub use trace::{assemble_traces, span_id, Trace, TraceContext, TraceSpan, TRACE_SCHEMA};
