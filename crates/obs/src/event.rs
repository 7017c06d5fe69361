//! The structured event stream: typed events with a logical clock,
//! collected on an [`EventBus`] and rendered as versioned JSONL.
//!
//! Determinism contract: an event's `clock` is always a *logical* quantity
//! the producer derives from its own deterministic state — a packet
//! ordinal, a transport-attempt count, a retired-instruction count — never
//! wall time. Producers running on worker threads collect into their own
//! `Vec<Event>`; the owner merges those buffers deterministically after the
//! barrier (the sharded engine sorts them by clock and hands the result to
//! [`EventBus::extend`]), so the rendered stream is byte-identical per
//! seed regardless of scheduling.

use crate::json::write_json_string;
use crate::trace::{Span, TraceContext};
use std::sync::Mutex;

/// Schema identifier stamped on every rendered event line (bump on layout
/// changes).
pub const EVENTS_SCHEMA: &str = "sdmmon-events-v1";

/// One typed event field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned counter / ordinal.
    U64(u64),
    /// Short label (router name, outcome kind, error text).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured event: a dotted `kind`, a logical clock, and flat typed
/// fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event type, e.g. `supervisor.quarantine` (see
    /// `docs/OBSERVABILITY.md` for the catalog).
    pub kind: &'static str,
    /// Logical timestamp — a deterministic count, never wall time.
    pub clock: u64,
    /// Flat fields, rendered in insertion order.
    pub fields: Vec<(&'static str, Value)>,
    /// The typed record of a span event ([`Span::event`]), rendered
    /// before `fields`; `None` for every other kind.
    pub span: Option<Span>,
}

impl Event {
    /// Creates an event with no fields.
    pub fn new(kind: &'static str, clock: u64) -> Event {
        Event {
            kind,
            clock,
            fields: Vec::new(),
            span: None,
        }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Renders the single JSONL line for this event with stream sequence
    /// number `seq`. The first three keys (`schema`, `seq`, `clock`) are
    /// fixed; `kind` follows, then a span's record fields in declaration
    /// order, then `fields` in insertion order.
    pub fn render_line(&self, seq: u64) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"schema\":");
        write_json_string(&mut out, EVENTS_SCHEMA);
        out.push_str(&format!(
            ",\"seq\":{seq},\"clock\":{},\"kind\":",
            self.clock
        ));
        write_json_string(&mut out, self.kind);
        let mut field = |key: &str, value: &Value| {
            out.push(',');
            write_json_string(&mut out, key);
            out.push(':');
            match value {
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Value::Str(v) => write_json_string(&mut out, v),
            }
        };
        if let Some(span) = self.span {
            span.for_each_field(|key, value| field(key, &value));
        }
        for (key, value) in &self.fields {
            field(key, value);
        }
        out.push('}');
        out
    }
}

/// The shared event sink: an append-only, mutex-guarded event list, and
/// the span/trace context its producers emit `span.*` events under.
///
/// The bus itself does no ordering magic — determinism is the *producers'*
/// contract (record on deterministic paths, or buffer per worker and
/// merge in a fixed order). Sequence numbers are assigned at render time
/// from the stored order, so a bus filled deterministically renders
/// byte-identically.
#[derive(Debug, Default)]
pub struct EventBus {
    events: Mutex<Vec<Event>>,
    trace: Option<TraceContext>,
}

impl EventBus {
    /// An empty, untraced bus: producers record their events but no span.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// An empty bus whose producers also emit the causal span layer under
    /// `trace` (see [`crate::trace`]).
    pub fn traced(trace: TraceContext) -> EventBus {
        EventBus {
            trace: Some(trace),
            ..EventBus::default()
        }
    }

    /// The span/trace context of a traced bus.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Appends one event.
    pub fn record(&self, event: Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// Appends a batch of events in the iterator's order.
    pub fn extend(&self, events: impl IntoIterator<Item = Event>) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(events);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all events in recorded order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Renders the whole stream as `sdmmon-events-v1` JSONL (one event per
    /// line, trailing newline, `seq` numbered from 0 in recorded order)
    /// without consuming it.
    pub fn render_jsonl(&self) -> String {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(events.len() * 96);
        for (seq, event) in events.iter().enumerate() {
            out.push_str(&event.render_line(seq as u64));
            out.push('\n');
        }
        out
    }
}

/// Validates one rendered event line: it must be a minimally well-formed
/// flat JSON object that starts with the `schema`/`seq`/`clock`/`kind`
/// header and repeats no top-level key. Returns a description of the
/// first problem. (CI additionally runs a full JSON parse over the
/// emitted files; this is the in-process check the tests use.)
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let expected = format!("{{\"schema\":\"{EVENTS_SCHEMA}\",\"seq\":");
    if !line.starts_with(&expected) {
        return Err(format!("line does not carry the schema header: {line}"));
    }
    if !line.ends_with('}') {
        return Err(format!("line is not a closed object: {line}"));
    }
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0i32;
    // Top-level keys in appearance order. A key is the string that opens
    // right after `{` or `,` at depth 1; tracking the preceding
    // structural character is enough because the object is flat.
    let mut keys: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut key_position = true;
    for c in line.chars() {
        if escaped {
            escaped = false;
            current.push(c);
            continue;
        }
        match c {
            '\\' if in_string => {
                escaped = true;
                current.push(c);
            }
            '"' if in_string => {
                in_string = false;
                if depth == 1 && key_position {
                    keys.push(std::mem::take(&mut current));
                    key_position = false;
                }
                current.clear();
            }
            '"' => {
                in_string = true;
                current.clear();
            }
            _ if in_string => current.push(c),
            '{' => {
                depth += 1;
                key_position = true;
            }
            '}' => depth -= 1,
            ',' if depth == 1 => key_position = true,
            _ => {}
        }
    }
    if in_string || depth != 0 {
        return Err(format!("unbalanced quotes or braces: {line}"));
    }
    let mut seen: Vec<&str> = Vec::with_capacity(keys.len());
    for key in &keys {
        if seen.contains(&key.as_str()) {
            return Err(format!("duplicate key `{key}`: {line}"));
        }
        seen.push(key);
    }
    Ok(())
}

/// Stateful validator for a whole `sdmmon-events-v1` stream from one
/// producer: every line must pass [`validate_event_line`], `seq` must
/// count up from 0 with no gaps, and the logical clock must be
/// *monotone per kind* — each emission site derives its clock from its
/// own advancing count (packet ordinals, transport attempts), so within
/// one producer stream a kind's clock can repeat but never run
/// backwards. (Different kinds legitimately interleave at different
/// clock bases: admission spans for a round render before that round's
/// execution events.)
#[derive(Debug, Default)]
pub struct StreamValidator {
    next_seq: u64,
    last_clock: Vec<(String, u64)>,
}

impl StreamValidator {
    /// A validator expecting `seq` 0 next.
    pub fn new() -> StreamValidator {
        StreamValidator::default()
    }

    /// Checks the next line of the stream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: a malformed
    /// or duplicate-keyed line, an out-of-order `seq`, or a kind whose
    /// clock ran backwards.
    pub fn check_line(&mut self, line: &str) -> Result<(), String> {
        validate_event_line(line)?;
        let seq = extract_u64(line, "\"seq\":")
            .ok_or_else(|| format!("line has no numeric seq: {line}"))?;
        if seq != self.next_seq {
            return Err(format!(
                "seq {seq} out of order (expected {})",
                self.next_seq
            ));
        }
        self.next_seq += 1;
        let clock = extract_u64(line, "\"clock\":")
            .ok_or_else(|| format!("line has no numeric clock: {line}"))?;
        let kind =
            extract_str(line, "\"kind\":\"").ok_or_else(|| format!("line has no kind: {line}"))?;
        match self.last_clock.iter_mut().find(|(k, _)| k == &kind) {
            Some((_, last)) => {
                if clock < *last {
                    return Err(format!(
                        "non-monotone clock for kind `{kind}`: {clock} after {last}"
                    ));
                }
                *last = clock;
            }
            None => self.last_clock.push((kind, clock)),
        }
        Ok(())
    }

    /// Checks a whole rendered JSONL stream.
    ///
    /// # Errors
    ///
    /// First failing line's error, prefixed with its 0-based line number.
    pub fn check_stream(jsonl: &str) -> Result<(), String> {
        let mut v = StreamValidator::new();
        for (n, line) in jsonl.lines().enumerate() {
            v.check_line(line).map_err(|e| format!("line {n}: {e}"))?;
        }
        Ok(())
    }
}

/// Pulls the unsigned integer right after `marker` out of a rendered
/// line. Good enough for the fixed header keys, which render unquoted.
fn extract_u64(line: &str, marker: &str) -> Option<u64> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the string right after `marker` (up to the closing quote).
/// Event kinds never contain escapes, which the emitters guarantee by
/// using `&'static str` dotted identifiers.
fn extract_str(line: &str, marker: &str) -> Option<String> {
    let rest = &line[line.find(marker)? + marker.len()..];
    Some(rest[..rest.find('"')?].to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_header_then_fields_in_order() {
        let event = Event::new("supervisor.redeploy", 17)
            .field("core", 3u64)
            .field("router", "router-1")
            .field("final", true);
        assert_eq!(
            event.render_line(5),
            "{\"schema\":\"sdmmon-events-v1\",\"seq\":5,\"clock\":17,\
             \"kind\":\"supervisor.redeploy\",\"core\":3,\"router\":\"router-1\",\"final\":true}"
        );
    }

    #[test]
    fn bus_assigns_sequence_in_recorded_order() {
        let bus = EventBus::new();
        bus.record(Event::new("a", 1));
        bus.extend([Event::new("b", 2), Event::new("c", 3)]);
        let jsonl = bus.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seq\":0") && lines[0].contains("\"kind\":\"a\""));
        assert!(lines[1].contains("\"seq\":1") && lines[1].contains("\"kind\":\"b\""));
        assert!(lines[2].contains("\"seq\":2") && lines[2].contains("\"kind\":\"c\""));
        assert_eq!(bus.len(), 3, "render does not consume");
        assert_eq!(bus.take().len(), 3);
        assert!(bus.is_empty());
    }

    #[test]
    fn rendering_twice_is_byte_identical() {
        let bus = EventBus::new();
        for i in 0..10 {
            bus.record(Event::new("tick", i).field("i", i));
        }
        assert_eq!(bus.render_jsonl(), bus.render_jsonl());
    }

    #[test]
    fn every_rendered_line_validates() {
        let bus = EventBus::new();
        bus.record(Event::new("weird.chars", 0).field("text", "a\"b\\c\nnewline"));
        bus.record(Event::new("plain", 1).field("n", 42u64));
        for line in bus.render_jsonl().lines() {
            validate_event_line(line).expect("line validates");
        }
        assert!(validate_event_line("{\"nope\":1}").is_err());
        assert!(validate_event_line("{\"schema\":\"sdmmon-events-v1\",\"seq\":0,\"x\":").is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let dup = "{\"schema\":\"sdmmon-events-v1\",\"seq\":0,\"clock\":3,\
                   \"kind\":\"x\",\"core\":1,\"core\":2}";
        let err = validate_event_line(dup).unwrap_err();
        assert!(err.contains("duplicate key `core`"), "got: {err}");
        // A field value that repeats a key *string* is not a duplicate.
        let ok = "{\"schema\":\"sdmmon-events-v1\",\"seq\":0,\"clock\":3,\
                  \"kind\":\"x\",\"note\":\"core\"}";
        validate_event_line(ok).expect("string values are not keys");
        // An event that repeats a builder field renders a duplicate.
        let line = Event::new("x", 1)
            .field("a", 1u64)
            .field("a", 2u64)
            .render_line(0);
        assert!(validate_event_line(&line).is_err());
    }

    #[test]
    fn stream_validator_accepts_per_kind_monotone_clocks() {
        let bus = EventBus::new();
        bus.record(Event::new("a.tick", 5));
        bus.record(Event::new("b.tick", 1)); // other kinds may start lower
        bus.record(Event::new("a.tick", 5)); // equal clocks are fine
        bus.record(Event::new("b.tick", 9));
        StreamValidator::check_stream(&bus.render_jsonl()).expect("stream validates");
    }

    #[test]
    fn stream_validator_rejects_backwards_clock_within_a_kind() {
        let bus = EventBus::new();
        bus.record(Event::new("a.tick", 5));
        bus.record(Event::new("a.tick", 4));
        let err = StreamValidator::check_stream(&bus.render_jsonl()).unwrap_err();
        assert!(err.contains("non-monotone clock"), "got: {err}");
    }

    #[test]
    fn stream_validator_rejects_seq_gaps() {
        let bus = EventBus::new();
        bus.record(Event::new("a.tick", 1));
        bus.record(Event::new("a.tick", 2));
        let jsonl = bus.render_jsonl();
        let second = jsonl.lines().nth(1).unwrap();
        let mut v = StreamValidator::new();
        let err = v.check_line(second).unwrap_err();
        assert!(err.contains("out of order"), "got: {err}");
    }
}
