//! Tracing: trace ids, RAII timed spans, ring-buffered event log.
//!
//! * A [`TraceId`] names one logical request end to end. The serving
//!   layer allocates one per request from a per-server counter
//!   (deterministic for golden tests) and echoes it in the response;
//!   [`set_current_trace`] propagates it onto the worker thread so
//!   events emitted downstream carry it automatically.
//! * A [`Span`] is an RAII guard that pushes its name onto a
//!   per-thread span stack on creation and pops it on drop, optionally
//!   recording its wall time into a [`Histogram`]. The current stack
//!   (joined with `>`) is attached to every event.
//! * The [`EventLog`] is a fixed-capacity ring of structured events
//!   with severity filtering and a configurable sink: [`Sink::Memory`]
//!   keeps events for tests/`recent()`; [`Sink::Stderr`] additionally
//!   writes each event as one JSON line to stderr.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::ledger::EventLedger;
use crate::registry::Histogram;

/// Identifier propagated across one logical request. Zero means "no
/// trace"; rendered as 16 hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The absent trace id.
    pub const NONE: TraceId = TraceId(0);

    /// Wraps a raw id (servers allocate these from their own counter).
    pub fn from_u64(raw: u64) -> TraceId {
        TraceId(raw)
    }

    /// Raw value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is a real trace id.
    pub fn is_set(self) -> bool {
        self.0 != 0
    }

    /// Parses the wire form: exactly 16 lowercase hex digits, nonzero.
    /// This is the validation gate for client-supplied `"trace"` ids —
    /// anything else is rejected rather than silently replaced.
    pub fn parse_hex(text: &str) -> Option<TraceId> {
        if text.len() != 16 {
            return None;
        }
        if !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        match u64::from_str_radix(text, 16) {
            Ok(0) | Err(_) => None,
            Ok(raw) => Some(TraceId(raw)),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Process-wide trace id allocator (used where no per-server counter
/// exists, e.g. `bmb mine --trace`).
pub fn next_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

thread_local! {
    static CURRENT_TRACE: StdCell<u64> = const { StdCell::new(0) };
    static CURRENT_SPAN: StdCell<u64> = const { StdCell::new(0) };
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Sets this thread's current trace id, returning the previous one so
/// callers can restore it (worker threads are pooled).
pub fn set_current_trace(id: TraceId) -> TraceId {
    CURRENT_TRACE.with(|c| TraceId(c.replace(id.0)))
}

/// This thread's current trace id ([`TraceId::NONE`] if unset).
pub fn current_trace() -> TraceId {
    CURRENT_TRACE.with(|c| TraceId(c.get()))
}

/// Sets this thread's current *recorded* span id (the parent for child
/// spans fanned out downstream), returning the previous one so pooled
/// worker threads can restore it. Distinct from the named
/// [`span_path`] stack: this is the cross-process tree identity, that
/// is human-readable context.
pub fn set_current_span(id: u64) -> u64 {
    CURRENT_SPAN.with(|c| c.replace(id))
}

/// This thread's current recorded span id (0 if unset).
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// This thread's span stack joined with `>` (empty string when no span
/// is open).
pub fn span_path() -> String {
    SPAN_STACK.with(|s| s.borrow().join(">"))
}

/// RAII timed span. Create with [`span`] or [`span_timed`]; the guard
/// pops itself (and records its duration) on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    timer: Option<Histogram>,
}

/// Opens a span: pushes `name` onto this thread's span stack.
pub fn span(name: &'static str) -> Span {
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        name,
        start: Instant::now(),
        timer: None,
    }
}

/// Opens a span that records its wall time (µs) into `timer` on drop.
pub fn span_timed(name: &'static str, timer: &Histogram) -> Span {
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        name,
        start: Instant::now(),
        timer: Some(timer.clone()),
    }
}

impl Span {
    /// Wall time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Span name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own frame; tolerate a foreign top (mismatched
            // drop order) by searching from the back.
            if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                stack.remove(pos);
            }
        });
        if let Some(timer) = &self.timer {
            timer.record_duration(self.start.elapsed());
        }
    }
}

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Development detail (span closes, cache decisions).
    Debug,
    /// Normal operational landmarks (startup, recovery summary).
    Info,
    /// Unexpected but handled (slow query, repaired WAL tail).
    Warn,
    /// Functionality lost (degraded WAL).
    Error,
}

impl Severity {
    fn from_u8(raw: u8) -> Severity {
        match raw {
            0 => Severity::Debug,
            1 => Severity::Info,
            2 => Severity::Warn,
            _ => Severity::Error,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Severity::Debug => 0,
            Severity::Info => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }

    /// Lower-case name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Where emitted events go (always the in-memory ring; optionally
/// stderr too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sink {
    /// Ring buffer only (default; what tests read back).
    Memory,
    /// Ring buffer plus one JSON line per event on stderr.
    Stderr,
}

/// One structured event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (per log).
    pub seq: u64,
    /// Microseconds since the Unix epoch at emission.
    pub unix_micros: u64,
    /// Severity level.
    pub severity: Severity,
    /// Trace id current on the emitting thread (0 when none).
    pub trace: u64,
    /// Span stack at emission, joined with `>`.
    pub span: String,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value payload.
    pub fields: Vec<(String, String)>,
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{{\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\"trace\":\"{}\",\"span\":\"{}\",\"msg\":\"{}\"",
                self.seq,
                self.unix_micros,
                self.severity.as_str(),
                TraceId(self.trace),
                json_escape(&self.span),
                json_escape(&self.message),
            ),
        );
        for (key, value) in &self.fields {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(",\"{}\":\"{}\"", json_escape(key), json_escape(value)),
            );
        }
        out.push('}');
        out
    }
}

/// Fixed-capacity ring of structured events with severity filtering.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    seq: AtomicU64,
    min_severity: AtomicU8,
    sink: AtomicU8,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    /// Optional persisted ledger every retained event is appended to
    /// (see [`EventLedger`]); the slot lock is never held across the
    /// ledger's own I/O.
    ledger: Mutex<Option<Arc<EventLedger>>>,
}

impl EventLog {
    /// A log keeping at most `capacity` recent events (sink
    /// [`Sink::Memory`], minimum severity [`Severity::Info`]).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            min_severity: AtomicU8::new(Severity::Info.as_u8()),
            sink: AtomicU8::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            ledger: Mutex::new(None),
        }
    }

    /// Attaches a persisted ledger: every retained event is also
    /// appended (as its JSON line) to `ledger`. Pass-through for the
    /// process-global log on cluster nodes; detach with
    /// [`EventLog::detach_ledger`].
    pub fn attach_ledger(&self, ledger: Arc<EventLedger>) {
        *self.ledger.lock().unwrap_or_else(PoisonError::into_inner) = Some(ledger);
    }

    /// Detaches the persisted ledger, if any, returning it.
    pub fn detach_ledger(&self) -> Option<Arc<EventLedger>> {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// The attached ledger, if any (the `events` wire command serves
    /// from it when present).
    pub fn ledger(&self) -> Option<Arc<EventLedger>> {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Sets the sink.
    pub fn set_sink(&self, sink: Sink) {
        let raw = match sink {
            Sink::Memory => 0,
            Sink::Stderr => 1,
        };
        // ordering: stale reads just route a few events to the old sink.
        self.sink.store(raw, Ordering::Relaxed);
    }

    /// Sets the minimum severity retained (below it, `emit` is a
    /// single atomic load and return).
    pub fn set_min_severity(&self, severity: Severity) {
        // ordering: the floor is advisory; racing emits may use the old one.
        self.min_severity.store(severity.as_u8(), Ordering::Relaxed);
    }

    /// Current severity floor.
    pub fn min_severity(&self) -> Severity {
        // ordering: see set_min_severity — the floor is advisory.
        Severity::from_u8(self.min_severity.load(Ordering::Relaxed))
    }

    /// Emits an event carrying the thread's current trace id and span
    /// path. Events below the severity floor are discarded cheaply.
    pub fn emit(&self, severity: Severity, message: &str, fields: &[(&str, &str)]) {
        // ordering: a stale floor only affects events racing the change.
        if severity.as_u8() < self.min_severity.load(Ordering::Relaxed) {
            return;
        }
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            unix_micros: unix_micros_now(),
            severity,
            trace: current_trace().as_u64(),
            span: span_path(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        };
        // ordering: a stale sink misdirects only events racing set_sink.
        if self.sink.load(Ordering::Relaxed) == 1 {
            let mut line = event.to_json_line();
            line.push('\n');
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        let ledger = self.ledger();
        if let Some(ledger) = &ledger {
            ledger.append_line(&event.to_json_line());
        }
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Copies the retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().cloned().collect()
    }

    /// How many events the ring has evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the ring (tests).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.clear();
    }
}

/// Microseconds since the Unix epoch, for span and event stamps.
///
/// The wall clock is read once per process; each reading adds the
/// monotonic time since then. Stamps therefore never step with the wall
/// clock, and a stamp taken next to an `Instant` stays in line with the
/// durations measured from it.
pub fn unix_micros_now() -> u64 {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    let (anchor, anchor_unix_us) = *ANCHOR.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        (Instant::now(), unix_us)
    });
    let since = u64::try_from(anchor.elapsed().as_micros()).unwrap_or(u64::MAX);
    anchor_unix_us.saturating_add(since)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_micros_never_decrease_and_track_instant() {
        let start = Instant::now();
        let first = unix_micros_now();
        let mut last = first;
        for _ in 0..10_000 {
            let now = unix_micros_now();
            assert!(now >= last, "stamp went back from {last} to {now}");
            last = now;
        }
        std::thread::sleep(Duration::from_millis(20));
        let advanced = unix_micros_now() - first;
        let elapsed = u64::try_from(start.elapsed().as_micros()).unwrap();
        // Each stamp truncates to whole µs, hence the ±1.
        assert!(
            (19_999..=elapsed + 1).contains(&advanced),
            "stamps advanced {advanced} µs over a 20 ms sleep inside {elapsed} µs"
        );
        let wall = SystemTime::now().duration_since(UNIX_EPOCH).unwrap();
        let wall_us = u64::try_from(wall.as_micros()).unwrap();
        assert!(
            wall_us.abs_diff(unix_micros_now()) < 5_000_000,
            "stamps are Unix microseconds"
        );
    }

    #[test]
    fn span_stack_tracks_nesting() {
        assert_eq!(span_path(), "");
        let _outer = span("mine");
        {
            let _inner = span("count");
            assert_eq!(span_path(), "mine>count");
        }
        assert_eq!(span_path(), "mine");
        drop(_outer);
        assert_eq!(span_path(), "");
    }

    #[test]
    fn timed_span_records_into_histogram() {
        let hist = Histogram::detached();
        {
            let _span = span_timed("work", &hist);
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum >= 2_000, "2ms sleep is at least 2000us");
    }

    #[test]
    fn event_log_rings_and_counts_drops() {
        let log = EventLog::new(2);
        log.emit(Severity::Info, "a", &[]);
        log.emit(Severity::Info, "b", &[]);
        log.emit(Severity::Info, "c", &[]);
        let events = log.recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "b");
        assert_eq!(events[1].message, "c");
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn severity_floor_filters() {
        let log = EventLog::new(8);
        log.emit(Severity::Debug, "hidden", &[]);
        log.emit(Severity::Warn, "kept", &[]);
        let events = log.recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "kept");
    }

    #[test]
    fn parse_hex_accepts_only_canonical_ids() {
        assert_eq!(
            TraceId::parse_hex("00000000000000ab"),
            Some(TraceId::from_u64(0xab))
        );
        let id = TraceId::from_u64(0xdead_beef_0123);
        assert_eq!(TraceId::parse_hex(&id.to_string()), Some(id));
        for bad in [
            "",
            "ab",                // too short
            "00000000000000abc", // too long
            "00000000000000AB",  // uppercase
            "0000000000000000",  // zero
            "0000000000000zzz",  // non-hex
            " 0000000000000ab",  // whitespace
            "+0000000000000ab",  // sign
        ] {
            assert_eq!(TraceId::parse_hex(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn current_span_propagates_and_restores() {
        assert_eq!(current_span(), 0);
        let prev = set_current_span(42);
        assert_eq!(prev, 0);
        assert_eq!(current_span(), 42);
        set_current_span(prev);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn attached_ledger_receives_event_lines() {
        let mut path = std::env::temp_dir();
        path.push(format!("bmb_eventlog_ledger_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = EventLog::new(8);
        log.attach_ledger(Arc::new(EventLedger::open(&path, 32).unwrap()));
        log.emit(Severity::Warn, "promotion", &[("generation", "3")]);
        let lines = log.ledger().unwrap().read_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"msg\":\"promotion\""));
        assert!(lines[0].contains("\"generation\":\"3\""));
        assert!(log.detach_ledger().is_some());
        log.emit(Severity::Warn, "after detach", &[]);
        // Detached: the file must not grow.
        let ledger = EventLedger::open(&path, 32).unwrap();
        assert_eq!(ledger.read_lines().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_carry_trace_and_fields_in_json() {
        let log = EventLog::new(8);
        let prev = set_current_trace(TraceId::from_u64(0xabc));
        log.emit(
            Severity::Warn,
            "slow \"query\"",
            &[("cmd", "chi2"), ("us", "1500")],
        );
        set_current_trace(prev);
        let events = log.recent();
        assert_eq!(events[0].trace, 0xabc);
        let line = events[0].to_json_line();
        assert!(line.contains("\"trace\":\"0000000000000abc\""));
        assert!(line.contains("\"msg\":\"slow \\\"query\\\"\""));
        assert!(line.contains("\"cmd\":\"chi2\""));
        assert!(line.contains("\"us\":\"1500\""));
    }
}
