//! Request-lifecycle tracing for the serve stack: one trace per query
//! line, with a span per pipeline phase.
//!
//! The serve path is `accept → read/parse → dispatch queue → executor →
//! reply serialization → write buffer → socket`, and a slow reply can hide
//! in any of those hops. A [`ReqTraceBuilder`] is created when a request
//! line is framed, carried through the worker pool with the job, and
//! committed once the reply's last byte is flushed (or the connection
//! dies — `aborted`). Each phase records an absolute start offset and a
//! duration, so write-buffer residency (including backpressure stalls)
//! is visible as a real span, not an inferred gap.
//!
//! ## Phases
//!
//! | phase   | from                              | to                          |
//! |---------|-----------------------------------|-----------------------------|
//! | `recv`  | first byte of the line arriving   | line framed & dispatched    |
//! | `queue` | job enqueued to the worker pool   | a worker dequeues it        |
//! | `exec`  | worker starts (parse + run)       | query execution finishes    |
//! | `ser`   | reply serialization starts        | reply line rendered         |
//! | `write` | reply enqueued to the write buffer| last byte flushed to socket |
//!
//! ## Overhead contract
//!
//! [`ReqTraceLog::begin`] is gated on [`crate::counters_enabled`]: at
//! [`crate::ObsLevel::Off`] it is **one relaxed load and a branch**
//! returning `None`, and every downstream call site is an `if let` on a
//! local `Option` — no clock is read, no allocation happens, nothing is
//! recorded (`crates/bench/tests/obs_overhead.rs` asserts this on the
//! live serve hot path).
//!
//! ## Exports
//!
//! Committed traces land in a fixed-capacity overwrite-oldest ring
//! (`FRAPPE_REQTRACE_CAPACITY`, default 512) and surface three ways:
//! per-phase log2 histograms (`serve.req.*_ns`) in the metrics registry
//! (and therefore `/metrics`), Chrome trace-event JSON from
//! [`ReqTraceLog::to_chrome_json`] (the `/trace` endpoint —
//! `chrome://tracing`-loadable, checked by [`validate_chrome_trace`]),
//! and phase breakdowns patched onto matching slow-query-log entries.

use crate::slowlog::SlowQueryPhases;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (committed traces retained).
pub const DEFAULT_CAPACITY: usize = 512;

/// The request pipeline phases, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ReqPhase {
    /// First byte of the line arriving → line framed.
    Recv = 0,
    /// Dispatch-queue wait: enqueued → dequeued by a worker.
    Queue = 1,
    /// Executor time (query parse + run).
    Exec = 2,
    /// Reply serialization.
    Ser = 3,
    /// Write-buffer residency, including backpressure stalls.
    Write = 4,
}

/// Number of [`ReqPhase`] variants.
pub const PHASE_COUNT: usize = 5;

impl ReqPhase {
    /// All phases, in pipeline order.
    pub const ALL: [ReqPhase; PHASE_COUNT] = [
        ReqPhase::Recv,
        ReqPhase::Queue,
        ReqPhase::Exec,
        ReqPhase::Ser,
        ReqPhase::Write,
    ];

    /// Short phase name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            ReqPhase::Recv => "recv",
            ReqPhase::Queue => "queue",
            ReqPhase::Exec => "exec",
            ReqPhase::Ser => "ser",
            ReqPhase::Write => "write",
        }
    }

    /// Registry histogram fed by this phase on commit.
    pub fn histogram_name(self) -> &'static str {
        match self {
            ReqPhase::Recv => "serve.req.recv_ns",
            ReqPhase::Queue => "serve.req.queue_ns",
            ReqPhase::Exec => "serve.req.exec_ns",
            ReqPhase::Ser => "serve.req.ser_ns",
            ReqPhase::Write => "serve.req.write_ns",
        }
    }
}

/// One recorded phase: epoch-relative start and duration, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Start offset from the trace log's epoch.
    pub start_ns: u64,
    /// Phase duration.
    pub dur_ns: u64,
}

/// One committed request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqRecord {
    /// Globally unique, monotonically assigned trace id.
    pub id: u64,
    /// Connection token the request arrived on.
    pub conn: u64,
    /// Per-connection protocol sequence number.
    pub seq: u64,
    /// Epoch-relative trace start (builder creation), nanoseconds.
    pub start_ns: u64,
    /// Epoch-relative trace end (commit), nanoseconds.
    pub end_ns: u64,
    /// Recorded phase spans, indexed by [`ReqPhase`]; `None` when the
    /// request never entered that phase.
    pub phases: [Option<PhaseSpan>; PHASE_COUNT],
    /// Executor operators (name, duration ns) nested under the `exec`
    /// span, captured from the query profile when available.
    pub ops: Vec<(&'static str, u64)>,
    /// The connection died before the reply flushed.
    pub aborted: bool,
}

impl ReqRecord {
    /// Duration of `phase`, 0 when not recorded.
    pub fn phase_ns(&self, phase: ReqPhase) -> u64 {
        self.phases[phase as usize].map_or(0, |s| s.dur_ns)
    }
}

/// An in-flight request trace, carried with the request through the serve
/// pipeline (event loop → worker → write buffer). Obtained from
/// [`ReqTraceLog::begin`]; committed via [`ReqTraceLog::commit`].
#[derive(Debug)]
pub struct ReqTraceBuilder {
    record: ReqRecord,
    epoch: Instant,
    open: [Option<Instant>; PHASE_COUNT],
    slowlog_seq: Option<u64>,
}

impl ReqTraceBuilder {
    /// The trace id.
    pub fn id(&self) -> u64 {
        self.record.id
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens `phase` now. Re-entering an open phase restarts it.
    pub fn enter(&mut self, phase: ReqPhase) {
        self.open[phase as usize] = Some(Instant::now());
    }

    /// Closes `phase`, recording its span. No-op when the phase is not
    /// open (so callers can close defensively).
    pub fn exit(&mut self, phase: ReqPhase) {
        if let Some(started) = self.open[phase as usize].take() {
            self.record.phases[phase as usize] = Some(PhaseSpan {
                start_ns: self.offset_ns(started),
                dur_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Records `phase` as spanning from `earlier` to now (for phases whose
    /// start predates the builder, e.g. `recv` measured from the first
    /// byte of the line).
    pub fn phase_since(&mut self, phase: ReqPhase, earlier: Instant) {
        self.record.phases[phase as usize] = Some(PhaseSpan {
            start_ns: self.offset_ns(earlier),
            dur_ns: u64::try_from(earlier.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }

    /// Attaches the executor's per-operator breakdown (name, duration ns).
    pub fn set_ops(&mut self, ops: Vec<(&'static str, u64)>) {
        self.record.ops = ops;
    }

    /// Links this trace to a slow-query-log record: on commit, the phase
    /// breakdown is patched onto that entry.
    pub fn set_slowlog_seq(&mut self, seq: u64) {
        self.slowlog_seq = Some(seq);
    }

    /// Marks the request as aborted (connection died before the reply
    /// flushed).
    pub fn abort(&mut self) {
        self.record.aborted = true;
    }
}

struct Ring {
    buf: VecDeque<ReqRecord>,
    capacity: usize,
}

/// The global request-trace log. Obtain it via [`reqtrace`].
pub struct ReqTraceLog {
    epoch: Instant,
    next_id: AtomicU64,
    committed: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl ReqTraceLog {
    fn new(capacity: usize) -> ReqTraceLog {
        ReqTraceLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Starts a trace for request `seq` on connection `conn`. Returns
    /// `None` — after one relaxed load — unless counters are enabled,
    /// so the Off-level serve hot path never reads a clock for tracing.
    #[inline]
    pub fn begin(&'static self, conn: u64, seq: u64) -> Option<Box<ReqTraceBuilder>> {
        if !crate::counters_enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        Some(Box::new(ReqTraceBuilder {
            record: ReqRecord {
                id,
                conn,
                seq,
                start_ns: u64::try_from(now.saturating_duration_since(self.epoch).as_nanos())
                    .unwrap_or(u64::MAX),
                end_ns: 0,
                phases: [None; PHASE_COUNT],
                ops: Vec::new(),
                aborted: false,
            },
            epoch: self.epoch,
            open: [None; PHASE_COUNT],
            slowlog_seq: None,
        }))
    }

    /// Finishes a trace: closes any still-open phase, feeds the per-phase
    /// histograms, patches the linked slow-log entry, and retains the
    /// record in the ring (overwriting the oldest once full).
    pub fn commit(&self, mut builder: Box<ReqTraceBuilder>) {
        for phase in ReqPhase::ALL {
            builder.exit(phase);
        }
        let now = Instant::now();
        builder.record.end_ns =
            u64::try_from(now.saturating_duration_since(builder.epoch).as_nanos())
                .unwrap_or(u64::MAX);

        for phase in ReqPhase::ALL {
            if let Some(span) = builder.record.phases[phase as usize] {
                crate::registry()
                    .histogram(phase.histogram_name())
                    .record(span.dur_ns);
            }
        }
        crate::registry().counter("serve.req.traced").incr();
        if builder.record.aborted {
            crate::registry().counter("serve.req.aborted").incr();
        }

        if let Some(seq) = builder.slowlog_seq {
            let r = &builder.record;
            crate::slowlog().set_phases(
                seq,
                SlowQueryPhases {
                    queue_wait_us: r.phase_ns(ReqPhase::Queue) / 1_000,
                    exec_us: (r.phase_ns(ReqPhase::Exec) + r.phase_ns(ReqPhase::Ser)) / 1_000,
                    write_us: r.phase_ns(ReqPhase::Write) / 1_000,
                },
            );
        }

        self.committed.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(builder.record);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<ReqRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Traces ever committed.
    pub fn total_committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empties the ring (ids and totals persist).
    pub fn clear(&self) {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .clear();
    }

    /// Renders the retained traces as Chrome trace-event JSON (the "JSON
    /// object format": `{"traceEvents": [...]}`), loadable in
    /// `chrome://tracing` / Perfetto. Each request becomes a `request`
    /// complete event (`"ph": "X"`, microsecond `ts`/`dur`) on a track
    /// keyed by its connection, with its phases — and, under `exec`, the
    /// executor's operators — as further complete events.
    pub fn to_chrome_json(&self) -> String {
        let records = self.records();
        let mut out = String::from(
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\
             {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"frappe-serve\"}}",
        );
        let us = |ns: u64| ns as f64 / 1_000.0;
        for r in &records {
            let tid = r.conn & 0xffff_ffff;
            out.push_str(&format!(
                ",\n{{\"name\": \"request\", \"cat\": \"request\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"id\": {}, \"conn\": {}, \"seq\": {}, \"aborted\": {}}}}}",
                us(r.start_ns),
                us(r.end_ns.saturating_sub(r.start_ns)),
                r.id,
                r.conn,
                r.seq,
                r.aborted,
            ));
            for phase in ReqPhase::ALL {
                if let Some(span) = r.phases[phase as usize] {
                    out.push_str(&format!(
                        ",\n{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"id\": {}}}}}",
                        phase.name(),
                        us(span.start_ns),
                        us(span.dur_ns),
                        r.id,
                    ));
                }
            }
            // Operators laid end to end under the exec span (durations are
            // exact; offsets are sequential approximations).
            if let Some(exec) = r.phases[ReqPhase::Exec as usize] {
                let mut t = exec.start_ns;
                for (name, dur_ns) in &r.ops {
                    out.push_str(&format!(
                        ",\n{{\"name\": \"{}\", \"cat\": \"operator\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"id\": {}}}}}",
                        frappe_harness::json::json_escape(name),
                        us(t),
                        us(*dur_ns),
                        r.id,
                    ));
                    t = t.saturating_add(*dur_ns);
                }
            }
        }
        out.push_str(&format!(
            "\n], \"otherData\": {{\"dropped\": {}, \"committed\": {}}}}}\n",
            self.dropped(),
            self.total_committed()
        ));
        out
    }
}

/// The global request-trace log (ring capacity [`DEFAULT_CAPACITY`],
/// overridable via `FRAPPE_REQTRACE_CAPACITY`, read on first use).
pub fn reqtrace() -> &'static ReqTraceLog {
    static LOG: OnceLock<ReqTraceLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let capacity = std::env::var("FRAPPE_REQTRACE_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        ReqTraceLog::new(capacity)
    })
}

// ----------------------------------------------------------------------
// Current-request registration (executor linkage)
// ----------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<Box<ReqTraceBuilder>>> = const { RefCell::new(None) };
}

/// Registers `builder` as the thread's current request trace (the serve
/// worker does this around query execution, so the executor can attach
/// operator breakdowns and slow-log links without plumbing).
pub fn enter_current(builder: Box<ReqTraceBuilder>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(builder));
}

/// Removes and returns the thread's current request trace.
pub fn take_current() -> Option<Box<ReqTraceBuilder>> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// The current request trace id on this thread, if one is registered.
/// Gated on [`crate::counters_enabled`] so the Off path never touches
/// thread-local storage.
#[inline]
pub fn current_id() -> Option<u64> {
    if !crate::counters_enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().map(|b| b.id()))
}

/// Runs `f` against the thread's current request trace, if any.
pub fn with_current<R>(f: impl FnOnce(&mut ReqTraceBuilder) -> R) -> Option<R> {
    if !crate::counters_enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_deref_mut().map(f))
}

/// Transitions the current request trace from `exec` to `ser` (called by
/// the serve layer at the run→serialize boundary inside reply rendering).
/// One relaxed load and a branch when tracing is off.
#[inline]
pub fn mark_serialize() {
    if !crate::counters_enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(b) = c.borrow_mut().as_deref_mut() {
            b.exit(ReqPhase::Exec);
            b.enter(ReqPhase::Ser);
        }
    });
}

// ----------------------------------------------------------------------
// Chrome trace validation
// ----------------------------------------------------------------------

/// Checks `text` against the subset of the Chrome trace-event JSON format
/// that [`ReqTraceLog::to_chrome_json`] emits (and that
/// `chrome://tracing` requires): a top-level object with a `traceEvents`
/// array whose elements carry a nonempty string `name`, a `ph` of `"X"`
/// (complete, with numeric non-negative `ts` and `dur`) or `"M"`
/// (metadata), and a numeric `pid`. Returns the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    let obj = match &root {
        json::Value::Object(fields) => fields,
        _ => return Err("top level must be a JSON object".into()),
    };
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing \"traceEvents\" key")?;
    let events = match events {
        json::Value::Array(items) => items,
        _ => return Err("\"traceEvents\" must be an array".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        validate_event(ev).map_err(|e| format!("traceEvents[{i}]: {e}"))?;
    }
    Ok(())
}

fn validate_event(ev: &json::Value) -> Result<(), String> {
    let fields = match ev {
        json::Value::Object(fields) => fields,
        _ => return Err("event must be an object".into()),
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match get("name") {
        Some(json::Value::Str(s)) if !s.is_empty() => {}
        _ => return Err("event needs a nonempty string \"name\"".into()),
    }
    match get("pid") {
        Some(json::Value::Number(_)) => {}
        _ => return Err("event needs a numeric \"pid\"".into()),
    }
    let ph = match get("ph") {
        Some(json::Value::Str(s)) => s.as_str(),
        _ => return Err("event needs a string \"ph\"".into()),
    };
    match ph {
        "M" => Ok(()),
        "X" => {
            match get("tid") {
                Some(json::Value::Number(_)) => {}
                _ => return Err("complete event needs a numeric \"tid\"".into()),
            }
            for key in ["ts", "dur"] {
                match get(key) {
                    Some(json::Value::Number(n)) if *n >= 0.0 => {}
                    _ => {
                        return Err(format!(
                            "complete event needs a non-negative numeric \"{key}\""
                        ))
                    }
                }
            }
            Ok(())
        }
        other => Err(format!("unsupported event phase {other:?}")),
    }
}

/// A minimal recursive-descent JSON parser (std-only, for validation —
/// the workspace renders JSON by hand and has no serde).
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|n| n.is_finite())
                .map(Value::Number)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape")?;
                                // Surrogate pairs are not emitted by our
                                // renderers; map lone surrogates to U+FFFD.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err("bad escape".into()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so
                        // boundaries are valid).
                        let rest = &self.bytes[self.pos..];
                        let s = unsafe { std::str::from_utf8_unchecked(rest) };
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, ObsLevel};

    fn fresh_log(capacity: usize) -> &'static ReqTraceLog {
        Box::leak(Box::new(ReqTraceLog::new(capacity)))
    }

    #[test]
    fn begin_is_gated_on_counters() {
        let _g = test_lock::hold();
        let log = fresh_log(8);
        set_level(ObsLevel::Off);
        assert!(log.begin(1, 0).is_none(), "Off must not allocate a trace");
        set_level(ObsLevel::Counters);
        let b = log.begin(1, 0).expect("Counters traces");
        assert_eq!(b.id(), 0);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn phases_record_and_commit_feeds_histograms() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        crate::registry().reset();
        let log = fresh_log(8);
        let mut b = log.begin(7, 3).unwrap();
        let before = Instant::now();
        b.phase_since(ReqPhase::Recv, before);
        b.enter(ReqPhase::Queue);
        b.exit(ReqPhase::Queue);
        b.enter(ReqPhase::Exec);
        b.exit(ReqPhase::Exec);
        b.enter(ReqPhase::Write); // left open: commit closes it
        log.commit(b);

        let recs = log.records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!((r.conn, r.seq), (7, 3));
        assert!(r.phases[ReqPhase::Recv as usize].is_some());
        assert!(r.phases[ReqPhase::Queue as usize].is_some());
        assert!(r.phases[ReqPhase::Write as usize].is_some(), "auto-closed");
        assert!(r.phases[ReqPhase::Ser as usize].is_none(), "never entered");
        assert!(r.end_ns >= r.start_ns);

        let snap = crate::registry().snapshot();
        assert_eq!(snap.histogram("serve.req.queue_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.req.exec_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.req.ser_ns").unwrap().count, 0);
        assert_eq!(snap.counter("serve.req.traced"), Some(1));
        crate::registry().reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let log = fresh_log(3);
        for i in 0..5 {
            let b = log.begin(1, i).unwrap();
            log.commit(b);
        }
        let recs = log.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total_committed(), 5);
        log.clear();
        assert!(log.records().is_empty());
        set_level(ObsLevel::Off);
    }

    #[test]
    fn chrome_json_is_valid_and_carries_phases_and_ops() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let log = fresh_log(8);
        let mut b = log.begin(0x2_0000_0005, 1).unwrap();
        b.enter(ReqPhase::Queue);
        b.exit(ReqPhase::Queue);
        b.enter(ReqPhase::Exec);
        b.exit(ReqPhase::Exec);
        b.set_ops(vec![("IndexLookup", 1_000), ("Return", 500)]);
        log.commit(b);
        set_level(ObsLevel::Off);

        let json = log.to_chrome_json();
        validate_chrome_trace(&json).expect("chrome trace grammar");
        assert!(json.contains("\"name\": \"request\""), "{json}");
        assert!(json.contains("\"name\": \"queue\""), "{json}");
        assert!(json.contains("\"name\": \"IndexLookup\""), "{json}");
        assert!(json.contains("\"seq\": 1"), "{json}");
        // tid is the low half of the conn token (slot, sans generation).
        assert!(json.contains("\"tid\": 5"), "{json}");
    }

    #[test]
    fn commit_patches_the_linked_slowlog_entry() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        crate::slowlog().set_threshold_ms(Some(0));
        crate::slowlog().clear();
        let seq = crate::slowlog().record(crate::SlowQueryEntry {
            fingerprint: 0xfeed,
            normalized: "MATCH n RETURN n".into(),
            total_ns: 5_000_000,
            rows: 1,
            steps: 2,
            error: None,
            profile_json: String::new(),
            phases: None,
        });
        let log = fresh_log(4);
        let mut b = log.begin(1, 0).unwrap();
        b.enter(ReqPhase::Queue);
        std::thread::sleep(std::time::Duration::from_millis(2));
        b.exit(ReqPhase::Queue);
        b.set_slowlog_seq(seq);
        log.commit(b);

        let rec = crate::slowlog()
            .records()
            .into_iter()
            .find(|r| r.seq == seq)
            .expect("slowlog record");
        let phases = rec.entry.phases.expect("phases patched");
        assert!(phases.queue_wait_us >= 1, "{phases:?}");
        assert!(rec.to_json().contains("\"phases\": {\"queue_wait_us\": "));
        crate::slowlog().set_threshold_ms(None);
        crate::slowlog().clear();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn current_registration_round_trips() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let log = fresh_log(4);
        assert_eq!(current_id(), None);
        assert!(with_current(|_| ()).is_none());
        let b = log.begin(1, 0).unwrap();
        let id = b.id();
        enter_current(b);
        assert_eq!(current_id(), Some(id));
        with_current(|b| b.set_ops(vec![("Expand", 9)]));
        mark_serialize(); // Exec not open: only enters Ser
        let b = take_current().expect("still registered");
        assert_eq!(b.record.ops, vec![("Expand", 9)]);
        assert!(take_current().is_none());
        log.commit(b);
        assert!(log.records()[0].phases[ReqPhase::Ser as usize].is_some());
        set_level(ObsLevel::Off);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[]").is_err(), "array top level");
        assert!(validate_chrome_trace("{\"events\": []}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": {}}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err(),
            "event without name"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": -4, \"dur\": 1}]}"
            )
            .is_err(),
            "negative ts"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"B\", \"pid\": 1}]}"
            )
            .is_err(),
            "unsupported phase"
        );
        assert!(validate_chrome_trace(
            "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \
             \"ts\": 0.5, \"dur\": 1.25, \"args\": {\"nested\": [true, null, \"s\\u0041\"]}}]}"
        )
        .is_ok());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [").is_err(),
            "truncated"
        );
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        use super::json::{parse, Value};
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" -1.5e2 ").unwrap(), Value::Number(-150.0));
        assert_eq!(parse("\"a\\\"b\\n\"").unwrap(), Value::Str("a\"b\n".into()));
        let v = parse("{\"a\": [1, {\"b\": false}], \"c\": \"\"}").unwrap();
        match v {
            Value::Object(fields) => assert_eq!(fields.len(), 2),
            other => panic!("expected object, got {other:?}"),
        }
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse("1 2").is_err(), "trailing garbage");
        assert!(parse("\"\\q\"").is_err(), "bad escape");
    }
}
