//! The driver's own span recorder: one span around every call it makes
//! into a layer, held in memory and written at the end as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! Recording is off during untraced windows, so end-to-end metrics never
//! pay for it; the traced pass turns it on and the difference between the
//! two passes is `obs.trace_overhead_pct`.

use crate::json::escape;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. `id` groups the spans of one request (connection
/// and sequence number for wire requests); `parent` is the index of the
/// enclosing span in the recorder, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    pub tid: u32,
}

/// Request id of a wire request: connection in the high half, the
/// connection's sequence number in the low half.
pub fn request_id(conn: u32, seq: u64) -> u64 {
    (u64::from(conn) << 32) | (seq & 0xffff_ffff)
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (for use as a
    /// `parent`); `None` while disabled.
    pub fn record(&self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Appends spans a connection thread collected privately (so the hot
    /// loop never takes the shared lock).
    pub fn extend(&self, batch: Vec<Span>) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span recorder poisoned")
                .extend(batch);
        }
    }

    /// Times `f` as a span of `layer` on the calling thread (tid 0) and
    /// returns its result with the elapsed nanoseconds. The clock is read
    /// either way so traced and untraced callers time the same thing.
    pub fn time<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        if self.enabled {
            self.record(Span {
                name: name.to_owned(),
                layer,
                start_ns: self.ns_of(start),
                end_ns: self.ns_of(end),
                parent: None,
                id: 0,
                tid: 0,
            });
        }
        (out, ns)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Hands over every span recorded so far and starts afresh (one trace
    /// file per workload). Parent indexes are relative to the drained batch.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, ns)) => *ns += own,
            None => by_layer.push((s.layer, own)),
        }
    }
    by_layer
}

/// Renders spans as Chrome "X" (complete) events; `ts`/`dur` are
/// microseconds. Parent and request id travel in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \"frappe-e2e\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {}, \"id\": {}}}}}",
            escape(&s.name),
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.id,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &str, layer: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            layer,
            start_ns: s,
            end_ns: e,
            parent,
            id: request_id(1, 7),
            tid: 1,
        }
    }

    #[test]
    fn chrome_json_parses_back_with_parents_and_ids() {
        let t = Tracer::new(true);
        let root = t.record(span("answer \"q\"", "serve", 1_000, 9_000, None));
        t.record(span("run", "query", 2_000, 6_000, root));
        let doc = Json::parse(&to_chrome_json(&t.drain())).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3); // metadata + 2 spans
        let run = &events[2];
        assert_eq!(run.get("name").unwrap().as_str(), Some("run"));
        assert_eq!(run.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(run.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(run.get("dur").unwrap().as_f64(), Some(4.0));
        let args = run.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("id").unwrap().as_u64(), Some(request_id(1, 7)));
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("answer \"q\"")
        );
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.record(span("answer", "serve", 0, 10_000, None));
        t.record(span("run", "query", 1_000, 7_000, root));
        t.record(span("parse", "query", 0, 1_000, root));
        assert_eq!(
            self_time_by_layer(&t.drain()),
            vec![("serve", 3_000), ("query", 7_000)]
        );
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, ns) = t.time("store", "sleepless", || 41 + 1);
        assert_eq!(v, 42);
        assert!(ns < 1_000_000_000);
        assert_eq!(t.len(), 0);
        assert_eq!(t.record(span("x", "serve", 0, 1, None)), None);
    }
}
