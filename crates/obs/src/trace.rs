//! The span tracer: RAII guards push `(name, start, duration, depth,
//! thread)` events into a fixed-capacity ring buffer.
//!
//! Spans are opened with the [`crate::span!`] macro (or
//! [`Tracer::span`]) and closed when the guard drops. At any level below
//! [`crate::ObsLevel::Trace`] a guard is inert: opening it is one relaxed
//! load, and dropping it does nothing. When tracing, the event is recorded
//! on *close* (so the log is ordered by completion time), and the ring
//! overwrites its oldest events once full, counting what it dropped.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static — call sites name their spans with literals).
    pub name: &'static str,
    /// Start time in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open time (0 = top level) on the opening thread.
    pub depth: u16,
    /// Dense per-process id of the opening thread.
    pub thread: u64,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event when `buf` is at capacity.
    head: usize,
    capacity: usize,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }

    fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// The global span tracer. Obtain it via [`tracer`].
pub struct Tracer {
    epoch: Instant,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
}

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

impl Tracer {
    fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                capacity: capacity.max(1),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Opens a span. Inert unless [`crate::trace_enabled`].
    #[inline]
    pub fn span(&'static self, name: &'static str) -> SpanGuard {
        if !crate::trace_enabled() {
            return SpanGuard { live: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        SpanGuard {
            live: Some(LiveSpan {
                tracer: self,
                name,
                start: Instant::now(),
                depth,
            }),
        }
    }

    fn record(&self, name: &'static str, start: Instant, depth: u16) {
        let ev = TraceEvent {
            name,
            start_ns: u64::try_from((start - self.epoch).as_nanos()).unwrap_or(u64::MAX),
            dur_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            depth,
            thread: thread_id(),
        };
        let overwrote = self.ring.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Completed events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).events()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained-event capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).capacity
    }

    /// Discards all events and the dropped count.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.clear();
        ring.head = 0;
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Flat-text dump, one line per completed span, nesting shown by
    /// indentation.
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&format!(
                "[t{} +{:>12}ns] {:indent$}{} ({} ns)\n",
                ev.thread,
                ev.start_ns,
                "",
                ev.name,
                ev.dur_ns,
                indent = ev.depth as usize * 2,
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("({dropped} older events dropped)\n"));
        }
        out
    }

    /// JSON dump: `{"dropped": N, "events": [{...}, ...]}`.
    pub fn dump_json(&self) -> String {
        let mut out = format!("{{\"dropped\": {}, \"events\": [", self.dropped());
        for (i, ev) in self.events().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \
                 \"depth\": {}, \"thread\": {}}}",
                frappe_harness::json::json_escape(ev.name),
                ev.start_ns,
                ev.dur_ns,
                ev.depth,
                ev.thread,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The global tracer (ring capacity [`DEFAULT_CAPACITY`], overridable via
/// the `FRAPPE_TRACE_CAPACITY` environment variable read on first use).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| {
        let capacity = std::env::var("FRAPPE_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        Tracer::new(capacity)
    })
}

struct LiveSpan {
    tracer: &'static Tracer,
    name: &'static str,
    start: Instant,
    depth: u16,
}

/// RAII guard from [`Tracer::span`]; records the span on drop.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            live.tracer.record(live.name, live.start, live.depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, ObsLevel};

    #[test]
    fn spans_record_nesting_depth() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Trace);
        tracer().clear();
        {
            let _outer = tracer().span("outer");
            {
                let _inner = tracer().span("inner");
            }
        }
        let events = tracer().events();
        set_level(ObsLevel::Off);
        // Inner closes first.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        assert!(events[1].dur_ns >= events[0].dur_ns);
        tracer().clear();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters); // counters on, trace still off
        tracer().clear();
        {
            let _s = tracer().span("invisible");
        }
        assert!(tracer().events().is_empty());
        set_level(ObsLevel::Off);
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_dropped() {
        let t: &'static Tracer = Box::leak(Box::new(Tracer::new(4)));
        let _g = test_lock::hold();
        set_level(ObsLevel::Trace);
        for _ in 0..10 {
            let _s = t.span("ev");
        }
        set_level(ObsLevel::Off);
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(t.dropped(), 6);
        // Oldest-first ordering survives wraparound.
        for pair in events.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
        assert!(t.dump_text().contains("6 older events dropped"));
    }

    #[test]
    fn dumps_render_events() {
        let t: &'static Tracer = Box::leak(Box::new(Tracer::new(8)));
        let _g = test_lock::hold();
        set_level(ObsLevel::Trace);
        {
            let _a = t.span("alpha");
        }
        set_level(ObsLevel::Off);
        assert!(t.dump_text().contains("alpha"));
        let json = t.dump_json();
        assert!(json.contains("\"name\": \"alpha\""));
        assert!(json.starts_with("{\"dropped\": 0"));
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn threads_get_distinct_ids() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Trace);
        let t: &'static Tracer = Box::leak(Box::new(Tracer::new(16)));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _sp = t.span("worker");
                });
            }
        });
        set_level(ObsLevel::Off);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].thread, events[1].thread);
    }
}
