//! The structured slow-query log: a ring buffer of per-execution records
//! for queries that crossed a latency threshold, dumped as JSONL.
//!
//! Armed by the `FRAPPE_SLOWLOG_MS` environment variable (or
//! [`SlowLog::set_threshold_ms`]): any query whose end-to-end latency
//! meets the threshold is recorded with its fingerprint, normalized text,
//! rows/steps, error (if any), and the **full per-operator profile** the
//! executor captured for it — `FRAPPE_SLOWLOG_MS=0` logs every query,
//! unset disables the log entirely (and with it the executor's opt-in
//! profile capture, so the disabled path costs nothing).
//!
//! The ring overwrites its oldest records once full (capacity
//! `FRAPPE_SLOWLOG_CAPACITY`, default 256), counting what it dropped;
//! record sequence numbers are global and monotonic, so a scraper can
//! detect gaps.

use frappe_harness::json::json_escape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity (records retained).
pub const DEFAULT_CAPACITY: usize = 256;

/// Threshold sentinel for "disabled".
const DISABLED: u64 = u64::MAX;

/// Per-phase latency breakdown for a served query, patched onto a record
/// after the reply flushes (write time isn't known at record time — the
/// request tracer amends the entry on commit; see `crate::reqtrace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlowQueryPhases {
    /// Dispatch-queue wait, microseconds.
    pub queue_wait_us: u64,
    /// Executor + reply-serialization time, microseconds.
    pub exec_us: u64,
    /// Write-buffer residency (including backpressure stalls), microseconds.
    pub write_us: u64,
}

impl SlowQueryPhases {
    /// Renders the `phases` JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_wait_us\": {}, \"exec_us\": {}, \"write_us\": {}}}",
            self.queue_wait_us, self.exec_us, self.write_us
        )
    }
}

/// One slow-query record as handed to [`SlowLog::record`] (the log
/// assigns the sequence number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Query-shape fingerprint.
    pub fingerprint: u64,
    /// Normalized query text (literals as `?`).
    pub normalized: String,
    /// End-to-end latency, nanoseconds.
    pub total_ns: u64,
    /// Result rows (0 on error).
    pub rows: u64,
    /// Expansion steps consumed.
    pub steps: u64,
    /// The error message, for executions that failed.
    pub error: Option<String>,
    /// Pre-rendered per-operator profile JSON (`{}`-shaped; empty string
    /// when the caller had no profile).
    pub profile_json: String,
    /// Serve-phase breakdown, patched in by the request tracer once the
    /// reply has flushed (`None` for non-served executions).
    pub phases: Option<SlowQueryPhases>,
}

/// A retained record: the entry plus its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// Global monotonic sequence number (0-based; gaps mean the ring
    /// overwrote records between scrapes).
    pub seq: u64,
    /// The recorded entry.
    pub entry: SlowQueryEntry,
}

impl SlowQueryRecord {
    /// Renders one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\": {}, \"fingerprint\": \"{:016x}\", \"query\": \"{}\", \
             \"total_ns\": {}, \"rows\": {}, \"steps\": {}",
            self.seq,
            self.entry.fingerprint,
            json_escape(&self.entry.normalized),
            self.entry.total_ns,
            self.entry.rows,
            self.entry.steps,
        );
        if let Some(err) = &self.entry.error {
            out.push_str(&format!(", \"error\": \"{}\"", json_escape(err)));
        }
        if let Some(phases) = &self.entry.phases {
            out.push_str(&format!(", \"phases\": {}", phases.to_json()));
        }
        if !self.entry.profile_json.is_empty() {
            out.push_str(&format!(", \"profile\": {}", self.entry.profile_json));
        }
        out.push('}');
        out
    }
}

struct Ring {
    buf: Vec<SlowQueryRecord>,
    /// Index of the oldest record once `buf` is at capacity.
    head: usize,
    capacity: usize,
}

/// The global slow-query log. Obtain it via [`slowlog`].
pub struct SlowLog {
    threshold_ns: AtomicU64,
    seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl SlowLog {
    fn new(threshold_ns: u64, capacity: usize) -> SlowLog {
        SlowLog {
            threshold_ns: AtomicU64::new(threshold_ns),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                capacity: capacity.max(1),
            }),
        }
    }

    /// Whether the log is armed (a threshold is set).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.threshold_ns.load(Ordering::Relaxed) != DISABLED
    }

    /// The latency threshold in nanoseconds ([`u64::MAX`] when disabled).
    #[inline]
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Arms the log at `ms` milliseconds (`Some(0)` logs everything), or
    /// disarms it (`None`).
    pub fn set_threshold_ms(&self, ms: Option<u64>) {
        let ns = ms.map_or(DISABLED, |ms| ms.saturating_mul(1_000_000));
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Appends a record (the caller has already applied the threshold —
    /// the executor compares against [`SlowLog::threshold_ns`] so it can
    /// skip profile rendering for fast queries). Returns the record's
    /// global sequence number, usable with [`SlowLog::set_phases`].
    pub fn record(&self, entry: SlowQueryEntry) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let rec = SlowQueryRecord { seq, entry };
        if ring.buf.len() < ring.capacity {
            ring.buf.push(rec);
        } else {
            let head = ring.head;
            ring.buf[head] = rec;
            ring.head = (head + 1) % ring.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        seq
    }

    /// Patches the serve-phase breakdown onto record `seq`, if it is still
    /// retained (it may have been overwritten under churn — that's fine,
    /// phases are best-effort enrichment).
    pub fn set_phases(&self, seq: u64, phases: SlowQueryPhases) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(rec) = ring.buf.iter_mut().find(|r| r.seq == seq) {
            rec.entry.phases = Some(phases);
        }
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> Vec<SlowQueryRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Records ever logged (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records overwritten by the ring since the last [`SlowLog::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the retained records as JSONL, oldest first, one record
    /// per line (the `/slowlog` endpoint body).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Empties the ring (threshold and sequence counter persist).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.clear();
        ring.head = 0;
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// The global slow-query log. First use reads `FRAPPE_SLOWLOG_MS`
/// (milliseconds; unset = disabled) and `FRAPPE_SLOWLOG_CAPACITY`
/// (records; default 256).
pub fn slowlog() -> &'static SlowLog {
    static LOG: OnceLock<SlowLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let threshold = std::env::var("FRAPPE_SLOWLOG_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map_or(DISABLED, |ms| ms.saturating_mul(1_000_000));
        let capacity = std::env::var("FRAPPE_SLOWLOG_CAPACITY")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        SlowLog::new(threshold, capacity)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, ns: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            fingerprint: fp,
            normalized: format!("MATCH q{fp} RETURN q{fp}"),
            total_ns: ns,
            rows: 1,
            steps: 2,
            error: None,
            profile_json: String::new(),
            phases: None,
        }
    }

    #[test]
    fn threshold_arming() {
        let log = SlowLog::new(DISABLED, 4);
        assert!(!log.enabled());
        log.set_threshold_ms(Some(0));
        assert!(log.enabled());
        assert_eq!(log.threshold_ns(), 0);
        log.set_threshold_ms(Some(250));
        assert_eq!(log.threshold_ns(), 250_000_000);
        log.set_threshold_ms(None);
        assert!(!log.enabled());
    }

    #[test]
    fn ring_overwrites_oldest_and_numbers_records() {
        let log = SlowLog::new(0, 3);
        for i in 0..5u64 {
            log.record(entry(i, 100 + i));
        }
        let recs = log.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest two overwritten"
        );
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total_recorded(), 5);
        log.clear();
        assert!(log.records().is_empty());
    }

    #[test]
    fn jsonl_renders_one_line_per_record() {
        let log = SlowLog::new(0, 8);
        log.record(entry(0xf00d, 42));
        let mut err = entry(1, 7);
        err.error = Some("budget \"exhausted\"".into());
        err.profile_json = "{\"ops\": []}".into();
        log.record(err);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\": 0, \"fingerprint\": \"000000000000f00d\""));
        assert!(lines[1].contains("\"error\": \"budget \\\"exhausted\\\"\""));
        assert!(lines[1].ends_with("\"profile\": {\"ops\": []}}"));
    }

    #[test]
    fn phases_patch_onto_retained_records() {
        let log = SlowLog::new(0, 2);
        let seq0 = log.record(entry(0, 10));
        let seq1 = log.record(entry(1, 11));
        let phases = SlowQueryPhases {
            queue_wait_us: 120,
            exec_us: 4_500,
            write_us: 9,
        };
        log.set_phases(seq1, phases);
        log.set_phases(seq0 + 100, phases); // unknown seq: ignored
        let recs = log.records();
        assert_eq!(recs[0].entry.phases, None);
        assert_eq!(recs[1].entry.phases, Some(phases));
        assert!(recs[1]
            .to_json()
            .contains("\"phases\": {\"queue_wait_us\": 120, \"exec_us\": 4500, \"write_us\": 9}"));
        // Overwritten records are silently skipped.
        log.record(entry(2, 12));
        log.record(entry(3, 13));
        log.set_phases(seq0, phases);
        assert!(log.records().iter().all(|r| r.seq >= 2));
    }

    #[test]
    fn global_slowlog_reads_env_once() {
        // Whatever the env says, the handle is stable and usable.
        let a = slowlog() as *const SlowLog;
        let b = slowlog() as *const SlowLog;
        assert_eq!(a, b);
    }
}
