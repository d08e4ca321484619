//! Per-fingerprint query statistics: the operator-facing answer to "what
//! is this server executing, how often, and how slowly?".
//!
//! `frappe-query` normalizes every parsed query into a stable 64-bit
//! fingerprint (literals erased, keyword case folded). The executor calls
//! [`QueryStatsRegistry::observe`] once per execution; the registry keeps,
//! per fingerprint: execution count, error count, cumulative rows, and a
//! full log2 latency [`Histogram`] (so p50/p95/p99 are first-class, not
//! recomputed from raw samples).
//!
//! Locking mirrors the metrics registry: the mutex guards only the
//! fingerprint → stats lookup (one lock acquisition per *query*, never per
//! operator or per row); the stats themselves are leaked `&'static`
//! atomics, so concurrent observers on different connections never
//! serialize on the update itself.

use crate::metrics::{Histogram, HistogramSnapshot};
use frappe_harness::json::json_escape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Live statistics for one query fingerprint. All fields are atomics;
/// handles are `&'static` (leaked on first registration).
#[derive(Debug)]
pub struct QueryStats {
    count: AtomicU64,
    errors: AtomicU64,
    rows: AtomicU64,
    latency: Histogram,
}

impl QueryStats {
    fn new() -> QueryStats {
        QueryStats {
            count: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// Records one execution (callers hold the [`crate::counters_enabled`]
    /// gate; the inner histogram re-checks it, which is harmless).
    fn record(&self, latency_ns: u64, rows: u64, error: bool) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency_ns);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.rows.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

/// A point-in-time copy of one fingerprint's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStatsSnapshot {
    /// The 64-bit query-shape fingerprint.
    pub fingerprint: u64,
    /// Normalized query text (literals as `?`) — the human-readable name
    /// of the shape, captured at first observation.
    pub normalized: String,
    /// Executions observed.
    pub count: u64,
    /// Executions that returned an error.
    pub errors: u64,
    /// Total result rows across executions.
    pub rows: u64,
    /// Latency histogram (nanoseconds).
    pub latency: HistogramSnapshot,
}

impl QueryStatsSnapshot {
    /// Renders one snapshot as a JSON object (hand-rendered, repo
    /// conventions; fingerprints as 16-digit hex strings).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fingerprint\": \"{:016x}\", \"query\": \"{}\", \"count\": {}, \
             \"errors\": {}, \"rows\": {}, \"latency_ns\": {{\"min\": {}, \"max\": {}, \
             \"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}}}",
            self.fingerprint,
            json_escape(&self.normalized),
            self.count,
            self.errors,
            self.rows,
            self.latency.min,
            self.latency.max,
            self.latency.mean(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.95),
            self.latency.quantile(0.99),
        )
    }
}

/// The planner-facing digest of one fingerprint's live statistics: just
/// enough to seed a cost model and detect drift later. Produced by
/// [`QueryStatsRegistry::seed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSeed {
    /// Executions observed when the seed was taken.
    pub executions: u64,
    /// Mean result rows per execution (integer mean).
    pub avg_rows: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
}

/// The process-wide per-fingerprint registry. Obtain it via
/// [`query_stats`].
#[derive(Default)]
pub struct QueryStatsRegistry {
    entries: Mutex<Vec<(u64, String, &'static QueryStats)>>,
}

impl QueryStatsRegistry {
    /// Records one query execution under `fingerprint`, registering the
    /// fingerprint (with its `normalized` display text) on first sight.
    /// No-op unless [`crate::counters_enabled`].
    pub fn observe(
        &self,
        fingerprint: u64,
        normalized: &str,
        latency_ns: u64,
        rows: u64,
        error: bool,
    ) {
        if !crate::counters_enabled() {
            return;
        }
        self.stats(fingerprint, normalized)
            .record(latency_ns, rows, error);
    }

    /// The live stats handle for `fingerprint`, registered on first use.
    /// Takes the registry lock for the lookup only.
    pub fn stats(&self, fingerprint: u64, normalized: &str) -> &'static QueryStats {
        let mut list = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, _, s)) = list.iter().find(|(fp, _, _)| *fp == fingerprint) {
            return s;
        }
        let s: &'static QueryStats = Box::leak(Box::new(QueryStats::new()));
        list.push((fingerprint, normalized.to_owned(), s));
        s
    }

    /// A planner seed for `fingerprint`, or `None` when the fingerprint
    /// has no recorded executions. Read-only and ungated: consumers (the
    /// query planner) decide relevance; an absent seed simply means the
    /// model runs unseeded.
    pub fn seed(&self, fingerprint: u64) -> Option<StatsSeed> {
        let list = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (_, _, s) = list.iter().find(|(fp, _, _)| *fp == fingerprint)?;
        let count = s.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        Some(StatsSeed {
            executions: count,
            avg_rows: s.rows.load(Ordering::Relaxed) / count,
            p50_ns: s.latency.snapshot("").quantile(0.50) as u64,
        })
    }

    /// The observed p95 latency for `fingerprint` in nanoseconds, or
    /// `None` with no recorded executions. Read-only and ungated, like
    /// [`QueryStatsRegistry::seed`]: the serve layer's cost-aware
    /// admission tier uses this to classify known-expensive query shapes.
    pub fn p95_ns(&self, fingerprint: u64) -> Option<u64> {
        let list = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (_, _, s) = list.iter().find(|(fp, _, _)| *fp == fingerprint)?;
        if s.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(s.latency.snapshot("").quantile(0.95) as u64)
    }

    /// Copies every fingerprint's statistics, most-executed first (ties
    /// broken by fingerprint for determinism).
    pub fn snapshot(&self) -> Vec<QueryStatsSnapshot> {
        let mut out: Vec<QueryStatsSnapshot> = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(fp, text, s)| QueryStatsSnapshot {
                fingerprint: *fp,
                normalized: text.clone(),
                count: s.count.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                rows: s.rows.load(Ordering::Relaxed),
                latency: s.latency.snapshot(""),
            })
            .collect();
        out.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }

    /// Zeroes every fingerprint's statistics (registrations persist).
    pub fn reset(&self) {
        for (_, _, s) in self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            s.reset();
        }
    }
}

/// Renders a snapshot list as a JSON array (the `/queries` endpoint body).
pub fn queries_to_json(snaps: &[QueryStatsSnapshot]) -> String {
    let mut out = String::from("[");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&s.to_json());
    }
    out.push(']');
    out
}

/// The process-wide per-fingerprint query statistics registry.
pub fn query_stats() -> &'static QueryStatsRegistry {
    static REGISTRY: OnceLock<QueryStatsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(QueryStatsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, ObsLevel};

    #[test]
    fn observe_aggregates_per_fingerprint() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let reg = QueryStatsRegistry::default();
        reg.observe(7, "MATCH a RETURN a", 1_000, 3, false);
        reg.observe(7, "ignored-after-first", 3_000, 5, false);
        reg.observe(9, "MATCH b RETURN b", 2_000, 0, true);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].fingerprint, 7, "most-executed first");
        assert_eq!(snap[0].normalized, "MATCH a RETURN a");
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].rows, 8);
        assert_eq!(snap[0].errors, 0);
        assert_eq!(snap[0].latency.count, 2);
        assert_eq!(snap[0].latency.min, 1_000);
        assert_eq!(snap[0].latency.max, 3_000);
        assert_eq!(snap[1].errors, 1);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn observe_is_gated_on_level() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Off);
        let reg = QueryStatsRegistry::default();
        reg.observe(1, "q", 10, 1, false);
        assert!(reg.snapshot().is_empty());
        set_level(ObsLevel::Counters);
        reg.observe(1, "q", 10, 1, false);
        assert_eq!(reg.snapshot()[0].count, 1);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn concurrent_observers_are_exact() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let reg = QueryStatsRegistry::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        reg.observe(42, "hot query", i + 1, 2, i % 10 == 0);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap[0].count, 8_000);
        assert_eq!(snap[0].rows, 16_000);
        assert_eq!(snap[0].errors, 800);
        assert_eq!(snap[0].latency.count, 8_000);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn p95_reads_back_observed_latency() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let reg = QueryStatsRegistry::default();
        assert_eq!(reg.p95_ns(5), None, "unknown fingerprint has no p95");
        for _ in 0..20 {
            reg.observe(5, "slow shape", 60_000_000, 1, false);
        }
        let p95 = reg.p95_ns(5).expect("recorded fingerprint has a p95");
        assert!(
            p95 >= 30_000_000,
            "p95 lands in the sample's log2 bucket: {p95}"
        );
        set_level(ObsLevel::Off);
    }

    #[test]
    fn json_renders_hex_fingerprint_and_quantiles() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let reg = QueryStatsRegistry::default();
        reg.observe(0xab, "START n = node : x ( ? ) RETURN n", 1_000, 1, false);
        let json = queries_to_json(&reg.snapshot());
        assert!(
            json.starts_with("[{\"fingerprint\": \"00000000000000ab\""),
            "{json}"
        );
        assert!(json.contains("\"p99\":"), "{json}");
        assert!(json.contains("START n = node : x ( ? ) RETURN n"), "{json}");
        set_level(ObsLevel::Off);
    }
}
