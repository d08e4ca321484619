//! The metrics registry: named atomic counters and monotonic-clock
//! histograms, snapshotted to JSON.
//!
//! Handles are `&'static`: the registry leaks each metric on first
//! registration so hot paths can cache the pointer (see the `counter!` /
//! `histogram!` macros) and increment with a single relaxed atomic add —
//! no lock, no hash. The registry lock is only taken on first lookup and
//! on snapshot/reset.
//!
//! JSON follows the repo's harness conventions (hand-rendered, escaped,
//! deterministically ordered — same style as `frappe-harness`'s
//! `BENCH_*.json` writer): counters as a name→value object, histograms as
//! name→`{count, sum, min, max, mean}` objects, names sorted.

use frappe_harness::json::json_escape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A monotonically increasing (or max-tracking) atomic counter.
///
/// All mutating calls are gated on [`crate::counters_enabled`], so at
/// [`crate::ObsLevel::Off`] they cost one relaxed load and a branch.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (no-op unless counters are enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::counters_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op unless counters are enabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raises the value to at least `v` — for high-water marks like the
    /// maximum traversal frontier (no-op unless counters are enabled).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if crate::counters_enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (reads regardless of level).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 buckets in a histogram: bucket `i` counts values whose
/// bit length is `i` (i.e. `v < 2^i`), so the full `u64` range is covered.
const BUCKETS: usize = 64;

/// A lock-free histogram of `u64` samples (by convention, nanoseconds)
/// with log2 buckets plus exact count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample (no-op unless counters are enabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::counters_enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let idx = (64 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a timer whose drop records the elapsed time here. Inert
    /// (doesn't even read the clock) unless counters are enabled.
    #[inline]
    pub fn start(&'static self) -> Timer {
        Timer {
            histogram: self,
            start: crate::counters_enabled().then(Instant::now),
        }
    }

    /// Zeroes all state.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_owned(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Estimated value of quantile `q` over the live buckets (a
    /// lock-free read; see [`HistogramSnapshot::quantile`] for the
    /// estimation scheme).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot("").quantile(q)
    }
}

/// RAII timer from [`Histogram::start`]; records elapsed ns on drop.
pub struct Timer {
    histogram: &'static Histogram,
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered name, e.g. `store.pagecache.hits`.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A histogram's summary at snapshot time (all values in the recorded
/// unit — nanoseconds for timers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name, e.g. `store.snapshot.decode_ns`.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket counts: bucket `i` holds samples of bit length `i`
    /// (i.e. `2^(i-1) <= v < 2^i`; bucket 0 holds exact zeros).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value of quantile `q` (0.0 ..= 1.0).
    ///
    /// The continuous rank `q * count` is located in the log2 bucket
    /// sequence, then interpolated *geometrically* within the bucket:
    /// bucket `i` spans `[2^(i-1), 2^i)`, and a fraction `f` through its
    /// population maps to `lo * (hi/lo)^f` — the geometric midpoint
    /// `sqrt(lo*hi)` at `f = 0.5` — which respects the buckets'
    /// exponential value scale (linear interpolation would bias every
    /// estimate toward the bucket's arithmetic center). The estimate is
    /// clamped to the exact observed `[min, max]`, so single-valued and
    /// extreme-quantile cases are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut before = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (before + n) as f64 >= target {
                let est = if i == 0 {
                    0.0
                } else {
                    let lo = f64::from(2u32).powi(i as i32 - 1);
                    let hi = lo * 2.0;
                    let f = ((target - before as f64) / n as f64).clamp(0.0, 1.0);
                    lo * (hi / lo).powf(f)
                };
                return est.clamp(self.min as f64, self.max as f64);
            }
            before += n;
        }
        self.max as f64
    }
}

/// A point-in-time copy of every registered metric, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named histogram summary, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Counters whose values are nonzero, largest first (the "hot spots"
    /// view used by the report binary).
    pub fn top_counters(&self, n: usize) -> Vec<&CounterSnapshot> {
        let mut v: Vec<&CounterSnapshot> = self.counters.iter().filter(|c| c.value > 0).collect();
        v.sort_by(|a, b| b.value.cmp(&a.value).then_with(|| a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }

    /// Renders the snapshot as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"store.pagecache.hits": 42},
    ///   "histograms": {"temporal.checkout_ns": {"count": 1, "sum": 9,
    ///                  "min": 9, "max": 9, "mean": 9.0,
    ///                  "p50": 9.0, "p95": 9.0, "p99": 9.0}}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(&c.name), c.value));
        }
        out.push_str("}, \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \
                 \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}",
                json_escape(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The process-wide metrics registry. Obtain it via [`registry`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, &'static Counter)>>,
    histograms: Mutex<Vec<(String, &'static Histogram)>>,
}

impl Registry {
    /// Returns the counter registered under `name`, registering (and
    /// leaking) it on first use. Takes the registry lock — cache the
    /// returned handle on hot paths (the [`crate::counter!`] macro does).
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut list = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, c)) = list.iter().find(|(n, _)| n == name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        list.push((name.to_owned(), c));
        c
    }

    /// Returns the histogram registered under `name` (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut list = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, h)) = list.iter().find(|(n, _)| n == name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        list.push((name.to_owned(), h));
        h
    }

    /// Copies every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, c)| CounterSnapshot {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Zeroes every registered metric (registrations persist).
    pub fn reset(&self) {
        for (_, c) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            c.reset();
        }
        for (_, h) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            h.reset();
        }
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, ObsLevel};

    #[test]
    fn counter_registration_is_idempotent() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let a = registry().counter("metrics.idem");
        let b = registry().counter("metrics.idem");
        assert!(std::ptr::eq(a, b));
        a.reset();
        a.add(5);
        assert_eq!(b.get(), 5);
        a.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn off_level_records_nothing() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Off);
        let c = registry().counter("metrics.off_test");
        c.reset();
        c.add(100);
        c.incr();
        c.record_max(7);
        assert_eq!(c.get(), 0);
        let h = registry().histogram("metrics.off_histo");
        h.reset();
        h.record(42);
        {
            let _t = h.start();
        }
        assert_eq!(
            registry()
                .snapshot()
                .histogram("metrics.off_histo")
                .unwrap()
                .count,
            0
        );
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let c = registry().counter("metrics.concurrent");
        c.reset();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        c.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn concurrent_histogram_counts_are_exact() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = registry().histogram("metrics.concurrent_histo");
        h.reset();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = registry().snapshot();
        let hs = snap.histogram("metrics.concurrent_histo").unwrap();
        assert_eq!(hs.count, 4000);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 3999);
        assert_eq!(hs.sum, (0..4000u64).sum::<u64>());
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn record_max_is_a_high_water_mark() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let c = registry().counter("metrics.max");
        c.reset();
        c.record_max(10);
        c.record_max(3);
        c.record_max(12);
        assert_eq!(c.get(), 12);
        c.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn timer_records_elapsed_ns() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = registry().histogram("metrics.timer");
        h.reset();
        {
            let _t = h.start();
            std::hint::black_box(0u64);
        }
        let snap = registry().snapshot();
        let hs = snap.histogram("metrics.timer").unwrap();
        assert_eq!(hs.count, 1);
        assert!(hs.max >= hs.min);
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn snapshot_json_is_sorted_and_escaped() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let b = registry().counter("metrics.json.b");
        let a = registry().counter("metrics.json.a");
        a.reset();
        b.reset();
        a.add(1);
        b.add(2);
        let snap = registry().snapshot();
        let json = snap.to_json();
        let ia = json.find("metrics.json.a").unwrap();
        let ib = json.find("metrics.json.b").unwrap();
        assert!(ia < ib, "names must be sorted: {json}");
        assert!(json.starts_with("{\"counters\": {"));
        assert!(json.contains("\"histograms\": {"));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        a.reset();
        b.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let hs = HistogramSnapshot {
            name: "empty".into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; 64],
        };
        assert_eq!(hs.quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_of_single_repeated_value_is_exact() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = registry().histogram("metrics.q_single");
        h.reset();
        for _ in 0..100 {
            h.record(1000);
        }
        // The geometric estimate lands inside [512, 1024) but clamping to
        // the exact observed min/max pins it to the true value.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1000.0, "q={q}");
        }
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn quantile_orders_across_buckets() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = registry().histogram("metrics.q_spread");
        h.reset();
        // 90 fast samples (~1 us), 10 slow (~1 ms): p50 stays in the fast
        // bucket, p95/p99 land in the slow one.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = registry().snapshot();
        let hs = snap.histogram("metrics.q_spread").unwrap();
        let (p50, p95, p99) = (hs.quantile(0.50), hs.quantile(0.95), hs.quantile(0.99));
        assert!((512.0..1024.0).contains(&p50), "p50={p50}");
        assert!((524_288.0..=1_048_576.0).contains(&p95), "p95={p95}");
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p99 <= hs.max as f64);
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn quantile_zero_bucket_and_geometric_midpoint() {
        let hs = |buckets: Vec<(usize, u64)>, min: u64, max: u64, count: u64| {
            let mut b = vec![0u64; 64];
            for (i, n) in buckets {
                b[i] = n;
            }
            HistogramSnapshot {
                name: "t".into(),
                count,
                sum: 0,
                min,
                max,
                buckets: b,
            }
        };
        // All-zero samples sit in bucket 0 → every quantile is 0.
        let zeros = hs(vec![(0, 5)], 0, 0, 5);
        assert_eq!(zeros.quantile(0.99), 0.0);
        // One fully-populated bucket [512, 1024) with wide observed
        // bounds: the median is the geometric midpoint sqrt(512*1024).
        let mid = hs(vec![(10, 100)], 512, 1023, 100);
        let expected = (512.0f64 * 1024.0).sqrt();
        assert!(
            (mid.quantile(0.5) - expected).abs() < 1.0,
            "{}",
            mid.quantile(0.5)
        );
    }

    #[test]
    fn top_counters_ranks_desc() {
        let snap = MetricsSnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "a".into(),
                    value: 1,
                },
                CounterSnapshot {
                    name: "b".into(),
                    value: 0,
                },
                CounterSnapshot {
                    name: "c".into(),
                    value: 9,
                },
            ],
            histograms: Vec::new(),
        };
        let top = snap.top_counters(5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "c");
        assert_eq!(top[1].name, "a");
    }
}
