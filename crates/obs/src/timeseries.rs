//! In-process time-series telemetry: a [`Sampler`] scrapes the metrics
//! registry and the per-fingerprint query statistics at a fixed interval
//! into bounded, multi-resolution ring buffers (a [`SeriesStore`]).
//!
//! `/metrics`, `/trace`, and `/slowlog` are point-in-time snapshots: they
//! can say what the server looks like *now*, but not whether p99 degraded
//! after a flood started or whether the admission controller is flapping.
//! Answering those questions normally requires an external collector,
//! which the workspace's zero-dependency, offline-CI posture forbids — so
//! the history lives in-process instead, the same argument the engine
//! makes for keeping the dependency graph resident.
//!
//! ## Sampling model
//!
//! Each sample, taken at the [`Clock`]'s current reading (virtual in
//! tests, monotonic in production):
//!
//! * **counters** become per-second *rates* (`<name>:rate`), derived from
//!   the delta since the previous sample. A counter that moved backwards
//!   (process-local reset) contributes its current value as the delta,
//!   the standard collector convention for counter resets.
//! * **histograms** become quantile gauges (`<name>:p50`, `:p95`, `:p99`)
//!   extracted at sample time from the live log2-bucket estimator, plus a
//!   sample-count rate under `<name>:rate`.
//! * **query statistics** contribute aggregate `query.executions`,
//!   `query.errors`, and `query.rows` rates plus a bounded set of
//!   per-fingerprint p95 gauges (`query.fp.<hex>:p95_ns`, most-executed
//!   first).
//! * registered [`Source`]s contribute extra gauges and counters (the
//!   serve layer feeds admission state, in-flight, and its ungated
//!   admitted/shed/throttled tallies this way).
//!
//! ## Retention
//!
//! Every series keeps two rings: a **raw** ring of the newest points and
//! a **downsampled** ring fed one point per [`SamplerConfig::down_factor`]
//! raw points (the bucket mean, stamped with the bucket's last raw
//! timestamp). At the defaults — 250 ms interval, 2400 raw, 16:1 into
//! 2250 — that is ~10 minutes of full-rate history plus ~2.5 hours of
//! 4-second history, and memory stays `O(series × capacity)` no matter
//! how long the server runs. [`SeriesStore::query`] merges the two rings
//! into one oldest-first timeline.
//!
//! ## Overhead contract
//!
//! Sampling is **pull-based**: nothing is added to any request hot path.
//! The only new global is the active-sampler count behind
//! [`sampler_active`], one relaxed load (asserted by
//! `crates/bench/tests/obs_overhead.rs`, alongside a live-server run that
//! bounds the enabled sampler's throughput cost).

use crate::clock::Clock;
use frappe_harness::json::json_escape;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling interval (the serve binary's `--sample-ms`).
pub const DEFAULT_SAMPLE_MS: u64 = 250;
/// Default raw-ring capacity: ~10 minutes at 250 ms.
pub const DEFAULT_RAW_CAPACITY: usize = 2_400;
/// Default downsample factor (raw points folded per retained point).
pub const DEFAULT_DOWN_FACTOR: usize = 16;
/// Default downsampled-ring capacity: ~2.5 hours at 250 ms × 16.
pub const DEFAULT_DOWN_CAPACITY: usize = 2_250;
/// Default cap on per-fingerprint query series.
pub const DEFAULT_TOP_QUERIES: usize = 8;

/// One sampled point: clock nanoseconds and the sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Sample time, [`Clock`] nanoseconds.
    pub t_ns: u64,
    /// Sampled value (rate per second for `:rate` series, raw units
    /// otherwise).
    pub value: f64,
}

/// A fixed-capacity overwrite-oldest point ring.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<Point>,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn push(&mut self, p: Point) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(p);
    }
}

#[derive(Debug)]
struct SeriesData {
    raw: Ring,
    down: Ring,
    /// Downsample accumulator: sum and count of the bucket in progress.
    acc_sum: f64,
    acc_n: usize,
}

/// Bounded multi-resolution storage for named time series. Shared between
/// the sampler thread and the HTTP exporter via `Arc`.
pub struct SeriesStore {
    raw_cap: usize,
    down_cap: usize,
    down_factor: usize,
    /// Name-sorted so lookups binary-search.
    series: Mutex<Vec<(String, SeriesData)>>,
}

impl SeriesStore {
    /// An empty store with the given ring shapes.
    pub fn new(raw_cap: usize, down_factor: usize, down_cap: usize) -> SeriesStore {
        SeriesStore {
            raw_cap: raw_cap.max(1),
            down_cap: down_cap.max(1),
            down_factor: down_factor.max(2),
            series: Mutex::new(Vec::new()),
        }
    }

    /// An empty store with the default retention shape.
    pub fn with_defaults() -> SeriesStore {
        SeriesStore::new(
            DEFAULT_RAW_CAPACITY,
            DEFAULT_DOWN_FACTOR,
            DEFAULT_DOWN_CAPACITY,
        )
    }

    /// Appends one point to `name`, creating the series on first use.
    /// Non-finite values are recorded as 0 so every consumer (JSON, SVG)
    /// stays well-formed.
    pub fn record(&self, name: &str, t_ns: u64, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let idx = match series.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                series.insert(
                    i,
                    (
                        name.to_owned(),
                        SeriesData {
                            raw: Ring::new(self.raw_cap),
                            down: Ring::new(self.down_cap),
                            acc_sum: 0.0,
                            acc_n: 0,
                        },
                    ),
                );
                i
            }
        };
        let data = &mut series[idx].1;
        data.raw.push(Point { t_ns, value });
        data.acc_sum += value;
        data.acc_n += 1;
        if data.acc_n >= self.down_factor {
            let mean = data.acc_sum / data.acc_n as f64;
            data.down.push(Point { t_ns, value: mean });
            data.acc_sum = 0.0;
            data.acc_n = 0;
        }
    }

    /// Registered series names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.series
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// The newest point of `name`, if any.
    pub fn latest(&self, name: &str) -> Option<Point> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let i = series
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()?;
        series[i].1.raw.buf.back().copied()
    }

    /// The merged timeline of `name` — downsampled points older than the
    /// raw ring's head, then the raw points — restricted to `t_ns >=
    /// since_ns`, oldest first.
    pub fn query(&self, name: &str, since_ns: u64) -> Vec<Point> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let Ok(i) = series.binary_search_by(|(n, _)| n.as_str().cmp(name)) else {
            return Vec::new();
        };
        let data = &series[i].1;
        let raw_head = data.raw.buf.front().map_or(u64::MAX, |p| p.t_ns);
        let mut out: Vec<Point> = data
            .down
            .buf
            .iter()
            .filter(|p| p.t_ns < raw_head && p.t_ns >= since_ns)
            .copied()
            .collect();
        out.extend(data.raw.buf.iter().filter(|p| p.t_ns >= since_ns));
        out
    }

    /// Total points retained across every series and both resolutions
    /// (the memory-bound observable).
    pub fn point_count(&self) -> usize {
        self.series
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(_, d)| d.raw.buf.len() + d.down.buf.len())
            .sum()
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.series.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Renders a JSON array of `{"name": …, "points": [[t_ms, value],
    /// …]}` objects, one per selected series (every series when `filter`
    /// is `None`), each restricted to `t_ns >= since_ns`. Timestamps are
    /// clock milliseconds.
    pub fn render_json(&self, filter: Option<&[String]>, since_ns: u64) -> String {
        let names: Vec<String> = match filter {
            Some(f) => f.to_vec(),
            None => self.names(),
        };
        let mut out = String::from("[");
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"points\": [",
                json_escape(name)
            ));
            for (j, p) in self.query(name, since_ns).iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {}]", p.t_ns / 1_000_000, fmt_f64(p.value)));
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

impl Default for SeriesStore {
    fn default() -> SeriesStore {
        SeriesStore::with_defaults()
    }
}

/// Formats a sample value for JSON: finite, integral floats print without
/// a fraction, everything non-finite prints as 0.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One sample's worth of externally-sourced signals (see
/// [`Sampler::add_source`]).
#[derive(Debug, Default)]
pub struct SampleSet {
    gauges: Vec<(String, f64)>,
    counters: Vec<(String, f64)>,
}

impl SampleSet {
    /// Contributes an instantaneous gauge, recorded as-is under `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_owned(), value));
    }

    /// Contributes a cumulative counter, recorded as a per-second rate
    /// under `<name>:rate`.
    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.push((name.to_owned(), value));
    }
}

/// An extra per-sample signal source.
pub type Source = Box<dyn Fn(&mut SampleSet) + Send + Sync>;

/// Sampler shape: interval, retention, and the time source.
#[derive(Clone)]
pub struct SamplerConfig {
    /// Sampling period.
    pub interval: Duration,
    /// Raw-ring capacity per series.
    pub raw_capacity: usize,
    /// Raw points folded per downsampled point.
    pub down_factor: usize,
    /// Downsampled-ring capacity per series.
    pub down_capacity: usize,
    /// Per-fingerprint query series retained (most-executed first).
    pub top_queries: usize,
    /// Time source: virtual in tests, monotonic in production.
    pub clock: Clock,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: Duration::from_millis(DEFAULT_SAMPLE_MS),
            raw_capacity: DEFAULT_RAW_CAPACITY,
            down_factor: DEFAULT_DOWN_FACTOR,
            down_capacity: DEFAULT_DOWN_CAPACITY,
            top_queries: DEFAULT_TOP_QUERIES,
            clock: Clock::monotonic(),
        }
    }
}

struct SamplerState {
    /// Clock reading the next sample is due at (0 = due immediately).
    next_due_ns: u64,
    /// Previous sample time, for rate denominators.
    last_t_ns: Option<u64>,
    /// Previous cumulative counter values, for rate numerators.
    last: HashMap<String, f64>,
}

/// The scraper: call [`Sampler::tick`] on schedule (tests drive it with a
/// virtual clock, zero sleeps) or hand an `Arc<Sampler>` to
/// [`Sampler::spawn`] for the production background thread.
pub struct Sampler {
    interval: Duration,
    top_queries: usize,
    clock: Clock,
    store: Arc<SeriesStore>,
    slo: Option<Arc<crate::slo::SloEngine>>,
    sources: Vec<Source>,
    state: Mutex<SamplerState>,
    samples: AtomicU64,
}

/// Live sampler-thread count behind [`sampler_active`].
static ACTIVE_SAMPLERS: AtomicU64 = AtomicU64::new(0);

/// Whether any background sampler thread is running. One relaxed load —
/// the whole of the timeseries layer's hot-path presence.
#[inline(always)]
pub fn sampler_active() -> bool {
    ACTIVE_SAMPLERS.load(Ordering::Relaxed) > 0
}

impl Sampler {
    /// A sampler with its own store shaped by `config`.
    pub fn new(config: SamplerConfig) -> Sampler {
        Sampler {
            interval: config.interval.max(Duration::from_millis(1)),
            top_queries: config.top_queries,
            clock: config.clock.clone(),
            store: Arc::new(SeriesStore::new(
                config.raw_capacity,
                config.down_factor,
                config.down_capacity,
            )),
            slo: None,
            sources: Vec::new(),
            state: Mutex::new(SamplerState {
                next_due_ns: 0,
                last_t_ns: None,
                last: HashMap::new(),
            }),
            samples: AtomicU64::new(0),
        }
    }

    /// The sampler's series store (share the `Arc` with exporters).
    pub fn store(&self) -> &Arc<SeriesStore> {
        &self.store
    }

    /// The sampler's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Samples ever taken (ungated).
    pub fn samples_total(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Attaches an SLO engine, evaluated after every sample.
    pub fn set_slo(&mut self, slo: Arc<crate::slo::SloEngine>) {
        self.slo = Some(slo);
    }

    /// The attached SLO engine, if any.
    pub fn slo(&self) -> Option<&Arc<crate::slo::SloEngine>> {
        self.slo.as_ref()
    }

    /// Registers an extra per-sample signal source (called on the sampler
    /// thread each sample).
    pub fn add_source(&mut self, source: Source) {
        self.sources.push(source);
    }

    /// Takes one sample if the interval has elapsed since the last; the
    /// schedule stays phase-locked to the first sample (missed periods
    /// are skipped, not replayed). Returns whether a sample was taken.
    pub fn tick(&self) -> bool {
        let now = self.clock.now_ns();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.next_due_ns > now {
            return false;
        }
        let interval = u64::try_from(self.interval.as_nanos()).unwrap_or(u64::MAX);
        let mut due = if st.next_due_ns == 0 {
            now
        } else {
            st.next_due_ns
        };
        while due <= now {
            due = due.saturating_add(interval);
        }
        st.next_due_ns = due;
        self.sample_locked(&mut st, now);
        drop(st);
        if let Some(slo) = &self.slo {
            slo.evaluate(&self.store, now);
        }
        true
    }

    /// Takes one sample unconditionally at the clock's current reading
    /// (does not move the [`Sampler::tick`] schedule).
    pub fn sample_now(&self) {
        let now = self.clock.now_ns();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.sample_locked(&mut st, now);
        drop(st);
        if let Some(slo) = &self.slo {
            slo.evaluate(&self.store, now);
        }
    }

    fn sample_locked(&self, st: &mut SamplerState, now: u64) {
        let mut set = SampleSet::default();

        let snap = crate::registry().snapshot();
        for c in &snap.counters {
            set.counter(&c.name, c.value as f64);
        }
        for h in &snap.histograms {
            set.gauge(&format!("{}:p50", h.name), h.quantile(0.50));
            set.gauge(&format!("{}:p95", h.name), h.quantile(0.95));
            set.gauge(&format!("{}:p99", h.name), h.quantile(0.99));
            set.counter(&h.name, h.count as f64);
        }

        let queries = crate::query_stats().snapshot();
        let (mut execs, mut errors, mut rows) = (0u64, 0u64, 0u64);
        for q in &queries {
            execs += q.count;
            errors += q.errors;
            rows += q.rows;
        }
        set.counter("query.executions", execs as f64);
        set.counter("query.errors", errors as f64);
        set.counter("query.rows", rows as f64);
        for q in queries.iter().take(self.top_queries) {
            set.gauge(
                &format!("query.fp.{:016x}:p95_ns", q.fingerprint),
                q.latency.quantile(0.95),
            );
        }

        for source in &self.sources {
            source(&mut set);
        }

        if let Some(last_t) = st.last_t_ns {
            let dt_ns = now.saturating_sub(last_t);
            if dt_ns > 0 {
                for (name, value) in &set.counters {
                    if let Some(prev) = st.last.get(name) {
                        // Backwards movement means the counter restarted:
                        // its whole current value accrued since the reset.
                        let delta = if value >= prev { value - prev } else { *value };
                        let rate = delta * 1e9 / dt_ns as f64;
                        self.store.record(&format!("{name}:rate"), now, rate);
                    }
                }
            }
        }
        for (name, value) in &set.counters {
            st.last.insert(name.clone(), *value);
        }
        st.last_t_ns = Some(now);

        for (name, value) in &set.gauges {
            self.store.record(name, now, *value);
        }

        self.samples.fetch_add(1, Ordering::Relaxed);
        crate::counter!("obs.sampler.samples").incr();
    }

    /// Starts the production background thread: one [`Sampler::tick`] per
    /// interval until the returned handle shuts down. The thread sleeps
    /// on a channel, so shutdown is prompt rather than interval-quantized.
    pub fn spawn(self: &Arc<Sampler>) -> SamplerThread {
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let sampler = Arc::clone(self);
        ACTIVE_SAMPLERS.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name("frappe-sampler".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(sampler.interval) {
                    Err(RecvTimeoutError::Timeout) => {
                        sampler.tick();
                    }
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                }
            })
            .expect("spawn sampler thread");
        SamplerThread {
            stop_tx: Some(stop_tx),
            handle: Some(handle),
        }
    }
}

/// RAII handle for the background sampler thread; stops and joins it on
/// [`SamplerThread::shutdown`] or drop.
pub struct SamplerThread {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl SamplerThread {
    /// Stops the thread and joins it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
            drop(tx);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            ACTIVE_SAMPLERS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for SamplerThread {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, ObsLevel};

    const MS: u64 = 1_000_000;

    fn sampler(clock: &Clock) -> Sampler {
        Sampler::new(SamplerConfig {
            interval: Duration::from_millis(250),
            raw_capacity: 8,
            down_factor: 4,
            down_capacity: 8,
            top_queries: 4,
            clock: clock.clone(),
        })
    }

    #[test]
    fn store_rings_overwrite_oldest_and_stay_bounded() {
        let store = SeriesStore::new(4, 2, 3);
        for i in 0..10u64 {
            store.record("s", i * MS, i as f64);
        }
        let pts = store.query("s", 0);
        // Raw keeps the newest 4; the downsampled ring backfills older
        // 2-point means (capacity 3, oldest overwritten).
        let raw: Vec<f64> = pts.iter().rev().take(4).rev().map(|p| p.value).collect();
        assert_eq!(raw, vec![6.0, 7.0, 8.0, 9.0]);
        assert!(
            store.point_count() <= 4 + 3,
            "bounded: {}",
            store.point_count()
        );
        // Of the downsampled means (0.5, 2.5, 4.5, 6.5, 8.5), the ring
        // kept the last three; only the (4,5) bucket predates the raw head.
        assert_eq!(pts[0].value, 4.5);
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn downsample_points_are_bucket_means_with_last_timestamp() {
        let store = SeriesStore::new(64, 4, 32);
        for i in 0..8u64 {
            store.record("d", i * MS, i as f64);
        }
        // Buckets (0..4) and (4..8): means 1.5 and 5.5 at t of the last
        // point folded in.
        let all = store.query("d", 0);
        assert_eq!(all.len(), 8, "raw ring still holds everything");
        let latest = store.latest("d").unwrap();
        assert_eq!(latest.value, 7.0);
        // Shrink the raw window by flooding, exposing the downsampled view.
        for i in 8..72u64 {
            store.record("d", i * MS, 0.0);
        }
        let merged = store.query("d", 0);
        assert_eq!(merged[0].t_ns, 3 * MS, "bucket stamped with last raw t");
        assert_eq!(merged[0].value, 1.5, "bucket mean");
        assert_eq!(merged[1].value, 5.5);
    }

    #[test]
    fn query_since_filters_and_merges_resolutions() {
        let store = SeriesStore::new(2, 2, 8);
        for i in 0..6u64 {
            store.record("m", i * MS, i as f64);
        }
        let all = store.query("m", 0);
        // Raw holds t=4,5; downsampled holds means at t=1,3 (t=5's bucket
        // overlaps raw and is excluded).
        assert_eq!(
            all.iter().map(|p| p.t_ns / MS).collect::<Vec<_>>(),
            vec![1, 3, 4, 5]
        );
        let since = store.query("m", 4 * MS);
        assert_eq!(since.len(), 2);
        assert!(store.query("absent", 0).is_empty());
    }

    #[test]
    fn sampler_timestamps_are_deterministic_under_virtual_time() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        // Register before the first sample so the rate series exists from
        // the second sample onward.
        let c = crate::registry().counter("ts.det.counter");
        c.reset();
        let clock = Clock::virtual_at(1_000 * MS);
        let s = sampler(&clock);
        assert!(s.tick(), "first tick samples immediately");
        clock.advance(Duration::from_millis(100));
        assert!(!s.tick(), "not due yet");
        clock.advance(Duration::from_millis(150));
        assert!(s.tick());
        clock.advance(Duration::from_millis(700));
        assert!(s.tick(), "late tick samples once and re-phases");
        assert_eq!(s.samples_total(), 3);
        let pts = s.store().query("ts.det.counter:rate", 0);
        let ts: Vec<u64> = pts.iter().map(|p| p.t_ns / MS).collect();
        assert_eq!(ts, vec![1_250, 1_950], "rates start at the second sample");
        c.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn counter_rates_derive_correctly_including_wraparound() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let c = crate::registry().counter("ts.test.requests");
        c.reset();
        let clock = Clock::virtual_at(0);
        let s = sampler(&clock);
        c.add(100);
        s.sample_now(); // baseline: no rate yet
        clock.advance(Duration::from_secs(1));
        c.add(250);
        s.sample_now();
        clock.advance(Duration::from_secs(2));
        c.add(100);
        s.sample_now();
        let pts = s.store().query("ts.test.requests:rate", 0);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].value, 250.0, "250 in 1s");
        assert_eq!(pts[1].value, 50.0, "100 in 2s");
        // Reset mid-flight: the counter moves backwards, so the delta is
        // its post-reset value.
        c.reset();
        c.add(30);
        clock.advance(Duration::from_secs(1));
        s.sample_now();
        let pts = s.store().query("ts.test.requests:rate", 0);
        assert_eq!(pts[2].value, 30.0, "wraparound treats value as delta");
        c.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn histograms_become_quantile_gauges_and_count_rates() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = crate::registry().histogram("ts.test.latency_ns");
        h.reset();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let clock = Clock::virtual_at(0);
        let s = sampler(&clock);
        s.sample_now();
        let p50 = s.store().latest("ts.test.latency_ns:p50").unwrap().value;
        let p99 = s.store().latest("ts.test.latency_ns:p99").unwrap().value;
        assert!(p50 < 2_000.0, "p50={p50}");
        assert!(p99 > 500_000.0, "p99={p99}");
        clock.advance(Duration::from_secs(1));
        h.record(1_000);
        s.sample_now();
        let rate = s.store().latest("ts.test.latency_ns:rate").unwrap().value;
        assert_eq!(rate, 1.0, "one new observation per second");
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn query_stats_feed_aggregate_and_per_fingerprint_series() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        crate::query_stats().observe(0xbeef, "MATCH n RETURN n", 5_000_000, 3, false);
        crate::query_stats().observe(0xbeef, "MATCH n RETURN n", 5_000_000, 3, false);
        let clock = Clock::virtual_at(0);
        let s = sampler(&clock);
        s.sample_now();
        clock.advance(Duration::from_secs(1));
        crate::query_stats().observe(0xbeef, "MATCH n RETURN n", 5_000_000, 3, true);
        s.sample_now();
        let exec_rate = s.store().latest("query.executions:rate").unwrap().value;
        assert!(exec_rate >= 1.0, "{exec_rate}");
        let fp = s
            .store()
            .latest("query.fp.000000000000beef:p95_ns")
            .expect("per-fingerprint p95 series");
        assert!(fp.value > 0.0);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn sources_contribute_gauges_and_counters() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let clock = Clock::virtual_at(0);
        let mut s = sampler(&clock);
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        s.add_source(Box::new(move |set| {
            let n = seen.fetch_add(1, Ordering::Relaxed) + 1;
            set.gauge("src.state", 2.0);
            set.counter("src.total", (n * 10) as f64);
        }));
        s.sample_now();
        clock.advance(Duration::from_secs(1));
        s.sample_now();
        assert_eq!(s.store().latest("src.state").unwrap().value, 2.0);
        assert_eq!(s.store().latest("src.total:rate").unwrap().value, 10.0);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn render_json_is_filtered_and_parseable_shape() {
        let store = SeriesStore::new(8, 4, 8);
        store.record("a", 1 * MS, 1.5);
        store.record("a", 2 * MS, 2.0);
        store.record("b", 1 * MS, f64::NAN);
        let json = store.render_json(None, 0);
        assert!(json.starts_with("[{\"name\": \"a\", \"points\": [[1, 1.5], [2, 2]]}"));
        assert!(
            json.contains("\"name\": \"b\", \"points\": [[1, 0]]"),
            "{json}"
        );
        let one = store.render_json(Some(&["b".to_owned()]), 0);
        assert!(!one.contains("\"name\": \"a\""), "{one}");
        let empty = store.render_json(Some(&["nope".to_owned()]), 0);
        assert_eq!(empty, "[{\"name\": \"nope\", \"points\": []}]");
    }

    #[test]
    fn spawned_thread_samples_and_flags_active() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        assert!(!sampler_active());
        let clock = Clock::monotonic();
        let s = Arc::new(Sampler::new(SamplerConfig {
            interval: Duration::from_millis(5),
            clock,
            ..SamplerConfig::default()
        }));
        let thread = s.spawn();
        assert!(sampler_active());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.samples_total() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(s.samples_total() >= 2, "thread sampled");
        thread.shutdown();
        assert!(!sampler_active());
        set_level(ObsLevel::Off);
    }
}
