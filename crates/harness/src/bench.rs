//! A warmup/median/stddev micro-benchmark harness with a
//! criterion-compatible-enough API, so the 9 `frappe-bench` targets port
//! with an import swap: `Criterion`, `benchmark_group`, `sample_size`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! and the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Each finished group appends its results to
//! `$FRAPPE_BENCH_DIR/BENCH_<group>.json` (default `target/frappe-bench/`)
//! for trajectory tracking across commits.

use crate::json::json_escape;
use std::time::{Duration, Instant};

// Re-export the crate-root macros so bench files can write
// `use frappe_harness::bench::{criterion_group, criterion_main, ...}`.
pub use crate::{criterion_group, criterion_main};

/// Target wall time per measured sample; iteration counts are calibrated so
/// one sample takes roughly this long.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(10);
const WARMUP_TIME: Duration = Duration::from_millis(100);
const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Top-level harness handle (the `criterion::Criterion` stand-in).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\ngroup {name}");
        BenchmarkGroup {
            _c: self,
            name,
            sample_size: DEFAULT_SAMPLE_SIZE,
            results: Vec::new(),
            extras: Vec::new(),
            finished: false,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let mut g = self.benchmark_group("ungrouped");
        g.bench_function(name, f);
        g.finish();
    }
}

/// A benchmark identifier with a function name and a parameter, rendered
/// `name/param` like criterion's.
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            rendered: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// Something usable as a benchmark name: a string or a [`BenchmarkId`].
pub trait IntoBenchmarkName {
    /// The rendered name.
    fn into_name(self) -> String;
}

impl IntoBenchmarkName for &str {
    fn into_name(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkName for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkName for BenchmarkId {
    fn into_name(self) -> String {
        self.rendered
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name within its group.
    pub name: String,
    /// Median ns/iter across samples.
    pub median_ns: f64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Population standard deviation of ns/iter.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// A named group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    results: Vec<Stats>,
    extras: Vec<(String, String)>,
    finished: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets how many samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Measures one benchmark.
    pub fn bench_function(
        &mut self,
        name: impl IntoBenchmarkName,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let name = name.into_name();
        let stats = run_benchmark(&name, self.sample_size, &mut |b| f(b));
        report(&stats);
        self.results.push(stats);
    }

    /// Measures one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let name = id.into_name();
        let stats = run_benchmark(&name, self.sample_size, &mut |b| f(b, input));
        report(&stats);
        self.results.push(stats);
    }

    /// Records a pre-measured value (nanoseconds by convention) as a
    /// synthetic benchmark row, so derived statistics — a latency
    /// percentile from a load run, a histogram quantile — flow through the
    /// same `BENCH_<group>.json` rows the regression gate watches. The row
    /// has one sample whose median/mean/min/max all equal `value_ns`.
    pub fn report_value(&mut self, name: impl IntoBenchmarkName, value_ns: f64) {
        let stats = Stats {
            name: name.into_name(),
            median_ns: value_ns,
            mean_ns: value_ns,
            stddev_ns: 0.0,
            min_ns: value_ns,
            max_ns: value_ns,
            samples: 1,
            iters_per_sample: 1,
        };
        report(&stats);
        self.results.push(stats);
    }

    /// Embeds a pre-rendered JSON value under `key` at the top level of
    /// the group's `BENCH_<group>.json` (e.g. a metrics snapshot from an
    /// observability layer). `raw_json` must already be valid JSON — it is
    /// written verbatim. A repeated key replaces the earlier value.
    pub fn embed_json(&mut self, key: impl Into<String>, raw_json: impl Into<String>) {
        let key = key.into();
        self.extras.retain(|(k, _)| *k != key);
        self.extras.push((key, raw_json.into()));
    }

    /// Finishes the group, writing `BENCH_<group>.json`.
    pub fn finish(mut self) {
        self.finished = true;
        write_json(&self.name, &self.results, &self.extras);
    }
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        if !self.finished && !self.results.is_empty() {
            write_json(&self.name, &self.results, &self.extras);
        }
    }
}

/// The per-benchmark measurement handle passed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, discarding each return value through a
    /// compiler fence so the work isn't optimised away.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn time_once(f: &mut dyn FnMut(&mut Bencher), iters: u64) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

/// Smoke mode: `FRAPPE_BENCH_QUICK=1` skips calibration and warmup and runs
/// each benchmark once per sample with the minimum sample count — CI uses it
/// to verify every bench target end-to-end (and still emit its JSON) without
/// paying for statistically meaningful timings.
fn quick_mode() -> bool {
    std::env::var("FRAPPE_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Calibrates an iteration count whose total runtime is near
/// [`TARGET_SAMPLE_TIME`], then warms up and takes `sample_size` samples.
fn run_benchmark(name: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) -> Stats {
    if quick_mode() {
        let per_iter: Vec<f64> = (0..2).map(|_| time_once(f, 1).as_nanos() as f64).collect();
        let mean = (per_iter[0] + per_iter[1]) / 2.0;
        return Stats {
            name: name.to_owned(),
            median_ns: mean,
            mean_ns: mean,
            stddev_ns: 0.0,
            min_ns: per_iter[0].min(per_iter[1]),
            max_ns: per_iter[0].max(per_iter[1]),
            samples: 2,
            iters_per_sample: 1,
        };
    }
    // Calibrate: grow iters until one sample is long enough to time reliably.
    let mut iters: u64 = 1;
    loop {
        let t = time_once(f, iters);
        if t >= TARGET_SAMPLE_TIME || iters >= 1 << 30 {
            break;
        }
        if t < TARGET_SAMPLE_TIME / 20 {
            iters = iters.saturating_mul(10);
        } else {
            // Close: scale proportionally (with headroom) and stop.
            let scale = TARGET_SAMPLE_TIME.as_nanos() as f64 / t.as_nanos().max(1) as f64;
            iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
            break;
        }
    }

    // Warmup.
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP_TIME {
        time_once(f, iters);
    }

    // Measure.
    let mut per_iter_ns: Vec<f64> = (0..sample_size)
        .map(|_| time_once(f, iters).as_nanos() as f64 / iters as f64)
        .collect();
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let n = per_iter_ns.len();
    let median_ns = if n % 2 == 1 {
        per_iter_ns[n / 2]
    } else {
        (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
    };
    let mean_ns = per_iter_ns.iter().sum::<f64>() / n as f64;
    let var = per_iter_ns
        .iter()
        .map(|x| (x - mean_ns) * (x - mean_ns))
        .sum::<f64>()
        / n as f64;

    Stats {
        name: name.to_owned(),
        median_ns,
        mean_ns,
        stddev_ns: var.sqrt(),
        min_ns: per_iter_ns[0],
        max_ns: per_iter_ns[n - 1],
        samples: n,
        iters_per_sample: iters,
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn report(s: &Stats) {
    eprintln!(
        "  {:<40} median {:>12}  mean {:>12}  stddev {:>10}  ({} samples × {} iters)",
        s.name,
        human_ns(s.median_ns),
        human_ns(s.mean_ns),
        human_ns(s.stddev_ns),
        s.samples,
        s.iters_per_sample,
    );
}

fn sanitize_file_component(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `BENCH_<group>.json` under `$FRAPPE_BENCH_DIR` (default
/// `target/frappe-bench`). Failures are reported but non-fatal: benches
/// should still run on read-only checkouts.
fn write_json(group: &str, results: &[Stats], extras: &[(String, String)]) {
    let dir =
        std::env::var("FRAPPE_BENCH_DIR").unwrap_or_else(|_| "target/frappe-bench".to_owned());
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"group\": \"{}\",\n", json_escape(group)));
    json.push_str(&format!("  \"unix_time\": {epoch_secs},\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, s) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
             \"stddev_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
             \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            json_escape(&s.name),
            s.median_ns,
            s.mean_ns,
            s.stddev_ns,
            s.min_ns,
            s.max_ns,
            s.samples,
            s.iters_per_sample,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]");
    for (key, raw) in extras {
        json.push_str(&format!(",\n  \"{}\": {raw}", json_escape(key)));
    }
    json.push_str("\n}\n");

    let path = format!("{dir}/BENCH_{}.json", sanitize_file_component(group));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("  (bench json not written to {path}: {e})");
    }
}

/// Groups benchmark functions, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::bench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main`, mirroring `criterion::criterion_main!`. CLI arguments
/// (cargo bench passes `--bench`) are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FRAPPE_BENCH_DIR` is process-global; the tests that set it
    /// serialize here.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn stats_are_computed_and_sane() {
        let stats = run_benchmark("spin", 5, &mut |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(i * i);
                }
                acc
            })
        });
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.stddev_ns >= 0.0);
    }

    #[test]
    fn benchmark_id_renders_like_criterion() {
        assert_eq!(BenchmarkId::new("lookup", 512).into_name(), "lookup/512");
    }

    #[test]
    fn json_is_written_to_env_dir() {
        let _env = env_lock();
        let dir = std::env::temp_dir().join(format!("frappe-bench-test-{}", std::process::id()));
        std::env::set_var("FRAPPE_BENCH_DIR", &dir);
        write_json(
            "unit test/group",
            &[Stats {
                name: "a \"quoted\" name".into(),
                median_ns: 1.5,
                mean_ns: 2.0,
                stddev_ns: 0.5,
                min_ns: 1.0,
                max_ns: 3.0,
                samples: 3,
                iters_per_sample: 10,
            }],
            &[("metrics".to_owned(), "{\"hits\": 7}".to_owned())],
        );
        std::env::remove_var("FRAPPE_BENCH_DIR");
        let path = dir.join("BENCH_unit_test_group.json");
        let body = std::fs::read_to_string(&path).expect("json file written");
        assert!(body.contains("\"group\": \"unit test/group\""));
        assert!(body.contains("a \\\"quoted\\\" name"));
        assert!(body.contains("\"median_ns\": 1.5"));
        assert!(body.contains("\"metrics\": {\"hits\": 7}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_value_rows_flow_into_the_group_json() {
        let _env = env_lock();
        let dir = std::env::temp_dir().join(format!("frappe-bench-rv-{}", std::process::id()));
        let mut c = Criterion::default();
        std::env::set_var("FRAPPE_BENCH_DIR", &dir);
        let mut g = c.benchmark_group("report_value_unit");
        g.report_value("phase/queue_wait_p99", 1234.5);
        g.finish();
        std::env::remove_var("FRAPPE_BENCH_DIR");
        let body = std::fs::read_to_string(dir.join("BENCH_report_value_unit.json"))
            .expect("json file written");
        assert!(
            body.contains("\"name\": \"phase/queue_wait_p99\", \"median_ns\": 1234.5"),
            "{body}"
        );
        assert!(body.contains("\"samples\": 1, \"iters_per_sample\": 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let dir = std::env::temp_dir().join(format!("frappe-bench-grp-{}", std::process::id()));
        let mut g = c.benchmark_group("api_smoke");
        g.sample_size(2);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u32, |b, n| {
            b.iter(|| n * 2)
        });
        g.finish();
        std::fs::remove_dir_all(&dir).ok();
    }
}
