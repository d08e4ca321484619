//! SLO tracking over the in-process time series: declared objectives,
//! rolling error budgets, and multi-window burn-rate alerts.
//!
//! An objective declares what "good" looks like at one sample instant —
//! p99 latency under a bound, error rate under a ceiling, availability
//! (1 − shed−and−error fraction) above a floor. The engine classifies
//! every sampler tick as in- or out-of-compliance and keeps a bounded
//! window of verdicts per objective. The **error budget** is the fraction
//! of time the objective is allowed to be out of compliance
//! ([`TIME_BUDGET`], 0.1% — "99.9% of sampled instants comply"), and the
//! **burn rate** over a window is `bad_fraction / TIME_BUDGET`: burn 1.0
//! spends the budget exactly at the sustainable pace, burn 14.4 exhausts
//! a 30-day budget in ~50 hours.
//!
//! Alerting follows the SRE-workbook multi-window shape: page when the
//! budget is burning fast *right now and not just as a blip* — fast
//! (1 min) **and** long (5 min) windows both above
//! [`FAST_BURN_THRESHOLD`] — or burning steadily — long **and** slow
//! (30 min) windows both above [`SLOW_BURN_THRESHOLD`]. A firing alert
//! resolves with hysteresis: both conditions clear **and** the fast
//! window drops under [`RESOLVE_BURN`], so an alert does not flap while
//! bad samples age out of the longer windows. Transitions append to a
//! ring-buffered alert log (the `/alerts` endpoint; `/healthz` reports
//! `degraded` while anything fires).
//!
//! In the small-sample regime (uptime shorter than a window) fractions
//! are computed over the samples that exist, so a fresh server under
//! attack pages within a few samples instead of waiting a full window —
//! and resolution is still hysteresis-gated on the fast window.

use crate::timeseries::{fmt_f64, SeriesStore};
use frappe_harness::json::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fraction of sampled instants an objective may be out of compliance
/// (99.9% time-in-compliance).
pub const TIME_BUDGET: f64 = 0.001;
/// Burn threshold for the fast (1 m) + long (5 m) window pair.
pub const FAST_BURN_THRESHOLD: f64 = 14.4;
/// Burn threshold for the long (5 m) + slow (30 m) window pair.
pub const SLOW_BURN_THRESHOLD: f64 = 6.0;
/// A firing alert resolves only once the fast-window burn drops below
/// this (hysteresis).
pub const RESOLVE_BURN: f64 = 1.0;
/// Alert-log ring capacity (firing/resolved transitions retained).
pub const ALERT_LOG_CAPACITY: usize = 256;

/// What one objective bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveKind {
    /// Sampled p99 of the configured latency series stays under this many
    /// milliseconds.
    LatencyP99Ms(f64),
    /// errors/executions stays under this fraction.
    ErrorRate(f64),
    /// 1 − (shed + errors) / (executions + shed) stays above this
    /// fraction.
    Availability(f64),
}

impl ObjectiveKind {
    /// The declared bound, as given.
    pub fn target(&self) -> f64 {
        match self {
            ObjectiveKind::LatencyP99Ms(v)
            | ObjectiveKind::ErrorRate(v)
            | ObjectiveKind::Availability(v) => *v,
        }
    }
}

/// One declared objective (a `--slo NAME=VALUE` flag).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (`latency_p99_ms`, `error_rate`, `availability`).
    pub name: String,
    /// The bound.
    pub kind: ObjectiveKind,
    /// For latency objectives: the histogram whose `:p99` series is
    /// judged (default `serve.req.exec_ns`).
    pub series: String,
}

impl SloSpec {
    /// Parses `NAME=VALUE` (optionally `latency_p99_ms=50@histo.name` to
    /// judge a non-default latency series).
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let (name, rest) = s
            .split_once('=')
            .ok_or_else(|| format!("--slo wants NAME=VALUE, got {s:?}"))?;
        let (value, series) = match rest.split_once('@') {
            Some((v, series)) if !series.is_empty() => (v, Some(series)),
            Some(_) => return Err(format!("--slo {name}: empty series after '@'")),
            None => (rest, None),
        };
        let v: f64 = value
            .parse()
            .map_err(|_| format!("--slo {name}: unparseable value {value:?}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("--slo {name}: value must be positive, got {value}"));
        }
        let kind = match name {
            "latency_p99_ms" => ObjectiveKind::LatencyP99Ms(v),
            "error_rate" if v < 1.0 => ObjectiveKind::ErrorRate(v),
            "availability" if v < 1.0 => ObjectiveKind::Availability(v),
            "error_rate" | "availability" => {
                return Err(format!(
                    "--slo {name}: value must be a fraction below 1, got {value}"
                ))
            }
            _ => {
                return Err(format!(
                    "--slo: unknown objective {name:?} (want latency_p99_ms, error_rate, \
                     or availability)"
                ))
            }
        };
        if series.is_some() && !matches!(kind, ObjectiveKind::LatencyP99Ms(_)) {
            return Err(format!(
                "--slo {name}: '@series' only applies to latency_p99_ms"
            ));
        }
        Ok(SloSpec {
            name: name.to_owned(),
            kind,
            series: series.unwrap_or("serve.req.exec_ns").to_owned(),
        })
    }
}

/// The three burn-rate evaluation windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Fast page window (default 1 min).
    pub fast: Duration,
    /// Confirmation window for fast pages / fast window for slow pages
    /// (default 5 min).
    pub long: Duration,
    /// Slow-burn window; also bounds verdict retention (default 30 min).
    pub slow: Duration,
}

impl Default for Windows {
    fn default() -> Windows {
        Windows {
            fast: Duration::from_secs(60),
            long: Duration::from_secs(300),
            slow: Duration::from_secs(1_800),
        }
    }
}

impl Windows {
    /// Parses `FAST:LONG:SLOW` in seconds (the `--slo-windows` flag).
    pub fn parse(s: &str) -> Result<Windows, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [f, l, w] = parts.as_slice() else {
            return Err(format!(
                "--slo-windows wants FAST:LONG:SLOW seconds, got {s:?}"
            ));
        };
        let secs = |v: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("--slo-windows: bad seconds value {v:?}"))
        };
        let (f, l, w) = (secs(f)?, secs(l)?, secs(w)?);
        if !(f < l && l < w) {
            return Err(format!("--slo-windows: want FAST < LONG < SLOW, got {s:?}"));
        }
        Ok(Windows {
            fast: Duration::from_secs(f),
            long: Duration::from_secs(l),
            slow: Duration::from_secs(w),
        })
    }
}

/// Burn rates over the three windows at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BurnRates {
    /// Fast-window burn (bad fraction / budget).
    pub fast: f64,
    /// Long-window burn.
    pub long: f64,
    /// Slow-window burn.
    pub slow: f64,
}

/// One firing/resolved transition in the alert log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Monotonic event sequence number.
    pub seq: u64,
    /// Clock nanoseconds of the transition.
    pub t_ns: u64,
    /// Objective name.
    pub slo: String,
    /// `true` = fired, `false` = resolved.
    pub firing: bool,
    /// Burn rates at the transition.
    pub burn: BurnRates,
}

/// Point-in-time objective state for renderers (`/alerts`, `/dash`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSummary {
    /// Objective name.
    pub name: String,
    /// Judged series (latency objectives).
    pub series: String,
    /// Declared bound.
    pub target: f64,
    /// Currently firing.
    pub firing: bool,
    /// Burn rates now.
    pub burn: BurnRates,
    /// Slow-window budget remaining, 0.0 ..= 1.0.
    pub budget_remaining: f64,
    /// Verdicts currently retained.
    pub samples: u64,
    /// Out-of-compliance verdicts retained.
    pub bad: u64,
}

struct ObjState {
    spec: SloSpec,
    /// (t_ns, bad) verdicts, oldest first, bounded by `cap`.
    verdicts: VecDeque<(u64, bool)>,
    firing: bool,
}

impl ObjState {
    fn burn(&self, window: Duration, now_ns: u64) -> f64 {
        let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        let since = now_ns.saturating_sub(window_ns);
        let (mut total, mut bad) = (0u64, 0u64);
        for (t, b) in self.verdicts.iter().rev() {
            if *t < since {
                break;
            }
            total += 1;
            bad += u64::from(*b);
        }
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / TIME_BUDGET
    }

    fn burn_rates(&self, windows: &Windows, now_ns: u64) -> BurnRates {
        BurnRates {
            fast: self.burn(windows.fast, now_ns),
            long: self.burn(windows.long, now_ns),
            slow: self.burn(windows.slow, now_ns),
        }
    }
}

/// Whether `burn` satisfies the multi-window page condition.
pub fn page_condition(burn: &BurnRates) -> bool {
    (burn.fast > FAST_BURN_THRESHOLD && burn.long > FAST_BURN_THRESHOLD)
        || (burn.long > SLOW_BURN_THRESHOLD && burn.slow > SLOW_BURN_THRESHOLD)
}

/// The SLO engine: owns the declared objectives, their verdict windows,
/// and the alert log. One per server; evaluated by the sampler after each
/// sample.
pub struct SloEngine {
    windows: Windows,
    /// Verdicts retained per objective (covers the slow window at the
    /// sampling interval, capped).
    cap: usize,
    objectives: Mutex<Vec<ObjState>>,
    alerts: Mutex<VecDeque<AlertEvent>>,
    next_seq: AtomicU64,
    firing_now: AtomicU64,
}

impl SloEngine {
    /// An engine for `specs`, retaining enough verdicts per objective to
    /// cover `windows.slow` at `interval`.
    pub fn new(specs: Vec<SloSpec>, windows: Windows, interval: Duration) -> SloEngine {
        let per_window = windows
            .slow
            .as_nanos()
            .div_ceil(interval.as_nanos().max(1))
            .min(32_768) as usize;
        SloEngine {
            windows,
            cap: per_window.max(8),
            objectives: Mutex::new(
                specs
                    .into_iter()
                    .map(|spec| ObjState {
                        spec,
                        verdicts: VecDeque::new(),
                        firing: false,
                    })
                    .collect(),
            ),
            alerts: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(0),
            firing_now: AtomicU64::new(0),
        }
    }

    /// The evaluation windows.
    pub fn windows(&self) -> Windows {
        self.windows
    }

    /// Declared objective count.
    pub fn declared(&self) -> usize {
        self.objectives
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Objectives currently firing (one relaxed load; `/healthz` reads
    /// this on every probe).
    #[inline]
    pub fn firing(&self) -> u64 {
        self.firing_now.load(Ordering::Relaxed)
    }

    /// Classifies every objective against the store's latest points and
    /// folds the verdicts in (the sampler calls this once per sample).
    pub fn evaluate(&self, store: &SeriesStore, now_ns: u64) {
        let latest = |name: &str| store.latest(name).map(|p| p.value);
        let rate = |name: &str| latest(&format!("{name}:rate")).unwrap_or(0.0);
        let mut objectives = self.objectives.lock().unwrap_or_else(|e| e.into_inner());
        for i in 0..objectives.len() {
            let bad = match objectives[i].spec.kind {
                ObjectiveKind::LatencyP99Ms(max_ms) => {
                    latest(&format!("{}:p99", objectives[i].spec.series))
                        .is_some_and(|p99_ns| p99_ns > max_ms * 1e6)
                }
                ObjectiveKind::ErrorRate(max) => {
                    let errors = rate("query.errors");
                    let execs = rate("query.executions");
                    execs > 0.0 && errors / execs > max
                }
                ObjectiveKind::Availability(min) => {
                    let shed = latest("serve.admit.shed_total:rate")
                        .or_else(|| latest("serve.admit.shed:rate"))
                        .unwrap_or(0.0);
                    let errors = rate("query.errors");
                    let execs = rate("query.executions");
                    let denom = execs + shed;
                    denom > 0.0 && 1.0 - (shed + errors) / denom < min
                }
            };
            self.ingest(&mut objectives[i], now_ns, bad);
        }
    }

    /// Records one verdict for the named objective directly (test and
    /// harness surface — production verdicts come from
    /// [`SloEngine::evaluate`]). No-op for unknown names.
    pub fn record(&self, slo: &str, t_ns: u64, bad: bool) {
        let mut objectives = self.objectives.lock().unwrap_or_else(|e| e.into_inner());
        for i in 0..objectives.len() {
            if objectives[i].spec.name == slo {
                self.ingest(&mut objectives[i], t_ns, bad);
                return;
            }
        }
    }

    fn ingest(&self, state: &mut ObjState, now_ns: u64, bad: bool) {
        if state.verdicts.len() >= self.cap {
            state.verdicts.pop_front();
        }
        state.verdicts.push_back((now_ns, bad));
        let burn = state.burn_rates(&self.windows, now_ns);
        let page = page_condition(&burn);
        let transition = if !state.firing && page {
            state.firing = true;
            self.firing_now.fetch_add(1, Ordering::Relaxed);
            crate::counter!("obs.slo.alerts_fired").incr();
            Some(true)
        } else if state.firing && !page && burn.fast < RESOLVE_BURN {
            state.firing = false;
            self.firing_now.fetch_sub(1, Ordering::Relaxed);
            crate::counter!("obs.slo.alerts_resolved").incr();
            Some(false)
        } else {
            None
        };
        if let Some(firing) = transition {
            let event = AlertEvent {
                seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                t_ns: now_ns,
                slo: state.spec.name.clone(),
                firing,
                burn,
            };
            let mut alerts = self.alerts.lock().unwrap_or_else(|e| e.into_inner());
            if alerts.len() >= ALERT_LOG_CAPACITY {
                alerts.pop_front();
            }
            alerts.push_back(event);
        }
    }

    /// Burn rates for the named objective at `now_ns`.
    pub fn burn_rates(&self, slo: &str, now_ns: u64) -> Option<BurnRates> {
        let objectives = self.objectives.lock().unwrap_or_else(|e| e.into_inner());
        objectives
            .iter()
            .find(|o| o.spec.name == slo)
            .map(|o| o.burn_rates(&self.windows, now_ns))
    }

    /// Point-in-time summaries for every objective.
    pub fn summaries(&self, now_ns: u64) -> Vec<ObjectiveSummary> {
        let objectives = self.objectives.lock().unwrap_or_else(|e| e.into_inner());
        objectives
            .iter()
            .map(|o| {
                let burn = o.burn_rates(&self.windows, now_ns);
                let (samples, bad) = (
                    o.verdicts.len() as u64,
                    o.verdicts.iter().filter(|(_, b)| *b).count() as u64,
                );
                ObjectiveSummary {
                    name: o.spec.name.clone(),
                    series: o.spec.series.clone(),
                    target: o.spec.kind.target(),
                    firing: o.firing,
                    burn,
                    budget_remaining: (1.0 - burn.slow).clamp(0.0, 1.0),
                    samples,
                    bad,
                }
            })
            .collect()
    }

    /// Retained alert transitions, oldest first.
    pub fn events(&self) -> Vec<AlertEvent> {
        self.alerts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the `/alerts` body: windows, per-objective state, and the
    /// transition log.
    pub fn to_json(&self, now_ns: u64) -> String {
        let mut out = format!(
            "{{\"windows_s\": {{\"fast\": {}, \"long\": {}, \"slow\": {}}}, \
             \"firing\": {}, \"objectives\": [",
            self.windows.fast.as_secs(),
            self.windows.long.as_secs(),
            self.windows.slow.as_secs(),
            self.firing(),
        );
        for (i, s) in self.summaries(now_ns).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"series\": \"{}\", \"target\": {}, \"firing\": {}, \
                 \"burn\": {{\"fast\": {}, \"long\": {}, \"slow\": {}}}, \
                 \"budget_remaining\": {}, \"samples\": {}, \"bad\": {}}}",
                json_escape(&s.name),
                json_escape(&s.series),
                fmt_f64(s.target),
                s.firing,
                fmt_f64(round3(s.burn.fast)),
                fmt_f64(round3(s.burn.long)),
                fmt_f64(round3(s.burn.slow)),
                fmt_f64(round3(s.budget_remaining)),
                s.samples,
                s.bad,
            ));
        }
        out.push_str("], \"alerts\": [");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"seq\": {}, \"t_ms\": {}, \"slo\": \"{}\", \"firing\": {}, \
                 \"burn_fast\": {}, \"burn_long\": {}, \"burn_slow\": {}}}",
                e.seq,
                e.t_ns / 1_000_000,
                json_escape(&e.slo),
                e.firing,
                fmt_f64(round3(e.burn.fast)),
                fmt_f64(round3(e.burn.long)),
                fmt_f64(round3(e.burn.slow)),
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn round3(v: f64) -> f64 {
    (v * 1_000.0).round() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::timeseries::{Sampler, SamplerConfig};
    use crate::{set_level, test_lock, ObsLevel};
    use std::sync::Arc;

    const SEC: u64 = 1_000_000_000;

    fn engine(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine::new(
            specs,
            Windows {
                fast: Duration::from_secs(10),
                long: Duration::from_secs(50),
                slow: Duration::from_secs(300),
            },
            Duration::from_secs(1),
        )
    }

    fn latency_spec(ms: f64) -> SloSpec {
        SloSpec {
            name: "latency_p99_ms".into(),
            kind: ObjectiveKind::LatencyP99Ms(ms),
            series: "t.lat_ns".into(),
        }
    }

    #[test]
    fn spec_parse_accepts_the_flag_grammar() {
        let s = SloSpec::parse("latency_p99_ms=50").unwrap();
        assert_eq!(s.kind, ObjectiveKind::LatencyP99Ms(50.0));
        assert_eq!(s.series, "serve.req.exec_ns");
        let s = SloSpec::parse("latency_p99_ms=2.5@serve.req.queue_ns").unwrap();
        assert_eq!(s.series, "serve.req.queue_ns");
        assert_eq!(
            SloSpec::parse("error_rate=0.001").unwrap().kind,
            ObjectiveKind::ErrorRate(0.001)
        );
        assert_eq!(
            SloSpec::parse("availability=0.999").unwrap().kind,
            ObjectiveKind::Availability(0.999)
        );
        for bad in [
            "latency_p99_ms",
            "latency_p99_ms=",
            "latency_p99_ms=-1",
            "latency_p99_ms=x",
            "latency_p99_ms=5@",
            "error_rate=1.5",
            "availability=1",
            "error_rate=0.1@series",
            "unknown=1",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn windows_parse_and_ordering() {
        let w = Windows::parse("2:4:8").unwrap();
        assert_eq!(w.fast, Duration::from_secs(2));
        assert_eq!(w.slow, Duration::from_secs(8));
        assert!(Windows::parse("60:300").is_err());
        assert!(Windows::parse("300:60:1800").is_err());
        assert!(Windows::parse("0:1:2").is_err());
        assert!(Windows::parse("a:b:c").is_err());
    }

    #[test]
    fn alert_fires_iff_both_windows_burn_and_resolves_with_hysteresis() {
        let e = engine(vec![latency_spec(50.0)]);
        // Good samples establish history.
        for t in 0..60u64 {
            e.record("latency_p99_ms", t * SEC, false);
        }
        assert_eq!(e.firing(), 0);
        // A burst of bad samples: fast window saturates immediately, but
        // the alert must wait for the long window to cross too.
        let mut fired_at = None;
        for t in 60..120u64 {
            e.record("latency_p99_ms", t * SEC, true);
            let burn = e.burn_rates("latency_p99_ms", t * SEC).unwrap();
            if e.firing() > 0 && fired_at.is_none() {
                fired_at = Some(t);
                assert!(
                    burn.fast > FAST_BURN_THRESHOLD && burn.long > FAST_BURN_THRESHOLD,
                    "fired only when both windows burn: {burn:?}"
                );
            }
        }
        let fired_at = fired_at.expect("sustained badness fires");
        // With a 0.1% budget, one bad sample in a 50-sample long window is
        // already a 20x burn — the page is immediate by design.
        assert_eq!(fired_at, 60);
        let events = e.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].firing);
        // Recovery: good samples age the bad ones out of the fast window;
        // the alert holds (hysteresis) until fast burn < RESOLVE_BURN.
        let mut resolved_at = None;
        for t in 120..240u64 {
            e.record("latency_p99_ms", t * SEC, false);
            if e.firing() == 0 && resolved_at.is_none() {
                resolved_at = Some(t);
                let burn = e.burn_rates("latency_p99_ms", t * SEC).unwrap();
                assert!(burn.fast < RESOLVE_BURN, "{burn:?}");
                assert!(!page_condition(&burn));
            }
        }
        let resolved_at = resolved_at.expect("recovery resolves");
        assert!(
            resolved_at >= 130,
            "fast window must fully drain: {resolved_at}"
        );
        let events = e.events();
        assert_eq!(events.len(), 2);
        assert!(!events[1].firing);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn burn_property_fast_pair_and_slow_pair() {
        // Deterministic pseudo-random verdict streams: the alert state
        // must equal the page condition re-derived from the windows, and
        // resolution must respect hysteresis.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..20 {
            let e = engine(vec![latency_spec(50.0)]);
            let mut expected_firing = false;
            for t in 0..400u64 {
                // Phases of mostly-good and mostly-bad traffic.
                let phase_bad = (t / 50) % 2 == 1;
                let noise = next() % 100;
                let bad = if phase_bad { noise < 80 } else { noise < 2 };
                let now = t * SEC;
                e.record("latency_p99_ms", now, bad);
                let burn = e.burn_rates("latency_p99_ms", now).unwrap();
                let page = page_condition(&burn);
                if !expected_firing && page {
                    expected_firing = true;
                } else if expected_firing && !page && burn.fast < RESOLVE_BURN {
                    expected_firing = false;
                }
                assert_eq!(
                    e.firing() > 0,
                    expected_firing,
                    "t={t} burn={burn:?} page={page}"
                );
            }
        }
    }

    #[test]
    fn verdict_window_is_bounded() {
        let e = SloEngine::new(
            vec![latency_spec(1.0)],
            Windows::default(),
            Duration::from_millis(250),
        );
        for t in 0..20_000u64 {
            e.record("latency_p99_ms", t * SEC / 4, false);
        }
        let s = &e.summaries(5_000 * SEC)[0];
        assert!(
            s.samples <= 7_200 + 1,
            "slow window at 250 ms: {}",
            s.samples
        );
    }

    #[test]
    fn evaluate_classifies_latency_errors_and_availability() {
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let store = SeriesStore::new(64, 16, 64);
        let e = SloEngine::new(
            vec![
                latency_spec(50.0),
                SloSpec::parse("error_rate=0.01").unwrap(),
                SloSpec::parse("availability=0.9").unwrap(),
            ],
            Windows::default(),
            Duration::from_secs(1),
        );
        // Healthy instant: fast p99, no errors, no sheds.
        store.record("t.lat_ns:p99", SEC, 10.0 * 1e6);
        store.record("query.executions:rate", SEC, 100.0);
        store.record("query.errors:rate", SEC, 0.0);
        e.evaluate(&store, SEC);
        let all = e.summaries(SEC);
        assert!(all.iter().all(|s| s.bad == 0), "{all:?}");
        // Degraded instant: slow p99, 5% errors, 30% shed.
        store.record("t.lat_ns:p99", 2 * SEC, 80.0 * 1e6);
        store.record("query.executions:rate", 2 * SEC, 100.0);
        store.record("query.errors:rate", 2 * SEC, 5.0);
        store.record("serve.admit.shed_total:rate", 2 * SEC, 40.0);
        e.evaluate(&store, 2 * SEC);
        let all = e.summaries(2 * SEC);
        assert!(all.iter().all(|s| s.bad == 1), "{all:?}");
        set_level(ObsLevel::Off);
    }

    #[test]
    fn sampler_drives_a_latency_alert_through_fire_and_resolve() {
        // The acceptance-criteria scenario, entirely on virtual time: a
        // latency SLO fires during injected overload and resolves after
        // recovery — zero sleeps.
        let _g = test_lock::hold();
        set_level(ObsLevel::Counters);
        let h = crate::registry().histogram("slo.e2e.exec_ns");
        h.reset();
        let clock = Clock::virtual_at(0);
        let mut sampler = Sampler::new(SamplerConfig {
            interval: Duration::from_millis(250),
            clock: clock.clone(),
            ..SamplerConfig::default()
        });
        let slo = Arc::new(SloEngine::new(
            vec![SloSpec::parse("latency_p99_ms=50@slo.e2e.exec_ns").unwrap()],
            Windows {
                fast: Duration::from_secs(2),
                long: Duration::from_secs(10),
                slow: Duration::from_secs(60),
            },
            Duration::from_millis(250),
        ));
        sampler.set_slo(Arc::clone(&slo));

        // Healthy traffic: 1 ms p99.
        for _ in 0..100 {
            h.record(1_000_000);
        }
        for _ in 0..40 {
            clock.advance(Duration::from_millis(250));
            assert!(sampler.tick());
        }
        assert_eq!(slo.firing(), 0, "healthy baseline must not fire");

        // Injected overload: the histogram's live p99 jumps over 50 ms.
        for _ in 0..2_000 {
            h.record(200_000_000);
        }
        let mut fired = false;
        for _ in 0..60 {
            clock.advance(Duration::from_millis(250));
            sampler.tick();
            if slo.firing() > 0 {
                fired = true;
                break;
            }
        }
        assert!(fired, "overload must fire the latency SLO");
        assert!(slo.to_json(clock.now_ns()).contains("\"firing\": 1"));

        // Recovery: the histogram resets (fresh process-equivalent) and
        // healthy latencies resume; the alert resolves with hysteresis.
        h.reset();
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let mut resolved = false;
        for _ in 0..200 {
            clock.advance(Duration::from_millis(250));
            sampler.tick();
            if slo.firing() == 0 {
                resolved = true;
                break;
            }
        }
        assert!(resolved, "recovery must resolve the alert");
        let events = slo.events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events[0].firing && !events[1].firing);
        h.reset();
        set_level(ObsLevel::Off);
    }

    #[test]
    fn to_json_is_stable_shape() {
        let e = engine(vec![latency_spec(50.0)]);
        e.record("latency_p99_ms", SEC, true);
        let json = e.to_json(SEC);
        assert!(json.starts_with("{\"windows_s\": {\"fast\": 10, \"long\": 50, \"slow\": 300}"));
        assert!(
            json.contains("\"objectives\": [{\"name\": \"latency_p99_ms\""),
            "{json}"
        );
        assert!(json.contains("\"target\": 50"), "{json}");
        assert!(json.contains("\"alerts\": ["), "{json}");
        assert!(json.ends_with("]}\n"), "{json}");
    }
}
