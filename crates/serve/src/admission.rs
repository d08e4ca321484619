//! Admission control and load shedding for the serve layer.
//!
//! Table 5 of the paper shows query costs spanning four orders of
//! magnitude: one comprehension query can pin a worker for as long as
//! thousands of point lookups. Without admission control a flood of
//! expensive queries starves the cheap ones behind it. This module sits
//! between framing and dispatch in the event core and decides, per line,
//! whether to run, throttle, park, or shed:
//!
//! * **Per-connection token bucket** — a connection issuing requests
//!   faster than `conn_rate` (with `conn_burst` headroom) gets typed
//!   `"code": "throttled"` replies carrying a `retry_after_ms` hint.
//! * **Global in-flight cap** — at most `max_inflight` requests execute
//!   at once across all connections; the rest are shed. Acquisition is a
//!   CAS loop so concurrent handlers cannot overshoot the cap.
//! * **Cost-aware tier** — queue depth and queue-wait samples feed
//!   decaying-max watermarks; when either crosses its configured
//!   threshold the controller degrades `Open → Throttling → Shedding`.
//!   While degraded, fingerprints whose tracked p95 latency (from
//!   [`frappe_obs::query_stats`]) exceeds `shed_p95_ms` are parked in a
//!   bounded low-priority queue (Throttling) or shed outright
//!   (Shedding); point lookups keep flowing.
//!
//! All time flows through [`Clock`], so tests steer the bucket refill
//! and the watermark decay with virtual time instead of sleeping.
//!
//! When admission is disabled (the default), [`AdmissionControl::enabled`]
//! is a single relaxed atomic load — the same overhead contract as the
//! obs layer's `counters_enabled()`.

use frappe_obs::{counter, query_stats, Clock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Fixed-point scale for the token bucket: one token = `SCALE` units.
const SCALE: u64 = 1_000_000_000;

/// A token bucket in fixed-point arithmetic. `rate` tokens refill per
/// second; the level never exceeds `burst` tokens. Admitting one line
/// costs one token. All arithmetic is integer (no float drift), so the
/// proptest suite can assert conservation exactly.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Current level in `SCALE`-ths of a token.
    level_fp: u64,
    /// Refill rate in `SCALE`-ths of a token per second == tokens/sec · SCALE.
    rate: u64,
    /// Cap in `SCALE`-ths of a token.
    cap_fp: u64,
    /// Clock reading (ns) of the last refill.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling `rate` tokens/sec, holding at most `burst`
    /// tokens, starting full at `now_ns`.
    pub fn new(rate: u64, burst: u64, now_ns: u64) -> TokenBucket {
        let cap_fp = burst.saturating_mul(SCALE);
        TokenBucket {
            level_fp: cap_fp,
            rate,
            cap_fp,
            last_ns: now_ns,
        }
    }

    /// Credits elapsed time since the last refill. With `SCALE == 1e9`
    /// the refill rate is exactly `rate` fixed-point units per
    /// nanosecond; the multiply runs in u128 so a year-long gap cannot
    /// overflow.
    fn refill(&mut self, now_ns: u64) {
        let delta = now_ns.saturating_sub(self.last_ns);
        if delta == 0 {
            return;
        }
        self.last_ns = now_ns;
        let credit = u64::try_from(delta as u128 * self.rate as u128).unwrap_or(u64::MAX);
        self.level_fp = self.level_fp.saturating_add(credit).min(self.cap_fp);
    }

    /// Takes one token, or reports how many nanoseconds until one is
    /// available.
    pub fn try_take(&mut self, now_ns: u64) -> Result<(), u64> {
        self.refill(now_ns);
        if self.level_fp >= SCALE {
            self.level_fp -= SCALE;
            return Ok(());
        }
        if self.rate == 0 {
            return Err(u64::MAX);
        }
        let deficit = SCALE - self.level_fp;
        Err((deficit as u128).div_ceil(self.rate as u128) as u64)
    }

    /// Current level in whole tokens (floor), for tests and diagnostics.
    pub fn level(&mut self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        self.level_fp / SCALE
    }

    /// Current level in fixed-point units without refilling — the
    /// conservation invariant the proptest suite checks.
    pub fn level_fp(&self) -> u64 {
        self.level_fp
    }
}

/// A decaying-max watermark: tracks the peak of a signal, decaying the
/// peak exponentially with the configured half-life. Crossing a
/// threshold is instantaneous on a high sample; recovery is a
/// deterministic function of elapsed (virtual) time.
#[derive(Debug, Clone)]
pub struct Watermark {
    value: f64,
    half_life_ns: u64,
    last_ns: u64,
}

impl Watermark {
    pub fn new(half_life_ns: u64) -> Watermark {
        Watermark {
            value: 0.0,
            half_life_ns: half_life_ns.max(1),
            last_ns: 0,
        }
    }

    fn decay_to(&mut self, now_ns: u64) {
        let delta = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        if delta == 0 || self.value == 0.0 {
            return;
        }
        let halves = delta as f64 / self.half_life_ns as f64;
        self.value *= 0.5f64.powf(halves);
        if self.value < 1e-9 {
            self.value = 0.0;
        }
    }

    /// Folds in a sample and returns the post-sample watermark.
    pub fn observe(&mut self, sample: f64, now_ns: u64) -> f64 {
        self.decay_to(now_ns);
        if sample > self.value {
            self.value = sample;
        }
        self.value
    }

    /// The watermark as of `now_ns`, decayed but without a new sample.
    pub fn current(&mut self, now_ns: u64) -> f64 {
        self.decay_to(now_ns);
        self.value
    }
}

/// Degradation state, worst-first ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum AdmitState {
    /// Everything is admitted (modulo bucket and cap).
    Open = 0,
    /// A watermark crossed its threshold: expensive fingerprints park.
    Throttling = 1,
    /// A watermark is at ≥ 2× its threshold: expensive fingerprints shed.
    Shedding = 2,
}

impl AdmitState {
    pub fn as_str(self) -> &'static str {
        match self {
            AdmitState::Open => "open",
            AdmitState::Throttling => "throttling",
            AdmitState::Shedding => "shedding",
        }
    }

    fn from_u8(v: u8) -> AdmitState {
        match v {
            2 => AdmitState::Shedding,
            1 => AdmitState::Throttling,
            _ => AdmitState::Open,
        }
    }
}

/// Admission policy knobs. `..Default::default()` disables admission
/// entirely (the pre-admission behaviour, and the zero-overhead path).
#[derive(Debug, Clone)]
pub struct AdmissionOptions {
    /// Master switch. When false every line is admitted and the only
    /// cost per request is one relaxed load.
    pub enabled: bool,
    /// Global in-flight cap; 0 = uncapped.
    pub max_inflight: u64,
    /// Per-connection sustained request rate (lines/sec); 0 = unlimited.
    pub conn_rate: u64,
    /// Per-connection burst allowance (bucket capacity, tokens).
    pub conn_burst: u64,
    /// Fingerprints with tracked p95 latency above this many ms are
    /// "expensive" and get parked/shed while degraded; 0 disables the
    /// cost tier.
    pub shed_p95_ms: u64,
    /// Queue-depth watermark that triggers `Throttling` (2× triggers
    /// `Shedding`); 0 disables depth-based degradation.
    pub queue_watermark: u64,
    /// Queue-wait-p95 watermark (ms) that triggers `Throttling`; 0
    /// disables wait-based degradation.
    pub queue_wait_watermark_ms: u64,
    /// Bound on the low-priority parked queue (epoll core).
    pub park_capacity: usize,
    /// Half-life of the watermark decay.
    pub watermark_half_life: std::time::Duration,
}

impl Default for AdmissionOptions {
    fn default() -> AdmissionOptions {
        AdmissionOptions {
            enabled: false,
            max_inflight: 0,
            conn_rate: 0,
            conn_burst: 0,
            shed_p95_ms: 0,
            queue_watermark: 0,
            queue_wait_watermark_ms: 0,
            park_capacity: 64,
            watermark_half_life: std::time::Duration::from_millis(500),
        }
    }
}

/// The per-line verdict. `Admit` implies the global in-flight slot has
/// been acquired — callers must pair it with [`AdmissionControl::job_finished`]
/// and must not increment in-flight themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    Admit,
    /// Per-connection rate exceeded.
    Throttle {
        retry_after_ms: u64,
    },
    /// Global cap reached, or an expensive fingerprint during Shedding.
    Shed {
        retry_after_ms: u64,
    },
    /// Expensive fingerprint during Throttling: the caller may queue it
    /// in a bounded low-priority queue (or degrade to Shed if it can't).
    Park {
        retry_after_ms: u64,
    },
}

/// Signals feeding the state machine, mutated under one mutex from the
/// event loop / handler threads.
struct Signals {
    depth: Watermark,
    wait_ms: Watermark,
}

/// The shared admission controller. One per server; connection handlers
/// hold their own [`TokenBucket`] and call [`AdmissionControl::admit_line`]
/// per framed line.
pub struct AdmissionControl {
    enabled: AtomicBool,
    opts: AdmissionOptions,
    clock: Clock,
    /// Requests currently executing (admitted, not yet finished).
    inflight: AtomicU64,
    peak_inflight: AtomicU64,
    admitted: AtomicU64,
    throttled: AtomicU64,
    shed: AtomicU64,
    parked: AtomicU64,
    state: AtomicU8,
    signals: Mutex<Signals>,
}

impl AdmissionControl {
    pub fn new(opts: AdmissionOptions, clock: Clock) -> AdmissionControl {
        let hl = u64::try_from(opts.watermark_half_life.as_nanos()).unwrap_or(u64::MAX);
        AdmissionControl {
            enabled: AtomicBool::new(opts.enabled),
            clock,
            inflight: AtomicU64::new(0),
            peak_inflight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            state: AtomicU8::new(AdmitState::Open as u8),
            signals: Mutex::new(Signals {
                depth: Watermark::new(hl),
                wait_ms: Watermark::new(hl),
            }),
            opts,
        }
    }

    /// A disabled controller (the default server configuration).
    pub fn disabled() -> AdmissionControl {
        AdmissionControl::new(AdmissionOptions::default(), Clock::monotonic())
    }

    /// The zero-overhead gate: one relaxed load.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn options(&self) -> &AdmissionOptions {
        &self.opts
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// A fresh per-connection bucket, full as of now. With `conn_rate == 0`
    /// the bucket is unlimited (never consulted).
    pub fn new_bucket(&self) -> TokenBucket {
        let burst = if self.opts.conn_burst == 0 {
            self.opts.conn_rate.max(1)
        } else {
            self.opts.conn_burst
        };
        TokenBucket::new(self.opts.conn_rate, burst, self.now_ns())
    }

    pub fn park_capacity(&self) -> usize {
        self.opts.park_capacity
    }

    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// CAS-acquires an in-flight slot. With `max_inflight == 0` the cap
    /// is off and this always succeeds.
    fn try_acquire_inflight(&self) -> bool {
        let cap = self.opts.max_inflight;
        if cap == 0 {
            let cur = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            self.peak_inflight.fetch_max(cur, Ordering::Relaxed);
            return true;
        }
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak_inflight.fetch_max(cur + 1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases the in-flight slot acquired by an `Admit` decision.
    pub fn job_finished(&self) {
        let prev = self.inflight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "job_finished without a matching admit");
    }

    /// Re-acquires a slot for a parked job about to be released. Parked
    /// jobs gave up their original decision; release must still respect
    /// the cap.
    pub fn try_acquire_for_release(&self) -> bool {
        self.try_acquire_inflight()
    }

    /// Decides the fate of one framed line. Order: master gate, token
    /// bucket, cost tier, global cap. `depth` is the caller's current
    /// dispatch-queue depth.
    pub fn admit_line(&self, bucket: &mut TokenBucket, text: &str, depth: u64) -> Decision {
        if !self.enabled() {
            return Decision::Admit;
        }
        let now = self.now_ns();
        if self.opts.conn_rate > 0 {
            if let Err(retry_ns) = bucket.try_take(now) {
                self.throttled.fetch_add(1, Ordering::Relaxed);
                counter!("serve.admit.throttled").incr();
                return Decision::Throttle {
                    retry_after_ms: retry_ns.div_ceil(1_000_000).max(1),
                };
            }
        }
        let state = self.refresh_state(Some(depth), now);
        if state > AdmitState::Open && self.is_expensive(text) {
            let retry = self.opts.watermark_half_life.as_millis() as u64;
            if state == AdmitState::Shedding {
                self.note_shed();
                return Decision::Shed {
                    retry_after_ms: retry.max(1),
                };
            }
            return Decision::Park {
                retry_after_ms: retry.max(1),
            };
        }
        if !self.try_acquire_inflight() {
            self.note_shed();
            return Decision::Shed { retry_after_ms: 1 };
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        counter!("serve.admit.allowed").incr();
        counter!("serve.admit.inflight_peak")
            .record_max(self.peak_inflight.load(Ordering::Relaxed));
        Decision::Admit
    }

    /// Records one shed (cap overflow, degraded-state shed, or a parked
    /// job flushed at drain).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        counter!("serve.admit.shed").incr();
    }

    /// Records one park.
    pub fn note_parked(&self) {
        self.parked.fetch_add(1, Ordering::Relaxed);
        counter!("serve.admit.parked").incr();
    }

    pub fn note_park_released(&self) {
        counter!("serve.admit.park_released").incr();
    }

    /// Cumulative shed count (ungated; used by tests and `/healthz`).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn parked_total(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }

    pub fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    pub fn throttled_total(&self) -> u64 {
        self.throttled.load(Ordering::Relaxed)
    }

    pub fn peak_inflight(&self) -> u64 {
        self.peak_inflight.load(Ordering::Relaxed)
    }

    /// Feeds a queue-depth sample into the depth watermark.
    pub fn note_depth(&self, depth: u64) {
        if !self.enabled() {
            return;
        }
        let now = self.now_ns();
        let mut sig = self.signals.lock().unwrap_or_else(|e| e.into_inner());
        sig.depth.observe(depth as f64, now);
    }

    /// Feeds a queue-wait sample (admission → worker pickup) into the
    /// wait watermark. `admitted_ns == 0` means untracked — skipped.
    pub fn observe_queue_wait(&self, admitted_ns: u64) {
        if !self.enabled() || admitted_ns == 0 {
            return;
        }
        let now = self.now_ns();
        let wait_ms = now.saturating_sub(admitted_ns) as f64 / 1e6;
        let mut sig = self.signals.lock().unwrap_or_else(|e| e.into_inner());
        sig.wait_ms.observe(wait_ms, now);
    }

    /// Whether `text`'s fingerprint has a tracked p95 above the shed
    /// threshold.
    fn is_expensive(&self, text: &str) -> bool {
        if self.opts.shed_p95_ms == 0 {
            return false;
        }
        let fp = cost_fingerprint(text);
        match query_stats().p95_ns(fp) {
            Some(p95_ns) => p95_ns / 1_000_000 >= self.opts.shed_p95_ms,
            None => false,
        }
    }

    /// The current state, refreshed against decayed watermarks (so a
    /// `/healthz` poll observes recovery without traffic). With an
    /// optional fresh depth sample folded in first.
    fn refresh_state(&self, depth_sample: Option<u64>, now: u64) -> AdmitState {
        let (depth_wm, wait_wm) = {
            let mut sig = self.signals.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(d) = depth_sample {
                sig.depth.observe(d as f64, now);
            }
            (sig.depth.current(now), sig.wait_ms.current(now))
        };
        let mut severity = 0.0f64;
        if self.opts.queue_watermark > 0 {
            severity = severity.max(depth_wm / self.opts.queue_watermark as f64);
        }
        if self.opts.queue_wait_watermark_ms > 0 {
            severity = severity.max(wait_wm / self.opts.queue_wait_watermark_ms as f64);
        }
        let prev = AdmitState::from_u8(self.state.load(Ordering::Relaxed));
        // Hysteresis: enter Throttling at 1×, Shedding at 2×; only fully
        // reopen once the watermark decays below 0.5×.
        let next = if severity >= 2.0 {
            AdmitState::Shedding
        } else if severity >= 1.0 {
            AdmitState::Throttling
        } else if severity < 0.5 {
            AdmitState::Open
        } else if prev == AdmitState::Shedding {
            AdmitState::Throttling
        } else {
            prev
        };
        if next != prev {
            self.state.store(next as u8, Ordering::Relaxed);
            counter!("serve.admit.state_changes").incr();
        }
        next
    }

    /// The current degradation state (refreshing watermark decay).
    pub fn state(&self) -> AdmitState {
        if !self.enabled() {
            return AdmitState::Open;
        }
        self.refresh_state(None, self.now_ns())
    }

    /// The admission fragment of `/healthz` (always present; all fields
    /// are ungated atomics so health checks work at `ObsLevel::Off`).
    pub fn healthz_fragment(&self) -> String {
        format!(
            "\"admission\": {{\"enabled\": {}, \"state\": \"{}\", \"inflight\": {}, \
             \"peak_inflight\": {}, \"admitted\": {}, \"throttled\": {}, \"shed\": {}, \
             \"parked\": {}}}",
            self.enabled(),
            self.state().as_str(),
            self.inflight(),
            self.peak_inflight(),
            self.admitted_total(),
            self.throttled_total(),
            self.shed_total(),
            self.parked_total(),
        )
    }

    /// Extra gauge lines appended to the Prometheus exposition.
    pub fn prometheus_gauges(&self) -> String {
        let state = self.state();
        format!(
            "# TYPE frappe_serve_admit_state gauge\nfrappe_serve_admit_state {}\n\
             # TYPE frappe_serve_admit_inflight gauge\nfrappe_serve_admit_inflight {}\n\
             # TYPE frappe_serve_admit_inflight_peak gauge\n\
             frappe_serve_admit_inflight_peak {}\n\
             # TYPE frappe_serve_admit_admitted_total counter\n\
             frappe_serve_admit_admitted_total {}\n\
             # TYPE frappe_serve_admit_throttled_total counter\n\
             frappe_serve_admit_throttled_total {}\n\
             # TYPE frappe_serve_admit_shed_total counter\n\
             frappe_serve_admit_shed_total {}\n\
             # TYPE frappe_serve_admit_parked_total counter\n\
             frappe_serve_admit_parked_total {}\n",
            state as u8,
            self.inflight(),
            self.peak_inflight(),
            self.admitted_total(),
            self.throttled_total(),
            self.shed_total(),
            self.parked_total(),
        )
    }
}

/// A bounded low-priority queue for parked jobs (epoll core). Plain
/// data structure — the event loop owns it single-threaded.
pub struct ParkedQueue<T> {
    jobs: VecDeque<T>,
    capacity: usize,
}

impl<T> ParkedQueue<T> {
    pub fn new(capacity: usize) -> ParkedQueue<T> {
        ParkedQueue {
            jobs: VecDeque::new(),
            capacity,
        }
    }

    /// Parks a job, or gives it back if the queue is full (caller sheds).
    pub fn push(&mut self, job: T) -> Result<(), T> {
        if self.jobs.len() >= self.capacity {
            return Err(job);
        }
        self.jobs.push_back(job);
        Ok(())
    }

    pub fn pop(&mut self) -> Option<T> {
        self.jobs.pop_front()
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.jobs.drain(..)
    }
}

/// The fingerprint used for cost classification. `!sleep N` lines (the
/// fault-injection hook) canonicalize to one fingerprint regardless of
/// duration, so priming with short sleeps classifies long-sleep floods;
/// everything else uses the query normalizer's fingerprint.
pub fn cost_fingerprint(text: &str) -> u64 {
    if text.trim_start().starts_with("!sleep ") {
        return frappe_query::fingerprint("!sleep ?");
    }
    frappe_query::fingerprint(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_bucket_spends_and_refills() {
        let mut b = TokenBucket::new(10, 2, 0); // 10/sec, burst 2, full
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_ok());
        let retry = b.try_take(0).unwrap_err();
        assert_eq!(retry, 100_000_000, "one token at 10/sec is 100ms away");
        // 100ms later exactly one token has refilled.
        assert!(b.try_take(100_000_000).is_ok());
        assert!(b.try_take(100_000_000).is_err());
        // A long idle period refills to the cap, not beyond.
        assert_eq!(b.level(10_000_000_000), 2);
    }

    #[test]
    fn token_bucket_zero_rate_never_refills() {
        let mut b = TokenBucket::new(0, 3, 0);
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(1_000_000_000_000).is_ok());
        assert!(b.try_take(2_000_000_000_000).is_ok());
        assert_eq!(b.try_take(u64::MAX).unwrap_err(), u64::MAX);
    }

    #[test]
    fn watermark_peaks_instantly_and_decays_by_half_life() {
        let mut w = Watermark::new(1_000_000_000); // 1s half-life
        assert_eq!(w.observe(8.0, 0), 8.0);
        // Lower samples don't pull the watermark down.
        assert_eq!(w.observe(1.0, 0), 8.0);
        let v = w.current(1_000_000_000);
        assert!((v - 4.0).abs() < 1e-9, "one half-life halves it: {v}");
        let v = w.current(3_000_000_000);
        assert!((v - 1.0).abs() < 1e-9, "two more halvings: {v}");
    }

    #[test]
    fn state_machine_degrades_and_recovers_on_virtual_time() {
        let clock = Clock::virtual_at(0);
        let ac = AdmissionControl::new(
            AdmissionOptions {
                enabled: true,
                queue_watermark: 4,
                watermark_half_life: Duration::from_millis(100),
                ..Default::default()
            },
            clock.clone(),
        );
        assert_eq!(ac.state(), AdmitState::Open);
        ac.note_depth(4);
        assert_eq!(ac.state(), AdmitState::Throttling);
        ac.note_depth(9);
        assert_eq!(ac.state(), AdmitState::Shedding);
        // One half-life: 4.5 ≥ 1× → drops out of Shedding into Throttling.
        clock.advance(Duration::from_millis(100));
        assert_eq!(ac.state(), AdmitState::Throttling);
        // 9 → 9/2^4 ≈ 0.56 ≥ 0.5× of 4? 0.56/4 = 0.14 < 0.5 → Open.
        clock.advance(Duration::from_millis(300));
        assert_eq!(ac.state(), AdmitState::Open);
    }

    #[test]
    fn inflight_cap_is_exact_and_releases() {
        let ac = AdmissionControl::new(
            AdmissionOptions {
                enabled: true,
                max_inflight: 2,
                ..Default::default()
            },
            Clock::virtual_at(0),
        );
        let mut b = ac.new_bucket();
        assert_eq!(ac.admit_line(&mut b, "q", 0), Decision::Admit);
        assert_eq!(ac.admit_line(&mut b, "q", 0), Decision::Admit);
        assert!(matches!(
            ac.admit_line(&mut b, "q", 0),
            Decision::Shed { .. }
        ));
        assert_eq!(ac.shed_total(), 1);
        ac.job_finished();
        assert_eq!(ac.admit_line(&mut b, "q", 0), Decision::Admit);
        assert_eq!(ac.peak_inflight(), 2);
    }

    #[test]
    fn throttle_carries_a_retry_hint() {
        let ac = AdmissionControl::new(
            AdmissionOptions {
                enabled: true,
                conn_rate: 10,
                conn_burst: 1,
                ..Default::default()
            },
            Clock::virtual_at(0),
        );
        let mut b = ac.new_bucket();
        assert_eq!(ac.admit_line(&mut b, "q", 0), Decision::Admit);
        match ac.admit_line(&mut b, "q", 0) {
            Decision::Throttle { retry_after_ms } => {
                assert_eq!(retry_after_ms, 100, "one token at 10/sec");
            }
            other => panic!("expected Throttle, got {other:?}"),
        }
        assert_eq!(ac.throttled_total(), 1);
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let ac = AdmissionControl::disabled();
        assert!(!ac.enabled());
        let mut b = ac.new_bucket();
        for _ in 0..1_000 {
            assert_eq!(ac.admit_line(&mut b, "q", 99), Decision::Admit);
        }
        assert_eq!(ac.state(), AdmitState::Open);
        // Disabled admits never touch the inflight ledger.
        assert_eq!(ac.inflight(), 0);
    }

    #[test]
    fn sleep_lines_share_one_cost_fingerprint() {
        assert_eq!(
            cost_fingerprint("!sleep 50"),
            cost_fingerprint("!sleep 900")
        );
        assert_eq!(
            cost_fingerprint("  !sleep 50"),
            cost_fingerprint("!sleep 900")
        );
        assert_ne!(
            cost_fingerprint("!sleep 50"),
            cost_fingerprint("START n RETURN n")
        );
    }

    #[test]
    fn parked_queue_is_bounded() {
        let mut q: ParkedQueue<u32> = ParkedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.drain().collect::<Vec<_>>(), vec![2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn healthz_fragment_shape() {
        let ac = AdmissionControl::disabled();
        let frag = ac.healthz_fragment();
        assert!(frag.contains("\"enabled\": false"), "{frag}");
        assert!(frag.contains("\"state\": \"open\""), "{frag}");
    }
}
