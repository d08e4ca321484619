//! One benchmark session: the set-up products, and the untraced window and
//! traced pass of each workload against a separate `frappe-serve` child.

use crate::client::{
    closed_loop, closed_loops, cold_cycle, open_loop, schedule, similar_pairs, Cycle, Outcome,
    PaceLog, Until,
};
use crate::config::{
    Class, Profile, Workload, COLD_MIN_CYCLES, COLD_SEQUENCE, CONNS, IDE_MIX, LATENCY_LIMIT_US,
    LATE_LIMIT_US, MAX_FAILED_SHARE, SEARCH_MIX,
};
use crate::layers::{self, ClassLedger};
use crate::metrics::Metrics;
use crate::progress;
use crate::requests::{build_pool, class_pool, write_requests, Request, Sources};
use crate::server::{reaped_children_cpu_s, sample, self_cpu_s, summary_p50, ExtraFlags, Server};
use crate::setup::Setup;
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::trace::{self_time_by_layer, to_chrome_json, Tracer};
use frappe_store::GraphStore;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Flags of the traced pass's child; measured windows pass none.
const TRACE_FLAGS: &[&str] = &["--obs", "trace"];
const OBS_OFF_FLAGS: &[&str] = &["--obs", "off", "--sample-ms", "0"];
/// Pipeline depth of the untimed warm-up passes.
const WARM_DEPTH: usize = 4;

/// The request pools a workload draws from.
#[derive(Default)]
pub struct Pools {
    lookups: Vec<Request>,
    heavy: Vec<Request>,
    /// One small pool per class of [`COLD_SEQUENCE`].
    cold: Vec<Vec<Request>>,
}

/// What one window against one child (or one series of cold cycles)
/// measured.
struct Window {
    outcome: Outcome,
    opened: Instant,
    elapsed_s: f64,
    server_cpu_s: f64,
    rss_peak_mb: f64,
    client_cpu_s: f64,
    pace: Option<PaceLog>,
    cycles: Vec<Cycle>,
    /// Depth × connections of a closed loop (its constant backlog); 0 for
    /// the open loop.
    closed_backlog: u64,
    /// Whether `throughput_qps` is the median over the window's whole
    /// seconds (closed socket loops) or the plain ratio (an open loop's
    /// slices would all read the offered rate; cycles are too few to slice).
    sliced: bool,
}

/// One reported run: a workload's untraced window or its traced pass.
pub struct Run {
    pub workload: Workload,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

pub struct Session<'a> {
    profile: Profile,
    server_bin: PathBuf,
    workdir: PathBuf,
    out_dir: PathBuf,
    setup: Setup,
    owned: &'a GraphStore,
    src: Sources<'a>,
    open_owned_ms: f64,
    /// The driver's span recorder: on for set-up, the ledger and the traced
    /// passes, drained into one trace file per workload.
    tracer: Tracer,
    /// The in-process ledger, measured once per session.
    ledger: Option<(Metrics, ClassLedger, Vec<Vec<Request>>)>,
}

fn latencies(outcome: &Outcome, lookups_only: bool) -> Vec<u64> {
    let mut v: Vec<u64> = outcome
        .samples
        .iter()
        .filter(|(c, _, _)| !lookups_only || c.is_lookup())
        .map(|(_, ns, _)| *ns)
        .collect();
    v.sort_unstable();
    v
}

/// Correct replies per second of timed wall time. On a sliced window it is
/// the median over the window's whole seconds, so that a stall of the shared
/// machine costs one slice, not the run; windows shorter than three seconds
/// (smoke runs) report the plain ratio.
fn throughput_qps(window: &Window) -> f64 {
    let whole_s = window.elapsed_s.floor() as usize;
    if !window.sliced || whole_s < 3 {
        return window.outcome.samples.len() as f64 / window.elapsed_s.max(1e-9);
    }
    let mut per_second = vec![0.0f64; whole_s];
    for (_, _, at) in &window.outcome.samples {
        let slice = at.saturating_duration_since(window.opened).as_secs() as usize;
        if slice < whole_s {
            per_second[slice] += 1.0;
        }
    }
    median(&per_second)
}

impl<'a> Session<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: Profile,
        server_bin: PathBuf,
        workdir: PathBuf,
        out_dir: PathBuf,
        setup: Setup,
        owned: &'a GraphStore,
        open_owned_ms: f64,
        tracer: Tracer,
    ) -> Result<Session<'a>, String> {
        let src = Sources::new(owned, &profile, setup.call_line)?;
        Ok(Session {
            profile,
            server_bin,
            workdir,
            out_dir,
            setup,
            owned,
            src,
            open_owned_ms,
            tracer,
            ledger: None,
        })
    }

    /// Generates the pools `workload` needs from `seed` and writes its
    /// request file.
    fn pools(&self, workload: Workload, seed: u64) -> Result<Pools, String> {
        progress(&format!(
            "{}: generating requests and expected answers",
            workload.name()
        ));
        let p = &self.profile;
        let mut pools = Pools::default();
        match workload {
            Workload::IdeLookup => {
                pools.lookups = build_pool(&self.src, p, IDE_MIX, p.ide_pool, seed)?;
            }
            Workload::CodeSearch => {
                pools.heavy = build_pool(&self.src, p, SEARCH_MIX, p.heavy_pool, seed)?;
            }
            Workload::MixedOpen => {
                pools.lookups = build_pool(&self.src, p, IDE_MIX, p.ide_pool, seed)?;
                pools.heavy = build_pool(&self.src, p, SEARCH_MIX, p.heavy_pool, seed)?;
            }
            Workload::ColdStart => {
                for class in COLD_SEQUENCE {
                    pools
                        .cold
                        .push(class_pool(&self.src, p, class, p.ledger_pool, seed)?);
                }
            }
        }
        let all = pools
            .lookups
            .iter()
            .chain(&pools.heavy)
            .chain(pools.cold.iter().flatten());
        let path = self
            .out_dir
            .join(format!("requests_{}.txt", workload.name()));
        write_requests(&path, all).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(pools)
    }

    fn drain(&self) -> Duration {
        Duration::from_millis(self.profile.drain_ms)
    }

    /// Sends every distinct request of a pool once, untimed, so lazy
    /// indexes and the plan cache are filled before the window opens.
    fn warm(&self, server: &Server, pool: &[Request], into: &mut Outcome) {
        if pool.is_empty() {
            return;
        }
        let mut o = closed_loops(
            server.query,
            pool,
            CONNS,
            WARM_DEPTH,
            Until::Count(pool.len()),
            self.drain(),
            &Tracer::new(false),
        );
        // Warm-up requests count as attempted and may fail the run, but
        // give no latency samples.
        o.samples.clear();
        into.absorb(o);
    }

    /// One window of a socket workload against a fresh child started with
    /// `flags`; `after` runs while the child is still up (scrapes, probes).
    #[allow(clippy::too_many_arguments)]
    fn socket_window(
        &self,
        workload: Workload,
        pools: &Pools,
        seed: u64,
        seconds: f64,
        flags: ExtraFlags<'_>,
        tracer: &Tracer,
        mut after: impl FnMut(&Server) -> Result<(), String>,
    ) -> Result<Window, String> {
        let mut server = Server::spawn(
            &self.server_bin,
            &self.setup.snapshot,
            &self.workdir,
            workload.name(),
            flags,
        )?;
        let mut outcome = Outcome::default();
        progress(&format!("{}: child up {flags:?}, warming", workload.name()));
        self.warm(&server, &pools.lookups, &mut outcome);
        self.warm(&server, &pools.heavy, &mut outcome);
        progress(&format!("{}: {seconds} s window", workload.name()));

        let window = Duration::from_secs_f64(seconds);
        let cpu0 = server.cpu_s().unwrap_or(0.0);
        let client0 = self_cpu_s().unwrap_or(0.0);
        let opened = Instant::now();
        let mut pace = None;
        let mut closed_backlog = 0;
        match workload {
            Workload::IdeLookup | Workload::CodeSearch => {
                let pool = if workload == Workload::IdeLookup {
                    &pools.lookups
                } else {
                    &pools.heavy
                };
                closed_backlog = (CONNS * workload.depth()) as u64;
                outcome.absorb(closed_loops(
                    server.query,
                    pool,
                    CONNS,
                    workload.depth(),
                    Until::Deadline(opened + window),
                    self.drain(),
                    tracer,
                ));
            }
            Workload::MixedOpen => {
                let plan = schedule(
                    seed,
                    window,
                    self.profile.mixed_lookup_qps,
                    self.profile.mixed_heavy_qps,
                    pools.lookups.len(),
                    &similar_pairs(&pools.heavy),
                    CONNS,
                );
                let (o, log) = open_loop(
                    server.query,
                    &pools.lookups,
                    &pools.heavy,
                    &plan,
                    CONNS,
                    self.drain(),
                    tracer,
                );
                outcome.absorb(o);
                pace = Some(log);
            }
            Workload::ColdStart => unreachable!("cold_start has no long-lived child"),
        }
        let elapsed_s = opened.elapsed().as_secs_f64();
        let server_cpu_s = server.cpu_s().unwrap_or(cpu0) - cpu0;
        let client_cpu_s = self_cpu_s().unwrap_or(client0) - client0;
        let rss_peak_mb = server.rss_peak_mb().unwrap_or(0.0);
        tracer.extend(std::mem::take(&mut outcome.spans));

        if let Some(status) = server.exited() {
            // The child died under the run: whatever was outstanding has
            // already been counted failed by the connection loops.
            outcome.server_gone = true;
            outcome.first_failure = Some(format!(
                "frappe-serve exited during the run ({status}); stderr: {}",
                server.stderr_text().trim()
            ));
            if outcome.failed == 0 {
                outcome.failed = 1;
            }
        } else {
            after(&server)?;
            if let Err(e) = server.shutdown() {
                outcome.failed += 1;
                outcome.first_failure.get_or_insert(e);
            }
        }
        Ok(Window {
            outcome,
            opened,
            elapsed_s,
            server_cpu_s,
            rss_peak_mb,
            client_cpu_s,
            pace,
            cycles: Vec::new(),
            closed_backlog,
            sliced: workload != Workload::MixedOpen,
        })
    }

    /// `cold_start`: whole process cycles back to back, one at a time (one
    /// developer restarting one server), until the window closes and at
    /// least `min_cycles` have run.
    fn cold_window(
        &self,
        pools: &Pools,
        seconds: f64,
        min_cycles: usize,
        flags: ExtraFlags<'_>,
        tracer: &Tracer,
    ) -> Result<Window, String> {
        progress(&format!(
            "cold_start: {seconds} s of process cycles {flags:?}"
        ));
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let cpu0 = reaped_children_cpu_s().unwrap_or(0.0);
        let client0 = self_cpu_s().unwrap_or(0.0);
        let opened = Instant::now();
        let mut cycles = Vec::new();
        while cycles.len() < min_cycles || Instant::now() < deadline {
            let k = cycles.len();
            let pick = |i: usize| &pools.cold[i][k % pools.cold[i].len()];
            cycles.push(cold_cycle(
                &self.server_bin,
                &self.setup.snapshot,
                &self.workdir,
                "cold",
                flags,
                [pick(0), pick(1), pick(2), pick(3)],
                tracer,
            )?);
        }
        let elapsed_s = opened.elapsed().as_secs_f64();
        let mut outcome = Outcome::default();
        for cycle in &cycles {
            // One operation = one cycle; it is correct only if all four
            // replies and the shutdown were.
            outcome.attempted += 1;
            if cycle.failed > 0 {
                outcome.failed += 1;
                if outcome.first_failure.is_none() {
                    outcome.first_failure = cycle.first_failure.clone();
                }
            } else {
                outcome
                    .samples
                    .push((Class::NameExact, cycle.latency_ns, Instant::now()));
            }
        }
        Ok(Window {
            outcome,
            opened,
            elapsed_s,
            server_cpu_s: reaped_children_cpu_s().unwrap_or(cpu0) - cpu0,
            rss_peak_mb: cycles.iter().map(|c| c.rss_peak_mb).fold(0.0, f64::max),
            client_cpu_s: self_cpu_s().unwrap_or(client0) - client0,
            pace: None,
            cycles,
            closed_backlog: 1,
            sliced: false,
        })
    }

    /// Folds a window into the seven end-to-end metrics and the run's
    /// verdict.
    fn finish(
        &self,
        workload: Workload,
        trace: bool,
        seed: u64,
        seconds: f64,
        window: &Window,
    ) -> Run {
        let o = &window.outcome;
        let mut notes = Vec::new();
        let lat = latencies(o, workload == Workload::MixedOpen);
        let correct_replies = o.samples.len();
        // The traced pass reports no end-to-end latency, and a smoke run's
        // windows are too short for a tail: only a measured untraced window
        // is held to the ten-samples-beyond rule.
        let min_beyond = if self.profile.measurement && !trace {
            MIN_BEYOND
        } else {
            0
        };
        let mut m = Metrics::default();
        m.set("setup_s", self.setup.setup_s());
        m.set("throughput_qps", throughput_qps(window));
        let mut valid = true;
        match percentile(&lat, 0.5, 0) {
            Ok(p50) => m.set("latency_p50_us", p50 as f64 / 1e3),
            Err(e) => {
                valid = false;
                notes.push(format!("latency_p50_us invalid: {e}"));
                m.set("latency_p50_us", 0.0);
            }
        }
        match percentile(&lat, workload.tail(), min_beyond) {
            Ok(tail) => m.set("latency_tail_us", tail as f64 / 1e3),
            Err(e) => {
                valid = false;
                notes.push(format!("latency_tail_us invalid: {e}"));
                m.set("latency_tail_us", 0.0);
            }
        }
        m.set(
            "server_cpu_ms_per_kop",
            window.server_cpu_s * 1e3 / (correct_replies.max(1) as f64 / 1e3),
        );
        m.set("rss_peak_mb", window.rss_peak_mb);
        m.set("snapshot_mb", self.setup.snapshot_bytes as f64 / 1e6);

        let share = o.failed as f64 / o.attempted.max(1) as f64;
        let tolerated = if workload == Workload::MixedOpen {
            MAX_FAILED_SHARE
        } else {
            0.0
        };
        if let Some(why) = &o.first_failure {
            notes.push(format!("first failure: {why}"));
        }
        if o.server_gone {
            notes.push("the server child went away during the run".into());
        }
        Run {
            workload,
            trace,
            seed,
            seconds,
            correct: valid && !o.server_gone && share <= tolerated,
            attempted: o.attempted.max(1),
            failed: o.failed,
            samples: lat.len(),
            metrics: m,
            notes,
        }
    }

    /// The untraced window: end-to-end metrics only, child with operator
    /// defaults, driver tracing off.
    pub fn run_untraced(&self, workload: Workload, seed: u64, seconds: f64) -> Result<Run, String> {
        let pools = self.pools(workload, seed)?;
        let tracer = Tracer::new(false);
        let window = match workload {
            Workload::ColdStart => {
                self.cold_window(&pools, seconds, COLD_MIN_CYCLES, &[], &tracer)?
            }
            _ => self.socket_window(workload, &pools, seed, seconds, &[], &tracer, |_| Ok(()))?,
        };
        Ok(self.finish(workload, false, seed, seconds, &window))
    }

    /// The in-process ledger and the pools it ran on, measured on first use.
    fn ledger(&mut self, seed: u64) -> Result<&(Metrics, ClassLedger, Vec<Vec<Request>>), String> {
        if self.ledger.is_none() {
            let mut pools = Vec::new();
            for class in Class::ALL {
                pools.push(class_pool(
                    &self.src,
                    &self.profile,
                    class,
                    self.profile.ledger_pool,
                    seed,
                )?);
            }
            progress("in-process ledger on the mapped snapshot");
            let mut m = Metrics::default();
            // The level the traced child runs at, so in-process and wire
            // numbers of one ledger row were taken under the same settings.
            frappe_obs::set_level(frappe_obs::ObsLevel::Trace);
            let measured = layers::measure(
                &self.setup.snapshot,
                self.owned,
                &pools,
                &self.profile,
                &self.tracer,
                &mut m,
            );
            frappe_obs::set_level(frappe_obs::ObsLevel::Off);
            let ledger = measured?;
            let s = &self.setup;
            m.set("synth.generate_s", s.median_of(|r| r.generate_s));
            m.set("synth.nodes", s.nodes as f64);
            m.set("synth.edges", s.edges as f64);
            m.set("store.snapshot_encode_s", s.median_of(|r| r.encode_s));
            m.set("store.snapshot_write_s", s.median_of(|r| r.write_s));
            m.set("store.snapshot_bytes", s.snapshot_bytes as f64);
            m.set(
                "store.freeze_s",
                s.freeze_s.ok_or("set-up did not time freeze")?,
            );
            m.set("store.open_owned_ms", self.open_owned_ms);
            self.ledger = Some((m, ledger, pools));
        }
        Ok(self.ledger.as_ref().expect("just measured"))
    }

    fn save(&self, name: String, body: &str) -> Result<(), String> {
        let path = self.out_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Depth-1 round trips of every class against `server`: the p50 in µs by
    /// class index, and what the probe attempted and failed. Each class's
    /// requests are sent once untimed first.
    fn class_probe(&self, server: &Server, class_pools: &[Vec<Request>]) -> ([f64; 9], Outcome) {
        const PROBE_CONN: u32 = 9;
        let mut p50 = [0.0f64; 9];
        let mut all = Outcome::default();
        for class in Class::ALL {
            let pool = &class_pools[class.index()];
            let calls = if class.is_lookup() { 200 } else { 20 }.max(pool.len());
            let depth_one = |count: usize, tracer: &Tracer| {
                closed_loop(
                    server.query,
                    PROBE_CONN,
                    pool,
                    0,
                    1,
                    Until::Count(count),
                    self.drain(),
                    tracer,
                )
            };
            let warm = depth_one(pool.len(), &Tracer::new(false));
            let mut timed = depth_one(calls, &self.tracer);
            let lat = latencies(&timed, false);
            p50[class.index()] = percentile(&lat, 0.5, 0).map_or(0.0, |ns| ns as f64 / 1e3);
            self.tracer.extend(std::mem::take(&mut timed.spans));
            for mut o in [warm, timed] {
                o.samples.clear();
                all.absorb(o);
            }
        }
        (p50, all)
    }

    /// Saves the child's own `/metrics` and `/trace` beside the driver's
    /// trace and returns the metrics text.
    fn scrape(&self, server: &Server, workload: Workload) -> Result<String, String> {
        let metrics = server.http_get("/metrics")?;
        self.save(format!("metrics_{}.prom", workload.name()), &metrics)?;
        self.save(
            format!("trace_{}.server.json", workload.name()),
            &server.http_get("/trace")?,
        )?;
        Ok(metrics)
    }

    /// The traced pass: the in-process ledger, then the wire passes against
    /// a child started with `--obs trace`, with the driver recording a span
    /// per request; an untraced window of the same length gives the tracing
    /// overhead. All per-layer metrics land in the `Run`.
    pub fn run_traced(
        &mut self,
        workload: Workload,
        seed: u64,
        seconds: f64,
    ) -> Result<Run, String> {
        let (mut m, class_ledger, class_pools) = {
            let (m, l, p) = self.ledger(seed)?;
            (m.clone(), l.clone(), p.clone())
        };
        let tracer = &self.tracer;
        let quiet = Tracer::new(false);
        let pools = self.pools(workload, seed)?;
        let pass_s = (seconds / 3.0).max(1.0);
        let probe_s = (seconds / 6.0).max(1.0);

        // Wire pass 1: the workload's traced window on a traced child, then
        // per-class depth-1 round trips and the child's own view of both.
        let mut class_p50 = [0.0f64; 9];
        let mut probes = Outcome::default();
        let mut scraped = String::new();
        let mut inspect = |server: &Server| -> Result<(), String> {
            (class_p50, probes) = self.class_probe(server, &class_pools);
            scraped = self.scrape(server, workload)?;
            Ok(())
        };
        let traced = match workload {
            Workload::ColdStart => {
                // The cycles spawn their own traced children; the class
                // probe needs a long-lived one.
                let w = self.cold_window(&pools, pass_s, 3, TRACE_FLAGS, tracer)?;
                let server = Server::spawn(
                    &self.server_bin,
                    &self.setup.snapshot,
                    &self.workdir,
                    "probe",
                    TRACE_FLAGS,
                )?;
                inspect(&server)?;
                server.shutdown()?;
                w
            }
            _ => {
                self.socket_window(workload, &pools, seed, pass_s, TRACE_FLAGS, tracer, inspect)?
            }
        };

        // Wire pass 2: the same window untraced (default child, driver
        // tracing off) for the overhead, then the obs-off pair: a short
        // ide_lookup window on a default child against one on a child with
        // observability off.
        let untraced = match workload {
            Workload::ColdStart => self.cold_window(&pools, pass_s, 3, &[], &quiet)?,
            _ => self.socket_window(workload, &pools, seed, pass_s, &[], &quiet, |_| Ok(()))?,
        };
        let ide_only = Pools {
            lookups: if pools.lookups.is_empty() {
                build_pool(
                    &self.src,
                    &self.profile,
                    IDE_MIX,
                    self.profile.ide_pool,
                    seed,
                )?
            } else {
                pools.lookups.clone()
            },
            ..Pools::default()
        };
        let ide_window = |flags: ExtraFlags<'_>| {
            self.socket_window(
                Workload::IdeLookup,
                &ide_only,
                seed,
                probe_s,
                flags,
                &quiet,
                |_| Ok(()),
            )
        };
        let default_ide = match workload {
            Workload::IdeLookup => None,
            _ => Some(ide_window(&[])?),
        };
        let obs_off = ide_window(OBS_OFF_FLAGS)?;
        let default_qps = default_ide
            .as_ref()
            .map_or(throughput_qps(&untraced), throughput_qps);
        m.set(
            "obs.trace_overhead_pct",
            (1.0 - throughput_qps(&traced) / throughput_qps(&untraced).max(1e-9)) * 100.0,
        );
        m.set(
            "obs.off_gain_pct",
            (throughput_qps(&obs_off) / default_qps.max(1e-9) - 1.0) * 100.0,
        );

        // Cold detail: from the traced cycles on cold_start, from three
        // traced probe cycles otherwise.
        let probe_cycles;
        let cycles: &[Cycle] = if workload == Workload::ColdStart {
            &traced.cycles
        } else {
            let cold = Pools {
                cold: COLD_SEQUENCE
                    .iter()
                    .map(|c| class_pools[c.index()].clone())
                    .collect(),
                ..Pools::default()
            };
            probe_cycles = self.cold_window(&cold, 0.0, 3, TRACE_FLAGS, tracer)?.cycles;
            &probe_cycles
        };
        let cycle_ms = |f: &dyn Fn(&Cycle) -> u64| -> f64 {
            median(&cycles.iter().map(|c| f(c) as f64 / 1e6).collect::<Vec<_>>())
        };
        m.set("serve.open_ready_ms", cycle_ms(&|c| c.ready_ns));
        m.set("cold.first_name_ms", cycle_ms(&|c| c.first_ns[0]));
        m.set("cold.first_expand_ms", cycle_ms(&|c| c.first_ns[1]));
        m.set("cold.first_label_ms", cycle_ms(&|c| c.first_ns[2]));

        // The wire rows of the ledger, and how far it closes per class.
        let wire_us =
            class_p50[Class::NameExact.index()] - class_ledger.answer_us[Class::NameExact.index()];
        m.set("serve.wire_us", wire_us);
        let mut closure = Vec::new();
        for class in Class::ALL {
            let p50 = class_p50[class.index()];
            m.set(format!("class.p50_us.{}", class.name()), p50);
            let sum = class_ledger.answer_us[class.index()] + wire_us;
            closure.push(format!("{} {:.2}", class.name(), sum / p50.max(1e-9)));
        }
        for phase in ["recv", "queue", "exec", "ser", "write"] {
            let ns = summary_p50(&scraped, &format!("frappe_serve_req_{phase}_ns")).unwrap_or(0.0);
            m.set(format!("serve.req.{phase}_us"), ns / 1e3);
        }
        m.set(
            "serve.loop.stalls",
            sample(&scraped, "frappe_serve_loop_stalls"),
        );
        m.set(
            "serve.admit.shed",
            sample(&scraped, "frappe_serve_admit_shed_total"),
        );

        let mut run = self.finish(workload, true, seed, seconds, &traced);
        run.notes
            .extend(generator_health(workload, &traced, &mut m));
        run.notes.push(format!(
            "ledger closure (answer + wire over class p50): {}",
            closure.join(", ")
        ));

        // Probe, warm-up and comparison windows must be as correct as the
        // traced one.
        for o in [Some(&untraced), default_ide.as_ref(), Some(&obs_off)]
            .into_iter()
            .flatten()
            .map(|w| &w.outcome)
            .chain([&probes])
        {
            run.attempted += o.attempted;
            run.failed += o.failed;
            if o.failed > 0 {
                run.correct = false;
                run.notes.extend(o.first_failure.clone());
            }
        }
        let spans = tracer.drain();
        for (layer, ns) in self_time_by_layer(&spans) {
            run.notes
                .push(format!("self time {layer}: {:.3} s", ns as f64 / 1e9));
        }
        self.save(
            format!("trace_{}.json", workload.name()),
            &to_chrome_json(&spans),
        )?;
        run.metrics = m;
        Ok(run)
    }
}

/// Generator health during the traced window: lateness and backlog of the
/// open-loop pacer (a closed loop has no schedule to be late against; its
/// backlog is its depth), the share of latency-sample requests answered
/// within the limit, and the client's own CPU. Returns a note when the
/// generator ran too late for the row to be trusted.
fn generator_health(workload: Workload, traced: &Window, m: &mut Metrics) -> Option<String> {
    let lookups_only = workload == Workload::MixedOpen;
    let lat = latencies(&traced.outcome, lookups_only);
    let population = if lookups_only {
        lat.len() as u64 + traced.outcome.failed
    } else {
        traced.outcome.attempted
    };
    let within = lat
        .iter()
        .filter(|&&ns| ns <= LATENCY_LIMIT_US * 1_000)
        .count();
    m.set(
        "client.within_limit_ratio",
        within as f64 / population.max(1) as f64,
    );
    m.set("client.cpu_s", traced.client_cpu_s);
    let Some(log) = &traced.pace else {
        m.set("client.late_p99_us", 0.0);
        m.set("client.backlog_max", traced.closed_backlog as f64);
        return None;
    };
    let mut late = log.late_ns.clone();
    late.sort_unstable();
    let p99 = percentile(&late, 0.99, 0).unwrap_or(0) as f64 / 1e3;
    m.set("client.late_p99_us", p99);
    m.set("client.backlog_max", log.backlog_max as f64);
    (p99 > LATE_LIMIT_US as f64).then(|| {
        format!("unresolved: the generator ran {p99:.0} us late at p99 (limit {LATE_LIMIT_US} us)")
    })
}
