//! # frappe-serve
//!
//! A long-running query server: the paper's deployment shape (Section 6 —
//! one shared server answering IDE and code-search queries against an
//! immutable graph snapshot) plus the operational surface that makes it
//! observable in production:
//!
//! * a newline-delimited TCP **query protocol** — one query per line, one
//!   JSON response per line — answered by the `frappe-query` engine
//!   against either an owned [`GraphStore`] or a zero-copy
//!   [`MappedGraph`] snapshot;
//! * a std-only **HTTP exporter** serving `GET /metrics` (Prometheus text
//!   exposition), `/healthz`, `/slowlog` (JSONL), `/queries`
//!   (per-fingerprint statistics, JSON), and `/trace` (Chrome trace-event
//!   JSON of the last N requests' phase spans — load it in
//!   `chrome://tracing`).
//!
//! With `ObsLevel::Counters` or higher, every request is traced through
//! the pipeline — recv → queue → exec → ser → write phase spans, recorded
//! by `frappe_obs::reqtrace` — feeding `/trace`, per-phase histograms in
//! `/metrics`, and phase breakdowns on slow-query-log entries. At
//! `ObsLevel::Off` the whole layer is one relaxed load per request.
//!
//! One **connection core** drives the query listener: a single readiness
//! loop (`frappe_harness::poll`, epoll on linux) multiplexing every
//! connection nonblocking, with a small worker pool executing queries.
//! The protocol is **pipelined**: a client may send N queries without
//! waiting; every reply carries a `"seq"` field (per-connection arrival
//! order, from 0) and replies may return **out of order**, so one slow
//! comprehension query never head-of-line-blocks a connection's cheap
//! point lookups. The core needs a unix platform.
//!
//! Every framed line passes through the [`admission`] layer
//! (per-connection token bucket, global in-flight cap, cost-aware
//! shedding under load — disabled by default, one relaxed load when
//! off). Requests are framed with a hard per-line byte cap (a client that
//! streams an unbounded line gets a typed `"code": "line_too_long"` error
//! and the rest of the line is discarded), and the `!shutdown` admin line
//! drains every in-flight query and flushes all replies before
//! acknowledging and closing. The HTTP exporter is thread-per-connection:
//! scrapes are rare, large, and latency-insensitive.

use frappe_harness::json::json_escape;
use frappe_obs::timeseries::{Sampler, SamplerConfig, SamplerThread, SeriesStore};
use frappe_obs::{SloEngine, SloSpec, Windows};
use frappe_query::{Engine, Query, ResultSet};
use frappe_store::{GraphStore, GraphView, MappedGraph};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub mod admission;
pub mod dash;

pub use admission::{
    AdmissionControl, AdmissionOptions, AdmitState, Decision, TokenBucket, Watermark,
};
pub use frappe_obs::Clock;

#[cfg(unix)]
mod event_loop;

/// Non-unix stub: no readiness syscalls, so [`Server::start`] fails with
/// `Unsupported`.
#[cfg(not(unix))]
mod event_loop {
    pub(crate) fn spawn(
        _inner: std::sync::Arc<crate::Inner>,
        _listener: std::net::TcpListener,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "event core needs a unix platform",
        ))
    }
}

/// The graph a server answers queries against: built in memory or mapped
/// from a snapshot file.
pub enum ServeGraph {
    /// An owned, frozen [`GraphStore`].
    Owned(GraphStore),
    /// A zero-copy snapshot reader.
    Mapped(MappedGraph),
}

impl ServeGraph {
    /// Live node count (for `/healthz`).
    pub fn node_count(&self) -> usize {
        match self {
            ServeGraph::Owned(g) => g.node_count(),
            ServeGraph::Mapped(g) => g.node_count(),
        }
    }

    /// Live edge count (for `/healthz`).
    pub fn edge_count(&self) -> usize {
        match self {
            ServeGraph::Owned(g) => g.edge_count(),
            ServeGraph::Mapped(g) => g.edge_count(),
        }
    }

    fn run(&self, engine: &Engine, query: &Query) -> Result<ResultSet, frappe_query::QueryError> {
        match self {
            ServeGraph::Owned(g) => engine.run(g, query),
            ServeGraph::Mapped(g) => engine.run(g, query),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Result rows returned per response line; the remainder is dropped
    /// and the response flagged `"truncated": true` (statistics still see
    /// the full row count).
    pub max_response_rows: usize,
    /// Idle budget per connection: the event core closes query
    /// connections with no traffic and no in-flight queries for this long;
    /// the HTTP exporter arms it as the socket read timeout.
    pub read_timeout: Duration,
    /// Hard per-request line cap. Longer lines earn a typed
    /// `"code": "line_too_long"` error reply; the oversized remainder is
    /// discarded up to the next newline.
    pub max_line_bytes: usize,
    /// Queries a single connection may have in flight (event core). Lines
    /// beyond the cap stay buffered — and, via readiness interest, on the
    /// client's side of the socket — until replies drain.
    pub max_pipeline: usize,
    /// Query worker threads for the event core; `0` = `max(2,
    /// available_parallelism)` (two minimum, so a slow query can never
    /// serialize the whole pool).
    pub workers: usize,
    /// Per-connection reply backpressure bound (event core): while a
    /// connection's unflushed reply bytes exceed this, no further queries
    /// are parsed from it.
    pub max_write_buffer: usize,
    /// How long a draining shutdown waits for in-flight queries and
    /// unflushed replies before closing anyway.
    pub drain_timeout: Duration,
    /// Stall-watchdog budget for one event-loop iteration's work phase
    /// (everything between two `poll` waits). Iterations that exceed it
    /// increment the `serve.loop.stalls` counter — a stalled loop delays
    /// readiness handling for *every* connection. `0` flags every
    /// iteration (useful for exercising the watchdog in harnesses).
    pub loop_stall_budget: Duration,
    /// Admission-control policy (token bucket, in-flight cap, cost-aware
    /// shedding). Disabled by default; see [`admission`].
    pub admission: AdmissionOptions,
    /// Time source for the token bucket, watermark decay, and the event
    /// core's idle sweep. Virtual in tests, monotonic in production.
    pub clock: Clock,
    /// Telemetry sampling interval in milliseconds (`--sample-ms`); `0`
    /// disables the sampler (the `/timeseries` and `/dash` endpoints stay
    /// up but collect nothing).
    pub sample_ms: u64,
    /// Declared service-level objectives (`--slo NAME=VALUE`, repeatable).
    pub slos: Vec<SloSpec>,
    /// Burn-rate evaluation windows (`--slo-windows FAST:LONG:SLOW`
    /// seconds).
    pub slo_windows: Windows,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_response_rows: 1_000,
            read_timeout: Duration::from_secs(30),
            max_line_bytes: 256 * 1024,
            max_pipeline: 128,
            workers: 0,
            max_write_buffer: 4 * 1024 * 1024,
            drain_timeout: Duration::from_secs(10),
            loop_stall_budget: Duration::from_millis(100),
            admission: AdmissionOptions::default(),
            clock: Clock::monotonic(),
            sample_ms: frappe_obs::timeseries::DEFAULT_SAMPLE_MS,
            slos: Vec::new(),
            slo_windows: Windows::default(),
        }
    }
}

impl ServerOptions {
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)
    }
}

/// The server's resident telemetry: the sampled time-series store, the
/// SLO engine, and the identity facts (`uptime`, version) the HTTP
/// surface labels timelines with. One per server, shared by the sampler
/// thread and every exporter connection.
pub struct Telemetry {
    store: Arc<SeriesStore>,
    slo: Arc<SloEngine>,
    clock: Clock,
    start_ns: u64,
    sample_ms: u64,
}

impl Telemetry {
    /// A telemetry surface with no sampler behind it (tests, disabled
    /// sampling): empty store, no objectives.
    pub fn detached() -> Telemetry {
        let clock = Clock::monotonic();
        let start_ns = clock.now_ns();
        Telemetry {
            store: Arc::new(SeriesStore::with_defaults()),
            slo: Arc::new(SloEngine::new(
                Vec::new(),
                Windows::default(),
                Duration::from_millis(frappe_obs::timeseries::DEFAULT_SAMPLE_MS),
            )),
            clock,
            start_ns,
            sample_ms: 0,
        }
    }

    /// The sampled series store.
    pub fn store(&self) -> &Arc<SeriesStore> {
        &self.store
    }

    /// The SLO engine (`/alerts`, `/healthz` degradation).
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// Nanoseconds now on the telemetry clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Whole seconds since the server started.
    pub fn uptime_s(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns) / 1_000_000_000
    }

    /// Configured sampling interval in ms (`0` = sampler disabled).
    pub fn sample_ms(&self) -> u64 {
        self.sample_ms
    }
}

/// The crate version baked into `/version` and `/healthz`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

struct Inner {
    graph: ServeGraph,
    engine: Engine,
    options: ServerOptions,
    admission: AdmissionControl,
    telemetry: Telemetry,
    stop: AtomicBool,
    open_conns: AtomicU64,
    query_addr: SocketAddr,
    metrics_addr: SocketAddr,
}

impl Inner {
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake both accept loops with throwaway connections so they
        // observe the flag without waiting for real traffic.
        let _ = TcpStream::connect(self.query_addr);
        let _ = TcpStream::connect(self.metrics_addr);
    }

    fn conn_opened(&self) {
        frappe_obs::counter!("serve.accepts").incr();
        frappe_obs::counter!("serve.conns.opened").incr();
        let open = self.open_conns.fetch_add(1, Ordering::Relaxed) + 1;
        frappe_obs::counter!("serve.conns.peak").record_max(open);
    }

    fn conn_closed(&self) {
        frappe_obs::counter!("serve.conns.closed").incr();
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server: two listeners plus their accept/event threads, and
/// (when sampling is enabled) the telemetry sampler.
pub struct Server {
    inner: Arc<Inner>,
    accept_threads: Vec<JoinHandle<()>>,
    sampler: Option<Arc<Sampler>>,
    sampler_thread: Option<SamplerThread>,
}

// The accept/handler/worker threads share `&ServeGraph` and `&Engine`;
// both are lock-free readers (the mmap page cache is atomics-based), which
// this assertion pins down at compile time.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<Inner>();
};

impl Server {
    /// Binds the query and metrics listeners (use port `0` for an
    /// OS-assigned port) and starts the event core. Fails with the event
    /// core's own error when it cannot start (no readiness syscalls on
    /// this platform, fd exhaustion at setup).
    pub fn start(
        graph: ServeGraph,
        query_addr: &str,
        metrics_addr: &str,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let query_listener = TcpListener::bind(query_addr)?;
        let metrics_listener = TcpListener::bind(metrics_addr)?;
        let admission = AdmissionControl::new(options.admission.clone(), options.clock.clone());

        // Telemetry: the SLO engine always exists (so `/alerts` has a
        // stable shape); the sampler only when `sample_ms > 0`.
        let interval = Duration::from_millis(if options.sample_ms > 0 {
            options.sample_ms
        } else {
            frappe_obs::timeseries::DEFAULT_SAMPLE_MS
        });
        let slo = Arc::new(SloEngine::new(
            options.slos.clone(),
            options.slo_windows,
            interval,
        ));
        let mut sampler = (options.sample_ms > 0).then(|| {
            let mut s = Sampler::new(SamplerConfig {
                interval,
                clock: options.clock.clone(),
                ..SamplerConfig::default()
            });
            s.set_slo(Arc::clone(&slo));
            s
        });
        let store = sampler
            .as_ref()
            .map(|s| Arc::clone(s.store()))
            .unwrap_or_else(|| Arc::new(SeriesStore::with_defaults()));
        let telemetry = Telemetry {
            store,
            slo,
            clock: options.clock.clone(),
            start_ns: options.clock.now_ns(),
            sample_ms: options.sample_ms,
        };

        let inner = Arc::new(Inner {
            graph,
            engine: Engine::new(),
            options,
            admission,
            telemetry,
            stop: AtomicBool::new(false),
            open_conns: AtomicU64::new(0),
            query_addr: query_listener.local_addr()?,
            metrics_addr: metrics_listener.local_addr()?,
        });

        // The sampler's serve-layer source: admission state and connection
        // gauges the registry scrape can't see (they live on ungated
        // struct fields, not registry counters).
        let sampler = sampler.take().map(|mut s| {
            let src = Arc::clone(&inner);
            s.add_source(Box::new(
                move |set: &mut frappe_obs::timeseries::SampleSet| {
                    set.gauge("serve.admit.state", src.admission.state() as u8 as f64);
                    set.gauge("serve.admit.inflight", src.admission.inflight() as f64);
                    set.gauge(
                        "serve.open_conns",
                        src.open_conns.load(Ordering::Relaxed) as f64,
                    );
                    set.counter(
                        "serve.admit.admitted_total",
                        src.admission.admitted_total() as f64,
                    );
                    set.counter("serve.admit.shed_total", src.admission.shed_total() as f64);
                    set.counter(
                        "serve.admit.throttled_total",
                        src.admission.throttled_total() as f64,
                    );
                    set.counter(
                        "serve.admit.parked_total",
                        src.admission.parked_total() as f64,
                    );
                },
            ));
            Arc::new(s)
        });
        let mut accept_threads = vec![event_loop::spawn(Arc::clone(&inner), query_listener)?];
        {
            let inner = Arc::clone(&inner);
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(&inner, metrics_listener);
            }));
        }
        // Virtual clocks never self-advance — a background thread would
        // spin sampling the same instant. Tests drive `tick()` by hand.
        let sampler_thread = sampler
            .as_ref()
            .filter(|s| !s.clock().is_virtual())
            .map(|s| s.spawn());

        Ok(Server {
            inner,
            accept_threads,
            sampler,
            sampler_thread,
        })
    }

    /// The bound query-protocol address (resolves `:0` binds).
    pub fn query_addr(&self) -> SocketAddr {
        self.inner.query_addr
    }

    /// The bound HTTP exporter address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.inner.metrics_addr
    }

    /// The server's admission controller (tests poll its ungated
    /// counters; `/healthz` renders them).
    pub fn admission(&self) -> &AdmissionControl {
        &self.inner.admission
    }

    /// Open query+exporter connections right now (ungated; `/healthz`).
    pub fn open_conns(&self) -> u64 {
        self.inner.open_conns.load(Ordering::Relaxed)
    }

    /// The server's telemetry surface (time-series store + SLO engine).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The telemetry sampler, when sampling is enabled. Virtual-clock
    /// tests drive `tick()` on it directly.
    pub fn sampler(&self) -> Option<&Arc<Sampler>> {
        self.sampler.as_ref()
    }

    /// Whether a shutdown has been requested (by [`Server::shutdown`] or a
    /// client's `!shutdown` line).
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins the core threads. The event core drains
    /// in-flight queries and flushes replies before exiting.
    pub fn shutdown(mut self) {
        self.inner.request_stop();
        if let Some(t) = self.sampler_thread.take() {
            t.shutdown();
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until a shutdown is requested, then joins the core threads
    /// (the binary's main loop).
    pub fn wait(mut self) {
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.sampler_thread.take() {
            t.shutdown();
        }
    }
}

/// The HTTP exporter's accept loop: one handler thread per scrape.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let conn = listener.accept();
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(inner.options.read_timeout));
                // Replies must not sit behind Nagle waiting for the
                // client's delayed ACK.
                let _ = stream.set_nodelay(true);
                let inner = Arc::clone(inner);
                std::thread::spawn(move || handle_http_conn(&inner, stream));
            }
            Err(_) => return,
        }
    }
}

/// The exact `!shutdown` acknowledgement line (stable for scripted
/// clients; deliberately carries no `seq`).
pub const SHUTDOWN_ACK: &str = "{\"ok\": true, \"shutdown\": true}";

fn seq_field(seq: Option<u64>) -> String {
    match seq {
        Some(s) => format!("\"seq\": {s}, "),
        None => String::new(),
    }
}

/// The typed reply for a request line that blew the
/// [`ServerOptions::max_line_bytes`] cap.
pub fn line_too_long_reply(seq: Option<u64>, cap: usize) -> String {
    format!(
        "{{\"ok\": false, {}\"code\": \"line_too_long\", \"error\": \"request line exceeds {cap} bytes; \
         remainder discarded\"}}",
        seq_field(seq)
    )
}

fn sleep_reply(seq: Option<u64>, ms: u64) -> String {
    format!("{{\"ok\": true, {}\"slept_ms\": {ms}}}", seq_field(seq))
}

/// The typed reply for a line rejected by the per-connection token
/// bucket. `retry_after_ms` says when the bucket next has a token.
pub fn throttled_reply(seq: Option<u64>, retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\": false, {}\"code\": \"throttled\", \"retry_after_ms\": {retry_after_ms}, \
         \"error\": \"per-connection rate limit exceeded\"}}",
        seq_field(seq)
    )
}

/// The typed reply for a line shed by the in-flight cap or the
/// cost-aware tier. Carries the degradation state the shed happened in.
pub fn shed_reply(seq: Option<u64>, state: AdmitState, retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\": false, {}\"code\": \"shedded\", \"state\": \"{}\", \
         \"retry_after_ms\": {retry_after_ms}, \"error\": \"server is shedding load\"}}",
        seq_field(seq),
        state.as_str()
    )
}

/// Parses the `!sleep MS` diagnostic line (a deterministic slow "query"
/// for pipelining tests and load harnesses). Capped at 10s.
fn parse_sleep(text: &str) -> Option<u64> {
    let ms: u64 = text.strip_prefix("!sleep ")?.trim().parse().ok()?;
    Some(ms.min(10_000))
}

/// Runs one query line and renders the one-line JSON response, tagging it
/// with `seq` when the protocol is pipelined.
///
/// Success: `{"ok": true, "seq": n, "fingerprint": "…", "rows": n,
/// "steps": n, "total_ns": n, "columns": […], "data": [[…]]}` (plus
/// `"truncated": true` when rows were dropped). Failure: `{"ok": false,
/// "seq": n, "fingerprint": "…", "code": "parse_error"|"query_error",
/// "error": "…"}` — the fingerprint of unparsable text still lands in the
/// statistics via the normalize fallback.
fn render_reply(
    graph: &ServeGraph,
    engine: &Engine,
    options: &ServerOptions,
    text: &str,
    seq: Option<u64>,
) -> String {
    let started = std::time::Instant::now();
    let seq = seq_field(seq);
    let query = match Query::parse(text) {
        Ok(q) => q,
        Err(e) => {
            return format!(
                "{{\"ok\": false, {seq}\"fingerprint\": \"{}\", \"code\": \"parse_error\", \
                 \"error\": \"{}\"}}",
                frappe_query::format_fingerprint(frappe_query::fingerprint(text)),
                json_escape(&e.to_string())
            );
        }
    };
    let fp = frappe_query::format_fingerprint(query.fingerprint);
    let run_result = graph.run(engine, &query);
    // If a request trace is registered on this thread, its exec span ends
    // here and the serialization span begins (a no-op otherwise).
    frappe_obs::reqtrace::mark_serialize();
    match run_result {
        Ok(result) => {
            let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let truncated = result.rows.len() > options.max_response_rows;
            let mut out = format!(
                "{{\"ok\": true, {seq}\"fingerprint\": \"{fp}\", \"rows\": {}, \"steps\": {}, \
                 \"total_ns\": {total_ns}, \"columns\": [",
                result.rows.len(),
                result.steps
            );
            for (i, c) in result.columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(c)));
            }
            out.push_str("], \"data\": [");
            for (i, row) in result
                .rows
                .iter()
                .take(options.max_response_rows)
                .enumerate()
            {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for (j, v) in row.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\"", json_escape(&v.to_string())));
                }
                out.push(']');
            }
            out.push(']');
            if truncated {
                out.push_str(", \"truncated\": true");
            }
            out.push('}');
            out
        }
        Err(e) => format!(
            "{{\"ok\": false, {seq}\"fingerprint\": \"{fp}\", \"code\": \"query_error\", \
             \"error\": \"{}\"}}",
            json_escape(&e.to_string())
        ),
    }
}

/// Runs one query line and renders the untagged one-line JSON response
/// (the pre-pipelining protocol surface, kept for embedding and tests).
pub fn answer_query_line(
    graph: &ServeGraph,
    engine: &Engine,
    options: &ServerOptions,
    text: &str,
) -> String {
    render_reply(graph, engine, options, text, None)
}

/// [`answer_query_line`] with a pipelining `"seq"` tag.
pub fn answer_query_line_tagged(
    graph: &ServeGraph,
    engine: &Engine,
    options: &ServerOptions,
    text: &str,
    seq: u64,
) -> String {
    render_reply(graph, engine, options, text, Some(seq))
}

/// Renders one HTTP/1.1 response with `Connection: close`.
fn http_response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Pulls `name=value` out of an URL query string (no percent-decoding —
/// the exporter's parameter values are metric names and integers).
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Answers one exporter request path (shared by the HTTP handler and the
/// endpoint tests). The engine is consulted for plan-cache counters on
/// `/queries`; the admission controller feeds `/healthz` (degradation
/// state, ungated in-flight/shed tallies) and the `/metrics` gauges; the
/// telemetry surface feeds `/timeseries`, `/alerts`, and `/dash`.
pub fn answer_http_path(
    graph: &ServeGraph,
    engine: &Engine,
    admission: &AdmissionControl,
    telemetry: &Telemetry,
    open_conns: u64,
    path: &str,
) -> (String, String, String) {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    match route {
        "/metrics" => {
            let mut body = frappe_obs::render_prometheus(
                &frappe_obs::registry().snapshot(),
                &frappe_obs::query_stats().snapshot(),
                frappe_obs::SlowLogStats::of(frappe_obs::slowlog()),
                frappe_obs::ReqTraceStats::of(frappe_obs::reqtrace()),
            );
            body.push_str(&admission.prometheus_gauges());
            (
                "200 OK".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
                body,
            )
        }
        "/healthz" => {
            let degraded = admission.state() != AdmitState::Open || telemetry.slo().firing() > 0;
            let status = if degraded { "degraded" } else { "ok" };
            (
                "200 OK".into(),
                "application/json".into(),
                format!(
                    "{{\"status\": \"{status}\", \"version\": \"{}\", \"uptime_s\": {}, \
                     \"nodes\": {}, \"edges\": {}, \"open_conns\": {open_conns}, \
                     \"slo\": {{\"declared\": {}, \"firing\": {}}}, {}}}\n",
                    json_escape(VERSION),
                    telemetry.uptime_s(),
                    graph.node_count(),
                    graph.edge_count(),
                    telemetry.slo().declared(),
                    telemetry.slo().firing(),
                    admission.healthz_fragment()
                ),
            )
        }
        "/version" => (
            "200 OK".into(),
            "application/json".into(),
            format!(
                "{{\"name\": \"frappe-serve\", \"version\": \"{}\", \"pid\": {}, \
                 \"uptime_s\": {}}}\n",
                json_escape(VERSION),
                std::process::id(),
                telemetry.uptime_s(),
            ),
        ),
        "/timeseries" => {
            let filter: Option<Vec<String>> = query_param(query, "series").map(|s| {
                s.split(',')
                    .filter(|n| !n.is_empty())
                    .map(str::to_owned)
                    .collect()
            });
            let since_ns = query_param(query, "since_ms")
                .and_then(|v| v.parse::<u64>().ok())
                .map(|ms| ms.saturating_mul(1_000_000))
                .unwrap_or(0);
            let body = format!(
                "{{\"now_ms\": {}, \"sample_ms\": {}, \"samples\": {}, \"series\": {}}}\n",
                telemetry.now_ns() / 1_000_000,
                telemetry.sample_ms(),
                telemetry.store().point_count(),
                telemetry.store().render_json(filter.as_deref(), since_ns),
            );
            ("200 OK".into(), "application/json".into(), body)
        }
        "/alerts" => (
            "200 OK".into(),
            "application/json".into(),
            telemetry.slo().to_json(telemetry.now_ns()),
        ),
        "/dash" => (
            "200 OK".into(),
            "text/html; charset=utf-8".into(),
            dash::render(graph, admission, telemetry, open_conns),
        ),
        "/slowlog" => (
            "200 OK".into(),
            "application/x-ndjson".into(),
            frappe_obs::slowlog().to_jsonl(),
        ),
        "/trace" => (
            "200 OK".into(),
            "application/json".into(),
            frappe_obs::reqtrace().to_chrome_json(),
        ),
        "/queries" => {
            let pc = engine.plan_cache_stats();
            let body = format!(
                "{{\"plan_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \
                 \"reseeds\": {}, \"invalidations\": {}}}, \"queries\": {}}}\n",
                pc.entries,
                pc.hits,
                pc.misses,
                pc.reseeds,
                pc.invalidations,
                frappe_obs::queries_to_json(&frappe_obs::query_stats().snapshot()),
            );
            ("200 OK".into(), "application/json".into(), body)
        }
        _ => (
            "404 Not Found".into(),
            "text/plain".into(),
            format!("no such endpoint: {path}\n"),
        ),
    }
}

fn handle_http_conn(inner: &Inner, mut stream: TcpStream) {
    // Read the request head (we only need the request line; everything up
    // to the blank line is consumed so the client sees a clean close).
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or("/"));

    let response = if method != "GET" {
        http_response("405 Method Not Allowed", "text/plain", "GET only\n")
    } else {
        let (status, content_type, body) = answer_http_path(
            &inner.graph,
            &inner.engine,
            &inner.admission,
            &inner.telemetry,
            inner.open_conns.load(Ordering::Relaxed),
            path,
        );
        http_response(&status, &content_type, &body)
    };
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use frappe_model::{EdgeType, NodeType};

    fn tiny_graph() -> ServeGraph {
        let mut g = GraphStore::new();
        let main = g.add_node(NodeType::Function, "main");
        let helper = g.add_node(NodeType::Function, "helper");
        g.add_edge(main, EdgeType::Calls, helper);
        g.freeze();
        ServeGraph::Owned(g)
    }

    #[test]
    fn answer_query_line_renders_rows_and_errors() {
        let g = tiny_graph();
        let engine = Engine::new();
        let opts = ServerOptions::default();
        let ok = answer_query_line(
            &g,
            &engine,
            &opts,
            "START n=node:node_auto_index('short_name: main') \
             MATCH n -[:calls]-> m RETURN m.short_name",
        );
        assert!(ok.starts_with("{\"ok\": true, \"fingerprint\": \""), "{ok}");
        assert!(ok.contains("\"rows\": 1"), "{ok}");
        assert!(ok.contains("helper"), "{ok}");
        let err = answer_query_line(&g, &engine, &opts, "MATCH ???");
        assert!(err.starts_with("{\"ok\": false"), "{err}");
        assert!(err.contains("\"code\": \"parse_error\""), "{err}");
        assert!(err.contains("\"error\": \""), "{err}");
    }

    #[test]
    fn tagged_replies_carry_seq_first() {
        let g = tiny_graph();
        let engine = Engine::new();
        let opts = ServerOptions::default();
        let ok = answer_query_line_tagged(
            &g,
            &engine,
            &opts,
            "START n=node:node_auto_index('short_name: main') RETURN n.short_name",
            42,
        );
        assert!(ok.starts_with("{\"ok\": true, \"seq\": 42, "), "{ok}");
        let err = answer_query_line_tagged(&g, &engine, &opts, "MATCH ???", 7);
        assert!(err.starts_with("{\"ok\": false, \"seq\": 7, "), "{err}");
    }

    #[test]
    fn answer_query_line_truncates_large_results() {
        let mut g = GraphStore::new();
        let hub = g.add_node(NodeType::Function, "hub");
        for i in 0..10 {
            let callee = g.add_node(NodeType::Function, &format!("callee{i}"));
            g.add_edge(hub, EdgeType::Calls, callee);
        }
        g.freeze();
        let g = ServeGraph::Owned(g);
        let opts = ServerOptions {
            max_response_rows: 3,
            ..Default::default()
        };
        let out = answer_query_line(
            &g,
            &Engine::new(),
            &opts,
            "START n=node:node_auto_index('short_name: hub') \
             MATCH n -[:calls]-> m RETURN m",
        );
        assert!(out.contains("\"rows\": 10"), "{out}");
        assert!(out.contains("\"truncated\": true"), "{out}");
        assert_eq!(out.matches('[').count(), 2 + 3, "columns + 3 rows: {out}");
    }

    #[test]
    fn sleep_lines_parse_with_cap() {
        assert_eq!(parse_sleep("!sleep 250"), Some(250));
        assert_eq!(parse_sleep("!sleep 999999"), Some(10_000));
        assert_eq!(parse_sleep("!sleep"), None);
        assert_eq!(parse_sleep("!sleep x"), None);
        assert_eq!(parse_sleep("RETURN 1"), None);
    }

    #[test]
    fn http_endpoints_render() {
        let g = tiny_graph();
        let engine = Engine::new();
        let ac = AdmissionControl::disabled();
        let tel = Telemetry::detached();
        let (status, _, body) = answer_http_path(&g, &engine, &ac, &tel, 3, "/healthz");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        assert!(body.contains("\"version\": \""), "{body}");
        assert!(body.contains("\"uptime_s\": "), "{body}");
        assert!(body.contains("\"nodes\": 2"), "{body}");
        assert!(body.contains("\"open_conns\": 3"), "{body}");
        assert!(
            body.contains("\"slo\": {\"declared\": 0, \"firing\": 0}"),
            "{body}"
        );
        assert!(
            body.contains("\"admission\": {\"enabled\": false"),
            "{body}"
        );
        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/metrics");
        assert_eq!(status, "200 OK");
        assert!(ct.starts_with("text/plain"));
        frappe_obs::validate_exposition(&body).unwrap();
        assert!(body.contains("frappe_serve_admit_state 0"), "{body}");
        assert!(body.contains("frappe_serve_admit_shed_total "), "{body}");
        assert!(body.contains("frappe_reqtrace_committed_total "), "{body}");
        let (status, _, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/queries");
        assert_eq!(status, "200 OK");
        assert!(
            body.starts_with("{\"plan_cache\": {\"entries\": 0"),
            "{body}"
        );
        assert!(body.contains("\"queries\": ["), "{body}");
        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/trace");
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        frappe_obs::validate_chrome_trace(&body).unwrap();
        let (status, _, _) = answer_http_path(&g, &engine, &ac, &tel, 0, "/nope");
        assert_eq!(status, "404 Not Found");
    }

    #[test]
    fn telemetry_endpoints_render() {
        let g = tiny_graph();
        let engine = Engine::new();
        let ac = AdmissionControl::disabled();
        let tel = Telemetry::detached();
        tel.store().record("demo.series", 1_000_000, 4.0);
        tel.store().record("demo.series", 2_000_000, 6.0);

        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/version");
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        assert!(
            body.starts_with("{\"name\": \"frappe-serve\", \"version\": \""),
            "{body}"
        );
        assert!(body.contains("\"pid\": "), "{body}");

        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/timeseries");
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        assert!(body.contains("\"sample_ms\": 0"), "{body}");
        assert!(body.contains("\"name\": \"demo.series\""), "{body}");
        assert!(body.contains("[1, 4]") && body.contains("[2, 6]"), "{body}");

        // Filtering and since: an unknown series renders empty, the known
        // one is trimmed to newer points.
        let (_, _, body) = answer_http_path(
            &g,
            &engine,
            &ac,
            &tel,
            0,
            "/timeseries?series=demo.series,ghost&since_ms=2",
        );
        assert!(!body.contains("[1, 4]"), "{body}");
        assert!(body.contains("[2, 6]"), "{body}");
        assert!(
            body.contains("\"name\": \"ghost\", \"points\": []"),
            "{body}"
        );

        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/alerts");
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        assert!(body.contains("\"objectives\": []"), "{body}");
        assert!(body.contains("\"windows_s\": "), "{body}");

        let (status, ct, body) = answer_http_path(&g, &engine, &ac, &tel, 7, "/dash");
        assert_eq!(status, "200 OK");
        assert!(ct.starts_with("text/html"));
        assert!(body.starts_with("<!DOCTYPE html>"), "{body}");
        assert!(body.contains("<svg"), "{body}");
        assert!(body.contains("http-equiv=\"refresh\""), "{body}");
        assert!(body.trim_end().ends_with("</html>"), "{body}");
    }

    #[test]
    fn healthz_reports_degraded_state() {
        let g = tiny_graph();
        let engine = Engine::new();
        let clock = Clock::virtual_at(0);
        let tel = Telemetry::detached();
        let ac = AdmissionControl::new(
            AdmissionOptions {
                enabled: true,
                queue_watermark: 2,
                ..Default::default()
            },
            clock,
        );
        ac.note_depth(10);
        let (_, _, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/healthz");
        assert!(body.contains("\"status\": \"degraded\""), "{body}");
        assert!(body.contains("\"state\": \"shedding\""), "{body}");
        let (_, _, metrics) = answer_http_path(&g, &engine, &ac, &tel, 0, "/metrics");
        frappe_obs::validate_exposition(&metrics).unwrap();
        assert!(metrics.contains("frappe_serve_admit_state 2"), "{metrics}");
    }

    #[test]
    fn healthz_degrades_while_an_slo_fires() {
        let g = tiny_graph();
        let engine = Engine::new();
        let ac = AdmissionControl::disabled();
        let tel = {
            let clock = Clock::monotonic();
            let start_ns = clock.now_ns();
            Telemetry {
                store: Arc::new(SeriesStore::with_defaults()),
                slo: Arc::new(SloEngine::new(
                    vec![SloSpec::parse("latency_p99_ms=50").unwrap()],
                    Windows::default(),
                    Duration::from_millis(250),
                )),
                clock,
                start_ns,
                sample_ms: 250,
            }
        };
        // Sustained bad verdicts push every window over its burn threshold.
        for i in 0..50u64 {
            tel.slo().record("latency_p99_ms", i * 1_000_000_000, true);
        }
        assert_eq!(tel.slo().firing(), 1);
        let (_, _, body) = answer_http_path(&g, &engine, &ac, &tel, 0, "/healthz");
        assert!(body.contains("\"status\": \"degraded\""), "{body}");
        assert!(
            body.contains("\"slo\": {\"declared\": 1, \"firing\": 1}"),
            "{body}"
        );
        let (_, _, alerts) = answer_http_path(&g, &engine, &ac, &tel, 0, "/alerts");
        assert!(alerts.contains("\"firing\": true"), "{alerts}");
        let (_, _, dashboard) = answer_http_path(&g, &engine, &ac, &tel, 0, "/dash");
        assert!(dashboard.contains("FIRING"), "{dashboard}");
    }

    #[test]
    fn typed_denial_replies_have_stable_shapes() {
        let t = throttled_reply(Some(4), 120);
        assert_eq!(
            t,
            "{\"ok\": false, \"seq\": 4, \"code\": \"throttled\", \"retry_after_ms\": 120, \
             \"error\": \"per-connection rate limit exceeded\"}"
        );
        let s = shed_reply(Some(9), AdmitState::Shedding, 500);
        assert_eq!(
            s,
            "{\"ok\": false, \"seq\": 9, \"code\": \"shedded\", \"state\": \"shedding\", \
             \"retry_after_ms\": 500, \"error\": \"server is shedding load\"}"
        );
        assert!(shed_reply(None, AdmitState::Open, 1).starts_with("{\"ok\": false, \"code\""));
    }
}
