//! `frappe-serve` — the long-running Frappé query server.
//!
//! ```text
//! # Generate a synthetic kernel graph and persist it as a snapshot:
//! frappe-serve --synth 0.05 --write-snapshot /tmp/kernel.fsnap
//!
//! # Serve the snapshot (zero-copy mapped) with the exporter:
//! FRAPPE_SLOWLOG_MS=10 frappe-serve --snapshot /tmp/kernel.fsnap \
//!     --listen 127.0.0.1:7687 --metrics 127.0.0.1:9187
//!
//! # Then: send newline-delimited queries to :7687, scrape :9187/metrics.
//! ```
//!
//! Flags:
//!
//! * `--snapshot PATH` — mmap-open an existing snapshot and serve it.
//! * `--synth SCALE` — build a synthetic graph at `SCALE` (e.g. `0.05`)
//!   instead; `--synth tiny` for the minimal test graph.
//! * `--write-snapshot PATH` — write the built graph as a snapshot and
//!   exit (snapshot factory mode; combine with `--synth`).
//! * `--listen ADDR` — query-protocol bind address (default
//!   `127.0.0.1:7687`; port `0` for OS-assigned).
//! * `--metrics ADDR` — exporter bind address (default `127.0.0.1:9187`).
//! * `--workers N` — query worker threads behind the readiness loop
//!   (default `max(2, available_parallelism)`). Replies are pipelined and
//!   seq-tagged.
//! * `--addr-file PATH` — write the two bound addresses (`query=…`,
//!   `metrics=…` lines) once listening, so scripts can use `:0` ports.
//! * `--obs LEVEL` — observability level (`off`/`counters`/`trace`,
//!   default `counters`; the server exists to be observed).
//! * `--slowlog-ms N` — arm the slow-query log at `N` ms (overrides
//!   `FRAPPE_SLOWLOG_MS`).
//! * `--stall-ms N` — event-loop stall-watchdog budget in ms (default
//!   `100`; `0` counts every iteration, useful for smoke-testing the
//!   `frappe_serve_loop_stalls` series).
//!
//! Telemetry & SLOs (see DESIGN.md §14):
//!
//! * `--sample-ms N` — time-series sampling interval (default `250`;
//!   `0` disables the sampler). The sampled timeline feeds
//!   `/timeseries`, `/dash`, and the SLO engine.
//! * `--slo NAME=VALUE` — declare an objective (repeatable):
//!   `latency_p99_ms=50` (optionally `=50@serve.req.queue_ns` to judge
//!   another phase), `error_rate=0.001`, `availability=0.999`. Burn-rate
//!   alerts surface on `/alerts` and degrade `/healthz`.
//! * `--slo-windows F:L:S` — burn-rate windows in seconds (default
//!   `60:300:1800`).
//!
//! Admission control (any of these flags enables it; see DESIGN.md §13):
//!
//! * `--max-inflight N` — global cap on concurrently executing requests;
//!   excess lines get typed `"code": "shedded"` replies.
//! * `--conn-rate R[:BURST]` — per-connection token bucket: `R` lines/sec
//!   sustained with a `BURST`-line allowance (default burst `R`); excess
//!   lines get typed `"code": "throttled"` replies with a
//!   `retry_after_ms` hint.
//! * `--shed-p95-ms N` — fingerprints whose tracked p95 latency exceeds
//!   `N` ms are parked (state `throttling`) or shed (state `shedding`)
//!   while the server is degraded. Needs `--obs counters` so the
//!   per-fingerprint latencies exist.
//! * `--queue-watermark N` — dispatch-queue depth whose watermark trips
//!   `Open → Throttling` (2× trips `Shedding`); recovery follows the
//!   watermark's exponential decay.

use frappe_obs::{SloSpec, Windows};
use frappe_serve::{AdmissionOptions, ServeGraph, Server, ServerOptions};
use frappe_store::{snapshot, MappedGraph};
use std::process::ExitCode;

struct Args {
    snapshot: Option<String>,
    synth: Option<String>,
    write_snapshot: Option<String>,
    listen: String,
    metrics: String,
    addr_file: Option<String>,
    obs: String,
    slowlog_ms: Option<u64>,
    stall_ms: Option<u64>,
    workers: usize,
    max_inflight: Option<u64>,
    conn_rate: Option<(u64, u64)>,
    shed_p95_ms: Option<u64>,
    queue_watermark: Option<u64>,
    sample_ms: Option<u64>,
    slos: Vec<SloSpec>,
    slo_windows: Option<Windows>,
}

impl Args {
    /// Any admission flag enables the admission layer.
    fn admission(&self) -> AdmissionOptions {
        let enabled = self.max_inflight.is_some()
            || self.conn_rate.is_some()
            || self.shed_p95_ms.is_some()
            || self.queue_watermark.is_some();
        let (rate, burst) = self.conn_rate.unwrap_or((0, 0));
        AdmissionOptions {
            enabled,
            max_inflight: self.max_inflight.unwrap_or(0),
            conn_rate: rate,
            conn_burst: burst,
            shed_p95_ms: self.shed_p95_ms.unwrap_or(0),
            queue_watermark: self.queue_watermark.unwrap_or(0),
            ..AdmissionOptions::default()
        }
    }
}

/// Parses `R` or `R:BURST` for `--conn-rate` (burst defaults to `R`).
fn parse_conn_rate(v: &str) -> Result<(u64, u64), String> {
    let bad = || format!("--conn-rate wants R or R:BURST, got {v:?}");
    match v.split_once(':') {
        Some((r, b)) => Ok((r.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?)),
        None => {
            let r: u64 = v.parse().map_err(|_| bad())?;
            Ok((r, r))
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        snapshot: None,
        synth: None,
        write_snapshot: None,
        listen: "127.0.0.1:7687".into(),
        metrics: "127.0.0.1:9187".into(),
        addr_file: None,
        obs: "counters".into(),
        slowlog_ms: None,
        stall_ms: None,
        workers: 0,
        max_inflight: None,
        conn_rate: None,
        shed_p95_ms: None,
        queue_watermark: None,
        sample_ms: None,
        slos: Vec::new(),
        slo_windows: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--synth" => args.synth = Some(value("--synth")?),
            "--write-snapshot" => args.write_snapshot = Some(value("--write-snapshot")?),
            "--listen" => args.listen = value("--listen")?,
            "--metrics" => args.metrics = value("--metrics")?,
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--obs" => args.obs = value("--obs")?,
            "--slowlog-ms" => {
                args.slowlog_ms = Some(
                    value("--slowlog-ms")?
                        .parse()
                        .map_err(|_| "--slowlog-ms needs an integer".to_string())?,
                )
            }
            "--stall-ms" => {
                args.stall_ms = Some(
                    value("--stall-ms")?
                        .parse()
                        .map_err(|_| "--stall-ms needs an integer".to_string())?,
                )
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?
            }
            "--max-inflight" => {
                args.max_inflight = Some(
                    value("--max-inflight")?
                        .parse()
                        .map_err(|_| "--max-inflight needs an integer".to_string())?,
                )
            }
            "--conn-rate" => args.conn_rate = Some(parse_conn_rate(&value("--conn-rate")?)?),
            "--shed-p95-ms" => {
                args.shed_p95_ms = Some(
                    value("--shed-p95-ms")?
                        .parse()
                        .map_err(|_| "--shed-p95-ms needs an integer".to_string())?,
                )
            }
            "--queue-watermark" => {
                args.queue_watermark = Some(
                    value("--queue-watermark")?
                        .parse()
                        .map_err(|_| "--queue-watermark needs an integer".to_string())?,
                )
            }
            "--sample-ms" => {
                args.sample_ms = Some(
                    value("--sample-ms")?
                        .parse()
                        .map_err(|_| "--sample-ms needs an integer".to_string())?,
                )
            }
            "--slo" => args.slos.push(SloSpec::parse(&value("--slo")?)?),
            "--slo-windows" => args.slo_windows = Some(Windows::parse(&value("--slo-windows")?)?),
            "--help" | "-h" => {
                return Err("usage: frappe-serve [--snapshot PATH | --synth SCALE] \
                            [--write-snapshot PATH] [--listen ADDR] [--metrics ADDR] \
                            [--addr-file PATH] [--obs LEVEL] [--slowlog-ms N] \
                            [--stall-ms N] [--workers N] \
                            [--max-inflight N] [--conn-rate R[:BURST]] \
                            [--shed-p95-ms N] [--queue-watermark N] [--sample-ms N] \
                            [--slo NAME=VALUE]... [--slo-windows F:L:S]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.snapshot.is_some() && args.synth.is_some() {
        return Err("--snapshot and --synth are mutually exclusive".into());
    }
    if args.snapshot.is_none() && args.synth.is_none() {
        return Err("one of --snapshot or --synth is required".into());
    }
    Ok(args)
}

fn build_synth(spec: &str) -> Result<frappe_store::GraphStore, String> {
    let spec = if spec == "tiny" {
        frappe_synth::SynthSpec::tiny()
    } else {
        let scale: f64 = spec
            .parse()
            .map_err(|_| format!("--synth wants a scale factor or 'tiny', got {spec:?}"))?;
        frappe_synth::SynthSpec::scaled(scale)
    };
    let mut g = frappe_synth::generate(&spec).graph;
    // A synth-built server is a demo/test deployment: track the page cache
    // (and start it cold) so the exporter's `frappe_store_pagecache_*`
    // series show the cold→warm transition the paper's Table 5 is about.
    // Mapped snapshots read zero-copy and skip the simulated cache.
    g.unfreeze();
    g.set_cache_mode(frappe_store::CacheMode::Tracked);
    g.set_io_cost(frappe_store::IoCostModel::default());
    g.freeze();
    g.make_cold();
    Ok(g)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let level = frappe_obs::ObsLevel::parse(&args.obs)
        .ok_or_else(|| format!("bad --obs level {:?}", args.obs))?;
    frappe_obs::set_level(level);
    if let Some(ms) = args.slowlog_ms {
        frappe_obs::slowlog().set_threshold_ms(Some(ms));
    }

    // Snapshot factory mode: build, write, exit.
    if let Some(path) = &args.write_snapshot {
        let spec = args
            .synth
            .as_deref()
            .ok_or("--write-snapshot needs --synth (nothing to snapshot)")?;
        let g = build_synth(spec)?;
        snapshot::save(&g, std::path::Path::new(path))
            .map_err(|e| format!("writing snapshot {path}: {e}"))?;
        eprintln!(
            "frappe-serve: wrote snapshot {path} ({} nodes, {} edges)",
            frappe_store::GraphView::node_count(&g),
            frappe_store::GraphView::edge_count(&g)
        );
        return Ok(());
    }

    let graph = if let Some(path) = &args.snapshot {
        let mapped = MappedGraph::open(std::path::Path::new(path))
            .map_err(|e| format!("mapping snapshot {path}: {e}"))?;
        ServeGraph::Mapped(mapped)
    } else {
        ServeGraph::Owned(build_synth(args.synth.as_deref().unwrap())?)
    };

    let mut options = ServerOptions {
        workers: args.workers,
        admission: args.admission(),
        slos: args.slos.clone(),
        ..ServerOptions::default()
    };
    if let Some(ms) = args.stall_ms {
        options.loop_stall_budget = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.sample_ms {
        options.sample_ms = ms;
    }
    if let Some(w) = args.slo_windows {
        options.slo_windows = w;
    }
    let server = Server::start(graph, &args.listen, &args.metrics, options)
        .map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "frappe-serve: queries on {}, metrics on http://{}/metrics (obs={:?})",
        server.query_addr(),
        server.metrics_addr(),
        frappe_obs::level()
    );

    if let Some(path) = &args.addr_file {
        let body = format!(
            "query={}\nmetrics={}\n",
            server.query_addr(),
            server.metrics_addr()
        );
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
    }

    server.wait();
    eprintln!("frappe-serve: shut down");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frappe-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
