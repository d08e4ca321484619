//! The Off-level overhead contract (ISSUE 3 acceptance): with
//! `ObsLevel::Off`, instrumentation must not perturb the bench path.
//!
//! "Unperturbed" is asserted deterministically — identical result rows and
//! identical `steps` (the engine's deterministic work measure) with
//! instrumentation off vs. on, and zero counter movement while off — plus a
//! deliberately generous wall-clock bound that fails only if the Off path
//! regresses from "one relaxed load" to something categorically slower.

use frappe_bench::{bench_graph, run_cold_warm};
use frappe_core::queries;
use frappe_query::{Engine, Query};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The obs level is process-global; the two tests in this binary both
/// toggle it, so they serialize on this lock.
fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn off_level_is_unperturbed_on_the_table5_bench_path() {
    let _own = level_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    frappe_obs::registry().reset();

    let out = bench_graph(0.02);
    let g = &out.graph;
    g.warm_up();
    let engine = Engine::new();
    let fig3 = Query::parse(&queries::figure3_code_search("wakeup.elf", "id")).unwrap();

    // --- Deterministic signals -----------------------------------------
    let off = engine.run(g, &fig3).unwrap();
    let snap = frappe_obs::registry().snapshot();
    assert!(
        snap.counters.iter().all(|c| c.value == 0),
        "Off level must record nothing, got {:?}",
        snap.counters
    );
    assert!(snap.histograms.iter().all(|h| h.count == 0));

    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    let on = engine.run(g, &fig3).unwrap();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);

    assert_eq!(off.rows, on.rows, "results must not depend on ObsLevel");
    assert_eq!(off.steps, on.steps, "work must not depend on ObsLevel");

    // Counters did move when enabled (the instrumentation is real).
    let snap = frappe_obs::registry().snapshot();
    assert!(snap.counter("query.runs").unwrap_or(0) >= 1);
    assert!(snap.counter("store.name_index.lookups").unwrap_or(0) >= 1);

    // --- Generous timing bound -----------------------------------------
    // Median-of-9 wall time at Off must not exceed Counters by more than
    // 2x + 10ms. Counters does strictly more work, so this only trips if
    // the Off gate stops being cheap.
    let median = |level: frappe_obs::ObsLevel| -> Duration {
        frappe_obs::set_level(level);
        let mut times: Vec<Duration> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(engine.run(g, &fig3).unwrap().rows.len());
                t.elapsed()
            })
            .collect();
        frappe_obs::set_level(frappe_obs::ObsLevel::Off);
        times.sort();
        times[times.len() / 2]
    };
    let with_counters = median(frappe_obs::ObsLevel::Counters);
    let off_time = median(frappe_obs::ObsLevel::Off);
    assert!(
        off_time <= with_counters * 2 + Duration::from_millis(10),
        "Off {off_time:?} vs Counters {with_counters:?}"
    );

    // --- The cold/warm protocol also agrees across levels --------------
    let count_off = run_cold_warm(g, 1, || engine.run(g, &fig3).unwrap().rows.len()).result_count;
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    let count_on = run_cold_warm(g, 1, || engine.run(g, &fig3).unwrap().rows.len()).result_count;
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    assert_eq!(count_off, count_on);

    frappe_obs::registry().reset();
}

/// The same contract on the live serve hot path (ISSUE 8 acceptance):
/// with `ObsLevel::Off`, request tracing must cost one relaxed load —
/// no trace allocated, no counter moved, no clock read — measured over a
/// real epoll server, not a unit mock.
#[test]
fn off_level_request_tracing_is_free_on_the_serve_hot_path() {
    use frappe_serve::{ServeGraph, Server, ServerOptions};
    use std::io::{BufRead, BufReader, Write};

    let _own = level_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    frappe_obs::registry().reset();
    frappe_obs::reqtrace().clear();
    let committed_before = frappe_obs::reqtrace().total_committed();

    let mut g = frappe_store::GraphStore::new();
    let main = g.add_node(frappe_model::NodeType::Function, "main");
    let callee = g.add_node(frappe_model::NodeType::Function, "vfs_read");
    g.add_edge(main, frappe_model::EdgeType::Calls, callee);
    g.freeze();
    let server = Server::start(
        ServeGraph::Owned(g),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind 127.0.0.1:0");

    let hop = "START n=node:node_auto_index('short_name: main') \
               MATCH n -[:calls]-> m RETURN m.short_name";
    // Pipelines `n` queries over one connection, returns the wall time.
    let drive = |n: usize| -> Duration {
        let stream = std::net::TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let batch = format!("{hop}\n").repeat(n);
        let t = Instant::now();
        writer.write_all(batch.as_bytes()).expect("write batch");
        for _ in 0..n {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(reply.contains("\"ok\": true"), "{reply}");
        }
        t.elapsed()
    };

    // --- Deterministic signals: Off records nothing, anywhere ----------
    drive(64);
    let snap = frappe_obs::registry().snapshot();
    assert!(
        snap.counters.iter().all(|c| c.value == 0),
        "Off must move no counter under live serve traffic, got {:?}",
        snap.counters
    );
    assert!(
        snap.histograms.iter().all(|h| h.count == 0),
        "Off must record no histogram sample"
    );
    assert!(
        frappe_obs::reqtrace().records().is_empty(),
        "Off must not retain traces"
    );
    assert_eq!(
        frappe_obs::reqtrace().total_committed(),
        committed_before,
        "Off must not commit traces"
    );

    // --- Generous timing bound -----------------------------------------
    // Median-of-9 pipelined batches at Off vs. at Counters (which traces
    // every request). Counters does strictly more work per request, so
    // this only trips if the Off gate stops being one relaxed load.
    let median = |level: frappe_obs::ObsLevel| -> Duration {
        frappe_obs::set_level(level);
        let mut times: Vec<Duration> = (0..9).map(|_| drive(32)).collect();
        frappe_obs::set_level(frappe_obs::ObsLevel::Off);
        times.sort();
        times[times.len() / 2]
    };
    let with_counters = median(frappe_obs::ObsLevel::Counters);
    let off_time = median(frappe_obs::ObsLevel::Off);
    assert!(
        off_time <= with_counters * 2 + Duration::from_millis(10),
        "Off {off_time:?} vs Counters {with_counters:?} on the serve path"
    );

    // --- And tracing is real once enabled ------------------------------
    assert!(
        frappe_obs::reqtrace().total_committed() > committed_before,
        "Counters level must commit request traces"
    );
    let snap = frappe_obs::registry().snapshot();
    for name in [
        "serve.req.exec_ns",
        "serve.req.queue_ns",
        "serve.req.write_ns",
    ] {
        assert!(
            snap.histogram(name).map_or(0, |h| h.count) > 0,
            "{name} must record at Counters"
        );
    }

    server.shutdown();
    frappe_obs::registry().reset();
    frappe_obs::reqtrace().clear();
}

/// The sampler's overhead contract (ISSUE 10 acceptance): telemetry is
/// pull-based, so the request hot path carries no sampling hook at all —
/// with the sampler disabled the only residue is the `sampler_active()`
/// relaxed load, and with it enabled at the default 250 ms interval,
/// pipelined serve throughput stays within the noise floor of a
/// no-sampler run.
#[test]
fn sampler_at_default_interval_stays_within_noise_of_no_sampler() {
    use frappe_serve::{ServeGraph, Server, ServerOptions};
    use std::io::{BufRead, BufReader, Write};

    let _own = level_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);

    let build = || {
        let mut g = frappe_store::GraphStore::new();
        let main = g.add_node(frappe_model::NodeType::Function, "main");
        let callee = g.add_node(frappe_model::NodeType::Function, "vfs_read");
        g.add_edge(main, frappe_model::EdgeType::Calls, callee);
        g.freeze();
        ServeGraph::Owned(g)
    };
    let start = |sample_ms: u64| -> Server {
        Server::start(
            build(),
            "127.0.0.1:0",
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                sample_ms,
                ..Default::default()
            },
        )
        .expect("bind 127.0.0.1:0")
    };
    let hop = "START n=node:node_auto_index('short_name: main') \
               MATCH n -[:calls]-> m RETURN m.short_name";
    let drive = |server: &Server, n: usize| -> Duration {
        let stream = std::net::TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let batch = format!("{hop}\n").repeat(n);
        let t = Instant::now();
        writer.write_all(batch.as_bytes()).expect("write batch");
        for _ in 0..n {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(reply.contains("\"ok\": true"), "{reply}");
        }
        t.elapsed()
    };
    let median = |server: &Server| -> Duration {
        let mut times: Vec<Duration> = (0..9).map(|_| drive(server, 32)).collect();
        times.sort();
        times[times.len() / 2]
    };

    // --- Disabled: no thread, no hook, nothing collected ---------------
    let off = start(0);
    assert!(off.sampler().is_none(), "sample_ms 0 builds no sampler");
    assert!(
        !frappe_obs::sampler_active(),
        "disabled sampler leaves only the relaxed-load flag, unset"
    );
    drive(&off, 64);
    assert_eq!(
        off.telemetry().store().point_count(),
        0,
        "no sampler, no points — requests never record series themselves"
    );
    let off_time = median(&off);
    off.shutdown();

    // --- Enabled at the production default ------------------------------
    let on = start(250);
    assert!(frappe_obs::sampler_active(), "enabled sampler flags active");
    let on_time = median(&on);
    assert!(
        on_time <= off_time * 2 + Duration::from_millis(10),
        "sampler-on {on_time:?} vs sampler-off {off_time:?}"
    );
    on.shutdown();
    assert!(!frappe_obs::sampler_active());

    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    frappe_obs::registry().reset();
}
