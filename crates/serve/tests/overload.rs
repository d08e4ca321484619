//! Overload and fault-injection battery for the admission-control layer:
//! an expensive-fingerprint flood must be shed with typed replies while
//! point lookups keep flowing, the global in-flight cap must hold under
//! connection churn, parked-job owners may die without wedging the
//! server, the state machine must recover to `Open` once load drains, and
//! a disabled controller must cost nothing measurable on the hot path.
//!
//! The cost tier keys off per-fingerprint p95 latencies, which only exist
//! at `ObsLevel::Counters` — tests that use `--shed-p95-ms` semantics arm
//! counters (and reset the stats registry) under the obs lock.

use frappe_model::{EdgeType, NodeType};
use frappe_serve::{AdmissionOptions, ServeGraph, Server, ServerOptions};
use frappe_store::GraphStore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The obs level and the query-stats registry are process-global; every
/// test here touches one of them, so they all serialize on this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn call_graph() -> ServeGraph {
    let mut g = GraphStore::new();
    let main = g.add_node(NodeType::Function, "main");
    let a = g.add_node(NodeType::Function, "vfs_read");
    g.add_edge(main, EdgeType::Calls, a);
    g.freeze();
    ServeGraph::Owned(g)
}

const HOP: &str = "START n=node:node_auto_index('short_name: main') \
                   MATCH n -[:calls]-> m RETURN m.short_name";

fn start(workers: usize, admission: AdmissionOptions) -> Server {
    Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            workers,
            admission,
            ..Default::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

/// The cost-tier config used by the flood tests: depth watermark trips at
/// 1 (2 means Shedding), `!sleep` fingerprints count as expensive once
/// their tracked p95 reaches 40ms.
fn cost_tier() -> AdmissionOptions {
    AdmissionOptions {
        enabled: true,
        queue_watermark: 1,
        shed_p95_ms: 40,
        park_capacity: 8,
        ..Default::default()
    }
}

/// Issues `GET path` against the exporter, returns the body.
fn http_get(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.metrics_addr()).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_owned()
}

/// Polls `pred` every 10ms until it holds or `deadline` elapses.
fn wait_until(what: &str, deadline: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

/// Serially runs `!sleep {ms}` twice so the `!sleep ?` fingerprint has a
/// tracked p95 of exactly `ms` (the histogram clamps quantiles to the
/// observed range). Serial execution keeps the sampled depth at zero, so
/// priming never trips the watermark itself.
fn prime_sleep_stats(server: &Server, ms: u64) {
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for _ in 0..2 {
        writeln!(writer, "!sleep {ms}").expect("write prime");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read prime reply");
        assert!(reply.contains("\"ok\": true"), "prime admitted: {reply}");
    }
}

/// Writes `lines` pipelined on one connection and reads one reply per
/// line (generous read timeout), returning the replies.
fn pipeline(server: &Server, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut batch = String::new();
    for line in lines {
        batch.push_str(line);
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).expect("write batch");
    let mut out = Vec::new();
    for _ in 0..lines.len() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "connection closed early");
        out.push(reply.trim_end().to_owned());
    }
    out
}

fn count_shed(replies: &[String]) -> usize {
    replies
        .iter()
        .filter(|r| r.contains("\"code\": \"shedded\""))
        .count()
}

fn assert_typed_shed_or_ok(replies: &[String]) {
    for r in replies {
        if r.contains("\"ok\": true") {
            continue;
        }
        assert!(
            r.contains("\"code\": \"shedded\"") && r.contains("\"retry_after_ms\":"),
            "denials are typed shed replies: {r}"
        );
    }
}

#[test]
fn epoll_flood_is_shed_while_point_lookups_flow() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    frappe_obs::query_stats().reset();
    let server = start(2, cost_tier());
    prime_sleep_stats(&server, 60);

    // Flood: 16 pipelined 300ms sleeps on one connection. Parsed in one
    // loop pass, the queue-depth watermark climbs line by line: the first
    // admits (state still Open), then parks, then typed sheds.
    let flood_lines: Vec<String> = vec!["!sleep 300".to_owned(); 16];
    let flood = std::thread::spawn({
        let addr = server.query_addr();
        let lines = flood_lines.clone();
        move || {
            let stream = TcpStream::connect(addr).expect("connect flood");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
            writer.write_all(batch.as_bytes()).expect("write flood");
            let mut out = Vec::new();
            for _ in 0..lines.len() {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("read flood reply");
                assert!(!reply.is_empty(), "flood connection closed early");
                out.push(reply.trim_end().to_owned());
            }
            out
        }
    });

    // The degraded state must be visible on /healthz while the flood is
    // in progress (the watermark holds its peak for ~seconds).
    wait_until("healthz to report degraded", Duration::from_secs(5), || {
        http_get(&server, "/healthz").contains("\"status\": \"degraded\"")
    });

    // Point lookups on a separate connection keep flowing: they are
    // cheap fingerprints, so the cost tier never touches them, and with
    // the flood mostly shed the worker pool stays available.
    let lookup_started = Instant::now();
    let lookups = pipeline(&server, &vec![HOP.to_owned(); 8]);
    let lookup_elapsed = lookup_started.elapsed();
    for r in &lookups {
        assert!(r.contains("\"ok\": true"), "lookup survived the flood: {r}");
        assert!(r.contains("vfs_read"), "{r}");
    }
    assert!(
        lookup_elapsed < Duration::from_secs(5),
        "lookups stayed responsive during the flood, took {lookup_elapsed:?}"
    );

    // Every flood line gets exactly one reply: admitted/parked sleeps
    // complete, the rest are typed sheds.
    let flood_replies = flood.join().expect("flood thread");
    assert_eq!(flood_replies.len(), 16);
    assert_typed_shed_or_ok(&flood_replies);
    let shed = count_shed(&flood_replies);
    assert!(shed >= 5, "most of the flood was shed, got {shed}/16");
    assert!(shed < 16, "the first flood line was admitted");
    assert!(
        server.admission().parked_total() >= 1,
        "the throttling window parked at least one expensive query"
    );
    assert_eq!(server.admission().shed_total() as usize, shed);

    // Once load drains the watermark decays and the state machine walks
    // back to Open — visible on /healthz without any traffic.
    wait_until("recovery to Open", Duration::from_secs(10), || {
        http_get(&server, "/healthz").contains("\"state\": \"open\"")
    });
    assert!(http_get(&server, "/healthz").contains("\"status\": \"ok\""));
    assert_eq!(server.admission().inflight(), 0, "all slots released");
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    frappe_obs::query_stats().reset();
}

#[test]
fn inflight_cap_is_honored_under_connection_churn() {
    let _g = obs_lock();
    let server = start(
        4,
        AdmissionOptions {
            enabled: true,
            max_inflight: 2,
            ..Default::default()
        },
    );
    // 64 connections each pipeline two 30ms sleeps: 128 lines race for 2
    // slots. Every line gets exactly one reply — admitted or typed shed —
    // and the CAS ledger never overshoots the cap.
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let addr = server.query_addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                writer
                    .write_all(b"!sleep 30\n!sleep 30\n")
                    .expect("write churn");
                let mut out = Vec::new();
                for _ in 0..2 {
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("read churn reply");
                    assert!(!reply.is_empty(), "churn connection closed early");
                    out.push(reply.trim_end().to_owned());
                }
                out
            })
        })
        .collect();
    let replies: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("churn thread"))
        .collect();
    assert_eq!(replies.len(), 128);
    assert_typed_shed_or_ok(&replies);
    let admission = server.admission();
    assert!(
        admission.peak_inflight() <= 2,
        "cap of 2 never exceeded, peak {}",
        admission.peak_inflight()
    );
    assert!(admission.admitted_total() >= 1, "some lines were admitted");
    assert_eq!(
        admission.admitted_total() + admission.shed_total(),
        128,
        "every line was either admitted or shed"
    );
    wait_until("in-flight to drain", Duration::from_secs(5), || {
        admission.inflight() == 0
    });
    server.shutdown();
}

#[test]
fn parked_job_owner_can_die_without_wedging_the_server() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    frappe_obs::query_stats().reset();
    // One worker so pipelined sleeps queue up and the watermark trips.
    let server = start(1, cost_tier());
    prime_sleep_stats(&server, 50);

    // Pipeline three expensive sleeps, then slam the connection shut: at
    // least one lands in the parked queue whose owner is now dead. The
    // release path must drop it (slot acquired and released, trace
    // aborted) instead of wedging the in-flight ledger.
    {
        let mut stream = TcpStream::connect(server.query_addr()).expect("connect");
        stream
            .write_all(b"!sleep 300\n!sleep 300\n!sleep 300\n")
            .expect("write flood");
        wait_until("a job to park", Duration::from_secs(5), || {
            server.admission().parked_total() >= 1
        });
        // Dropping the stream here sends RST/FIN mid-flood.
    }

    wait_until("in-flight to drain", Duration::from_secs(10), || {
        server.admission().inflight() == 0
    });
    // The server keeps serving: a fresh connection's lookup succeeds and
    // the state machine recovers.
    let replies = pipeline(&server, &[HOP.to_owned()]);
    assert!(
        replies[0].contains("\"ok\": true") && replies[0].contains("vfs_read"),
        "server still serves after the fault: {}",
        replies[0]
    );
    wait_until("recovery to Open", Duration::from_secs(10), || {
        http_get(&server, "/healthz").contains("\"state\": \"open\"")
    });
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    frappe_obs::query_stats().reset();
}

/// One pipelined batch of lookups; returns the wall time.
fn drive(server: &Server, n: usize) -> Duration {
    let start = Instant::now();
    let replies = pipeline(server, &vec![HOP.to_owned(); n]);
    for r in &replies {
        assert!(r.contains("\"ok\": true"), "{r}");
    }
    start.elapsed()
}

#[test]
fn disabled_admission_costs_nothing_measurable() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
    // Disabled admission is one relaxed load per line; compare against a
    // fully-armed controller (cap + rate + watermark) on the same
    // workload. Median-of-9 batches, and the disabled path must not be
    // meaningfully slower than the armed one (generous 2x + 10ms slack,
    // same shape as the obs_overhead gate).
    let disabled = start(2, AdmissionOptions::default());
    let armed = start(
        2,
        AdmissionOptions {
            enabled: true,
            max_inflight: 1_000_000,
            conn_rate: 1_000_000,
            queue_watermark: 1_000_000,
            ..Default::default()
        },
    );
    let median = |server: &Server| {
        let mut times: Vec<Duration> = (0..9).map(|_| drive(server, 32)).collect();
        times.sort_unstable();
        times[4]
    };
    let _warm = (drive(&disabled, 32), drive(&armed, 32));
    let (d, a) = (median(&disabled), median(&armed));
    assert!(
        d <= a * 2 + Duration::from_millis(10),
        "disabled admission is not slower than armed: disabled {d:?} vs armed {a:?}"
    );
    disabled.shutdown();
    armed.shutdown();
}
