//! End-to-end exercises of the serve layer over real sockets: the
//! newline-delimited query protocol and every exporter endpoint, bound to
//! `127.0.0.1:0` so tests never collide with a real deployment.

use frappe_model::{EdgeType, NodeType};
use frappe_serve::{ServeGraph, Server, ServerOptions};
use frappe_store::GraphStore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};

/// Obs level, query stats, and the slow log are process-global; tests that
/// arm them serialize on this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn call_graph() -> ServeGraph {
    let mut g = GraphStore::new();
    let main = g.add_node(NodeType::Function, "main");
    let a = g.add_node(NodeType::Function, "vfs_read");
    let b = g.add_node(NodeType::Function, "vfs_write");
    g.add_edge(main, EdgeType::Calls, a);
    g.add_edge(main, EdgeType::Calls, b);
    g.add_edge(a, EdgeType::Calls, b);
    g.freeze();
    ServeGraph::Owned(g)
}

fn start_server() -> Server {
    Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind 127.0.0.1:0")
}

/// Sends `lines` over one query-protocol connection, returns one response
/// per line.
fn query_lines(server: &Server, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writeln!(writer, "{line}").expect("write query");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        out.push(response.trim_end().to_owned());
    }
    out
}

/// Issues `GET path` against the exporter, returns (status line, body).
fn http_get(server: &Server, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(server.metrics_addr()).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_owned();
    assert!(
        head.contains("Content-Length:"),
        "responses carry Content-Length: {head}"
    );
    assert!(head.contains("Connection: close"), "{head}");
    (status, body.to_owned())
}

const HOP: &str = "START n=node:node_auto_index('short_name: main') \
                   MATCH n -[:calls]-> m RETURN m.short_name";

#[test]
fn query_protocol_answers_per_line() {
    let _g = obs_lock();
    let server = start_server();
    let responses = query_lines(&server, &[HOP, "this is not a query", HOP]);
    assert!(
        responses[0].starts_with("{\"ok\": true"),
        "{}",
        responses[0]
    );
    assert!(responses[0].contains("\"rows\": 2"), "{}", responses[0]);
    assert!(responses[0].contains("vfs_read"), "{}", responses[0]);
    assert!(
        responses[1].starts_with("{\"ok\": false"),
        "{}",
        responses[1]
    );
    assert!(responses[1].contains("\"error\":"), "{}", responses[1]);
    // Replies are deterministic apart from the wall-clock total_ns field.
    let tail = |r: &str| r[r.find("\"columns\"").expect("columns field")..].to_owned();
    assert_eq!(
        tail(&responses[0]),
        tail(&responses[2]),
        "deterministic replies"
    );
    server.shutdown();
}

#[test]
fn exporter_serves_all_endpoints() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    frappe_obs::slowlog().set_threshold_ms(Some(0));
    frappe_obs::slowlog().clear();
    let server = start_server();

    // Drive some traffic so every surface has data. HOP runs three times,
    // so its plan-cache lifecycle reaches a hit from a fresh registry (see
    // the `/queries` check below).
    let responses = query_lines(&server, &[HOP, HOP, HOP, "broken ("]);
    assert!(responses[0].contains("\"ok\": true"));

    let (status, body) = http_get(&server, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(body.contains("\"nodes\": 3"), "{body}");

    let (status, metrics) = http_get(&server, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    frappe_obs::validate_exposition(&metrics).expect("exposition grammar");
    assert!(
        metrics.contains("frappe_query_executions_total{fingerprint="),
        "{metrics}"
    );
    assert!(metrics.contains("frappe_query_latency_ns{"), "{metrics}");
    assert!(metrics.contains("frappe_slowlog_retained"), "{metrics}");
    // The full operational surface is on the scrape even when the gated
    // counters behind it haven't registered: slowlog drops, request-trace
    // commit/drop/abort tallies, and the admission totals.
    assert!(
        metrics.contains("frappe_slowlog_dropped_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_reqtrace_committed_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_reqtrace_dropped_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_reqtrace_aborted_retained"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_serve_admit_admitted_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_serve_admit_throttled_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_serve_admit_shed_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_serve_admit_parked_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("frappe_serve_admit_inflight_peak"),
        "{metrics}"
    );
    // Four requests committed through the reqtrace ring above.
    assert!(
        !metrics.contains("frappe_reqtrace_committed_total 0\n"),
        "{metrics}"
    );

    let (status, slowlog) = http_get(&server, "/slowlog");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        slowlog.lines().count() >= 2,
        "threshold 0 logs every query: {slowlog}"
    );
    assert!(slowlog.contains("\"profile\": {"), "{slowlog}");

    let (status, queries) = http_get(&server, "/queries");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        queries.starts_with("{\"plan_cache\": {\"entries\": "),
        "{queries}"
    );
    assert!(queries.contains("\"hits\": "), "{queries}");
    assert!(
        queries.contains("\"queries\": [{\"fingerprint\": \""),
        "{queries}"
    );
    assert!(queries.contains("\"p95\":"), "{queries}");
    // HOP ran three times through the server's shared engine: a planning
    // miss, a re-plan once its first run seeded the statistics, then a
    // cache hit (the lifecycle `query/tests/plan_cache.rs` pins).
    assert!(!queries.contains("\"hits\": 0,"), "{queries}");

    let (status, _) = http_get(&server, "/no-such");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
    frappe_obs::slowlog().set_threshold_ms(None);
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn concurrent_scrapes_and_queries_are_safe() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    let server = start_server();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10 {
                    let (status, body) = http_get(&server, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    frappe_obs::validate_exposition(&body).expect("mid-traffic scrape");
                }
            });
            s.spawn(|| {
                let responses = query_lines(&server, &[HOP; 10]);
                for r in responses {
                    assert!(r.contains("\"ok\": true"), "{r}");
                }
            });
        }
    });
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn shutdown_command_stops_the_server() {
    let _g = obs_lock();
    let server = start_server();
    let responses = query_lines(&server, &["!shutdown"]);
    assert_eq!(responses[0], "{\"ok\": true, \"shutdown\": true}");
    // The accept loops observe the stop flag; wait() must return.
    server.wait();
}
