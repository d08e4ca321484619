//! End-to-end exercises of the telemetry surface over real sockets: the
//! `/timeseries`, `/alerts`, `/version`, and `/dash` endpooints on a live
//! server, and the virtual-clock path where tests drive the sampler by
//! hand — no sleeps, deterministic timestamps.

use frappe_model::{EdgeType, NodeType};
use frappe_obs::SloSpec;
use frappe_serve::{Clock, ServeGraph, Server, ServerOptions};
use frappe_store::GraphStore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Obs level, the registry, and query stats are process-global; tests
/// that arm them serialize on this lock.
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

fn start_server(options: ServerOptions) -> Server {
    Server::start(call_graph(), "127.0.0.1:0", "127.0.0.1:0", options).expect("bind 127.0.0.1:0")
}

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

fn http_get(server: &Server, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(server.metrics_addr()).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    )
}

const HOP: &str = "START n=node:node_auto_index('short_name: main') \
                   MATCH n -[:calls]-> m RETURN m.short_name";

#[test]
fn live_sampler_feeds_timeseries_and_dash() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    let server = start_server(ServerOptions {
        sample_ms: 5,
        ..ServerOptions::default()
    });
    assert!(
        frappe_obs::sampler_active(),
        "monotonic clock spawns the thread"
    );

    // Keep traffic flowing while the sampler takes at least three samples,
    // so counter rates have nonzero deltas to derive.
    let sampler = server.sampler().expect("sampling enabled").clone();
    let mut rounds = 0;
    while sampler.samples_total() < 3 && rounds < 2_000 {
        let responses = query_lines(&server, &[HOP]);
        assert!(responses[0].contains("\"ok\": true"), "{}", responses[0]);
        rounds += 1;
    }
    assert!(sampler.samples_total() >= 3, "sampler made progress");

    let (status, body) = http_get(&server, "/timeseries");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"sample_ms\": 5"), "{body}");
    // Counters surface as derived rates; the traffic above makes the
    // query-throughput rate visibly nonzero.
    assert!(
        body.contains("\"name\": \"query.executions:rate\""),
        "{body}"
    );
    let rate_points = body
        .split("\"name\": \"query.executions:rate\", \"points\": ")
        .nth(1)
        .and_then(|rest| rest.split(']').find(|frag| !frag.is_empty()))
        .expect("rate series has points")
        .to_owned();
    let rate: f64 = rate_points
        .rsplit(',')
        .next()
        .map(str::trim)
        .and_then(|v| v.parse().ok())
        .expect("parse last rate value");
    assert!(rate > 0.0, "driven traffic derives a nonzero rate: {body}");

    // Filtered query returns only the asked-for series.
    let (_, filtered) = http_get(&server, "/timeseries?series=query.executions:rate");
    assert!(
        filtered.contains("\"name\": \"query.executions:rate\""),
        "{filtered}"
    );
    assert!(!filtered.contains("serve.req.exec_ns"), "{filtered}");

    let (status, dash) = http_get(&server, "/dash");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(dash.starts_with("<!DOCTYPE html>"), "{dash}");
    assert!(dash.contains("<svg"), "{dash}");
    assert!(dash.trim_end().ends_with("</html>"), "{dash}");

    let (status, version) = http_get(&server, "/version");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        version.starts_with("{\"name\": \"frappe-serve\""),
        "{version}"
    );

    server.shutdown();
    assert!(!frappe_obs::sampler_active(), "shutdown stops the sampler");
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn virtual_clock_sampler_is_hand_driven_and_slo_degrades_healthz() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    let clock = Clock::virtual_at(0);
    let before = frappe_obs::sampler_active();
    let server = start_server(ServerOptions {
        sample_ms: 250,
        clock: clock.clone(),
        slos: vec![SloSpec::parse("latency_p99_ms=50@telemetry.e2e.exec_ns").unwrap()],
        slo_windows: frappe_obs::Windows::parse("2:10:60").unwrap(),
        ..ServerOptions::default()
    });
    // A virtual clock never spawns a background thread — ticks are ours.
    assert_eq!(frappe_obs::sampler_active(), before);
    let sampler = server.sampler().expect("sampling enabled").clone();

    let h = frappe_obs::registry().histogram("telemetry.e2e.exec_ns");
    h.reset();
    for _ in 0..50 {
        h.record(1_000_000); // 1 ms: healthy
    }
    for _ in 0..20 {
        clock.advance(Duration::from_millis(250));
        assert!(sampler.tick());
    }
    let (_, body) = http_get(&server, "/healthz");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(
        body.contains("\"slo\": {\"declared\": 1, \"firing\": 0}"),
        "{body}"
    );

    // Deterministic timestamps: every sample lands exactly on the 250 ms
    // grid of the virtual clock.
    let (_, ts) = http_get(&server, "/timeseries?series=telemetry.e2e.exec_ns:p99");
    let points: Vec<u64> = ts
        .split("[")
        .skip(1)
        .filter_map(|frag| frag.split(',').next()?.trim().parse().ok())
        .collect();
    assert!(points.len() >= 19, "{ts}");
    assert!(points.iter().all(|t| t % 250 == 0), "{points:?}");

    // Injected overload: p99 blows through 50 ms; the burn-rate alert
    // fires and /healthz degrades.
    for _ in 0..5_000 {
        h.record(200_000_000);
    }
    let mut fired = false;
    for _ in 0..60 {
        clock.advance(Duration::from_millis(250));
        sampler.tick();
        if server.telemetry().slo().firing() > 0 {
            fired = true;
            break;
        }
    }
    assert!(fired, "overload fires the latency SLO");
    let (_, body) = http_get(&server, "/healthz");
    assert!(body.contains("\"status\": \"degraded\""), "{body}");
    let (_, alerts) = http_get(&server, "/alerts");
    assert!(alerts.contains("\"firing\": true"), "{alerts}");

    // Recovery resolves the alert (hysteresis) and /healthz recovers.
    h.reset();
    for _ in 0..50 {
        h.record(1_000_000);
    }
    let mut resolved = false;
    for _ in 0..300 {
        clock.advance(Duration::from_millis(250));
        sampler.tick();
        if server.telemetry().slo().firing() == 0 {
            resolved = true;
            break;
        }
    }
    assert!(resolved, "recovery resolves the alert");
    let (_, body) = http_get(&server, "/healthz");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    let (_, alerts) = http_get(&server, "/alerts");
    assert!(alerts.contains("\"firing\": false"), "{alerts}");

    h.reset();
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn disabled_sampler_keeps_endpoints_up() {
    let _g = obs_lock();
    let server = start_server(ServerOptions {
        sample_ms: 0,
        ..ServerOptions::default()
    });
    assert!(server.sampler().is_none());
    let (status, body) = http_get(&server, "/timeseries");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"sample_ms\": 0"), "{body}");
    assert!(body.contains("\"series\": []"), "{body}");
    let (status, _) = http_get(&server, "/dash");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, alerts) = http_get(&server, "/alerts");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(alerts.contains("\"objectives\": []"), "{alerts}");
    server.shutdown();
}
