//! Request-trace propagation through the live serve stack: span↔seq
//! association across pipelined out-of-order replies, backpressure stalls
//! surfacing as write-phase time, aborted commits for connections that
//! die mid-request, and the `/trace` endpoint's Chrome trace-event JSON.

use frappe_model::{EdgeType, NodeType};
use frappe_obs::reqtrace::{reqtrace, ReqPhase};
use frappe_obs::ReqRecord;
use frappe_serve::{ServeGraph, Server, ServerOptions};
use frappe_store::GraphStore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The obs level and the request-trace ring are process-global; every test
/// here mutates both, so they serialize on this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `main` calling `fanout` distinct functions: reply size scales with
/// `fanout`, which is how the backpressure test builds replies large
/// enough to overflow the kernel socket buffers.
fn fan_graph(fanout: usize) -> ServeGraph {
    let mut g = GraphStore::new();
    let main = g.add_node(NodeType::Function, "main");
    for i in 0..fanout {
        let callee = g.add_node(NodeType::Function, &format!("callee_fn_{i:05}"));
        g.add_edge(main, EdgeType::Calls, callee);
    }
    g.freeze();
    ServeGraph::Owned(g)
}

const HOP: &str = "START n=node:node_auto_index('short_name: main') \
                   MATCH n -[:calls]-> m RETURN m.short_name";

fn start(graph: ServeGraph, options: ServerOptions) -> Server {
    Server::start(graph, "127.0.0.1:0", "127.0.0.1:0", options).expect("bind 127.0.0.1:0")
}

/// Writes all `lines` up front (pipelined), then reads `n` reply lines.
fn pipeline(server: &Server, lines: &[&str], n: usize) -> Vec<String> {
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut batch = String::new();
    for line in lines {
        batch.push_str(line);
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).expect("write batch");
    let mut out = Vec::new();
    for _ in 0..n {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "connection closed early");
        out.push(reply.trim_end().to_owned());
    }
    out
}

/// Polls the global trace ring until `pred` matches its contents (commits
/// race the client observing its replies only by microseconds, but they do
/// race).
fn wait_records(pred: impl Fn(&[ReqRecord]) -> bool) -> Vec<ReqRecord> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let records = reqtrace().records();
        if pred(&records) {
            return records;
        }
        assert!(
            Instant::now() < deadline,
            "trace ring never satisfied the predicate; records: {records:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
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
    (
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    )
}

#[test]
fn epoll_out_of_order_replies_keep_span_seq_association() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    reqtrace().clear();
    let server = start(
        fan_graph(2),
        ServerOptions {
            workers: 4,
            ..Default::default()
        },
    );
    // seq 0 sleeps 300ms, seq 1 is a point lookup: the replies come back
    // out of order, and each trace must stay glued to its own seq.
    let replies = pipeline(&server, &["!sleep 300", HOP], 2);
    assert!(replies[0].contains("\"seq\": 1"), "fast reply first");

    let records = wait_records(|rs| rs.len() >= 2);
    assert_eq!(records.len(), 2, "one trace per request");
    assert_eq!(
        records[0].conn, records[1].conn,
        "same connection, one track"
    );
    assert_ne!(records[0].id, records[1].id);
    let by_seq = |seq: u64| {
        records
            .iter()
            .find(|r| r.seq == seq)
            .unwrap_or_else(|| panic!("no trace for seq {seq}: {records:?}"))
    };
    let slow = by_seq(0);
    let fast = by_seq(1);
    // The sleep's latency lands in its own exec span, nobody else's.
    assert!(
        slow.phase_ns(ReqPhase::Exec) >= 280_000_000,
        "sleep exec span: {slow:?}"
    );
    assert!(
        fast.phase_ns(ReqPhase::Exec) < 280_000_000,
        "lookup exec span: {fast:?}"
    );
    for r in [slow, fast] {
        assert!(!r.aborted);
        assert!(r.phases[ReqPhase::Recv as usize].is_some(), "{r:?}");
        assert!(r.phases[ReqPhase::Queue as usize].is_some(), "{r:?}");
        assert!(r.phases[ReqPhase::Write as usize].is_some(), "{r:?}");
    }
    // Only the query serializes a result; the sleep reply has no ser span.
    assert!(fast.phases[ReqPhase::Ser as usize].is_some(), "{fast:?}");

    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn backpressure_stall_is_visible_as_write_phase_time() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    reqtrace().clear();
    // ~90KB per reply × 150 pipelined queries ≈ 13MB — far beyond what the
    // kernel socket buffers absorb (tcp_wmem caps at 4MB), so replies sit
    // in the server's write buffer while the client refuses to read.
    const QUERIES: usize = 150;
    let server = start(
        fan_graph(4_000),
        ServerOptions {
            workers: 2,
            max_response_rows: 5_000,
            max_write_buffer: 256 * 1024,
            ..Default::default()
        },
    );
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut batch = String::new();
    for _ in 0..QUERIES {
        batch.push_str(HOP);
        batch.push('\n');
    }
    let eagain_before = frappe_obs::counter!("serve.write.eagain").get();
    writer.write_all(batch.as_bytes()).expect("write batch");
    // Wait for a *proven* stall — the server's writer hitting EAGAIN with
    // the client refusing to read — rather than a fixed sleep that raced
    // the render on slow CI machines…
    let stall_deadline = Instant::now() + Duration::from_secs(5);
    while frappe_obs::counter!("serve.write.eagain").get() == eagain_before {
        assert!(
            Instant::now() < stall_deadline,
            "server never stalled on a full socket buffer"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // …then hold the stall long enough to dominate the write span. The
    // stall persists for exactly as long as we refuse to read, so this
    // anchored sleep cannot under-shoot the 100ms assertion below.
    std::thread::sleep(Duration::from_millis(200));
    // Now drain them all, which flushes (and commits) every trace.
    for _ in 0..QUERIES {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.contains("\"ok\": true"), "{reply}");
    }
    let records = wait_records(|rs| rs.len() >= QUERIES);
    let max_write_ns = records
        .iter()
        .map(|r| r.phase_ns(ReqPhase::Write))
        .max()
        .unwrap();
    assert!(
        max_write_ns >= 100_000_000,
        "a stalled reply spends the client's ~450ms sleep in the write \
         phase; max write span was {}ms",
        max_write_ns / 1_000_000
    );
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn dead_connection_commits_an_aborted_trace() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    reqtrace().clear();
    let server = start(
        fan_graph(2),
        ServerOptions {
            workers: 2,
            ..Default::default()
        },
    );
    {
        let mut stream = TcpStream::connect(server.query_addr()).expect("connect");
        stream.write_all(b"!sleep 50\n!sleep 400\n").expect("write");
        // Wait for the first reply's trace to commit — its bytes are in
        // the client's kernel buffer, unread — then drop the stream:
        // closing with unread data makes the OS reset the connection,
        // killing it while the second sleep is still in a worker — that
        // reply has nowhere to go.
        wait_records(|rs| rs.iter().any(|r| r.seq == 0 && !r.aborted));
    }
    let records = wait_records(|rs| rs.iter().any(|r| r.aborted));
    let aborted = records.iter().find(|r| r.aborted).unwrap();
    assert_eq!(aborted.seq, 1, "the 400ms sleep is the orphaned reply");
    assert!(
        aborted.phase_ns(ReqPhase::Exec) >= 300_000_000,
        "the abandoned sleep still ran: {aborted:?}"
    );
    assert!(
        aborted.phases[ReqPhase::Write as usize].is_none(),
        "never reached the write buffer: {aborted:?}"
    );
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}

#[test]
fn trace_endpoint_emits_valid_chrome_json_under_load() {
    let _g = obs_lock();
    frappe_obs::set_level(frappe_obs::ObsLevel::Counters);
    reqtrace().clear();
    let server = start(
        fan_graph(2),
        ServerOptions {
            workers: 4,
            ..Default::default()
        },
    );
    let queries = [HOP; 8];
    let replies = pipeline(&server, &queries, queries.len());
    assert!(replies.iter().all(|r| r.contains("\"ok\": true")));
    wait_records(|rs| rs.len() >= queries.len());

    let (status, body) = http_get(&server, "/trace");
    assert_eq!(status, "HTTP/1.1 200 OK");
    frappe_obs::validate_chrome_trace(&body)
        .unwrap_or_else(|e| panic!("invalid chrome trace ({e}): {body}"));
    assert!(body.contains("\"name\": \"request\""), "{body}");
    assert!(body.contains("\"name\": \"queue\""), "{body}");
    assert!(body.contains("\"name\": \"exec\""), "{body}");
    assert!(body.contains("\"cat\": \"operator\""), "executor ops nest");
    server.shutdown();
    frappe_obs::set_level(frappe_obs::ObsLevel::Off);
}
