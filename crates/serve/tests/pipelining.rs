//! Pipelining-semantics contract for the event core: seq tagging,
//! out-of-order completion, and the draining `!shutdown`.

use frappe_model::{EdgeType, NodeType};
use frappe_serve::{AdmissionOptions, Clock, ServeGraph, Server, ServerOptions, SHUTDOWN_ACK};
use frappe_store::GraphStore;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

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

fn start() -> Server {
    Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            workers: 4,
            ..Default::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

/// Extracts the `"seq"` tag from a reply line.
fn seq_of(line: &str) -> u64 {
    let rest = line
        .split_once("\"seq\": ")
        .unwrap_or_else(|| panic!("reply without seq: {line}"))
        .1;
    rest[..rest.find([',', '}']).expect("number terminator")]
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("bad seq in: {line}"))
}

/// Writes all `lines` up front (pipelined), then reads `n` reply lines.
fn pipeline(server: &Server, lines: &[&str], n: usize) -> (Vec<String>, BufReader<TcpStream>) {
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
    (out, reader)
}

#[test]
fn replies_are_seq_tagged_and_complete() {
    let server = start();
    let queries = [HOP; 16];
    let (replies, _reader) = pipeline(&server, &queries, queries.len());
    let mut seqs: Vec<u64> = replies.iter().map(|r| seq_of(r)).collect();
    for r in &replies {
        assert!(r.starts_with("{\"ok\": true, \"seq\": "), "{r}");
        assert!(r.contains("vfs_read"), "{r}");
    }
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (0..16).collect::<Vec<u64>>(),
        "every seq exactly once"
    );
    server.shutdown();
}

#[test]
fn many_pipelined_connections_all_complete() {
    // One client thread, no thread per connection: every connection is
    // opened and loaded with its whole pipeline before any reply is read,
    // so the event loop holds all of them at once.
    const CONNS: usize = 256;
    const DEPTH: u64 = 4;
    let server = start();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let batch = format!("{HOP}\n").repeat(DEPTH as usize);
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut stream = TcpStream::connect(server.query_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(batch.as_bytes()).expect("write batch");
        conns.push(BufReader::new(stream));
    }
    for (i, reader) in conns.iter_mut().enumerate() {
        let mut seqs = Vec::new();
        for _ in 0..DEPTH {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(reply.starts_with("{\"ok\": true, "), "conn {i}: {reply}");
            seqs.push(seq_of(&reply));
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..DEPTH).collect::<Vec<u64>>(), "conn {i}");
        assert!(
            std::time::Instant::now() < deadline,
            "stalled: {i} of {CONNS} connections answered in time"
        );
    }
    // Every connection is still open, so the ledger counts all of them.
    assert!(
        server.open_conns() >= CONNS as u64,
        "open_conns {}",
        server.open_conns()
    );
    drop(conns);
    server.shutdown();
}

#[test]
fn slow_query_does_not_head_of_line_block() {
    let server = start();
    // seq 0 sleeps 600ms; seq 1 is a point lookup. With a worker pool the
    // lookup's reply must arrive first — out of order, correctly tagged.
    let (replies, _reader) = pipeline(&server, &["!sleep 600", HOP], 2);
    assert_eq!(seq_of(&replies[0]), 1, "fast reply first: {replies:?}");
    assert!(replies[0].contains("\"rows\": 1"), "{}", replies[0]);
    assert_eq!(seq_of(&replies[1]), 0, "slow reply second: {replies:?}");
    assert!(replies[1].contains("\"slept_ms\": 600"), "{}", replies[1]);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_queries_before_ack() {
    let server = start();
    // Two in-flight sleeps, then !shutdown on the same connection: both
    // sleep replies must land before the ack, and the server must stop.
    let (replies, mut reader) = pipeline(&server, &["!sleep 300", "!sleep 300", "!shutdown"], 3);
    let mut seqs: Vec<u64> = replies[..2].iter().map(|r| seq_of(r)).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1], "in-flight queries answered: {replies:?}");
    assert_eq!(replies[2], SHUTDOWN_ACK, "ack only after the drain");
    // After the ack the server closes the connection…
    let mut tail = String::new();
    reader.read_line(&mut tail).expect("read EOF");
    assert!(tail.is_empty(), "clean close after ack, got: {tail}");
    // …and the core threads join.
    server.wait();
}

#[test]
fn external_shutdown_drains_in_flight_queries() {
    // Admission with no limits set admits everything but keeps an exact
    // in-flight ledger, giving this test a race-free dispatch signal
    // instead of a fixed sleep (which flaked on 1-CPU CI).
    let server = Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            workers: 4,
            admission: AdmissionOptions {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind 127.0.0.1:0");
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"!sleep 400\n").expect("write");
    let dispatch_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.admission().inflight() == 0 {
        assert!(
            std::time::Instant::now() < dispatch_deadline,
            "sleep never dispatched"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let handle = std::thread::spawn(move || {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    });
    server.shutdown(); // must block on the drain, not abandon the sleep
    let reply = handle.join().expect("reader thread");
    assert!(reply.contains("\"slept_ms\": 400"), "{reply}");
}

#[test]
fn idle_connections_are_reaped_by_the_event_core() {
    // The idle sweep runs on the options clock: a virtual clock makes the
    // 60s idle budget elapse instantly instead of racing a short real
    // timeout against CI scheduling jitter.
    let clock = Clock::virtual_at(0);
    let server = Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            read_timeout: Duration::from_secs(60),
            clock: clock.clone(),
            ..Default::default()
        },
    )
    .expect("bind");
    let stream = TcpStream::connect(server.query_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Only advance once the loop has registered the connection, so its
    // last-activity stamp predates the jump.
    let register_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.open_conns() == 0 {
        assert!(
            std::time::Instant::now() < register_deadline,
            "connection never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    clock.advance(Duration::from_secs(120));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let started = std::time::Instant::now();
    let n = reader.read_line(&mut line).expect("EOF, not a timeout");
    assert_eq!(n, 0, "idle connection closed by the server");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "reaped promptly, took {:?}",
        started.elapsed()
    );
    server.shutdown();
}
