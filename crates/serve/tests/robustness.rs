//! Adversarial-client robustness, run against BOTH connection cores:
//! partial/chunked writes, oversized lines, and mid-query disconnects.

use frappe_model::{EdgeType, NodeType};
use frappe_serve::{ServeCore, ServeGraph, Server, ServerOptions};
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

const BOTH_CORES: [ServeCore; 2] = [ServeCore::Epoll, ServeCore::Threads];

fn start(core: ServeCore, max_line_bytes: usize) -> Server {
    Server::start(
        call_graph(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ServerOptions {
            core,
            max_line_bytes,
            ..Default::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(!line.is_empty(), "connection closed early");
    line.trim_end().to_owned()
}

#[test]
fn partial_writes_are_reassembled_into_one_query() {
    for core in BOTH_CORES {
        let server = start(core, 256 * 1024);
        let stream = TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // Dribble the query across many small writes with pauses, so the
        // server sees partial reads that do not end in a newline.
        let wire = format!("{HOP}\n");
        for chunk in wire.as_bytes().chunks(7) {
            writer.write_all(chunk).expect("write chunk");
            writer.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        let reply = read_reply(&mut reader);
        assert!(reply.starts_with("{\"ok\": true"), "core {core:?}: {reply}");
        assert!(reply.contains("vfs_read"), "core {core:?}: {reply}");
        server.shutdown();
    }
}

#[test]
fn oversized_line_gets_typed_error_and_conn_survives() {
    for core in BOTH_CORES {
        let server = start(core, 1024);
        let stream = TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let huge = "x".repeat(8 * 1024);
        writer
            .write_all(format!("{huge}\n{HOP}\n").as_bytes())
            .expect("write");
        let first = read_reply(&mut reader);
        assert!(
            first.starts_with("{\"ok\": false"),
            "core {core:?}: {first}"
        );
        assert!(
            first.contains("\"code\": \"line_too_long\""),
            "core {core:?}: {first}"
        );
        assert!(first.contains("\"seq\": 0"), "core {core:?}: {first}");
        // The connection is still usable: the next line is answered normally.
        let second = read_reply(&mut reader);
        assert!(second.contains("\"seq\": 1"), "core {core:?}: {second}");
        assert!(second.contains("vfs_read"), "core {core:?}: {second}");
        server.shutdown();
    }
}

#[test]
fn oversized_line_streamed_without_newline_is_discarded() {
    for core in BOTH_CORES {
        let server = start(core, 1024);
        let stream = TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // Stream 8 KiB with no newline — the cap must trip mid-line, before
        // the terminator ever arrives…
        for _ in 0..8 {
            writer.write_all(&[b'y'; 1024]).expect("write");
            writer.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        // …then finish the junk line and send a real query.
        writer
            .write_all(format!("\n{HOP}\n").as_bytes())
            .expect("write tail");
        let first = read_reply(&mut reader);
        assert!(
            first.contains("\"code\": \"line_too_long\""),
            "core {core:?}: {first}"
        );
        let second = read_reply(&mut reader);
        assert!(second.contains("vfs_read"), "core {core:?}: {second}");
        server.shutdown();
    }
}

#[test]
fn mid_query_disconnect_leaves_server_healthy() {
    for core in BOTH_CORES {
        let server = start(core, 256 * 1024);
        // Disconnect with a query in flight (the reply has nowhere to go)…
        {
            let mut stream = TcpStream::connect(server.query_addr()).expect("connect");
            stream.write_all(b"!sleep 150\n").expect("write");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(30));
        } // drop: RST/FIN while the sleep is still running
          // …and with a half-written line (no newline ever arrives).
        {
            let mut stream = TcpStream::connect(server.query_addr()).expect("connect");
            stream.write_all(b"START n=node").expect("write partial");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(30));
        }
        // Give the abandoned sleep time to complete and be dropped.
        std::thread::sleep(Duration::from_millis(250));
        // The server must still answer new connections normally.
        let stream = TcpStream::connect(server.query_addr()).expect("reconnect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(format!("{HOP}\n").as_bytes())
            .expect("write");
        let reply = read_reply(&mut reader);
        assert!(reply.contains("vfs_read"), "core {core:?}: {reply}");
        server.shutdown();
    }
}

#[test]
fn many_short_lived_connections_are_fine() {
    for core in BOTH_CORES {
        let server = start(core, 256 * 1024);
        for i in 0..40 {
            let stream = TcpStream::connect(server.query_addr()).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            writer
                .write_all(format!("{HOP}\n").as_bytes())
                .expect("write");
            let reply = read_reply(&mut reader);
            assert!(
                reply.contains("vfs_read"),
                "core {core:?} conn {i}: {reply}"
            );
        }
        server.shutdown();
    }
}

#[test]
fn garbage_queries_get_typed_parse_errors_not_disconnects() {
    for core in BOTH_CORES {
        let server = start(core, 256 * 1024);
        let stream = TcpStream::connect(server.query_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(b"THIS IS NOT CYPHER\n\x01\x02\x03 binary junk\n")
            .expect("write");
        // Parsing runs on the workers, so pipelined replies may arrive in
        // either order: check that both came back, once each.
        let mut seqs = Vec::new();
        for _ in 0..2 {
            let reply = read_reply(&mut reader);
            assert!(
                reply.starts_with("{\"ok\": false"),
                "core {core:?}: {reply}"
            );
            assert!(
                reply.contains("\"code\": \"parse_error\""),
                "core {core:?}: {reply}"
            );
            seqs.push(
                (0..2u64)
                    .find(|seq| reply.contains(&format!("\"seq\": {seq}")))
                    .unwrap_or_else(|| panic!("core {core:?}: no seq 0 or 1 in {reply}")),
            );
        }
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1], "core {core:?}");
        // Connection still works after errors.
        writer
            .write_all(format!("{HOP}\n").as_bytes())
            .expect("write");
        let reply = read_reply(&mut reader);
        assert!(reply.contains("vfs_read"), "core {core:?}: {reply}");
        server.shutdown();
    }
}
