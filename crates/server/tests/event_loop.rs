//! Integration tests for the evented TCP transport: receipt-order
//! pipelining, shed tiers, drain behavior (no leaked connection
//! handlers), shard-count response invariance, and the telemetry the
//! shards export.

mod common;

use common::*;
use domatic_server::{Server, ServerConfig};
use domatic_telemetry::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts `serve_tcp` on an ephemeral port; returns the bound address
/// and the serve thread (joined by sending a `shutdown` line).
fn start(server: &Arc<Server>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(server);
    let handle = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    writeln!(stream, "{{\"id\":99999,\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("draining"), "{line}");
    handle.join().unwrap();
}

/// A pipelined workload whose completion order differs from receipt
/// order on purpose: cheap inline ops interleaved with solves of
/// different costs and duplicate keys.
fn pipelined_workload() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..12u64 {
        let id = i + 1;
        let line = match i % 4 {
            0 => format!(
                "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3,\"seed\":{}}}",
                i % 3
            ),
            1 => format!("{{\"id\":{id},\"op\":\"ping\"}}"),
            2 => format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"ring2\",\"b\":2}}"),
            _ => format!(
                "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring2\",\"alg\":\"uniform\",\"b\":2,\"seed\":{}}}",
                i % 2
            ),
        };
        lines.push(line);
    }
    lines
}

#[test]
fn pipelined_requests_answer_in_receipt_order_byte_identically() {
    let cfg = ServerConfig {
        capacity: 16,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    };
    let requests = pipelined_workload();

    // Reference responses: the same lines driven synchronously through
    // handle_line, one at a time, on an identically configured server.
    let reference = {
        let server = make_server(cfg.clone());
        let (buf, sink) = sink();
        for (i, line) in requests.iter().enumerate() {
            server.handle_line(line, &sink);
            wait_lines(&buf, i + 1);
        }
        wait_lines(&buf, requests.len())
    };

    // The evented path: all 12 requests written in one burst on one
    // socket before reading anything back.
    let server = make_server(cfg);
    let (addr, handle) = start(&server);
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut burst = String::new();
    for line in &requests {
        burst.push_str(line);
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut got = Vec::new();
    for _ in 0..requests.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        got.push(line.trim_end().to_string());
    }

    let ids: Vec<u64> = got.iter().map(|l| id_of(l)).collect();
    let want: Vec<u64> = (1..=requests.len() as u64).collect();
    assert_eq!(ids, want, "responses must arrive in receipt order");
    assert_eq!(
        got, reference,
        "pipelined responses must be byte-identical to the synchronous path"
    );
    assert_eq!(server.stats().errors, 0);
    shutdown(addr, handle);
}

#[test]
fn cache_hits_serve_while_misses_shed_at_saturated_capacity() {
    let server = make_server(ServerConfig {
        capacity: 1,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let (buf, sink) = sink();
    let warm = r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#;
    server.handle_line(warm, &sink);
    let warmed = wait_lines(&buf, 1);
    assert!(warmed[0].contains("\"ok\":true"), "{warmed:?}");

    // Saturate the single slot with a slow batch (different key).
    server.handle_line(&slow_solve(2), &sink);
    // A fresh miss (third key) is shed at tier "miss"...
    server.handle_line(r#"{"id":3,"op":"bounds","graph":"ring2","b":2}"#, &sink);
    let responses = wait_lines(&buf, 2);
    let shed = responses.iter().find(|l| id_of(l) == 3).unwrap();
    let v = json::parse(shed).unwrap();
    let error = v.get("error").expect("shed response is an error");
    assert_eq!(
        error.get("kind").and_then(|k| k.as_str()),
        Some("overloaded")
    );
    assert_eq!(
        error.get("shed_tier").and_then(|t| t.as_str()),
        Some("miss"),
        "{shed}"
    );
    // ...while the warmed key still serves from cache, bytes identical
    // to the warming response.
    server.handle_line(warm, &sink);
    let responses = wait_lines(&buf, 3);
    let hits: Vec<&String> = responses.iter().filter(|l| id_of(l) == 1).collect();
    assert_eq!(hits.len(), 2, "cache hit served under saturation");
    assert_eq!(hits[0], hits[1], "hit must be byte-identical");

    server.drain();
    let stats = server.stats();
    assert_eq!(stats.shed_miss, 1);
    assert_eq!(stats.shed_join, 0);
    assert_eq!(stats.overloads, 1);
    assert!(stats.cache_hits >= 1);
}

#[test]
fn severe_waiter_pressure_sheds_even_batch_joins() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        shed_join_waiters: 1,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let (buf, sink) = sink();
    let line = slow_solve(1);
    // The leader opens a batch (1 queued waiter = the threshold) and
    // starts its slow solve...
    server.handle_line(&line, &sink);
    // ...so the identical request can no longer even join.
    server.handle_line(&line, &sink);
    let responses = wait_lines(&buf, 1);
    let v = json::parse(&responses[0]).unwrap();
    let error = v.get("error").expect("join must be shed");
    assert_eq!(
        error.get("shed_tier").and_then(|t| t.as_str()),
        Some("join"),
        "{responses:?}"
    );
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.shed_join, 1);
    assert_eq!(stats.batch_joined, 0);
    assert_eq!(stats.solves, 1, "the leader still solves");
}

#[test]
fn shutdown_closes_idle_connections_and_joins_all_transport_threads() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    });
    let (addr, handle) = start(&server);

    // Idle clients that never send a byte and never disconnect: the
    // pre-evented transport leaked a blocked reader thread per one of
    // these. The evented transport must tear them down on shutdown.
    let mut idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // An active client with in-flight work right at shutdown.
    let active = TcpStream::connect(addr).unwrap();
    let mut active_reader = BufReader::new(active.try_clone().unwrap());
    let mut active = active;
    writeln!(
        active,
        "{{\"id\":5,\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3}}"
    )
    .unwrap();

    // The active client's work completes (so it is committed, not shed,
    // when shutdown arrives)...
    let mut line = String::new();
    active_reader.read_line(&mut line).unwrap();
    assert_eq!(id_of(&line), 5);
    assert!(line.contains("\"ok\":true"), "{line}");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections < 5 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }

    shutdown(addr, handle); // joins the serve thread (and its shards)

    // Every idle socket got closed by the server: reads see EOF.
    for stream in &mut idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(
            stream.read(&mut byte).unwrap_or(0),
            0,
            "idle connection must be closed on shutdown"
        );
    }
    assert_eq!(
        server.stats().connections,
        0,
        "no connection outlives serve_tcp"
    );
}

#[test]
fn responses_are_byte_identical_across_shard_counts() {
    let run = |shards: usize| -> Vec<String> {
        let server = make_server(ServerConfig {
            capacity: 16,
            cache_bytes: 1 << 20,
            shards,
            ..ServerConfig::default()
        });
        let (addr, handle) = start(&server);
        let requests = pipelined_workload();
        // Spread the same workload across 3 connections (different
        // shards when sharded) and collect every response.
        let mut all: Vec<String> = Vec::new();
        let mut clients = Vec::new();
        for chunk in requests.chunks(4) {
            let chunk: Vec<String> = chunk.to_vec();
            clients.push(std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                for line in &chunk {
                    writeln!(stream, "{line}").unwrap();
                }
                stream.flush().unwrap();
                let mut got = Vec::new();
                for _ in 0..chunk.len() {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    got.push(line.trim_end().to_string());
                }
                got
            }));
        }
        for c in clients {
            all.extend(c.join().unwrap());
        }
        shutdown(addr, handle);
        all.sort();
        all
    };
    assert_eq!(
        run(1),
        run(4),
        "response bytes must not depend on the shard count"
    );
}

#[test]
fn metrics_scrape_reports_connection_gauge_and_shard_queue_depth() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    });
    let (addr, handle) = start(&server);
    // Three live connections, one of which does a solve (so the depth
    // histogram has recorded on a nonzero path too).
    let _idle_a = TcpStream::connect(addr).unwrap();
    let _idle_b = TcpStream::connect(addr).unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    writeln!(
        stream,
        "{{\"id\":1,\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3}}"
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections < 3 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    // Each shard records its queue depth once per loop pass; rescrape
    // until both shards have reported (bounded).
    let text = loop {
        let text = server.metrics_text();
        if text.contains("server_shard_queue_depth_bucket{shard=\"0\",le=")
            && text.contains("server_shard_queue_depth_bucket{shard=\"1\",le=")
        {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "shard depth series missing:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    domatic_telemetry::prometheus::parse_snapshot(&text).expect("exposition must parse back");
    // The gauge is global (shared registry), so other concurrently
    // running tests may have moved it; this server's own view is exact.
    assert!(
        text.contains("server_connections"),
        "missing connections gauge:\n{text}"
    );
    assert_eq!(server.stats().connections, 3);
    assert!(
        text.contains("server_shard_queue_depth_count{shard=\"0\"}"),
        "missing depth count:\n{text}"
    );
    shutdown(addr, handle);
}
