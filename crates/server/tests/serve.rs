//! Integration tests for the serve runtime: batching fan-out, cache
//! identity, deadlines, backpressure, drain, and the TCP transport.
//!
//! Most tests drive `handle_line` directly with an in-memory sink — the
//! transport loops are thin wrappers around it — and one test runs the
//! real TCP path end to end. Tests that need a batch held open send a
//! solve that is slow on its own (`slow_solve`).

mod common;

use common::*;
use domatic_server::{Server, ServerConfig};
use domatic_telemetry::json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex};

#[test]
fn batched_duplicates_run_exactly_one_solve_and_fan_out_identically() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let (buf, sink) = sink();
    // The three duplicates arrive while the first request's solve runs.
    for id in 1..=4u64 {
        assert!(!server.handle_line(&slow_solve(id), &sink));
    }
    let responses = wait_lines(&buf, 4);
    let mut ids: Vec<u64> = responses.iter().map(|l| id_of(l)).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4]);
    let payloads: Vec<String> = responses.iter().map(|l| result_of(l)).collect();
    for p in &payloads[1..] {
        assert_eq!(*p, payloads[0], "fan-out must be byte-identical");
    }
    let stats = server.stats();
    assert_eq!(stats.solves, 1, "4 coalesced requests, 1 underlying solve");
    assert_eq!(stats.batch_joined, 3);
    assert_eq!(stats.cache_misses, 1, "joiners never count as misses");
}

#[test]
fn a_duplicate_arriving_mid_solve_joins_it_instead_of_solving_again() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let log = Arc::new(Mutex::new(Vec::new()));
    server.set_access_log(Box::new(SharedLog(Arc::clone(&log))));
    let (buf, sink) = sink();
    server.handle_line(&slow_solve(1), &sink);
    wait_until("the leader's solve_start", || {
        String::from_utf8_lossy(&log.lock().unwrap()).contains(r#""event":"solve_start""#)
    });
    let before = server.stats();
    assert_eq!(before.solves, 0, "the leader's solve is still running");
    server.handle_line(&slow_solve(2), &sink);
    let responses = wait_lines(&buf, 2);

    let after = server.stats();
    assert_eq!(after.solves, 1, "the duplicate must not solve again");
    assert_eq!(
        (after.batch_joined + after.cache_hits) - (before.batch_joined + before.cache_hits),
        1,
        "{after:?}"
    );
    let payload_of = |id: u64| result_of(responses.iter().find(|l| id_of(l) == id).unwrap());
    assert_eq!(
        payload_of(1),
        payload_of(2),
        "fan-out must be byte-identical"
    );

    // The joiner is charged only the part of the solve it waited for.
    // Its ring record lands after its response, before the job releases
    // its in-flight slot.
    wait_until("the job to finish", || server.stats().inflight == 0);
    server.handle_line(r#"{"id":99,"op":"profile"}"#, &sink);
    let responses = wait_lines(&buf, 3);
    let profile = json::parse(&result_of(
        responses.iter().find(|l| id_of(l) == 99).unwrap(),
    ))
    .unwrap();
    let Some(json::Json::Arr(ring)) = profile.get("ring") else {
        panic!("ring must be an array: {profile:?}");
    };
    let field = |id: i128, name: &str| {
        let rec = ring
            .iter()
            .find(|r| r.get("id").and_then(|i| i.as_int()) == Some(id))
            .unwrap_or_else(|| panic!("no ring record for id {id}: {ring:?}"));
        rec.get(name).and_then(|v| v.as_int()).unwrap()
    };
    assert_eq!(
        field(2, "queue_us") + field(2, "solve_us") + field(2, "render_us"),
        field(2, "total_us"),
        "phases partition the joiner's total: {ring:?}"
    );
    assert!(
        field(2, "solve_us") < field(1, "solve_us"),
        "the joiner arrived after the solve began: {ring:?}"
    );
}

#[test]
fn concurrent_identical_requests_solve_each_key_once() {
    const KEYS: u64 = 4;
    const THREADS: u64 = 8;
    let server = make_server(ServerConfig {
        capacity: 64,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (server, sink, barrier) = (&server, &sink, &barrier);
            s.spawn(move || {
                for key in 0..KEYS {
                    // Every thread sends this key's line at once.
                    barrier.wait();
                    let id = key * 100 + t;
                    server.handle_line(
                        &format!("{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring2\",\"alg\":\"greedy\",\"b\":3,\"seed\":{key}}}"),
                        sink,
                    );
                }
            });
        }
    });
    let responses = wait_lines(&buf, (KEYS * THREADS) as usize);
    assert_eq!(server.stats().solves, KEYS, "{:?}", server.stats());
    for key in 0..KEYS {
        let payloads: Vec<String> = responses
            .iter()
            .filter(|l| id_of(l) / 100 == key)
            .map(|l| result_of(l))
            .collect();
        assert_eq!(payloads.len(), THREADS as usize);
        assert!(
            payloads.iter().all(|p| *p == payloads[0]),
            "key {key} answered with different bytes"
        );
    }
}

#[test]
fn cached_response_is_byte_identical_to_the_uncached_one() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    let line = r#"{"id":9,"op":"solve","graph":"ring","alg":"uniform","b":2,"seed":5,"trials":4}"#;
    server.handle_line(line, &sink);
    let first = wait_lines(&buf, 1)[0].clone();
    server.handle_line(line, &sink);
    let both = wait_lines(&buf, 2);
    assert_eq!(both[1], first, "cache hit must replay the exact bytes");
    let stats = server.stats();
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn batched_and_unbatched_servers_render_the_same_bytes() {
    // Same request twice through one server, the second joining the
    // first one's solve, and once through a cold server: the payload
    // must not depend on either.
    let req = slow_solve(1);
    let batching = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&batching);
    let (buf_a, sink_a) = sink();
    batching.handle_line(&req, &sink_a);
    batching.handle_line(&req, &sink_a);
    let batched = wait_lines(&buf_a, 2);

    let cold = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&cold);
    let (buf_b, sink_b) = sink();
    cold.handle_line(&req, &sink_b);
    let unbatched = wait_lines(&buf_b, 1);

    assert_eq!(batched[0], unbatched[0]);
    assert_eq!(batched[1], unbatched[0]);
    assert_eq!(batching.stats().solves, 1);
    assert_eq!(cold.stats().solves, 1);
}

#[test]
fn expired_deadline_gets_a_typed_error_and_the_server_keeps_serving() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    // deadline_ms 0 expires the moment the job is dequeued.
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","b":3,"deadline_ms":0}"#,
        &sink,
    );
    let first = wait_lines(&buf, 1);
    assert_eq!(error_kind(&first[0]), "deadline");

    // The expired request skipped its solve entirely…
    assert_eq!(server.stats().solves, 0);
    assert_eq!(server.stats().deadline_expired, 1);

    // …and the server still serves the next request normally.
    server.handle_line(r#"{"id":2,"op":"solve","graph":"ring","b":3}"#, &sink);
    let both = wait_lines(&buf, 2);
    assert!(both[1].contains("\"ok\":true"), "{}", both[1]);
}

#[test]
fn admission_beyond_capacity_is_a_typed_overloaded_error() {
    let server = make_server(ServerConfig {
        capacity: 1,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let (buf, sink) = sink();
    // First request occupies the single in-flight slot for its whole
    // slow solve.
    server.handle_line(&slow_solve(1), &sink);
    // A different key cannot join the open batch and must be rejected
    // synchronously at admission.
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","b":3,"seed":77}"#,
        &sink,
    );
    // An identical key coalesces instead of being rejected.
    server.handle_line(&slow_solve(3), &sink);

    let responses = wait_lines(&buf, 3);
    let overloaded: Vec<&String> = responses
        .iter()
        .filter(|l| l.contains("\"ok\":false"))
        .collect();
    assert_eq!(overloaded.len(), 1);
    assert_eq!(id_of(overloaded[0]), 2);
    assert_eq!(error_kind(overloaded[0]), "overloaded");
    assert_eq!(server.stats().overloads, 1);
    assert_eq!(server.stats().batch_joined, 1);
}

#[test]
fn bounds_and_adapt_ops_serve_and_cache() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    let bounds = r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#;
    server.handle_line(bounds, &sink);
    // Wait for the first result to land in the cache before duplicating,
    // so the duplicate is a guaranteed hit (not a batch join).
    wait_lines(&buf, 1);
    server.handle_line(bounds, &sink);
    let adapt = r#"{"id":2,"op":"adapt","graph":"ring","alg":"greedy","b":3,"failures":"crash","p":0.05,"slots":200}"#;
    server.handle_line(adapt, &sink);
    let responses = wait_lines(&buf, 3);
    for line in &responses {
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    let bounds_payload = responses
        .iter()
        .find(|l| id_of(l) == 1)
        .map(|l| result_of(l))
        .unwrap();
    let v = json::parse(&bounds_payload).unwrap();
    assert!(v.get("general").unwrap().as_int().unwrap() > 0);
    let adapt_payload = responses
        .iter()
        .find(|l| id_of(l) == 2)
        .map(|l| result_of(l))
        .unwrap();
    let v = json::parse(&adapt_payload).unwrap();
    assert!(v.get("planned").unwrap().as_int().unwrap() > 0);
    assert!(server.stats().cache_hits >= 1, "duplicate bounds must hit");
}

#[test]
fn bad_requests_get_typed_errors_without_occupying_capacity() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"solve","graph":"nope","b":3}"#, &sink);
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"nope"}"#,
        &sink,
    );
    // 100,000 levels of nesting: a typed error at the parser's depth cap,
    // not a stack overflow that takes the process down.
    server.handle_line(&"[".repeat(100_000), &sink);
    server.handle_line("garbage", &sink);
    let responses = wait_lines(&buf, 4);
    let mut kinds: Vec<String> = responses.iter().map(|l| error_kind(l)).collect();
    kinds.sort();
    assert_eq!(
        kinds,
        vec![
            "bad_request",
            "bad_request",
            "unknown_graph",
            "unknown_solver"
        ]
    );
    assert!(
        responses
            .iter()
            .any(|l| l.contains("nesting deeper than 128 at byte 128")),
        "{responses:?}"
    );
    assert_eq!(server.stats().errors, 4);
    assert_eq!(server.stats().inflight, 0);
    assert_eq!(server.stats().solves, 0);
}

#[test]
fn hops_request_serves_valid_d_hop_schedules_and_adapt_rejects_it() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"hops":2}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":3,"op":"adapt","graph":"ring","alg":"greedy","b":3,"failures":"iid","p":0.1,"slots":4,"hops":2}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 3);

    // The hops>1 refusal is a typed `config` error carried on the wire
    // (the solver configuration is unsupported for `adapt`), not a
    // generic bad request.
    let adapt_line = responses.iter().find(|l| id_of(l) == 3).unwrap();
    assert_eq!(error_kind(adapt_line), "config");
    assert!(
        adapt_line.contains("adapt does not support hops > 1"),
        "{adapt_line}"
    );

    let payload_2hop = result_of(responses.iter().find(|l| id_of(l) == 1).unwrap());
    let payload_1hop = result_of(responses.iter().find(|l| id_of(l) == 2).unwrap());
    assert_ne!(
        payload_2hop, payload_1hop,
        "hops must participate in the solve, not just the cache key"
    );

    // Every slot of the 2-hop response must be a 2-hop dominating set of
    // the *original* ring — the server solves on the power graph but the
    // schedule is stated in terms of base-graph nodes.
    let g = ring_graph(24);
    let v = json::parse(&payload_2hop).unwrap();
    assert!(v.get("lifetime").unwrap().as_int().unwrap() > 0);
    let Some(json::Json::Arr(entries)) = v.get("schedule") else {
        panic!("missing schedule array: {payload_2hop}");
    };
    assert!(!entries.is_empty());
    for entry in entries {
        let json::Json::Arr(pair) = entry else {
            panic!("entry is not [duration, nodes]: {entry:?}");
        };
        let json::Json::Arr(nodes) = &pair[1] else {
            panic!("nodes is not an array: {entry:?}");
        };
        let set = domatic_graph::NodeSet::from_iter(
            g.n(),
            nodes
                .iter()
                .map(|x| u32::try_from(x.as_int().unwrap()).unwrap()),
        );
        assert!(
            domatic_graph::domination::is_d_hop_dominating_set(&g, &set, 2),
            "slot is not 2-hop dominating: {nodes:?}"
        );
    }
}

#[test]
fn default_solver_responses_are_pinned_byte_for_byte() {
    // These are the exact bytes the server produced for default-solver
    // requests BEFORE the budget-aware Solver redesign (captured from the
    // seed build). The redesign must not change a single byte of them:
    // cached entries written by an old process must replay identically,
    // and clients diff responses across versions.
    let pins = [
        (
            r#"{"id":1,"op":"solve","graph":"ring","b":3}"#,
            r#"{"id":1,"ok":true,"result":{"alg":"uniform","b":3,"bound":15,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"lifetime":3,"n":24,"schedule":[[3,[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23]]],"seed":0,"steps":1,"tolerance":1,"trials":8}}"#,
        ),
        (
            r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":2,"seed":4,"trials":3}"#,
            r#"{"id":2,"ok":true,"result":{"alg":"greedy","b":2,"bound":10,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"lifetime":6,"n":24,"schedule":[[2,[0,5,10,14,15,19]],[2,[1,6,11,16,17,20]],[2,[2,7,12,13,18,21]]],"seed":4,"steps":3,"tolerance":1,"trials":3}}"#,
        ),
        (
            r#"{"id":3,"op":"bounds","graph":"ring","b":3}"#,
            r#"{"id":3,"ok":true,"result":{"b":3,"ft":15,"general":15,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"m":48,"n":24,"uniform":15}}"#,
        ),
    ];
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    for (req, _) in &pins {
        server.handle_line(req, &sink);
    }
    let responses = wait_lines(&buf, pins.len());
    for (req, want) in &pins {
        let got = responses
            .iter()
            .find(|l| id_of(l) == id_of(want))
            .unwrap_or_else(|| panic!("no response for {req}"));
        assert_eq!(got, want, "response bytes drifted for {req}");
    }
}

#[test]
fn solver_alias_and_budget_ms_drive_the_anytime_solvers() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    // The anytime solvers are reachable through the new `solver` field…
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","solver":"portfolio","b":3,"trials":2}"#,
        &sink,
    );
    // …and the greedy row they must never lose to.
    server.handle_line(
        r#"{"id":3,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 3);
    let lifetime_of = |id: u64| {
        let line = responses.iter().find(|l| id_of(l) == id).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        json::parse(&result_of(line))
            .unwrap()
            .get("lifetime")
            .unwrap()
            .as_int()
            .unwrap()
    };
    let greedy = lifetime_of(3);
    assert!(lifetime_of(1) >= greedy, "tabu lost to greedy");
    assert!(lifetime_of(2) >= greedy, "portfolio lost to greedy");

    // `budget_ms` is part of the solve identity: the same request with
    // and without a budget may not share a cache entry.
    let solves_before = server.stats().solves;
    server.handle_line(
        r#"{"id":4,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2}"#,
        &sink,
    );
    wait_lines(&buf, 4);
    assert_eq!(
        server.stats().solves,
        solves_before,
        "exact repeat must hit"
    );
    server.handle_line(
        r#"{"id":5,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2,"budget_ms":10000}"#,
        &sink,
    );
    wait_lines(&buf, 5);
    assert_eq!(
        server.stats().solves,
        solves_before + 1,
        "budgeted request must key its own solve"
    );
}

#[test]
fn unknown_solver_names_are_rejected_typed_via_either_field() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","solver":"quantum"}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","solver":"tabu"}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 2);
    let kind_of = |id: u64| error_kind(responses.iter().find(|l| id_of(l) == id).unwrap());
    assert_eq!(kind_of(1), "unknown_solver");
    assert_eq!(kind_of(2), "bad_request", "alg/solver disagreement");
    assert_eq!(server.stats().solves, 0);
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    add_slow_graph(&server);
    let (buf, sink) = sink();
    server.handle_line(&slow_solve(1), &sink);
    assert!(server.handle_line(r#"{"id":2,"op":"shutdown"}"#, &sink));
    // Admission is closed from the moment shutdown was seen.
    server.handle_line(
        r#"{"id":3,"op":"solve","graph":"ring","b":3,"seed":9}"#,
        &sink,
    );
    server.drain();
    let responses = wait_lines(&buf, 3);
    assert_eq!(server.stats().inflight, 0);
    let in_flight_done = responses
        .iter()
        .any(|l| id_of(l) == 1 && l.contains("\"ok\":true"));
    assert!(
        in_flight_done,
        "in-flight work completes during drain: {responses:?}"
    );
    let rejected = responses
        .iter()
        .find(|l| id_of(l) == 3)
        .expect("post-shutdown request answered");
    assert_eq!(error_kind(rejected), "shutting_down");
}

#[test]
fn tcp_transport_serves_concurrent_mixed_clients_end_to_end() {
    let server = make_server(ServerConfig {
        capacity: 16,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let serve_thread = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let mut clients = Vec::new();
    for c in 0..4u64 {
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let n = 6u64;
            for i in 0..n {
                // A mixed pipelined workload with deliberate duplicates
                // across clients (seed i % 2).
                let id = c * 100 + i;
                let line = if i % 3 == 0 {
                    format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"ring\",\"b\":3}}")
                } else {
                    format!(
                        "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring2\",\"alg\":\"greedy\",\"b\":2,\"seed\":{}}}",
                        i % 2
                    )
                };
                writeln!(stream, "{line}").unwrap();
            }
            stream.flush().unwrap();
            let mut got = Vec::new();
            for _ in 0..n {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("\"ok\":true"), "{line}");
                got.push(id_of(&line));
            }
            got.sort_unstable();
            let want: Vec<u64> = (0..n).map(|i| c * 100 + i).collect();
            assert_eq!(got, want, "every pipelined request answered exactly once");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.errors, 0);
    assert!(
        stats.cache_hits + stats.batch_joined > 0,
        "duplicates must coalesce or hit: {stats:?}"
    );
    assert!(
        stats.solves < 24,
        "24 requests must not mean 24 solves: {stats:?}"
    );

    // Shut the server down over the wire and join the serve loop.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    writeln!(stream, "{{\"id\":999,\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("draining"), "{line}");
    serve_thread.join().unwrap();
}

#[test]
fn stats_op_reports_counters_inline() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"ping"}"#, &sink);
    server.handle_line(r#"{"id":2,"op":"stats"}"#, &sink);
    let responses = wait_lines(&buf, 2);
    assert!(responses[0].contains("\"pong\":true"));
    // The exact 17-key payload, in its fixed (alphabetical) order.
    assert_eq!(
        result_of(&responses[1]),
        concat!(
            r#"{"batch_joined":0,"cache_bytes":0,"cache_entries":0,"cache_evictions":0,"#,
            r#""cache_hits":0,"cache_misses":0,"connections":0,"deadline_expired":0,"#,
            r#""errors":0,"inflight":0,"lineage_invalidations":0,"mutations":0,"#,
            r#""overloads":0,"requests":2,"shed_join":0,"shed_miss":0,"solves":0}"#,
        )
    );
}

#[test]
fn access_log_traces_the_lifecycle_without_changing_response_bytes() {
    let requests = [
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":41}"#,
        r#"{"id":2,"op":"bounds","graph":"ring","b":3,"k":2}"#,
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":41}"#, // cache hit
        r#"{"id":3,"op":"solve","graph":"nope","b":3}"#,                          // shed
    ];
    let run = |with_log: bool| -> (Vec<String>, Vec<String>) {
        let server = make_server(ServerConfig {
            capacity: 8,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        });
        let log_buf = Arc::new(Mutex::new(Vec::new()));
        if with_log {
            server.set_access_log(Box::new(SharedLog(Arc::clone(&log_buf))));
        }
        let (buf, sink) = sink();
        for (i, line) in requests.iter().enumerate() {
            server.handle_line(line, &sink);
            if i < 2 {
                // Let the first two land (the third must be a cache hit).
                wait_lines(&buf, i + 1);
            }
        }
        let mut responses = wait_lines(&buf, requests.len());
        responses.sort();
        let log_lines: Vec<String> = String::from_utf8(log_buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (responses, log_lines)
    };

    let (traced, log) = run(true);
    let (untraced, no_log) = run(false);
    // The tracing-never-changes-response-bytes invariant.
    assert_eq!(
        traced, untraced,
        "responses must be byte-identical with tracing on vs off"
    );
    assert!(no_log.is_empty());
    assert!(!log.is_empty(), "access log captured events");

    // Every log line is valid JSON; timestamps are monotone per trace.
    let mut last_t: std::collections::HashMap<i128, i128> = std::collections::HashMap::new();
    let mut events_seen = std::collections::HashSet::new();
    for line in &log {
        let v = json::parse(line).unwrap_or_else(|e| panic!("invalid log line {line}: {e}"));
        let trace = v.get("trace").and_then(|t| t.as_int()).unwrap();
        let t_us = v.get("t_us").and_then(|t| t.as_int()).unwrap();
        let prev = last_t.insert(trace, t_us).unwrap_or(0);
        assert!(
            t_us >= prev,
            "timestamps regress within trace {trace}: {line}"
        );
        events_seen.insert(v.get("event").and_then(|e| e.as_str()).unwrap().to_string());
    }
    for required in [
        "received",
        "admitted",
        "cache_miss",
        "cache_hit",
        "solve_start",
        "solve_end",
        "rendered",
        "written",
        "shed",
    ] {
        assert!(
            events_seen.contains(required),
            "missing event {required}: {log:?}"
        );
    }
    // `bounds` runs no solver, so its `received` event names none.
    assert!(
        log.iter()
            .any(|l| l.starts_with(r#"{"alg":"","event":"received""#)
                && l.contains(r#""op":"bounds""#)),
        "bounds received event: {log:?}"
    );
    // No trace id ever appears in a response line.
    for line in &traced {
        assert!(
            !line.contains("\"trace\""),
            "trace leaked into response: {line}"
        );
    }
}

#[test]
fn metrics_op_returns_valid_prometheus_exposition() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":7}"#,
        &sink,
    );
    wait_lines(&buf, 1);
    server.handle_line(r#"{"id":2,"op":"metrics"}"#, &sink);
    let responses = wait_lines(&buf, 2);
    let metrics_line = responses.iter().find(|l| id_of(l) == 2).unwrap();
    let v = json::parse(&result_of(metrics_line)).unwrap();
    let text = v.get("exposition").and_then(|e| e.as_str()).unwrap();

    // The exposition parses and contains the required series. The
    // telemetry registry is process-global (shared across tests in this
    // binary), so assertions are existence/at-least, never equality.
    let samples = domatic_telemetry::prometheus::parse(text).expect("valid exposition");
    let value_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    };
    assert!(value_of("server_requests_total").is_some_and(|v| v >= 2.0));
    assert!(value_of("runtime_cache_bytes").is_some_and(|v| v > 0.0));
    assert!(value_of("server_cache_entries").is_some_and(|v| v >= 1.0));
    assert!(
        samples
            .iter()
            .any(|s| s.name == "server_request_latency_us_bucket"
                && s.label("op") == Some("solve")
                && s.label("le").is_some()),
        "per-op latency histogram buckets present"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "server_solve_latency_us_count"
                && s.label("alg") == Some("greedy")
                && s.label("graph") == Some("ring")),
        "per-solver/per-graph latency histogram present"
    );
    // And the full text round-trips through the snapshot parser.
    let snap = domatic_telemetry::prometheus::parse_snapshot(text).unwrap();
    assert!(snap.counters.contains_key("server_requests"));
}

#[test]
fn bounds_traffic_feeds_no_solve_latency_series() {
    // The telemetry registry is process-global: a graph name no other
    // test uses keeps their solves out of this assertion.
    let graph = "bounds_only_probe";
    let server = Server::new(ServerConfig::default());
    server.add_graph(graph, ring_graph(12));
    let server = Arc::new(server);
    let (buf, sink) = sink();
    let line = format!("{{\"id\":1,\"op\":\"bounds\",\"graph\":\"{graph}\",\"b\":3}}");
    server.handle_line(&line, &sink);
    assert!(wait_lines(&buf, 1)[0].contains("\"ok\":true"));
    let samples = domatic_telemetry::prometheus::parse(&server.metrics_text()).unwrap();
    assert!(
        samples
            .iter()
            .any(|s| s.name == "server_request_latency_us_count" && s.label("op") == Some("bounds")),
        "bounds requests are still timed end to end"
    );
    let solve_series: Vec<_> = samples
        .iter()
        .filter(|s| {
            s.name.starts_with("server_solve_latency_us") && s.label("graph") == Some(graph)
        })
        .collect();
    assert!(
        solve_series.is_empty(),
        "bounds runs no solver: {solve_series:?}"
    );
}

#[test]
fn profile_op_reports_the_trace_ring() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        trace_ring: 4,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    for seed in 0..3 {
        let line = format!(
            "{{\"id\":{seed},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3,\"seed\":{seed}}}"
        );
        server.handle_line(&line, &sink);
    }
    server.handle_line(r#"{"id":3,"op":"bounds","graph":"ring","b":3}"#, &sink);
    wait_lines(&buf, 4);
    server.handle_line(r#"{"id":99,"op":"profile"}"#, &sink);
    let responses = wait_lines(&buf, 5);
    let profile_line = responses.iter().find(|l| id_of(l) == 99).unwrap();
    let v = json::parse(&result_of(profile_line)).unwrap();
    let ring = match v.get("ring") {
        Some(json::Json::Arr(items)) => items,
        other => panic!("ring must be an array: {other:?}"),
    };
    assert_eq!(ring.len(), 4, "one completed record per request");
    for rec in ring {
        // `bounds` runs no solver, so its record names none.
        let op = rec.get("op").and_then(|o| o.as_str()).unwrap();
        let alg = rec.get("alg").and_then(|a| a.as_str()).unwrap();
        match op {
            "solve" => assert_eq!(alg, "greedy"),
            "bounds" => assert_eq!(alg, ""),
            other => panic!("unexpected op {other}"),
        }
        assert_eq!(rec.get("outcome").and_then(|o| o.as_str()), Some("ok"));
        let total = rec.get("total_us").and_then(|t| t.as_int()).unwrap();
        let queue = rec.get("queue_us").and_then(|t| t.as_int()).unwrap();
        let solve = rec.get("solve_us").and_then(|t| t.as_int()).unwrap();
        let render = rec.get("render_us").and_then(|t| t.as_int()).unwrap();
        assert!(
            queue + solve + render <= total + 1,
            "phases partition total: {rec:?}"
        );
    }
    assert!(v.get("spans").is_some());
}

#[test]
fn slow_request_threshold_dumps_lifecycles_to_the_access_log() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        slow_ms: Some(0), // everything is an outlier
        ..ServerConfig::default()
    });
    let log_buf = Arc::new(Mutex::new(Vec::new()));
    server.set_access_log(Box::new(SharedLog(Arc::clone(&log_buf))));
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#, &sink);
    wait_lines(&buf, 1);
    let text = String::from_utf8(log_buf.lock().unwrap().clone()).unwrap();
    let slow: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"slow_request\""))
        .collect();
    assert_eq!(slow.len(), 1, "{text}");
    let v = json::parse(slow[0]).unwrap();
    let events = match v.get("events") {
        Some(json::Json::Arr(e)) => e.len(),
        other => panic!("events must be an array: {other:?}"),
    };
    assert!(events >= 3, "lifecycle dump carries the event list");
}
