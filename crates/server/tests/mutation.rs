//! Integration tests for the dynamic-graph surface: the `mutate` op's
//! wire shape, per-op equivalence (a solve after a mutation is an
//! ordinary cache-miss solve, byte-identical to a solve of the same
//! content registered fresh), and the cache's lineage-invalidation
//! invariant — a mutation retires exactly its own superseded version,
//! never a sibling graph's entries, and the cache never holds an entry
//! keyed by a superseded hash (property-tested over random mutation
//! sequences).

mod common;

use common::*;
use domatic_core::{graph_hash, versioned_graph_hash};
use domatic_graph::Graph;
use domatic_server::{Server, ServerConfig};
use domatic_telemetry::json;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Edge list of a graph as sorted (min, max) pairs — for building
/// expected mutated topologies by hand.
fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..g.n() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges.sort_unstable();
    edges
}

fn server_with(graphs: &[(&str, Graph)]) -> Arc<Server> {
    let server = Server::new(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    for (name, g) in graphs {
        server.add_graph(name.to_string(), g.clone());
    }
    Arc::new(server)
}

fn is_ok(line: &str) -> bool {
    let v = json::parse(line).unwrap();
    v.get("ok") == Some(&json::Json::Bool(true))
}

/// Sends one request line and returns its (single) response. Mutations
/// respond inline but solves are asynchronous, so this drives a fresh
/// sink per call and waits.
fn roundtrip(server: &Arc<Server>, line: &str) -> String {
    let (buf, s) = sink();
    server.handle_line(line, &s);
    wait_lines(&buf, 1)[0].clone()
}

fn solve_line(id: u64, graph: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"greedy\",\"b\":3,\"seed\":0}}")
}

#[test]
fn mutate_response_shape_is_pinned() {
    let server = server_with(&[("ring", ring_graph(24))]);
    let parent = graph_hash(&ring_graph(24));
    let mut expected_edges = edge_list(&ring_graph(24));
    expected_edges.retain(|&e| e != (2, 3));
    let mutated = Graph::from_edges(24, &expected_edges);
    let line = roundtrip(
        &server,
        r#"{"id":7,"op":"mutate","graph":"ring","action":"remove_edge","u":2,"v":3}"#,
    );
    assert_eq!(
        line,
        format!(
            "{{\"id\":7,\"ok\":true,\"result\":{{\"action\":\"remove_edge\",\"graph\":\"ring\",\"graph_hash\":\"{:016x}\",\"m\":{},\"n\":24,\"parent_hash\":\"{parent:016x}\",\"version\":1}}}}",
            graph_hash(&mutated),
            mutated.m()
        )
    );
    assert_eq!(
        server.graph_lineage("ring").unwrap(),
        (graph_hash(&mutated), 1)
    );
}

#[test]
fn rejected_mutation_leaves_lineage_and_stats_unchanged() {
    let server = server_with(&[("ring", ring_graph(24))]);
    let before = server.graph_lineage("ring").unwrap();
    // (0, 2) is not an edge of the ring, so removing it must fail.
    let line = roundtrip(
        &server,
        r#"{"id":3,"op":"mutate","graph":"ring","action":"remove_edge","u":0,"v":2}"#,
    );
    assert_eq!(error_kind(&line), "bad_request");
    assert_eq!(server.graph_lineage("ring").unwrap(), before);
    let stats = server.stats();
    assert_eq!(stats.mutations, 0, "rejected mutations do not count");
    assert_eq!(stats.lineage_invalidations, 0);
    // Unknown graphs get the typed unknown_graph error, same as solve.
    let line = roundtrip(
        &server,
        r#"{"id":4,"op":"mutate","graph":"ghost","action":"add_edge","u":0,"v":2}"#,
    );
    assert_eq!(error_kind(&line), "unknown_graph");
}

/// The equivalence guarantee, per mutation op: mutate a served graph,
/// solve it, and require the response bytes to equal a fresh server's
/// solve of the same content registered fresh. The post-mutation solve
/// is an ordinary cache miss: its trace carries exactly the plain
/// miss lifecycle, nothing mutation-specific.
#[test]
fn post_mutation_solves_equal_fresh_registrations_for_every_op() {
    let base = ring_graph(24);
    let base_edges = edge_list(&base);

    // (mutate request body, expected mutated graph, battery overrides)
    let mut cases: Vec<(&str, Graph, BTreeMap<u32, u64>)> = Vec::new();
    let mut with_added = base_edges.clone();
    with_added.push((0, 12));
    cases.push((
        r#""action":"add_edge","u":0,"v":12"#,
        Graph::from_edges(24, &with_added),
        BTreeMap::new(),
    ));
    let mut with_removed = base_edges.clone();
    with_removed.retain(|&e| e != (2, 3));
    cases.push((
        r#""action":"remove_edge","u":2,"v":3"#,
        Graph::from_edges(24, &with_removed),
        BTreeMap::new(),
    ));
    let mut with_node = base_edges.clone();
    with_node.extend([(0, 24), (5, 24)]);
    cases.push((
        r#""action":"add_node","neighbors":[0,5]"#,
        Graph::from_edges(25, &with_node),
        BTreeMap::new(),
    ));
    // Removing node 3 compacts every id above it down by one.
    let compacted: Vec<(u32, u32)> = base_edges
        .iter()
        .filter(|&&(u, v)| u != 3 && v != 3)
        .map(|&(u, v)| (u - u32::from(u > 3), v - u32::from(v > 3)))
        .collect();
    cases.push((
        r#""action":"remove_node","node":3"#,
        Graph::from_edges(23, &compacted),
        BTreeMap::new(),
    ));
    cases.push((
        r#""action":"set_battery","node":7,"value":1"#,
        base.clone(),
        BTreeMap::from([(7u32, 1u64)]),
    ));

    for (body, expected_graph, overrides) in cases {
        // Server A: register, solve, mutate, solve again.
        let a = server_with(&[("g", base.clone())]);
        let log = Arc::new(Mutex::new(Vec::new()));
        a.set_access_log(Box::new(SharedLog(Arc::clone(&log))));
        assert!(is_ok(&roundtrip(&a, &solve_line(1, "g"))));
        let mutate = roundtrip(
            &a,
            &format!("{{\"id\":2,\"op\":\"mutate\",\"graph\":\"g\",{body}}}"),
        );
        assert!(is_ok(&mutate), "{body}: {mutate}");
        let mutated = roundtrip(&a, &solve_line(3, "g"));
        assert!(is_ok(&mutated), "{body}: {mutated}");
        // The `written` event is logged just after the response bytes;
        // draining waits for it.
        a.drain();
        let events: Vec<String> = lines(&log)
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("id").and_then(|i| i.as_int()) == Some(3))
            .map(|v| v.get("event").and_then(|e| e.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(
            events,
            [
                "received",
                "admitted",
                "cache_miss",
                "solve_start",
                "solve_end",
                "rendered",
                "written"
            ],
            "{body}: the post-mutation solve is a plain cache miss"
        );

        // Server B: the mutated topology registered fresh — no history,
        // a cold cache.
        let b = Server::new(ServerConfig {
            capacity: 8,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        });
        b.add_graph_with_batteries("g", expected_graph.clone(), overrides.clone());
        let b = Arc::new(b);
        let scratch = roundtrip(&b, &solve_line(3, "g"));
        assert_eq!(
            result_of(&mutated),
            result_of(&scratch),
            "{body}: post-mutation solve must be byte-identical to a fresh registration"
        );

        // And the lineage agrees: server A's live hash is exactly the
        // fresh registration's hash (content-addressed versioning).
        assert_eq!(
            a.graph_lineage("g").unwrap().0,
            versioned_graph_hash(&expected_graph, &overrides),
            "{body}"
        );
    }
}

#[test]
fn mutation_retires_ancestor_cache_entries_but_spares_siblings() {
    let server = server_with(&[("a", ring_graph(10)), ("b", ring_graph(14))]);
    assert!(is_ok(&roundtrip(&server, &solve_line(1, "a"))));
    assert!(is_ok(&roundtrip(&server, &solve_line(2, "b"))));
    let a_old = server.graph_lineage("a").unwrap().0;
    let b_hash = server.graph_lineage("b").unwrap().0;
    assert_eq!(server.cache_graph_hashes(), {
        let mut v = vec![a_old, b_hash];
        v.sort_unstable();
        v
    });
    let line = roundtrip(
        &server,
        r#"{"id":3,"op":"mutate","graph":"a","action":"remove_edge","u":0,"v":1}"#,
    );
    assert!(is_ok(&line));
    assert_eq!(
        server.cache_graph_hashes(),
        vec![b_hash],
        "ancestor entries retired, sibling entries untouched"
    );
    let stats = server.stats();
    assert_eq!(stats.lineage_invalidations, 1);
    // The sibling's cached bytes still serve: a repeat solve of `b` is
    // a cache hit.
    let hits_before = stats.cache_hits;
    assert!(is_ok(&roundtrip(&server, &solve_line(4, "b"))));
    assert_eq!(server.stats().cache_hits, hits_before + 1);
}

/// One deterministic mutation request for op code `op` at step `i`,
/// given the graph's current node count. Any individual request may be
/// rejected (duplicate edge, same battery value, …) — rejections must
/// leave the lineage untouched, which the invariant below covers too.
fn mutation_body(op: u8, i: u64, n: u64) -> String {
    match op % 5 {
        0 => format!(
            "\"action\":\"add_edge\",\"u\":{},\"v\":{}",
            i % n,
            (i * 5 + 2) % n
        ),
        1 => format!(
            "\"action\":\"remove_edge\",\"u\":{},\"v\":{}",
            i % n,
            (i + 1) % n
        ),
        2 => format!("\"action\":\"add_node\",\"neighbors\":[{}]", i % n),
        3 => format!("\"action\":\"remove_node\",\"node\":{}", i % n),
        _ => format!(
            "\"action\":\"set_battery\",\"node\":{},\"value\":{}",
            i % n,
            (i % 3) + 1
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After ANY mutation sequence, the cache holds entries only for
    /// currently-live graph versions: no entry keyed by an ancestor
    /// hash survives, and the untouched sibling graph's entry always
    /// does. Solves run after every mutation so intermediate versions
    /// all get cached — and must all be retired again.
    #[test]
    fn cache_never_holds_ancestor_entries(ops in proptest::collection::vec(0u8..5, 0..8)) {
        let server = server_with(&[("a", ring_graph(10)), ("b", ring_graph(14))]);
        prop_assert!(is_ok(&roundtrip(&server, &solve_line(1, "a"))));
        prop_assert!(is_ok(&roundtrip(&server, &solve_line(2, "b"))));
        let b_hash = server.graph_lineage("b").unwrap().0;
        let mut n: u64 = 10;
        for (i, &op) in ops.iter().enumerate() {
            let body = mutation_body(op, i as u64, n);
            let line = roundtrip(
                &server,
                &format!("{{\"id\":{},\"op\":\"mutate\",\"graph\":\"a\",{body}}}", 10 + 2 * i),
            );
            if is_ok(&line) {
                match op % 5 {
                    2 => n += 1,
                    3 => n -= 1,
                    _ => {}
                }
            }
            prop_assert!(is_ok(&roundtrip(
                &server,
                &solve_line(11 + 2 * i as u64, "a")
            )));
            let live_a = server.graph_lineage("a").unwrap().0;
            for h in server.cache_graph_hashes() {
                prop_assert!(
                    h == live_a || h == b_hash,
                    "cache holds non-live hash {h:016x} after step {i} (live a {live_a:016x}, b {b_hash:016x})"
                );
            }
        }
        prop_assert!(
            server.cache_graph_hashes().contains(&b_hash),
            "sibling graph's entry must survive the whole sequence"
        );
    }
}
