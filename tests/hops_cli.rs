//! End-to-end d-hop CLI test: `domatic solve --hops 2` must emit a
//! schedule whose every slot 2-hop dominates the input graph, the
//! `validate --hops` subcommand must accept it, and `adapt` must reject
//! `--hops > 1` (the adaptive runtime's coverage census is 1-hop only)
//! while its 1-hop runs survive crashes deterministically.

use domatic::graph::domination::is_d_hop_dominating_set;
use domatic::graph::Graph;
use domatic::schedule::{validate_schedule_hops, Batteries};
use domatic_telemetry::json::Json;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_domatic");

/// A 16-ring with skip-3 chords, written in `domatic_graph::io` format.
fn ring_edges(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + 3) % n)])
        .collect()
}

fn write_graph(path: &std::path::Path, n: u32, edges: &[(u32, u32)]) {
    let mut text = format!("n {n}\n");
    for (u, v) in edges {
        text.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(path, text).expect("write graph file");
}

#[test]
fn solve_with_hops_two_emits_a_valid_two_hop_schedule() {
    let dir = std::env::temp_dir().join(format!("domatic-hops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let gpath = dir.join("ring16.txt");
    let spath = dir.join("sched.txt");
    let n = 16u32;
    let edges = ring_edges(n);
    write_graph(&gpath, n, &edges);

    let out = Command::new(BIN)
        .args(["solve"])
        .arg(&gpath)
        .args(["--hops", "2", "--alg", "greedy", "--b", "3", "--out"])
        .arg(&spath)
        .output()
        .expect("run domatic solve");
    assert!(
        out.status.success(),
        "solve --hops 2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Reload the emitted schedule and check every slot against the
    // library's own d-hop predicate on the ORIGINAL graph.
    let g = Graph::from_edges(n as usize, &edges);
    let (schedule, universe) =
        domatic::core::io::load_schedule(spath.to_str().unwrap()).expect("reload emitted schedule");
    assert_eq!(universe, g.n());
    assert!(schedule.lifetime() > 0);
    for entry in schedule.entries() {
        assert!(
            is_d_hop_dominating_set(&g, &entry.set, 2),
            "slot is not 2-hop dominating: {:?}",
            entry.set.to_vec()
        );
    }
    let batteries = Batteries::uniform(g.n(), 3);
    assert_eq!(
        validate_schedule_hops(&g, &batteries, &schedule, 1, 2),
        Ok(())
    );

    // The validate subcommand agrees, at the matching radius.
    let out = Command::new(BIN)
        .args(["validate"])
        .arg(&gpath)
        .arg(&spath)
        .args(["--b", "3", "--hops", "2"])
        .output()
        .expect("run domatic validate");
    assert!(
        out.status.success(),
        "validate --hops 2 rejected the solver's own schedule: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("VALID"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schedule_alias_still_works_and_adapt_rejects_hops() {
    let dir = std::env::temp_dir().join(format!("domatic-hops-alias-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let gpath = dir.join("ring12.txt");
    let n = 12u32;
    let edges = ring_edges(n);
    write_graph(&gpath, n, &edges);

    // The old `schedule` spelling keeps working (it is the same command).
    let out = Command::new(BIN)
        .args(["schedule"])
        .arg(&gpath)
        .args(["--alg", "greedy", "--b", "2"])
        .output()
        .expect("run domatic schedule");
    assert!(
        out.status.success(),
        "schedule alias failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // adapt with a coverage radius above 1 is a usage error, mirroring
    // the serve layer's typed bad_request.
    let out = Command::new(BIN)
        .args(["adapt"])
        .arg(&gpath)
        .args(["--hops", "2"])
        .output()
        .expect("run domatic adapt");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--hops"),
        "stderr should name the offending flag: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // adapt survives crashes: it replans, stays covered at least as long
    // as the open-loop schedule, and prints the same bytes at 1 thread
    // and at 4.
    let adapt = |threads: &str| {
        let out = Command::new(BIN)
            .args(["adapt"])
            .arg(&gpath)
            .args(["--b", "4", "--failures", "crash", "--p", "0.05"])
            .args(["--seed", "5", "--slots", "500", "--json"])
            .args(["--threads", threads])
            .output()
            .expect("run domatic adapt");
        assert!(out.status.success(), "adapt failed: {out:?}");
        out.stdout
    };
    let stdout = adapt("1");
    let text = String::from_utf8_lossy(&stdout);
    let report = domatic_telemetry::json::parse(text.trim())
        .unwrap_or_else(|e| panic!("adapt --json is not JSON ({e}): {text}"));
    let int = |k: &str| report.get(k).and_then(|v| v.as_int());
    assert!(int("replans").is_some_and(|r| r > 0), "{text}");
    let (Some(adaptive), Some(fixed)) = (int("adaptive_lifetime"), int("static_lifetime")) else {
        panic!("adapt --json lacks the lifetimes: {text}");
    };
    assert!(adaptive >= fixed, "{text}");
    assert!(
        matches!(report.get("coverage_curve"), Some(Json::Arr(points)) if !points.is_empty()),
        "{text}"
    );
    assert_eq!(
        stdout,
        adapt("4"),
        "adapt output differs across thread counts"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
