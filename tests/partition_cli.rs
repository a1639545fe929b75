//! End-to-end tests of the `domatic` subcommands that print a result
//! without solving a schedule file:
//!
//! - `partition` and `render`: for each `--alg`, both print or draw the
//!   partition the library computes, and an unknown algorithm exits with
//!   the usage status 2;
//! - `info`, `optimum` and `simulate`: their whole output on the 9-cycle
//!   is pinned, and `optimum` refuses graphs past its enumeration limit.

use domatic::core::augment::augment_partition;
use domatic::core::feige::{feige_partition, FeigeParams};
use domatic::core::greedy::greedy_domatic_partition;
use domatic::graph::generators::gnp::gnp;
use domatic::graph::generators::regular::{cycle, path};
use domatic::graph::io::to_edge_list;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_domatic");

fn domatic(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run domatic")
}

#[test]
fn partition_and_render_agree_with_the_library_for_every_alg() {
    let dir = std::env::temp_dir().join(format!("domatic-partition-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let gpath = dir.join("gnp16.txt");
    let gpath = gpath.to_str().expect("utf-8 temp path");
    let svg = dir.join("feige.svg");
    let svg = svg.to_str().expect("utf-8 temp path");
    let g = gnp(16, 0.5, 13);
    std::fs::write(gpath, to_edge_list(&g)).expect("write graph file");
    let ceiling = g.min_degree().expect("non-empty graph") + 1;

    let greedy = greedy_domatic_partition(&g);
    let feige = feige_partition(
        &g,
        &FeigeParams {
            c: 3.0,
            max_sweeps: 60,
            seed: 0,
        },
    )
    .classes
    .len();
    let augmented = augment_partition(&g, greedy.clone()).classes.len();
    // 4, 1 and 5 classes: a mix-up between any two algorithms changes the
    // printed count.
    assert!(greedy.len() != feige && feige != augmented && augmented != greedy.len());
    for (alg, classes) in [
        ("greedy", greedy.len()),
        ("feige", feige),
        ("augmented", augmented),
    ] {
        let out = domatic(&["partition", gpath, "--alg", alg]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "partition --alg {alg}: {out:?}");
        assert_eq!(
            stdout.lines().next(),
            Some(format!("{classes} disjoint dominating sets (δ+1 ceiling: {ceiling})").as_str()),
            "partition --alg {alg}"
        );
    }

    let out = domatic(&["render", gpath, "--alg", "feige", "--out", svg]);
    assert!(out.status.success(), "render: {out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("wrote {svg} ({feige} classes)\n")
    );
    let drawn = std::fs::read_to_string(svg).expect("render wrote the svg");
    assert!(drawn.contains("<svg") && drawn.trim_end().ends_with("</svg>"));

    for sub in ["partition", "render"] {
        let out = domatic(&[sub, gpath, "--alg", "bogus", "--out", svg]);
        assert_eq!(out.status.code(), Some(2), "{sub} --alg bogus: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const INFO_C9: &str = "\
n=9 m=9 δ=2 Δ=2 avg=2.00
connected: true
domatic number upper bound (δ+1): 3
degeneracy (max core): 2 — scheduling headroom of the bulk vs δ's certificate
vertex connectivity κ: 2 — ceiling for CONNECTED domatic partitions
";

/// Lemma 4.1's `b(δ+1) = 6` is tight on the 9-cycle: the three residue
/// classes mod 3 each dominate and serve `b = 2`.
const OPTIMUM_C9_B2: &str = "\
exact L_OPT = 6.000
  [0, 3, 6] × 2.000
  [1, 4, 7] × 2.000
  [2, 5, 8] × 2.000
";

/// The three baseline strategies, then one playback row per solver in
/// `solver_names()` order.
const SIMULATE_C9_B3: &str = "\
strategy                 lifetime    delivered   mean awake
all-active                      3           27          9.0
single-mds(static)              3           27          3.0
domatic                         6           54          3.0
schedule[uniform]               3           27          9.0
schedule[general]               1            9          9.0
schedule[greedy]                5           39          3.0
schedule[ft]                    3           27          9.0
schedule[tabu]                  5           39          3.0
schedule[sa]                    5           39          3.0
schedule[portfolio]             5           39          3.0
";

#[test]
fn info_optimum_and_simulate_print_the_nine_cycle() {
    let dir = std::env::temp_dir().join(format!("domatic-c9-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let c9 = dir.join("c9.txt");
    let c9 = c9.to_str().expect("utf-8 temp path");
    let p25 = dir.join("p25.txt");
    let p25 = p25.to_str().expect("utf-8 temp path");
    std::fs::write(c9, to_edge_list(&cycle(9))).expect("write graph file");
    std::fs::write(p25, to_edge_list(&path(25))).expect("write graph file");
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();

    let out = domatic(&["info", c9]);
    assert!(out.status.success(), "info: {out:?}");
    assert_eq!(stdout(&out), INFO_C9);

    let out = domatic(&["optimum", c9, "--b", "2"]);
    assert!(out.status.success(), "optimum: {out:?}");
    assert_eq!(stdout(&out), OPTIMUM_C9_B2);

    let out = domatic(&["optimum", p25]);
    assert_eq!(out.status.code(), Some(1), "optimum on 25 nodes: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("25 nodes is too many (max 24)"));

    let out = domatic(&["simulate", c9, "--b", "3"]);
    assert!(out.status.success(), "simulate: {out:?}");
    assert_eq!(stdout(&out), SIMULATE_C9_B3);
    let _ = std::fs::remove_dir_all(&dir);
}
