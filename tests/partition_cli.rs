//! End-to-end test of `domatic partition` and `domatic render`: for each
//! `--alg`, both print or draw the partition the library computes, and an
//! unknown algorithm exits with the usage status 2.

use domatic::core::augment::augment_partition;
use domatic::core::feige::{feige_partition, FeigeParams};
use domatic::core::greedy::greedy_domatic_partition;
use domatic::graph::generators::gnp::gnp;
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
