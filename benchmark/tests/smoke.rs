//! Runs every workload briefly, untraced and traced, and checks that the
//! emitted metric names and units are exactly those `BENCHMARK.json`
//! declares, that every output check passed, and that the last line is
//! the one-object summary the benchmark promises. Also checks that
//! `bench compare` holds quality without slack.

use domatic_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

fn declared(spec: &Json, key: &str) -> BTreeMap<String, String> {
    let Some(Json::Arr(defs)) = spec.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    defs.iter()
        .map(|d| {
            let field = |f: &str| d.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--quick"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    (
        stdout.clone(),
        json::parse(last).expect("the last line is JSON"),
    )
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = match spec.get("workloads") {
        Some(Json::Arr(ws)) => ws
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("BENCHMARK.json lacks workloads"),
    };
    assert_eq!(workloads, domatic_benchmark::metrics::WORKLOADS);
    for (key, table) in [
        ("end_to_end", domatic_benchmark::metrics::END_TO_END),
        ("per_layer", domatic_benchmark::metrics::PER_LAYER),
    ] {
        let Some(Json::Arr(defs)) = spec.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        let field = |d: &Json, f: &str| d.get(f).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<[String; 3]> = defs
            .iter()
            .map(|d| [field(d, "name"), field(d, "unit"), field(d, "better")])
            .collect();
        let coded: Vec<[String; 3]> = table
            .iter()
            .map(|d| [d.name.into(), d.unit.into(), d.better.into()])
            .collect();
        assert_eq!(listed, coded, "{key}");
    }
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&spec, key);
        for w in &workloads {
            let (stdout, summary) = run(w, trace);
            let Json::Obj(top) = &summary else {
                panic!("summary is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                summary.get("correct"),
                Some(&Json::Bool(true)),
                "{w}: {stdout}"
            );
            assert_eq!(summary.get("failed").and_then(Json::as_int), Some(0));
            assert!(summary.get("attempted").and_then(Json::as_int).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = summary.get("metrics") else {
                panic!("summary lacks metrics")
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{w} {k}");
                    (
                        k.clone(),
                        v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{w} --trace {trace}");
            for (name, unit) in &want {
                let line = format!("{w} {name} ");
                let printed = stdout
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .unwrap_or_else(|| panic!("{w} does not print {name}"));
                assert!(printed.contains(&format!(" {unit} (n=")), "{printed}");
            }
        }
    }
}

/// A one-workload run record with the given throughput, lifetime ratio,
/// valid share and failed count.
fn record(throughput: f64, lifetime: f64, valid: f64, failed: u64) -> String {
    format!(
        "{{\"workloads\":{{\"solve-mix\":{{\"failed\":{failed},\"metrics\":{{\
         \"throughput_per_s\":{{\"value\":{throughput}}},\
         \"core.lifetime_ratio\":{{\"value\":{lifetime}}},\
         \"schedule.valid_ratio\":{{\"value\":{valid}}}}}}}}}}}"
    )
}

fn compare(a: &str, b: &str) -> (bool, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (pa, pb) = (dir.join("compare_a.json"), dir.join("compare_b.json"));
    std::fs::write(&pa, a).unwrap();
    std::fs::write(&pb, b).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("compare")
        .args([&pa, &pb])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("bench runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn compare_fails_on_any_loss_of_quality() {
    let base = record(10.0, 0.9, 1.0, 0);
    let (ok, text) = compare(&base, &record(10.0, 0.9, 1.0, 0));
    assert!(ok, "{text}");
    let (ok, text) = compare(&base, &record(10.5, 0.9, 1.0, 0));
    assert!(ok, "faster at the same lifetime passes: {text}");
    let (ok, text) = compare(&base, &record(20.0, 0.8999, 1.0, 0));
    assert!(!ok, "faster with shorter lifetimes fails: {text}");
    let (ok, text) = compare(&base, &record(10.0, 0.9, 0.99, 0));
    assert!(!ok, "an invalid schedule fails: {text}");
    let (ok, text) = compare(&base, &record(10.0, 0.9, 1.0, 1));
    assert!(!ok, "a failed operation fails: {text}");
    let (ok, text) = compare(&base, &record(5.0, 0.9, 1.0, 0));
    assert!(!ok, "half the throughput is outside every bound: {text}");
}
