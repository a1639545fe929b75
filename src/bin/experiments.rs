//! The experiment harness CLI.
//!
//! ```text
//! experiments                      # list experiments
//! experiments all                  # run the full suite
//! experiments e1 e6                # run selected experiments
//! experiments e1 --json out.json   # also write machine-readable results
//! experiments all --threads 4      # size the global thread pool
//! ```
//!
//! Every table printed here corresponds to a row of DESIGN.md §3 and is
//! recorded in EXPERIMENTS.md. With `--json <path>`, each experiment
//! additionally appends one JSON object (one line) to `path`:
//!
//! ```text
//! {"experiment": "e1", "wall_ms": 12.3,
//!  "tables": [{"title", "headers", "rows", "notes"}, …],
//!  "run_stats": {"rounds", "transmissions", "receptions", "bytes_received"},
//!  "telemetry": {"counters", "histograms", "spans"}}
//! ```
//!
//! `run_stats` totals the distributed-protocol communication cost of the
//! experiment (zeros when it ran no protocol); `telemetry.spans` carries
//! wall-clock totals per instrumented code path. This is the experiments
//! JSON-lines format; see README §Observability for jq recipes.

use domatic::experiments::{registry, run_by_id};
use domatic_distsim::RunStats;
use domatic_telemetry as telemetry;
use domatic_telemetry::json::Json;
use std::io::Write;
use std::time::Instant;

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if a == "--threads" {
            let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--threads requires a positive integer");
                std::process::exit(2);
            });
            if rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .is_err()
            {
                eprintln!("--threads: thread pool already initialized; flag ignored");
            }
        } else {
            ids.push(a);
        }
    }
    // Recorded as a gauge (not a counter) so per-experiment registry
    // resets keep it: every JSON record then states the pool size that
    // produced it.
    telemetry::global().set_gauge("runtime.threads", rayon::current_num_threads() as u64);
    if ids.is_empty() {
        println!(
            "domatic experiment harness — reproduction of Moscibroda & Wattenhofer, IPDPS 2005\n"
        );
        println!("usage: experiments <id>... | all [--json <path>] [--threads N]\n");
        for e in registry() {
            println!("  {:4}  {}", e.id, e.summary);
        }
        return;
    }
    if ids.iter().any(|a| a == "all") {
        ids = registry().iter().map(|e| e.id.to_string()).collect();
    }

    let mut json_out = json_path.map(|p| {
        let f = std::fs::File::create(&p).unwrap_or_else(|e| panic!("cannot create {p}: {e}"));
        // Span timing is only worth paying for when someone records it.
        telemetry::set_enabled(true);
        std::io::BufWriter::new(f)
    });

    for id in ids {
        telemetry::global().reset();
        let start = Instant::now();
        // Scoped so the span closes (and records) before the snapshot:
        // every JSON record then carries at least the "experiment" span's
        // wall-clock total, with instrumented code paths nested under it.
        let result = {
            let _span = telemetry::span!("experiment");
            run_by_id(&id)
        };
        match result {
            Some(tables) => {
                let wall = start.elapsed();
                for t in &tables {
                    println!("{}", t.render());
                }
                println!("[{} finished in {:.1?}]\n", id, wall);
                if let Some(out) = json_out.as_mut() {
                    let snapshot = telemetry::global().snapshot();
                    let run_stats = RunStats::from(telemetry::global());
                    let record = Json::obj([
                        ("experiment".into(), Json::Str(id.clone())),
                        ("wall_ms".into(), Json::Num(wall.as_secs_f64() * 1e3)),
                        (
                            "tables".into(),
                            Json::Arr(tables.iter().map(|t| t.to_json()).collect()),
                        ),
                        ("run_stats".into(), run_stats_json(&run_stats)),
                        ("telemetry".into(), snapshot.to_json()),
                    ]);
                    writeln!(out, "{}", record.render()).expect("write json line");
                }
            }
            None => {
                eprintln!("unknown experiment '{id}' — run with no arguments for the list");
                std::process::exit(2);
            }
        }
    }
    if let Some(mut out) = json_out {
        out.flush().expect("flush json output");
    }
}

/// The `run_stats` object: always emits all four keys, so consumers can
/// rely on `.run_stats.rounds` existing even for purely local experiments.
fn run_stats_json(s: &RunStats) -> Json {
    Json::obj([
        ("rounds".into(), Json::Int(s.rounds as i128)),
        ("transmissions".into(), Json::Int(s.transmissions as i128)),
        ("receptions".into(), Json::Int(s.receptions as i128)),
        ("bytes_received".into(), Json::Int(s.bytes_received as i128)),
    ])
}
