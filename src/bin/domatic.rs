//! `domatic` — command-line front end: run the lifetime schedulers on an
//! edge-list topology file.
//!
//! ```text
//! domatic info <graph.txt>
//! domatic solve <graph.txt> [--b N] [--k K] [--hops D] [--alg <solver>] \
//!               [--solver <solver>] [--seed S] [--trials R] \
//!               [--budget-ms MS] [--max-iters N] [--verbose] \
//!               [--out schedule.txt]
//!               # `schedule` is an alias; `--solver` is an alias of `--alg`
//! domatic validate <graph.txt> <schedule.txt> [--b N] [--k K] [--hops D]
//! domatic partition <graph.txt> [--alg greedy|feige|augmented]
//! domatic simulate <graph.txt> [--b N] [--k K]
//! domatic adapt <graph.txt> [--b N] [--k K] [--alg <solver>] [--seed S] \
//!               [--failures none|crash|battery-noise|transient-loss|all] \
//!               [--p P] [--slots N] [--retries N] [--drift N] [--json]
//! domatic render <graph.txt> --out fig.svg [--alg greedy|feige|augmented]
//! domatic optimum <graph.txt> [--b N]      # exact LP, small graphs only
//! domatic serve [--graph NAME=SPEC ...] [--port P] [--capacity N] \
//!               [--shards N] [--shed-join-waiters N] \
//!               [--batch-window-ms N] [--cache-bytes N] \
//!               [--access-log PATH] [--metrics-port P] [--slow-ms N] \
//!               [--trace-ring N]
//! domatic bench-serve --addr HOST:PORT [--requests N] [--clients C] \
//!                     [--mode closed|open] [--rate RPS] \
//!                     [--graphs a,b] [--trace-file req.jsonl] [--json] \
//!                     [--matrix [--clients-list 100,1000,10000] \
//!                               [--out BENCH_serve.json]]
//! domatic scenario --addr HOST:PORT [--quick] [--seed S] \
//!                  [--out BENCH_scenarios.json]
//! domatic top --addr HOST:PORT [--interval-ms N] [--iterations N] [--no-clear]
//! domatic profile --addr HOST:PORT
//! ```
//!
//! `serve` runs the batching, caching JSON-lines solve service from
//! `domatic-server` over stdio (default) or TCP (`--port`; port 0 binds
//! an ephemeral port and prints it). A graph SPEC is either a path to an
//! edge-list file or a synthetic spec `ring:N` / `gnp:N,DEG,SEED` /
//! `dense:N,K`.
//! `bench-serve` replays a request trace (or a synthetic mixed workload
//! with deliberate duplicates) against a running server from a
//! single-threaded evented client that multiplexes every connection over
//! one epoll — `--clients 10000` is ten thousand real sockets, not ten
//! thousand threads. `--mode closed` (default) keeps one request in
//! flight per connection; `--mode open` departs requests on a fixed
//! inter-arrival schedule (`--rate`, requests/s across all connections)
//! and measures latency from the *scheduled* arrival, so queueing delay
//! under overload is charged to the server rather than silently omitted.
//! Reports p50/p99/p99.9 latency, a full latency histogram (`--json`,
//! same bucket layout as the metrics exposition), throughput, error
//! counts, and an order-independent digest of the response bytes for
//! determinism comparisons. `--matrix` sweeps a client-count list in
//! both modes and writes `BENCH_serve.json`.
//!
//! `scenario` replays four seeded churn campaigns — crash waves, link
//! flap, battery recharge, dense-linear growth — against a live server's
//! `mutate` op over one blocking connection, asserting zero errors,
//! lifetime ≥ 1 on every solve, and byte-identical re-solves when a
//! mutation chain returns a graph to earlier content. Each campaign's
//! receipt-order response digest lands in `BENCH_scenarios.json`; CI
//! compares digests across shard counts and against the committed copy
//! (timings stay advisory). The server must expose the campaign graphs:
//! `crash=gnp:32,5.0,7 flap=ring:24 recharge=ring:18 dense=dense:12,3`.
//!
//! Observability (see `docs/OBSERVABILITY.md`): `--access-log` writes
//! per-request lifecycle events as JSON lines, `--metrics-port` starts a
//! plain-text Prometheus scrape listener, `--slow-ms` dumps outlier
//! lifecycles, and the `metrics`/`profile` protocol ops expose the same
//! data in-band. `domatic top` polls a running server and renders a
//! refreshing req/s / in-flight / shed / hit-rate / per-op-latency
//! table; `domatic profile` converts the server's trace ring and span
//! aggregates into collapsed-stack (flamegraph) lines. Tracing never
//! changes response bytes.
//!
//! `<solver>` is any name from `domatic_core::solver::solver_registry()`
//! (`uniform`, `general`, `greedy`, `ft`, `tabu`, `sa`, `portfolio`); an
//! unknown name lists what is available. The graph format is
//! `domatic_graph::io`'s: a `n <count>` header then one `u v` edge per
//! line (`#` comments allowed).
//!
//! `--budget-ms MS` caps the anytime solvers' (tabu/sa/portfolio)
//! refinement wall-clock per peeling round; `--max-iters N` caps their
//! local-search moves deterministically (`SolverConfig::budget`). Both
//! are ignored by the one-shot paper solvers.
//!
//! `--hops D` relaxes coverage to d-hop domination: every node must have
//! `k` active nodes within `D` hops (solvers plan on the D-th graph
//! power; see `SolverConfig::hops`). `adapt` rejects `--hops > 1` — the
//! adaptive runtime's coverage census is strictly 1-hop.
//!
//! Every subcommand additionally accepts `--trace` (enables span timing
//! and prints the telemetry snapshot — counters plus the nested span tree
//! — after the subcommand finishes) and `--threads N` (sizes the global
//! thread pool; defaults to `RAYON_NUM_THREADS` or the available cores).

use domatic::core::solver::{make_solver, solver_registry, Solver, SolverConfig};
use domatic::lp::lp_optimal_lifetime;
use domatic::netsim::{
    compare_static_adaptive, AdaptiveConfig, FailureModel, FailurePlan, FollowSchedule,
};
use domatic::prelude::*;
use domatic::schedule::compact::render;
use domatic::schedule::metrics::schedule_metrics;
use domatic::schedule::validate_schedule_hops;

fn usage() -> ! {
    eprintln!(
        "usage:\n  domatic info <graph.txt>\n  domatic solve <graph.txt> [--b N] [--k K] [--hops D] [--alg SOLVER] [--solver SOLVER] [--seed S] [--trials R] [--budget-ms MS] [--max-iters N] [--verbose] [--gantt] [--out schedule.txt]   (alias: schedule)\n  domatic validate <graph.txt> <schedule.txt> [--b N] [--k K] [--hops D]\n  domatic partition <graph.txt> [--alg greedy|feige|augmented] [--seed S]\n  domatic simulate <graph.txt> [--b N] [--k K] [--seed S]\n  domatic adapt <graph.txt> [--b N] [--k K] [--alg SOLVER] [--seed S] [--trials R] [--failures none|crash|battery-noise|transient-loss|all] [--p P] [--slots N] [--retries N] [--drift N] [--json]\n  domatic render <graph.txt> --out fig.svg [--alg greedy|feige|augmented]\n  domatic optimum <graph.txt> [--b N]\n  domatic serve [--graph NAME=SPEC ...] [--port P] [--shards N] [--capacity N] [--batch-window-ms N] [--cache-bytes N] [--shed-join-waiters N] [--access-log PATH] [--metrics-port P] [--slow-ms N] [--trace-ring N]\n  domatic bench-serve --addr HOST:PORT [--requests N] [--clients C] [--mode closed|open] [--rate RPS] [--graphs a,b] [--trace-file req.jsonl] [--json] [--matrix [--clients-list 100,1000,10000] [--out BENCH_serve.json]]\n  domatic scenario --addr HOST:PORT [--quick] [--seed S] [--out BENCH_scenarios.json]   (needs graphs crash=gnp:32,5.0,7 flap=ring:24 recharge=ring:18 dense=dense:12,3)\n  domatic top --addr HOST:PORT [--interval-ms N] [--iterations N] [--no-clear]\n  domatic profile --addr HOST:PORT\nSOLVER is one of: {}\nany subcommand also takes --trace (print timing spans and counters on exit) and --threads N (thread-pool size; default RAYON_NUM_THREADS or all cores)",
        domatic::core::solver::solver_names().join("|")
    );
    std::process::exit(2)
}

fn load_graph(path: &str) -> Graph {
    domatic::core::io::load_graph(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Resolves `--alg` through the solver registry; an unknown name exits
/// with the registry's own "known solvers" message.
fn resolve_solver(name: &str) -> Box<dyn Solver> {
    make_solver(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

struct Opts {
    b: u64,
    k: usize,
    hops: usize,
    alg: String,
    seed: u64,
    trials: u64,
    budget_ms: Option<u64>,
    max_iters: Option<u64>,
    verbose: bool,
    gantt: bool,
    out: Option<String>,
    failures: String,
    p: f64,
    slots: u64,
    retries: u32,
    drift: u64,
    json: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        b: 3,
        k: 1,
        hops: 1,
        alg: "uniform".into(),
        seed: 0,
        trials: 8,
        budget_ms: None,
        max_iters: None,
        verbose: false,
        gantt: false,
        out: None,
        failures: "crash".into(),
        p: 0.02,
        slots: 10_000,
        retries: 2,
        drift: 2,
        json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--b" => o.b = next("--b").parse().unwrap_or_else(|_| usage()),
            "--k" => o.k = next("--k").parse().unwrap_or_else(|_| usage()),
            "--hops" => {
                o.hops = next("--hops").parse().unwrap_or_else(|_| usage());
                if o.hops == 0 {
                    eprintln!("--hops must be at least 1");
                    std::process::exit(2);
                }
            }
            "--alg" => o.alg = next("--alg"),
            // `--solver` is the preferred spelling; both resolve through
            // the same registry.
            "--solver" => o.alg = next("--solver"),
            "--seed" => o.seed = next("--seed").parse().unwrap_or_else(|_| usage()),
            "--trials" => o.trials = next("--trials").parse().unwrap_or_else(|_| usage()),
            "--budget-ms" => {
                o.budget_ms = Some(next("--budget-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--max-iters" => {
                o.max_iters = Some(next("--max-iters").parse().unwrap_or_else(|_| usage()))
            }
            "--verbose" => o.verbose = true,
            "--gantt" => o.gantt = true,
            "--out" => o.out = Some(next("--out")),
            "--failures" => o.failures = next("--failures"),
            "--p" => o.p = next("--p").parse().unwrap_or_else(|_| usage()),
            "--slots" => o.slots = next("--slots").parse().unwrap_or_else(|_| usage()),
            "--retries" => o.retries = next("--retries").parse().unwrap_or_else(|_| usage()),
            "--drift" => o.drift = next("--drift").parse().unwrap_or_else(|_| usage()),
            "--json" => o.json = true,
            _ => usage(),
        }
    }
    o
}

fn solver_config(o: &Opts) -> SolverConfig {
    let mut budget = domatic::core::solver::Budget::new();
    if let Some(ms) = o.budget_ms {
        budget = budget.deadline_ms(ms);
    }
    if let Some(iters) = o.max_iters {
        budget = budget.max_iterations(iters);
    }
    SolverConfig::new()
        .seed(o.seed)
        .trials(o.trials)
        .k(o.k)
        .hops(o.hops)
        .budget(budget)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    if trace {
        args.retain(|a| a != "--trace");
        domatic_telemetry::set_enabled(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            });
        args.drain(i..=i + 1);
        if rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .is_err()
        {
            eprintln!("--threads: thread pool already initialized; flag ignored");
        }
    }
    domatic_telemetry::global().set_gauge("runtime.threads", rayon::current_num_threads() as u64);
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.clone(), r.to_vec()),
        None => usage(),
    };
    run_command(&cmd, &rest);
    if trace {
        use domatic_telemetry::Sink;
        let snapshot = domatic_telemetry::global().snapshot();
        let mut sink = domatic_telemetry::TableSink::new(std::io::stderr());
        sink.emit(&cmd, &snapshot).expect("write trace");
    }
}

fn run_command(cmd: &str, rest: &[String]) {
    let rest = rest.to_vec();
    match cmd {
        "info" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let g = load_graph(path);
            println!("{}", domatic::graph::properties::describe(&g));
            println!("connected: {}", domatic::graph::traversal::is_connected(&g));
            if let Some(delta) = g.min_degree() {
                println!("domatic number upper bound (δ+1): {}", delta + 1);
            }
            let dec = domatic::graph::kcore::core_decomposition(&g);
            println!(
                "degeneracy (max core): {} — scheduling headroom of the bulk vs δ's certificate",
                dec.degeneracy
            );
            if g.n() <= 150 {
                let kappa = domatic::graph::flow::vertex_connectivity(&g);
                println!(
                    "vertex connectivity κ: {kappa} — ceiling for CONNECTED domatic partitions"
                );
            }
        }
        "schedule" | "solve" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            let g = load_graph(path);
            let batteries = Batteries::uniform(g.n(), o.b);
            let solver = resolve_solver(&o.alg);
            let cfg = solver_config(&o);
            let schedule = solver.schedule(&g, &batteries, &cfg).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let tolerance = solver.tolerance(&cfg);
            let bound = solver.upper_bound(&g, &batteries, &cfg);
            validate_schedule_hops(&g, &batteries, &schedule, tolerance, o.hops).unwrap_or_else(
                |v| {
                    eprintln!("internal error: emitted schedule invalid: {v}");
                    std::process::exit(1);
                },
            );
            println!(
                "{}: lifetime {} (upper bound {bound})",
                solver.describe(),
                schedule.lifetime()
            );
            let m = schedule_metrics(&schedule, &batteries);
            println!(
                "steps {} | mean awake {:.1} | utilization {:.0}% | fairness {:.2}",
                m.steps,
                m.mean_active,
                100.0 * m.utilization,
                m.fairness
            );
            if o.verbose {
                println!("{}", render(&schedule));
            }
            if o.gantt {
                print!(
                    "{}",
                    domatic::schedule::compact::render_gantt(&schedule, g.n())
                );
            }
            if let Some(path) = &o.out {
                let text = domatic::schedule::io::to_text(&schedule, g.n());
                std::fs::write(path, text).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("wrote {path}");
            }
        }
        "validate" => {
            let (gpath, spath) = match (rest.first(), rest.get(1)) {
                (Some(a), Some(b)) => (a.clone(), b.clone()),
                _ => usage(),
            };
            let o = parse_opts(&rest[2..]);
            let g = load_graph(&gpath);
            let (schedule, universe) =
                domatic::core::io::load_schedule(&spath).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
            if universe != g.n() {
                eprintln!("schedule universe {universe} != graph size {}", g.n());
                std::process::exit(1);
            }
            let batteries = Batteries::uniform(g.n(), o.b);
            match validate_schedule_hops(&g, &batteries, &schedule, o.k, o.hops) {
                Ok(()) => println!(
                    "VALID: lifetime {} at tolerance k = {} within b = {} (hops = {})",
                    schedule.lifetime(),
                    o.k,
                    o.b,
                    o.hops
                ),
                Err(v) => {
                    println!("INVALID: {v}");
                    std::process::exit(3);
                }
            }
        }
        "partition" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            let g = load_graph(path);
            use domatic::core::augment::augment_partition;
            use domatic::core::feige::{feige_partition, FeigeParams};
            use domatic::core::greedy::greedy_domatic_partition;
            let classes = match o.alg.as_str() {
                // "uniform" is parse_opts' default; map it to greedy here.
                "greedy" | "uniform" => greedy_domatic_partition(&g),
                "feige" => {
                    feige_partition(
                        &g,
                        &FeigeParams {
                            c: 3.0,
                            max_sweeps: 60,
                            seed: o.seed,
                        },
                    )
                    .classes
                }
                "augmented" => augment_partition(&g, greedy_domatic_partition(&g)).classes,
                _ => usage(),
            };
            println!(
                "{} disjoint dominating sets (δ+1 ceiling: {})",
                classes.len(),
                g.min_degree().map_or(0, |d| d + 1)
            );
            for (i, c) in classes.iter().enumerate() {
                if o.verbose {
                    println!("  class {i}: {:?}", c.to_vec());
                } else if i < 5 {
                    println!("  class {i}: {} nodes", c.len());
                }
            }
            if !o.verbose && classes.len() > 5 {
                println!("  … ({} more; --verbose for members)", classes.len() - 5);
            }
        }
        "simulate" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            let g = load_graph(path);
            use domatic::core::greedy::greedy_domatic_partition;
            use domatic::netsim::{
                simulate, AllActive, DomaticRotation, EnergyModel, SimConfig, SingleMds, Strategy,
            };
            let cfg = SimConfig {
                model: EnergyModel::standard(),
                k: o.k,
                max_slots: 1_000_000,
                switch_cost: 0.0,
            };
            let energies = vec![o.b as f64; g.n()];
            let batteries = Batteries::uniform(g.n(), o.b);
            let scfg = solver_config(&o);
            let classes = greedy_domatic_partition(&g);
            let mut strategies: Vec<Box<dyn Strategy>> = vec![
                Box::new(AllActive),
                Box::new(SingleMds::static_once()),
                Box::new(DomaticRotation::new(classes, 1)),
            ];
            // One schedule-playback row per registered solver.
            let mut labels: Vec<String> = strategies.iter().map(|s| s.name().to_string()).collect();
            for solver in solver_registry() {
                match solver.schedule(&g, &batteries, &scfg) {
                    Ok(s) => {
                        labels.push(format!("schedule[{}]", solver.name()));
                        strategies.push(Box::new(FollowSchedule::new(s)));
                    }
                    Err(e) => eprintln!("skipping {}: {e}", solver.name()),
                }
            }
            println!(
                "{:<22} {:>10} {:>12} {:>12}",
                "strategy", "lifetime", "delivered", "mean awake"
            );
            for (label, s) in labels.iter().zip(strategies.iter_mut()) {
                let res = simulate(&g, &energies, s.as_mut(), &cfg, None);
                println!(
                    "{:<22} {:>10} {:>12} {:>12.1}",
                    label, res.lifetime, res.delivered, res.mean_active
                );
            }
        }
        "adapt" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            if o.hops > 1 {
                // Same policy (and same typed error) as the serve layer:
                // the adaptive runtime's coverage census is strictly
                // 1-hop, so planning d-hop schedules under it would
                // misjudge coverage.
                eprintln!(
                    "{}",
                    domatic::core::DomaticError::Config {
                        message: "adapt does not support --hops > 1".into(),
                    }
                );
                std::process::exit(2);
            }
            let g = load_graph(path);
            let batteries = Batteries::uniform(g.n(), o.b);
            let solver = resolve_solver(&o.alg);
            let scfg = solver_config(&o);
            let Some(models) = FailureModel::parse(&o.failures, o.p) else {
                eprintln!(
                    "unknown failure model '{}'; use none|crash|battery-noise|transient-loss|all",
                    o.failures
                );
                std::process::exit(2);
            };
            let plan = FailurePlan::draw(&models, g.n(), o.slots, o.seed);
            let acfg = AdaptiveConfig {
                k: o.k,
                drift_tolerance: o.drift,
                max_retries: o.retries,
                max_slots: o.slots,
                max_replans: 64,
                record_curve: true,
            };
            let cmp = compare_static_adaptive(&g, &batteries, solver.as_ref(), &scfg, &acfg, &plan)
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
            let (crashes, drains, losses) = plan.event_counts();
            if o.json {
                // Hand-rendered with a fixed field order so two same-seed
                // runs emit byte-identical output.
                let curve: Vec<String> = cmp
                    .adaptive
                    .coverage_curve
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"slot\":{},\"covered\":{},\"alive\":{}}}",
                            p.slot, p.covered, p.alive
                        )
                    })
                    .collect();
                println!(
                    "{{\"n\":{},\"alg\":\"{}\",\"failures\":\"{}\",\"p\":{:?},\"seed\":{},\"b\":{},\"k\":{},\"planned\":{},\"crashes\":{crashes},\"drains\":{drains},\"losses\":{losses},\"static_lifetime\":{},\"static_end\":\"{}\",\"adaptive_lifetime\":{},\"adaptive_end\":\"{}\",\"delta\":{},\"replans\":{},\"retries\":{},\"deaths\":{},\"coverage_curve\":[{}]}}",
                    g.n(),
                    solver.name(),
                    o.failures,
                    o.p,
                    o.seed,
                    o.b,
                    o.k,
                    cmp.planned,
                    cmp.static_run.lifetime,
                    cmp.static_run.end.label(),
                    cmp.adaptive.lifetime,
                    cmp.adaptive.end.label(),
                    cmp.delta(),
                    cmp.adaptive.replans,
                    cmp.adaptive.retries,
                    cmp.adaptive.deaths,
                    curve.join(",")
                );
            } else {
                println!(
                    "{} | failures {} (p = {}) | {} crashes, {} double drains, {} losses drawn",
                    solver.describe(),
                    o.failures,
                    o.p,
                    crashes,
                    drains,
                    losses
                );
                println!(
                    "planned lifetime {} | static survives {} ({}) | adaptive survives {} ({})",
                    cmp.planned,
                    cmp.static_run.lifetime,
                    cmp.static_run.end.label(),
                    cmp.adaptive.lifetime,
                    cmp.adaptive.end.label()
                );
                println!(
                    "delta +{} slots | {} replans | {} retries | {} deaths",
                    cmp.delta().max(0),
                    cmp.adaptive.replans,
                    cmp.adaptive.retries,
                    cmp.adaptive.deaths
                );
                if o.verbose {
                    for p in &cmp.adaptive.coverage_curve {
                        println!("  slot {:>6}: {}/{} covered", p.slot, p.covered, p.alive);
                    }
                }
            }
        }
        "render" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            let Some(out) = &o.out else {
                eprintln!("render needs --out <file.svg>");
                std::process::exit(2);
            };
            let g = load_graph(path);
            use domatic::core::augment::augment_partition;
            use domatic::core::feige::{feige_partition, FeigeParams};
            use domatic::core::greedy::greedy_domatic_partition;
            let classes = match o.alg.as_str() {
                "greedy" | "uniform" => greedy_domatic_partition(&g),
                "feige" => {
                    feige_partition(
                        &g,
                        &FeigeParams {
                            c: 3.0,
                            max_sweeps: 60,
                            seed: o.seed,
                        },
                    )
                    .classes
                }
                "augmented" => augment_partition(&g, greedy_domatic_partition(&g)).classes,
                _ => usage(),
            };
            let layout = domatic::viz::spring(&g, 80);
            let svg = domatic::viz::render_topology(
                &g,
                &layout,
                &classes,
                &domatic::viz::TopologyStyle::default(),
            );
            std::fs::write(out, svg).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            });
            println!("wrote {out} ({} classes)", classes.len());
        }
        "optimum" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let o = parse_opts(&rest[1..]);
            let g = load_graph(path);
            if g.n() > 24 {
                eprintln!(
                    "optimum enumerates minimal dominating sets; {} nodes is too many (max 24)",
                    g.n()
                );
                std::process::exit(1);
            }
            match lp_optimal_lifetime(&g, &vec![o.b as f64; g.n()], 5_000_000) {
                Ok(opt) => {
                    println!("exact L_OPT = {:.3}", opt.lifetime);
                    for (set, t) in &opt.schedule {
                        println!("  {set:?} × {t:.3}");
                    }
                }
                Err(e) => {
                    eprintln!("exact solve failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "serve" => cmd_serve(&rest),
        "bench-serve" => cmd_bench_serve(&rest),
        "scenario" => cmd_scenario(&rest),
        "top" => cmd_top(&rest),
        "profile" => cmd_profile(&rest),
        _ => usage(),
    }
}

/// Resolves a `serve --graph` SPEC: a path to an edge-list file, or a
/// synthetic spec `ring:N` (cycle with skip-3 chords, the CI smoke
/// topology) / `gnp:N,DEG,SEED` (Erdős–Rényi at target average degree) /
/// `dense:N,K` (banded dense-linear: node `i` adjacent to its `K`
/// predecessors, the adversarial topology from the scenario campaign —
/// every window of `K+1` consecutive nodes is a clique, so domination
/// is easy but disjoint classes are scarce).
fn graph_from_spec(spec: &str) -> Graph {
    if let Some(n) = spec.strip_prefix("ring:") {
        let n: u32 = n.parse().unwrap_or_else(|_| {
            eprintln!("ring:N needs an integer node count, got '{spec}'");
            std::process::exit(2);
        });
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i + 3) % n)])
            .collect();
        return Graph::from_edges(n as usize, &edges);
    }
    if let Some(params) = spec.strip_prefix("gnp:") {
        let parts: Vec<&str> = params.split(',').collect();
        let parsed = (|| {
            let [n, d, seed] = parts.as_slice() else {
                return None;
            };
            Some((
                n.parse::<usize>().ok()?,
                d.parse::<f64>().ok()?,
                seed.parse::<u64>().ok()?,
            ))
        })();
        let Some((n, d, seed)) = parsed else {
            eprintln!("gnp:N,DEG,SEED is malformed in '{spec}'");
            std::process::exit(2);
        };
        return domatic::graph::generators::gnp::gnp_with_avg_degree(n, d, seed);
    }
    if let Some(params) = spec.strip_prefix("dense:") {
        let parsed = params
            .split_once(',')
            .and_then(|(n, k)| Some((n.parse::<u32>().ok()?, k.parse::<u32>().ok()?)));
        let Some((n, k)) = parsed.filter(|&(n, k)| n >= 2 && k >= 1) else {
            eprintln!("dense:N,K needs N >= 2 nodes and band K >= 1, got '{spec}'");
            std::process::exit(2);
        };
        let edges: Vec<(u32, u32)> = (1..n)
            .flat_map(|i| (1..=k.min(i)).map(move |j| (i, i - j)))
            .collect();
        return Graph::from_edges(n as usize, &edges);
    }
    load_graph(spec)
}

fn cmd_serve(rest: &[String]) {
    use domatic::server::{Server, ServerConfig};
    let mut cfg = ServerConfig::default();
    let mut graphs: Vec<(String, String)> = Vec::new();
    let mut port: Option<u16> = None;
    let mut access_log: Option<String> = None;
    let mut metrics_port: Option<u16> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--graph" => {
                let v = next("--graph");
                let Some((name, spec)) = v.split_once('=') else {
                    eprintln!("--graph takes NAME=SPEC, got '{v}'");
                    std::process::exit(2);
                };
                graphs.push((name.to_string(), spec.to_string()));
            }
            "--port" => port = Some(next("--port").parse().unwrap_or_else(|_| usage())),
            "--stdio" => port = None,
            "--capacity" => cfg.capacity = next("--capacity").parse().unwrap_or_else(|_| usage()),
            "--batch-window-ms" => {
                cfg.batch_window = std::time::Duration::from_millis(
                    next("--batch-window-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--cache-bytes" => {
                cfg.cache_bytes = next("--cache-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--access-log" => access_log = Some(next("--access-log")),
            "--metrics-port" => {
                metrics_port = Some(next("--metrics-port").parse().unwrap_or_else(|_| usage()))
            }
            "--slow-ms" => {
                cfg.slow_ms = Some(next("--slow-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--trace-ring" => {
                cfg.trace_ring = next("--trace-ring").parse().unwrap_or_else(|_| usage())
            }
            "--shards" => {
                cfg.shards = next("--shards")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--shed-join-waiters" => {
                cfg.shed_join_waiters = next("--shed-join-waiters")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    // A 1024-fd inherited soft limit caps a 10k-connection server far
    // below its design point; raise it up front (best effort).
    let _ = mio::sys::raise_nofile_limit(65_536);
    if graphs.is_empty() {
        graphs.push(("main".into(), "ring:24".into()));
    }
    let shards = cfg.shards;
    let server = Server::new(cfg);
    for (name, spec) in &graphs {
        server.add_graph(name.clone(), graph_from_spec(spec));
    }
    let server = std::sync::Arc::new(server);
    if let Some(path) = &access_log {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot open access log {path}: {e}");
            std::process::exit(1);
        });
        server.set_access_log(Box::new(std::io::BufWriter::new(file)));
        eprintln!("access log: {path}");
    }
    if let Some(mp) = metrics_port {
        let listener = std::net::TcpListener::bind(("127.0.0.1", mp)).unwrap_or_else(|e| {
            eprintln!("cannot bind metrics port 127.0.0.1:{mp}: {e}");
            std::process::exit(1);
        });
        let addr = listener.local_addr().expect("bound socket has an address");
        // The obs-smoke harness greps for this exact line to learn the
        // scrape address.
        println!("metrics on {addr}");
        let srv = std::sync::Arc::clone(&server);
        std::thread::spawn(move || serve_metrics(&srv, listener));
    }
    eprintln!("graphs: {}", server.graph_names().join(", "));
    match port {
        None => {
            eprintln!("serving JSON-lines on stdio (EOF or op=shutdown drains)");
            server.serve_stdio();
        }
        Some(port) => {
            let listener = std::net::TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
                eprintln!("cannot bind 127.0.0.1:{port}: {e}");
                std::process::exit(1);
            });
            let addr = listener.local_addr().expect("bound socket has an address");
            // The smoke harness greps for this exact line to learn the port.
            println!("listening on {addr}");
            eprintln!("transport: evented, {shards} shard(s)");
            if let Err(e) = server.serve_tcp(listener) {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
    }
    let s = server.stats();
    eprintln!(
        "drained: {} requests, {} solves, {} cache hits, {} batch joins, {} errors",
        s.requests, s.solves, s.cache_hits, s.batch_joined, s.errors
    );
}

/// The `--metrics-port` scrape loop: a minimal plain-text HTTP/1.0
/// responder. Every connection gets one fresh registry snapshot in
/// Prometheus text exposition format and is closed — exactly what a
/// scraper (or `curl`) expects, with no HTTP machinery beyond it.
fn serve_metrics(server: &domatic::server::Server, listener: std::net::TcpListener) {
    use std::io::{BufRead, BufReader, Write};
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        });
        // Drain the request head (request line + headers) up to the
        // blank line; the path is irrelevant — every scrape gets the
        // full exposition.
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line == "\r\n" || line == "\n" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let body = server.metrics_text();
        let mut stream = stream;
        let _ = write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.flush();
    }
}

/// One `metrics`-op round trip over an established JSON-lines
/// connection: sends the request, reads one response line, and returns
/// the parsed exposition as a [`Snapshot`].
fn scrape_snapshot(
    stream: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    id: u64,
) -> Result<domatic_telemetry::Snapshot, String> {
    use std::io::{BufRead, Write};
    writeln!(stream, "{{\"id\":{id},\"op\":\"metrics\"}}").map_err(|e| e.to_string())?;
    let mut line = String::new();
    if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
        return Err("server closed the connection".into());
    }
    let v =
        domatic_telemetry::json::parse(line.trim()).map_err(|e| format!("bad response: {e}"))?;
    let text = v
        .get("result")
        .and_then(|r| r.get("exposition"))
        .and_then(|t| t.as_str())
        .ok_or_else(|| format!("response has no exposition: {}", line.trim()))?;
    domatic_telemetry::prometheus::parse_snapshot(text)
}

/// `domatic top`: polls a running server's `metrics` op and renders a
/// refreshing live table — request rate, in-flight, shed, cache
/// hit-rate, and per-op latency quantiles, all computed from
/// [`Snapshot::delta`] windows so they are rates, not lifetime totals.
fn cmd_top(rest: &[String]) {
    let mut addr = String::new();
    let mut interval_ms = 1000u64;
    let mut iterations = 0u64; // 0 = run until interrupted
    let mut clear = true;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => addr = next("--addr"),
            "--interval-ms" => {
                interval_ms = next("--interval-ms").parse().unwrap_or_else(|_| usage())
            }
            "--iterations" => iterations = next("--iterations").parse().unwrap_or_else(|_| usage()),
            "--no-clear" => clear = false,
            _ => usage(),
        }
    }
    if addr.is_empty() {
        eprintln!("top needs --addr HOST:PORT");
        std::process::exit(2);
    }
    let stream = std::net::TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let mut prev: Option<domatic_telemetry::Snapshot> = None;
    let mut tick = 0u64;
    loop {
        tick += 1;
        let snap = match scrape_snapshot(&mut stream, &mut reader, tick) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("top: {e}");
                std::process::exit(1);
            }
        };
        if let Some(prev_snap) = &prev {
            let d = snap.delta(prev_snap);
            let secs = interval_ms as f64 / 1e3;
            let counter = |name: &str| *d.counters.get(name).unwrap_or(&0);
            let hits = counter("server_cache_hit") as f64;
            let misses = counter("server_cache_miss") as f64;
            let hit_rate = if hits + misses > 0.0 {
                100.0 * hits / (hits + misses)
            } else {
                0.0
            };
            if clear {
                // ANSI clear-screen + home, the classic `top` refresh.
                print!("\x1b[2J\x1b[H");
            }
            println!(
                "domatic top — {addr} — window {interval_ms} ms (tick {})",
                tick - 1
            );
            println!(
                "req/s {:>8.1} | in-flight {:>4} | shed/s {:>6.1} | errors/s {:>6.1} | cache hit {hit_rate:>5.1}%",
                counter("server_requests") as f64 / secs,
                snap.gauges.get("server_inflight").unwrap_or(&0),
                counter("server_overload") as f64 / secs,
                counter("server_errors") as f64 / secs,
            );
            println!(
                "{:<10} {:>8} {:>10} {:>10} {:>10}",
                "op", "count", "p50_us", "p99_us", "max<=us"
            );
            if let Some(fam) = d.labeled.get("server_request_latency_us") {
                for (cell, summary) in fam {
                    if summary.count == 0 {
                        continue;
                    }
                    // Cell keys look like `op="solve"`.
                    let op = cell
                        .strip_prefix("op=\"")
                        .and_then(|s| s.strip_suffix('"'))
                        .unwrap_or(cell);
                    let top_bucket = summary
                        .bounds
                        .iter()
                        .zip(&summary.counts)
                        .filter(|(_, c)| **c > 0)
                        .map(|(b, _)| *b)
                        .next_back()
                        .unwrap_or(0);
                    println!(
                        "{op:<10} {:>8} {:>10} {:>10} {:>10}",
                        summary.count,
                        summary.quantile(0.50),
                        summary.quantile(0.99),
                        top_bucket,
                    );
                }
            }
        } else {
            println!("domatic top — {addr} — collecting first window…");
        }
        prev = Some(snap);
        if iterations > 0 && tick > iterations {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `domatic profile`: fetches a running server's `profile` op and
/// prints collapsed-stack (flamegraph) lines — span aggregates as
/// `path;segments value_ns`, and the trace ring aggregated per
/// (op, graph, alg) into queue/solve/render phase frames.
fn cmd_profile(rest: &[String]) {
    use std::io::{BufRead, Write};
    let mut addr = String::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--addr needs a value");
                    std::process::exit(2);
                })
            }
            _ => usage(),
        }
    }
    if addr.is_empty() {
        eprintln!("profile needs --addr HOST:PORT");
        std::process::exit(2);
    }
    let stream = std::net::TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    writeln!(stream, "{{\"id\":1,\"op\":\"profile\"}}").expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    let v = domatic_telemetry::json::parse(line.trim()).unwrap_or_else(|e| {
        eprintln!("profile: bad response: {e}");
        std::process::exit(1);
    });
    let result = v.get("result").cloned().unwrap_or_else(|| {
        eprintln!("profile: error response: {}", line.trim());
        std::process::exit(1);
    });

    // Span aggregates: `a/b/c` paths become `a;b;c total_ns` frames.
    let mut span_lines = 0usize;
    if let Some(domatic_telemetry::json::Json::Obj(spans)) = result.get("spans") {
        for (path, stat) in spans {
            let Some(total_ns) = stat.get("total_ns").and_then(|t| t.as_int()) else {
                continue;
            };
            println!("{} {total_ns}", path.replace('/', ";"));
            span_lines += 1;
        }
    }

    // Trace ring: aggregate phase time per (op, graph, alg) identity so
    // repeated requests collapse into hot frames. Values are ns to
    // match the span lines (records carry µs).
    let mut phases: std::collections::BTreeMap<String, i128> = std::collections::BTreeMap::new();
    let mut ring_records = 0usize;
    if let Some(domatic_telemetry::json::Json::Arr(ring)) = result.get("ring") {
        ring_records = ring.len();
        for rec in ring {
            let field = |k: &str| {
                rec.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            let us = |k: &str| rec.get(k).and_then(|v| v.as_int()).unwrap_or(0);
            let mut stack = format!("serve;{};{}", field("op"), field("graph"));
            // `bounds` and `mutate` records carry no solver: no `alg` frame.
            let alg = field("alg");
            if !alg.is_empty() {
                stack.push(';');
                stack.push_str(&alg);
            }
            for (phase, dur_us) in [
                ("queue_wait", us("queue_us")),
                ("solve", us("solve_us")),
                ("render", us("render_us")),
            ] {
                *phases.entry(format!("{stack};{phase}")).or_default() += dur_us * 1000;
            }
        }
    }
    for (stack, ns) in &phases {
        if *ns > 0 {
            println!("{stack} {ns}");
        }
    }
    eprintln!(
        "profile: {ring_records} ring records, {span_lines} span paths (collapsed-stack on stdout; pipe to flamegraph.pl)"
    );
}

/// The synthetic bench-serve workload: a mixed solve/bounds trace with
/// deliberate key duplicates (seeds cycle mod 3) so batching and caching
/// have something to coalesce. Deterministic in (`n`, `graphs`, `seed`).
fn synthetic_trace(n: usize, graphs: &[String], seed: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let graph = &graphs[i % graphs.len()];
            let id = i + 1;
            if i % 4 == 0 {
                format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"{graph}\",\"b\":3}}")
            } else {
                let alg = if i % 2 == 0 { "greedy" } else { "uniform" };
                format!(
                    "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"{alg}\",\"b\":3,\"seed\":{}}}",
                    seed + (i % 3) as u64
                )
            }
        })
        .collect()
}

fn bench_die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Nearest-rank `p` quantile of an ascending sample: its `⌈p·n⌉`-th
/// smallest value, or 0 for an empty sample.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    // The epsilon keeps an exact product such as 0.9 · 10 at rank 9.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// One bench connection in the evented client.
struct BenchConn {
    stream: std::net::TcpStream,
    /// Trace indices assigned to this connection, in send order.
    lines: Vec<usize>,
    /// Next entry of `lines` to send (closed loop only).
    next: usize,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Send (closed loop) or scheduled-arrival (open loop) instants of
    /// requests whose responses are still outstanding, FIFO. Matching
    /// responses to requests by position is sound because the server
    /// answers each connection in receipt order.
    pending: std::collections::VecDeque<std::time::Instant>,
    want_write: bool,
}

impl BenchConn {
    fn queue(&mut self, line: &str, t0: std::time::Instant) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.pending.push_back(t0);
    }

    /// Writes until the socket blocks or the backlog drains, keeping
    /// writable interest registered exactly while backlog remains.
    fn flush(&mut self, poll: &mio::Poll, token: usize) {
        use std::io::Write;
        loop {
            if self.out_pos >= self.out.len() {
                self.out.clear();
                self.out_pos = 0;
                break;
            }
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => bench_die("server closed the connection mid-trace"),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => bench_die(&format!("write to server failed: {e}")),
            }
        }
        let backlog = self.out_pos < self.out.len();
        if backlog != self.want_write {
            let interest = if backlog {
                mio::Interest::READABLE | mio::Interest::WRITABLE
            } else {
                mio::Interest::READABLE
            };
            let _ = poll.reregister(&self.stream, mio::Token(token), interest);
            self.want_write = backlog;
        }
    }
}

/// One measured bench run.
struct BenchRun {
    clients: usize,
    mode: &'static str,
    /// Arrival rate in requests/s (0 for closed loop).
    rate: f64,
    requests: usize,
    errors: u64,
    wall_ms: u128,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    throughput_rps: f64,
    digest: u64,
    /// Sorted, for the `--json` histogram.
    latencies_us: Vec<u64>,
}

/// Drives one bench run: `clients` real sockets multiplexed over one
/// epoll on a single thread. Closed loop sends each connection's next
/// request when its previous response lands (latency from send). Open
/// loop departs request `k` at `start + k/rate` on connection
/// `k % clients` regardless of response progress, and measures latency
/// from that *scheduled* instant — so queueing delay under overload is
/// charged to the server instead of being coordinated away.
fn run_evented_bench(
    addr: &str,
    trace: &[String],
    clients: usize,
    mode: &'static str,
    rate: f64,
) -> BenchRun {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let total = trace.len();
    let clients = clients.clamp(1, total.max(1));
    let open = mode == "open";

    let poll = mio::Poll::new().expect("epoll");
    let mut conns: Vec<BenchConn> = Vec::with_capacity(clients);
    for c in 0..clients {
        // Retry connects: a 10k-connection storm can overflow the
        // listener's accept backlog; back off instead of failing.
        let mut stream = None;
        for attempt in 0..200 {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) if attempt == 199 => bench_die(&format!("cannot connect to {addr}: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let stream = stream.expect("connected");
        stream
            .set_nonblocking(true)
            .expect("nonblocking client socket");
        let _ = stream.set_nodelay(true);
        poll.register(&stream, mio::Token(c), mio::Interest::READABLE)
            .expect("register client socket");
        conns.push(BenchConn {
            stream,
            lines: Vec::new(),
            next: 0,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            pending: std::collections::VecDeque::new(),
            want_write: false,
        });
        if c % 64 == 63 {
            // Pace the connect storm so the accept loop keeps up.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for k in 0..total {
        conns[k % clients].lines.push(k);
    }

    let mut latencies_us: Vec<u64> = Vec::with_capacity(total);
    let mut responses: Vec<String> = Vec::with_capacity(total);
    let mut errors = 0u64;
    let mut received = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut events = mio::Events::with_capacity(1024);
    let mut next_arrival = 0usize;
    let mut touched: Vec<usize> = Vec::new();

    let started = Instant::now();
    let deadline = started + Duration::from_secs(180);
    if !open {
        for (c, conn) in conns.iter_mut().enumerate() {
            if let Some(&k) = conn.lines.first() {
                conn.next = 1;
                conn.queue(&trace[k], Instant::now());
                conn.flush(&poll, c);
            }
        }
    }

    while received < total {
        let now = Instant::now();
        if now >= deadline {
            bench_die(&format!(
                "bench timed out: {received}/{total} responses after {:?}",
                started.elapsed()
            ));
        }
        let timeout = if open && next_arrival < total {
            let sched = started + Duration::from_secs_f64(next_arrival as f64 / rate);
            sched
                .saturating_duration_since(now)
                .clamp(Duration::from_millis(1), Duration::from_millis(100))
        } else {
            Duration::from_millis(100)
        };
        poll.poll(&mut events, Some(timeout)).expect("poll");

        for ev in events.iter() {
            let c = ev.token().0;
            if c >= conns.len() {
                continue;
            }
            if ev.is_readable() || ev.is_read_closed() {
                let mut eof = false;
                loop {
                    match conns[c].stream.read(&mut scratch) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => conns[c].inbuf.extend_from_slice(&scratch[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => bench_die(&format!("read from server failed: {e}")),
                    }
                }
                // Frame complete response lines; FIFO-match to sends.
                let conn = &mut conns[c];
                let mut start = 0usize;
                let mut queued = false;
                while let Some(pos) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
                    let end = start + pos;
                    let line = String::from_utf8_lossy(&conn.inbuf[start..end])
                        .trim()
                        .to_string();
                    start = end + 1;
                    if line.is_empty() {
                        continue;
                    }
                    if let Some(t0) = conn.pending.pop_front() {
                        latencies_us.push(t0.elapsed().as_micros() as u64);
                    }
                    if line.contains("\"ok\":false") {
                        errors += 1;
                    }
                    responses.push(line);
                    received += 1;
                    if !open && conn.next < conn.lines.len() {
                        let k = conn.lines[conn.next];
                        conn.next += 1;
                        conn.queue(&trace[k], Instant::now());
                        queued = true;
                    }
                }
                conn.inbuf.drain(..start);
                if queued {
                    conn.flush(&poll, c);
                }
                if eof && !conn.pending.is_empty() {
                    bench_die("server closed the connection mid-trace");
                }
            }
            if ev.is_writable() {
                conns[c].flush(&poll, c);
            }
        }

        if open {
            // Depart every request whose scheduled arrival has passed.
            // The schedule itself never slips: a request that departs
            // late (because the loop was busy) keeps its scheduled
            // instant as its latency origin.
            touched.clear();
            let now = Instant::now();
            while next_arrival < total {
                let sched = started + Duration::from_secs_f64(next_arrival as f64 / rate);
                if sched > now {
                    break;
                }
                let c = next_arrival % clients;
                conns[c].queue(&trace[next_arrival], sched);
                touched.push(c);
                next_arrival += 1;
            }
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                conns[c].flush(&poll, c);
            }
        }
    }
    let wall = started.elapsed();

    latencies_us.sort_unstable();
    let pct = |p| nearest_rank(&latencies_us, p);
    let (p50, p99, p999) = (pct(0.50), pct(0.99), pct(0.999));
    let throughput = responses.len() as f64 / wall.as_secs_f64().max(1e-9);

    // Order-independent digest of the response bytes: sort the lines,
    // then canonical-hash them. Equal digests across shard counts,
    // client counts, arrival modes, or cache states prove byte-identical
    // serving.
    responses.sort_unstable();
    let mut hasher = domatic::core::hash::CanonicalHasher::new();
    for r in &responses {
        hasher.write_str(r);
    }
    BenchRun {
        clients,
        mode,
        rate: if open { rate } else { 0.0 },
        requests: responses.len(),
        errors,
        wall_ms: wall.as_millis(),
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        throughput_rps: throughput,
        digest: hasher.finish(),
        latencies_us,
    }
}

fn print_bench_run(run: &BenchRun, json: bool) {
    if json {
        // Full latency histogram in the same bucket layout as the
        // metrics exposition, so bench artifacts and live scrapes are
        // directly comparable.
        let hist = domatic_telemetry::BucketHistogram::new(
            &domatic_telemetry::default_latency_buckets_us(),
        );
        for &us in &run.latencies_us {
            hist.record(us);
        }
        let s = hist.summarize();
        let join = |v: &[u64]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "{{\"clients\":{},\"digest\":\"{:016x}\",\"errors\":{},\"latency\":{{\"bounds_us\":[{}],\"counts\":[{}],\"count\":{},\"sum_us\":{}}},\"mode\":\"{}\",\"p50_us\":{},\"p999_us\":{},\"p99_us\":{},\"rate\":{},\"requests\":{},\"throughput_rps\":{:.1},\"wall_ms\":{}}}",
            run.clients,
            run.digest,
            run.errors,
            join(&s.bounds),
            join(&s.counts),
            s.count,
            s.sum,
            run.mode,
            run.p50_us,
            run.p999_us,
            run.p99_us,
            run.rate,
            run.requests,
            run.throughput_rps,
            run.wall_ms
        );
    } else {
        let pace = if run.mode == "open" {
            format!("open loop @ {:.0} req/s", run.rate)
        } else {
            "closed loop".to_string()
        };
        println!(
            "{} requests over {} connections ({pace}) in {} ms",
            run.requests, run.clients, run.wall_ms
        );
        println!(
            "latency p50 {} us, p99 {} us, p99.9 {} us | throughput {:.1} req/s | {} errors",
            run.p50_us, run.p99_us, run.p999_us, run.throughput_rps, run.errors
        );
        println!("response digest {:016x}", run.digest);
    }
}

/// The connection-scaling matrix behind `bench-serve --matrix`: for each
/// client count, one closed-loop and one open-loop run over the same
/// synthetic trace (request count scales with the client count so every
/// connection gets work). Closed and open runs of one client count must
/// produce byte-identical response multisets; the digests land in the
/// output file, which CI re-checks against a fresh run.
fn run_bench_matrix(addr: &str, graphs: &[String], seed: u64, clients_list: &[usize], out: &str) {
    let mut rows: Vec<String> = Vec::new();
    let mut failed = false;
    for &clients in clients_list {
        let requests = (clients * 2).max(1000);
        let trace = synthetic_trace(requests, graphs, seed);
        let rate = (clients as f64).max(1000.0);
        let mut digests = Vec::new();
        for mode in ["closed", "open"] {
            eprintln!("matrix: {clients} clients, {mode} loop, {requests} requests ...");
            let run = run_evented_bench(addr, &trace, clients, mode, rate);
            eprintln!(
                "matrix: {clients} clients {mode}: p50 {} us, p99 {} us, p99.9 {} us | {:.1} req/s | {} errors",
                run.p50_us, run.p99_us, run.p999_us, run.throughput_rps, run.errors
            );
            if run.errors > 0 {
                failed = true;
            }
            digests.push(run.digest);
            rows.push(format!(
                "{{\"clients\":{},\"digest\":\"{:016x}\",\"errors\":{},\"mode\":\"{}\",\"p50_us\":{},\"p999_us\":{},\"p99_us\":{},\"rate\":{},\"requests\":{},\"throughput_rps\":{:.1},\"wall_ms\":{}}}",
                run.clients,
                run.digest,
                run.errors,
                run.mode,
                run.p50_us,
                run.p999_us,
                run.p99_us,
                run.rate,
                run.requests,
                run.throughput_rps,
                run.wall_ms
            ));
        }
        if digests[0] != digests[1] {
            eprintln!(
                "matrix: closed vs open digests differ at {clients} clients: {:016x} vs {:016x}",
                digests[0], digests[1]
            );
            failed = true;
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let graphs_json = graphs
        .iter()
        .map(|g| format!("\"{g}\""))
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!(
        "{{\"bench\":\"serve-matrix\",\"graphs\":[{graphs_json}],\"machine\":{{\"arch\":\"{}\",\"cores\":{cores},\"os\":\"{}\"}},\"rows\":[{}],\"seed\":{seed}}}\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        rows.join(",")
    );
    std::fs::write(out, &doc).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("matrix: wrote {out}");
    if failed {
        std::process::exit(1);
    }
}

fn cmd_bench_serve(rest: &[String]) {
    let mut addr = String::new();
    let mut requests = 50usize;
    let mut clients = 8usize;
    let mut mode: &'static str = "closed";
    let mut rate = 0.0f64;
    let mut graphs = vec!["main".to_string()];
    let mut trace_file: Option<String> = None;
    let mut seed = 0u64;
    let mut json = false;
    let mut matrix = false;
    let mut clients_list = vec![100usize, 1000, 10000];
    let mut out = "BENCH_serve.json".to_string();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => addr = next("--addr"),
            "--requests" => requests = next("--requests").parse().unwrap_or_else(|_| usage()),
            "--clients" | "--concurrency" => {
                clients = next("--clients").parse().unwrap_or_else(|_| usage())
            }
            "--mode" => {
                mode = match next("--mode").as_str() {
                    "closed" => "closed",
                    "open" => "open",
                    _ => usage(),
                }
            }
            "--rate" => rate = next("--rate").parse().unwrap_or_else(|_| usage()),
            "--graphs" => graphs = next("--graphs").split(',').map(str::to_string).collect(),
            "--trace-file" => trace_file = Some(next("--trace-file")),
            "--seed" => seed = next("--seed").parse().unwrap_or_else(|_| usage()),
            "--json" => json = true,
            "--matrix" => matrix = true,
            "--clients-list" => {
                clients_list = next("--clients-list")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--out" => out = next("--out"),
            _ => usage(),
        }
    }
    if addr.is_empty() {
        eprintln!("bench-serve needs --addr HOST:PORT");
        std::process::exit(2);
    }
    // Ten thousand sockets need more than the usual 1024-fd soft limit.
    let _ = mio::sys::raise_nofile_limit(65_536);

    if matrix {
        run_bench_matrix(&addr, &graphs, seed, &clients_list, &out);
        return;
    }

    let trace: Vec<String> = match &trace_file {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            })
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect(),
        None => synthetic_trace(requests, &graphs, seed),
    };
    if mode == "open" && rate <= 0.0 {
        rate = 1000.0;
    }
    let run = run_evented_bench(&addr, &trace, clients, mode, rate);
    print_bench_run(&run, json);
    if run.errors > 0 {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// `domatic scenario` — the seeded churn campaign runner.
// ---------------------------------------------------------------------------

/// One blocking JSON-lines connection to a live server. Requests carry
/// ids from a single monotone counter and are strictly
/// request/response, so the byte stream a campaign observes is a pure
/// function of (seed, quick) — independent of the server's shard count,
/// which is exactly what the CI matrix gates on.
struct ScenarioClient {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
    next_id: u64,
}

impl ScenarioClient {
    fn connect(addr: &str) -> ScenarioClient {
        let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
        // Strict request/response: with Nagle on, a request can sit
        // behind the server's delayed ACK for ~40 ms.
        let _ = stream.set_nodelay(true);
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        ScenarioClient {
            stream,
            reader,
            next_id: 0,
        }
    }

    /// Sends `{"id":<next>,<body>}` as one write and blocks for the one
    /// response line. Returns the trimmed line and the round-trip micros.
    fn rpc(&mut self, body: &str) -> (String, u64) {
        use std::io::{BufRead, Write};
        self.next_id += 1;
        let request = format!("{{\"id\":{},{body}}}\n", self.next_id);
        let start = std::time::Instant::now();
        self.stream
            .write_all(request.as_bytes())
            .unwrap_or_else(|e| {
                eprintln!("scenario: write failed: {e}");
                std::process::exit(1);
            });
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("scenario: server closed the connection");
                std::process::exit(1);
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("scenario: read failed: {e}");
                std::process::exit(1);
            }
        }
        let us = start.elapsed().as_micros() as u64;
        (line.trim_end().to_string(), us)
    }
}

/// Accumulator for one campaign: receipt-order response lines (the
/// digest input), latencies, request-class counts, and every envelope
/// violation the campaign noticed.
struct ScenarioRun {
    name: &'static str,
    lines: Vec<String>,
    latencies_us: Vec<u64>,
    errors: u64,
    mutations: u64,
    solves: u64,
    violations: Vec<String>,
    wall_ms: u128,
}

impl ScenarioRun {
    fn new(name: &'static str) -> ScenarioRun {
        ScenarioRun {
            name,
            lines: Vec::new(),
            latencies_us: Vec::new(),
            errors: 0,
            mutations: 0,
            solves: 0,
            violations: Vec::new(),
            wall_ms: 0,
        }
    }

    /// The `result` object's text inside a response line, if the line
    /// is an `ok` response. Byte-exact slicing (no re-render) so two
    /// results compare equal iff the server sent identical payloads.
    fn result_slice(line: &str) -> Option<&str> {
        let idx = line.find("\"result\":")?;
        line.get(idx + "\"result\":".len()..line.len() - 1)
    }

    /// One round trip through `client`, recording the line, the
    /// latency, and whether the server said ok. Returns the response
    /// line on success, `None` (and counts an error) otherwise.
    fn call(&mut self, client: &mut ScenarioClient, body: &str) -> Option<String> {
        let (line, us) = client.rpc(body);
        self.latencies_us.push(us);
        self.lines.push(line.clone());
        let ok = domatic_telemetry::json::parse(&line)
            .ok()
            .and_then(|v| v.get("ok").cloned())
            .is_some_and(|b| matches!(b, domatic_telemetry::json::Json::Bool(true)));
        if ok {
            Some(line)
        } else {
            self.errors += 1;
            self.violations
                .push(format!("{}: error response: {line}", self.name));
            None
        }
    }

    /// A `mutate` round trip; returns the parsed result object.
    fn mutate(
        &mut self,
        client: &mut ScenarioClient,
        body: &str,
    ) -> Option<domatic_telemetry::json::Json> {
        self.mutations += 1;
        let line = self.call(client, body)?;
        domatic_telemetry::json::parse(&line)
            .ok()
            .and_then(|v| v.get("result").cloned())
    }

    /// A `solve` round trip; enforces the lifetime envelope and returns
    /// the byte-exact result slice.
    fn solve(
        &mut self,
        client: &mut ScenarioClient,
        graph: &str,
        alg: &str,
        seed: u64,
    ) -> Option<String> {
        self.solves += 1;
        let body =
            format!("\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"{alg}\",\"b\":3,\"k\":1,\"seed\":{seed}");
        let line = self.call(client, &body)?;
        let lifetime = domatic_telemetry::json::parse(&line).ok().and_then(|v| {
            v.get("result")
                .and_then(|r| r.get("lifetime"))
                .and_then(|l| l.as_int())
        });
        match lifetime {
            Some(l) if l >= 1 => {}
            other => self.violations.push(format!(
                "{}: solve lifetime envelope violated (lifetime {other:?} < 1): {line}",
                self.name
            )),
        }
        Self::result_slice(&line).map(str::to_string)
    }

    fn digest(&self) -> u64 {
        let mut h = domatic::core::hash::CanonicalHasher::new();
        for line in &self.lines {
            h.write_str(line);
        }
        h.finish()
    }

    /// The campaign's row in `BENCH_scenarios.json` — alphabetical
    /// field order, hand-rendered like every other bench artifact.
    /// Expects `latencies_us` sorted.
    fn row(&self) -> String {
        format!(
            "{{\"digest\":\"{:016x}\",\"errors\":{},\"mutations\":{},\"name\":\"{}\",\"p50_us\":{},\"p99_us\":{},\"requests\":{},\"solves\":{},\"wall_ms\":{}}}",
            self.digest(),
            self.errors,
            self.mutations,
            self.name,
            nearest_rank(&self.latencies_us, 0.50),
            nearest_rank(&self.latencies_us, 0.99),
            self.lines.len(),
            self.solves,
            self.wall_ms
        )
    }
}

/// A tiny deterministic index mixer for node/edge picks — NOT meant to
/// be a good PRNG, just a seed-sensitive, platform-stable spreading
/// function (splitmix-style multiply-xor).
fn scenario_pick(seed: u64, round: u64, salt: u64, modulus: u64) -> u64 {
    let mut x = seed
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 27;
    x % modulus
}

/// Crash waves: batches of `remove_node` against the Erdős–Rényi
/// `crash` graph, with `bounds` + `solve` probes after every wave. The
/// node ids shift down on each removal (the protocol compacts), so the
/// picks below are against the *current* population.
fn scenario_crash_wave(client: &mut ScenarioClient, quick: bool, seed: u64) -> ScenarioRun {
    let mut run = ScenarioRun::new("crash-wave");
    let start = std::time::Instant::now();
    let waves = if quick { 3 } else { 6 };
    let mut n: u64 = 32;
    run.solve(client, "crash", "greedy", seed);
    for wave in 0..waves {
        for j in 0..2u64 {
            let node = scenario_pick(seed, wave, j, n);
            run.mutate(
                client,
                &format!("\"op\":\"mutate\",\"graph\":\"crash\",\"action\":\"remove_node\",\"node\":{node}"),
            );
            n -= 1;
        }
        run.call(
            client,
            "\"op\":\"bounds\",\"graph\":\"crash\",\"b\":3,\"k\":1",
        );
        run.solve(client, "crash", "greedy", seed);
    }
    run.wall_ms = start.elapsed().as_millis();
    run
}

/// Link flap: remove an edge of the `flap` ring, re-solve, add it back,
/// re-solve — and require the post-re-add solve to be byte-identical to
/// the pre-flap baseline. The re-added graph has the same content hash
/// as the original, so this exercises the cache's tombstone *revive*
/// path end to end.
fn scenario_link_flap(client: &mut ScenarioClient, quick: bool, seed: u64) -> ScenarioRun {
    let mut run = ScenarioRun::new("link-flap");
    let start = std::time::Instant::now();
    let flips = if quick { 3 } else { 8 };
    let baseline = run.solve(client, "flap", "greedy", seed);
    for flip in 0..flips {
        let u = scenario_pick(seed, flip, 1, 24);
        let v = (u + 1) % 24;
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"flap\",\"action\":\"remove_edge\",\"u\":{u},\"v\":{v}"),
        );
        run.solve(client, "flap", "greedy", seed);
        run.mutate(
            client,
            &format!(
                "\"op\":\"mutate\",\"graph\":\"flap\",\"action\":\"add_edge\",\"u\":{u},\"v\":{v}"
            ),
        );
        let restored = run.solve(client, "flap", "greedy", seed);
        if restored != baseline {
            run.violations.push(format!(
                "link-flap: re-added edge ({u},{v}) did not restore the baseline solve bytes"
            ));
        }
    }
    run.wall_ms = start.elapsed().as_millis();
    run
}

/// Battery recharge: drain one node to 1 unit, re-solve under the
/// non-uniform overlay, recharge it past the default, re-solve. Uses
/// `greedy` throughout — the closed-form `uniform` solver rightly
/// refuses non-uniform batteries.
fn scenario_battery_recharge(client: &mut ScenarioClient, quick: bool, seed: u64) -> ScenarioRun {
    let mut run = ScenarioRun::new("battery-recharge");
    let start = std::time::Instant::now();
    let cycles = if quick { 3 } else { 6 };
    run.solve(client, "recharge", "greedy", seed);
    for cycle in 0..cycles {
        let node = scenario_pick(seed, cycle, 2, 18);
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"recharge\",\"action\":\"set_battery\",\"node\":{node},\"value\":1"),
        );
        run.solve(client, "recharge", "greedy", seed);
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"recharge\",\"action\":\"set_battery\",\"node\":{node},\"value\":4"),
        );
        run.solve(client, "recharge", "greedy", seed);
    }
    run.wall_ms = start.elapsed().as_millis();
    run
}

/// Dense-linear growth: the adversarial banded topology from the paper's
/// lower-bound family, grown one node at a time (`add_node` wired to its
/// three predecessors). Checks the mutate result's `n` climbs by exactly
/// one per step.
fn scenario_dense_growth(client: &mut ScenarioClient, quick: bool, seed: u64) -> ScenarioRun {
    let mut run = ScenarioRun::new("dense-growth");
    let start = std::time::Instant::now();
    let steps = if quick { 3 } else { 8 };
    let mut n: u64 = 12;
    run.solve(client, "dense", "greedy", seed);
    for _ in 0..steps {
        let result = run.mutate(
            client,
            &format!(
                "\"op\":\"mutate\",\"graph\":\"dense\",\"action\":\"add_node\",\"neighbors\":[{},{},{}]",
                n - 1,
                n - 2,
                n - 3
            ),
        );
        n += 1;
        let got = result
            .as_ref()
            .and_then(|r| r.get("n"))
            .and_then(|v| v.as_int());
        if got != Some(n as i128) {
            run.violations.push(format!(
                "dense-growth: add_node reported n {got:?}, expected {n}"
            ));
        }
        run.solve(client, "dense", "greedy", seed);
    }
    run.wall_ms = start.elapsed().as_millis();
    run
}

/// `domatic scenario`: replays the four seeded churn campaigns against
/// a live server and writes `BENCH_scenarios.json`. Exit status is the
/// envelope verdict — nonzero if any campaign saw an error response, a
/// solve below the lifetime floor, or a broken restore-equality check.
/// Digests hash the receipt-order response bytes, so CI can require
/// them byte-identical across shard counts and against the committed
/// artifact while leaving timings advisory.
fn cmd_scenario(rest: &[String]) {
    let mut addr = String::new();
    let mut quick = false;
    let mut seed = 0u64;
    let mut out = "BENCH_scenarios.json".to_string();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => addr = next("--addr"),
            "--quick" => quick = true,
            "--seed" => seed = next("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => out = next("--out"),
            _ => usage(),
        }
    }
    if addr.is_empty() {
        eprintln!("scenario needs --addr HOST:PORT");
        std::process::exit(2);
    }
    let mut client = ScenarioClient::connect(&addr);
    let mut runs = [
        scenario_crash_wave(&mut client, quick, seed),
        scenario_link_flap(&mut client, quick, seed),
        scenario_battery_recharge(&mut client, quick, seed),
        scenario_dense_growth(&mut client, quick, seed),
    ];
    let mut failed = false;
    for run in &mut runs {
        run.latencies_us.sort_unstable();
        eprintln!(
            "scenario {}: {} requests ({} mutations, {} solves), {} errors, digest {:016x}, p99 {} us, {} ms",
            run.name,
            run.lines.len(),
            run.mutations,
            run.solves,
            run.errors,
            run.digest(),
            nearest_rank(&run.latencies_us, 0.99),
            run.wall_ms
        );
        for v in &run.violations {
            eprintln!("scenario VIOLATION: {v}");
            failed = true;
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows: Vec<String> = runs.iter().map(ScenarioRun::row).collect();
    let doc = format!(
        "{{\"bench\":\"scenarios\",\"machine\":{{\"arch\":\"{}\",\"cores\":{cores},\"os\":\"{}\"}},\"quick\":{quick},\"rows\":[{}],\"seed\":{seed}}}\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        rows.join(",")
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("scenario: wrote {out}");
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_on_known_samples() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&ten, 0.0), 1);
        assert_eq!(nearest_rank(&ten, 0.5), 5);
        assert_eq!(nearest_rank(&ten, 0.9), 9);
        assert_eq!(nearest_rank(&ten, 0.99), 10);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
    }
}
