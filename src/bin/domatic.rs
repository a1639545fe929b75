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
//!               [--shards N] [--shed-join-waiters N] [--cache-bytes N] \
//!               [--access-log PATH] [--metrics-port P] [--slow-ms N] \
//!               [--trace-ring N]
//! domatic top --addr HOST:PORT [--interval-ms N] [--iterations N] [--no-clear]
//! domatic profile --addr HOST:PORT
//! ```
//!
//! `serve` runs the batching, caching JSON-lines solve service from
//! `domatic-server` over stdio (default) or TCP (`--port`; port 0 binds
//! an ephemeral port and prints it). A graph SPEC is either a path to an
//! edge-list file or a synthetic spec `ring:N` / `gnp:N,DEG,SEED` /
//! `dense:N,K`.
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
        "usage:\n  domatic info <graph.txt>\n  domatic solve <graph.txt> [--b N] [--k K] [--hops D] [--alg SOLVER] [--solver SOLVER] [--seed S] [--trials R] [--budget-ms MS] [--max-iters N] [--verbose] [--gantt] [--out schedule.txt]   (alias: schedule)\n  domatic validate <graph.txt> <schedule.txt> [--b N] [--k K] [--hops D]\n  domatic partition <graph.txt> [--alg greedy|feige|augmented] [--seed S]\n  domatic simulate <graph.txt> [--b N] [--k K] [--seed S]\n  domatic adapt <graph.txt> [--b N] [--k K] [--alg SOLVER] [--seed S] [--trials R] [--failures none|crash|battery-noise|transient-loss|all] [--p P] [--slots N] [--retries N] [--drift N] [--json]\n  domatic render <graph.txt> --out fig.svg [--alg greedy|feige|augmented]\n  domatic optimum <graph.txt> [--b N]\n  domatic serve [--graph NAME=SPEC ...] [--port P] [--shards N] [--capacity N] [--cache-bytes N] [--shed-join-waiters N] [--access-log PATH] [--metrics-port P] [--slow-ms N] [--trace-ring N]\n  domatic top --addr HOST:PORT [--interval-ms N] [--iterations N] [--no-clear]\n  domatic profile --addr HOST:PORT\nSOLVER is one of: {}\nany subcommand also takes --trace (print timing spans and counters on exit) and --threads N (thread-pool size; default RAYON_NUM_THREADS or all cores)",
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

/// The disjoint dominating sets that `partition` prints and `render`
/// draws, by `--alg`: greedy (also for `parse_opts`' default `uniform`),
/// Feige et al.'s randomized partition, or greedy then augmentation. An
/// unknown name prints usage and exits 2.
fn partition_classes(g: &Graph, o: &Opts) -> Vec<NodeSet> {
    use domatic::core::augment::augment_partition;
    use domatic::core::feige::{feige_partition, FeigeParams};
    use domatic::core::greedy::greedy_domatic_partition;
    match o.alg.as_str() {
        "greedy" | "uniform" => greedy_domatic_partition(g),
        "feige" => {
            feige_partition(
                g,
                &FeigeParams {
                    c: 3.0,
                    max_sweeps: 60,
                    seed: o.seed,
                },
            )
            .classes
        }
        "augmented" => augment_partition(g, greedy_domatic_partition(g)).classes,
        _ => usage(),
    }
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
            let classes = partition_classes(&g, &o);
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
            let classes = partition_classes(&g, &o);
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
        "top" => cmd_top(&rest),
        "profile" => cmd_profile(&rest),
        _ => usage(),
    }
}

/// Resolves a `serve --graph` SPEC: a path to an edge-list file, or a
/// synthetic spec `ring:N` (cycle with skip-3 chords, the serving
/// tests' topology) / `gnp:N,DEG,SEED` (Erdős–Rényi at target average
/// degree) / `dense:N,K` (banded dense-linear: node `i` adjacent to its
/// `K` predecessors, the adversarial topology of the churn campaigns —
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
        // `tests/obs_cli.rs` reads this exact line to learn the scrape
        // address.
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
            // `tests/obs_cli.rs` reads this exact line to learn the port.
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

/// The JSON-lines connection behind `top` and `profile`: one request
/// out, one response line back.
struct OpClient {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
    next_id: u64,
}

impl OpClient {
    fn connect(addr: &str) -> Result<OpClient, String> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(OpClient {
            stream,
            reader,
            next_id: 0,
        })
    }

    /// Sends `{"id":N,"op":<op>}` and returns the response's `result`.
    /// The request goes out as one write: a second segment would wait
    /// on the server's delayed ACK.
    fn call(&mut self, op: &str) -> Result<domatic_telemetry::json::Json, String> {
        use std::io::{BufRead, Write};
        self.next_id += 1;
        let request = format!("{{\"id\":{},\"op\":\"{op}\"}}\n", self.next_id);
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = domatic_telemetry::json::parse(line.trim())
            .map_err(|e| format!("bad response: {e}"))?;
        v.get("result")
            .cloned()
            .ok_or_else(|| format!("error response: {}", line.trim()))
    }
}

/// Reports a failed `top`/`profile` round trip and exits 1.
fn client_die(cmd: &str, e: String) -> ! {
    eprintln!("{cmd}: {e}");
    std::process::exit(1);
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
    let mut client = OpClient::connect(&addr).unwrap_or_else(|e| client_die("top", e));
    let mut prev: Option<domatic_telemetry::Snapshot> = None;
    let mut tick = 0u64;
    loop {
        tick += 1;
        let snap = client
            .call("metrics")
            .and_then(|result| {
                let text = result
                    .get("exposition")
                    .and_then(|t| t.as_str())
                    .ok_or("response has no exposition")?;
                domatic_telemetry::prometheus::parse_snapshot(text)
            })
            .unwrap_or_else(|e| client_die("top", e));
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
    let result = OpClient::connect(&addr)
        .and_then(|mut client| client.call("profile"))
        .unwrap_or_else(|e| client_die("profile", e));

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
