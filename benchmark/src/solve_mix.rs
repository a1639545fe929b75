//! `solve-mix`: the library user's path, graph text → validated
//! schedule, in-process and closed loop. The server does no work here.
//!
//! Each pass parses two instances' edge-list text and runs a fixed
//! solver mix on each, validating every schedule and computing its
//! bound. The instances sit on either side of the bitset density
//! crossover (rows are built when the average closed degree reaches
//! ⌈n/64⌉, 32 at n = 2000): a random geometric graph of average degree
//! 20 stays on the scalar kernels, a G(n,p) of average degree 60 takes
//! the bitset ones.
//!
//! The racing `portfolio` solver is left out: its wall time is a race
//! between pool threads, and on a shared two-core machine it varies
//! from 180 to 430 ms between identical calls, wider than any bound.

use crate::client::Rng;
use crate::fixture::STRUCTURE_SEED;
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::{put_counter_deltas, solve_names, stats, timed_setup, Ctx};
use domatic_core::hash::CanonicalHasher;
use domatic_core::solver::{make_solver, Budget, SolverConfig};
use domatic_graph::generators::geometric::{radius_for_avg_degree, random_geometric};
use domatic_graph::generators::gnp::gnp_with_avg_degree;
use domatic_graph::io::{parse_edge_list, to_edge_list};
use domatic_schedule::{validate_schedule, Batteries};
use std::time::Instant;

struct Instance {
    name: &'static str,
    text: String,
    batteries: Batteries,
    runs: Vec<(&'static str, SolverConfig)>,
}

/// The two instances; the run seed sets the solvers' seed.
fn instances(ctx: &Ctx) -> Vec<Instance> {
    let n = if ctx.quick { 300 } else { 2000 };
    let mut shape = Rng::new(STRUCTURE_SEED, 1);
    let rgg = random_geometric(n, radius_for_avg_degree(n, 20.0), shape.next_u64()).graph;
    let mixed = Batteries::from_vec((0..n).map(|_| 1 + shape.below(5)).collect());
    let gnp = gnp_with_avg_degree(n, 60.0, shape.next_u64());
    let base = SolverConfig::new().seed(Rng::new(ctx.seed, 1).below(1 << 20));
    // The anytime searches get a fixed iteration budget, so their work
    // does not depend on the machine's speed.
    let tabu = base.clone().budget(Budget::new().max_iterations(2000));
    vec![
        Instance {
            name: "rgg2k_mixed",
            text: to_edge_list(&rgg),
            batteries: mixed,
            runs: vec![
                ("greedy", base.clone()),
                ("general", base.clone()),
                ("tabu", tabu.clone()),
                ("sa", tabu.clone()),
            ],
        },
        Instance {
            name: "gnp2k_b3",
            text: to_edge_list(&gnp),
            batteries: Batteries::uniform(n, 3),
            runs: vec![
                ("greedy", base.clone()),
                ("uniform", base.clone()),
                ("general", base.clone()),
                ("ft", base.clone().k(2)),
                ("tabu", tabu),
            ],
        },
    ]
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    schedules: u64,
    wall_s: f64,
    latency_us: Vec<f64>,
    lifetime: u64,
    bound: u64,
    digest: u64,
}

fn pass(insts: &[Instance], spans: &mut Spans, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let mut h = CanonicalHasher::new();
    let t_pass = Instant::now();
    let root = spans.open("pass", None, 0, t_pass);
    for inst in insts {
        let t = Instant::now();
        let g = match parse_edge_list(&inst.text) {
            Ok(g) => g,
            Err(e) => {
                out.fail(format!("{}: edge list does not parse: {e}", inst.name));
                continue;
            }
        };
        spans.add("graph.parse", root, 0, t, Instant::now());
        for (alg, cfg) in &inst.runs {
            let (span, _) = solve_names(alg).expect("solve-mix uses registered solvers");
            let solver = make_solver(alg).expect("solve-mix uses registered solvers");
            let t0 = Instant::now();
            let solved = solver.schedule(&g, &inst.batteries, cfg);
            let t1 = Instant::now();
            let schedule = match solved {
                Ok(s) => s,
                Err(e) => {
                    out.fail(format!("{}/{alg}: {e}", inst.name));
                    continue;
                }
            };
            let valid = validate_schedule(&g, &inst.batteries, &schedule, solver.tolerance(cfg));
            let t2 = Instant::now();
            let bound = solver.upper_bound(&g, &inst.batteries, cfg);
            let t3 = Instant::now();
            spans.add(span, root, 0, t0, t1);
            spans.add("schedule.validate", root, 0, t1, t2);
            spans.add("core.bound", root, 0, t2, t3);
            if let Err(e) = valid {
                out.fail(format!("{}/{alg}: invalid schedule: {e}", inst.name));
                continue;
            }
            if schedule.lifetime() > bound {
                out.fail(format!(
                    "{}/{alg}: lifetime {} exceeds bound {bound}",
                    inst.name,
                    schedule.lifetime()
                ));
                continue;
            }
            p.schedules += 1;
            p.latency_us.push((t3 - t0).as_secs_f64() * 1e6);
            p.lifetime += schedule.lifetime();
            p.bound += bound;
            h.write_str(inst.name);
            h.write_str(alg);
            for e in schedule.entries() {
                h.write_u64(e.duration);
                for v in e.set.iter() {
                    h.write_u64(u64::from(v));
                }
            }
        }
    }
    spans.close(root, Instant::now());
    p.wall_s = t_pass.elapsed().as_secs_f64();
    p.digest = h.finish();
    p
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("solve-mix", ctx.traced);
    let mut spans = Spans::new(ctx.traced);
    // Set-up: generate the inputs and run one untimed warm-up pass.
    let (insts, reference) = timed_setup(
        ctx,
        &mut out,
        || {
            let insts = instances(ctx);
            let mut quiet = Spans::new(false);
            let mut warmup = Outcome::new("solve-mix", false);
            let warm = pass(&insts, &mut quiet, &mut warmup);
            if warmup.failed > 0 {
                return Err(format!("warm-up pass failed: {:?}", warmup.violations));
            }
            Ok((insts, warm.digest))
        },
        |_| Ok(()),
    )?;

    let counters = crate::domination_counters();
    let start = Instant::now();
    let mut passes = Vec::new();
    while start.elapsed().as_secs_f64() < ctx.seconds || passes.is_empty() {
        let p = pass(&insts, &mut spans, &mut out);
        if p.digest != reference {
            out.fail("a pass's schedules differ from the warm-up pass's".into());
        }
        passes.push(p);
    }
    put_counter_deltas(&mut out, counters);

    let per_pass: usize = insts.iter().map(|i| i.runs.len()).sum();
    out.attempted = (passes.len() * per_pass) as u64;
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.schedules as f64 / p.wall_s)
        .collect();
    // Each pass is a window of the rate's median.
    out.put("throughput_per_s", stats::median(&rates), rates.len());
    let latency: Vec<f64> = passes.iter().flat_map(|p| p.latency_us.clone()).collect();
    out.put_quantile("p50_us", &latency, 0.5);
    out.put_quantile("p90_us", &latency, 0.9);
    out.digest = Some(format!("{reference:016x}"));

    let (lifetime, bound) = passes
        .iter()
        .fold((0, 0), |(l, b), p| (l + p.lifetime, b + p.bound));
    out.put(
        "core.lifetime_ratio",
        lifetime as f64 / bound.max(1) as f64,
        passes.len() * per_pass,
    );
    let checked = out.attempted.saturating_sub(out.failed);
    out.put(
        "schedule.valid_ratio",
        checked as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    if spans.on() {
        out.put_quantile("graph.parse_us", &spans.durations_us("graph.parse"), 0.5);
        out.put_quantile(
            "schedule.validate_us",
            &spans.durations_us("schedule.validate"),
            0.5,
        );
        out.put_quantile("core.bound_us", &spans.durations_us("core.bound"), 0.5);
        for alg in ["greedy", "uniform", "general", "ft", "tabu", "sa"] {
            let (span, metric) = solve_names(alg).expect("known solver");
            let ms: Vec<f64> = spans.durations_us(span).iter().map(|us| us / 1e3).collect();
            out.put_quantile(metric, &ms, 0.5);
        }
        crate::finish_trace(&spans, &mut out)?;
    }
    Ok(out)
}
