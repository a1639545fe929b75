//! E10 — ablations of the design constants DESIGN.md calls out.
//!
//! 1. The color-range constant `c`: the paper uses 3 inside
//!    `δ²⁾/(c·ln n)`. Smaller `c` means more color classes (longer raw
//!    schedule) but a higher chance that some class fails to dominate.
//!    The table shows the trade-off: validated lifetime vs class failure
//!    rate.
//! 2. Best-of-R restarts: how much lifetime the practical restart wrapper
//!    buys over a single run.

use crate::experiments::table::{f2, f3, Table};
use crate::experiments::workloads::Family;
use domatic_core::solver::{Solver, SolverConfig, UniformSolver};
use domatic_core::uniform::{uniform_coloring, uniform_schedule, UniformParams};
use domatic_graph::domination::is_dominating_set;
use domatic_schedule::{longest_valid_prefix, Batteries};

/// Runs E10 and returns its tables.
pub fn run() -> Vec<Table> {
    let g = Family::Gnp { avg_degree: 70.0 }.build(500, 77);
    let b = 3u64;
    let batteries = Batteries::uniform(g.n(), b);
    let trials = 30u64;

    let mut ablate_c = Table::new(
        "E10a / ablation of the color-range constant c (gnp(500, d̄=70), b=3, 30 seeds)",
        &[
            "c",
            "classes",
            "class-fail rate",
            "mean valid lifetime",
            "mean raw lifetime",
        ],
    );
    for c in [1.0f64, 2.0, 3.0, 4.0, 6.0] {
        let mut classes = 0u32;
        let mut fails = 0u64;
        let mut total_classes = 0u64;
        let mut valid_sum = 0u64;
        let mut raw_sum = 0u64;
        for seed in 0..trials {
            let params = UniformParams { c, seed };
            let ca = uniform_coloring(&g, &params);
            classes = ca.num_classes;
            for cls in ca.classes(g.n()) {
                total_classes += 1;
                if !is_dominating_set(&g, &cls) {
                    fails += 1;
                }
            }
            let (raw, _) = uniform_schedule(&g, b, &params);
            raw_sum += raw.lifetime();
            valid_sum += longest_valid_prefix(&g, &batteries, &raw, 1).lifetime();
        }
        ablate_c.row(vec![
            format!("{c}"),
            classes.to_string(),
            f3(fails as f64 / total_classes.max(1) as f64),
            f2(valid_sum as f64 / trials as f64),
            f2(raw_sum as f64 / trials as f64),
        ]);
    }
    ablate_c.note("small c: many classes but early failures truncate the valid prefix; large c: few, reliable classes");
    ablate_c.note("the sweet spot near the paper's c = 3 is the ablation's point");

    let mut ablate_r = Table::new(
        "E10b / ablation of best-of-R restarts (same instance, c = 1: many classes, high variance; 12 repetitions)",
        &["R", "mean valid lifetime", "min", "max"],
    );
    for r in [1u64, 4, 16, 64] {
        let reps = 12u64;
        let lifetimes: Vec<u64> = (0..reps)
            .map(|i| {
                let cfg = SolverConfig::new().seed(10_000 * i).trials(r).c(1.0);
                UniformSolver
                    .schedule(&g, &batteries, &cfg)
                    .expect("uniform batteries")
                    .lifetime()
            })
            .collect();
        let sum: u64 = lifetimes.iter().sum();
        ablate_r.row(vec![
            r.to_string(),
            f2(sum as f64 / reps as f64),
            lifetimes.iter().min().unwrap().to_string(),
            lifetimes.iter().max().unwrap().to_string(),
        ]);
    }
    ablate_r.note(
        "restarts are cheap (parallel) and recover most of the loss from an unlucky coloring",
    );
    vec![ablate_c, ablate_r]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn failure_rate_monotone_in_c_roughly() {
        assert_pinned(&run(), &[5, 4], "f38fad79d66d2748");
        // c = 1 must fail at least as often as c = 6 on the same instance.
        let g = Family::Gnp { avg_degree: 70.0 }.build(500, 77);
        let rate = |c: f64| {
            let mut fails = 0u64;
            let mut total = 0u64;
            for seed in 0..10 {
                let ca = uniform_coloring(&g, &UniformParams { c, seed });
                for cls in ca.classes(g.n()) {
                    total += 1;
                    if !is_dominating_set(&g, &cls) {
                        fails += 1;
                    }
                }
            }
            fails as f64 / total.max(1) as f64
        };
        assert!(rate(1.0) >= rate(6.0));
    }
}
