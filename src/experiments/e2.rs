//! E2 — Theorem 4.3: the uniform algorithm is an O(log n) approximation.
//!
//! Two tables:
//! 1. a size sweep across topology families reporting the achieved
//!    (validated) lifetime against Lemma 4.1's bound `b(δ+1)` — the ratio
//!    should grow no faster than `ln n` (the theorem), and stay near
//!    `3 ln n` on degree-homogeneous graphs;
//! 2. exact approximation ratios against the LP optimum on instances small
//!    enough to enumerate.

use crate::experiments::stats::summarize_seeds;
use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::bounds::{ln_n, uniform_upper_bound};
use domatic_core::solver::{Solver, SolverConfig, UniformSolver};
use domatic_core::uniform::{uniform_schedule, UniformParams};
use domatic_graph::generators::regular::{cycle, path, star};
use domatic_graph::Graph;
use domatic_lp::lp_optimal_lifetime;
use domatic_schedule::{longest_valid_prefix, Batteries};

/// Runs E2 and returns its tables.
pub fn run() -> Vec<Table> {
    let b = 3u64;
    let trials = 5u64;

    let mut sweep = Table::new(
        format!("E2a / Theorem 4.3 — uniform algorithm vs Lemma 4.1 bound (b={b}, {trials} seeds)"),
        &[
            "family",
            "n",
            "δ",
            "Δ",
            "L_ALG (mean ± std)",
            "best",
            "b(δ+1)",
            "bound/best",
            "ln n",
        ],
    );
    // Sparse regime (δ < 3 ln n: one color class, the degenerate case the
    // proof of Theorem 4.3 handles via Lemma 4.1 directly) and the dense
    // regime (δ ≫ ln n: many classes, where the construction shines).
    let families = [
        Family::Rgg { avg_degree: 40.0 },
        Family::Gnp { avg_degree: 40.0 },
        Family::Gnp { avg_degree: 150.0 },
        Family::Torus8,
        Family::ScaleFree { m: 4 },
    ];
    for family in families {
        for n in [100usize, 200, 400, 800, 1600] {
            let g = family.build(n, 7 + n as u64);
            let batteries = Batteries::uniform(g.n(), b);
            let stats = summarize_seeds(trials, |seed| {
                let (raw, _) = uniform_schedule(
                    &g,
                    b,
                    &UniformParams {
                        c: 3.0,
                        seed: 1000 + n as u64 + seed,
                    },
                );
                longest_valid_prefix(&g, &batteries, &raw, 1).lifetime() as f64
            });
            let bound = uniform_upper_bound(&g, b);
            sweep.row(vec![
                family.label(),
                g.n().to_string(),
                g.min_degree().unwrap().to_string(),
                g.max_degree().unwrap().to_string(),
                stats.pm(),
                (stats.max as u64).to_string(),
                bound.to_string(),
                f2(bound as f64 / stats.max.max(1.0)),
                f2(ln_n(g.n())),
            ]);
        }
    }
    sweep.note("Theorem 4.3 predicts bound/L_ALG = O(ln n); the paper's constant is ≈ 3·ln n on degree-regular graphs");
    sweep.note("on rgg/gnp the bound pins L_OPT to the sparsest neighborhood, so small ratios mean the schedule nearly exhausts it");

    let mut exact = Table::new(
        "E2b / exact ratios — uniform algorithm vs LP optimum (small instances)",
        &["instance", "n", "L_ALG", "L_OPT (LP)", "ratio"],
    );
    let smalls: Vec<(String, Graph)> = vec![
        ("path(8)".into(), path(8)),
        ("cycle(9)".into(), cycle(9)),
        ("cycle(12)".into(), cycle(12)),
        ("star(8)".into(), star(8)),
        (
            "rgg(16)".into(),
            Family::Rgg { avg_degree: 6.0 }.build(16, 3),
        ),
        (
            "gnp(14)".into(),
            Family::Gnp { avg_degree: 5.0 }.build(14, 5),
        ),
    ];
    for (name, g) in smalls {
        let cfg = SolverConfig::new().seed(99).trials(20);
        let sched = UniformSolver
            .schedule(&g, &Batteries::uniform(g.n(), b), &cfg)
            .expect("uniform batteries");
        let l_alg = sched.lifetime();
        let opt = lp_optimal_lifetime(&g, &vec![b as f64; g.n()], 2_000_000)
            .expect("small instance enumerates")
            .lifetime;
        exact.row(vec![
            name,
            g.n().to_string(),
            l_alg.to_string(),
            f2(opt),
            f2(opt / l_alg.max(1) as f64),
        ]);
    }
    exact.note(
        "sparse instances collapse to one color class (δ < 3 ln n): L_ALG = b, optimum ≤ b·(δ+1)",
    );

    vec![sweep, exact]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_rows_and_sanity() {
        // Both tables, byte for byte at any thread count, including the
        // dense n = 800 and 1600 rows.
        crate::experiments::table::assert_pinned(&run(), &[25, 6], "c7be44e771113ec8");
        // The rendered ratios must all be ≥ 1 (bound is an upper bound);
        // verified structurally by re-running one cell.
        let g = Family::Torus8.build(400, 7 + 400);
        let cfg = SolverConfig::new().seed(1400).trials(5);
        let s = UniformSolver
            .schedule(&g, &Batteries::uniform(g.n(), 3), &cfg)
            .unwrap();
        assert!(s.lifetime() <= uniform_upper_bound(&g, 3));
        assert!(s.lifetime() >= 3); // at least one class × b
    }
}
