//! E5 — Theorem 6.2: the fault-tolerant algorithm across both regimes.
//!
//! The k-tolerant lifetime should scale like `1/k` (Lemma 6.1's bound
//! divides by `k`), and the algorithm must remain an O(log n)
//! approximation in *both* regimes: `δ/ln n ≥ 3k` (merging works) and
//! `δ/ln n < 3k` (the everyone-on phase carries the guarantee).

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::bounds::{fault_tolerant_upper_bound, ln_n};
use domatic_core::solver::{FaultTolerantSolver, Solver, SolverConfig};
use domatic_schedule::Batteries;

/// Runs E5 and returns its tables.
pub fn run() -> Vec<Table> {
    let b = 6u64;
    let trials = 5u64;
    let mut t = Table::new(
        format!(
            "E5 / Theorem 6.2 — k-tolerant lifetime vs Lemma 6.1 bound (b={b}, best of {trials})"
        ),
        &[
            "family",
            "n",
            "δ",
            "k",
            "regime",
            "L_ALG",
            "b(δ+1)/k",
            "bound/L_ALG",
        ],
    );
    // Dense family (merging regime for small k) and the torus (low degree:
    // everyone-on regime for k ≥ 1 already, since 8/ln n < 3k).
    for family in [
        Family::Gnp { avg_degree: 60.0 },
        Family::Gnp { avg_degree: 150.0 },
        Family::Torus8,
    ] {
        for n in [400usize] {
            let g = family.build(n, 23 + n as u64);
            let delta = g.min_degree().unwrap();
            for k in [1usize, 2, 3, 5] {
                if delta < k {
                    continue;
                }
                let regime = if (delta as f64) / ln_n(g.n()) >= 3.0 * k as f64 {
                    "merge"
                } else {
                    "everyone-on"
                };
                let cfg = SolverConfig::new().seed(40 + k as u64).trials(trials).k(k);
                let sched = FaultTolerantSolver
                    .schedule(&g, &Batteries::uniform(g.n(), b), &cfg)
                    .expect("uniform batteries");
                let l_alg = sched.lifetime();
                let bound = fault_tolerant_upper_bound(&g, b, k);
                t.row(vec![
                    family.label(),
                    g.n().to_string(),
                    delta.to_string(),
                    k.to_string(),
                    regime.into(),
                    l_alg.to_string(),
                    bound.to_string(),
                    f2(bound as f64 / l_alg.max(1) as f64),
                ]);
            }
        }
    }
    t.note("lifetime always ≥ b/2 (everyone-on phase), so bound/L_ALG ≤ 2(δ+1)/k even in the sparse regime");
    t.note("within one family, the bound column scaling like 1/k is Lemma 6.1's prediction");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn e5_bound_and_floor() {
        assert_pinned(&run(), &[12], "4ecdc5cabdf27a6b");
        let g = Family::Gnp { avg_degree: 60.0 }.build(400, 23 + 400);
        let b = 6u64;
        for k in [1usize, 2, 3] {
            let cfg = SolverConfig::new().trials(2).k(k);
            let s = FaultTolerantSolver
                .schedule(&g, &Batteries::uniform(g.n(), b), &cfg)
                .unwrap();
            assert!(s.lifetime() >= b / 2, "k={k}");
            assert!(
                s.lifetime() <= fault_tolerant_upper_bound(&g, b, k),
                "k={k}"
            );
        }
    }
}
