//! E4 — Theorem 5.3: the general algorithm with non-uniform batteries.
//!
//! Batteries are drawn uniformly from `{1..B}`. We report the validated
//! lifetime against Lemma 5.1's energy-coverage bound `τ`, with the greedy
//! general scheduler as a centralized baseline, plus exact LP ratios on
//! small instances.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::{random_batteries, Family};
use domatic_core::bounds::general_upper_bound;
use domatic_core::greedy::greedy_general_schedule;
use domatic_core::solver::{GeneralSolver, Solver, SolverConfig};
use domatic_lp::lp_optimal_lifetime;

/// Runs E4 and returns its tables.
pub fn run() -> Vec<Table> {
    let bmax = 5u64;
    let trials = 5u64;
    let mut sweep = Table::new(
        format!(
            "E4a / Theorem 5.3 — general algorithm, b_v ~ U{{1..{bmax}}} (best of {trials} seeds)"
        ),
        &[
            "family",
            "n",
            "τ (Lem 5.1)",
            "L_ALG",
            "L_greedy",
            "τ/L_ALG",
            "ln(b_max·n)",
        ],
    );
    for family in [
        Family::Rgg { avg_degree: 40.0 },
        Family::Gnp { avg_degree: 40.0 },
        Family::Gnp { avg_degree: 150.0 },
    ] {
        for n in [100usize, 200, 400, 800] {
            let g = family.build(n, 17 + n as u64);
            let b = random_batteries(g.n(), bmax, 53 + n as u64);
            let cfg = SolverConfig::new().seed(2000 + n as u64).trials(trials);
            let sched = GeneralSolver.schedule(&g, &b, &cfg).expect("sizes match");
            let l_alg = sched.lifetime();
            let greedy = greedy_general_schedule(&g, &b).lifetime();
            let tau = general_upper_bound(&g, &b);
            sweep.row(vec![
                family.label(),
                n.to_string(),
                tau.to_string(),
                l_alg.to_string(),
                greedy.to_string(),
                f2(tau as f64 / l_alg.max(1) as f64),
                f2(((bmax * g.n() as u64) as f64).ln()),
            ]);
        }
    }
    sweep.note(
        "Theorem 5.3: τ/L_ALG = O(log(b_max·n)); greedy is the centralized baseline (no guarantee)",
    );

    let mut exact = Table::new(
        "E4b / exact ratios — general algorithm vs LP optimum (small instances)",
        &[
            "instance",
            "n",
            "L_ALG",
            "L_greedy",
            "L_OPT (LP)",
            "LP/L_ALG",
        ],
    );
    for (name, g, bseed) in [
        (
            "rgg(14)",
            Family::Rgg { avg_degree: 6.0 }.build(14, 9),
            1u64,
        ),
        ("gnp(12)", Family::Gnp { avg_degree: 5.0 }.build(12, 4), 2),
        ("torus(16)", Family::Torus8.build(16, 0), 3),
    ] {
        let b = random_batteries(g.n(), 4, bseed);
        let cfg = SolverConfig::new().seed(7).trials(20);
        let sched = GeneralSolver.schedule(&g, &b, &cfg).expect("sizes match");
        let greedy = greedy_general_schedule(&g, &b).lifetime();
        let opt = lp_optimal_lifetime(&g, &b.to_f64(), 2_000_000)
            .expect("small instance enumerates")
            .lifetime;
        exact.row(vec![
            name.to_string(),
            g.n().to_string(),
            sched.lifetime().to_string(),
            greedy.to_string(),
            f2(opt),
            f2(opt / sched.lifetime().max(1) as f64),
        ]);
    }
    vec![sweep, exact]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn e4_shape_and_bound_respected() {
        assert_pinned(&run(), &[12, 3], "3bbd7fe050c0e1b0");
        // Re-run a single cell and check the invariant the table reports.
        let g = Family::Gnp { avg_degree: 40.0 }.build(200, 17 + 200);
        let b = random_batteries(200, 5, 53 + 200);
        let s = GeneralSolver
            .schedule(&g, &b, &SolverConfig::new().trials(3))
            .unwrap();
        assert!(s.lifetime() <= general_upper_bound(&g, &b));
        assert!(s.lifetime() >= 1);
    }
}
