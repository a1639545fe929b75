//! The anytime-solver contract, end to end: tabu, sa, and the racing
//! portfolio at a fixed seed and a fixed iteration budget are pure
//! functions of `(instance, config)` — byte-identical across repeat
//! solves and across thread counts — and every incumbent they report is
//! a complete valid schedule that strictly improves on the last.
//!
//! Thread-count independence follows the `determinism.rs` convention:
//! the pool size is fixed per process, so the racing portfolio is
//! compared against a *sequential race* of the same member list with the
//! same tie-break — a reference that cannot depend on thread count. CI
//! runs this binary under both `RAYON_NUM_THREADS=1` and `=4`; equality
//! with the reference at both pool sizes is equality across pool sizes.
//! (`solver_api.rs` pins every solver's schedule checksum on two fixed
//! instances, so it also fails if either pool size drifts.)

use domatic_core::solver::{make_solver, Solver, SolverConfig, TraceIncumbent};
use domatic_core::{Budget, PortfolioSolver, SaSolver, TabuSolver};
use domatic_graph::generators::gnp::gnp_with_avg_degree;
use domatic_schedule::{validate_schedule, Batteries, Schedule};

/// A non-trivial instance with slack for the local searches to mine.
fn instance() -> (domatic_graph::Graph, Batteries) {
    let g = gnp_with_avg_degree(120, 18.0, 9);
    let batteries = Batteries::from_vec((0..g.n() as u64).map(|v| 1 + (v * 7 + 3) % 5).collect());
    (g, batteries)
}

/// Fixed seed + fixed iteration budget: the determinism precondition.
fn fixed_cfg() -> SolverConfig {
    SolverConfig::new()
        .seed(5)
        .trials(4)
        .budget(Budget::new().max_iterations(3_000))
}

#[test]
fn anytime_solvers_are_byte_identical_across_repeat_solves() {
    let (g, batteries) = instance();
    let cfg = fixed_cfg();
    for name in ["tabu", "sa", "portfolio"] {
        let solver = make_solver(name).unwrap();
        let first = solver.schedule(&g, &batteries, &cfg).unwrap();
        let again = solver.schedule(&g, &batteries, &cfg).unwrap();
        assert_eq!(first, again, "{name} drifted between identical solves");
        // A fresh solver instance must agree too — no hidden state.
        let fresh = make_solver(name)
            .unwrap()
            .schedule(&g, &batteries, &cfg)
            .unwrap();
        assert_eq!(first, fresh, "{name} drifted across solver instances");
    }
}

#[test]
fn portfolio_matches_a_sequential_race_of_its_members() {
    let (g, batteries) = instance();
    let cfg = fixed_cfg();
    // The portfolio's pinned member list, raced sequentially with its
    // tie-break (longest lifetime, ties to the earliest member). This
    // reference cannot depend on the rayon pool size.
    let mut reference: Option<Schedule> = None;
    for name in ["greedy", "general", "uniform", "tabu", "sa"] {
        if let Ok(s) = make_solver(name).unwrap().schedule(&g, &batteries, &cfg) {
            let better = reference
                .as_ref()
                .is_none_or(|best| s.lifetime() > best.lifetime());
            if better {
                reference = Some(s);
            }
        }
    }
    let raced = PortfolioSolver::new()
        .schedule(&g, &batteries, &cfg)
        .unwrap();
    assert_eq!(
        raced,
        reference.unwrap(),
        "racing differs from the sequential reference"
    );
}

#[test]
fn every_incumbent_is_valid_and_strictly_improving() {
    let (g, batteries) = instance();
    let cfg = fixed_cfg();
    let solvers: [(&str, Box<dyn Solver>); 3] = [
        ("tabu", Box::new(TabuSolver::new())),
        ("sa", Box::new(SaSolver::new())),
        ("portfolio", Box::new(PortfolioSolver::new())),
    ];
    for (name, solver) in solvers {
        let mut trace = TraceIncumbent::new();
        solver
            .solve_with(&g, &batteries, &cfg, &mut trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!trace.reports.is_empty(), "{name} reported no incumbent");
        let mut last: Option<u64> = None;
        for (schedule, _) in &trace.reports {
            validate_schedule(&g, &batteries, schedule, 1)
                .unwrap_or_else(|v| panic!("{name} reported an invalid incumbent: {v}"));
            if let Some(prev) = last {
                assert!(
                    schedule.lifetime() > prev,
                    "{name} reported a non-improving incumbent ({} after {prev})",
                    schedule.lifetime()
                );
            }
            last = Some(schedule.lifetime());
        }
        // The final incumbent is the one-shot answer.
        let one_shot = solver.schedule(&g, &batteries, &cfg).unwrap();
        assert_eq!(
            trace.best().unwrap(),
            &one_shot,
            "{name} trace tail != one-shot result"
        );
    }
}

#[test]
fn anytime_results_beat_or_match_greedy_under_any_budget() {
    let (g, batteries) = instance();
    let greedy = make_solver("greedy")
        .unwrap()
        .schedule(&g, &batteries, &SolverConfig::new())
        .unwrap()
        .lifetime();
    // Even a starved budget (one iteration) keeps the greedy floor: the
    // seed incumbent *is* the greedy schedule.
    for iters in [1, 50, 3_000] {
        let cfg = SolverConfig::new()
            .seed(5)
            .trials(4)
            .budget(Budget::new().max_iterations(iters));
        for name in ["tabu", "sa", "portfolio"] {
            let s = make_solver(name)
                .unwrap()
                .schedule(&g, &batteries, &cfg)
                .unwrap();
            assert!(
                s.lifetime() >= greedy,
                "{name} fell below greedy ({} < {greedy}) at {iters} iterations",
                s.lifetime()
            );
        }
    }
}
