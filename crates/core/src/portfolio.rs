//! The racing portfolio meta-solver.
//!
//! No single heuristic wins everywhere: the paper's randomized coloring
//! dominates on dense uniform instances, greedy peeling on skewed
//! batteries, and the local searches (tabu / sa) wherever set-size slack
//! remains. [`PortfolioSolver`] races a fixed member list — greedy,
//! general, uniform, tabu, sa — across the vendored-rayon pool under the
//! one shared [`crate::budget::Budget`] in the config (members run
//! concurrently, so a wall-clock deadline bounds the whole race) and
//! returns the best valid schedule any member found.
//!
//! Racing policy:
//!
//! - members that reject the instance (e.g. `uniform` on non-uniform
//!   batteries) are skipped, not fatal;
//! - the winner is the longest lifetime; ties break toward the earliest
//!   member in the list, so the result is independent of thread count
//!   and completion order;
//! - `greedy` is a member, so the portfolio never loses to the greedy
//!   baseline;
//! - `ft` is excluded: its schedules are k-tolerant, a different validity
//!   contract than the other members' plain domination, so its lifetimes
//!   are not comparable;
//! - `portfolio` itself is excluded, so the race cannot recurse.

use crate::budget::{Clock, SystemClock};
use crate::error::DomaticError;
use crate::sa::SaSolver;
use crate::solver::{check_sizes, DiscardIncumbent, GeneralSolver, GreedySolver, Incumbent};
use crate::solver::{Solver, SolverConfig, UniformSolver};
use crate::tabu::TabuSolver;
use domatic_graph::Graph;
use domatic_schedule::{Batteries, Schedule};
use rayon::prelude::*;
use std::sync::Arc;

/// Races greedy / general / uniform / tabu / sa and keeps the best valid
/// schedule; see the module docs for the racing policy.
pub struct PortfolioSolver {
    members: Vec<Box<dyn Solver>>,
}

impl PortfolioSolver {
    /// A portfolio whose anytime members run on the real system clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// A portfolio whose anytime members read deadlines from `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        PortfolioSolver {
            members: vec![
                Box::new(GreedySolver),
                Box::new(GeneralSolver),
                Box::new(UniformSolver),
                Box::new(TabuSolver::with_clock(clock.clone())),
                Box::new(SaSolver::with_clock(clock)),
            ],
        }
    }
}

impl Default for PortfolioSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver for PortfolioSolver {
    fn name(&self) -> &'static str {
        "portfolio"
    }
    fn describe(&self) -> &'static str {
        "meta: race greedy/general/uniform/tabu/sa, keep the best schedule"
    }
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError> {
        self.solve_with(g, b, cfg, &mut DiscardIncumbent)
    }
    fn solve_with(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
        incumbent: &mut dyn Incumbent,
    ) -> Result<Schedule, DomaticError> {
        cfg.validate()?;
        check_sizes(g, b)?;
        let _span = domatic_telemetry::span!("portfolio.solve");
        // Fan the members out across the pool. Each member is itself
        // deterministic at this config, and the indexed collect below
        // keeps list order, so the subsequent sequential reduction is
        // independent of thread count and completion order.
        let runs: Vec<Option<Schedule>> = self
            .members
            .par_iter()
            .map(|m| {
                let result = m.schedule(g, b, cfg).ok();
                domatic_telemetry::count!("portfolio.member_runs");
                result
            })
            .collect();
        let mut best: Option<(usize, Schedule)> = None;
        for (i, run) in runs.into_iter().enumerate() {
            let Some(s) = run else { continue };
            let better = match &best {
                None => true,
                Some((_, cur)) => s.lifetime() > cur.lifetime(),
            };
            if better {
                best = Some((i, s));
            }
        }
        // Greedy accepts any size-matched instance, so at least one
        // member always produces a schedule.
        let (winner, s) = best.expect("greedy member always succeeds");
        domatic_telemetry::global().observe("portfolio.winner_index", winner as u64);
        incumbent.report(&s, 0);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_general_schedule;
    use crate::solver::TraceIncumbent;
    use domatic_graph::generators::gnp::gnp_with_avg_degree;
    use domatic_graph::generators::regular::complete;
    use domatic_schedule::validate_schedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn portfolio_is_deterministic_and_valid() {
        let g = gnp_with_avg_degree(80, 12.0, 7);
        let b = Batteries::uniform(80, 3);
        let cfg = SolverConfig::new().trials(3).seed(5);
        let solver = PortfolioSolver::new();
        let a = solver.schedule(&g, &b, &cfg).unwrap();
        let b2 = solver.schedule(&g, &b, &cfg).unwrap();
        assert_eq!(a, b2);
        validate_schedule(&g, &b, &a, 1).unwrap();
    }

    #[test]
    fn portfolio_never_loses_to_any_member() {
        let g = gnp_with_avg_degree(70, 10.0, 2);
        let b = Batteries::uniform(70, 3);
        let cfg = SolverConfig::new().trials(3).seed(1);
        let solver = PortfolioSolver::new();
        let best = solver.schedule(&g, &b, &cfg).unwrap();
        for member in &solver.members {
            if let Ok(s) = member.schedule(&g, &b, &cfg) {
                assert!(
                    best.lifetime() >= s.lifetime(),
                    "{} beat the portfolio",
                    member.name()
                );
            }
        }
        assert!(best.lifetime() >= greedy_general_schedule(&g, &b).lifetime());
    }

    #[test]
    fn portfolio_handles_nonuniform_batteries() {
        // `uniform` rejects this instance; the race must skip it, not die.
        let g = complete(30);
        let mut rng = StdRng::seed_from_u64(8);
        let b = Batteries::from_vec((0..30).map(|_| rng.random_range(1..6)).collect());
        let cfg = SolverConfig::new().trials(2).seed(0);
        let s = PortfolioSolver::new().schedule(&g, &b, &cfg).unwrap();
        validate_schedule(&g, &b, &s, 1).unwrap();
        assert!(s.lifetime() >= greedy_general_schedule(&g, &b).lifetime());
    }

    #[test]
    fn portfolio_reports_exactly_one_incumbent() {
        let g = gnp_with_avg_degree(50, 8.0, 3);
        let b = Batteries::uniform(50, 2);
        let cfg = SolverConfig::new().trials(2).seed(4);
        let mut trace = TraceIncumbent::new();
        let s = PortfolioSolver::new()
            .solve_with(&g, &b, &cfg, &mut trace)
            .unwrap();
        assert_eq!(trace.reports.len(), 1);
        assert_eq!(trace.best().unwrap(), &s);
        validate_schedule(&g, &b, &s, 1).unwrap();
    }

    #[test]
    fn member_list_is_pinned() {
        let names: Vec<&str> = PortfolioSolver::new()
            .members
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names, vec!["greedy", "general", "uniform", "tabu", "sa"]);
    }
}
