//! Tabu search over dominating sets (anytime, seeded, deterministic).
//!
//! The lifetime objective rewards *small* dominating sets — every member
//! of an active set drains battery, so shrinking each peeled set leaves
//! more energy for later rounds. [`TabuSolver`] therefore refines each
//! greedy-peeled set with the classic MDS tabu scheme:
//!
//! - **remove** — drop a redundant member (one whose closed neighborhood
//!   stays covered), preferring the member with the smallest battery so
//!   scarce nodes are saved for later rounds; a strict improvement,
//!   always taken when available;
//! - **swap** — drop a non-redundant member `v` and add a non-member that
//!   covers everything `v` was the sole dominator of; sideways moves that
//!   reshape the set so new redundancies appear;
//! - **tabu tenure** — a dropped node may not re-enter (and is not picked
//!   for another drop) for `TENURE_BASE + n/32` iterations, which keeps
//!   the walk from undoing itself.
//!
//! The search never leaves the feasible region (every intermediate set
//! dominates the whole graph and uses only alive nodes), so every
//! schedule built from it is valid by construction. Budget semantics and
//! the greedy-baseline guarantee come from
//! `local_search::run_restarts`: the result is never worse than
//! the deterministic greedy schedule, and with no wall deadline a solve
//! is a pure function of `(instance, config)`.

use crate::budget::{BudgetMeter, Clock, SystemClock};
use crate::error::DomaticError;
use crate::local_search::{run_restarts, CoverState};
use crate::solver::{check_sizes, effective_graph, DiscardIncumbent, Incumbent};
use crate::solver::{Solver, SolverConfig};
use domatic_graph::{Graph, NodeSet};
use domatic_schedule::{Batteries, Schedule};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Base tabu tenure; the effective tenure is `TENURE_BASE + n/32`.
const TENURE_BASE: u64 = 7;

/// Per-peel move cap as a multiple of `n` — bounds how much of the global
/// budget a single dominating set may consume, so the budget spreads
/// across the whole peeling sequence instead of being eaten by round one.
const PEEL_MOVE_FACTOR: usize = 4;

/// Anytime tabu-search solver; see the module docs for the move rules.
pub struct TabuSolver {
    clock: Arc<dyn Clock>,
}

impl TabuSolver {
    /// A tabu solver on the real system clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// A tabu solver reading deadlines from `clock` (tests inject a
    /// [`crate::budget::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        TabuSolver { clock }
    }
}

impl Default for TabuSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver for TabuSolver {
    fn name(&self) -> &'static str {
        "tabu"
    }
    fn describe(&self) -> &'static str {
        "anytime tabu search: shrink greedy-peeled sets via remove/swap moves"
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
        let _span = domatic_telemetry::span!("tabu.solve");
        let g = effective_graph(g, cfg.hops);
        Ok(run_restarts(
            &g,
            b,
            cfg,
            &*self.clock,
            incumbent,
            &mut |g, alive, seed_ds, rng, meter| tabu_refine(g, alive, b, seed_ds, rng, meter),
        ))
    }
}

/// Refines one dominating set with tabu search; returns the smallest
/// dominating set found.
pub(crate) fn tabu_refine(
    g: &Graph,
    alive: &NodeSet,
    batteries: &Batteries,
    seed_ds: NodeSet,
    rng: &mut StdRng,
    meter: &mut BudgetMeter<'_>,
) -> NodeSet {
    let n = g.n();
    let tenure = TENURE_BASE + n as u64 / 32;
    let move_cap = PEEL_MOVE_FACTOR * n.max(16);
    let mut st = CoverState::new(g, seed_ds);
    let mut best = st.set.clone();
    // tabu_until[v]: moves involving v are forbidden while the local move
    // counter is below this.
    let mut tabu_until = vec![0u64; n];
    let (mut members, mut holes, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    let mut local: u64 = 0;
    while (local as usize) < move_cap && meter.tick() {
        local += 1;
        // Strict improvement first: drop a redundant member, preferring
        // the smallest battery (scarce nodes are the bottleneck of later
        // rounds; ties break to the smallest id, so the move is
        // deterministic).
        let redundant = st
            .set
            .iter()
            .filter(|&v| tabu_until[v as usize] <= local && st.is_redundant(v))
            .min_by_key(|&v| (batteries.get(v), v));
        if let Some(v) = redundant {
            st.remove(v);
            tabu_until[v as usize] = local + tenure;
            if st.len() < best.len() {
                best = st.set.clone();
                meter.note_improvement();
            }
            continue;
        }
        // Sideways move: swap a random non-tabu member for a cover of its
        // holes; reshapes the set so new redundancies can appear.
        members.clear();
        members.extend(st.set.iter().filter(|&v| tabu_until[v as usize] <= local));
        if members.is_empty() {
            continue; // everything tabu; let tenures expire
        }
        let v = members[rng.random_range(0..members.len())];
        st.holes_after_remove(v, &mut holes);
        st.swap_candidates(v, &holes, alive, &mut candidates);
        candidates.retain(|&w| tabu_until[w as usize] <= local);
        if candidates.is_empty() {
            // No legal swap: make v tabu so the walk tries elsewhere.
            tabu_until[v as usize] = local + tenure;
        } else {
            let w = candidates[rng.random_range(0..candidates.len())];
            st.remove(v);
            st.insert(w);
            tabu_until[v as usize] = local + tenure;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, ManualClock};
    use crate::greedy::greedy_general_schedule;
    use crate::solver::TraceIncumbent;
    use domatic_graph::generators::gnp::gnp_with_avg_degree;
    use domatic_schedule::validate_schedule;

    #[test]
    fn tabu_is_deterministic_and_valid() {
        let g = gnp_with_avg_degree(80, 12.0, 3);
        let b = Batteries::uniform(80, 3);
        let cfg = SolverConfig::new().trials(3).seed(9);
        let solver = TabuSolver::new();
        let a = solver.schedule(&g, &b, &cfg).unwrap();
        let b2 = solver.schedule(&g, &b, &cfg).unwrap();
        assert_eq!(a, b2);
        validate_schedule(&g, &b, &a, 1).unwrap();
    }

    #[test]
    fn tabu_never_loses_to_greedy() {
        for seed in 0..4 {
            let g = gnp_with_avg_degree(60, 9.0, seed);
            let b = Batteries::uniform(60, 3);
            let cfg = SolverConfig::new().trials(3).seed(seed);
            let s = TabuSolver::new().schedule(&g, &b, &cfg).unwrap();
            let greedy = greedy_general_schedule(&g, &b);
            assert!(
                s.lifetime() >= greedy.lifetime(),
                "seed {seed}: {} < {}",
                s.lifetime(),
                greedy.lifetime()
            );
        }
    }

    #[test]
    fn incumbents_improve_monotonically_and_are_valid() {
        let g = gnp_with_avg_degree(70, 10.0, 5);
        let b = Batteries::uniform(70, 3);
        let cfg = SolverConfig::new().trials(4).seed(2);
        let mut trace = TraceIncumbent::new();
        let best = TabuSolver::new()
            .solve_with(&g, &b, &cfg, &mut trace)
            .unwrap();
        assert!(!trace.reports.is_empty());
        let mut last = 0;
        for (s, _iter) in &trace.reports {
            validate_schedule(&g, &b, s, 1).unwrap();
            assert!(s.lifetime() >= last);
            last = s.lifetime();
        }
        assert_eq!(trace.best().unwrap(), &best);
    }

    #[test]
    fn manual_deadline_stops_the_solve_immediately() {
        let g = gnp_with_avg_degree(60, 10.0, 1);
        let b = Batteries::uniform(60, 3);
        let clock = Arc::new(ManualClock::new());
        clock.advance(1_000); // deadline already passed at solve start
        let solver = TabuSolver::with_clock(clock);
        let cfg = SolverConfig::new()
            .trials(8)
            .budget(Budget::new().max_iterations(u64::MAX).deadline_ms(500));
        // With the deadline pre-expired the first tick stops the meter,
        // so the first build ends on the baseline and the solve returns
        // exactly the greedy baseline.
        let s = solver.schedule(&g, &b, &cfg).unwrap();
        assert_eq!(s, greedy_general_schedule(&g, &b));
    }

    #[test]
    fn iteration_budget_caps_work() {
        let g = gnp_with_avg_degree(60, 10.0, 1);
        let b = Batteries::uniform(60, 3);
        let cfg = SolverConfig::new()
            .trials(2)
            .budget(Budget::new().max_iterations(50));
        let s = TabuSolver::new().schedule(&g, &b, &cfg).unwrap();
        validate_schedule(&g, &b, &s, 1).unwrap();
        assert!(s.lifetime() >= greedy_general_schedule(&g, &b).lifetime());
    }
}
