//! Simulated annealing over dominating sets (anytime, seeded,
//! deterministic).
//!
//! Like [`crate::tabu`], [`SaSolver`] refines each greedy-peeled
//! dominating set toward a smaller one — smaller active sets drain less
//! battery per time unit, which is what buys lifetime. The refinement is
//! a feasible-space annealer on the set-size objective:
//!
//! - **remove** (Δ = −1) — a redundant member is dropped; always
//!   accepted;
//! - **swap** (Δ = 0) — a member is exchanged for a non-member covering
//!   its holes; always accepted (plateau walk);
//! - **add** (Δ = +1) — a random alive non-member joins the set;
//!   accepted with probability `exp(−1/T)`, the Metropolis rule for a
//!   unit uphill step, which diversifies early (hot) and freezes late
//!   (cold).
//!
//! Temperature cools geometrically from `T_INITIAL` by `COOLING` per
//! move. The search never leaves the feasible region — every
//! intermediate set dominates the whole graph using only alive nodes —
//! so (unlike the classic penalty formulation `n·10 + undominated`)
//! validity never needs repairing and every incumbent reported is a
//! complete valid schedule. Budget semantics and the greedy-baseline
//! guarantee come from `local_search::run_restarts`.

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

/// Starting temperature: `exp(-1/0.6) ≈ 0.19`, so roughly one in five
/// early add-moves is accepted.
const T_INITIAL: f64 = 0.6;
/// Geometric cooling factor per move.
const COOLING: f64 = 0.995;
/// Temperature floor below which uphill moves are effectively dead.
const T_FLOOR: f64 = 0.01;
/// Per-peel move cap as a multiple of `n`, as in the tabu solver. The
/// temperature floor ends a peel first from `n = 205` on: it stops after
/// 817 moves, since `0.6 · 0.995^817 < 0.01`.
const PEEL_MOVE_FACTOR: usize = 4;

/// Anytime simulated-annealing solver; see the module docs for the move
/// mix and cooling schedule.
pub struct SaSolver {
    clock: Arc<dyn Clock>,
}

impl SaSolver {
    /// An annealing solver on the real system clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// An annealing solver reading deadlines from `clock` (tests inject a
    /// [`crate::budget::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        SaSolver { clock }
    }
}

impl Default for SaSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver for SaSolver {
    fn name(&self) -> &'static str {
        "sa"
    }
    fn describe(&self) -> &'static str {
        "anytime simulated annealing: shrink greedy-peeled sets, Metropolis adds"
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
        let _span = domatic_telemetry::span!("sa.solve");
        let g = effective_graph(g, cfg.hops);
        Ok(run_restarts(
            &g,
            b,
            cfg,
            &*self.clock,
            incumbent,
            &mut |g, alive, seed_ds, rng, meter| anneal_refine(g, alive, seed_ds, rng, meter),
        ))
    }
}

/// Refines one dominating set by annealing; returns the smallest
/// dominating set found.
pub(crate) fn anneal_refine(
    g: &Graph,
    alive: &NodeSet,
    seed_ds: NodeSet,
    rng: &mut StdRng,
    meter: &mut BudgetMeter<'_>,
) -> NodeSet {
    let n = g.n();
    let move_cap = PEEL_MOVE_FACTOR * n.max(16);
    let mut st = CoverState::new(g, seed_ds);
    let mut best = st.set.clone();
    let (mut members, mut holes, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    let mut temp = T_INITIAL;
    let mut local = 0usize;
    while local < move_cap && temp > T_FLOOR && meter.tick() {
        local += 1;
        members.clear();
        members.extend(st.set.iter());
        if members.is_empty() {
            break;
        }
        let v = members[rng.random_range(0..members.len())];
        st.holes_after_remove(v, &mut holes);
        if holes.is_empty() {
            // Downhill: v is redundant, drop it.
            st.remove(v);
            if st.len() < best.len() {
                best = st.set.clone();
                meter.note_improvement();
            }
        } else {
            st.swap_candidates(v, &holes, alive, &mut candidates);
            if !candidates.is_empty() {
                // Plateau: exchange v for a hole-cover.
                let w = candidates[rng.random_range(0..candidates.len())];
                st.remove(v);
                st.insert(w);
            } else if rng.random::<f64>() < (-1.0 / temp).exp() {
                // Uphill: grow the set by any alive non-member to open
                // new removal paths later.
                candidates.extend(alive.iter().filter(|&w| !st.set.contains(w)));
                if !candidates.is_empty() {
                    let w = candidates[rng.random_range(0..candidates.len())];
                    st.insert(w);
                }
            }
        }
        temp *= COOLING;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, ManualClock};
    use crate::greedy::greedy_general_schedule;
    use crate::solver::TraceIncumbent;
    use domatic_graph::domination::greedy_dominating_set;
    use domatic_graph::generators::gnp::gnp_with_avg_degree;
    use domatic_schedule::validate_schedule;
    use rand::SeedableRng;

    #[test]
    fn sa_is_deterministic_and_valid() {
        let g = gnp_with_avg_degree(80, 12.0, 4);
        let b = Batteries::uniform(80, 3);
        let cfg = SolverConfig::new().trials(3).seed(9);
        let solver = SaSolver::new();
        let a = solver.schedule(&g, &b, &cfg).unwrap();
        let b2 = solver.schedule(&g, &b, &cfg).unwrap();
        assert_eq!(a, b2);
        validate_schedule(&g, &b, &a, 1).unwrap();
    }

    #[test]
    fn sa_never_loses_to_greedy() {
        for seed in 0..4 {
            let g = gnp_with_avg_degree(60, 9.0, seed);
            let b = Batteries::uniform(60, 3);
            let cfg = SolverConfig::new().trials(3).seed(seed);
            let s = SaSolver::new().schedule(&g, &b, &cfg).unwrap();
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
    fn incumbents_are_valid_and_monotone() {
        let g = gnp_with_avg_degree(70, 10.0, 6);
        let b = Batteries::uniform(70, 3);
        let cfg = SolverConfig::new().trials(4).seed(3);
        let mut trace = TraceIncumbent::new();
        let best = SaSolver::new()
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
    fn temperature_floor_ends_a_peel_after_817_moves() {
        // 0.6 · 0.995^817 < 0.01, so from n = 205 (a 4n cap of 820) the
        // floor ends a peel; at n = 204 the cap's 816 moves come first.
        for (n, moves) in [(204, 816), (205, 817), (300, 817)] {
            let g = gnp_with_avg_degree(n, 12.0, 5);
            let alive = NodeSet::full(n);
            let seed_ds = greedy_dominating_set(&g, &alive).unwrap();
            let budget = Budget::new();
            let clock = ManualClock::new();
            let mut meter = BudgetMeter::new(&budget, &clock);
            let mut rng = StdRng::seed_from_u64(1);
            anneal_refine(&g, &alive, seed_ds, &mut rng, &mut meter);
            assert_eq!(meter.iterations(), moves, "n = {n}");
        }
    }

    #[test]
    fn expired_deadline_degrades_to_greedy() {
        let g = gnp_with_avg_degree(60, 10.0, 2);
        let b = Batteries::uniform(60, 3);
        let clock = Arc::new(ManualClock::new());
        clock.advance(100);
        let solver = SaSolver::with_clock(clock);
        let cfg = SolverConfig::new()
            .trials(4)
            .budget(Budget::new().max_iterations(u64::MAX).deadline_ms(50));
        let s = solver.schedule(&g, &b, &cfg).unwrap();
        assert_eq!(s, greedy_general_schedule(&g, &b));
    }
}
