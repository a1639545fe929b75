//! Shared machinery for the anytime local-search solvers (tabu / sa).
//!
//! Both solvers have the same outer shape — *improve a greedy-seeded
//! schedule under a budget* — and differ only in how they refine each
//! peeled dominating set before charging it. This module owns the shared
//! pieces:
//!
//! - [`CoverState`]: a dominating set plus incrementally-maintained
//!   per-node dominator counts, the data structure every move inspects;
//! - [`peeling_build`]: the greedy peel → refine → charge loop that turns
//!   a set refiner into a full schedule builder, taking the greedy
//!   baseline's sets for as long as the refiner leaves them unchanged;
//! - [`run_restarts`]: the budgeted restart loop around it, seeded by the
//!   deterministic greedy baseline so the result is never worse than
//!   [`crate::greedy::greedy_general_schedule`].
//!
//! Refiners must preserve the domination invariant (every node of the
//! *whole* graph keeps ≥ 1 dominator) and only ever use alive members, so
//! every intermediate schedule is valid by construction — which is what
//! lets the solvers report each improvement through [`Incumbent`]
//! immediately.

use crate::budget::{BudgetMeter, Clock};
use crate::greedy::greedy_general_schedule;
use crate::solver::{Incumbent, SolverConfig};
use domatic_graph::domination::greedy_dominating_set;
use domatic_graph::{Graph, NodeId, NodeSet};
use domatic_schedule::{Batteries, EnergyLedger, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A candidate dominating set with per-node dominator counts maintained
/// incrementally across insert/remove, so redundancy ("can I drop `v`?")
/// and hole ("who loses coverage if I drop `v`?") queries are O(deg).
pub(crate) struct CoverState<'g> {
    g: &'g Graph,
    /// Current members.
    pub set: NodeSet,
    /// `cover[u]` = number of members of `set` in `N⁺(u)`.
    cover: Vec<u32>,
}

impl<'g> CoverState<'g> {
    /// Builds the state for an existing dominating set: each member `v`
    /// adds one to the count of every node of `N⁺(v)`, so the cost is
    /// O(Σ_{v∈S} deg v). Adjacency is symmetric, so every count equals
    /// `dominator_count(g, &set, u)`.
    pub fn new(g: &'g Graph, set: NodeSet) -> Self {
        let mut cover = vec![0u32; g.n()];
        for v in set.iter() {
            cover[v as usize] += 1;
            for &u in g.neighbors(v) {
                cover[u as usize] += 1;
            }
        }
        CoverState { g, set, cover }
    }

    /// Current member count.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Adds `v`, updating coverage counts. No-op if already a member.
    pub fn insert(&mut self, v: NodeId) {
        if self.set.insert(v) {
            self.cover[v as usize] += 1;
            for &u in self.g.neighbors(v) {
                self.cover[u as usize] += 1;
            }
        }
    }

    /// Drops `v`, updating coverage counts. The caller is responsible for
    /// keeping the set dominating. No-op if not a member.
    pub fn remove(&mut self, v: NodeId) {
        if self.set.remove(v) {
            self.cover[v as usize] -= 1;
            for &u in self.g.neighbors(v) {
                self.cover[u as usize] -= 1;
            }
        }
    }

    /// Whether member `v` can be dropped with every node still covered.
    pub fn is_redundant(&self, v: NodeId) -> bool {
        self.cover[v as usize] >= 2
            && self
                .g
                .neighbors(v)
                .iter()
                .all(|&u| self.cover[u as usize] >= 2)
    }

    /// Writes into `holes` the nodes that would lose their only dominator
    /// if member `v` were dropped (all lie in `N⁺(v)`). Empty ⇔
    /// [`CoverState::is_redundant`].
    pub fn holes_after_remove(&self, v: NodeId, holes: &mut Vec<NodeId>) {
        holes.clear();
        if self.cover[v as usize] == 1 {
            holes.push(v);
        }
        for &u in self.g.neighbors(v) {
            if self.cover[u as usize] == 1 {
                holes.push(u);
            }
        }
    }

    /// Whether `w` covers every hole in `holes` (each hole is `w` itself
    /// or adjacent to it). CSR rows are strictly sorted, so adjacency is a
    /// binary search.
    pub fn covers_all(&self, w: NodeId, holes: &[NodeId]) -> bool {
        holes
            .iter()
            .all(|&u| u == w || self.g.neighbors(u).binary_search(&w).is_ok())
    }

    /// Writes into `out` the replacement candidates for member `v`: alive
    /// non-members that cover every hole `v` leaves behind, in scan order
    /// (`holes[0]`, then its neighbours ascending). Every candidate must
    /// cover the first hole, so the scan is over `N⁺(holes[0])` only and
    /// checks the other holes.
    pub fn swap_candidates(
        &self,
        v: NodeId,
        holes: &[NodeId],
        alive: &NodeSet,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let Some((&h0, rest)) = holes.split_first() else {
            return;
        };
        out.extend(
            std::iter::once(h0)
                .chain(self.g.neighbors(h0).iter().copied())
                .filter(|&w| {
                    w != v && alive.contains(w) && !self.set.contains(w) && self.covers_all(w, rest)
                }),
        );
    }
}

/// The nodes with battery remaining.
pub(crate) fn alive_set(n: usize, ledger: &EnergyLedger) -> NodeSet {
    NodeSet::from_iter(n, (0..n as NodeId).filter(|&v| ledger.remaining(v) > 0))
}

/// One refinement pass: given the effective graph, the alive nodes, a
/// greedy-seeded dominating set, the trial RNG, and the shared meter,
/// return an (ideally smaller) dominating set over the same alive pool.
/// [`peeling_build`] calls a refiner only while the meter has budget left;
/// the refiner ticks the meter once per move and stops at the first tick
/// that returns `false`.
pub(crate) type Refiner<'a> =
    dyn FnMut(&Graph, &NodeSet, NodeSet, &mut StdRng, &mut BudgetMeter) -> NodeSet + 'a;

/// Builds one complete schedule by greedy peeling with per-set
/// refinement: extract a greedy dominating set over the alive nodes,
/// refine it (unless the budget is spent), activate it for its
/// bottleneck duration, charge, repeat until the alive nodes no longer
/// dominate.
///
/// `baseline` is `greedy_general_schedule(g, batteries)`. While every
/// refined set equals its seed, the ledger is the baseline's, so the
/// next greedy set is the baseline's next set, and it is taken from there
/// instead of being extracted again. Such a build ends as the baseline
/// does: when the baseline's sets run out, or when the budget is spent
/// (no refiner runs after that, so every later set is the baseline's).
/// It cannot beat any incumbent, so the build returns `None`.
pub(crate) fn peeling_build(
    g: &Graph,
    batteries: &Batteries,
    baseline: &Schedule,
    rng: &mut StdRng,
    meter: &mut BudgetMeter<'_>,
    refine: &mut Refiner<'_>,
) -> Option<Schedule> {
    let mut ledger = EnergyLedger::new(batteries.clone());
    let mut schedule = Schedule::new();
    let mut on_baseline = true;
    loop {
        let ds = if on_baseline {
            let seed = &baseline.entries().get(schedule.num_steps())?.set;
            if meter.exhausted() {
                return None;
            }
            let ds = refine(g, &alive_set(g.n(), &ledger), seed.clone(), rng, meter);
            on_baseline = ds == *seed;
            ds
        } else {
            let alive = alive_set(g.n(), &ledger);
            let Some(seed_ds) = greedy_dominating_set(g, &alive) else {
                break;
            };
            if meter.exhausted() {
                seed_ds
            } else {
                refine(g, &alive, seed_ds, rng, meter)
            }
        };
        let d = ledger.max_duration(&ds);
        if d == 0 {
            break;
        }
        ledger.charge(&ds, d).expect("duration within budget");
        schedule.push(ds, d);
    }
    Some(schedule)
}

/// The budgeted restart loop shared by the tabu and SA solvers: start
/// from the deterministic greedy baseline (reported as the first
/// incumbent, so the result is never worse than greedy), then run up to
/// `cfg.trials` refined builds with consecutive RNG states, keeping and
/// reporting every strict lifetime improvement. Stops early when the
/// budget is exhausted or the incumbent asks to.
pub(crate) fn run_restarts(
    g: &Graph,
    b: &Batteries,
    cfg: &SolverConfig,
    clock: &dyn Clock,
    incumbent: &mut dyn Incumbent,
    refine: &mut Refiner<'_>,
) -> Schedule {
    let baseline = greedy_general_schedule(g, b);
    let mut best = baseline.clone();
    let mut meter = BudgetMeter::new(&cfg.budget, clock);
    let mut keep_going = incumbent.report(&best, 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _trial in 0..cfg.trials {
        if !keep_going || meter.exhausted() {
            break;
        }
        let Some(cand) = peeling_build(g, b, &baseline, &mut rng, &mut meter, refine) else {
            continue;
        };
        if cand.lifetime() > best.lifetime() {
            best = cand;
            meter.note_improvement();
            keep_going = incumbent.report(&best, meter.iterations());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, ManualClock};
    use crate::sa::{anneal_refine, SaSolver};
    use crate::solver::{Solver, TraceIncumbent};
    use crate::tabu::{tabu_refine, TabuSolver};
    use domatic_graph::domination::{dominator_count, is_dominating_set};
    use domatic_graph::generators::gnp::{gnp, gnp_with_avg_degree};
    use proptest::prelude::*;
    use rand::Rng;
    use std::cell::RefCell;

    fn assert_counts_match(st: &CoverState<'_>) {
        for u in 0..st.g.n() as NodeId {
            assert_eq!(
                st.cover[u as usize] as usize,
                dominator_count(st.g, &st.set, u),
                "node {u}"
            );
        }
    }

    #[test]
    fn cover_state_tracks_inserts_and_removes() {
        let g = gnp_with_avg_degree(40, 8.0, 1);
        let full = NodeSet::full(40);
        let mut st = CoverState::new(&g, full);
        assert_counts_match(&st);
        // In the full set every node covers itself, so any node with a
        // covered neighborhood is redundant; drop redundant nodes until
        // none remain and the set must still dominate.
        loop {
            let Some(v) = st.set.iter().find(|&v| st.is_redundant(v)) else {
                break;
            };
            st.remove(v);
        }
        assert!(is_dominating_set(&g, &st.set));
        // Counts stayed consistent with a count of each closed neighbourhood.
        assert_counts_match(&st);
        // Holes of a non-redundant member are exactly its sole charges.
        let v = st.set.iter().next().unwrap();
        let mut holes = Vec::new();
        st.holes_after_remove(v, &mut holes);
        assert!(!holes.is_empty());
        assert!(st.covers_all(v, &holes));
    }

    /// The reference for `swap_candidates`: the same scan order, with a
    /// linear `contains` check of every hole, `holes[0]` included.
    fn linear_scan_candidates(
        st: &CoverState<'_>,
        v: NodeId,
        holes: &[NodeId],
        alive: &NodeSet,
    ) -> Vec<NodeId> {
        let Some(&h0) = holes.first() else {
            return Vec::new();
        };
        std::iter::once(h0)
            .chain(st.g.neighbors(h0).iter().copied())
            .filter(|&w| {
                w != v
                    && alive.contains(w)
                    && !st.set.contains(w)
                    && holes
                        .iter()
                        .all(|&u| u == w || st.g.neighbors(u).contains(&w))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The counts a `CoverState` starts from are the dominator counts
        /// of any set, dominating or not, and every member's swap
        /// candidates match the linear scan, order included.
        #[test]
        fn cover_state_counts_and_swap_candidates_match_linear_scans(
            (n, p, gseed) in (2..=50usize, 0.02f64..0.5, 0..1_000u64),
            (set_seed, alive_seed) in (0..1_000u64, 0..1_000u64),
        ) {
            let g = gnp(n, p, gseed);
            let mut rng = StdRng::seed_from_u64(set_seed);
            let set = NodeSet::from_iter(n, (0..n as NodeId).filter(|_| rng.random_bool(0.4)));
            let st = CoverState::new(&g, set);
            assert_counts_match(&st);
            let mut rng = StdRng::seed_from_u64(alive_seed);
            let alive = NodeSet::from_iter(n, (0..n as NodeId).filter(|_| rng.random_bool(0.7)));
            let (mut holes, mut candidates) = (Vec::new(), Vec::new());
            for v in st.set.iter() {
                st.holes_after_remove(v, &mut holes);
                st.swap_candidates(v, &holes, &alive, &mut candidates);
                prop_assert_eq!(&candidates, &linear_scan_candidates(&st, v, &holes, &alive));
            }
        }
    }

    #[test]
    fn identity_refiner_never_leaves_the_baseline() {
        let g = gnp_with_avg_degree(60, 10.0, 7);
        let b = Batteries::uniform(60, 3);
        let baseline = greedy_general_schedule(&g, &b);
        let budget = Budget::new();
        let clock = ManualClock::new();
        let mut meter = BudgetMeter::new(&budget, &clock);
        let mut rng = StdRng::seed_from_u64(0);
        let mut calls = 0;
        let build = peeling_build(
            &g,
            &b,
            &baseline,
            &mut rng,
            &mut meter,
            &mut |_, _, ds, _, _| {
                calls += 1;
                ds
            },
        );
        // The build is the baseline, so it is no candidate; the refiner
        // saw each of the baseline's sets once.
        assert_eq!(build, None);
        assert_eq!(calls, baseline.num_steps());
    }

    /// What one restart build of the reference loop came to.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Outcome {
        /// The build is the greedy baseline.
        Baseline,
        /// The build left the baseline and beat the incumbent.
        Adopted,
        /// The build left the baseline and did not beat the incumbent.
        Discarded,
    }

    /// The restart loop without reuse or skips: the baseline first, then
    /// every peel of every build extracts a greedy set and calls the
    /// refiner, spent budget or not. Returns the incumbents it reports,
    /// as [`TraceIncumbent`] records them, and each build's outcome.
    fn reference_restarts(
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
        refine: &mut Refiner<'_>,
    ) -> (Vec<(Schedule, u64)>, Vec<Outcome>) {
        let baseline = greedy_general_schedule(g, b);
        let clock = ManualClock::new();
        let mut meter = BudgetMeter::new(&cfg.budget, &clock);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut reports = vec![(baseline.clone(), 0)];
        let mut outcomes = Vec::new();
        for _trial in 0..cfg.trials {
            if meter.exhausted() {
                break;
            }
            let mut ledger = EnergyLedger::new(b.clone());
            let mut cand = Schedule::new();
            loop {
                let alive = alive_set(g.n(), &ledger);
                let Some(seed_ds) = greedy_dominating_set(g, &alive) else {
                    break;
                };
                let ds = refine(g, &alive, seed_ds, &mut rng, &mut meter);
                let d = ledger.max_duration(&ds);
                if d == 0 {
                    break;
                }
                ledger.charge(&ds, d).expect("duration within budget");
                cand.push(ds, d);
            }
            if cand.lifetime() > reports.last().unwrap().0.lifetime() {
                meter.note_improvement();
                reports.push((cand, meter.iterations()));
                outcomes.push(Outcome::Adopted);
            } else if cand == baseline {
                outcomes.push(Outcome::Baseline);
            } else {
                outcomes.push(Outcome::Discarded);
            }
        }
        (reports, outcomes)
    }

    thread_local! {
        /// Every outcome the reference cases below came to.
        static OUTCOMES: RefCell<Vec<Outcome>> = const { RefCell::new(Vec::new()) };
    }

    const BUDGETS: [u64; 5] = [1, 2, 50, 817, 5000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Tabu and sa report the same incumbents, at the same iteration
        /// counts, as the reference loop.
        fn restarts_match_the_reference_cases(
            (n, p, gseed) in (8..=60usize, 0.05f64..0.4, 0..1_000u64),
            (battery_seed, seed, budget, trials) in (0..1_000u64, 0..1_000u64, 0..5usize, 0..2usize),
        ) {
            let g = gnp(n, p, gseed);
            let mut rng = StdRng::seed_from_u64(battery_seed);
            let b = Batteries::from_vec((0..n).map(|_| rng.random_range(1..=4)).collect());
            let cfg = SolverConfig::new()
                .seed(seed)
                .trials([1, 3][trials])
                .budget(Budget::new().max_iterations(BUDGETS[budget]));
            let solvers: [(&dyn Solver, &mut Refiner<'_>); 2] = [
                (&TabuSolver::new(), &mut |g, alive, ds, rng, meter| {
                    tabu_refine(g, alive, &b, ds, rng, meter)
                }),
                (&SaSolver::new(), &mut anneal_refine),
            ];
            for (solver, refine) in solvers {
                let (reports, outcomes) = reference_restarts(&g, &b, &cfg, refine);
                let mut trace = TraceIncumbent::new();
                let best = solver.solve_with(&g, &b, &cfg, &mut trace).unwrap();
                prop_assert_eq!(&trace.reports, &reports, "{}", solver.name());
                prop_assert_eq!(&best, &reports.last().unwrap().0);
                OUTCOMES.with(|o| o.borrow_mut().extend(outcomes));
            }
        }
    }

    #[test]
    fn restarts_match_the_reference() {
        restarts_match_the_reference_cases();
        // The cases reach every outcome a build can have.
        let outcomes = OUTCOMES.with(|o| o.take());
        for outcome in [Outcome::Baseline, Outcome::Adopted, Outcome::Discarded] {
            let seen = outcomes.iter().filter(|&&o| o == outcome).count();
            assert!(seen > 0, "no {outcome:?} build in {outcomes:?}");
        }
    }
}
