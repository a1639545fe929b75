//! The unified, budget-aware `Solver` API.
//!
//! Four incompatible entry points grew out of the paper's three
//! algorithms plus the greedy baseline — each with its own argument order
//! and return shape. Everything downstream (the CLI, the serve layer, the
//! experiment harness, and above all the adaptive rescheduling runtime,
//! which must re-plan over an arbitrary surviving subgraph) wants one
//! shape: *graph + batteries + config in, validated schedule out*.
//!
//! [`Solver`] is that shape, and since the anytime redesign it has two
//! entry points:
//!
//! - [`Solver::schedule`] — one shot: config in, best schedule out.
//! - [`Solver::solve_with`] — anytime: the solver reports every incumbent
//!   improvement through a caller-supplied [`Incumbent`], which may stop
//!   the solve early. The default implementation runs `schedule` once and
//!   reports the result, so one-shot solvers keep their exact historical
//!   behavior.
//!
//! How much work an anytime solver spends is governed by the
//! [`Budget`] inside [`SolverConfig`] (iteration cap, stall cutoff,
//! optional wall-clock deadline via an injectable [`Clock`]); the budget
//! is part of the config hash, so the serve cache keys per-budget.
//! Configs are validated — [`SolverConfig::validate`] returns typed
//! [`DomaticError::Config`] errors for nonsense like `trials == 0`
//! instead of silently solving garbage.
//!
//! ```
//! use domatic_core::solver::{Budget, Solver, SolverConfig, UniformSolver};
//! use domatic_graph::generators::regular::complete;
//! use domatic_schedule::Batteries;
//!
//! let g = complete(60);
//! let b = Batteries::uniform(60, 2);
//! let cfg = SolverConfig::new().seed(7).trials(4);
//! let s = UniformSolver.schedule(&g, &b, &cfg).unwrap();
//! assert!(s.lifetime() >= 2);
//!
//! // Validation is explicit and typed:
//! assert!(SolverConfig::new().trials(0).validate().is_err());
//! ```

use crate::bounds::{fault_tolerant_upper_bound, general_upper_bound};
use crate::error::DomaticError;
use crate::fault_tolerant::fault_tolerant_schedule;
use crate::general::{general_schedule, GeneralParams};
use crate::greedy::greedy_general_schedule;
use crate::stochastic::best_of;
use crate::uniform::{uniform_schedule, UniformParams};
use domatic_graph::Graph;
use domatic_schedule::{longest_valid_prefix, Batteries, Schedule};
use std::borrow::Cow;

pub use crate::budget::{Budget, BudgetMeter, Clock, ManualClock, SystemClock};

/// Shared solver parameters, built fluently.
///
/// Defaults match the CLI's historical defaults: `seed 0`, `trials 8`,
/// `k 1`, `c 3.0` (the paper's range constant), `hops 1`, default
/// [`Budget`]. Call [`SolverConfig::validate`] when the values come from
/// untrusted input — it rejects invalid combinations with typed errors;
/// the registry solvers also re-validate at solve time.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// Base seed; trial `i` runs with `seed + i`.
    pub seed: u64,
    /// Best-of-R restarts (must be ≥ 1).
    pub trials: u64,
    /// Domination tolerance for the fault-tolerant solver (`k`-domination).
    pub k: usize,
    /// The color-range constant `c` (paper §4: `c ≥ 3`; must be > 0).
    pub c: f64,
    /// Coverage radius: every node must have its dominators within `hops`
    /// hops (d-hop domination; `1` is classic closed-neighborhood
    /// coverage; must be ≥ 1). Solvers lift any `hops > 1` instance to the
    /// graph power `G^hops` via [`effective_graph`], so every algorithm
    /// supports it.
    pub hops: usize,
    /// Work budget for the anytime solvers (tabu / sa / portfolio); the
    /// one-shot paper solvers ignore it.
    pub budget: Budget,
}

impl SolverConfig {
    /// The default configuration.
    pub fn new() -> Self {
        SolverConfig {
            seed: 0,
            trials: 8,
            k: 1,
            c: 3.0,
            hops: 1,
            budget: Budget::new(),
        }
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of best-of-R restarts.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the fault-tolerance level `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the color-range constant `c`.
    pub fn c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the coverage radius (d-hop domination).
    pub fn hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    /// Sets the anytime work budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Checks the configuration, returning the first problem as a typed
    /// [`DomaticError::Config`]. Every registry solver calls this before
    /// touching the instance.
    pub fn validate(&self) -> Result<(), DomaticError> {
        if self.trials == 0 {
            return Err(DomaticError::Config {
                message: "trials must be >= 1 (0 restarts would solve nothing)".into(),
            });
        }
        if self.c <= 0.0 || self.c.is_nan() {
            return Err(DomaticError::Config {
                message: format!("c must be > 0 (got {})", self.c),
            });
        }
        if self.hops == 0 {
            return Err(DomaticError::Config {
                message: "hops must be >= 1 (0-hop coverage is undefined)".into(),
            });
        }
        Ok(())
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The graph a solver actually schedules on: `g` itself when `hops <= 1`
/// (borrowed — zero cost, bit-identical to the pre-hops behavior), the
/// graph power `G^hops` otherwise. d-hop k-domination of `G` is exactly
/// k-domination of `G^hops`, so lifting the instance makes every 1-hop
/// algorithm — and its internal validation — correct for `--hops d`
/// without modification.
pub fn effective_graph(g: &Graph, hops: usize) -> Cow<'_, Graph> {
    if hops <= 1 {
        Cow::Borrowed(g)
    } else {
        Cow::Owned(g.power(hops))
    }
}

/// Receives incumbent schedules from an anytime solve.
///
/// Every schedule reported is fully valid for the instance at the
/// solver's tolerance — solvers report *validated* improvements, never
/// raw search states — and each report's lifetime is ≥ every earlier
/// report's. Return `false` to ask the solver to stop early; it will
/// still return the best schedule found so far.
pub trait Incumbent {
    /// Called with each new best schedule and the iteration count at
    /// which it was found (0 for the initial seed solution).
    fn report(&mut self, schedule: &Schedule, iteration: u64) -> bool;
}

/// An [`Incumbent`] that ignores every report and never stops the solver
/// — turns `solve_with` back into one-shot `schedule`.
pub struct DiscardIncumbent;

impl Incumbent for DiscardIncumbent {
    fn report(&mut self, _schedule: &Schedule, _iteration: u64) -> bool {
        true
    }
}

/// An [`Incumbent`] that records every report — the improvement trace a
/// caller inspects after the solve.
#[derive(Default)]
pub struct TraceIncumbent {
    /// Each reported `(schedule, iteration)` in report order.
    pub reports: Vec<(Schedule, u64)>,
}

impl TraceIncumbent {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last (best) schedule reported, if any.
    pub fn best(&self) -> Option<&Schedule> {
        self.reports.last().map(|(s, _)| s)
    }
}

impl Incumbent for TraceIncumbent {
    fn report(&mut self, schedule: &Schedule, iteration: u64) -> bool {
        self.reports.push((schedule.clone(), iteration));
        true
    }
}

/// A cluster-lifetime scheduler: graph + batteries in, validated schedule
/// out. Object-safe so runtimes can hold `&dyn Solver` / `Box<dyn Solver>`.
pub trait Solver: Sync {
    /// Registry name (what `--solver` / `--alg` accepts).
    fn name(&self) -> &'static str;

    /// One-line description for `--solver` listings.
    fn describe(&self) -> &'static str;

    /// The tolerance level the emitted schedule is valid at (1 for plain
    /// domination; the fault-tolerant solver returns `cfg.k`).
    fn tolerance(&self, cfg: &SolverConfig) -> usize {
        let _ = cfg;
        1
    }

    /// The matching `L_OPT` upper bound for reporting. Computed on the
    /// [`effective_graph`], so `hops > 1` bounds reflect the denser d-hop
    /// coverage (minimum degree of `G^hops`).
    fn upper_bound(&self, g: &Graph, b: &Batteries, cfg: &SolverConfig) -> u64 {
        general_upper_bound(&effective_graph(g, cfg.hops), b)
    }

    /// Computes a schedule that is valid for `(g, b)` at
    /// [`Solver::tolerance`]. Implementations validate internally (via
    /// `longest_valid_prefix`), so the result needs no further clipping.
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError>;

    /// Anytime entry point: reports each incumbent improvement through
    /// `incumbent` and returns the final best schedule. The default
    /// implementation runs [`Solver::schedule`] once and reports the
    /// result, so one-shot solvers behave bit-identically through either
    /// entry point; the anytime solvers (tabu / sa / portfolio) override
    /// it to stream improvements as they are found.
    fn solve_with(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
        incumbent: &mut dyn Incumbent,
    ) -> Result<Schedule, DomaticError> {
        let s = self.schedule(g, b, cfg)?;
        incumbent.report(&s, 0);
        Ok(s)
    }
}

pub(crate) fn check_sizes(g: &Graph, b: &Batteries) -> Result<(), DomaticError> {
    if g.n() != b.n() {
        return Err(DomaticError::SizeMismatch {
            graph: g.n(),
            batteries: b.n(),
        });
    }
    Ok(())
}

fn uniform_level(b: &Batteries, solver: &'static str) -> Result<u64, DomaticError> {
    if !b.is_uniform() {
        return Err(DomaticError::NonUniformBatteries { solver });
    }
    Ok(b.max())
}

/// Algorithm 1 (paper §4): uniform batteries, one random color per node.
/// Rejects non-uniform battery vectors.
pub struct UniformSolver;

impl Solver for UniformSolver {
    fn name(&self) -> &'static str {
        "uniform"
    }
    fn describe(&self) -> &'static str {
        "Algorithm 1: uniform batteries, random coloring (best-of-R)"
    }
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError> {
        cfg.validate()?;
        check_sizes(g, b)?;
        let level = uniform_level(b, self.name())?;
        let g = effective_graph(g, cfg.hops);
        let batteries = Batteries::uniform(g.n(), level);
        let (s, _seed) = best_of(cfg.trials, cfg.seed, |seed| {
            let (s, _) = uniform_schedule(&g, level, &UniformParams { c: cfg.c, seed });
            longest_valid_prefix(&g, &batteries, &s, 1)
        });
        Ok(s)
    }
}

/// Algorithm 2 (paper §5): arbitrary batteries, `b_v` random colors per
/// node.
pub struct GeneralSolver;

impl Solver for GeneralSolver {
    fn name(&self) -> &'static str {
        "general"
    }
    fn describe(&self) -> &'static str {
        "Algorithm 2: general batteries, multi-coloring (best-of-R)"
    }
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError> {
        cfg.validate()?;
        check_sizes(g, b)?;
        let g = effective_graph(g, cfg.hops);
        let (s, _seed) = best_of(cfg.trials, cfg.seed, |seed| {
            let (s, _) = general_schedule(&g, b, &GeneralParams { c: cfg.c, seed });
            longest_valid_prefix(&g, b, &s, 1)
        });
        Ok(s)
    }
}

/// The deterministic greedy baseline (§3): repeatedly peel greedy
/// dominating sets weighted by residual budget. Handles any battery
/// vector and never fails on a non-empty instance, which makes it the
/// replan fallback of the adaptive runtime.
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn describe(&self) -> &'static str {
        "greedy baseline: deterministic budget-aware set peeling"
    }
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError> {
        cfg.validate()?;
        check_sizes(g, b)?;
        Ok(greedy_general_schedule(&effective_graph(g, cfg.hops), b))
    }
}

/// Algorithm 3 (paper §6): k-tolerant uniform schedules (everyone-on
/// phase, then merged color classes). Rejects non-uniform batteries.
pub struct FaultTolerantSolver;

impl Solver for FaultTolerantSolver {
    fn name(&self) -> &'static str {
        "ft"
    }
    fn describe(&self) -> &'static str {
        "Algorithm 3: k-tolerant uniform schedules (set --k)"
    }
    fn tolerance(&self, cfg: &SolverConfig) -> usize {
        cfg.k.max(1)
    }
    fn upper_bound(&self, g: &Graph, b: &Batteries, cfg: &SolverConfig) -> u64 {
        fault_tolerant_upper_bound(&effective_graph(g, cfg.hops), b.max(), cfg.k.max(1))
    }
    fn schedule(
        &self,
        g: &Graph,
        b: &Batteries,
        cfg: &SolverConfig,
    ) -> Result<Schedule, DomaticError> {
        cfg.validate()?;
        check_sizes(g, b)?;
        let level = uniform_level(b, self.name())?;
        let g = effective_graph(g, cfg.hops);
        let k = cfg.k.max(1);
        let batteries = Batteries::uniform(g.n(), level);
        let (s, _seed) = best_of(cfg.trials, cfg.seed, |seed| {
            let run = fault_tolerant_schedule(&g, level, k, &UniformParams { c: cfg.c, seed });
            longest_valid_prefix(&g, &batteries, &run.schedule, k)
        });
        Ok(s)
    }
}

/// Every registered solver, in presentation order. The single source of
/// truth behind `--solver` for `schedule`, `simulate`, `adapt`, and the
/// serve protocol. The anytime solvers are constructed on the real
/// [`SystemClock`]; build them directly (`TabuSolver::with_clock` etc.)
/// to inject a test clock.
pub fn solver_registry() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(UniformSolver),
        Box::new(GeneralSolver),
        Box::new(GreedySolver),
        Box::new(FaultTolerantSolver),
        Box::new(crate::tabu::TabuSolver::new()),
        Box::new(crate::sa::SaSolver::new()),
        Box::new(crate::portfolio::PortfolioSolver::new()),
    ]
}

/// The registered solver names, in registry order.
pub fn solver_names() -> Vec<&'static str> {
    solver_registry().iter().map(|s| s.name()).collect()
}

/// Looks a solver up by name.
pub fn make_solver(name: &str) -> Result<Box<dyn Solver>, DomaticError> {
    solver_registry()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| DomaticError::UnknownSolver {
            name: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::gnp::gnp_with_avg_degree;
    use domatic_graph::generators::regular::complete;
    use domatic_schedule::validate_schedule;

    #[test]
    fn every_registered_solver_emits_a_valid_schedule() {
        let g = gnp_with_avg_degree(80, 25.0, 5);
        let b = Batteries::uniform(80, 3);
        let cfg = SolverConfig::new().trials(4).seed(11).k(2);
        for solver in solver_registry() {
            let s = solver.schedule(&g, &b, &cfg).unwrap();
            let k = solver.tolerance(&cfg);
            validate_schedule(&g, &b, &s, k).unwrap_or_else(|v| panic!("{}: {v}", solver.name()));
            assert!(s.lifetime() <= solver.upper_bound(&g, &b, &cfg));
        }
    }

    #[test]
    fn uniform_solvers_reject_nonuniform_batteries() {
        let g = complete(10);
        let b = Batteries::from_vec((1..=10).collect());
        let cfg = SolverConfig::new();
        for name in ["uniform", "ft"] {
            let err = make_solver(name)
                .unwrap()
                .schedule(&g, &b, &cfg)
                .unwrap_err();
            assert!(
                matches!(err, DomaticError::NonUniformBatteries { .. }),
                "{name}"
            );
        }
        // The general-battery solvers accept the same instance.
        for name in ["general", "greedy", "tabu", "sa", "portfolio"] {
            assert!(
                make_solver(name).unwrap().schedule(&g, &b, &cfg).is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn size_mismatch_is_typed() {
        let g = complete(5);
        let b = Batteries::uniform(4, 2);
        let err = GreedySolver
            .schedule(&g, &b, &SolverConfig::new())
            .unwrap_err();
        assert_eq!(
            err,
            DomaticError::SizeMismatch {
                graph: 5,
                batteries: 4
            }
        );
    }

    #[test]
    fn registry_lookup() {
        assert_eq!(
            solver_names(),
            vec![
                "uniform",
                "general",
                "greedy",
                "ft",
                "tabu",
                "sa",
                "portfolio"
            ]
        );
        assert!(make_solver("greedy").is_ok());
        assert!(make_solver("portfolio").is_ok());
        assert!(matches!(
            make_solver("nope"),
            Err(DomaticError::UnknownSolver { .. })
        ));
    }

    #[test]
    fn config_builder_sets_every_field() {
        let budget = Budget::new().max_iterations(9).deadline_ms(100);
        let cfg = SolverConfig::new()
            .seed(9)
            .trials(3)
            .k(2)
            .c(4.5)
            .hops(2)
            .budget(budget.clone());
        assert_eq!(
            cfg,
            SolverConfig {
                seed: 9,
                trials: 3,
                k: 2,
                c: 4.5,
                hops: 2,
                budget,
            }
        );
    }

    #[test]
    fn validating_builder_accepts_good_configs() {
        let cfg = SolverConfig::new()
            .seed(5)
            .trials(2)
            .k(1)
            .c(3.5)
            .hops(2)
            .budget(Budget::new().max_iterations(100));
        cfg.validate().unwrap();
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.budget.max_iterations, 100);
    }

    #[test]
    fn builder_rejects_zero_trials() {
        let err = SolverConfig::new().trials(0).validate().unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("trials"), "{err}");
    }

    #[test]
    fn builder_rejects_nonpositive_c() {
        for c in [0.0, -1.5, f64::NAN] {
            let err = SolverConfig::new().c(c).validate().unwrap_err();
            assert_eq!(err.kind(), "config", "c = {c}");
            assert!(err.to_string().contains('c'), "{err}");
        }
    }

    #[test]
    fn builder_rejects_zero_hops() {
        let err = SolverConfig::new().hops(0).validate().unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("hops"), "{err}");
    }

    #[test]
    fn solvers_reject_invalid_configs_at_solve_time() {
        let g = complete(6);
        let b = Batteries::uniform(6, 2);
        for solver in solver_registry() {
            let err = solver
                .schedule(&g, &b, &SolverConfig::new().trials(0))
                .unwrap_err();
            assert_eq!(err.kind(), "config", "{}", solver.name());
        }
    }

    #[test]
    fn hops_one_is_byte_identical_to_the_classic_path() {
        let g = gnp_with_avg_degree(60, 8.0, 4);
        let b = Batteries::uniform(60, 2);
        let base = SolverConfig::new().trials(3).seed(17);
        let hop1 = base.clone().hops(1);
        for solver in solver_registry() {
            assert_eq!(
                solver.schedule(&g, &b, &base).unwrap(),
                solver.schedule(&g, &b, &hop1).unwrap(),
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn every_solver_emits_valid_d_hop_schedules() {
        use domatic_graph::domination::is_d_hop_k_dominating_set;
        let g = gnp_with_avg_degree(70, 4.0, 8);
        let b = Batteries::uniform(70, 2);
        let cfg = SolverConfig::new().trials(3).seed(2).k(2).hops(2);
        for solver in solver_registry() {
            let s = solver.schedule(&g, &b, &cfg).unwrap();
            let k = solver.tolerance(&cfg);
            // Valid on the power graph ⇔ every slot's active set is a
            // 2-hop k-dominating set of the original graph.
            validate_schedule(&g.power(2), &b, &s, k)
                .unwrap_or_else(|v| panic!("{}: {v}", solver.name()));
            for entry in s.entries() {
                assert!(
                    is_d_hop_k_dominating_set(&g, &entry.set, k, 2),
                    "{}: slot not 2-hop {k}-dominating",
                    solver.name()
                );
            }
            assert!(s.lifetime() <= solver.upper_bound(&g, &b, &cfg));
        }
    }

    #[test]
    fn default_solve_with_matches_schedule_and_reports_once() {
        let g = gnp_with_avg_degree(50, 10.0, 3);
        let b = Batteries::uniform(50, 2);
        let cfg = SolverConfig::new().trials(3).seed(5);
        for solver in [&UniformSolver as &dyn Solver, &GreedySolver] {
            let one_shot = solver.schedule(&g, &b, &cfg).unwrap();
            let mut trace = TraceIncumbent::new();
            let anytime = solver.solve_with(&g, &b, &cfg, &mut trace).unwrap();
            assert_eq!(one_shot, anytime, "{}", solver.name());
            assert_eq!(trace.reports.len(), 1, "{}", solver.name());
            assert_eq!(trace.best().unwrap(), &one_shot, "{}", solver.name());
        }
    }
}
