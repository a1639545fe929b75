//! # domatic-core
//!
//! The primary contribution of Moscibroda & Wattenhofer, *Maximizing the
//! Lifetime of Dominating Sets* (IPDPS 2005): randomized, effectively local
//! approximation algorithms for the **maximum cluster-lifetime problem** —
//! schedule disjoint dominating sets so the network stays clustered as long
//! as possible under per-node battery budgets.
//!
//! | paper item | here |
//! |------------|------|
//! | Algorithm 1 (uniform batteries, §4) | [`uniform::uniform_schedule`] |
//! | Algorithm 2 (general batteries, §5) | [`general::general_schedule`] |
//! | Algorithm 3 (k-tolerant, §6) | [`fault_tolerant::fault_tolerant_schedule`] |
//! | Lemmas 4.1 / 5.1 / 6.1 (L_OPT bounds) | [`bounds`] |
//! | greedy domatic baseline (§3) | [`greedy`] |
//! | Feige et al. constructive partition | [`feige`] |
//! | best-of-R restarts (practice) | [`stochastic`] |
//!
//! The randomized algorithms' guarantees hold *with high probability*; the
//! harness therefore validates every emitted schedule with
//! `domatic_schedule::longest_valid_prefix`, exactly mirroring the paper's
//! analysis, which only counts the color classes it certifies.
//!
//! ```
//! use domatic_core::uniform::{uniform_schedule, UniformParams};
//! use domatic_graph::generators::regular::complete;
//! use domatic_schedule::{longest_valid_prefix, Batteries};
//!
//! let g = complete(100);
//! let b = 2;
//! let (raw, coloring) = uniform_schedule(&g, b, &UniformParams::default());
//! let valid = longest_valid_prefix(&g, &Batteries::uniform(100, b), &raw, 1);
//! assert!(valid.lifetime() >= b * coloring.guaranteed_classes as u64);
//! ```

pub mod augment;
pub mod bounds;
pub mod budget;
pub mod cds;
pub mod epochs;
pub mod error;
pub mod fault_tolerant;
pub mod feige;
pub mod general;
pub mod general_fault_tolerant;
pub mod greedy;
pub mod hash;
pub mod incremental;
pub mod io;
mod local_search;
pub mod partition;
pub mod portfolio;
pub mod sa;
pub mod solver;
pub mod stochastic;
pub mod tabu;
pub mod uniform;

pub use bounds::{fault_tolerant_upper_bound, general_upper_bound, uniform_upper_bound};
pub use budget::{Budget, BudgetMeter, Clock, ManualClock, SystemClock};
pub use error::DomaticError;
pub use fault_tolerant::{fault_tolerant_schedule, FaultTolerantRun};
pub use general::{general_schedule, GeneralParams, MultiColorAssignment};
pub use greedy::{greedy_domatic_partition, greedy_general_schedule, greedy_uniform_schedule};
pub use hash::{batteries_hash, config_hash, graph_hash, versioned_graph_hash, CanonicalHasher};
pub use incremental::GraphDelta;
pub use partition::ColorAssignment;
pub use portfolio::PortfolioSolver;
pub use sa::SaSolver;
pub use solver::{
    make_solver, solver_names, solver_registry, FaultTolerantSolver, GeneralSolver, GreedySolver,
    Incumbent, Solver, SolverConfig, UniformSolver,
};
pub use tabu::TabuSolver;
pub use uniform::{uniform_schedule, UniformParams};

/// One-stop imports for driving solvers: the trait, the registry, the
/// config/budget types, and the anytime callback surface.
///
/// ```
/// use domatic_core::prelude::*;
/// use domatic_graph::generators::regular::complete;
/// use domatic_schedule::Batteries;
///
/// let solver = make_solver("portfolio").unwrap();
/// let cfg = SolverConfig::new().trials(2);
/// cfg.validate().unwrap();
/// let s = solver
///     .schedule(&complete(20), &Batteries::uniform(20, 2), &cfg)
///     .unwrap();
/// assert!(s.lifetime() >= 2);
/// ```
pub mod prelude {
    pub use crate::budget::{Budget, Clock, ManualClock, SystemClock};
    pub use crate::error::DomaticError;
    pub use crate::portfolio::PortfolioSolver;
    pub use crate::sa::SaSolver;
    pub use crate::solver::{
        effective_graph, make_solver, solver_names, solver_registry, DiscardIncumbent,
        FaultTolerantSolver, GeneralSolver, GreedySolver, Incumbent, Solver, SolverConfig,
        TraceIncumbent, UniformSolver,
    };
    pub use crate::tabu::TabuSolver;
}
