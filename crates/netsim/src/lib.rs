//! # domatic-netsim
//!
//! A sensor-network lifetime simulator: the operational test bench that
//! turns the paper's abstract objective (keep a dominating set alive as
//! long as possible) into end-to-end numbers — slots of full coverage,
//! sensor readings delivered, energy consumed.
//!
//! Pieces:
//! - [`energy::EnergyModel`] — active vs. sleep per-slot costs (the paper's
//!   "orders of magnitude" gap, §1);
//! - [`strategies`] — activation policies: the paper's domatic rotation
//!   against three baselines (all-active, single-MDS-until-death, random
//!   rotation);
//! - [`sim::simulate`] — slot-by-slot execution with k-coverage checking;
//! - [`failures::FailureInjector`] — crash injection for the §6
//!   fault-tolerance story;
//! - [`failures::FailurePlan`] — pre-drawn, seed-deterministic failure
//!   traces (crash, battery noise, transient loss);
//! - [`adaptive`] — the online rescheduling runtime: executes a schedule
//!   against a failure plan, detects divergence, and re-plans over the
//!   surviving subgraph through any `domatic_core` solver.
//!
//! ```
//! use domatic_netsim::energy::EnergyModel;
//! use domatic_netsim::sim::{simulate, SimConfig};
//! use domatic_netsim::strategies::SingleMds;
//! use domatic_graph::generators::regular::star;
//!
//! let g = star(10);
//! let cfg = SimConfig { model: EnergyModel::ideal(), k: 1, max_slots: 1_000, switch_cost: 0.0 };
//! let res = simulate(&g, &[5.0; 10], &mut SingleMds::new(), &cfg, None);
//! assert!(res.lifetime >= 5); // the center alone covers 5 slots
//! ```

pub mod adaptive;
pub mod datagather;
pub mod energy;
pub mod failures;
pub mod sim;
pub mod strategies;

pub use adaptive::{
    compare_static_adaptive, run_adaptive, run_adaptive_from, run_static, AdaptiveComparison,
    AdaptiveConfig, AdaptiveEnd, AdaptiveRun, CoveragePoint, StaticRun,
};
pub use energy::EnergyModel;
pub use failures::{FailureInjector, FailureModel, FailurePlan};
pub use sim::{simulate, simulate_observed, EndReason, SimConfig, SimResult, SlotRecord};
pub use strategies::{
    AllActive, DomaticRotation, FollowSchedule, RandomRotation, SingleMds, Strategy,
};
