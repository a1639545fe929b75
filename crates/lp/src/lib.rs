//! # domatic-lp
//!
//! Exact-optimum substrate for the `domatic` workspace: a from-scratch
//! dense two-phase simplex solver, enumeration of minimal dominating sets,
//! and the maximum-cluster-lifetime LP whose optimum is the reference value
//! `L_OPT` that the paper's approximation guarantees are stated against.
//!
//! The paper (Moscibroda & Wattenhofer, IPDPS 2005) never computes optima —
//! its proofs compare against the closed-form bounds of Lemmas 4.1/5.1/6.1.
//! For the reproduction's small instances we can do better and measure true
//! approximation ratios; that is this crate's job.
//!
//! ```
//! use domatic_graph::generators::regular::complete;
//! use domatic_lp::domatic_lp::lp_optimal_lifetime;
//!
//! let g = complete(4);
//! let opt = lp_optimal_lifetime(&g, &[1.0; 4], 1000).unwrap();
//! assert!((opt.lifetime - 4.0).abs() < 1e-6);
//! ```

pub mod domatic_lp;
pub mod enumerate;
pub mod ilp;
pub mod problem;
pub mod simplex;

pub use domatic_lp::{
    exact_integral_lifetime, figure1_instance, lp_optimal_lifetime, ExactError, FractionalOptimum,
};
pub use enumerate::{exact_domatic_number, minimal_dominating_sets, TooManySets};
pub use ilp::{branch_and_bound_lifetime, IntegralOptimum};
pub use problem::{Constraint, LinearProgram, Relation};
pub use simplex::{solve, LpSolution};
