//! The paper's three algorithms as genuinely local protocols.
//!
//! Each re-implements the color-choosing logic of `domatic-core` on top of
//! the round engine, computing every aggregate (`δ²⁾`, `b̂²⁾`, `τ²⁾`) from
//! received messages only. Tests cross-check the gossiped aggregates
//! against direct graph queries, and experiment E8 reports the measured
//! communication cost (constant rounds, one broadcast per node per round —
//! the property §1 of the paper advertises).

pub mod fault_tolerant;
pub mod general;
pub mod luby;
pub mod uniform;
