//! Graph generators used as workloads by the experiments.
//!
//! Every randomized generator takes an explicit `u64` seed and is
//! deterministic given that seed, so experiment tables are reproducible.
//!
//! - [`gnp`] — Erdős–Rényi `G(n, p)` and `G(n, m)` random graphs.
//! - [`geometric`] — random geometric graphs / unit disk graphs, the
//!   standard model for sensor deployments (§3 of the paper).
//! - [`grid`] — 2D lattices with 4- or 8-neighborhoods, optionally toroidal.
//! - [`regular`] — deterministic families: paths, cycles, stars, cliques,
//!   complete bipartite graphs, hypercubes.
//! - [`fujita`] — the adversarial family on which the greedy domatic
//!   partition collapses to O(1) sets while the optimum is Θ(√n).
//! - [`planted`] — families whose domatic number is known exactly, used as
//!   ground truth in tests.

pub mod fujita;
pub mod geometric;
pub mod gnp;
pub mod grid;
pub mod planted;
pub mod preferential;
pub mod regular;
