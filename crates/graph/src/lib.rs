//! # domatic-graph
//!
//! The graph substrate of the `domatic` workspace: a flat, cache-friendly
//! CSR graph type, a bitset over node ids, generators for every topology
//! family the experiments use, traversal utilities, and the domination
//! predicates that define correctness for the lifetime schedulers built on
//! top (see `domatic-core`).
//!
//! Design points:
//! - [`Graph`] is immutable after construction; algorithms share it freely
//!   across threads (`&Graph` is `Send + Sync`).
//! - All randomized generators take explicit `u64` seeds and are
//!   deterministic.
//! - Node ids are dense `u32` indices; subsets are [`NodeSet`] bitsets.
//!
//! ```
//! use domatic_graph::prelude::*;
//!
//! let g = generators::gnp::gnp(100, 0.1, 42);
//! let mis = independent::greedy_mis(&g);
//! assert!(domination::is_dominating_set(&g, &mis));
//! ```

pub mod builder;
pub mod connected_domination;
pub mod csr;
pub mod domination;
pub mod flow;
pub mod generators;
pub mod independent;
pub mod io;
pub mod kcore;
pub mod nodeset;
pub mod properties;
pub mod subgraph;
pub mod traversal;

pub use builder::{GraphBuilder, GraphError};
pub use csr::{Graph, NodeId};
pub use nodeset::NodeSet;

/// Convenient glob import: `use domatic_graph::prelude::*;`.
pub mod prelude {
    pub use crate::builder::{GraphBuilder, GraphError};
    pub use crate::csr::{Graph, NodeId};
    pub use crate::nodeset::NodeSet;
    pub use crate::{
        connected_domination, domination, generators, independent, properties, subgraph, traversal,
    };
}
