//! Incremental graph construction with validation.
//!
//! [`GraphBuilder`] is the checked, fallible counterpart to
//! [`Graph::from_edges`]: it reports out-of-range endpoints and self-loops
//! as errors instead of panicking or silently dropping, which is the right
//! behaviour when edges come from untrusted input (e.g. the edge-list text
//! format in [`crate::io`]).

use crate::csr::{Graph, NodeId};
use std::fmt;

/// Errors produced while assembling a graph from external input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// An edge `{v, v}` was added.
    SelfLoop { node: NodeId },
    /// A parse error from [`crate::io`], with 1-based line number.
    Parse { line: usize, message: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Builds an undirected [`Graph`] edge by edge.
///
/// Duplicate edges are tolerated and collapsed at [`GraphBuilder::build`]
/// time; self-loops and out-of-range endpoints are rejected eagerly.
///
/// ```
/// use domatic_graph::builder::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// b.add_edge(2, 3).unwrap();
/// let g = b.build();
/// assert_eq!(g.m(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if (u as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if (v as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((u, v));
        Ok(self)
    }

    /// Finalizes into an immutable CSR graph.
    pub fn build(self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_path() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(0, 5).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(1, 1).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new(2);
        for (u, v) in [(0, 1), (1, 0), (0, 1)] {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::NodeOutOfRange { node: 9, n: 3 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3"));
        let p = GraphError::Parse {
            line: 7,
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("line 7"));
    }
}
