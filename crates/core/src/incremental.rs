//! Graph deltas for dynamic graphs.
//!
//! A live deployment churns: nodes crash, links flap, batteries drain
//! and recharge. The serving tier models each churn event as a
//! [`GraphDelta`] applied to a named graph, producing a new graph
//! version. [`GraphDelta::apply`] is the version-agnostic core: it
//! rewrites a topology with the same index-compaction rules as the
//! subgraph machinery the adaptive runtime is built on, and it rejects
//! no-op writes so every applied delta yields a new version.
//!
//! # Why there is no repair
//!
//! The serving tier's contract is that response bytes are a pure
//! function of `(graph content, batteries, request)`, independent of
//! how the graph came to be (mutated in place or registered fresh).
//! Versions are content-addressed
//! ([`versioned_graph_hash`](crate::hash::versioned_graph_hash)), so a
//! solve after a mutation is an ordinary solve of the new content: the
//! same [`Solver::schedule`](crate::solver::Solver::schedule) call as
//! any other cache miss, and byte-identical to a fresh registration by
//! construction.
//!
//! Reusing the previous version's schedule would have to keep that
//! contract. A repair that returns a schedule which is merely *valid*
//! would let one graph hash cache two payloads depending on history,
//! and a repair that runs the full solve anyway to check itself saves
//! nothing. A future repair must therefore come with a per-solver
//! locality proof: that solver's output outside the delta's d-hop ball
//! provably does not change, so the unchanged part can be copied and
//! only the ball re-solved. It must also come with a benchmark row
//! showing that it beats a full solve.

use crate::error::DomaticError;
use domatic_graph::{Graph, NodeId};

/// One churn event against a graph version.
///
/// Node identifiers refer to the *pre-delta* graph; `RemoveNode`
/// compacts the id space exactly like
/// [`domatic_graph::subgraph::remove_nodes`] (survivors keep their
/// relative order, ids above the removed node shift down by one), and
/// `AddNode` appends the new node at id `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphDelta {
    /// Append node `n` with edges to `neighbors` (existing ids).
    AddNode { neighbors: Vec<NodeId> },
    /// Remove one node; ids above it shift down by one.
    RemoveNode { node: NodeId },
    /// Insert the edge `{u, v}`; rejected if it already exists.
    AddEdge { u: NodeId, v: NodeId },
    /// Delete the edge `{u, v}`; rejected if it does not exist.
    RemoveEdge { u: NodeId, v: NodeId },
    /// Pin one node's battery to `value` (an overlay over the
    /// per-request uniform level). Topology is unchanged.
    SetBattery { node: NodeId, value: u64 },
}

impl GraphDelta {
    /// Wire/trace name of the mutation action.
    pub fn action(&self) -> &'static str {
        match self {
            GraphDelta::AddNode { .. } => "add_node",
            GraphDelta::RemoveNode { .. } => "remove_node",
            GraphDelta::AddEdge { .. } => "add_edge",
            GraphDelta::RemoveEdge { .. } => "remove_edge",
            GraphDelta::SetBattery { .. } => "set_battery",
        }
    }

    /// Applies the delta to a topology, returning the mutated graph.
    ///
    /// No-op mutations (adding a present edge, removing an absent one)
    /// are rejected rather than silently accepted so every applied
    /// mutation is guaranteed to produce a new graph version.
    /// `SetBattery` validates its node and returns the topology
    /// unchanged — callers that track battery overlays separately (the
    /// server does) need not rebuild anything for it.
    pub fn apply(&self, g: &Graph) -> Result<Graph, DomaticError> {
        let n = g.n();
        let check = |v: NodeId, what: &str| -> Result<(), DomaticError> {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(DomaticError::BadRequest {
                    message: format!("{what} {v} out of range for graph with {n} nodes"),
                })
            }
        };
        match self {
            GraphDelta::AddNode { neighbors } => {
                for &w in neighbors {
                    check(w, "neighbor")?;
                }
                let mut edges = undirected_edges(g);
                let fresh = n as NodeId;
                edges.extend(neighbors.iter().map(|&w| (w, fresh)));
                Ok(Graph::from_edges(n + 1, &edges))
            }
            GraphDelta::RemoveNode { node } => {
                check(*node, "node")?;
                if n == 1 {
                    return Err(DomaticError::BadRequest {
                        message: "cannot remove the last node".to_string(),
                    });
                }
                let shift = |v: NodeId| if v > *node { v - 1 } else { v };
                let edges: Vec<(NodeId, NodeId)> = undirected_edges(g)
                    .into_iter()
                    .filter(|&(u, w)| u != *node && w != *node)
                    .map(|(u, w)| (shift(u), shift(w)))
                    .collect();
                Ok(Graph::from_edges(n - 1, &edges))
            }
            GraphDelta::AddEdge { u, v } => {
                check(*u, "node")?;
                check(*v, "node")?;
                if u == v {
                    return Err(DomaticError::BadRequest {
                        message: "self-loops are not allowed".to_string(),
                    });
                }
                if g.neighbors(*u).contains(v) {
                    return Err(DomaticError::BadRequest {
                        message: format!("edge ({u}, {v}) already exists"),
                    });
                }
                let mut edges = undirected_edges(g);
                edges.push((*u, *v));
                Ok(Graph::from_edges(n, &edges))
            }
            GraphDelta::RemoveEdge { u, v } => {
                check(*u, "node")?;
                check(*v, "node")?;
                if !g.neighbors(*u).contains(v) {
                    return Err(DomaticError::BadRequest {
                        message: format!("edge ({u}, {v}) does not exist"),
                    });
                }
                let edges: Vec<(NodeId, NodeId)> = undirected_edges(g)
                    .into_iter()
                    .filter(|&(a, b)| (a.min(b), a.max(b)) != ((*u).min(*v), (*u).max(*v)))
                    .collect();
                Ok(Graph::from_edges(n, &edges))
            }
            GraphDelta::SetBattery { node, .. } => {
                check(*node, "node")?;
                Ok(g.clone())
            }
        }
    }
}

/// The undirected edge list of `g`, each edge once with `u < v`.
fn undirected_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::with_capacity(g.m());
    for u in 0..g.n() as NodeId {
        for &w in g.neighbors(u) {
            if u < w {
                edges.push((u, w));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::regular::cycle;
    use domatic_graph::NodeSet;

    #[test]
    fn add_edge_then_remove_edge_round_trips() {
        let g = cycle(8);
        let added = GraphDelta::AddEdge { u: 0, v: 4 }.apply(&g).unwrap();
        assert_eq!(added.m(), g.m() + 1);
        let back = GraphDelta::RemoveEdge { u: 4, v: 0 }.apply(&added).unwrap();
        assert_eq!(crate::hash::graph_hash(&back), crate::hash::graph_hash(&g));
    }

    #[test]
    fn add_node_appends_at_the_end() {
        let g = cycle(5);
        let bigger = GraphDelta::AddNode {
            neighbors: vec![0, 2],
        }
        .apply(&g)
        .unwrap();
        assert_eq!(bigger.n(), 6);
        assert_eq!(bigger.neighbors(5), &[0, 2]);
    }

    #[test]
    fn remove_node_compacts_ids_like_remove_nodes() {
        let g = cycle(6);
        let smaller = GraphDelta::RemoveNode { node: 2 }.apply(&g).unwrap();
        let mut drop = NodeSet::new(6);
        drop.insert(2);
        let via_subgraph = domatic_graph::subgraph::remove_nodes(&g, &drop);
        assert_eq!(
            crate::hash::graph_hash(&smaller),
            crate::hash::graph_hash(&via_subgraph.graph)
        );
    }

    #[test]
    fn noop_mutations_are_rejected() {
        let g = cycle(4);
        assert!(GraphDelta::AddEdge { u: 0, v: 1 }.apply(&g).is_err());
        assert!(GraphDelta::RemoveEdge { u: 0, v: 2 }.apply(&g).is_err());
        assert!(GraphDelta::AddEdge { u: 3, v: 3 }.apply(&g).is_err());
        assert!(GraphDelta::RemoveNode { node: 9 }.apply(&g).is_err());
        assert!(GraphDelta::SetBattery { node: 7, value: 3 }
            .apply(&g)
            .is_err());
    }

    #[test]
    fn removing_last_node_is_rejected() {
        let g = Graph::from_edges(1, &[]);
        assert!(GraphDelta::RemoveNode { node: 0 }.apply(&g).is_err());
    }
}
