//! Compressed sparse row (CSR) representation of an undirected graph.
//!
//! The CSR layout stores all adjacency lists in a single flat `targets`
//! array indexed by a per-node `offsets` array. This is the cache-friendly
//! layout recommended for graph kernels: iterating a neighborhood is a
//! contiguous slice scan with no pointer chasing and no per-node allocation.
//!
//! Graphs are immutable once built (see [`crate::builder::GraphBuilder`]);
//! every algorithm in the workspace treats `Graph` as shared read-only data,
//! which makes parallel traversal trivially data-race free.

use std::fmt;

/// Identifier of a node: a dense index in `0..n`.
///
/// `u32` keeps adjacency arrays half the size of `usize` on 64-bit targets,
/// which matters for cache footprint on large instances; graphs with more
/// than `u32::MAX` nodes are outside the scope of this library.
pub type NodeId = u32;

/// An immutable undirected graph in CSR form.
///
/// Invariants (established by every constructor; the tests check the
/// last one with [`Graph::is_symmetric`]):
/// - `offsets.len() == n + 1`, `offsets[0] == 0`, `offsets` is non-decreasing
///   and `offsets[n] == targets.len()`.
/// - every adjacency list `targets[offsets[v]..offsets[v+1]]` is strictly
///   sorted (thus no duplicate edges) and contains no self-loop.
/// - adjacency is symmetric: `u ∈ N(v) ⇔ v ∈ N(u)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Graph {
    /// Builds an undirected graph on `n` nodes from an edge list.
    ///
    /// Edges may appear in any order and in either orientation; duplicates
    /// and self-loops are silently dropped. Each surviving edge `{u, v}`
    /// contributes `v` to `N(u)` and `u` to `N(v)`.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut deg = vec![0usize; n];
        let mut clean: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a}, {b}) out of range for n = {n}"
            );
            if a == b {
                continue;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            clean.push((lo, hi));
        }
        clean.sort_unstable();
        clean.dedup();
        for &(a, b) in &clean {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in deg.iter().take(n) {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; acc];
        for &(a, b) in &clean {
            targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        // Adjacency lists were filled in sorted edge order, so each list is
        // already sorted for the `a`-side; the `b`-side needs a sort.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { offsets, targets }
    }

    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// The open neighborhood `N(v)` as a sorted slice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree `δ_v = |N(v)|`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Closed degree `|N⁺(v)| = δ_v + 1`.
    #[inline]
    pub fn closed_degree(&self, v: NodeId) -> usize {
        self.degree(v) + 1
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log δ_u)`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// Iterator over undirected edges, each reported once as `(u, v)` with
    /// `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Minimum degree `δ` over all nodes. Returns `None` on the empty graph
    /// (no nodes), and `Some(0)` if there is an isolated node.
    pub fn min_degree(&self) -> Option<usize> {
        (0..self.n()).map(|v| self.degree(v as NodeId)).min()
    }

    /// Maximum degree `Δ` over all nodes; `None` on the node-less graph.
    pub fn max_degree(&self) -> Option<usize> {
        (0..self.n()).map(|v| self.degree(v as NodeId)).max()
    }

    /// `δ²⁾_v = min_{u ∈ N⁺(v)} δ_u`: the minimum degree within the closed
    /// neighborhood of `v`. This is exactly the quantity each node computes
    /// in line 3 of the paper's Algorithm 1 after one exchange of degrees.
    pub fn min_degree_closed_neighborhood(&self, v: NodeId) -> usize {
        let mut best = self.degree(v);
        for &u in self.neighbors(v) {
            best = best.min(self.degree(u));
        }
        best
    }

    /// Whether the adjacency is symmetric (`u ∈ N(v) ⇔ v ∈ N(u)`): the
    /// invariant the property tests check on every generated graph.
    pub fn is_symmetric(&self) -> bool {
        self.nodes().all(|u| {
            self.neighbors(u)
                .iter()
                .all(|&v| self.neighbors(v).binary_search(&u).is_ok())
        })
    }

    /// The `d`-th graph power `G^d`: same nodes, with an edge `{u, v}`
    /// whenever `0 < dist(u, v) ≤ d`. Domination on `G^d` is exactly
    /// d-hop domination on `G`, which is how the solvers lift every 1-hop
    /// algorithm to `--hops d` without modification.
    ///
    /// `power(1)` returns a plain clone. Built by a bounded BFS from every
    /// node; the result can be much denser than `G` (up to `n²` entries),
    /// which is inherent to the power graph, not a representation choice.
    ///
    /// # Panics
    /// Panics if `d == 0` (the edgeless power is never what a caller wants).
    pub fn power(&self, d: usize) -> Graph {
        assert!(d >= 1, "graph power requires d >= 1");
        if d == 1 {
            return self.clone();
        }
        let n = self.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets: Vec<NodeId> = Vec::new();
        // `seen[w] == v` marks w as visited in the BFS rooted at v, so the
        // scratch array never needs clearing between roots.
        let mut seen: Vec<NodeId> = vec![NodeId::MAX; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut next: Vec<NodeId> = Vec::new();
        for v in 0..n as NodeId {
            seen[v as usize] = v;
            frontier.clear();
            frontier.push(v);
            let start = targets.len();
            for _ in 0..d {
                next.clear();
                for &u in &frontier {
                    for &w in self.neighbors(u) {
                        if seen[w as usize] != v {
                            seen[w as usize] = v;
                            targets.push(w);
                            next.push(w);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                if frontier.is_empty() {
                    break;
                }
            }
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }
        // Distance is symmetric, so the constructed adjacency is too.
        Graph { offsets, targets }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n = {}, m = {})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_edges_basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
            assert_eq!(g.closed_degree(v), 3);
        }
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(4, 0), (2, 0), (0, 3), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        let g2 = Graph::from_edges(4, &[(0, 1)]);
        assert!(!g2.has_edge(2, 3));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), Some(0));
        assert_eq!(g.max_degree(), Some(0));
        let g0 = Graph::empty(0);
        assert_eq!(g0.min_degree(), None);
    }

    #[test]
    fn min_max_degree() {
        // star on 5 nodes: center 0
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(g.max_degree(), Some(4));
    }

    #[test]
    fn min_degree_closed_neighborhood_star() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Leaves see the center (degree 4) and themselves (degree 1) → 1.
        assert_eq!(g.min_degree_closed_neighborhood(1), 1);
        // Center sees all leaves → 1.
        assert_eq!(g.min_degree_closed_neighborhood(0), 1);
        // Triangle: every node's 2-hop min degree is 2.
        let t = triangle();
        assert_eq!(t.min_degree_closed_neighborhood(0), 2);
    }

    #[test]
    fn symmetry_holds() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        assert!(g.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn power_of_cycle() {
        // cycle(6)²: each node gains its distance-2 neighbors.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let g2 = g.power(2);
        assert_eq!(g2.n(), 6);
        assert_eq!(g2.neighbors(0), &[1, 2, 4, 5]);
        assert!(g2.is_symmetric());
        // Power 1 is the identity; a power at least the diameter is complete.
        assert_eq!(g.power(1), g);
        let g3 = g.power(3);
        assert_eq!(g3.neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn power_matches_bfs_distances() {
        let g = Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (7, 8)]);
        for d in 1..4 {
            let gp = g.power(d);
            for u in g.nodes() {
                let dist = crate::traversal::bfs_distances(&g, u);
                for v in g.nodes() {
                    let within = v != u && dist[v as usize] as usize <= d;
                    assert_eq!(gp.has_edge(u, v), within, "d = {d}, pair ({u}, {v})");
                }
            }
        }
    }
}
