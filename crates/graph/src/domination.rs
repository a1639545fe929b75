//! Domination predicates: the correctness conditions every scheduler must
//! satisfy.
//!
//! A set `S ⊆ V` *dominates* `G` if every node is in `S` or has a neighbor
//! in `S` (closed-neighborhood coverage). A set is *k-dominating* if every
//! node has at least `k` members of `S` in its closed neighborhood — the
//! fault-tolerance notion of the paper's §6. The *d-hop* generalization
//! (arXiv:1404.6890) relaxes coverage to distance `d`: every node must have
//! `k` members of `S` within `d` hops, equivalently `S` must k-dominate the
//! graph power `G^d`.
//!
//! # Kernel
//!
//! Every predicate here bottoms out in one primitive: walk `N⁺(v)` in CSR
//! order with one `NodeSet` probe per node. [`dominator_count`] walks the
//! whole neighborhood, because its callers use the number; the
//! k-domination checks and [`uncovered_nodes`] stop a node's walk at its
//! `k`-th dominator. Whole-graph checks are one sequential pass over the
//! nodes: the condition is local to each closed neighborhood, and the
//! walk is cheap enough that fanning it out across threads costs more
//! than it saves.

use crate::csr::{Graph, NodeId};
use crate::nodeset::NodeSet;
use domatic_telemetry::count;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of dominators of `v` in `set`: `|N⁺(v) ∩ set|`.
#[inline]
pub fn dominator_count(g: &Graph, set: &NodeSet, v: NodeId) -> usize {
    let mut c = usize::from(set.contains(v));
    for &u in g.neighbors(v) {
        c += usize::from(set.contains(u));
    }
    c
}

/// Whether `|N⁺(v) ∩ set| ≥ k`: the walk of [`dominator_count`], stopped
/// at the `k`-th dominator.
#[inline]
fn has_k_dominators(g: &Graph, set: &NodeSet, v: NodeId, k: usize) -> bool {
    let mut c = usize::from(set.contains(v));
    for &u in g.neighbors(v) {
        if c >= k {
            return true;
        }
        c += usize::from(set.contains(u));
    }
    c >= k
}

/// Whether `set` is a dominating set of `g`.
pub fn is_dominating_set(g: &Graph, set: &NodeSet) -> bool {
    count!("graph.domination.checks");
    all_k_dominated(g, set, 1)
}

/// Whether `set` is a k-dominating set of `g` (every node has ≥ k
/// dominators in its closed neighborhood).
pub fn is_k_dominating_set(g: &Graph, set: &NodeSet, k: usize) -> bool {
    count!("graph.domination.checks");
    all_k_dominated(g, set, k)
}

/// Shared core of the k-domination predicates: stops at the first
/// under-dominated node.
fn all_k_dominated(g: &Graph, set: &NodeSet, k: usize) -> bool {
    g.nodes().all(|v| has_k_dominators(g, set, v, k))
}

/// All nodes with fewer than `k` dominators in `set` (empty ⇔ k-dominating),
/// in increasing id order.
pub fn uncovered_nodes(g: &Graph, set: &NodeSet, k: usize) -> Vec<NodeId> {
    count!("graph.domination.checks");
    g.nodes()
        .filter(|&v| !has_k_dominators(g, set, v, k))
        .collect()
}

/// Checks that `sets` form a *domatic partition prefix*: pairwise disjoint
/// and each a dominating set. (A full domatic partition additionally covers
/// all of `V`; the algorithms in this workspace only need disjointness, as
/// unused nodes simply stay asleep.)
pub fn is_disjoint_dominating_family(g: &Graph, sets: &[NodeSet]) -> bool {
    for (i, s) in sets.iter().enumerate() {
        if !is_dominating_set(g, s) {
            return false;
        }
        for t in &sets[i + 1..] {
            if !s.is_disjoint(t) {
                return false;
            }
        }
    }
    true
}

/// Greedy minimum-dominating-set approximation (the classical `ln Δ + 1`
/// set-cover greedy): repeatedly add the node covering the most uncovered
/// nodes, breaking ties toward the lowest id.
///
/// `alive` restricts candidate dominators (nodes outside `alive` may still
/// *be covered* but cannot cover); the whole vertex set must still be
/// dominated, which is exactly the requirement when extracting successive
/// disjoint dominating sets for a domatic partition. Returns `None` if the
/// alive nodes cannot dominate `g` (some node has no alive closed neighbor).
pub fn greedy_dominating_set(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    count!("graph.domination.greedy_extractions");
    let n = g.n();
    let mut covered = NodeSet::new(n);
    let mut chosen = NodeSet::new(n);
    // gain[v] = number of currently uncovered nodes in N⁺(v), for alive v.
    let mut gain: Vec<usize> = (0..n as NodeId)
        .map(|v| {
            if alive.contains(v) {
                g.closed_degree(v)
            } else {
                0
            }
        })
        .collect();
    // Lazy max-heap over (gain, lowest-id-wins) with at most one entry per
    // node, so it holds at most n entries. Gains only decrease, and a
    // decrement touches only `gain`, so an entry's recorded gain is at
    // least its node's true gain. A popped entry whose recorded gain still
    // matches `gain[v]` therefore has the largest true gain (and, through
    // `Reverse(v)`, the smallest id among ties); a stale one is pushed back
    // at its current gain if that is positive. A pop is stale only after a
    // decrement of its node, and each of the n + 2m closed-adjacency
    // entries is decremented at most once, so an extraction makes at most
    // n + (n + 2m) pops and costs O((n + m) log n).
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> = (0..n as NodeId)
        .filter(|&v| gain[v as usize] > 0)
        .map(|v| (gain[v as usize], Reverse(v)))
        .collect();
    let mut num_covered = 0usize;
    let mut newly: Vec<NodeId> = Vec::new();
    while num_covered < n {
        let v = loop {
            let (gv, Reverse(v)) = heap.pop()?;
            let current = gain[v as usize];
            if current == gv {
                break v;
            }
            if current > 0 {
                heap.push((current, Reverse(v)));
            }
        };
        chosen.insert(v);
        gain[v as usize] = 0;
        // Collect the newly covered nodes of N⁺(v).
        newly.clear();
        if !covered.contains(v) {
            newly.push(v);
        }
        for &u in g.neighbors(v) {
            if !covered.contains(u) {
                newly.push(u);
            }
        }
        // Mark them covered and decrement gains of their closed neighbors.
        for &u in &newly {
            covered.insert(u);
            num_covered += 1;
            let decrement = |w: NodeId, gain: &mut Vec<usize>| {
                if alive.contains(w) && gain[w as usize] > 0 {
                    gain[w as usize] -= 1;
                }
            };
            decrement(u, &mut gain);
            for &w in g.neighbors(u) {
                decrement(w, &mut gain);
            }
        }
    }
    Some(chosen)
}

/// Reduces a dominating set to a *minimal* one by dropping redundant nodes
/// (highest id first). The result dominates `g` and no proper subset of it
/// does.
pub fn make_minimal(g: &Graph, set: &NodeSet) -> NodeSet {
    let mut s = set.clone();
    let members: Vec<NodeId> = s.to_vec();
    for &v in members.iter().rev() {
        s.remove(v);
        // v is droppable iff every node it was covering still has a
        // dominator; only N⁺(v) can be affected.
        let still_ok = dominator_count(g, &s, v) >= 1
            && g.neighbors(v)
                .iter()
                .all(|&u| dominator_count(g, &s, u) >= 1);
        if !still_ok {
            s.insert(v);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// d-hop domination (distance-d coverage; arXiv:1404.6890)
// ---------------------------------------------------------------------------

/// One closed-neighborhood dilation of `set`: all nodes with a member of
/// `set` in their closed neighborhood, i.e. `set ∪ N(set)`. Applying this
/// `d` times yields the distance-`d` ball of `set`.
pub fn dilate(g: &Graph, set: &NodeSet) -> NodeSet {
    let mut out = set.clone();
    for v in set.iter() {
        for &u in g.neighbors(v) {
            out.insert(u);
        }
    }
    out
}

/// The closed `d`-hop ball `B_d(v)`: all nodes within distance `d` of `v`,
/// including `v` itself. Computed as `d` dilations of `{v}`.
pub fn k_hop_closed_neighborhood(g: &Graph, v: NodeId, d: usize) -> NodeSet {
    let mut ball = NodeSet::new(g.n());
    ball.insert(v);
    for _ in 0..d {
        ball = dilate(g, &ball);
    }
    ball
}

/// Number of members of `set` within distance `d` of `v` (counting `v`
/// itself when it is a member): `|B_d(v) ∩ set|`. Bounded BFS from `v`;
/// `d = 1` coincides with [`dominator_count`].
pub fn d_hop_dominator_count(g: &Graph, set: &NodeSet, v: NodeId, d: usize) -> usize {
    let n = g.n();
    let mut seen = vec![false; n];
    seen[v as usize] = true;
    let mut c = usize::from(set.contains(v));
    let mut frontier: Vec<NodeId> = vec![v];
    let mut next: Vec<NodeId> = Vec::new();
    for _ in 0..d {
        next.clear();
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    c += usize::from(set.contains(w));
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            break;
        }
    }
    c
}

/// Whether every node is within `d` hops of some member of `set` (d-hop
/// domination; `d = 1` is ordinary domination). Shorthand for
/// [`is_d_hop_k_dominating_set`] with `k = 1`.
pub fn is_d_hop_dominating_set(g: &Graph, set: &NodeSet, d: usize) -> bool {
    is_d_hop_k_dominating_set(g, set, 1, d)
}

/// Whether every node has at least `k` members of `set` within `d` hops —
/// equivalently, whether `set` k-dominates the graph power `G^d`.
///
/// `k = 1` runs as `d` whole-set dilations followed by one fullness test;
/// `k ≥ 2` falls back to a per-node bounded BFS count.
pub fn is_d_hop_k_dominating_set(g: &Graph, set: &NodeSet, k: usize, d: usize) -> bool {
    count!("graph.domination.checks");
    if d <= 1 {
        return all_k_dominated(g, set, k);
    }
    if k == 1 {
        let mut cover = set.clone();
        for _ in 0..d {
            cover = dilate(g, &cover);
        }
        return cover.len() == g.n();
    }
    g.nodes().all(|v| d_hop_dominator_count(g, set, v, d) >= k)
}

/// Reference d-hop check: a per-node bounded BFS for every `k` and `d`,
/// without the dilation shortcut and the `d ≤ 1` walk of
/// [`is_d_hop_k_dominating_set`]. The equivalence proptests check the fast
/// paths against it.
pub fn is_d_hop_k_dominating_set_scalar(g: &Graph, set: &NodeSet, k: usize, d: usize) -> bool {
    g.nodes().all(|v| d_hop_dominator_count(g, set, v, d) >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{complete, cycle, star};

    #[test]
    fn single_center_dominates_star() {
        let g = star(6);
        let s = NodeSet::from_iter(6, [0]);
        assert!(is_dominating_set(&g, &s));
        let leaves = NodeSet::from_iter(6, [1, 2, 3, 4, 5]);
        assert!(is_dominating_set(&g, &leaves));
        let partial = NodeSet::from_iter(6, [1, 2]);
        assert!(!is_dominating_set(&g, &partial));
    }

    #[test]
    fn k_domination_on_complete_graph() {
        let g = complete(5);
        let s = NodeSet::from_iter(5, [0, 1, 2]);
        assert!(is_k_dominating_set(&g, &s, 3));
        assert!(!is_k_dominating_set(&g, &s, 4));
    }

    #[test]
    fn uncovered_nodes_reports_gaps() {
        let g = cycle(6);
        let s = NodeSet::from_iter(6, [0]);
        // 0 covers 5, 0, 1; uncovered: 2, 3, 4.
        assert_eq!(uncovered_nodes(&g, &s, 1), vec![2, 3, 4]);
        assert!(uncovered_nodes(&g, &NodeSet::full(6), 1).is_empty());
    }

    #[test]
    fn uncovered_nodes_counts_telemetry() {
        let reg = domatic_telemetry::global();
        let before = reg.counter_value("graph.domination.checks");
        let g = cycle(6);
        uncovered_nodes(&g, &NodeSet::full(6), 1);
        let after = reg.counter_value("graph.domination.checks");
        assert!(
            after > before,
            "uncovered_nodes must bump the check counter"
        );
    }

    #[test]
    fn empty_set_dominates_only_empty_graph() {
        let g = Graph::empty(0);
        assert!(is_dominating_set(&g, &NodeSet::new(0)));
        let g1 = Graph::empty(1);
        assert!(!is_dominating_set(&g1, &NodeSet::new(1)));
    }

    #[test]
    fn disjoint_family_check() {
        let g = complete(4);
        let a = NodeSet::from_iter(4, [0]);
        let b = NodeSet::from_iter(4, [1]);
        let c = NodeSet::from_iter(4, [1, 2]);
        assert!(is_disjoint_dominating_family(&g, &[a.clone(), b.clone()]));
        assert!(!is_disjoint_dominating_family(&g, &[b, c]));
        let bad = NodeSet::new(4);
        assert!(!is_disjoint_dominating_family(&g, &[a, bad]));
    }

    #[test]
    fn greedy_finds_center_of_star() {
        let g = star(10);
        let ds = greedy_dominating_set(&g, &NodeSet::full(10)).unwrap();
        assert_eq!(ds.to_vec(), vec![0]);
    }

    #[test]
    fn greedy_respects_alive_mask() {
        let g = star(5);
        let mut alive = NodeSet::full(5);
        alive.remove(0); // center dead: every leaf must self-cover, and the
                         // center must be covered by a leaf.
        let ds = greedy_dominating_set(&g, &alive).unwrap();
        assert!(is_dominating_set(&g, &ds));
        assert!(!ds.contains(0));
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn greedy_returns_none_when_impossible() {
        // Two isolated nodes, only one alive: the other cannot be covered.
        let g = Graph::empty(2);
        let alive = NodeSet::from_iter(2, [0]);
        assert!(greedy_dominating_set(&g, &alive).is_none());
    }

    #[test]
    fn make_minimal_strips_redundancy() {
        let g = star(8);
        let full = NodeSet::full(8);
        let min = make_minimal(&g, &full);
        assert!(is_dominating_set(&g, &min));
        // Minimality: removing any member breaks domination.
        for v in min.to_vec() {
            let mut s = min.clone();
            s.remove(v);
            assert!(!is_dominating_set(&g, &s), "set not minimal at {v}");
        }
    }

    #[test]
    fn dominator_count_counts_closed_neighborhood() {
        let g = cycle(5);
        let s = NodeSet::from_iter(5, [0, 1]);
        assert_eq!(dominator_count(&g, &s, 0), 2);
        assert_eq!(dominator_count(&g, &s, 2), 1);
        assert_eq!(dominator_count(&g, &s, 3), 0);
    }

    #[test]
    fn d_hop_ball_on_cycle() {
        let g = cycle(10);
        assert_eq!(k_hop_closed_neighborhood(&g, 0, 1).to_vec(), vec![0, 1, 9]);
        assert_eq!(
            k_hop_closed_neighborhood(&g, 0, 2).to_vec(),
            vec![0, 1, 2, 8, 9]
        );
        assert_eq!(k_hop_closed_neighborhood(&g, 0, 5).len(), 10);
    }

    #[test]
    fn d_hop_domination_on_cycle() {
        // On a 12-cycle, {0, 6} 2-hop dominates nodes 0..2, 4..8, 10..11 —
        // but 3 and 9 are at distance 3, so d = 2 fails and d = 3 works.
        let g = cycle(12);
        let s = NodeSet::from_iter(12, [0, 6]);
        assert!(!is_d_hop_dominating_set(&g, &s, 2));
        assert!(is_d_hop_dominating_set(&g, &s, 3));
        // d = 1 coincides with the plain predicate.
        assert_eq!(
            is_d_hop_dominating_set(&g, &s, 1),
            is_dominating_set(&g, &s)
        );
        // Every third node 2-hop dominates the cycle.
        let s3 = NodeSet::from_iter(12, [0, 3, 6, 9]);
        assert!(is_d_hop_dominating_set(&g, &s3, 2));
    }

    #[test]
    fn d_hop_k_domination_matches_power_graph() {
        let g = crate::generators::gnp::gnp_with_avg_degree(60, 4.0, 3);
        let s = NodeSet::from_iter(60, (0..60).step_by(4).map(|v| v as NodeId));
        for d in 1..4usize {
            let gp = g.power(d);
            for k in 1..4usize {
                let direct = is_d_hop_k_dominating_set(&g, &s, k, d);
                assert_eq!(direct, is_k_dominating_set(&gp, &s, k), "d = {d}, k = {k}");
                assert_eq!(
                    direct,
                    is_d_hop_k_dominating_set_scalar(&g, &s, k, d),
                    "scalar d = {d}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn d_hop_counts_match_power_graph_counts() {
        let g = cycle(15);
        let s = NodeSet::from_iter(15, [0, 4, 5, 11]);
        for d in 1..4usize {
            let gp = g.power(d);
            for v in g.nodes() {
                assert_eq!(
                    d_hop_dominator_count(&g, &s, v, d),
                    dominator_count(&gp, &s, v),
                    "d = {d}, v = {v}"
                );
            }
        }
    }
}
