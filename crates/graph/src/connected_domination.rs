//! Connected dominating sets — the paper's §7 highlights maximizing the
//! lifetime of *connected* dominating sets (routing backbones) as the
//! foremost open problem. This module provides the predicates and a
//! Guha–Khuller-style greedy construction; `domatic-core::cds` builds the
//! lifetime heuristics on top.

use crate::csr::{Graph, NodeId};
use crate::domination::{greedy_dominating_set, is_dominating_set};
use crate::nodeset::NodeSet;
use std::collections::VecDeque;

/// Whether the subgraph induced by `set` is connected (vacuously true for
/// the empty set and singletons).
pub fn induces_connected(g: &Graph, set: &NodeSet) -> bool {
    let Some(start) = set.iter().next() else {
        return true;
    };
    let mut seen = NodeSet::new(g.n());
    seen.insert(start);
    let mut queue = VecDeque::from([start]);
    let mut count = 1usize;
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if set.contains(u) && seen.insert(u) {
                count += 1;
                queue.push_back(u);
            }
        }
    }
    count == set.len()
}

/// Whether `set` is a connected dominating set (CDS) of `g`.
pub fn is_connected_dominating_set(g: &Graph, set: &NodeSet) -> bool {
    is_dominating_set(g, set) && induces_connected(g, set)
}

/// Connects a dominating set into a CDS by adding intermediate nodes along
/// shortest paths between its components, restricted to `alive` nodes
/// (connectors must come from `alive`). Returns `None` when the components
/// cannot be joined through alive nodes.
///
/// The standard argument gives |CDS| ≤ 3·|DS| on connected graphs (any two
/// "adjacent" dominator components are ≤ 3 hops apart); we simply take
/// BFS-shortest connectors, which achieves that bound in practice.
pub fn connect_dominating_set(g: &Graph, ds: &NodeSet, alive: &NodeSet) -> Option<NodeSet> {
    let mut cds = ds.clone();
    loop {
        // Label the components of the current cds.
        let Some(start) = cds.iter().next() else {
            return Some(cds);
        };
        let mut comp = NodeSet::new(g.n());
        comp.insert(start);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if cds.contains(u) && comp.insert(u) {
                    queue.push_back(u);
                }
            }
        }
        if comp.len() == cds.len() {
            return Some(cds);
        }
        // BFS from the first component through alive nodes to reach any
        // other cds node; add the connecting path.
        let mut parent: Vec<Option<NodeId>> = vec![None; g.n()];
        let mut visited = comp.clone();
        let mut queue: VecDeque<NodeId> = comp.iter().collect();
        let mut target: Option<NodeId> = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if visited.contains(u) {
                    continue;
                }
                if !alive.contains(u) && !cds.contains(u) {
                    continue;
                }
                parent[u as usize] = Some(v);
                if cds.contains(u) && !comp.contains(u) {
                    target = Some(u);
                    break 'bfs;
                }
                visited.insert(u);
                queue.push_back(u);
            }
        }
        let mut t = target?;
        // Walk back, inserting intermediate nodes.
        while let Some(p) = parent[t as usize] {
            cds.insert(t);
            t = p;
        }
    }
}

/// Greedy CDS: a greedy dominating set (restricted to `alive`) connected
/// through alive nodes. `None` if the alive nodes cannot produce one.
///
/// ```
/// use domatic_graph::connected_domination::{
///     greedy_connected_dominating_set, is_connected_dominating_set,
/// };
/// use domatic_graph::generators::regular::cycle;
/// use domatic_graph::NodeSet;
///
/// let g = cycle(9);
/// let cds = greedy_connected_dominating_set(&g, &NodeSet::full(9)).unwrap();
/// assert!(is_connected_dominating_set(&g, &cds));
/// assert_eq!(cds.len(), 7); // a CDS of C_n needs n − 2 nodes
/// ```
pub fn greedy_connected_dominating_set(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    let ds = greedy_dominating_set(g, alive)?;
    let cds = connect_dominating_set(g, &ds, alive)?;
    // Prune redundant members but keep connectivity: only drop a node if
    // the remainder still is a CDS.
    let mut pruned = cds.clone();
    for v in cds.to_vec().into_iter().rev() {
        pruned.remove(v);
        if !is_connected_dominating_set(g, &pruned) {
            pruned.insert(v);
        }
    }
    Some(pruned)
}

/// A lower bound on the hop-diameter-aware quality of a CDS: the maximum,
/// over nodes, of the distance to the nearest CDS member (always ≤ 1 for a
/// true CDS; exposed for diagnostics on near-misses).
pub fn max_distance_to_set(g: &Graph, set: &NodeSet) -> Option<u32> {
    if set.is_empty() {
        return None;
    }
    // Multi-source BFS via a virtual super-source: run BFS from each
    // member is O(k·m); instead seed the queue with all members.
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::new();
    for v in set.iter() {
        dist[v as usize] = 0;
        queue.push_back(v);
    }
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    dist.into_iter().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp::gnp_with_avg_degree;
    use crate::generators::regular::{complete, cycle, path, star};
    use crate::traversal::is_connected;

    #[test]
    fn connectivity_predicate() {
        let g = path(5);
        assert!(induces_connected(&g, &NodeSet::from_iter(5, [1, 2, 3])));
        assert!(!induces_connected(&g, &NodeSet::from_iter(5, [0, 2])));
        assert!(induces_connected(&g, &NodeSet::new(5)));
        assert!(induces_connected(&g, &NodeSet::from_iter(5, [4])));
    }

    #[test]
    fn cds_predicate() {
        let g = path(5);
        // {1,2,3} dominates and connects.
        assert!(is_connected_dominating_set(
            &g,
            &NodeSet::from_iter(5, [1, 2, 3])
        ));
        // {1,3} dominates but is disconnected.
        assert!(!is_connected_dominating_set(
            &g,
            &NodeSet::from_iter(5, [1, 3])
        ));
        // {1,2} connects but doesn't dominate 4.
        assert!(!is_connected_dominating_set(
            &g,
            &NodeSet::from_iter(5, [1, 2])
        ));
    }

    #[test]
    fn connect_joins_components() {
        let g = path(7);
        let ds = NodeSet::from_iter(7, [1, 5]); // dominates? 1 covers 0,1,2; 5 covers 4,5,6; 3 uncovered.
        let ds = {
            let mut d = ds;
            d.insert(3);
            d
        };
        assert!(is_dominating_set(&g, &ds));
        let cds = connect_dominating_set(&g, &ds, &NodeSet::full(7)).unwrap();
        assert!(is_connected_dominating_set(&g, &cds));
        assert!(ds.is_subset(&cds));
    }

    #[test]
    fn connect_fails_without_alive_connectors() {
        // Path 0-1-2: DS {0,2}, but node 1 not alive → cannot connect.
        let g = path(3);
        let ds = NodeSet::from_iter(3, [0, 2]);
        let mut alive = NodeSet::full(3);
        alive.remove(1);
        assert!(connect_dominating_set(&g, &ds, &alive).is_none());
        assert!(connect_dominating_set(&g, &ds, &NodeSet::full(3)).is_some());
    }

    #[test]
    fn greedy_cds_on_known_graphs() {
        let g = star(9);
        let cds = greedy_connected_dominating_set(&g, &NodeSet::full(9)).unwrap();
        assert_eq!(cds.to_vec(), vec![0]); // the center alone
        let c = cycle(9);
        let cds = greedy_connected_dominating_set(&c, &NodeSet::full(9)).unwrap();
        assert!(is_connected_dominating_set(&c, &cds));
        // CDS of C_n needs n−2 nodes.
        assert_eq!(cds.len(), 7);
    }

    #[test]
    fn greedy_cds_on_random_graphs() {
        for seed in 0..5 {
            let g = gnp_with_avg_degree(60, 8.0, seed);
            if !is_connected(&g) {
                continue;
            }
            let cds = greedy_connected_dominating_set(&g, &NodeSet::full(60)).unwrap();
            assert!(is_connected_dominating_set(&g, &cds), "seed {seed}");
            // Pruned: every member necessary.
            for v in cds.to_vec() {
                let mut s = cds.clone();
                s.remove(v);
                assert!(
                    !is_connected_dominating_set(&g, &s),
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn max_distance_to_set_semantics() {
        let g = path(5);
        assert_eq!(
            max_distance_to_set(&g, &NodeSet::from_iter(5, [2])),
            Some(2)
        );
        assert_eq!(
            max_distance_to_set(&g, &NodeSet::from_iter(5, [0])),
            Some(4)
        );
        assert_eq!(max_distance_to_set(&g, &NodeSet::new(5)), None);
        let k = complete(4);
        assert_eq!(
            max_distance_to_set(&k, &NodeSet::from_iter(4, [1])),
            Some(1)
        );
    }
}
