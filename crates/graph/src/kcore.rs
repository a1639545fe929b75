//! k-core decomposition and degeneracy ordering.
//!
//! The paper's guarantees scale with the *minimum* degree δ, which a
//! handful of peripheral nodes can drag down (Barabási–Albert graphs have
//! δ = m while their core is much denser). The core decomposition
//! quantifies that gap: the coreness profile tells an operator how much
//! scheduling headroom the bulk of the network has compared to what
//! Lemma 4.1's δ certifies. Computed with the standard peeling algorithm
//! (bucket queue, `O(n + m)`).

use crate::csr::{Graph, NodeId};

/// Result of the core decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` — the largest k such that v belongs to the k-core.
    pub coreness: Vec<u32>,
    /// The graph's degeneracy (maximum coreness; 0 for edgeless graphs).
    pub degeneracy: u32,
    /// A degeneracy ordering: nodes in the order they were peeled; every
    /// node has at most `degeneracy` neighbors *later* in this order.
    pub order: Vec<NodeId>,
}

/// Computes coreness of every node by iterative min-degree peeling.
///
/// ```
/// use domatic_graph::kcore::core_decomposition;
/// use domatic_graph::generators::regular::complete;
///
/// let dec = core_decomposition(&complete(5));
/// assert_eq!(dec.degeneracy, 4);
/// assert!(dec.coreness.iter().all(|&c| c == 4));
/// ```
pub fn core_decomposition(g: &Graph) -> CoreDecomposition {
    let n = g.n();
    let mut degree: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket queue over current degrees.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n as NodeId {
        buckets[degree[v as usize]].push(v);
    }
    let mut coreness = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut current_core = 0u32;
    let mut processed = 0usize;
    let mut cursor = 0usize; // lowest possibly-nonempty bucket
    while processed < n {
        // Find the lowest-degree unremoved node (lazy deletion).
        while cursor <= max_deg && buckets[cursor].is_empty() {
            cursor += 1;
        }
        let v = loop {
            let Some(v) = buckets[cursor].pop() else {
                break None;
            };
            if !removed[v as usize] && degree[v as usize] == cursor {
                break Some(v);
            }
            // Stale entry: skip.
            if buckets[cursor].is_empty() {
                break None;
            }
        };
        let Some(v) = v else {
            cursor = 0; // restart scan (stale buckets drained)
            continue;
        };
        current_core = current_core.max(cursor as u32);
        coreness[v as usize] = current_core;
        removed[v as usize] = true;
        order.push(v);
        processed += 1;
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                let d = degree[u as usize];
                if d > 0 {
                    degree[u as usize] = d - 1;
                    buckets[d - 1].push(u);
                    if d - 1 < cursor {
                        cursor = d - 1;
                    }
                }
            }
        }
    }
    CoreDecomposition {
        coreness,
        degeneracy: current_core,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp::gnp_with_avg_degree;
    use crate::generators::preferential::barabasi_albert;
    use crate::generators::regular::{complete, cycle, path, star};

    /// O(n²) reference: repeatedly strip nodes of degree < k.
    fn brute_coreness(g: &Graph) -> Vec<u32> {
        let n = g.n();
        let mut coreness = vec![0u32; n];
        for k in 1..=n as u32 {
            let mut alive: Vec<bool> = (0..n as NodeId)
                .map(|v| coreness[v as usize] >= k - 1)
                .collect();
            loop {
                let mut changed = false;
                for v in 0..n as NodeId {
                    if alive[v as usize] {
                        let d = g
                            .neighbors(v)
                            .iter()
                            .filter(|&&u| alive[u as usize])
                            .count();
                        if d < k as usize {
                            alive[v as usize] = false;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut any = false;
            for v in 0..n {
                if alive[v] {
                    coreness[v] = k;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        coreness
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..6 {
            let g = gnp_with_avg_degree(40, 6.0, seed);
            let dec = core_decomposition(&g);
            assert_eq!(dec.coreness, brute_coreness(&g), "seed {seed}");
        }
    }

    #[test]
    fn known_families() {
        let dec = core_decomposition(&complete(6));
        assert!(dec.coreness.iter().all(|&c| c == 5));
        assert_eq!(dec.degeneracy, 5);

        let dec = core_decomposition(&cycle(10));
        assert!(dec.coreness.iter().all(|&c| c == 2));

        let dec = core_decomposition(&star(7));
        assert!(dec.coreness.iter().all(|&c| c == 1));
        assert_eq!(dec.degeneracy, 1);

        let dec = core_decomposition(&path(5));
        assert_eq!(dec.degeneracy, 1);

        let dec = core_decomposition(&Graph::empty(3));
        assert!(dec.coreness.iter().all(|&c| c == 0));
        assert_eq!(dec.degeneracy, 0);
    }

    #[test]
    fn degeneracy_order_property() {
        let g = gnp_with_avg_degree(60, 8.0, 3);
        let dec = core_decomposition(&g);
        assert_eq!(dec.order.len(), 60);
        let pos: Vec<usize> = {
            let mut p = vec![0usize; 60];
            for (i, &v) in dec.order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for v in 0..60u32 {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| pos[u as usize] > pos[v as usize])
                .count();
            assert!(
                later <= dec.degeneracy as usize,
                "node {v} has {later} later neighbors > degeneracy {}",
                dec.degeneracy
            );
        }
    }

    #[test]
    fn ba_core_exceeds_min_degree() {
        // The point of the module: BA graphs have δ = m but a dense core.
        let g = barabasi_albert(300, 3, 1);
        let dec = core_decomposition(&g);
        assert_eq!(g.min_degree(), Some(3));
        assert_eq!(dec.degeneracy, 3); // BA is 3-degenerate by construction
                                       // …and the 3-core is large.
        assert!(dec.coreness.iter().filter(|&&c| c >= 3).count() > 100);
    }

    use crate::csr::Graph;
}
