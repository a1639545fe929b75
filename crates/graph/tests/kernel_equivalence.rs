//! Kernel equivalence proptests: each fast domination path must agree
//! with an independent computation of the same answer on every
//! randomized input — the early-exiting k-checks and uncovered lists
//! against the full dominator count, the d-hop generalization against
//! a per-node BFS and the graph power, and the lazy-heap greedy against a
//! quadratic reference that recomputes every gain at every step.
//!
//! Thread coverage comes from the CI test matrix, which runs this suite
//! under `RAYON_NUM_THREADS=1` and `=4`.

use domatic_graph::domination::{
    d_hop_dominator_count, dilate, dominator_count, greedy_dominating_set,
    is_d_hop_k_dominating_set, is_d_hop_k_dominating_set_scalar, is_k_dominating_set,
    uncovered_nodes,
};
use domatic_graph::generators::gnp::gnp;
use domatic_graph::nodeset::NodeSet;
use domatic_graph::{Graph, NodeId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..80, 0.02f64..0.7, 0u64..1000).prop_map(|(n, p, seed)| gnp(n, p, seed))
}

/// A random subset of the vertex set, from a membership bitmask seed.
fn arb_set(n: usize, seed: u64) -> NodeSet {
    NodeSet::from_iter(
        n,
        (0..n as NodeId).filter(|v| (seed >> (v % 64)) & 1 == 1 || u64::from(*v) == seed % 97),
    )
}

/// The greedy choice rule with nothing carried between steps: at each step
/// recompute `|N⁺(v) \ covered|` for every alive non-member `v` and take
/// the largest, the lowest id among ties; `None` once the largest is 0
/// while nodes are still uncovered.
fn greedy_reference(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    let mut covered = NodeSet::new(g.n());
    let mut chosen = NodeSet::new(g.n());
    let closed = |v: NodeId| std::iter::once(v).chain(g.neighbors(v).iter().copied());
    while covered.len() < g.n() {
        // Ids ascend, so the strict `>` keeps the lowest id among ties.
        let mut best: Option<(usize, NodeId)> = None;
        for v in g
            .nodes()
            .filter(|&v| alive.contains(v) && !chosen.contains(v))
        {
            let gain = closed(v).filter(|&u| !covered.contains(u)).count();
            if best.is_none_or(|(b, _)| gain > b) {
                best = Some((gain, v));
            }
        }
        match best {
            Some((gain, v)) if gain > 0 => {
                chosen.insert(v);
                closed(v).for_each(|u| {
                    covered.insert(u);
                });
            }
            _ => return None,
        }
    }
    Some(chosen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greedy_matches_the_quadratic_reference(g in arb_graph(), mask in 0u64..u64::MAX) {
        let masked = arb_set(g.n(), mask);
        prop_assert_eq!(greedy_dominating_set(&g, &masked), greedy_reference(&g, &masked));
        let all = NodeSet::full(g.n());
        prop_assert_eq!(greedy_dominating_set(&g, &all), greedy_reference(&g, &all));
    }

    #[test]
    fn early_exit_checks_match_full_counts(
        g in arb_graph(), mask in 0u64..u64::MAX, k in 1usize..4
    ) {
        let set = arb_set(g.n(), mask);
        let counted: Vec<NodeId> = g
            .nodes()
            .filter(|&v| dominator_count(&g, &set, v) < k)
            .collect();
        prop_assert_eq!(&uncovered_nodes(&g, &set, k), &counted);
        prop_assert_eq!(is_k_dominating_set(&g, &set, k), counted.is_empty());
        // The 1-hop BFS count is the closed-neighbourhood count.
        for v in g.nodes() {
            prop_assert_eq!(d_hop_dominator_count(&g, &set, v, 1), dominator_count(&g, &set, v));
        }
    }

    #[test]
    fn d_hop_checks_are_identical(
        g in arb_graph(), mask in 0u64..u64::MAX, k in 1usize..4, d in 1usize..4
    ) {
        let set = arb_set(g.n(), mask);
        let scalar = is_d_hop_k_dominating_set_scalar(&g, &set, k, d);
        prop_assert_eq!(is_d_hop_k_dominating_set(&g, &set, k, d), scalar);
        // d-hop k-domination of g ≡ k-domination of the d-th graph power.
        let gd = g.power(d);
        prop_assert_eq!(is_k_dominating_set(&gd, &set, k), scalar);
    }

    #[test]
    fn dilation_matches_power_graph_neighborhoods(g in arb_graph(), mask in 0u64..u64::MAX) {
        let set = arb_set(g.n(), mask);
        // The dilation is the 1-hop ball: v ∈ dilate(S) ⟺ N⁺(v) ∩ S ≠ ∅.
        let ball = dilate(&g, &set);
        for v in g.nodes() {
            prop_assert_eq!(ball.contains(v), dominator_count(&g, &set, v) > 0);
        }
    }
}
