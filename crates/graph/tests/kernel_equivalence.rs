//! Kernel equivalence proptests: each fast domination path must agree
//! with an independent computation of the same answer on every
//! randomized input — the early-exiting k-checks and uncovered lists
//! against the full dominator count, and the d-hop generalization against
//! a per-node BFS and the graph power.
//!
//! Thread coverage comes from the CI test matrix, which runs this suite
//! under `RAYON_NUM_THREADS=1` and `=4`.

use domatic_graph::domination::{
    d_hop_dominator_count, dilate, dominator_count, is_d_hop_k_dominating_set,
    is_d_hop_k_dominating_set_scalar, is_k_dominating_set, uncovered_nodes,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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
