//! Maximal independent sets.
//!
//! The paper's related work (§3) notes that in unit disk graphs every
//! maximal independent set (MIS) is a constant-factor approximation of the
//! minimum dominating set, and that Luby's randomized algorithm finds one
//! in `O(log n)` parallel rounds. We implement both the sequential greedy
//! MIS and a faithful round-structured simulation of Luby's algorithm; the
//! latter doubles as a baseline "one good dominating set" clustering in
//! experiment E9.

use crate::csr::{Graph, NodeId};
use crate::nodeset::NodeSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether `set` is an independent set (no two members adjacent): half
/// of [`is_maximal_independent`], the checker the tests hold
/// [`greedy_mis`] and [`luby_mis`] to.
pub fn is_independent(g: &Graph, set: &NodeSet) -> bool {
    set.iter()
        .all(|v| g.neighbors(v).iter().all(|&u| !set.contains(u)))
}

/// Whether `set` is a *maximal* independent set: independent, and every
/// non-member has a member neighbor. Maximal independence is exactly
/// independence plus domination, so the second half reuses the
/// domination check.
pub fn is_maximal_independent(g: &Graph, set: &NodeSet) -> bool {
    is_independent(g, set) && crate::domination::is_dominating_set(g, set)
}

/// Greedy MIS by increasing node id.
pub fn greedy_mis(g: &Graph) -> NodeSet {
    let n = g.n();
    let mut blocked = vec![false; n];
    let mut mis = NodeSet::new(n);
    for v in 0..n as NodeId {
        if !blocked[v as usize] {
            mis.insert(v);
            blocked[v as usize] = true;
            for &u in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    mis
}

/// Result of a Luby run: the MIS and the number of synchronous rounds the
/// distributed execution would have taken.
#[derive(Clone, Debug)]
pub struct LubyResult {
    /// The computed maximal independent set.
    pub mis: NodeSet,
    /// Rounds until every node decided (O(log n) w.h.p.).
    pub rounds: usize,
}

/// Luby's randomized MIS, simulated round by round.
///
/// Each round, every undecided node draws a uniform random value; a node
/// joins the MIS if its value is strictly smaller than all undecided
/// neighbors' values (ties broken by id, which preserves correctness and
/// makes the simulation deterministic per seed). Joining nodes and their
/// neighbors then leave the game.
pub fn luby_mis(g: &Graph, seed: u64) -> LubyResult {
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut undecided: Vec<bool> = vec![true; n];
    let mut remaining = n;
    let mut mis = NodeSet::new(n);
    let mut rounds = 0usize;
    let mut values = vec![0.0f64; n];
    while remaining > 0 {
        rounds += 1;
        for v in 0..n {
            if undecided[v] {
                values[v] = rng.random();
            }
        }
        let mut joiners: Vec<NodeId> = Vec::new();
        for v in 0..n as NodeId {
            if !undecided[v as usize] {
                continue;
            }
            let mine = (values[v as usize], v);
            let local_min = g
                .neighbors(v)
                .iter()
                .filter(|&&u| undecided[u as usize])
                .all(|&u| mine < (values[u as usize], u));
            if local_min {
                joiners.push(v);
            }
        }
        for &v in &joiners {
            mis.insert(v);
            if undecided[v as usize] {
                undecided[v as usize] = false;
                remaining -= 1;
            }
            for &u in g.neighbors(v) {
                if undecided[u as usize] {
                    undecided[u as usize] = false;
                    remaining -= 1;
                }
            }
        }
    }
    LubyResult { mis, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domination::is_dominating_set;
    use crate::generators::gnp::gnp;
    use crate::generators::regular::{complete, cycle, path, star};

    #[test]
    fn greedy_mis_on_path_takes_alternating() {
        let g = path(6);
        let mis = greedy_mis(&g);
        assert_eq!(mis.to_vec(), vec![0, 2, 4]);
        assert!(is_maximal_independent(&g, &mis));
    }

    #[test]
    fn greedy_mis_on_complete_graph_is_singleton() {
        let g = complete(7);
        assert_eq!(greedy_mis(&g).len(), 1);
    }

    #[test]
    fn mis_dominates() {
        for seed in 0..5 {
            let g = gnp(80, 0.08, seed);
            let mis = greedy_mis(&g);
            assert!(is_maximal_independent(&g, &mis));
            assert!(is_dominating_set(&g, &mis));
        }
    }

    #[test]
    fn luby_produces_valid_mis() {
        for seed in 0..8 {
            let g = gnp(120, 0.05, seed);
            let res = luby_mis(&g, seed * 31 + 1);
            assert!(is_maximal_independent(&g, &res.mis), "seed {seed}");
            assert!(res.rounds >= 1);
        }
    }

    #[test]
    fn luby_round_count_is_logarithmic_in_practice() {
        let g = gnp(2000, 0.01, 3);
        let res = luby_mis(&g, 17);
        // ln(2000) ≈ 7.6; allow generous slack, the point is "not Θ(n)".
        assert!(res.rounds <= 40, "rounds = {}", res.rounds);
    }

    #[test]
    fn luby_deterministic_per_seed() {
        let g = gnp(60, 0.1, 0);
        assert_eq!(luby_mis(&g, 5).mis, luby_mis(&g, 5).mis);
    }

    #[test]
    fn independence_predicates() {
        let g = cycle(5);
        let good = NodeSet::from_iter(5, [0, 2]);
        let bad = NodeSet::from_iter(5, [0, 1]);
        assert!(is_independent(&g, &good));
        assert!(!is_independent(&g, &bad));
        assert!(is_maximal_independent(&g, &good));
        // {0} is independent but not maximal (2, 3 uncovered).
        let nonmax = NodeSet::from_iter(5, [0]);
        assert!(!is_maximal_independent(&g, &nonmax));
    }

    #[test]
    fn star_mis_is_leaves_or_center() {
        let g = star(6);
        let mis = greedy_mis(&g);
        // Greedy by id takes the center first.
        assert_eq!(mis.to_vec(), vec![0]);
        let leaves = NodeSet::from_iter(6, [1, 2, 3, 4, 5]);
        assert!(is_maximal_independent(&g, &leaves));
    }

    #[test]
    fn luby_on_empty_and_trivial_graphs() {
        let g = Graph::empty(4);
        let res = luby_mis(&g, 0);
        assert_eq!(res.mis.len(), 4); // isolated nodes all join
        let g0 = Graph::empty(0);
        assert_eq!(luby_mis(&g0, 0).mis.len(), 0);
    }
}
