//! A constructive domatic partition in the spirit of Feige, Halldórsson,
//! Kortsarz & Srinivasan (SICOMP 2002) — the paper's reference \[5\].
//!
//! Feige et al. prove every graph has a domatic partition of size
//! `(1 − o(1))(δ + 1)/ln Δ` and give a centralized polynomial algorithm
//! achieving `Ω(δ/ln Δ)` sets. Their construction routes through the
//! Lovász Local Lemma; we implement the *practical* variant the bound
//! suggests: random coloring with `⌊(δ+1)/(c·ln Δ)⌋` classes followed by
//! deficiency-repair sweeps (recolor a redundant neighbor toward any color
//! missing in a node's closed neighborhood), then keep the classes that
//! dominate. Experiment E7 checks the achieved partition size against the
//! `(δ+1)/(3 ln Δ)` yardstick across graph families.
//!
//! This matches the existential bound empirically but is not a
//! de-randomized proof — see DESIGN.md §2 (substitution note 4).

use domatic_graph::domination::is_dominating_set;
use domatic_graph::{Graph, NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the constructive partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeigeParams {
    /// Constant `c` in the target class count `(δ+1)/(c·ln Δ)`.
    pub c: f64,
    /// Maximum repair sweeps before giving up on remaining deficiencies.
    pub max_sweeps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FeigeParams {
    fn default() -> Self {
        FeigeParams {
            c: 3.0,
            max_sweeps: 40,
            seed: 0,
        }
    }
}

/// The target class count `max(1, ⌊(δ+1)/(c·ln Δ)⌋)`.
pub fn feige_target(g: &Graph, c: f64) -> u32 {
    let (Some(delta), Some(max_deg)) = (g.min_degree(), g.max_degree()) else {
        return 0;
    };
    let ln_d = ((max_deg.max(2)) as f64).ln().max(1.0);
    (((delta as f64 + 1.0) / (c * ln_d)).floor() as u32).max(1)
}

/// Result of the constructive partition.
#[derive(Clone, Debug)]
pub struct FeigeResult {
    /// The classes that ended up dominating (pairwise disjoint).
    pub classes: Vec<NodeSet>,
    /// The target count the bound promises (`(δ+1)/(c·ln Δ)`).
    pub target: u32,
    /// Repair sweeps performed.
    pub sweeps: usize,
}

/// Runs random-coloring + repair and returns the dominating classes.
pub fn feige_partition(g: &Graph, params: &FeigeParams) -> FeigeResult {
    let n = g.n();
    let target = feige_target(g, params.c);
    if n == 0 || target == 0 {
        return FeigeResult {
            classes: Vec::new(),
            target,
            sweeps: 0,
        };
    }
    let k = target;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut color: Vec<u32> = (0..n).map(|_| rng.random_range(0..k)).collect();

    // count[v][c] = |N⁺(v) ∩ C_c|, maintained incrementally.
    let mut count = vec![vec![0u32; k as usize]; n];
    for v in 0..n as NodeId {
        let cv = color[v as usize];
        count[v as usize][cv as usize] += 1;
        for &u in g.neighbors(v) {
            count[u as usize][cv as usize] += 1;
        }
    }

    let recolor = |w: NodeId, to: u32, color: &mut Vec<u32>, count: &mut Vec<Vec<u32>>| {
        let from = color[w as usize];
        if from == to {
            return;
        }
        color[w as usize] = to;
        count[w as usize][from as usize] -= 1;
        count[w as usize][to as usize] += 1;
        for &x in g.neighbors(w) {
            count[x as usize][from as usize] -= 1;
            count[x as usize][to as usize] += 1;
        }
    };

    let mut sweeps = 0usize;
    for _ in 0..params.max_sweeps {
        sweeps += 1;
        let mut fixed_any = false;
        for v in 0..n as NodeId {
            for c in 0..k {
                if count[v as usize][c as usize] > 0 {
                    continue;
                }
                // v's closed neighborhood misses color c: recolor a
                // *redundant* closed neighbor (one whose own color appears
                // at least twice around every node it covers), or, failing
                // that, a random closed neighbor.
                let mut candidates: Vec<NodeId> = vec![v];
                candidates.extend_from_slice(g.neighbors(v));
                let redundant = candidates.iter().copied().find(|&w| {
                    let cw = color[w as usize];
                    let mut ok = count[w as usize][cw as usize] >= 2;
                    if ok {
                        ok = g
                            .neighbors(w)
                            .iter()
                            .all(|&x| count[x as usize][cw as usize] >= 2);
                    }
                    ok
                });
                let w =
                    redundant.unwrap_or_else(|| candidates[rng.random_range(0..candidates.len())]);
                recolor(w, c, &mut color, &mut count);
                fixed_any = true;
            }
        }
        if !fixed_any {
            break;
        }
    }

    // Keep the classes that actually dominate.
    let mut classes = Vec::new();
    for c in 0..k {
        let set = NodeSet::from_iter(
            n,
            color
                .iter()
                .enumerate()
                .filter(|(_, &cc)| cc == c)
                .map(|(v, _)| v as NodeId),
        );
        if is_dominating_set(g, &set) {
            classes.push(set);
        }
    }
    FeigeResult {
        classes,
        target,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::are_disjoint;
    use domatic_graph::domination::is_disjoint_dominating_family;
    use domatic_graph::generators::gnp::gnp_with_avg_degree;
    use domatic_graph::generators::regular::{complete, cycle};

    #[test]
    fn target_formula() {
        // K_100: δ = Δ = 99 → 100/(3 ln 99) ≈ 7.25 → 7.
        let g = complete(100);
        assert_eq!(feige_target(&g, 3.0), 7);
        // C_10: δ = Δ = 2 → (3)/(3·ln 2 clamped to 1) = 1.
        assert_eq!(feige_target(&cycle(10), 3.0), 1);
        assert_eq!(feige_target(&Graph::empty(0), 3.0), 0);
    }

    #[test]
    fn partition_is_disjoint_dominating() {
        for seed in 0..5 {
            let g = gnp_with_avg_degree(150, 30.0, seed);
            let res = feige_partition(
                &g,
                &FeigeParams {
                    c: 3.0,
                    max_sweeps: 40,
                    seed,
                },
            );
            assert!(are_disjoint(&res.classes));
            assert!(
                is_disjoint_dominating_family(&g, &res.classes),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn reaches_target_on_dense_random_graphs() {
        // Repair should rescue essentially all classes at this density.
        let g = gnp_with_avg_degree(200, 60.0, 11);
        let res = feige_partition(
            &g,
            &FeigeParams {
                c: 3.0,
                max_sweeps: 60,
                seed: 4,
            },
        );
        assert!(
            res.classes.len() as u32 >= res.target.saturating_sub(1),
            "got {} of target {}",
            res.classes.len(),
            res.target
        );
    }

    #[test]
    fn complete_graph_all_classes_survive() {
        let g = complete(60);
        let res = feige_partition(&g, &FeigeParams::default());
        // On K_n every nonempty class dominates; repair guarantees
        // nonemptiness of all k classes.
        assert_eq!(res.classes.len() as u32, res.target);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnp_with_avg_degree(80, 20.0, 0);
        let p = FeigeParams {
            c: 3.0,
            max_sweeps: 20,
            seed: 5,
        };
        let a = feige_partition(&g, &p);
        let b = feige_partition(&g, &p);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn single_class_on_sparse_graph_is_everyone() {
        let g = cycle(12);
        let res = feige_partition(&g, &FeigeParams::default());
        assert_eq!(res.target, 1);
        assert_eq!(res.classes.len(), 1);
        assert_eq!(res.classes[0].len(), 12);
    }

    #[test]
    fn empty_graph() {
        let res = feige_partition(&Graph::empty(0), &FeigeParams::default());
        assert!(res.classes.is_empty());
    }

    use domatic_graph::Graph;
}
