//! E9 — end-to-end network-lifetime simulation (the paper's motivation).
//!
//! Strategies on the same sensor field with the same batteries:
//!
//! - `all-active` — no clustering: lifetime = one battery.
//! - `single-mds(static)` — "find the best dominating set" without
//!   lifetime planning: the network *still* dies after one battery (the
//!   paper's strawman — the dominators deplete together), it just burns
//!   less total energy doing so.
//! - rotation strategies — any family of disjoint dominating sets
//!   multiplies lifetime by its size: the randomized Algorithm-1/Feige
//!   classes and the greedy partition, plus adaptive baselines.
//!
//! E9b quantifies §6's motivation: how often does a *single node crash*
//! inside the active set break coverage? 1-dominating rotations are
//! fragile; merging k = 2 classes (Algorithm 3's construction) makes every
//! single crash survivable by definition.

use crate::experiments::table::{f2, f3, Table};
use crate::experiments::workloads::Family;
use domatic_core::feige::{feige_partition, FeigeParams};
use domatic_core::greedy::greedy_domatic_partition;
use domatic_core::uniform::{uniform_coloring, UniformParams};
use domatic_graph::domination::{dominator_count, is_dominating_set};
use domatic_graph::{Graph, NodeId, NodeSet};
use domatic_netsim::{
    simulate, AllActive, DomaticRotation, EnergyModel, RandomRotation, SimConfig, SingleMds,
    Strategy,
};

/// The randomized rotation classes: the better of Algorithm 1's valid
/// color classes (best of a few seeds) and the Feige-style repaired
/// partition.
fn randomized_classes(g: &Graph, trials: u64) -> Vec<NodeSet> {
    let mut best: Vec<NodeSet> = Vec::new();
    for seed in 0..trials {
        let ca = uniform_coloring(g, &UniformParams { c: 3.0, seed });
        let valid: Vec<NodeSet> = ca
            .classes(g.n())
            .into_iter()
            .filter(|c| !c.is_empty() && is_dominating_set(g, c))
            .collect();
        if valid.len() > best.len() {
            best = valid;
        }
        let repaired = feige_partition(
            g,
            &FeigeParams {
                c: 3.0,
                max_sweeps: 40,
                seed,
            },
        );
        if repaired.classes.len() > best.len() {
            best = repaired.classes;
        }
    }
    best
}

/// Fraction of (class, member) pairs where crashing that one member leaves
/// some other node uncovered — the single-crash vulnerability of a
/// rotation schedule at coverage level 1.
fn single_crash_vulnerability(g: &Graph, classes: &[NodeSet]) -> f64 {
    let mut vulnerable = 0u64;
    let mut total = 0u64;
    for class in classes {
        for f in class.iter() {
            total += 1;
            let mut without = class.clone();
            without.remove(f);
            // The crashed node is gone: everyone else must still be covered.
            let broken = (0..g.n() as NodeId)
                .filter(|&v| v != f)
                .any(|v| dominator_count(g, &without, v) < 1);
            if broken {
                vulnerable += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        vulnerable as f64 / total as f64
    }
}

/// Merges consecutive classes in groups of `k` (Algorithm 3, phase 2).
fn merge_classes(classes: &[NodeSet], k: usize, n: usize) -> Vec<NodeSet> {
    classes
        .chunks(k)
        .filter(|ch| ch.len() == k)
        .map(|ch| {
            let mut m = NodeSet::new(n);
            for c in ch {
                m.union_with(c);
            }
            m
        })
        .collect()
}

/// Runs E9 and returns its tables.
pub fn run() -> Vec<Table> {
    let g = Family::Gnp { avg_degree: 80.0 }.build(400, 5);
    let capacity = 25.0f64;
    let energies = vec![capacity; g.n()];
    let cfg = SimConfig {
        model: EnergyModel::standard(),
        k: 1,
        max_slots: 100_000,
        switch_cost: 0.0,
    };

    let mut t = Table::new(
        format!(
            "E9a / network lifetime simulation — gnp(400, d̄=80), battery {capacity} units, active:sleep = 100:1"
        ),
        &["strategy", "lifetime (slots)", "delivered readings", "mean awake", "energy spent"],
    );
    let rand_classes = randomized_classes(&g, 5);
    let greedy_classes = greedy_domatic_partition(&g);
    let n_rand = rand_classes.len();
    let n_greedy = greedy_classes.len();
    let mut strategies: Vec<(String, Box<dyn Strategy>)> = vec![
        ("all-active".into(), Box::new(AllActive)),
        (
            "single-mds(static)".into(),
            Box::new(SingleMds::static_once()),
        ),
        ("single-mds(adaptive)".into(), Box::new(SingleMds::new())),
        ("random-rotation".into(), Box::new(RandomRotation::new(9))),
        (
            format!("domatic-randomized ({n_rand} classes)"),
            Box::new(DomaticRotation::new(rand_classes.clone(), 1)),
        ),
        (
            format!("domatic-greedy ({n_greedy} classes)"),
            Box::new(DomaticRotation::new(greedy_classes.clone(), 1)),
        ),
    ];
    for (name, s) in strategies.iter_mut() {
        let res = simulate(&g, &energies, s.as_mut(), &cfg, None);
        t.row(vec![
            name.clone(),
            res.lifetime.to_string(),
            res.delivered.to_string(),
            f2(res.mean_active),
            f2(res.energy_spent),
        ]);
    }
    t.note("one dominating set — even the best — dies with its batteries: static MDS lasts exactly one battery, like all-active");
    t.note("every rotation multiplies lifetime by ≈ its number of disjoint dominating sets");
    t.note("greedy finds more/smaller classes on benign graphs; the randomized partition is the one with a worst-case guarantee (see E6b)");

    // E9b: single-crash vulnerability, 1-dominating vs 2-merged classes.
    let mut ft = Table::new(
        "E9b / fault tolerance — probability a single crash in the active set breaks coverage",
        &[
            "schedule",
            "classes",
            "mean class size",
            "crash-vulnerability",
        ],
    );
    let mean_size = |cs: &[NodeSet]| {
        if cs.is_empty() {
            0.0
        } else {
            cs.iter().map(|c| c.len()).sum::<usize>() as f64 / cs.len() as f64
        }
    };
    let merged2 = merge_classes(&greedy_classes, 2, g.n());
    let rows: Vec<(&str, &[NodeSet])> = vec![
        ("greedy classes (k=1)", &greedy_classes),
        ("randomized classes (k=1)", &rand_classes),
        ("2-merged greedy classes (k=2)", &merged2),
    ];
    for (name, cs) in rows {
        ft.row(vec![
            name.to_string(),
            cs.len().to_string(),
            f2(mean_size(cs)),
            f3(single_crash_vulnerability(&g, cs)),
        ]);
    }
    ft.note("merging k=2 consecutive classes (Algorithm 3) makes the vulnerability exactly 0: every node keeps a second dominator");
    ft.note("the price is half as many classes — Lemma 6.1's 1/k lifetime factor");
    vec![t, ft]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn rotations_beat_static_clusterings() {
        assert_pinned(&run(), &[6, 3], "54fcf25d2732f44f");
        let g = Family::Gnp { avg_degree: 80.0 }.build(400, 5);
        let energies = vec![25.0; g.n()];
        let cfg = SimConfig {
            model: EnergyModel::standard(),
            k: 1,
            max_slots: 100_000,
            switch_cost: 0.0,
        };
        let classes = randomized_classes(&g, 5);
        assert!(
            classes.len() >= 2,
            "need a real partition, got {}",
            classes.len()
        );
        let all = simulate(&g, &energies, &mut AllActive, &cfg, None);
        let mds = simulate(&g, &energies, &mut SingleMds::static_once(), &cfg, None);
        let dom = simulate(
            &g,
            &energies,
            &mut DomaticRotation::new(classes, 1),
            &cfg,
            None,
        );
        // The strawman insight: static MDS does NOT outlive all-active.
        assert_eq!(mds.lifetime, all.lifetime);
        assert!(
            dom.lifetime > all.lifetime,
            "domatic {} vs all {}",
            dom.lifetime,
            all.lifetime
        );
        assert!(dom.mean_active < all.mean_active);
    }

    #[test]
    fn merged_classes_survive_any_single_crash() {
        let g = Family::Gnp { avg_degree: 80.0 }.build(400, 5);
        let greedy = greedy_domatic_partition(&g);
        assert!(single_crash_vulnerability(&g, &greedy) > 0.0);
        let merged = merge_classes(&greedy, 2, g.n());
        assert!(!merged.is_empty());
        assert_eq!(single_crash_vulnerability(&g, &merged), 0.0);
    }
}
