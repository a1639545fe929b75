//! E18 — extension: partition augmentation (local search).
//!
//! How much of the gap between a partition and the `δ+1` ceiling can a
//! cheap local search recover? The augmentation mines the unused pool and
//! the redundant members of existing classes for additional disjoint
//! dominating sets. Gains are largest on the randomized partition (big,
//! redundant classes) and smallest on greedy (already tight).

use crate::experiments::table::Table;
use crate::experiments::workloads::Family;
use domatic_core::augment::augment_partition;
use domatic_core::feige::{feige_partition, FeigeParams};
use domatic_core::greedy::greedy_domatic_partition;
use domatic_core::uniform::{uniform_coloring, UniformParams};
use domatic_graph::domination::is_dominating_set;
use domatic_graph::{Graph, NodeSet};

fn randomized_valid_classes(g: &Graph, seed: u64) -> Vec<NodeSet> {
    let ca = uniform_coloring(g, &UniformParams { c: 3.0, seed });
    ca.classes(g.n())
        .into_iter()
        .filter(|c| !c.is_empty() && is_dominating_set(g, c))
        .collect()
}

/// Runs E18 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E18 / partition augmentation — extra disjoint dominating sets from local search",
        &[
            "family", "n", "δ+1", "input", "before", "after", "added", "stolen",
        ],
    );
    for (family, n) in [
        (Family::Gnp { avg_degree: 80.0 }, 300usize),
        (Family::Gnp { avg_degree: 150.0 }, 400),
        (Family::Rgg { avg_degree: 60.0 }, 300),
    ] {
        let g = family.build(n, 83 + n as u64);
        let ceiling = g.min_degree().unwrap() + 1;
        let inputs: Vec<(&str, Vec<NodeSet>)> = vec![
            ("randomized (Alg 1)", randomized_valid_classes(&g, 1)),
            (
                "feige-repair",
                feige_partition(
                    &g,
                    &FeigeParams {
                        c: 3.0,
                        max_sweeps: 40,
                        seed: 1,
                    },
                )
                .classes,
            ),
            ("greedy", greedy_domatic_partition(&g)),
        ];
        for (label, classes) in inputs {
            let before = classes.len();
            let res = augment_partition(&g, classes);
            t.row(vec![
                family.label(),
                n.to_string(),
                ceiling.to_string(),
                label.to_string(),
                before.to_string(),
                res.classes.len().to_string(),
                res.added.to_string(),
                res.stolen.to_string(),
            ]);
        }
    }
    t.note("augmentation lifts the theory-backed partitions most — their classes are n/#classes nodes each, hugely redundant");
    t.note("the lifted randomized partition keeps its distributed pedigree: the local search is a centralized post-pass an operator can run");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;
    use domatic_graph::domination::is_disjoint_dominating_family;

    #[test]
    fn augmentation_never_regresses_and_stays_valid() {
        assert_pinned(&run(), &[9], "fd93081c581e99af");
        let g = Family::Gnp { avg_degree: 80.0 }.build(300, 83 + 300);
        for input in [
            randomized_valid_classes(&g, 1),
            greedy_domatic_partition(&g),
        ] {
            let before = input.len();
            let res = augment_partition(&g, input);
            assert!(res.classes.len() >= before);
            assert!(is_disjoint_dominating_family(&g, &res.classes));
        }
    }
}
