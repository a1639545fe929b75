//! E6 — the greedy baseline and its Ω(√n) collapse.
//!
//! On benign families the greedy domatic partition is competitive (often
//! better than one randomized run). On the Fujita-style family `B(m)` it
//! finds O(1) disjoint dominating sets while the optimum is `m + 1 = Θ(√n)`
//! — the separation Feige et al. / Fujita proved and the reason the paper
//! needs the randomized construction.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::greedy::greedy_domatic_partition;
use domatic_core::uniform::{uniform_coloring, UniformParams};
use domatic_graph::domination::is_dominating_set;
use domatic_graph::generators::fujita::{fujita_bad_instance, fujita_optimal_partition_size};
use domatic_graph::Graph;

/// Count of dominating classes among a coloring's guaranteed prefix, best
/// over `trials` seeds (the randomized competitor's partition size).
fn randomized_partition_size(g: &Graph, trials: u64) -> usize {
    let mut best = 0;
    for seed in 0..trials {
        let ca = uniform_coloring(g, &UniformParams { c: 3.0, seed });
        let valid = ca
            .classes(g.n())
            .iter()
            .take(ca.guaranteed_classes as usize)
            .filter(|c| is_dominating_set(g, c))
            .count();
        best = best.max(valid);
    }
    best
}

/// Runs E6 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut benign = Table::new(
        "E6a / greedy vs randomized domatic partition on benign families",
        &[
            "family",
            "n",
            "δ+1 (UB)",
            "greedy",
            "randomized (best of 10)",
        ],
    );
    for family in [
        Family::Gnp { avg_degree: 50.0 },
        Family::Gnp { avg_degree: 150.0 },
        Family::Rgg { avg_degree: 50.0 },
    ] {
        for n in [200usize, 400] {
            let g = family.build(n, 3 + n as u64);
            benign.row(vec![
                family.label(),
                n.to_string(),
                (g.min_degree().unwrap() + 1).to_string(),
                greedy_domatic_partition(&g).len().to_string(),
                randomized_partition_size(&g, 10).to_string(),
            ]);
        }
    }
    benign.note("greedy is strong on benign graphs — the point of E6b is that it has no worst-case guarantee");

    let mut adversarial = Table::new(
        "E6b / the Fujita-style family B(m): greedy collapses to O(1)",
        &[
            "m",
            "n = 1+m+m²",
            "optimal (m+1)",
            "greedy",
            "opt/greedy",
            "√n",
        ],
    );
    for m in [4usize, 6, 8, 12, 16] {
        let g = fujita_bad_instance(m);
        let greedy = greedy_domatic_partition(&g).len();
        let opt = fujita_optimal_partition_size(m);
        adversarial.row(vec![
            m.to_string(),
            g.n().to_string(),
            opt.to_string(),
            greedy.to_string(),
            f2(opt as f64 / greedy.max(1) as f64),
            f2((g.n() as f64).sqrt()),
        ]);
    }
    adversarial
        .note("opt/greedy grows like √n — the Ω(√n) separation of Fujita [6] / Feige et al. [5]");
    vec![benign, adversarial]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn separation_grows() {
        assert_pinned(&run(), &[6, 5], "9576487195520b14");
        let g4 = fujita_bad_instance(4);
        let g12 = fujita_bad_instance(12);
        let r4 = fujita_optimal_partition_size(4) as f64
            / greedy_domatic_partition(&g4).len().max(1) as f64;
        let r12 = fujita_optimal_partition_size(12) as f64
            / greedy_domatic_partition(&g12).len().max(1) as f64;
        assert!(r12 > r4, "{r12} <= {r4}");
        assert!(r12 >= 4.0);
    }

    #[test]
    fn randomized_survives_fujita_better_than_nothing() {
        // B(m) has δ = m (node u), so the randomized guarantee is
        // max(1, m/(3 ln n)) classes — modest but not adversarially 2.
        let g = fujita_bad_instance(8);
        assert!(randomized_partition_size(&g, 5) >= 1);
    }
}
