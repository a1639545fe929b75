//! E7 — the Feige et al. existential bound, constructively.
//!
//! Feige, Halldórsson, Kortsarz & Srinivasan: every graph has a domatic
//! partition of size `(1 − o(1))(δ+1)/ln Δ`. Our random-coloring + repair
//! construction should achieve the `(δ+1)/(3 ln Δ)` yardstick across
//! families; the table reports achieved vs target vs the `δ+1` ceiling.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::feige::{feige_partition, feige_target, FeigeParams};
use domatic_graph::generators::regular::{complete, hypercube};

/// Runs E7 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E7 / Feige et al. — constructive partition size vs (δ+1)/(3 ln Δ) target",
        &[
            "instance",
            "n",
            "δ+1",
            "target",
            "achieved",
            "achieved/target",
            "sweeps",
        ],
    );
    let instances = vec![
        (
            "gnp(400, d̄=50)".to_string(),
            Family::Gnp { avg_degree: 50.0 }.build(400, 1),
        ),
        (
            "gnp(800, d̄=80)".to_string(),
            Family::Gnp { avg_degree: 80.0 }.build(800, 2),
        ),
        (
            "rgg(400, d̄=50)".to_string(),
            Family::Rgg { avg_degree: 50.0 }.build(400, 3),
        ),
        ("torus8(400)".to_string(), Family::Torus8.build(400, 0)),
        (
            "gnp(600, d̄=200)".to_string(),
            Family::Gnp { avg_degree: 200.0 }.build(600, 4),
        ),
        ("K_100".to_string(), complete(100)),
        ("K_400".to_string(), complete(400)),
        ("Q_10".to_string(), hypercube(10)),
    ];
    for (name, g) in instances {
        let target = feige_target(&g, 3.0);
        let res = feige_partition(
            &g,
            &FeigeParams {
                c: 3.0,
                max_sweeps: 60,
                seed: 5,
            },
        );
        t.row(vec![
            name,
            g.n().to_string(),
            (g.min_degree().unwrap() + 1).to_string(),
            target.to_string(),
            res.classes.len().to_string(),
            f2(res.classes.len() as f64 / target.max(1) as f64),
            res.sweeps.to_string(),
        ]);
    }
    t.note("achieved/target ≥ 1 means the constructive variant matches the existential Ω(δ/ln Δ) bound");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn achieves_target_on_a_dense_instance() {
        assert_pinned(&run(), &[8], "d1063d0d6c0cee65");
        let g = Family::Gnp { avg_degree: 50.0 }.build(400, 1);
        let target = feige_target(&g, 3.0);
        let res = feige_partition(
            &g,
            &FeigeParams {
                c: 3.0,
                max_sweeps: 60,
                seed: 5,
            },
        );
        assert!(
            res.classes.len() as u32 + 1 >= target,
            "achieved {} target {}",
            res.classes.len(),
            target
        );
    }
}
