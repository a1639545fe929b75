//! E1 — Figure 1: the worked 7-node example with optimal lifetime 6.
//!
//! The paper's only quantitative figure shows a 7-node graph with uniform
//! battery `b = 2` scheduled through three dominating sets for a total
//! lifetime of 6, after which the poor node `v` cannot be covered anymore.
//! We reconstruct the instance, solve it *exactly* (fractional LP and
//! integral state-space search), and print an optimal step-by-step
//! schedule in the figure's format.

use crate::experiments::table::Table;
use domatic_graph::NodeSet;
use domatic_lp::{exact_integral_lifetime, figure1_instance, lp_optimal_lifetime};
use domatic_schedule::{compact::render, validate_schedule, Batteries, Schedule};

/// Runs E1 and returns its tables.
pub fn run() -> Vec<Table> {
    let (g, b) = figure1_instance();
    let batteries = Batteries::from_vec(b.iter().map(|&x| x as u64).collect());

    let frac =
        lp_optimal_lifetime(&g, &batteries.to_f64(), 1_000_000).expect("figure-1 instance is tiny");
    let integral = exact_integral_lifetime(&g, &b, 1_000_000).expect("tiny instance");

    // An explicit optimal integral schedule in the figure's three-phase
    // shape: two slots per dominating set.
    let d_a = NodeSet::from_iter(7, [0, 3]);
    let d_b = NodeSet::from_iter(7, [1, 4]);
    let d_c = NodeSet::from_iter(7, [2, 5, 6]);
    let witness = Schedule::from_entries([(d_a, 2), (d_b, 2), (d_c, 2)]);
    validate_schedule(&g, &batteries, &witness, 1).expect("witness schedule is valid");

    let mut t = Table::new(
        "E1 / Figure 1 — exact optimum of the worked example (n=7, b=2)",
        &["quantity", "value", "paper"],
    );
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", g.n(), g.m()),
        "7 / —".into(),
    ]);
    t.row(vec![
        "Lemma 4.1 bound b(δ+1)".into(),
        format!("{}", 2 * (g.min_degree().unwrap() as u64 + 1)),
        "6".into(),
    ]);
    t.row(vec![
        "LP optimum (fractional)".into(),
        format!("{:.3}", frac.lifetime),
        "6".into(),
    ]);
    t.row(vec![
        "exact integral optimum".into(),
        integral.to_string(),
        "6".into(),
    ]);
    t.row(vec![
        "witness schedule".into(),
        render(&witness),
        "3 sets × 2 slots".into(),
    ]);
    t.note("poor node v = node 6: N⁺(6) = {0, 1, 6} holds exactly 6 units of energy");
    t.note("after slot 6 every neighbor of v has exhausted its battery — as in the figure");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_six_everywhere() {
        let tables = run();
        let s = tables[0].render();
        assert!(s.contains("Figure 1"));
        // All three optimum rows must say 6.
        assert!(s.contains("6.000"));
        crate::experiments::table::assert_pinned(&tables, &[5], "f71ccac4575007e8");
    }
}
