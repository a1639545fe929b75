//! E11 — extension: maximum-lifetime *connected* clustering (§7's open
//! problem).
//!
//! Connectivity is a real tax: a connected dominating set needs extra
//! backbone nodes, and disjoint CDSs are scarcer than disjoint DSs. The
//! table quantifies the tax across families by comparing the plain greedy
//! domatic partition, the greedy *connected* partition, and the
//! color-then-connect schedule built from Algorithm 1.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::cds::{
    all_entries_connected, connected_uniform_schedule, greedy_connected_partition,
};
use domatic_core::greedy::greedy_domatic_partition;
use domatic_core::uniform::UniformParams;
use domatic_schedule::{validate_schedule, Batteries};

/// Runs E11 and returns its tables.
pub fn run() -> Vec<Table> {
    let b = 2u64;
    let mut t = Table::new(
        format!("E11 / connected clustering — the connectivity tax (b={b})"),
        &[
            "family",
            "n",
            "plain classes",
            "connected classes",
            "colored+connected lifetime",
            "mean CDS size / mean DS size",
        ],
    );
    for (family, n) in [
        (Family::Gnp { avg_degree: 50.0 }, 200usize),
        (Family::Gnp { avg_degree: 150.0 }, 400),
        (Family::Rgg { avg_degree: 50.0 }, 200),
    ] {
        let g = family.build(n, 19 + n as u64);
        let plain = greedy_domatic_partition(&g);
        let connected = greedy_connected_partition(&g);
        let run = connected_uniform_schedule(&g, b, &UniformParams { c: 3.0, seed: 5 });
        let batteries = Batteries::uniform(g.n(), b);
        validate_schedule(&g, &batteries, &run.schedule, 1).expect("connected schedule valid");
        assert!(all_entries_connected(&g, &run.schedule));
        let mean = |sets: &[domatic_graph::NodeSet]| {
            if sets.is_empty() {
                0.0
            } else {
                sets.iter().map(|s| s.len()).sum::<usize>() as f64 / sets.len() as f64
            }
        };
        let size_ratio = if mean(&plain) > 0.0 {
            mean(&connected) / mean(&plain)
        } else {
            0.0
        };
        t.row(vec![
            family.label(),
            n.to_string(),
            plain.len().to_string(),
            connected.len().to_string(),
            run.schedule.lifetime().to_string(),
            f2(size_ratio),
        ]);
    }
    t.note(
        "connected classes ≤ plain classes: backbones consume extra nodes (the ≤ 3× size factor)",
    );
    t.note("no approximation guarantee exists for this problem — the paper leaves it open; these are heuristics");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn connected_never_beats_plain_partition_size() {
        assert_pinned(&run(), &[3], "89b127562a9be152");
        let g = Family::Gnp { avg_degree: 50.0 }.build(200, 19 + 200);
        let plain = greedy_domatic_partition(&g).len();
        let connected = greedy_connected_partition(&g).len();
        assert!(connected <= plain, "connected {connected} > plain {plain}");
        assert!(connected >= 1);
    }
}
