//! E8 — the distributed cost claim: constant rounds, one broadcast per
//! node per round, payloads of a few bytes.
//!
//! The paper (§1): "all our algorithms are completely distributed and
//! require only a constant number of communication rounds." The table
//! shows measured rounds and per-node message counts staying flat as n
//! grows 16×.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::{random_batteries, Family};
use domatic_distsim::protocols::fault_tolerant::distributed_fault_tolerant_schedule;
use domatic_distsim::protocols::general::distributed_general_schedule;
use domatic_distsim::protocols::luby::distributed_luby_mis;
use domatic_distsim::protocols::uniform::distributed_uniform_schedule;

/// Runs E8 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E8 / distributed cost — rounds and messages per node vs network size",
        &[
            "protocol",
            "n",
            "rounds",
            "tx/node",
            "rx/node",
            "bytes/node",
        ],
    );
    let family = Family::Rgg { avg_degree: 20.0 };
    for n in [250usize, 1000, 4000] {
        let g = family.build(n, 11 + n as u64);
        let (_, _, s_u) = distributed_uniform_schedule(&g, 3, 3.0, 0, 4);
        t.row(vec![
            "uniform (Alg 1)".into(),
            n.to_string(),
            s_u.rounds.to_string(),
            f2(s_u.transmissions_per_node(n)),
            f2(s_u.receptions_per_node(n)),
            f2(s_u.bytes_received as f64 / n as f64),
        ]);
        let b = random_batteries(n, 5, 77);
        let (_, _, s_g) = distributed_general_schedule(&g, &b, 3.0, 0, 4);
        t.row(vec![
            "general (Alg 2)".into(),
            n.to_string(),
            s_g.rounds.to_string(),
            f2(s_g.transmissions_per_node(n)),
            f2(s_g.receptions_per_node(n)),
            f2(s_g.bytes_received as f64 / n as f64),
        ]);
        let run = distributed_fault_tolerant_schedule(&g, 4, 2, 3.0, 0, 4);
        t.row(vec![
            "k-tolerant (Alg 3)".into(),
            n.to_string(),
            run.stats.rounds.to_string(),
            f2(run.stats.transmissions_per_node(n)),
            f2(run.stats.receptions_per_node(n)),
            f2(run.stats.bytes_received as f64 / n as f64),
        ]);
    }
    t.note("rounds and tx/node are exactly constant (1, 2, 1); rx/node and bytes/node track average degree, not n");

    // Contrast: the Luby-MIS baseline (§3) needs Θ(log n) rounds — its
    // quiescence round grows with n while the scheduling protocols' stays 1.
    let mut luby = Table::new(
        "E8b / contrast — Luby MIS round complexity grows with n (scheduling protocols stay constant)",
        &["n", "rounds to quiesce", "ln n", "tx/node", "MIS size"],
    );
    for n in [250usize, 1000, 4000, 16000] {
        let g = family.build(n, 11 + n as u64);
        let run = distributed_luby_mis(&g, 3, 60, 4);
        assert!(run.complete, "luby did not quiesce at n = {n}");
        luby.row(vec![
            n.to_string(),
            run.rounds_to_quiesce.to_string(),
            f2((n as f64).ln()),
            f2(run.stats.transmissions_per_node(n)),
            run.mis.len().to_string(),
        ]);
    }
    luby.note("each Luby phase = 2 engine rounds; quiescence tracks O(log n), the scheduling protocols use 1–2 rounds total");
    vec![t, luby]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn costs_are_constant_in_n() {
        assert_pinned(&run(), &[9, 4], "79d478e6fa78aa19");
        let family = Family::Rgg { avg_degree: 20.0 };
        let g_small = family.build(250, 11 + 250);
        let g_big = family.build(1000, 11 + 1000);
        let (_, _, a) = distributed_uniform_schedule(&g_small, 3, 3.0, 0, 2);
        let (_, _, b) = distributed_uniform_schedule(&g_big, 3, 3.0, 0, 2);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.transmissions_per_node(250), 1.0);
        assert_eq!(b.transmissions_per_node(1000), 1.0);
    }
}
