//! E15 — ablation: dwell time vs switching cost.
//!
//! The paper's schedules activate each color class for its full battery
//! `b` in one contiguous block (`S_v(b·c_v … b(c_v+1)) := 1`). Why not
//! interleave slot-by-slot? Because waking up costs something: handover
//! beacons, neighbor re-discovery. This ablation charges an explicit
//! per-wakeup energy tax and sweeps the rotation dwell, showing that the
//! paper's block shape is the right default once switching is not free.

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_core::greedy::greedy_domatic_partition;
use domatic_netsim::{simulate, DomaticRotation, EnergyModel, SimConfig};

/// Runs E15 and returns its tables.
pub fn run() -> Vec<Table> {
    let g = Family::Gnp { avg_degree: 80.0 }.build(400, 33);
    let capacity = 24.0f64;
    let energies = vec![capacity; g.n()];
    let classes = greedy_domatic_partition(&g);
    let n_classes = classes.len();

    let mut t = Table::new(
        format!(
            "E15 / dwell vs switching cost — gnp(400, d̄=80), {n_classes} greedy classes, battery {capacity}"
        ),
        &["switch cost", "dwell", "lifetime", "wakeups", "wakeups/slot"],
    );
    for switch_cost in [0.0f64, 0.25, 1.0] {
        for dwell in [1u64, 4, 24] {
            let cfg = SimConfig {
                model: EnergyModel::standard(),
                k: 1,
                max_slots: 100_000,
                switch_cost,
            };
            let res = simulate(
                &g,
                &energies,
                &mut DomaticRotation::new(classes.clone(), dwell),
                &cfg,
                None,
            );
            t.row(vec![
                format!("{switch_cost}"),
                dwell.to_string(),
                res.lifetime.to_string(),
                res.wakeups.to_string(),
                f2(res.wakeups as f64 / res.lifetime.max(1) as f64),
            ]);
        }
    }
    t.note("with free switching the dwell barely matters; with a real wakeup tax, block dwell (= b, the paper's shape) wins");
    t.note("dwell 24 = the full battery: each class wakes exactly once, the minimum possible handover volume");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn block_dwell_beats_fine_rotation_under_switch_tax() {
        assert_pinned(&run(), &[9], "77d4e94aae9da40f");
        let g = Family::Gnp { avg_degree: 80.0 }.build(400, 33);
        let energies = vec![24.0; g.n()];
        let classes = greedy_domatic_partition(&g);
        let cfg = SimConfig {
            model: EnergyModel::standard(),
            k: 1,
            max_slots: 100_000,
            switch_cost: 1.0,
        };
        let fine = simulate(
            &g,
            &energies,
            &mut DomaticRotation::new(classes.clone(), 1),
            &cfg,
            None,
        );
        let block = simulate(
            &g,
            &energies,
            &mut DomaticRotation::new(classes, 24),
            &cfg,
            None,
        );
        assert!(
            block.lifetime > fine.lifetime,
            "block {} vs fine {}",
            block.lifetime,
            fine.lifetime
        );
        assert!(block.wakeups < fine.wakeups);
    }
}
