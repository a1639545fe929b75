//! E17 — extension: the MAC layer the paper assumes, costed.
//!
//! Algorithm 1's "one communication round" presumes a MAC layer where
//! every broadcast is heard. On a raw collision channel (slotted ALOHA,
//! unit-disk collisions), disseminating each node's degree to all its
//! neighbors — the physical realization of that one round — takes
//! `O(Δ log n)`-ish slots with tuned transmission probabilities. The
//! sweep shows the cost as density grows and the penalty for mistuned
//! probabilities (the reason §3 cites dedicated initialization protocols
//! \[13\] for the no-MAC setting).

use crate::experiments::table::{f2, Table};
use crate::experiments::workloads::Family;
use domatic_distsim::radio::{disseminate_degrees, RadioParams};

/// Runs E17 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E17 / radio dissemination — slots to complete Algorithm 1's logical round over slotted ALOHA",
        &["family", "n", "Δ", "p", "slots", "slots/Δ", "collision rate"],
    );
    for (family, n) in [
        (Family::Rgg { avg_degree: 10.0 }, 300usize),
        (Family::Rgg { avg_degree: 25.0 }, 300),
        (Family::Rgg { avg_degree: 50.0 }, 300),
    ] {
        let g = family.build(n, 61 + n as u64);
        let max_deg = g.max_degree().unwrap();
        for (label, p) in [("1/(δv+1)", None), ("0.5 (mistuned)", Some(0.5))] {
            // The mistuned runs never finish; cap their budget so the
            // suite stays fast — the ">cap" marker tells the story.
            let max_slots = if p.is_some() { 20_000 } else { 200_000 };
            let run = disseminate_degrees(
                &g,
                &RadioParams {
                    p,
                    max_slots,
                    seed: 5,
                },
            );
            let status = if run.complete {
                run.slots_used.to_string()
            } else {
                format!(">{}", run.slots_used)
            };
            t.row(vec![
                family.label(),
                n.to_string(),
                max_deg.to_string(),
                label.to_string(),
                status,
                f2(run.slots_used as f64 / max_deg as f64),
                f2(run.collisions as f64 / (run.collisions + run.receptions).max(1) as f64),
            ]);
        }
    }
    t.note("tuned p ≈ 1/(d+1): completion in O(Δ·log n)-ish slots; mistuned p = 0.5 collapses under collisions at density");
    t.note(
        "this is the per-round MAC cost hidden inside every 'communication round' the paper counts",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    #[test]
    fn tuned_dissemination_completes_within_budget() {
        assert_pinned(&run(), &[6], "fe2bb2d0cd26c11f");
        let g = Family::Rgg { avg_degree: 25.0 }.build(300, 61 + 300);
        let run = disseminate_degrees(
            &g,
            &RadioParams {
                p: None,
                max_slots: 200_000,
                seed: 5,
            },
        );
        assert!(run.complete);
        // And in a sane number of slots for Δ ≈ 40.
        assert!(run.slots_used < 20_000, "{}", run.slots_used);
    }
}
