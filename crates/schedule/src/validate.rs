//! Schedule validity: the single definition of correctness used by every
//! algorithm's tests and by the experiment harness.

use crate::energy::{Batteries, EnergyLedger};
use crate::Schedule;
use domatic_graph::domination::{
    d_hop_dominator_count, is_d_hop_k_dominating_set, is_k_dominating_set,
};
use domatic_graph::{Graph, NodeId};

/// Why a schedule is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Entry `step` is not a `k`-dominating set; `node` lacks dominators.
    NotDominating {
        /// Index of the offending entry.
        step: usize,
        /// A node with too few dominators.
        node: NodeId,
        /// How many dominators it has.
        have: usize,
        /// How many are required.
        need: usize,
    },
    /// `node`'s total active time exceeds its battery.
    OverBudget {
        /// The over-charged node.
        node: NodeId,
        /// Total time the schedule keeps it active.
        active: u64,
        /// Its battery budget.
        budget: u64,
    },
    /// The schedule's universe does not match the graph.
    UniverseMismatch {
        /// Entry index with the wrong universe.
        step: usize,
        /// Universe recorded in the entry's node set.
        got: usize,
        /// Expected universe (graph size).
        expected: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotDominating {
                step,
                node,
                have,
                need,
            } => write!(
                f,
                "entry {step}: node {node} has {have} dominators, needs {need}"
            ),
            Violation::OverBudget {
                node,
                active,
                budget,
            } => {
                write!(f, "node {node} active {active} units, budget {budget}")
            }
            Violation::UniverseMismatch {
                step,
                got,
                expected,
            } => {
                write!(
                    f,
                    "entry {step}: set universe {got}, graph has {expected} nodes"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Validates a schedule: every entry must be a `k`-dominating set of `g`
/// and no node may exceed its battery.
pub fn validate_schedule(
    g: &Graph,
    batteries: &Batteries,
    schedule: &Schedule,
    k: usize,
) -> Result<(), Violation> {
    validate_schedule_hops(g, batteries, schedule, k, 1)
}

/// d-hop variant of [`validate_schedule`]: every entry must be a
/// `hops`-hop `k`-dominating set of `g` (each node needs `k` active nodes
/// within `hops` hops) and no node may exceed its battery.
///
/// `hops <= 1` is classic closed-neighbourhood domination, so the two
/// validators agree exactly on 1-hop instances. Witness nodes in
/// [`Violation::NotDominating`] report their d-hop dominator counts.
pub fn validate_schedule_hops(
    g: &Graph,
    batteries: &Batteries,
    schedule: &Schedule,
    k: usize,
    hops: usize,
) -> Result<(), Violation> {
    assert_eq!(g.n(), batteries.n(), "graph/battery size mismatch");
    let hops = hops.max(1);
    for (i, e) in schedule.entries().iter().enumerate() {
        if e.set.universe() != g.n() {
            return Err(Violation::UniverseMismatch {
                step: i,
                got: e.set.universe(),
                expected: g.n(),
            });
        }
        if !is_d_hop_k_dominating_set(g, &e.set, k, hops) {
            // Locate a witness node for the error report.
            for v in 0..g.n() as NodeId {
                let have = d_hop_dominator_count(g, &e.set, v, hops);
                if have < k {
                    return Err(Violation::NotDominating {
                        step: i,
                        node: v,
                        have,
                        need: k,
                    });
                }
            }
            unreachable!("is_d_hop_k_dominating_set said no but all nodes covered");
        }
    }
    for v in 0..g.n() as NodeId {
        let active = schedule.active_time(v);
        let budget = batteries.get(v);
        if active > budget {
            return Err(Violation::OverBudget {
                node: v,
                active,
                budget,
            });
        }
    }
    Ok(())
}

/// The longest valid prefix of a candidate schedule.
///
/// The paper's randomized algorithms are correct w.h.p.; when a color class
/// fails to dominate, the analysis (Lemma 4.2 / 5.2) counts only the
/// classes up to the guaranteed range. This helper applies the same logic
/// operationally: it keeps entries while they k-dominate, clips the last
/// entry's duration to what the batteries allow, and stops at the first
/// non-dominating entry.
pub fn longest_valid_prefix(
    g: &Graph,
    batteries: &Batteries,
    schedule: &Schedule,
    k: usize,
) -> Schedule {
    let mut ledger = EnergyLedger::new(batteries.clone());
    let mut out = Schedule::new();
    for e in schedule.entries() {
        if e.set.universe() != g.n() || !is_k_dominating_set(g, &e.set, k) {
            break;
        }
        let d = e.duration.min(ledger.max_duration(&e.set));
        if d == 0 {
            break;
        }
        ledger
            .charge(&e.set, d)
            .expect("max_duration admits this charge");
        out.push(e.set.clone(), d);
        if d < e.duration {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::regular::{complete, star};
    use domatic_graph::NodeSet;

    fn set(n: usize, members: &[NodeId]) -> NodeSet {
        NodeSet::from_iter(n, members.iter().copied())
    }

    #[test]
    fn valid_schedule_passes() {
        let g = star(4);
        let b = Batteries::uniform(4, 2);
        let s = Schedule::from_entries([(set(4, &[0]), 2), (set(4, &[1, 2, 3]), 2)]);
        assert_eq!(validate_schedule(&g, &b, &s, 1), Ok(()));
    }

    #[test]
    fn non_dominating_entry_detected() {
        let g = star(4);
        let b = Batteries::uniform(4, 5);
        let s = Schedule::from_entries([(set(4, &[1]), 1)]);
        let err = validate_schedule(&g, &b, &s, 1).unwrap_err();
        assert!(matches!(err, Violation::NotDominating { step: 0, .. }));
        assert!(err.to_string().contains("entry 0"));
    }

    #[test]
    fn over_budget_detected() {
        let g = star(4);
        let b = Batteries::uniform(4, 1);
        let s = Schedule::from_entries([(set(4, &[0]), 2)]);
        let err = validate_schedule(&g, &b, &s, 1).unwrap_err();
        assert_eq!(
            err,
            Violation::OverBudget {
                node: 0,
                active: 2,
                budget: 1
            }
        );
    }

    #[test]
    fn k_tolerance_enforced() {
        let g = complete(4);
        let b = Batteries::uniform(4, 3);
        let s = Schedule::from_entries([(set(4, &[0, 1]), 1)]);
        assert_eq!(validate_schedule(&g, &b, &s, 2), Ok(()));
        assert!(validate_schedule(&g, &b, &s, 3).is_err());
    }

    #[test]
    fn universe_mismatch_detected() {
        let g = star(4);
        let b = Batteries::uniform(4, 1);
        let s = Schedule::from_entries([(set(5, &[0]), 1)]);
        assert!(matches!(
            validate_schedule(&g, &b, &s, 1),
            Err(Violation::UniverseMismatch {
                step: 0,
                got: 5,
                expected: 4
            })
        ));
    }

    #[test]
    fn hops_validator_accepts_wider_coverage() {
        // A 6-path: {2} covers everything within 3 hops but not within 1.
        let g = domatic_graph::generators::regular::path(6);
        let b = Batteries::uniform(6, 2);
        let s = Schedule::from_entries([(set(6, &[2]), 1)]);
        assert!(validate_schedule(&g, &b, &s, 1).is_err());
        assert!(validate_schedule_hops(&g, &b, &s, 1, 2).is_err());
        assert_eq!(validate_schedule_hops(&g, &b, &s, 1, 3), Ok(()));
        // The witness reports d-hop counts: node 5 is 3 hops from node 2.
        let err = validate_schedule_hops(&g, &b, &s, 1, 2).unwrap_err();
        assert_eq!(
            err,
            Violation::NotDominating {
                step: 0,
                node: 5,
                have: 0,
                need: 1
            }
        );
        // hops = 1 delegates to the classic validator.
        let ok = Schedule::from_entries([(set(6, &[1, 4]), 1)]);
        assert_eq!(
            validate_schedule_hops(&g, &b, &ok, 1, 1),
            validate_schedule(&g, &b, &ok, 1)
        );
    }

    #[test]
    fn prefix_stops_at_non_dominating_entry() {
        let g = star(4);
        let b = Batteries::uniform(4, 5);
        let s = Schedule::from_entries([
            (set(4, &[0]), 2),
            (set(4, &[1]), 9), // not dominating
            (set(4, &[0]), 1),
        ]);
        let p = longest_valid_prefix(&g, &b, &s, 1);
        assert_eq!(p.lifetime(), 2);
        assert_eq!(p.num_steps(), 1);
    }

    #[test]
    fn prefix_clips_to_battery() {
        let g = star(4);
        let b = Batteries::uniform(4, 3);
        let s = Schedule::from_entries([(set(4, &[0]), 10)]);
        let p = longest_valid_prefix(&g, &b, &s, 1);
        assert_eq!(p.lifetime(), 3);
        assert_eq!(validate_schedule(&g, &b, &p, 1), Ok(()));
    }

    #[test]
    fn prefix_of_valid_schedule_is_identity() {
        let g = star(4);
        let b = Batteries::uniform(4, 2);
        let s = Schedule::from_entries([(set(4, &[0]), 2), (set(4, &[1, 2, 3]), 1)]);
        let p = longest_valid_prefix(&g, &b, &s, 1);
        assert_eq!(p, s);
    }

    #[test]
    fn prefix_respects_k() {
        let g = complete(3);
        let b = Batteries::uniform(3, 2);
        let s = Schedule::from_entries([
            (set(3, &[0, 1]), 1),
            (set(3, &[2]), 1), // 1-dominating but not 2-dominating
        ]);
        let p = longest_valid_prefix(&g, &b, &s, 2);
        assert_eq!(p.lifetime(), 1);
    }
}
