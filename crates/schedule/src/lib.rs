//! # domatic-schedule
//!
//! Schedule types and correctness checking for the maximum cluster-lifetime
//! problem (Moscibroda & Wattenhofer, IPDPS 2005, §2).
//!
//! A [`Schedule`] is a sequence `(D_1, t_1), …, (D_k, t_k)`: dominating set
//! `D_i` is active for `t_i` consecutive time units. Its *lifetime* is
//! `Σ t_i`. A schedule is valid for a graph `G` and battery vector `b` at
//! tolerance level `k` iff every `D_i` is a k-dominating set of `G` and
//! every node `v` is active for at most `b_v` total time units.
//!
//! This crate is deliberately independent of *how* schedules are produced;
//! every algorithm in `domatic-core` funnels its output through
//! [`validate::validate_schedule`] in tests, so correctness is defined in
//! exactly one place.

pub mod compact;
pub mod energy;
pub mod io;
pub mod metrics;
pub mod validate;

pub use energy::{Batteries, EnergyLedger};
pub use validate::{longest_valid_prefix, validate_schedule, validate_schedule_hops, Violation};

use domatic_graph::{NodeId, NodeSet};

/// One schedule step: a node set active for a duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The set of active nodes (intended to be a dominating set).
    pub set: NodeSet,
    /// Number of time units this set stays active (must be ≥ 1 to matter).
    pub duration: u64,
}

/// A cluster-lifetime schedule over a fixed node universe.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
}

impl Schedule {
    /// The empty schedule (lifetime 0).
    pub fn new() -> Self {
        Schedule {
            entries: Vec::new(),
        }
    }

    /// Builds a schedule from `(set, duration)` pairs, dropping
    /// zero-duration entries.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (NodeSet, u64)>,
    {
        Schedule {
            entries: entries
                .into_iter()
                .filter(|(_, d)| *d > 0)
                .map(|(set, duration)| ScheduleEntry { set, duration })
                .collect(),
        }
    }

    /// Appends a step; zero durations are ignored.
    pub fn push(&mut self, set: NodeSet, duration: u64) {
        if duration > 0 {
            self.entries.push(ScheduleEntry { set, duration });
        }
    }

    /// The steps in activation order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Total lifetime `L(S) = Σ t_i`.
    pub fn lifetime(&self) -> u64 {
        self.entries.iter().map(|e| e.duration).sum()
    }

    /// Number of steps (distinct activation intervals).
    pub fn num_steps(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The set active at absolute time `t ∈ [0, lifetime)`, or `None`
    /// past the end — the paper's indicator `S_v(t)` is
    /// `self.active_set_at(t).contains(v)`.
    pub fn active_set_at(&self, t: u64) -> Option<&NodeSet> {
        let mut acc = 0u64;
        for e in &self.entries {
            acc += e.duration;
            if t < acc {
                return Some(&e.set);
            }
        }
        None
    }

    /// Total active time of node `v` across the schedule
    /// (`Σ_{i : v ∈ D_i} t_i`).
    pub fn active_time(&self, v: NodeId) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.set.contains(v))
            .map(|e| e.duration)
            .sum()
    }

    /// Truncates the schedule to total lifetime at most `limit`, splitting
    /// the entry that straddles the boundary.
    pub fn truncated(&self, limit: u64) -> Schedule {
        let mut out = Schedule::new();
        let mut left = limit;
        for e in &self.entries {
            if left == 0 {
                break;
            }
            let d = e.duration.min(left);
            out.push(e.set.clone(), d);
            left -= d;
        }
        out
    }

    /// Appends a step, merging it into the last entry when the active set
    /// is identical — the building block for slot-by-slot execution logs
    /// that should still read as `(set, duration)` blocks.
    pub fn push_merged(&mut self, set: NodeSet, duration: u64) {
        if duration == 0 {
            return;
        }
        if let Some(last) = self.entries.last_mut() {
            if last.set == set {
                last.duration += duration;
                return;
            }
        }
        self.entries.push(ScheduleEntry { set, duration });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, members: &[NodeId]) -> NodeSet {
        NodeSet::from_iter(n, members.iter().copied())
    }

    #[test]
    fn lifetime_sums_durations() {
        let s = Schedule::from_entries([(set(3, &[0]), 2), (set(3, &[1]), 3)]);
        assert_eq!(s.lifetime(), 5);
        assert_eq!(s.num_steps(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_duration_entries_dropped() {
        let s = Schedule::from_entries([(set(2, &[0]), 0), (set(2, &[1]), 1)]);
        assert_eq!(s.num_steps(), 1);
        let mut s2 = Schedule::new();
        s2.push(set(2, &[0]), 0);
        assert!(s2.is_empty());
    }

    #[test]
    fn active_set_lookup() {
        let s = Schedule::from_entries([(set(3, &[0]), 2), (set(3, &[1]), 1)]);
        assert!(s.active_set_at(0).unwrap().contains(0));
        assert!(s.active_set_at(1).unwrap().contains(0));
        assert!(s.active_set_at(2).unwrap().contains(1));
        assert!(s.active_set_at(3).is_none());
    }

    #[test]
    fn active_time_per_node() {
        let s =
            Schedule::from_entries([(set(3, &[0, 1]), 2), (set(3, &[1]), 3), (set(3, &[2]), 1)]);
        assert_eq!(s.active_time(0), 2);
        assert_eq!(s.active_time(1), 5);
        assert_eq!(s.active_time(2), 1);
    }

    #[test]
    fn push_merged_coalesces_identical_sets() {
        let mut s = Schedule::new();
        s.push_merged(set(3, &[0]), 2);
        s.push_merged(set(3, &[0]), 3);
        s.push_merged(set(3, &[1]), 1);
        s.push_merged(set(3, &[1]), 0); // no-op
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.entries()[0].duration, 5);
        assert_eq!(s.lifetime(), 6);
    }

    #[test]
    fn truncation_splits_entries() {
        let s = Schedule::from_entries([(set(2, &[0]), 4), (set(2, &[1]), 4)]);
        let t = s.truncated(5);
        assert_eq!(t.lifetime(), 5);
        assert_eq!(t.num_steps(), 2);
        assert_eq!(t.entries()[1].duration, 1);
        assert_eq!(s.truncated(0).lifetime(), 0);
        assert_eq!(s.truncated(100).lifetime(), 8);
    }
}
