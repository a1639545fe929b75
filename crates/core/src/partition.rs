//! Color assignments and disjoint dominating families, and how they become
//! schedules.
//!
//! All three of the paper's algorithms produce a *coloring* of the nodes;
//! the color classes are interpreted as a (hoped-for) domatic partition and
//! activated consecutively. This module holds the shared machinery.

use domatic_graph::{NodeId, NodeSet};
use domatic_schedule::Schedule;

/// A coloring of the nodes produced by a randomized partition algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorAssignment {
    /// `colors[v]` is node v's chosen color.
    pub colors: Vec<u32>,
    /// Total number of classes (`max color + 1`, or 0 when empty).
    pub num_classes: u32,
    /// How many leading classes the analysis guarantees to dominate w.h.p.
    /// (classes `0 .. guaranteed_classes`).
    pub guaranteed_classes: u32,
}

impl ColorAssignment {
    /// Materializes the color classes as node sets, indexed by color.
    pub fn classes(&self, n: usize) -> Vec<NodeSet> {
        let mut out = vec![NodeSet::new(n); self.num_classes as usize];
        for (v, &c) in self.colors.iter().enumerate() {
            out[c as usize].insert(v as NodeId);
        }
        out
    }

    /// The single class with the given color.
    pub fn class(&self, n: usize, color: u32) -> NodeSet {
        NodeSet::from_iter(
            n,
            self.colors
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == color)
                .map(|(v, _)| v as NodeId),
        )
    }
}

/// Activates `classes` consecutively, giving each class the same fixed
/// `duration` — the schedule shape of Algorithm 1 (`duration = b`) and
/// Algorithm 2 (`duration = 1`).
pub fn schedule_fixed_duration(classes: &[NodeSet], duration: u64) -> Schedule {
    Schedule::from_entries(classes.iter().map(|c| (c.clone(), duration)))
}

/// Checks that `classes` are pairwise disjoint (a partition *prefix*; not
/// every node must be used).
pub fn are_disjoint(classes: &[NodeSet]) -> bool {
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            if !a.is_disjoint(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_materialization() {
        let ca = ColorAssignment {
            colors: vec![0, 1, 0, 2],
            num_classes: 3,
            guaranteed_classes: 2,
        };
        let cls = ca.classes(4);
        assert_eq!(cls.len(), 3);
        assert_eq!(cls[0].to_vec(), vec![0, 2]);
        assert_eq!(cls[1].to_vec(), vec![1]);
        assert_eq!(cls[2].to_vec(), vec![3]);
        assert_eq!(ca.class(4, 0).to_vec(), vec![0, 2]);
        assert!(are_disjoint(&cls));
    }

    #[test]
    fn fixed_duration_schedule() {
        let classes = vec![NodeSet::from_iter(3, [0]), NodeSet::from_iter(3, [1, 2])];
        let s = schedule_fixed_duration(&classes, 4);
        assert_eq!(s.lifetime(), 8);
        assert_eq!(s.num_steps(), 2);
    }

    #[test]
    fn disjointness_detects_overlap() {
        let a = NodeSet::from_iter(3, [0, 1]);
        let b = NodeSet::from_iter(3, [1, 2]);
        assert!(!are_disjoint(&[a.clone(), b]));
        assert!(are_disjoint(&[a]));
        assert!(are_disjoint(&[]));
    }
}
