//! Battery budgets and energy accounting.

use domatic_graph::{Graph, NodeId, NodeSet};

/// The per-node battery vector `b_v`: the maximum total time each node may
/// spend in a dominating set (paper §2; `b_v ∈ ℕ`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batteries {
    values: Vec<u64>,
}

impl Batteries {
    /// Uniform batteries `b_v = b` (the paper's §4 setting).
    pub fn uniform(n: usize, b: u64) -> Self {
        Batteries { values: vec![b; n] }
    }

    /// Arbitrary batteries (the paper's §5 setting).
    pub fn from_vec(values: Vec<u64>) -> Self {
        Batteries { values }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// `b_v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        self.values[v as usize]
    }

    /// The raw vector.
    pub fn as_slice(&self) -> &[u64] {
        &self.values
    }

    /// `b_max = max_v b_v` (0 for the empty graph).
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// `min_v b_v` (0 for the empty graph).
    pub fn min(&self) -> u64 {
        self.values.iter().copied().min().unwrap_or(0)
    }

    /// Whether all nodes have the same battery level.
    pub fn is_uniform(&self) -> bool {
        self.values.windows(2).all(|w| w[0] == w[1])
    }

    /// `τ_u = Σ_{v ∈ N⁺(u)} b_v`: the *energy coverage* of `u` — the total
    /// energy available to dominate `u` (Lemma 5.1).
    pub fn energy_coverage(&self, g: &Graph, u: NodeId) -> u64 {
        assert_eq!(g.n(), self.n(), "graph/battery size mismatch");
        let mut sum = self.get(u);
        for &w in g.neighbors(u) {
            sum += self.get(w);
        }
        sum
    }

    /// `τ = min_u τ_u`: the minimum energy coverage of the network —
    /// the upper bound on `L_OPT` of Lemma 5.1. `None` on the empty graph.
    pub fn min_energy_coverage(&self, g: &Graph) -> Option<u64> {
        (0..g.n() as NodeId)
            .map(|u| self.energy_coverage(g, u))
            .min()
    }

    /// Converts to `f64` (for the LP solver).
    pub fn to_f64(&self) -> Vec<f64> {
        self.values.iter().map(|&b| b as f64).collect()
    }
}

/// Mutable energy ledger: tracks how much active time each node has used
/// against its battery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnergyLedger {
    batteries: Batteries,
    used: Vec<u64>,
}

impl EnergyLedger {
    /// A fresh ledger with nothing spent.
    pub fn new(batteries: Batteries) -> Self {
        let n = batteries.n();
        EnergyLedger {
            batteries,
            used: vec![0; n],
        }
    }

    /// The underlying battery budgets.
    pub fn batteries(&self) -> &Batteries {
        &self.batteries
    }

    /// Active time already consumed by `v`.
    #[inline]
    pub fn used(&self, v: NodeId) -> u64 {
        self.used[v as usize]
    }

    /// Remaining budget of `v`.
    #[inline]
    pub fn remaining(&self, v: NodeId) -> u64 {
        self.batteries.get(v).saturating_sub(self.used(v))
    }

    /// Whether `v` can still serve for `duration` more time units.
    #[inline]
    pub fn can_serve(&self, v: NodeId, duration: u64) -> bool {
        self.remaining(v) >= duration
    }

    /// Charges every member of `set` for `duration` units.
    ///
    /// Returns `Err(v)` for the first over-budget node, in which case the
    /// ledger is left unchanged.
    pub fn charge(&mut self, set: &NodeSet, duration: u64) -> Result<(), NodeId> {
        if let Some(v) = set.iter().find(|&v| !self.can_serve(v, duration)) {
            return Err(v);
        }
        for v in set.iter() {
            self.used[v as usize] += duration;
        }
        Ok(())
    }

    /// Largest duration every member of `set` can still serve.
    pub fn max_duration(&self, set: &NodeSet) -> u64 {
        set.iter().map(|v| self.remaining(v)).min().unwrap_or(0)
    }

    /// The residual budgets as a fresh `Batteries` vector (what a replan
    /// over survivors hands to a solver).
    pub fn residual(&self) -> Batteries {
        let n = self.batteries.n();
        Batteries::from_vec((0..n as NodeId).map(|v| self.remaining(v)).collect())
    }

    /// Fraction of total battery energy consumed (0 on an all-zero budget).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.batteries.as_slice().iter().sum();
        if total == 0 {
            return 0.0;
        }
        let used: u64 = self.used.iter().sum();
        used as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::regular::{cycle, star};

    #[test]
    fn uniform_batteries() {
        let b = Batteries::uniform(4, 3);
        assert_eq!(b.n(), 4);
        assert_eq!(b.get(2), 3);
        assert_eq!(b.max(), 3);
        assert_eq!(b.min(), 3);
        assert!(b.is_uniform());
    }

    #[test]
    fn nonuniform_batteries() {
        let b = Batteries::from_vec(vec![1, 5, 2]);
        assert!(!b.is_uniform());
        assert_eq!(b.max(), 5);
        assert_eq!(b.min(), 1);
        assert_eq!(b.to_f64(), vec![1.0, 5.0, 2.0]);
    }

    #[test]
    fn energy_coverage_on_star() {
        let g = star(4); // center 0, leaves 1..3
        let b = Batteries::from_vec(vec![10, 1, 1, 1]);
        // Leaf 1: N⁺ = {1, 0} → 11. Center: N⁺ = everyone → 13.
        assert_eq!(b.energy_coverage(&g, 1), 11);
        assert_eq!(b.energy_coverage(&g, 0), 13);
        assert_eq!(b.min_energy_coverage(&g), Some(11));
    }

    #[test]
    fn min_energy_coverage_uniform_equals_lemma41_bound() {
        // Uniform b: τ = b(δ+1) where δ realizes the minimum.
        let g = cycle(6);
        let b = Batteries::uniform(6, 4);
        assert_eq!(b.min_energy_coverage(&g), Some(4 * 3));
    }

    #[test]
    fn ledger_charging() {
        let mut led = EnergyLedger::new(Batteries::uniform(3, 2));
        let s = NodeSet::from_iter(3, [0, 1]);
        assert!(led.can_serve(0, 2));
        led.charge(&s, 2).unwrap();
        assert_eq!(led.used(0), 2);
        assert_eq!(led.remaining(0), 0);
        assert_eq!(led.remaining(2), 2);
        // Over budget now.
        assert_eq!(led.charge(&s, 1), Err(0));
        // Failed charge left the ledger unchanged.
        assert_eq!(led.used(1), 2);
    }

    #[test]
    fn max_duration_is_bottleneck() {
        let mut led = EnergyLedger::new(Batteries::from_vec(vec![5, 2, 9]));
        let s = NodeSet::from_iter(3, [0, 1, 2]);
        assert_eq!(led.max_duration(&s), 2);
        led.charge(&s, 2).unwrap();
        assert_eq!(led.max_duration(&s), 0);
        assert_eq!(led.max_duration(&NodeSet::new(3)), 0);
    }

    #[test]
    fn residual_is_what_charges_leave() {
        let mut led = EnergyLedger::new(Batteries::from_vec(vec![3, 2, 2]));
        led.charge(&NodeSet::from_iter(3, [0, 1]), 2).unwrap();
        led.charge(&NodeSet::from_iter(3, [2]), 1).unwrap();
        assert_eq!(led.residual().as_slice(), &[1, 0, 1]);
    }

    #[test]
    fn utilization_is_the_spent_fraction() {
        let mut led = EnergyLedger::new(Batteries::from_vec(vec![1, 2]));
        led.charge(&NodeSet::from_iter(2, [0]), 1).unwrap();
        assert!((led.utilization() - 1.0 / 3.0).abs() < 1e-12);
        let empty = EnergyLedger::new(Batteries::from_vec(vec![0, 0]));
        assert_eq!(empty.utilization(), 0.0);
    }
}
