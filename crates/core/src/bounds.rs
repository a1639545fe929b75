//! The paper's closed-form upper bounds on the optimal lifetime `L_OPT`,
//! plus Fact 2.1.
//!
//! These bounds are what the paper's approximation proofs compare against,
//! and what the experiment harness reports next to each measured lifetime
//! on instances too large for the exact LP.

use domatic_graph::Graph;
use domatic_schedule::Batteries;

/// Lemma 4.1 (uniform case): `L_OPT ≤ b (δ + 1)` where `δ` is the minimum
/// degree. A minimum-degree node must always be covered by its closed
/// neighborhood, which holds `(δ + 1) · b` total energy.
///
/// Returns 0 for the empty graph.
pub fn uniform_upper_bound(g: &Graph, b: u64) -> u64 {
    match g.min_degree() {
        Some(delta) => b * (delta as u64 + 1),
        None => 0,
    }
}

/// Lemma 5.1 (general case): `L_OPT ≤ min_u Σ_{v ∈ N⁺(u)} b_v` — the
/// minimum *energy coverage* `τ` over all nodes.
pub fn general_upper_bound(g: &Graph, batteries: &Batteries) -> u64 {
    batteries.min_energy_coverage(g).unwrap_or(0)
}

/// Lemma 6.1 (k-tolerant uniform case): `L_OPT ≤ b (δ + 1) / k` — a
/// minimum-degree node needs `k` simultaneous dominators, so its
/// neighborhood energy depletes `k` times faster.
///
/// Returns the floor of the bound (the paper's schedules are integral).
pub fn fault_tolerant_upper_bound(g: &Graph, b: u64, k: usize) -> u64 {
    assert!(k >= 1, "tolerance k must be at least 1");
    uniform_upper_bound(g, b) / k as u64
}

/// Fact 2.1, upper half: `(1 − t/n)^n ≤ e^{−t}` for `n ≥ 1`, `t ∈ [0, n]`.
pub fn fact_2_1_upper(n: f64, t: f64) -> bool {
    debug_assert!(n >= 1.0 && (0.0..=n).contains(&t));
    (1.0 - t / n).powf(n) <= (-t).exp() + 1e-12
}

/// Fact 2.1, lower half: `e^{−t}(1 − t²/n) ≤ (1 − t/n)^n`.
pub fn fact_2_1_lower(n: f64, t: f64) -> bool {
    debug_assert!(n >= 1.0 && (0.0..=n).contains(&t));
    (-t).exp() * (1.0 - t * t / n) <= (1.0 - t / n).powf(n) + 1e-12
}

/// `ln n`, clamped below at 1 so color-range formulas stay well-defined on
/// tiny graphs (`n ≤ 2`). Every algorithm in this crate divides by
/// `c · ln n`; for `n = 1, 2` the theory degenerates anyway (a single
/// color class is optimal up to constants).
pub fn ln_n(n: usize) -> f64 {
    (n.max(1) as f64).ln().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::regular::{complete, cycle, star};

    #[test]
    fn lemma_4_1_on_cycle() {
        // C_n: δ = 2 → bound = 3b.
        assert_eq!(uniform_upper_bound(&cycle(10), 4), 12);
    }

    #[test]
    fn lemma_4_1_on_star_is_leaf_limited() {
        // Star: δ = 1 (leaves) → bound = 2b, regardless of size.
        assert_eq!(uniform_upper_bound(&star(100), 5), 10);
        assert_eq!(uniform_upper_bound(&Graph::empty(0), 5), 0);
    }

    #[test]
    fn lemma_5_1_matches_uniform_when_batteries_equal() {
        let g = cycle(8);
        let b = Batteries::uniform(8, 3);
        assert_eq!(general_upper_bound(&g, &b), uniform_upper_bound(&g, 3));
    }

    #[test]
    fn lemma_5_1_finds_energy_poor_neighborhood() {
        // Star where the center is rich but leaves are poor: a leaf's
        // closed neighborhood is {leaf, center}.
        let g = star(4);
        let b = Batteries::from_vec(vec![100, 1, 1, 1]);
        assert_eq!(general_upper_bound(&g, &b), 101);
        // Poor center starves everyone.
        let b2 = Batteries::from_vec(vec![1, 2, 2, 2]);
        assert_eq!(general_upper_bound(&g, &b2), 3);
    }

    #[test]
    fn lemma_6_1_divides_by_k() {
        let g = complete(6); // δ = 5 → uniform bound 6b
        assert_eq!(fault_tolerant_upper_bound(&g, 4, 1), 24);
        assert_eq!(fault_tolerant_upper_bound(&g, 4, 2), 12);
        assert_eq!(fault_tolerant_upper_bound(&g, 4, 5), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn lemma_6_1_rejects_k0() {
        fault_tolerant_upper_bound(&cycle(4), 1, 0);
    }

    #[test]
    fn fact_2_1_holds_on_a_grid_of_parameters() {
        for n in [1.0, 2.0, 5.0, 10.0, 100.0, 1e4] {
            for frac in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
                let t = frac * n;
                assert!(fact_2_1_upper(n, t), "upper n={n} t={t}");
                assert!(fact_2_1_lower(n, t), "lower n={n} t={t}");
            }
        }
    }

    #[test]
    fn ln_n_clamps() {
        assert_eq!(ln_n(0), 1.0);
        assert_eq!(ln_n(1), 1.0);
        assert_eq!(ln_n(2), 1.0);
        assert!((ln_n(100) - (100f64).ln()).abs() < 1e-12);
    }

    use domatic_graph::Graph;
}
