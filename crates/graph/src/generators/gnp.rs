//! Erdős–Rényi random graphs.

use crate::csr::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `G(n, p)`: each of the `n(n−1)/2` possible edges is present
/// independently with probability `p`.
///
/// Uses geometric skipping (Batagelj–Brandes) so the running time is
/// `O(n + m)` instead of `O(n²)`, which matters for sparse sweeps.
///
/// # Panics
/// Panics unless `0.0 <= p <= 1.0`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if p == 0.0 || n < 2 {
        return Graph::empty(n);
    }
    if p == 1.0 {
        return super::regular::complete(n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let lp = (1.0 - p).ln();
    // Walk the strictly-upper-triangular adjacency in row-major order,
    // jumping ahead by geometrically distributed gaps.
    let (mut v, mut w): (i64, i64) = (1, -1);
    let n_i = n as i64;
    while v < n_i {
        let r: f64 = rng.random();
        let lr = (1.0 - r).ln();
        w += 1 + (lr / lp).floor() as i64;
        while w >= v && v < n_i {
            w -= v;
            v += 1;
        }
        if v < n_i {
            edges.push((w as NodeId, v as NodeId));
        }
    }
    Graph::from_edges(n, &edges)
}

/// `G(n, p)` with `p` chosen so the *expected average degree* is `d`,
/// i.e. `p = d / (n − 1)` clamped to `[0, 1]`. Convenient for sweeps that
/// hold density constant while scaling `n`.
pub fn gnp_with_avg_degree(n: usize, d: f64, seed: u64) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    let p = (d / (n as f64 - 1.0)).clamp(0.0, 1.0);
    gnp(n, p, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
        assert_eq!(gnp(0, 0.5, 1).n(), 0);
        assert_eq!(gnp(1, 0.5, 1).m(), 0);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = gnp(100, 0.1, 42);
        let b = gnp(100, 0.1, 42);
        let c = gnp(100, 0.1, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400;
        let p = 0.05;
        let expected = p * (n * (n - 1) / 2) as f64;
        let mut total = 0.0;
        for seed in 0..10 {
            total += gnp(n, p, seed).m() as f64;
        }
        let mean = total / 10.0;
        // 10 trials of ~4000-edge binomials: mean within 5% w.o.p.
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn avg_degree_parameterization() {
        let g = gnp_with_avg_degree(500, 10.0, 3);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!((avg - 10.0).abs() < 2.0, "avg degree {avg}");
    }
}
