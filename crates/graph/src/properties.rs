//! Summary statistics of a graph, reported by the experiment harness
//! alongside each table so instances are auditable.

use crate::csr::Graph;

/// Degree statistics of a graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree `δ`.
    pub min: usize,
    /// Maximum degree `Δ`.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
}

/// Computes min/max/mean degree. Returns `None` for the node-less graph.
pub fn degree_stats(g: &Graph) -> Option<DegreeStats> {
    if g.n() == 0 {
        return None;
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    for v in g.nodes() {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    Some(DegreeStats {
        min,
        max,
        mean: 2.0 * g.m() as f64 / g.n() as f64,
    })
}

/// Edge density `m / (n choose 2)`; 0 for `n < 2`.
pub fn density(g: &Graph) -> f64 {
    if g.n() < 2 {
        return 0.0;
    }
    let max = g.n() * (g.n() - 1) / 2;
    g.m() as f64 / max as f64
}

/// A one-line description string for experiment-table headers.
pub fn describe(g: &Graph) -> String {
    match degree_stats(g) {
        Some(ds) => format!(
            "n={} m={} δ={} Δ={} avg={:.2}",
            g.n(),
            g.m(),
            ds.min,
            ds.max,
            ds.mean
        ),
        None => "n=0 m=0".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{complete, cycle, star};

    #[test]
    fn stats_of_cycle() {
        let s = degree_stats(&cycle(8)).unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_star() {
        let s = degree_stats(&star(5)).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(degree_stats(&Graph::empty(0)).is_none());
    }

    #[test]
    fn density_extremes() {
        assert!((density(&complete(6)) - 1.0).abs() < 1e-12);
        assert_eq!(density(&Graph::empty(10)), 0.0);
        assert_eq!(density(&Graph::empty(1)), 0.0);
    }

    #[test]
    fn describe_contains_counts() {
        let d = describe(&cycle(5));
        assert!(d.contains("n=5"));
        assert!(d.contains("m=5"));
        assert_eq!(describe(&Graph::empty(0)), "n=0 m=0");
    }
}
