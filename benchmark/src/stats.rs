//! Exact statistics over recorded samples.
//!
//! Every timing quantile here is a nearest-rank order statistic of the
//! samples actually recorded. The telemetry crate's log2-bucket
//! histogram answers with a bucket's upper bound, which can be off by up
//! to 2× (see the tests) — far coarser than any regression bound.
//!
//! A phase reports a rate as the median of its window rates, and a
//! latency quantile over every sample of the phase.

/// 1-based nearest rank of quantile `p` among `n` samples: `⌈p·n⌉`,
/// at least 1. The epsilon keeps `0.9 · 10` at rank 9, not 10.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n.max(1))
}

/// Samples strictly above the nearest-rank `p` quantile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Whether quantile `p` of `n` samples has at least ten samples beyond
/// it — the rule for reporting a tail percentile.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// Nearest-rank quantile of `sorted` (ascending); `None` when empty.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Sorts in place (total order, NaN last) and returns the slice.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// The median as Python's `statistics.median` gives it: the middle
/// value, or the mean of the two middle values. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples in µs, kept as exact counts per distinct value at
/// 0.1 µs resolution: memory grows with the number of distinct values,
/// not with the number of requests, so a faster server does not make
/// the benchmark itself bigger.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    counts: std::collections::BTreeMap<u64, u64>,
    n: usize,
}

impl Latencies {
    /// Records one sample, µs.
    pub fn record(&mut self, us: f64) {
        *self
            .counts
            .entry((us * 10.0).round().max(0.0) as u64)
            .or_default() += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank quantile, µs; `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let r = rank(self.n, p) as u64;
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= r {
                return Some(v as f64 / 10.0);
            }
        }
        None
    }
}

/// Event counts per whole second of a phase.
#[derive(Clone, Debug, Default)]
pub struct Windows {
    counts: Vec<f64>,
}

impl Windows {
    /// Counts an event `offset_s` seconds into the phase.
    pub fn record(&mut self, offset_s: f64) {
        let w = offset_s.max(0.0) as usize;
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0.0);
        }
        self.counts[w] += 1.0;
    }

    /// Rates (events/s) of the whole windows of a phase lasting
    /// `span_s` seconds; a trailing partial window is dropped.
    pub fn rates(&self, span_s: f64) -> Vec<f64> {
        let mut r = self.counts.clone();
        r.resize(span_s.floor().max(0.0) as usize, 0.0);
        r
    }
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method, exactly as
/// Python's `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median — the spread the
/// regression bounds are calibrated against.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.99), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&w, 0.99), Some(990.0));
        assert_eq!(quantile(&w, 0.999), Some(999.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!reportable(999, 0.99), "rank 990 leaves 9 beyond");
        assert!(reportable(1000, 0.99));
        assert!(reportable(100, 0.9));
        assert!(!reportable(99, 0.9));
        assert!(reportable(20, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn log2_histogram_is_off_by_almost_2x_where_the_exact_rank_is_not() {
        // 99 samples just above a power of two plus one outlier: the
        // histogram reports the bucket's upper bound (2047), the exact
        // median is the sample itself.
        let h = domatic_telemetry::Histogram::new();
        let mut v = vec![1025.0; 99];
        v.push(3000.0);
        for &x in &v {
            h.record(x as u64);
        }
        let exact = quantile(sort(&mut v), 0.5).unwrap();
        assert_eq!(exact, 1025.0);
        let est = h.quantile(0.5) as f64;
        assert!(est / exact > 1.99, "histogram p50 {est} vs exact {exact}");
    }

    #[test]
    fn windows_drop_the_partial_window() {
        let mut w = Windows::default();
        for t in [0.1, 0.2, 0.9, 1.5, 2.2, 2.3, 2.4, 3.1] {
            w.record(t);
        }
        assert_eq!(w.rates(3.5), vec![3.0, 1.0, 3.0]);
        assert_eq!(median(&w.rates(3.5)), 3.0);
        assert_eq!(w.rates(5.0), vec![3.0, 1.0, 3.0, 1.0, 0.0]);
        assert!(w.rates(0.5).is_empty());
    }

    #[test]
    fn latency_counts_give_the_same_ranks_as_sorting() {
        let mut l = Latencies::default();
        let mut v = Vec::new();
        for i in 0..1000u32 {
            let x = f64::from((i * 7919) % 997) + 0.5;
            l.record(x);
            v.push(x);
        }
        sort(&mut v);
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(l.quantile(p), quantile(&v, p), "p{p}");
        }
        assert_eq!(l.len(), 1000);
        assert_eq!(Latencies::default().quantile(0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((rel_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
