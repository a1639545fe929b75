//! Fixed log-bucket histograms: lock-free recording, coarse quantiles.
//!
//! Values are `u64` (callers pick the unit: nanoseconds, rounds, milli-
//! joules). Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i)`. That gives ≤ 2× relative quantile error — plenty
//! for the order-of-magnitude questions the experiments ask (is the p99
//! round time 1µs or 1ms?) — with a constant 65-slot footprint and a
//! single relaxed atomic increment per record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// The canonical latency bucket layout, shared by the Prometheus
/// exposition and the server's labeled request/solve histograms:
/// power-of-two microsecond upper bounds from 1µs to ~16.8s (2^24µs).
/// Using one layout everywhere makes scrapes of different servers and
/// `domatic top` windows directly comparable, bucket for bucket.
pub fn default_latency_buckets_us() -> Vec<u64> {
    (0..=24).map(|i| 1u64 << i).collect()
}

/// A concurrent log-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `⌊log₂ v⌋ + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the quantile estimate returned
/// for values landing there).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A new empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (relaxed atomics; pure tally).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps on overflow, like any u64 tally).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact, unlike the quantiles).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Quantile estimate: upper bound of the bucket where the cumulative
    /// count first reaches `q · count`. `q` is clamped to [0, 1].
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The top bucket's bound is the observed max, which is
                // tighter than 2^63.
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Clears all buckets and tallies.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Immutable summary for snapshots.
    pub fn summarize(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// A concurrent histogram with *explicit* ascending bucket upper bounds
/// (inclusive, Prometheus `le` semantics) plus one overflow (`+Inf`)
/// bucket. Unlike [`Histogram`]'s fixed log-2 layout, the caller picks
/// the bounds — which is what lets every exposition surface (the
/// `metrics` op, the `--metrics-port` scrape, `domatic top`) share one
/// bucket layout and stay directly comparable.
#[derive(Debug)]
pub struct BucketHistogram {
    bounds: Arc<[u64]>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl BucketHistogram {
    /// A histogram over `bounds`, which must be strictly ascending and
    /// non-empty.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "bucket bounds must be non-empty");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        BucketHistogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The configured finite upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Records one observation into the first bucket whose bound holds
    /// it (relaxed atomics; pure tally).
    pub fn record(&self, value: u64) {
        let i = self.bounds.partition_point(|&b| b < value);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps on overflow, like any u64 tally).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Clears all buckets and tallies.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Immutable per-bucket summary for snapshots. Concurrent recording
    /// may tear count vs bucket tallies by a few observations, exactly
    /// like [`Histogram::summarize`] — snapshots are statistical, not
    /// transactional.
    pub fn summarize(&self) -> BucketSummary {
        BucketSummary {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time state of a [`BucketHistogram`]: per-bucket (NOT
/// cumulative) counts, with the overflow bucket last.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BucketSummary {
    /// Finite inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the
    /// last being the overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl BucketSummary {
    /// Quantile estimate: the upper bound of the bucket where the
    /// cumulative count first reaches `q · count`. Observations in the
    /// overflow bucket saturate to the top finite bound. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds[i.min(self.bounds.len() - 1)];
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }

    /// The summary of everything recorded since `prev` (elementwise
    /// saturating subtraction) — the bucket-level half of
    /// [`crate::Snapshot::delta`]. Summaries over different bounds
    /// cannot be compared; `self` is returned unchanged then.
    pub fn delta(&self, prev: &BucketSummary) -> BucketSummary {
        if self.bounds != prev.bounds || self.counts.len() != prev.counts.len() {
            return self.clone();
        }
        BucketSummary {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&prev.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (≤ 2× relative error).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 rank 50 → bucket [32,63] → bound 63; ≤ 2× the true 50.
        let p50 = h.quantile(0.5);
        assert!((50..=63).contains(&p50), "{p50}");
        // p99 rank 99 → bucket [64,127] capped at max 100.
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    fn bucket_histogram_places_values_inclusively() {
        let h = BucketHistogram::new(&[10, 100, 1000]);
        h.record(0); // ≤ 10
        h.record(10); // ≤ 10 (inclusive le)
        h.record(11); // ≤ 100
        h.record(1000); // ≤ 1000
        h.record(5000); // overflow
        let s = h.summarize();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 6021);
    }

    #[test]
    fn bucket_summary_quantiles_and_delta() {
        let h = BucketHistogram::new(&[1, 2, 4, 8]);
        for v in [1u64, 1, 2, 3, 8] {
            h.record(v);
        }
        let a = h.summarize();
        assert_eq!(a.quantile(0.5), 2, "rank 3 of 5 lands in le=2");
        assert_eq!(a.quantile(1.0), 8);
        h.record(100); // overflow saturates to the top finite bound
        let b = h.summarize();
        assert_eq!(b.quantile(1.0), 8);
        let d = b.delta(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 100);
        assert_eq!(d.counts, vec![0, 0, 0, 0, 1]);
        // Mismatched layouts cannot be subtracted.
        let other = BucketHistogram::new(&[5]).summarize();
        assert_eq!(b.delta(&other), b);
    }

    #[test]
    fn default_latency_layout_is_shared_and_ascending() {
        let bounds = default_latency_buckets_us();
        assert_eq!(bounds.first(), Some(&1));
        assert_eq!(bounds.last(), Some(&(1 << 24)));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_bucket_summary_is_zeroes() {
        let s = BucketHistogram::new(&[1, 2]).summarize();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.count, 0);
    }
}
