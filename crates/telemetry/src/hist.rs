//! Log-bucketed latency histograms (HDR-style).
//!
//! Durations land in geometrically-growing buckets: 8 buckets per
//! doubling (growth factor 2^(1/8) ≈ 1.09), so any quantile estimate is
//! within ~9% of the true value while the whole histogram is a fixed
//! 256-slot array — mergeable across rooms and runs by adding counts.
//! The covered range is 1 µs to ~50 minutes, far beyond any per-frame
//! stage; values outside saturate into the edge buckets and the exact
//! `min`/`max` fields keep the tails honest.

/// Number of buckets. Fixed so merge is index-wise addition.
pub const BUCKETS: usize = 256;

/// Sub-bucket resolution: buckets per doubling of the value.
pub const BUCKETS_PER_DOUBLING: f64 = 8.0;

/// Lower bound of bucket 1, ms. Bucket 0 collects everything at or
/// below this (including the exact zeros that cache hits produce).
pub const MIN_TRACKED_MS: f64 = 1e-3;

/// A mergeable log-bucketed histogram of millisecond durations.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            total: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }

    /// The bucket a value lands in.
    pub fn bucket_index(value_ms: f64) -> usize {
        if value_ms.is_nan() || value_ms <= MIN_TRACKED_MS {
            // NaN and everything ≤ 1 µs share the floor bucket.
            return 0;
        }
        let idx = 1.0 + ((value_ms / MIN_TRACKED_MS).log2() * BUCKETS_PER_DOUBLING).floor();
        idx.clamp(1.0, (BUCKETS - 1) as f64) as usize
    }

    /// Inclusive upper edge of a bucket, ms.
    pub fn bucket_upper_ms(index: usize) -> f64 {
        if index == 0 {
            return MIN_TRACKED_MS;
        }
        MIN_TRACKED_MS * (index as f64 / BUCKETS_PER_DOUBLING).exp2()
    }

    /// Exclusive lower edge of a bucket, ms (bucket 0 starts at 0).
    pub fn bucket_lower_ms(index: usize) -> f64 {
        if index == 0 {
            return 0.0;
        }
        Self::bucket_upper_ms(index - 1)
    }

    /// Records one duration. Non-finite values count into the floor
    /// bucket but are excluded from `sum`/`min`/`max` so aggregates
    /// stay finite.
    pub fn record(&mut self, value_ms: f64) {
        self.counts[Self::bucket_index(value_ms)] += 1;
        self.total += 1;
        if value_ms.is_finite() {
            self.sum_ms += value_ms;
            self.min_ms = self.min_ms.min(value_ms);
            self.max_ms = self.max_ms.max(value_ms);
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all finite recorded values, ms.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Smallest finite value recorded, ms (0.0 when empty).
    pub fn min_ms(&self) -> f64 {
        if self.min_ms.is_finite() {
            self.min_ms
        } else {
            0.0
        }
    }

    /// Largest finite value recorded, ms (0.0 when empty).
    pub fn max_ms(&self) -> f64 {
        if self.max_ms.is_finite() {
            self.max_ms
        } else {
            0.0
        }
    }

    /// Raw bucket counts (index-aligned with the edge functions).
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper edge of
    /// the bucket holding the q-th sample, clamped into the observed
    /// `[min, max]` so estimates never exceed a real value's ~9% bucket
    /// error. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_ms(i).clamp(self.min_ms(), self.max_ms());
            }
        }
        self.max_ms()
    }

    /// Adds `other`'s samples into `self`. Counts are conserved
    /// exactly; `sum` merges by addition (floating-point, so merge
    /// order can shift the last bits of the mean but never the counts
    /// or quantile buckets).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
        self.min_ms = self.min_ms.min(other.min_ms);
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
        assert_eq!(h.sum_ms(), 0.0);
    }

    #[test]
    fn bucket_edges_bracket_values() {
        for v in [0.0, 1e-4, 0.01, 0.5, 2.5, 16.7, 100.0, 5000.0] {
            let i = LogHistogram::bucket_index(v);
            assert!(v <= LogHistogram::bucket_upper_ms(i) + 1e-12, "v={v} i={i}");
            assert!(v >= LogHistogram::bucket_lower_ms(i) - 1e-12, "v={v} i={i}");
        }
    }

    #[test]
    fn quantile_error_is_bounded_by_growth_factor() {
        let mut h = LogHistogram::new();
        for i in 0..1000 {
            h.record(1.0 + i as f64 * 0.015); // 1.0 .. 16.0 ms
        }
        let p50 = h.quantile(0.5);
        let true_p50 = 1.0 + 499.0 * 0.015;
        assert!(
            (p50 / true_p50 - 1.0).abs() < 0.10,
            "p50 {p50:.3} vs {true_p50:.3}"
        );
        let p99 = h.quantile(0.99);
        assert!(p99 <= h.max_ms() && p99 >= p50);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record(7.3);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.3);
        }
        assert_eq!(h.sum_ms(), 7.3);
    }

    #[test]
    fn zeros_land_in_floor_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(0.0);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_conserves_counts_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..50 {
            a.record(i as f64 * 0.3);
            b.record(100.0 + i as f64);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 100);
        assert_eq!(m.min_ms(), a.min_ms());
        assert_eq!(m.max_ms(), b.max_ms());
        let direct: u64 = m.counts().iter().sum();
        assert_eq!(direct, 100);
    }

    #[test]
    fn non_finite_values_do_not_poison_aggregates() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 3);
        assert!(h.sum_ms().is_finite());
        assert_eq!(h.max_ms(), 2.0);
    }
}
