//! Statistics helpers: empirical CDFs and summaries.
//!
//! Every similarity experiment in the paper reports a CDF over SSIM
//! values (Figures 1, 2, 7) or the fraction exceeding the 0.9 quality
//! threshold. [`Cdf`] provides both views.

use std::fmt;

/// An empirical cumulative distribution over a sample of values.
///
/// ```
/// use coterie_frame::Cdf;
/// let cdf = Cdf::from_samples(vec![0.1, 0.5, 0.9, 0.95]);
/// assert_eq!(cdf.fraction_above(0.9), 0.25); // strictly above
/// assert_eq!(cdf.fraction_at_least(0.9), 0.5);
/// assert_eq!(cdf.quantile(0.5), 0.9); // nearest-rank median
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from samples. Non-finite samples are dropped.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Cdf { sorted }
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `P(X <= x)`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P(X > x)`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// `P(X >= x)`.
    pub fn fraction_at_least(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by nearest-rank on the sorted
    /// samples. Returns 0.0 for an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }

    /// Summary statistics of the sample.
    pub fn summary(&self) -> Summary {
        Summary::from_sorted(&self.sorted)
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

/// Summary statistics (count, mean, min/median/max, standard deviation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Sample standard deviation (0.0 when fewer than 2 samples).
    pub std_dev: f64,
    /// Minimum (0.0 when empty).
    pub min: f64,
    /// Median (0.0 when empty).
    pub median: f64,
    /// Maximum (0.0 when empty).
    pub max: f64,
}

impl Summary {
    /// Computes a summary from unsorted samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Summary {
        Cdf::from_samples(samples).summary()
    }

    fn from_sorted(sorted: &[f64]) -> Summary {
        let count = sorted.len();
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: sorted[count / 2],
            max: sorted[count - 1],
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} med={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_quantiles() {
        let cdf = Cdf::from_samples(vec![0.2, 0.4, 0.6, 0.8, 1.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.fraction_at_most(0.4), 0.4);
        assert_eq!(cdf.fraction_above(0.4), 0.6);
        assert_eq!(cdf.fraction_at_least(0.4), 0.8);
        assert_eq!(cdf.quantile(0.0), 0.2);
        assert_eq!(cdf.quantile(1.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 0.6);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_above(0.5), 1.0 - 0.0);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.quantile(0.5), 0.0);
        assert_eq!(cdf.summary().count, 0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let cdf = Cdf::from_samples(vec![f64::NAN, 0.5, f64::INFINITY, 0.7]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::from_samples(vec![0.42]);
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn summary_display_nonempty() {
        let s = Summary::from_samples(vec![1.0]);
        assert!(format!("{s}").contains("n=1"));
    }

    #[test]
    fn paper_style_threshold_query() {
        // "percentage of BE frames that exhibit an SSIM value larger than
        // 0.90" — the Figure 1 y-axis reading.
        let samples: Vec<f64> = (0..1000)
            .map(|i| 0.85 + 0.10 * (i as f64 / 1000.0))
            .collect();
        let cdf = Cdf::from_samples(samples);
        let above = cdf.fraction_above(0.90);
        assert!((above - 0.5).abs() < 0.01, "{above}");
    }
}
