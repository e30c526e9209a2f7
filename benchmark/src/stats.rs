//! Order statistics over raw samples.
//!
//! Percentiles here are exact (sort, then linear interpolation between
//! closest ranks), not histogram-bucketed: the regression bounds are a
//! few percent, narrower than a log-histogram bucket.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` (ascending), linearly
/// interpolated between the two closest ranks. 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` in place and returns the requested quantiles.
pub fn quantiles<const N: usize>(values: &mut [f64], qs: [f64; N]) -> [f64; N] {
    values.sort_by(f64::total_cmp);
    qs.map(|q| quantile_sorted(values, q))
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantiles(values, [0.5])[0]
}

/// Cuts `items` into `windows` consecutive chunks (the last may be
/// shorter), reduces each with `f`, and returns the median of the
/// results — a figure one bad stretch of the run cannot move.
pub fn median_of_windows<T>(items: &[T], windows: usize, f: impl Fn(&[T]) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let size = items.len().div_ceil(windows.max(1));
    median(&mut items.chunks(size).map(f).collect::<Vec<f64>>())
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, which the
/// repository's benchmark driver applies to run-to-run spreads. Needs at
/// least two values; a single value is returned for all three.
pub fn quartiles_exclusive(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    [1usize, 2, 3].map(|i| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        // The clamp can leave the position outside [j, j+1]; Python
        // extrapolates there and so does this.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    })
}

/// `a / b`, or 0 when `b` is 0 — for ratios of counters that a
/// bypassing workload leaves at zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random samples (no `rand` offline).
    fn samples(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 100_000) as f64 / 7.0
            })
            .collect()
    }

    /// The sorted-vector model: the definition of an interpolated
    /// quantile written the slow, obvious way.
    fn model_quantile(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let below = v[pos.floor() as usize];
        let above = v[pos.ceil() as usize];
        below + (above - below) * pos.fract()
    }

    #[test]
    fn quantiles_match_the_sorted_vector_model() {
        for (n, seed) in [(1, 3), (2, 5), (7, 11), (100, 13), (1001, 17)] {
            let data = samples(n, seed);
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                let got = quantiles(&mut data.clone(), [q])[0];
                let want = model_quantile(&data, q);
                assert!((got - want).abs() < 1e-9, "n={n} q={q}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn quantile_of_nothing_is_zero() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn exclusive_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&mut [1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&mut [16.0, 1.0, 8.0, 2.0, 4.0]),
            [1.5, 4.0, 12.0]
        );
    }

    #[test]
    fn one_bad_window_does_not_move_the_median_of_windows() {
        let mut data = vec![1.0; 600];
        let clean = median_of_windows(&data, 6, mean);
        for v in &mut data[200..300] {
            *v = 500.0;
        }
        assert_eq!(median_of_windows(&data, 6, mean), clean);
        assert!(mean(&data) > 80.0, "the plain mean is moved");
        // Uneven split: 7 items in 3 windows are chunks of 3, 3, 1.
        let sums = median_of_windows(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 9.0], 3, |w| w.iter().sum());
        assert_eq!(sums, 6.0);
        assert_eq!(median_of_windows(&[] as &[f64], 6, mean), 0.0);
    }

    #[test]
    fn median_is_the_middle_quartile() {
        for (n, seed) in [(3, 1), (10, 2), (11, 3)] {
            let data = samples(n, seed);
            let q = quartiles_exclusive(&mut data.clone());
            assert!((q[1] - median(&mut data.clone())).abs() < 1e-9);
        }
    }
}
