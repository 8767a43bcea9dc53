//! The estimators every metric goes through: the percentile rule, medians
//! over equal blocks, quartiles as Python's `statistics.quantiles` gives
//! them, and the paired-ratio comparison of two configurations.

/// Samples a percentile needs beyond it before it is reported as asked.
pub const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median; `NaN` on an empty sample (a metric without samples must not
/// read as a fast one).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile by nearest rank, lowered to the highest quantile that
/// still has [`BEYOND`] samples above it. Returns the value and the
/// quantile actually used; a sample too small for any tail falls back to
/// the median.
pub fn percentile(xs: &[f64], q: f64) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, q);
    }
    if n <= 2 * BEYOND {
        return (median(xs), 0.5);
    }
    let asked = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = asked.min(n - 1 - BEYOND);
    (v[k], (k + 1) as f64 / n as f64)
}

/// `statistics.quantiles(values, n=4)` of Python (the exclusive method):
/// the three cut points the acceptance rule takes its spread from.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Median over blocks of `work ÷ seconds`: one neighbour burst moves one
/// block, not the result.
pub fn block_median_rate(blocks: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = blocks.iter().map(|&(work, secs)| work / secs).collect();
    median(&rates)
}

/// Median of the per-op ratios `change[i] ÷ base[i]` of two configurations
/// run over the same inputs.
pub fn paired_ratio(base: &[f64], change: &[f64]) -> f64 {
    let ratios: Vec<f64> =
        base.iter().zip(change).filter(|(b, _)| **b > 0.0).map(|(b, c)| c / b).collect();
    median(&ratios)
}

/// Max over mean of a set of sizes (1.0 = perfectly balanced).
pub fn balance(sizes: &[f64]) -> f64 {
    let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
    if mean > 0.0 {
        sizes.iter().copied().fold(0.0, f64::max) / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_asks_for_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), (950.0, 0.95));
        // 200 samples carry a p95 exactly (10 beyond) but no p99.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), (190.0, 0.95));
        assert_eq!(percentile(&xs, 0.99), (190.0, 0.95));
        // 40 samples: the "p95" is really a p75, and says so.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), (30.0, 0.75));
        // Too small for any tail: the median.
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), (6.5, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_median_ignores_one_slow_block() {
        let mut blocks = vec![(100.0, 1.0); 21];
        blocks[7] = (100.0, 30.0); // a neighbour burst
        assert_eq!(block_median_rate(&blocks), 100.0);
        let total: f64 = 2100.0 / blocks.iter().map(|b| b.1).sum::<f64>();
        assert!(total < 50.0, "the plain ratio would have halved");
    }

    #[test]
    fn paired_ratio_is_the_median_of_per_op_ratios() {
        let base = [10.0, 20.0, 40.0, 80.0, 1.0];
        let change = [5.0, 10.0, 20.0, 40.0, 100.0]; // one outlier pair
        assert_eq!(paired_ratio(&base, &change), 0.5);
        assert!(median(&[]).is_nan());
        assert_eq!(balance(&[2.0, 2.0]), 1.0);
        assert_eq!(balance(&[4.0, 0.0]), 2.0);
    }
}
