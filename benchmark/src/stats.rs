//! Order statistics: the median, the tail-percentile rule, and the
//! quartile spread the acceptance driver computes.

/// Sorts a sample set ascending (NaN-free by construction: every sample
/// is a measured duration or rate).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an ascending, non-empty slice (mean of the two middle
/// samples when the count is even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted, non-empty sample set.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// The lower decile (nearest rank) of a non-empty sample set: the value a
/// quiet stretch of the run produces. On a shared box interference is
/// one-sided — a co-tenant's burst makes a unit of work slower, never
/// faster — so across runs the lower decile of unit times holds still
/// where their median wanders (measured on `hydro_direct` episodes, ten
/// runs: quartile spread of the medians 7.0 %, of the lower deciles 3.3 %).
/// E15 takes the fastest iteration for the same reason; the decile keeps
/// that steadiness without resting on one sample.
pub fn low_decile(samples: &[f64]) -> f64 {
    let sorted = sorted(samples.to_vec());
    sorted[sorted.len().div_ceil(10) - 1]
}

/// The median of each block of `block` consecutive samples (a trailing
/// partial block is dropped unless it is the only one).
pub fn block_medians(samples: &[f64], block: usize) -> Vec<f64> {
    let whole = samples.len() / block * block;
    let used = if whole == 0 {
        samples
    } else {
        &samples[..whole]
    };
    used.chunks(block).map(median_of).collect()
}

/// Percentiles a tail may be reported at, ascending, in hundredths of a
/// percent so ranks are exact integers (0.999 × 20 000 is not, in f64).
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The tail rule: the highest ladder percentile (nearest rank) that still
/// has at least ten samples beyond it. Returns `(percentile, value)`. Below twenty
/// samples not even the median qualifies; it is returned anyway and the
/// sample count printed beside it says how little it means.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as u64;
    let rank = |p: u64| (n * p).div_ceil(10_000).clamp(1, n);
    let chosen = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(LADDER[0]);
    (chosen as f64 / 100.0, sorted[rank(chosen) as usize - 1])
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the number
/// the acceptance driver holds against each bound. `None` under two
/// samples or for a zero median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let data = sorted(samples.to_vec());
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let mid = median(&data);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 999 samples: p99 leaves 9 beyond, so the rule falls to p90.
        assert_eq!(tail(&ramp(999)).0, 90.0);
        // 300 deposits: p90 (30 beyond), not p99 (3 beyond).
        assert_eq!(tail(&ramp(300)), (90.0, 270.0));
        // 20 000 calls: p99.9 leaves 20 beyond, p99.99 leaves 2.
        assert_eq!(tail(&ramp(20_000)), (99.9, 19_980.0));
        // 100 000: p99.99 leaves exactly 10.
        assert_eq!(tail(&ramp(100_000)).0, 99.99);
        // Too few for anything: the median, flagged by its n.
        assert_eq!(tail(&ramp(5)), (50.0, 3.0));
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
    }

    #[test]
    fn low_decile_and_block_medians() {
        assert_eq!(low_decile(&ramp(10)), 1.0);
        assert_eq!(low_decile(&ramp(11)), 2.0);
        assert_eq!(low_decile(&ramp(100)), 10.0);
        assert_eq!(low_decile(&[5.0]), 5.0);
        // Two whole blocks of three; the trailing 7 is dropped.
        assert_eq!(
            block_medians(&[3.0, 1.0, 2.0, 6.0, 4.0, 5.0, 7.0], 3),
            vec![2.0, 5.0]
        );
        // Fewer samples than one block: the one partial block counts.
        assert_eq!(block_medians(&[4.0, 2.0], 3), vec![3.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median(&ramp(1)), 1.0);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = spread(&[40.0, 10.0, 20.0]).unwrap();
        assert!((s - 30.0 / 20.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
