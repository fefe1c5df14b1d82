//! Medians and tail percentiles over small samples of host timings.

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty sample: every caller times at least one iteration.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Smallest and largest of a sample.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Nearest rank (1-based) of the `permille`-th quantile in `n` samples.
/// Integer arithmetic: `99.9 / 100.0 * 10_000.0` is not 9990 in f64.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank quantile (`permille` in 1..=1000) of an ascending sample.
fn percentile_sorted(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// The highest of p99.9 / p99 / p90 / p75 (in permille) that still has at
/// least ten samples beyond it in a sample of `n`; 500 (the median) when
/// even p75 lacks that support. A tail read off fewer than ten samples
/// is noise.
pub fn tail_permille(n: usize) -> usize {
    [999, 990, 900, 750]
        .into_iter()
        .find(|&pm| n > 0 && n - nearest_rank(n, pm) >= 10)
        .unwrap_or(500)
}

/// Nearest-rank quantile of an unsorted sample.
pub fn percentile(v: &[f64], permille: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&s, permille)
}

/// `(median, tail percentile chosen by [`tail_permille`] in percent, its
/// value)`.
pub fn median_and_tail(v: &[f64]) -> (f64, f64, f64) {
    let pm = tail_permille(v.len());
    (percentile(v, 500), pm as f64 / 10.0, percentile(v, pm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 500), 50.0);
        assert_eq!(percentile_sorted(&s, 990), 99.0);
        assert_eq!(percentile_sorted(&s, 1000), 100.0);
        assert_eq!(percentile_sorted(&[5.0], 990), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_percentile() {
        // p99 of 1000 samples has exactly ten beyond it; 999 has nine.
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 900);
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(99), 750);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(39), 500);
        assert_eq!(tail_permille(5), 500);
        assert_eq!(tail_permille(0), 500);
    }

    #[test]
    fn median_and_tail_reports_the_chosen_percentile() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (p50, pct, tail) = median_and_tail(&v);
        assert_eq!((p50, pct, tail), (100.0, 90.0, 180.0));
    }
}
