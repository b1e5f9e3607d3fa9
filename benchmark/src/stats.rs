//! Order statistics for the report: median, quartiles, and the rule for
//! which tail percentile a sample is large enough to support.

/// Sorted copy of `v` (NaNs are a bug upstream and sort last).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    s
}

/// Linear interpolation at 1-based fractional rank `pos` of sorted `s`,
/// clamped to the ends.
fn at_rank(s: &[f64], pos: f64) -> f64 {
    let n = s.len();
    let pos = pos.clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        s[n - 1]
    } else {
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    at_rank(&s, (s.len() as f64 + 1.0) / 2.0)
}

/// First quartile, median and third quartile, cut where Python's
/// `statistics.quantiles(v, n=4)` cuts (rank `i·(n+1)/4`). A sample of
/// one reports its value three times.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let s = sorted(v);
    let m = s.len() as f64 + 1.0;
    (
        at_rank(&s, m / 4.0),
        at_rank(&s, m / 2.0),
        at_rank(&s, 3.0 * m / 4.0),
    )
}

/// Percentiles above the median the report may print, highest first,
/// in tenths of a per cent (whole numbers: the count of samples beyond a
/// percentile must not depend on floating-point rounding).
const TAIL_LADDER_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of the ladder with at least ten samples lying
/// beyond it, and its value; `None` when even p75 has fewer (n < 40).
pub fn supported_tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    // Nearest rank: the smallest value with at least p % of the sample
    // at or below it.
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1_000).max(1);
    let per_mille = TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| n >= rank(pm) + 10)?;
    Some((per_mille as f64 / 10.0, sorted(v)[rank(per_mille) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // Two points clamp to the ends, as Python does.
        assert_eq!(quartiles(&[10.0, 20.0]), (10.0, 15.0, 20.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&sample(5)), None);
        assert_eq!(supported_tail(&sample(39)), None);
        // 40 samples: exactly ten lie beyond p75.
        assert_eq!(supported_tail(&sample(40)), Some((75.0, 30.0)));
        // 100 samples support p90 (ten beyond) but not p95 (five beyond).
        assert_eq!(supported_tail(&sample(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&sample(200)), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&sample(1_000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&sample(10_000)), Some((99.9, 9_990.0)));
    }
}
