//! Order statistics over measured samples.

/// Smallest number of samples that must lie beyond a reported tail
/// percentile; with fewer, the sample does not support that percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `q`-percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// The `q`-percentile of ascending `sorted` when at least
/// [`MIN_BEYOND_TAIL`] samples lie above its rank, else `None`.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_BEYOND_TAIL).then(|| sorted[r - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 199 samples has rank 190, so only 9 lie beyond it.
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&s, 0.95), None);
        // With 200 samples exactly 10 lie beyond rank 190.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s, 0.95), Some(190.0));
        // No sample of a handful of passes supports any tail.
        for n in 0..=10 {
            let s: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail(&s, 0.5), None, "n = {n}");
        }
    }

    #[test]
    fn tail_never_reports_with_fewer_than_ten_beyond() {
        for n in 1..400usize {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.95, 0.99] {
                if let Some(v) = tail(&s, q) {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND_TAIL, "n {n} q {q}: {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
