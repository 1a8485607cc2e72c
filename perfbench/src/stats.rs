//! Order statistics over per-request samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it. `0.0` for an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q`
/// percentile's position: a tail percentile rests on real data only when
/// at least ten do, so each run reports this count for its p95.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// Sorts a copy of the samples ascending.
pub fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = samples.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_and_mean_ignore_order() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean([1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }
}
