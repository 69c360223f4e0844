//! Order statistics over latency samples and round values.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` (in `0..=1`) of the samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) / median`: how far the rounds of one run lie apart.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_by_hand() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_by_hand() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[10, 20, 30], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(percentile(&[5], 0.99), 5);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn spread_by_hand() {
        assert_eq!(spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(spread(&[]), 0.0);
    }
}
