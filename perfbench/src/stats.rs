//! Order statistics over timing samples.

/// The median of `values` (mean of the middle pair for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that still has at least `beyond` samples
/// above it, with its nearest-rank value: `(percentile, value)`. With too
/// few samples for any such percentile the maximum is returned as
/// percentile 100.
pub fn tail(values: &[f64], beyond: usize) -> (u32, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return (100, 0.0);
    }
    // Nearest rank of percentile p is ceil(p * n / 100); it leaves
    // n - rank samples beyond it.
    (1..100u32)
        .rev()
        .map(|p| (p, (p as usize * n).div_ceil(100)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= beyond)
        .map_or((100, sorted[n - 1]), |(p, rank)| (p, sorted[rank - 1]))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&values, 10);
        assert_eq!((p, v), (90, 90.0));
        let beyond = values.iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10);

        let values: Vec<f64> = (1..=57).map(f64::from).collect();
        let (p, v) = tail(&values, 10);
        assert!(values.iter().filter(|&&x| x > v).count() >= 10);
        assert_eq!(p, 82);

        assert_eq!(tail(&[5.0, 1.0], 10), (100, 5.0));
    }
}
