//! Sample statistics: percentiles by linear interpolation between the
//! closest ranks, and the rule for which percentiles a sample supports.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolating linearly
/// between the two closest ranks of the sorted values. `None` when there
/// are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Whether `n` samples leave at least ten beyond the `q`-quantile, the
/// least a tail percentile needs before it says more than its largest
/// few samples do.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&s, 0.25), Some(1.75));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_a_uniform_ramp() {
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.9), Some(90.0));
        assert_eq!(percentile(&ramp, 0.99), Some(99.0));
        assert_eq!(median(&ramp), Some(50.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
    }
}
