//! Descriptive statistics used throughout the evaluation.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation. Returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Coefficient of variation (standard deviation over mean) — the paper's
/// dispersion measure for both the fairness gate (Section III-B) and the
/// fairness metric (Eqn 4).
///
/// Degenerate inputs report zero dispersion rather than poisoning
/// downstream fairness scores: empty slices, single samples, an all-zero
/// (or otherwise zero-mean) sample, and samples containing non-finite
/// values all return 0.0 — never NaN or an infinity.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    // `m == 0.0` alone would let NaN (from a NaN sample) or a mean of ±inf
    // flow into the division; require a nonzero finite mean instead.
    if !m.is_finite() || m == 0.0 {
        return 0.0;
    }
    let cv = std_dev(xs) / m;
    if cv.is_finite() {
        cv
    } else {
        0.0
    }
}

/// Geometric mean. Returns 0.0 for an empty slice; requires positive inputs.
///
/// # Panics
/// Panics if any input is not positive.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarise a sample. Returns the default (all zeros) for empty input.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        Summary {
            n: xs.len(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            mean: mean(xs),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std_dev: std_dev(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        // Population std of {2,4,4,4,5,5,7,9} is 2.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_is_scale_invariant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0];
        assert!((coefficient_of_variation(&xs) - coefficient_of_variation(&ys)).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn cv_degenerate_inputs_report_zero_dispersion() {
        // Regression (ISSUE 1 satellite): these used to be able to produce
        // NaN or an infinity, which then poisoned fairness scores.
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[4.2]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[f64::NAN, 1.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[f64::INFINITY, 1.0]), 0.0);
        // A zero mean from cancellation, not just all-zero input.
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]), 0.0);
        assert!(coefficient_of_variation(&[1.0, 2.0, f64::MAX]).is_finite());
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert!(s.std_dev > 0.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }
}
