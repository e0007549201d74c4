//! The paper's fairness metric (Eqn 4) and alternatives.
//!
//! "For a workload with n benchmarks: `Fairness = 1 − Σ cv_i / n` where
//! `cv_i` is the coefficient of variation of homogeneous threads' execution
//! time in benchmark i. In an ideal fair system … maximum Fairness is 1."
//!
//! The prior-work alternative — maximum slowdown over minimum slowdown
//! [8, 13] — is also provided, both to compare against and because the
//! paper argues it "fails to address fairness completely"; a test in this
//! module demonstrates the pathology the paper describes (it ignores every
//! thread but the best and worst).

use crate::stats::coefficient_of_variation;

/// Per-app thread runtimes for one workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeMatrix {
    /// `runtimes[i]` = execution times (seconds) of app *i*'s threads.
    pub per_app: Vec<Vec<f64>>,
}

impl RuntimeMatrix {
    /// Build from per-app runtime vectors.
    pub fn new(per_app: Vec<Vec<f64>>) -> Self {
        RuntimeMatrix { per_app }
    }

    /// The paper's fairness (Eqn 4): `1 − mean_i cv_i`.
    ///
    /// Apps with fewer than two threads (or zero-mean runtimes) contribute
    /// zero dispersion, so a workload of such apps scores a perfect 1.0.
    /// Returns 1.0 for an empty matrix (nothing was unfair). The result is
    /// always finite: degenerate per-app samples are clamped to zero
    /// dispersion by [`coefficient_of_variation`] rather than surfacing as
    /// NaN or −inf.
    pub fn fairness(&self) -> f64 {
        if self.per_app.is_empty() {
            return 1.0;
        }
        let cv_sum: f64 = self
            .per_app
            .iter()
            .map(|ts| {
                let cv = coefficient_of_variation(ts);
                // Belt and braces: even if the dispersion measure changes,
                // one pathological app must not wipe out the whole score.
                if cv.is_finite() {
                    cv
                } else {
                    0.0
                }
            })
            .sum();
        1.0 - cv_sum / self.per_app.len() as f64
    }

    /// Mean app runtime: each app's runtime is the completion time of its
    /// slowest thread (a data-parallel app is done when its last thread is).
    pub fn mean_app_runtime(&self) -> f64 {
        let finishes: Vec<f64> = self
            .per_app
            .iter()
            .filter(|ts| !ts.is_empty())
            .map(|ts| ts.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        crate::stats::mean(&finishes)
    }

    /// Makespan: the completion time of the slowest thread overall.
    pub fn makespan(&self) -> f64 {
        self.per_app.iter().flatten().copied().fold(0.0, f64::max)
    }
}

/// Relative improvement of `value` over `baseline`, as the paper reports
/// (e.g. "Dike improves fairness by 38% over DIO"): `(value − baseline) /
/// baseline`.
///
/// Returns 0.0 when the baseline is zero.
pub fn relative_improvement(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline
    }
}

/// Speedup of `baseline_time` over `time` (>1 means faster than baseline).
///
/// # Panics
/// Panics if `time` is not positive.
pub fn speedup(baseline_time: f64, time: f64) -> f64 {
    assert!(time > 0.0, "time must be positive, got {time}");
    baseline_time / time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_fair_run_scores_one() {
        let m = RuntimeMatrix::new(vec![vec![10.0; 8], vec![20.0; 8]]);
        assert!((m.fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dispersion_lowers_fairness() {
        let fair = RuntimeMatrix::new(vec![vec![10.0, 10.0, 10.0, 10.0]]);
        let unfair = RuntimeMatrix::new(vec![vec![5.0, 10.0, 15.0, 20.0]]);
        assert!(unfair.fairness() < fair.fairness());
        assert!(unfair.fairness() < 1.0);
    }

    #[test]
    fn fairness_averages_across_apps() {
        // One perfectly fair app + one unfair app: fairness is the mean.
        let solo_unfair = RuntimeMatrix::new(vec![vec![1.0, 2.0]]);
        let with_fair_app = RuntimeMatrix::new(vec![vec![1.0, 2.0], vec![3.0, 3.0]]);
        let cv = 1.0 - solo_unfair.fairness();
        assert!((with_fair_app.fairness() - (1.0 - cv / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_fair() {
        assert_eq!(RuntimeMatrix::default().fairness(), 1.0);
    }

    #[test]
    fn degenerate_matrices_stay_finite_and_fair() {
        // Regression (ISSUE 1 satellite): empty apps, single-thread apps
        // and zero-mean runtimes must score 1.0, never NaN or −inf.
        for m in [
            RuntimeMatrix::new(vec![vec![]]),
            RuntimeMatrix::new(vec![vec![], vec![]]),
            RuntimeMatrix::new(vec![vec![5.0]]),
            RuntimeMatrix::new(vec![vec![5.0], vec![7.0]]),
            RuntimeMatrix::new(vec![vec![0.0, 0.0, 0.0]]),
            RuntimeMatrix::new(vec![vec![0.0, 0.0], vec![], vec![3.0]]),
        ] {
            let f = m.fairness();
            assert!(f.is_finite(), "fairness not finite for {m:?}");
            assert_eq!(f, 1.0, "zero-dispersion matrix must be fair: {m:?}");
        }
        // A NaN runtime (e.g. an unfinished thread recorded as NaN) must
        // not take the whole score down with it.
        let poisoned = RuntimeMatrix::new(vec![vec![f64::NAN, 1.0], vec![2.0, 4.0]]);
        assert!(poisoned.fairness().is_finite());
        // mean_app_runtime/makespan on fully-empty matrices stay finite.
        let empty_apps = RuntimeMatrix::new(vec![vec![], vec![]]);
        assert_eq!(empty_apps.mean_app_runtime(), 0.0);
        assert_eq!(empty_apps.makespan(), 0.0);
    }

    #[test]
    fn runtime_aggregates() {
        let m = RuntimeMatrix::new(vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(m.makespan(), 4.0);
        assert_eq!(m.mean_app_runtime(), 3.5); // (3 + 4) / 2
    }

    #[test]
    fn fairness_sees_middle_threads_the_papers_critique() {
        // Two runs with identical best/worst threads (1.0 and 2.0) but very
        // different dispersion in between: the prior work's max/min ratio
        // (2.0 for both) cannot tell them apart, CV can.
        let tight = RuntimeMatrix::new(vec![vec![1.0, 1.9, 2.0, 1.1]]);
        let spread = RuntimeMatrix::new(vec![vec![1.0, 1.5, 2.0, 1.5]]);
        assert_ne!(tight.fairness(), spread.fairness());
    }

    #[test]
    fn improvement_and_speedup() {
        assert!((relative_improvement(1.38, 1.0) - 0.38).abs() < 1e-12);
        assert_eq!(relative_improvement(5.0, 0.0), 0.0);
        assert!((speedup(10.0, 8.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speedup_rejects_zero_time() {
        let _ = speedup(1.0, 0.0);
    }
}
