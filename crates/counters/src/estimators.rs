//! Online rate estimators.
//!
//! The paper's Observer stores, per core, "the moving mean bandwidth …
//! updated every quanta" (`CoreBW`), and per thread the access rate of the
//! last quantum. Different estimators trade responsiveness against noise
//! rejection; the Dike predictor's accuracy depends directly on this choice,
//! so the estimator is pluggable.

use dike_util::{json_enum, json_struct};
use std::collections::VecDeque;

/// An online estimator of a noisy scalar signal.
pub trait Estimator {
    /// Feed one new observation.
    fn update(&mut self, sample: f64);
    /// Current estimate. Implementations return 0.0 before any sample.
    fn value(&self) -> f64;
    /// Discard all history.
    fn reset(&mut self);
    /// Number of samples observed since the last reset.
    fn len(&self) -> usize;
    /// True if no samples have been observed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cumulative moving mean over all samples — the paper's `CoreBW` estimator
/// ("moving mean represents average bandwidth of core throughout its
/// execution").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovingMean {
    sum: f64,
    n: usize,
}

json_struct!(MovingMean { sum, n });

impl MovingMean {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for MovingMean {
    fn update(&mut self, sample: f64) {
        self.sum += sample;
        self.n += 1;
    }

    fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn len(&self) -> usize {
        self.n
    }
}

/// Mean over a sliding window of the last `window` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedMean {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
    seen: usize,
}

json_struct!(WindowedMean {
    window,
    buf,
    sum,
    seen,
});

impl WindowedMean {
    /// A sliding mean over the last `window` samples.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedMean {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
            seen: 0,
        }
    }
}

impl Estimator for WindowedMean {
    fn update(&mut self, sample: f64) {
        if self.buf.len() == self.window {
            let old = self.buf.pop_front().expect("non-empty window");
            self.sum -= old;
        }
        self.buf.push_back(sample);
        self.sum += sample;
        self.seen += 1;
    }

    fn value(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
        self.seen = 0;
    }

    fn len(&self) -> usize {
        self.seen
    }
}

/// Exponentially-weighted moving average with smoothing factor `alpha`
/// (1.0 = track the last sample exactly; small values smooth heavily).
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
    seen: usize,
}

json_struct!(Ewma { alpha, state, seen });

impl Ewma {
    /// A fresh EWMA.
    ///
    /// # Panics
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Ewma {
            alpha,
            state: None,
            seen: 0,
        }
    }
}

impl Estimator for Ewma {
    fn update(&mut self, sample: f64) {
        self.state = Some(match self.state {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        });
        self.seen += 1;
    }

    fn value(&self) -> f64 {
        self.state.unwrap_or(0.0)
    }

    fn reset(&mut self) {
        self.state = None;
        self.seen = 0;
    }

    fn len(&self) -> usize {
        self.seen
    }
}

/// The most recent sample, verbatim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LastSample {
    state: Option<f64>,
    seen: usize,
}

json_struct!(LastSample { state, seen });

impl LastSample {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for LastSample {
    fn update(&mut self, sample: f64) {
        self.state = Some(sample);
        self.seen += 1;
    }

    fn value(&self) -> f64 {
        self.state.unwrap_or(0.0)
    }

    fn reset(&mut self) {
        self.state = None;
        self.seen = 0;
    }

    fn len(&self) -> usize {
        self.seen
    }
}

/// Which estimator a component should use — serialisable so experiment
/// configurations can sweep it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Cumulative moving mean (the paper's choice for `CoreBW`).
    MovingMean,
    /// Sliding mean over the last N samples.
    WindowedMean(usize),
    /// Exponentially weighted moving average.
    Ewma(f64),
    /// Last sample only.
    LastSample,
}

json_enum!(EstimatorKind { MovingMean, LastSample } { WindowedMean(usize), Ewma(f64) });

/// A dynamically-dispatched estimator built from a kind tag.
pub fn build(kind: EstimatorKind) -> Box<dyn Estimator + Send> {
    match kind {
        EstimatorKind::MovingMean => Box::new(MovingMean::new()),
        EstimatorKind::WindowedMean(w) => Box::new(WindowedMean::new(w)),
        EstimatorKind::Ewma(a) => Box::new(Ewma::new(a)),
        EstimatorKind::LastSample => Box::new(LastSample::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_mean_is_exact_mean() {
        let mut e = MovingMean::new();
        assert_eq!(e.value(), 0.0);
        assert!(e.is_empty());
        for x in [1.0, 2.0, 3.0, 4.0] {
            e.update(x);
        }
        assert_eq!(e.value(), 2.5);
        assert_eq!(e.len(), 4);
        e.reset();
        assert_eq!(e.value(), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn windowed_mean_forgets_old_samples() {
        let mut e = WindowedMean::new(2);
        e.update(10.0);
        assert_eq!(e.value(), 10.0);
        e.update(20.0);
        assert_eq!(e.value(), 15.0);
        e.update(30.0); // 10 falls out
        assert_eq!(e.value(), 25.0);
        assert_eq!(e.len(), 3);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn windowed_mean_rejects_zero_window() {
        let _ = WindowedMean::new(0);
    }

    #[test]
    fn ewma_converges_to_constant_signal() {
        let mut e = Ewma::new(0.3);
        for _ in 0..100 {
            e.update(5.0);
        }
        assert!((e.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        e.update(42.0);
        assert_eq!(e.value(), 42.0);
    }

    #[test]
    fn ewma_tracks_step_change_faster_with_higher_alpha() {
        let run = |alpha: f64| {
            let mut e = Ewma::new(alpha);
            for _ in 0..10 {
                e.update(0.0);
            }
            for _ in 0..3 {
                e.update(10.0);
            }
            e.value()
        };
        assert!(run(0.5) > run(0.1));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn last_sample_tracks_immediately() {
        let mut e = LastSample::new();
        e.update(1.0);
        e.update(9.0);
        assert_eq!(e.value(), 9.0);
        assert_eq!(e.len(), 2);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    fn build_dispatches_all_kinds() {
        for kind in [
            EstimatorKind::MovingMean,
            EstimatorKind::WindowedMean(4),
            EstimatorKind::Ewma(0.2),
            EstimatorKind::LastSample,
        ] {
            let mut e = build(kind);
            e.update(3.0);
            e.update(3.0);
            assert!((e.value() - 3.0).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn estimators_smoothness_ordering_on_noisy_step() {
        // After a step, responsiveness: LastSample >= Ewma(0.5) >= MovingMean.
        let signal: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        let feed = |e: &mut dyn Estimator| {
            for &x in &signal {
                e.update(x);
            }
            e.value()
        };
        let mut last = LastSample::new();
        let mut ewma = Ewma::new(0.5);
        let mut mean = MovingMean::new();
        let l = feed(&mut last);
        let e = feed(&mut ewma);
        let m = feed(&mut mean);
        assert!(l >= e && e >= m, "l={l} e={e} m={m}");
    }
}
