//! The Observer's online rate estimator.
//!
//! The paper's Observer stores, per core, "the moving mean bandwidth …
//! updated every quanta" (`CoreBW`), and per thread the access rate of the
//! last quantum. [`MovingMean`] is that per-core estimator.

/// Cumulative moving mean over all samples — the paper's `CoreBW` estimator
/// ("moving mean represents average bandwidth of core throughout its
/// execution").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovingMean {
    sum: f64,
    n: usize,
}

impl MovingMean {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one new observation.
    pub fn update(&mut self, sample: f64) {
        self.sum += sample;
        self.n += 1;
    }

    /// The mean of every sample so far, or 0.0 before any sample.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// True if no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
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
        assert!(!e.is_empty());
    }
}
