//! Turning raw counter deltas into the per-quantum rates schedulers consume.

/// Per-quantum rates derived from hardware-counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RateSample {
    /// Memory accesses (LLC misses) per second — the paper's "memory access
    /// rate", its primary contention metric.
    pub access_rate: f64,
    /// Instructions per second.
    pub instr_rate: f64,
    /// LLC misses per instruction.
    pub miss_ratio: f64,
    /// LLC misses per LLC access — the paper's classification quantity
    /// ("if a thread's LLC miss rate is more than 10 %, it is considered
    /// memory intensive").
    pub llc_miss_rate: f64,
    /// Instructions per cycle (the metric the paper argues *against* for
    /// heterogeneous machines — kept for the IPC-ablation benchmark).
    pub ipc: f64,
}

impl RateSample {
    /// Derive rates from counter deltas over `dt_s` seconds.
    ///
    /// Returns a zero sample when `dt_s` is not a positive number (e.g. the
    /// first quantum, before any counters were captured).
    pub fn from_deltas(
        d_instructions: f64,
        d_misses: f64,
        d_accesses: f64,
        d_cycles: f64,
        dt_s: f64,
    ) -> Self {
        // The explicit NaN check matters: a bare `dt_s <= 0.0` is false
        // for NaN, which would leak NaN rates into the estimators.
        if dt_s.is_nan() || dt_s <= 0.0 {
            return RateSample::default();
        }
        RateSample {
            access_rate: d_misses / dt_s,
            instr_rate: d_instructions / dt_s,
            miss_ratio: if d_instructions > 0.0 {
                d_misses / d_instructions
            } else {
                0.0
            },
            llc_miss_rate: if d_accesses > 0.0 {
                d_misses / d_accesses
            } else {
                0.0
            },
            ipc: if d_cycles > 0.0 {
                d_instructions / d_cycles
            } else {
                0.0
            },
        }
    }

    /// True when every field is a finite number and inside its physical
    /// bounds (rates non-negative, ratios in their valid ranges — the
    /// `llc_miss_rate` is misses per access, so at most 1).
    pub fn is_plausible(&self) -> bool {
        self.access_rate.is_finite()
            && self.access_rate >= 0.0
            && self.instr_rate.is_finite()
            && self.instr_rate >= 0.0
            && self.miss_ratio.is_finite()
            && self.miss_ratio >= 0.0
            && (0.0..=1.0).contains(&self.llc_miss_rate)
            && self.ipc.is_finite()
            && self.ipc >= 0.0
    }

    /// A defensively cleaned copy: non-finite or negative fields become
    /// zero and ratio fields are clamped to their physical ranges. A
    /// plausible sample passes through bit-identical — the sanitizer never
    /// perturbs healthy telemetry, which keeps fault-free runs
    /// byte-identical to the goldens.
    pub fn sanitized(&self) -> RateSample {
        if self.is_plausible() {
            return *self;
        }
        let clean = |v: f64| if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        RateSample {
            access_rate: clean(self.access_rate),
            instr_rate: clean(self.instr_rate),
            miss_ratio: clean(self.miss_ratio),
            llc_miss_rate: clean(self.llc_miss_rate).min(1.0),
            ipc: clean(self.ipc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_from_simple_deltas() {
        let r = RateSample::from_deltas(1000.0, 50.0, 400.0, 2000.0, 0.5);
        assert_eq!(r.instr_rate, 2000.0);
        assert_eq!(r.access_rate, 100.0);
        assert_eq!(r.miss_ratio, 0.05);
        assert_eq!(r.llc_miss_rate, 0.125);
        assert_eq!(r.ipc, 0.5);
    }

    #[test]
    fn zero_duration_yields_zero_sample() {
        assert_eq!(
            RateSample::from_deltas(100.0, 1.0, 5.0, 10.0, 0.0),
            RateSample::default()
        );
        assert_eq!(
            RateSample::from_deltas(100.0, 1.0, 5.0, 10.0, -1.0),
            RateSample::default()
        );
    }

    #[test]
    fn idle_thread_has_zero_ratios() {
        let r = RateSample::from_deltas(0.0, 0.0, 0.0, 0.0, 1.0);
        assert_eq!(r.miss_ratio, 0.0);
        assert_eq!(r.llc_miss_rate, 0.0);
        assert_eq!(r.ipc, 0.0);
        assert_eq!(r.access_rate, 0.0);
    }

    #[test]
    fn zero_accesses_with_nonzero_misses_never_divides_by_zero() {
        // Counter skew can report misses with no accesses in a short
        // quantum; the ratios must stay finite (0, by convention).
        let r = RateSample::from_deltas(100.0, 7.0, 0.0, 0.0, 0.25);
        assert_eq!(r.llc_miss_rate, 0.0);
        assert_eq!(r.ipc, 0.0);
        assert!(r.access_rate.is_finite());
        assert_eq!(r.access_rate, 28.0);
    }

    #[test]
    fn negative_and_tiny_durations_yield_zero_sample() {
        for dt in [0.0, -0.0, -1e-9, f64::NEG_INFINITY] {
            let r = RateSample::from_deltas(1e9, 1e6, 1e7, 1e9, dt);
            assert_eq!(r, RateSample::default(), "dt_s = {dt}");
        }
        // NaN durations must not leak NaN rates either.
        let r = RateSample::from_deltas(1e9, 1e6, 1e7, 1e9, f64::NAN);
        assert_eq!(r, RateSample::default());
    }

    #[test]
    fn sanitized_passes_healthy_samples_through_unchanged() {
        let r = RateSample::from_deltas(1000.0, 50.0, 400.0, 2000.0, 0.5);
        assert!(r.is_plausible());
        assert_eq!(r.sanitized(), r);
        assert!(RateSample::default().is_plausible());
    }

    #[test]
    fn sanitized_scrubs_poisoned_samples() {
        let poisoned = RateSample {
            access_rate: f64::NAN,
            instr_rate: f64::INFINITY,
            miss_ratio: -0.5,
            llc_miss_rate: 7.0,
            ipc: f64::NAN,
        };
        assert!(!poisoned.is_plausible());
        let clean = poisoned.sanitized();
        assert!(clean.is_plausible());
        assert_eq!(clean.access_rate, 0.0);
        assert_eq!(clean.instr_rate, 0.0);
        assert_eq!(clean.miss_ratio, 0.0);
        assert_eq!(clean.llc_miss_rate, 1.0);
        assert_eq!(clean.ipc, 0.0);
    }

    #[test]
    fn all_fields_finite_for_finite_inputs() {
        let r = RateSample::from_deltas(5.0, 3.0, 4.0, 2.0, 1e-6);
        for v in [
            r.access_rate,
            r.instr_rate,
            r.miss_ratio,
            r.llc_miss_rate,
            r.ipc,
        ] {
            assert!(v.is_finite(), "{r:?}");
        }
        assert_eq!(r.llc_miss_rate, 0.75);
    }
}
