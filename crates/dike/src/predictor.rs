//! The Predictor: the paper's closed-loop profit model (Section III-C).
//!
//! For a pair ⟨t_l, t_h⟩ the profit of swapping thread `t` to the other
//! member's core is (Eqn 1)
//!
//! ```text
//! profit_t = CoreBW_other − AccessRate_t − Overhead_t
//! ```
//!
//! where `CoreBW_other` is the moving mean of the destination core's served
//! bandwidth ("we assume that if a thread migrates to a new core, it
//! consumes the new core's entire memory bandwidth"), `AccessRate_t` is the
//! thread's current access rate (its expectation if it stays), and (Eqn 2)
//!
//! ```text
//! Overhead_t = swapOH / quantaLength × AccessRate_t
//! ```
//!
//! is the access-rate loss from the migration dead time. The total profit
//! of the swap is the sum over both members (Eqn 3).
//!
//! The Predictor also *records* its predicted next-quantum access rate for
//! every thread — the destination `CoreBW` for migrated threads, the
//! current rate otherwise — and scores the predictions against the next
//! quantum's measurements. That error stream is the closed-loop feedback
//! the paper evaluates in Figures 7 and 8.

use crate::config::SWAP_OH_MS;
use crate::observer::Observation;
use crate::selector::Pair;
use dike_machine::{SimTime, ThreadId};
use std::collections::HashMap;

/// The predicted outcome of one candidate swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapPrediction {
    /// Profit for the low-access member (Eqn 1).
    pub profit_low: f64,
    /// Profit for the high-access member (Eqn 1).
    pub profit_high: f64,
    /// Predicted next-quantum access rate of the low member if swapped.
    pub predicted_low: f64,
    /// Predicted next-quantum access rate of the high member if swapped.
    pub predicted_high: f64,
}

impl SwapPrediction {
    /// Total profit (Eqn 3).
    pub fn total_profit(&self) -> f64 {
        self.profit_low + self.profit_high
    }
}

/// One scored prediction sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSample {
    /// Time the prediction was scored (end of the predicted quantum).
    pub at: SimTime,
    /// The thread.
    pub thread: ThreadId,
    /// Signed relative error `(predicted − actual) / actual`; positive =
    /// overestimation, as in Figure 7.
    pub relative_error: f64,
}

/// The Predictor's persistent state.
#[derive(Debug)]
pub struct Predictor {
    /// Predictions made last quantum, to be scored this quantum. The flag
    /// marks migration-based predictions (destination `CoreBW`) as opposed
    /// to stay-put predictions (current rate).
    pending: HashMap<ThreadId, (f64, bool)>,
    /// Closed-loop correction for migration predictions: an EWMA of the
    /// observed `actual / raw-predicted` ratio for migrated threads. The
    /// paper treats migration-cost imprecision "as the precision error of
    /// our model … inherently accounted for in the process of collecting
    /// feedback" — this is that feedback loop. It corrects the *scored*
    /// prediction only; the Decider's profit rule stays Eqn 1 verbatim.
    migration_correction: f64,
    /// All scored samples.
    errors: Vec<ErrorSample>,
    /// Per-quantum aggregate error: `(time, Σ(predicted−actual)/Σactual)`
    /// over the threads scored in that quantum — the paper's "average
    /// difference between predicted and actual memory access of the
    /// running threads" (Figures 7 and 8).
    quantum_errors: Vec<(SimTime, f64)>,
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::new()
    }
}

impl Predictor {
    /// A Predictor that assumes [`SWAP_OH_MS`] per swap.
    pub fn new() -> Self {
        Predictor {
            pending: HashMap::new(),
            migration_correction: 1.0,
            // The error histories accumulate for the whole run (they are
            // the Figure 7/8 populations). Pre-size them for a paper-scale
            // run so steady-state quanta never pay an amortised doubling;
            // runs past these watermarks merely fall back to O(log n)
            // growth (tolerated by `tests/zero_alloc.rs`).
            errors: Vec::with_capacity(8192),
            quantum_errors: Vec::with_capacity(1024),
        }
    }

    /// The current closed-loop migration correction factor.
    pub fn migration_correction(&self) -> f64 {
        self.migration_correction
    }

    /// Evaluate one candidate pair against Eqns 1–3.
    ///
    /// `quantum` is the current `quantaLength` (the overhead term's
    /// denominator).
    pub fn evaluate(&self, obs: &Observation, pair: &Pair, quantum: SimTime) -> SwapPrediction {
        let low = obs
            .threads
            .iter()
            .find(|t| t.id == pair.low)
            .expect("pair.low is an observed thread");
        let high = obs
            .threads
            .iter()
            .find(|t| t.id == pair.high)
            .expect("pair.high is an observed thread");

        let oh_frac = (SWAP_OH_MS / quantum.as_ms_f64()).min(1.0);
        let overhead_low = oh_frac * low.access_rate;
        let overhead_high = oh_frac * high.access_rate;

        // Destination CoreBW: the *other* member's current core. At
        // reduced sample confidence (hardened pipeline, degraded
        // telemetry) the gain term is scaled down toward zero — a widened,
        // pessimistic prediction that holds back marginal swaps while the
        // cost terms stay at full weight. At confidence 1 (always, for
        // the unhardened pipeline) the factor is exactly 1.0 and the
        // prediction is Eqn 1 verbatim.
        let conf = low.confidence.min(high.confidence).clamp(0.0, 1.0);
        let corebw_for_low = obs.core_bw[pair.high_vcore.index()] * conf;
        let corebw_for_high = obs.core_bw[pair.low_vcore.index()] * conf;

        let profit_low = corebw_for_low - low.access_rate - overhead_low;
        let profit_high = corebw_for_high - high.access_rate - overhead_high;

        SwapPrediction {
            profit_low,
            profit_high,
            predicted_low: (corebw_for_low - overhead_low).max(0.0),
            predicted_high: (corebw_for_high - overhead_high).max(0.0),
        }
    }

    /// Record the predicted next-quantum access rate for every alive
    /// thread: `swapped` maps migrated threads to their swap predictions;
    /// everyone else is predicted to keep their current rate.
    pub fn commit(&mut self, obs: &Observation, swapped: &HashMap<ThreadId, f64>) {
        self.pending.clear();
        for t in &obs.threads {
            match swapped.get(&t.id) {
                Some(&raw) => self.pending.insert(t.id, (raw, true)),
                None => self.pending.insert(t.id, (t.access_rate, false)),
            };
        }
    }

    /// Score last quantum's predictions against this quantum's observation.
    ///
    /// Threads whose measured rate is tiny relative to the system mean are
    /// skipped (a relative error against ~0 is noise, not signal).
    pub fn score(&mut self, obs: &Observation, now: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        let mean_rate = if obs.threads.is_empty() {
            0.0
        } else {
            obs.threads.iter().map(|t| t.access_rate).sum::<f64>() / obs.threads.len() as f64
        };
        let floor = mean_rate * 0.01;
        let mut sum_diff = 0.0;
        let mut sum_actual = 0.0;
        for t in &obs.threads {
            if let Some(&(raw, migrated)) = self.pending.get(&t.id) {
                let actual = t.access_rate;
                if actual > floor && actual > 0.0 {
                    let predicted = if migrated {
                        raw * self.migration_correction
                    } else {
                        raw
                    };
                    self.errors.push(ErrorSample {
                        at: now,
                        thread: t.id,
                        relative_error: (predicted - actual) / actual,
                    });
                    sum_diff += predicted - actual;
                    sum_actual += actual;
                    if migrated && raw > 0.0 {
                        // Closed-loop update: learn how much a freshly
                        // migrated thread really achieves relative to the
                        // destination CoreBW estimate.
                        let ratio = (actual / raw).clamp(0.2, 1.5);
                        self.migration_correction = (self.migration_correction
                            + 0.2 * (ratio - self.migration_correction))
                            .clamp(0.3, 1.2);
                    }
                }
            }
        }
        if sum_actual > 0.0 {
            self.quantum_errors.push((now, sum_diff / sum_actual));
        }
        self.pending.clear();
    }

    /// All scored samples so far.
    pub fn errors(&self) -> &[ErrorSample] {
        &self.errors
    }

    /// Per-quantum aggregate errors (the Figure 7 population): one signed
    /// relative error per scored quantum.
    pub fn error_values(&self) -> Vec<f64> {
        self.quantum_errors.iter().map(|&(_, e)| e).collect()
    }

    /// The per-quantum aggregate error as a `(seconds, error)` series
    /// (Figure 8's trace).
    pub fn error_trace(&self) -> Vec<(f64, f64)> {
        self.quantum_errors
            .iter()
            .map(|&(at, e)| (at.as_secs_f64(), e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ObservedThread, ThreadClass};
    use dike_machine::{AppId, VCoreId};

    fn obs(rates: &[f64], core_bw: &[f64]) -> Observation {
        let threads = rates
            .iter()
            .enumerate()
            .map(|(i, &access_rate)| ObservedThread {
                id: ThreadId(i as u32),
                app: AppId(0),
                vcore: VCoreId(i as u32),
                access_rate,
                llc_miss_rate: 0.1,
                class: ThreadClass::Memory,
                migrated_last_quantum: false,
                confidence: 1.0,
            })
            .collect();
        Observation {
            threads,
            high_bw: vec![true; rates.len()],
            core_bw: core_bw.to_vec(),
            core_domain: vec![dike_machine::DomainId(0); rates.len()],
            num_domains: 1,
            fairness_cv: 1.0,
            memory_fraction: 1.0,
        }
    }

    fn pair01() -> Pair {
        Pair {
            low: ThreadId(0),
            low_vcore: VCoreId(0),
            high: ThreadId(1),
            high_vcore: VCoreId(1),
        }
    }

    #[test]
    fn profit_follows_eqn_1_through_3() {
        // t0 (rate 10) on core0 (CoreBW 50), t1 (rate 80) on core1 (CoreBW 100).
        let o = obs(&[10.0, 80.0], &[50.0, 100.0]);
        let p = Predictor::new();
        let quantum = SimTime::from_ms(500);
        let sp = p.evaluate(&o, &pair01(), quantum);
        let oh = 3.0 / 500.0;
        // profit_low = CoreBW(core of t1) − rate0 − oh*rate0
        assert!((sp.profit_low - (100.0 - 10.0 - oh * 10.0)).abs() < 1e-9);
        // profit_high = CoreBW(core of t0) − rate1 − oh*rate1
        assert!((sp.profit_high - (50.0 - 80.0 - oh * 80.0)).abs() < 1e-9);
        assert!((sp.total_profit() - (sp.profit_low + sp.profit_high)).abs() < 1e-12);
        assert!(sp.predicted_low > 99.0 && sp.predicted_low < 100.0);
    }

    #[test]
    fn low_confidence_widens_the_prediction_toward_no_swap() {
        // A clearly profitable swap at full confidence…
        let full = obs(&[10.0, 80.0], &[50.0, 100.0]);
        let p = Predictor::new();
        let quantum = SimTime::from_ms(500);
        let sp_full = p.evaluate(&full, &pair01(), quantum);
        assert!(sp_full.total_profit() > 0.0);
        // …loses its predicted gain as the pair's confidence drops: the
        // CoreBW term is scaled by min(confidence), the cost terms are
        // not, so the Decider's non-positive-profit rejection kicks in.
        let mut degraded = full.clone();
        degraded.threads[0].confidence = 0.2;
        let sp_low = p.evaluate(&degraded, &pair01(), quantum);
        assert!(sp_low.total_profit() < sp_full.total_profit());
        assert!(sp_low.total_profit() < 0.0);
        // Confidence 1 on both members reproduces Eqn 1 exactly.
        let sp_again = p.evaluate(&full, &pair01(), quantum);
        assert_eq!(sp_again, sp_full);
    }

    #[test]
    fn shorter_quantum_raises_overhead_penalty() {
        let o = obs(&[50.0, 50.0], &[50.0, 50.0]);
        let p = Predictor::new();
        let long = p.evaluate(&o, &pair01(), SimTime::from_ms(1000));
        let short = p.evaluate(&o, &pair01(), SimTime::from_ms(100));
        assert!(short.total_profit() < long.total_profit());
    }

    #[test]
    fn overhead_fraction_is_capped_at_one() {
        let o = obs(&[50.0, 50.0], &[50.0, 50.0]);
        let p = Predictor::new();
        // A 1-ms quantum is shorter than swapOH.
        let sp = p.evaluate(&o, &pair01(), SimTime::from_ms(1));
        assert!((sp.profit_low - (50.0 - 50.0 - 50.0)).abs() < 1e-9);
        assert_eq!(sp.predicted_low, 0.0);
    }

    #[test]
    fn score_computes_signed_relative_error() {
        let mut p = Predictor::new();
        let before = obs(&[100.0, 50.0], &[0.0, 0.0]);
        // Predict t0 stays at 100, t1 swapped and predicted 80.
        let mut swapped = HashMap::new();
        swapped.insert(ThreadId(1), 80.0);
        p.commit(&before, &swapped);
        // Next quantum: t0 measured 90 (over-predicted), t1 measured 100.
        let after = obs(&[90.0, 100.0], &[0.0, 0.0]);
        p.score(&after, SimTime::from_ms(500));
        // Per-thread samples.
        let samples = p.errors();
        assert_eq!(samples.len(), 2);
        assert!((samples[0].relative_error - (100.0 - 90.0) / 90.0).abs() < 1e-9);
        assert!((samples[1].relative_error - (80.0 - 100.0) / 100.0).abs() < 1e-9);
        // One per-quantum aggregate: Σ(pred−actual)/Σactual.
        let errs = p.error_values();
        assert_eq!(errs.len(), 1);
        let expect = ((100.0 - 90.0) + (80.0 - 100.0)) / (90.0 + 100.0);
        assert!((errs[0] - expect).abs() < 1e-9);
        // Scoring consumed the pending predictions.
        p.score(&after, SimTime::from_ms(1000));
        assert_eq!(p.errors().len(), 2);
        // The migration feedback learned from t1's ratio (100/80 clamped).
        assert!(p.migration_correction() > 1.0);
    }

    #[test]
    fn near_zero_actuals_are_skipped() {
        let mut p = Predictor::new();
        let before = obs(&[100.0, 0.0], &[0.0, 0.0]);
        p.commit(&before, &HashMap::new());
        let after = obs(&[100.0, 0.0], &[0.0, 0.0]);
        p.score(&after, SimTime::from_ms(500));
        // Only the live thread is scored; the zero-rate thread is skipped.
        assert_eq!(p.errors().len(), 1);
    }

    #[test]
    fn error_trace_is_the_per_quantum_aggregate() {
        let mut p = Predictor::new();
        let before = obs(&[10.0, 30.0], &[0.0, 0.0]);
        p.commit(&before, &HashMap::new());
        let after = obs(&[20.0, 30.0], &[0.0, 0.0]);
        p.score(&after, SimTime::from_ms(500));
        let trace = p.error_trace();
        assert_eq!(trace.len(), 1);
        assert!((trace[0].0 - 0.5).abs() < 1e-12);
        // Aggregate: ((10-20) + (30-30)) / (20+30) = -0.2.
        assert!((trace[0].1 - (-0.2)).abs() < 1e-9);
    }
}
