//! The Optimizer: Algorithm 2 — adaptive tuning of ⟨swapSize, quantaLength⟩.
//!
//! When the system is unfair, the Optimizer classifies the current workload
//! (B/UC/UM, from the observed fraction of memory-intensive threads) and
//! moves the scheduler configuration one unit toward the per-class optimum
//! derived from the paper's Figure 5 contours:
//!
//! | goal        | class | quantaLength                | swapSize     |
//! |-------------|-------|-----------------------------|--------------|
//! | Fairness    | B     | decrease, floor 100 ms      | —            |
//! | Fairness    | UC    | decrease, floor 200 ms      | +2, cap 16   |
//! | Fairness    | UM    | decrease, floor 500 ms      | +2, cap 16   |
//! | Performance | B     | increase, cap 1000 ms       | —            |
//! | Performance | UC    | increase, cap 1000 ms       | +2, cap 16   |
//! | Performance | UM    | increase, cap 1000 ms       | —            |
//!
//! "In every step, the optimizer is allowed to change \[each\] scheduling
//! parameter for one unit" — updating the quantum from 100 ms to 1000 ms
//! takes three calls.

use crate::config::{AdaptationGoal, DikeConfig, SchedConfig, UC_BAND, UM_BAND};
use crate::observer::Observation;

/// The paper's workload types as *observed* by the scheduler.
///
/// Defined here rather than imported from the workloads crate: the
/// scheduler must not know the benchmark suite; it infers the type from
/// counters alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadType {
    /// Balanced.
    B,
    /// Unbalanced, compute-intensive.
    UC,
    /// Unbalanced, memory-intensive.
    UM,
}

/// Classify the running workload from the observed memory-thread fraction.
///
/// Bands are asymmetric ([`UC_BAND`] 0.30, [`UM_BAND`] 0.50) so that a
/// communication-bound background app classified compute (KMEANS) does
/// not flip a balanced workload's class.
pub fn classify_workload(memory_fraction: f64) -> WorkloadType {
    if memory_fraction < UC_BAND {
        WorkloadType::UC
    } else if memory_fraction > UM_BAND {
        WorkloadType::UM
    } else {
        WorkloadType::B
    }
}

/// One optimizer step (Algorithm 2). Mutates `sched` in place and returns
/// the detected workload type. No-op when the system is already fair.
pub fn step(cfg: &DikeConfig, obs: &Observation, sched: &mut SchedConfig) -> Option<WorkloadType> {
    let goal = cfg.adaptation?;
    if obs.is_fair(cfg.fairness_threshold) {
        return None;
    }
    let wl_type = classify_workload(obs.memory_fraction);
    match goal {
        AdaptationGoal::Fairness => match wl_type {
            WorkloadType::B => sched.decrease_quantum(100),
            WorkloadType::UC => {
                sched.increase_swap_size();
                sched.decrease_quantum(200);
            }
            WorkloadType::UM => {
                sched.increase_swap_size();
                sched.decrease_quantum(500);
            }
        },
        AdaptationGoal::Performance => match wl_type {
            WorkloadType::B => sched.increase_quantum(1000),
            WorkloadType::UC => {
                sched.increase_swap_size();
                sched.increase_quantum(1000);
            }
            WorkloadType::UM => sched.increase_quantum(1000),
        },
    }
    Some(wl_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Observation;

    fn obs(memory_fraction: f64, fairness_cv: f64) -> Observation {
        Observation {
            threads: Vec::new(),
            high_bw: Vec::new(),
            core_bw: Vec::new(),
            core_domain: Vec::new(),
            num_domains: 1,
            fairness_cv,
            memory_fraction,
        }
    }

    fn cfg(goal: AdaptationGoal) -> DikeConfig {
        DikeConfig {
            adaptation: Some(goal),
            ..DikeConfig::default()
        }
    }

    #[test]
    fn bands_classify_the_paper_mixes_correctly() {
        // Observed fractions with the KMEANS background (8 of 40 threads
        // classified compute): B = 16/40, UC = 8/40, UM = 24/40.
        assert_eq!(classify_workload(16.0 / 40.0), WorkloadType::B);
        assert_eq!(classify_workload(8.0 / 40.0), WorkloadType::UC);
        assert_eq!(classify_workload(24.0 / 40.0), WorkloadType::UM);
    }

    #[test]
    fn fair_system_leaves_config_alone() {
        let c = cfg(AdaptationGoal::Fairness);
        let mut sched = SchedConfig::DEFAULT;
        assert_eq!(step(&c, &obs(0.5, 0.01), &mut sched), None);
        assert_eq!(sched, SchedConfig::DEFAULT);
    }

    #[test]
    fn non_adaptive_never_steps() {
        let c = DikeConfig::default();
        let mut sched = SchedConfig::DEFAULT;
        assert_eq!(step(&c, &obs(0.5, 5.0), &mut sched), None);
    }

    #[test]
    fn fairness_goal_walks_to_per_class_targets() {
        // B: quantum down to 100, swap size untouched.
        let c = cfg(AdaptationGoal::Fairness);
        let mut sched = SchedConfig::DEFAULT;
        for _ in 0..5 {
            step(&c, &obs(0.4, 5.0), &mut sched);
        }
        assert_eq!(sched.quantum_ms, 100);
        assert_eq!(sched.swap_size, 8);

        // UC: quantum floored at 200, swap size to 16.
        let mut sched = SchedConfig::DEFAULT;
        for _ in 0..5 {
            step(&c, &obs(0.2, 5.0), &mut sched);
        }
        assert_eq!(sched.quantum_ms, 200);
        assert_eq!(sched.swap_size, 16);

        // UM: quantum floored at 500, swap size to 16.
        let mut sched = SchedConfig::DEFAULT;
        for _ in 0..5 {
            step(&c, &obs(0.7, 5.0), &mut sched);
        }
        assert_eq!(sched.quantum_ms, 500);
        assert_eq!(sched.swap_size, 16);
    }

    #[test]
    fn performance_goal_walks_to_long_quanta() {
        let c = cfg(AdaptationGoal::Performance);
        for (frac, expect_swap) in [(0.4, 8), (0.2, 16), (0.7, 8)] {
            let mut sched = SchedConfig::DEFAULT;
            for _ in 0..5 {
                step(&c, &obs(frac, 5.0), &mut sched);
            }
            assert_eq!(sched.quantum_ms, 1000, "fraction {frac}");
            assert_eq!(sched.swap_size, expect_swap, "fraction {frac}");
        }
    }

    #[test]
    fn one_unit_per_step() {
        let c = cfg(AdaptationGoal::Fairness);
        let mut sched = SchedConfig::DEFAULT; // 500ms
        step(&c, &obs(0.4, 5.0), &mut sched);
        assert_eq!(sched.quantum_ms, 200); // one rung only
        step(&c, &obs(0.4, 5.0), &mut sched);
        assert_eq!(sched.quantum_ms, 100);
    }

    #[test]
    fn reports_detected_type() {
        let c = cfg(AdaptationGoal::Fairness);
        let mut sched = SchedConfig::DEFAULT;
        assert_eq!(step(&c, &obs(0.2, 5.0), &mut sched), Some(WorkloadType::UC));
        assert_eq!(step(&c, &obs(0.7, 5.0), &mut sched), Some(WorkloadType::UM));
        assert_eq!(step(&c, &obs(0.4, 5.0), &mut sched), Some(WorkloadType::B));
    }
}
