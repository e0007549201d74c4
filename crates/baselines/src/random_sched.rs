//! A random-swap scheduler: the sanity floor.
//!
//! Swaps 4 uniformly random disjoint thread pairs each 500-ms quantum
//! (matching Dike's default swapSize of 8 threads). Any contention-aware
//! policy must beat this; the integration
//! tests use it to confirm the evaluation pipeline can tell good policies
//! from noise.

use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SystemView};
use dike_util::{Pcg32, SliceRandom};

/// The random scheduler's quantum, in ms.
const QUANTUM_MS: u64 = 500;

/// Random pairs swapped per quantum.
const PAIRS_PER_QUANTUM: usize = 4;

/// The random scheduler.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: Pcg32,
}

impl RandomScheduler {
    /// A random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: Pcg32::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &str {
        "Random"
    }

    fn initial_quantum(&self) -> SimTime {
        SimTime::from_ms(QUANTUM_MS)
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        let mut idx: Vec<usize> = (0..view.threads.len()).collect();
        idx.shuffle(&mut self.rng);
        for pair in idx.chunks_exact(2).take(PAIRS_PER_QUANTUM) {
            let a = &view.threads[pair[0]];
            let b = &view.threads[pair[1]];
            if a.vcore != b.vcore {
                actions.swap((a.id, a.vcore), (b.id, b.vcore));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine, SimTime};
    use dike_sched_core::run;
    use dike_workloads::{AppKind, Placement, Workload};

    #[test]
    fn random_scheduler_migrates_and_completes() {
        let mut machine = Machine::new(presets::small_machine(1));
        let mut w = Workload::plain("t", vec![AppKind::Jacobi, AppKind::Srad]);
        w.threads_per_app = 4;
        w.spawn(&mut machine, Placement::Interleaved, 0.05);
        let mut sched = RandomScheduler::new(7);
        let r = run(&mut machine, &mut sched, SimTime::from_secs_f64(600.0));
        assert!(r.completed);
        assert!(r.swaps > 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run_once = |seed: u64| {
            let mut machine = Machine::new(presets::small_machine(1));
            let mut w = Workload::plain("t", vec![AppKind::Jacobi, AppKind::Srad]);
            w.threads_per_app = 4;
            w.spawn(&mut machine, Placement::Interleaved, 0.05);
            let mut sched = RandomScheduler::new(seed);
            let r = run(&mut machine, &mut sched, SimTime::from_secs_f64(600.0));
            (r.swaps, r.wall)
        };
        assert_eq!(run_once(3), run_once(3));
    }
}
