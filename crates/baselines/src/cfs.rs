//! The Linux-CFS stand-in baseline.
//!
//! The paper's baseline is Linux's Completely Fair Scheduler, which "tries
//! to equalize allocated CPU time" and is contention-oblivious. With 40
//! runnable threads pinned one-per-virtual-core (the paper's setup), CFS's
//! load balancer keeps the initial spread and performs no contention-aware
//! migration — so the faithful simulation-level model is a scheduler that
//! never acts, leaving threads where the initial (interleaved) placement
//! put them. See `Placement::Interleaved` in `dike-workloads` for why that
//! placement models a contention-oblivious balancer's steady state.

use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SystemView};

/// The observation quantum, in ms (it only sets how often counters are
/// sampled, never behaviour).
const QUANTUM_MS: u64 = 500;

/// The contention-oblivious baseline ("Linux" in the paper's figures).
#[derive(Debug, Clone)]
pub struct StaticSpread;

impl StaticSpread {
    /// The baseline, observing every 500 ms.
    pub fn new() -> Self {
        StaticSpread
    }
}

impl Default for StaticSpread {
    fn default() -> Self {
        StaticSpread::new()
    }
}

impl Scheduler for StaticSpread {
    fn name(&self) -> &str {
        "Linux-CFS"
    }

    fn initial_quantum(&self) -> SimTime {
        SimTime::from_ms(QUANTUM_MS)
    }

    fn on_quantum(&mut self, _view: &SystemView, _actions: &mut Actions) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine, SimTime};
    use dike_sched_core::run;
    use dike_workloads::{AppKind, Placement, Workload};

    #[test]
    fn cfs_never_migrates() {
        let mut machine = Machine::new(presets::small_machine(1));
        let mut w = Workload::plain("t", vec![AppKind::Jacobi, AppKind::Srad]);
        w.threads_per_app = 4;
        w.spawn(&mut machine, Placement::Interleaved, 0.05);
        let mut cfs = StaticSpread::new();
        let r = run(&mut machine, &mut cfs, SimTime::from_secs_f64(300.0));
        assert!(r.completed);
        assert_eq!(r.migrations, 0);
        assert_eq!(r.scheduler, "Linux-CFS");
    }
}
