//! Sort-once static mapping: a one-shot contention-aware placement.
//!
//! After observing the first quantum, this policy sorts threads by LLC
//! miss rate and maps the top half onto the fastest cores — the "ideal
//! mapping" of Dike's placement rule, applied once, with no further
//! migrations. It separates the benefit of *getting the placement right
//! once* from Dike's continuous adaptation: Dike should match or beat it on
//! phase-changing workloads and never lose to it by much.

use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SystemView};

/// The sort-once static mapper.
#[derive(Debug, Clone)]
pub struct SortOnce {
    quantum: SimTime,
    placed: bool,
}

impl SortOnce {
    /// A mapper observing over the default 500 ms first quantum.
    pub fn new() -> Self {
        SortOnce {
            quantum: SimTime::from_ms(500),
            placed: false,
        }
    }
}

impl Default for SortOnce {
    fn default() -> Self {
        SortOnce::new()
    }
}

impl Scheduler for SortOnce {
    fn name(&self) -> &str {
        "SortOnce"
    }

    fn initial_quantum(&self) -> SimTime {
        self.quantum
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        if self.placed {
            return;
        }
        self.placed = true;

        // Cores fastest-first; threads most-memory-intensive-first.
        let mut cores: Vec<usize> = (0..view.cores.len()).collect();
        cores.sort_by(|&a, &b| {
            view.cores[b]
                .kind
                .freq_hz
                .partial_cmp(&view.cores[a].kind.freq_hz)
                .expect("finite frequencies")
                .then(a.cmp(&b))
        });
        // Total order so corrupted (NaN) samples under fault injection
        // sort deterministically instead of panicking; identical to the
        // old partial order on healthy (finite, non-negative) rates.
        let mut threads: Vec<usize> = (0..view.threads.len()).collect();
        threads.sort_by(|&a, &b| {
            view.threads[b]
                .rates
                .llc_miss_rate
                .total_cmp(&view.threads[a].rates.llc_miss_rate)
                .then(view.threads[a].id.cmp(&view.threads[b].id))
        });
        // Assign thread k to core k of the sorted core list. Only emit
        // migrations for threads that actually move.
        for (k, &t) in threads.iter().enumerate() {
            let target = view.cores[cores[k]].id;
            if view.threads[t].vcore != target {
                actions.migrate(view.threads[t].id, target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine, SimTime, VCoreId};
    use dike_sched_core::run;
    use dike_workloads::{AppKind, Placement, Workload};

    #[test]
    fn sort_once_places_memory_threads_on_fast_cores_then_stops() {
        let mut machine = Machine::new(presets::small_machine(1));
        let mut w = Workload::plain("t", vec![AppKind::Jacobi, AppKind::Srad]);
        w.threads_per_app = 4;
        let spawned = w.spawn(&mut machine, Placement::Interleaved, 0.2);
        let mut sched = SortOnce::new();
        let r = run(&mut machine, &mut sched, SimTime::from_secs_f64(600.0));
        assert!(r.completed);
        // All migrations happened in the first decision; at most one per
        // thread.
        assert!(r.migrations <= 8, "migrations {}", r.migrations);
        // After placement, jacobi (memory) threads sat on fast cores
        // (vcores 0..4 on the small machine): each jacobi thread's final
        // vcore must be a fast one.
        let jacobi: Vec<_> = spawned.threads_of(dike_machine::AppId(0));
        for t in jacobi {
            let final_core = machine.vcore_of(t);
            assert!(
                final_core < VCoreId(4),
                "jacobi thread {t} ended on {final_core}"
            );
        }
    }
}
