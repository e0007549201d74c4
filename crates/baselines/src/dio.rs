//! Distributed Intensity Online (DIO), the state-of-the-art comparison
//! point [Zhuravlev et al., ASPLOS 2010].
//!
//! As characterised by the Dike paper: "the scheduler measures last level
//! cache miss rates at runtime, sorts them from highest to lowest, and then
//! pairs threads by choosing one from top of the list (highest miss rate)
//! and one from bottom of the list (lowest miss rate) and swaps them" —
//! every quantum, unconditionally, "ignoring the overhead of thread
//! migrations". DIO was designed for homogeneous machines: it considers
//! neither core types nor migration cost, so about half its swaps exchange
//! two same-type cores (pure cost, no placement benefit) — exactly the
//! needless migrations Dike's predictor prevents.
//!
//! DIO swaps 4 extreme pairs (8 threads) per 500-ms quantum, which
//! matches both Dike's default `swapSize` (an overhead-matched comparison)
//! and the swap volume of the paper's Table III (DIO ≈ 2000 swaps over
//! runs of ~500 quanta).

use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SystemView};

/// DIO's quantum, in ms.
const QUANTUM_MS: u64 = 500;

/// Extreme pairs swapped per quantum.
const PAIRS_PER_QUANTUM: usize = 4;

/// The DIO scheduler.
#[derive(Debug, Clone)]
pub struct Dio {
    swaps: u64,
    /// Reusable miss-rate ordering buffer (no per-quantum allocation).
    order: Vec<usize>,
}

impl Dio {
    /// DIO with its standard 500 ms quantum and 4 pairs per quantum.
    pub fn new() -> Self {
        Dio {
            swaps: 0,
            order: Vec::new(),
        }
    }

    /// Swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }
}

impl Default for Dio {
    fn default() -> Self {
        Dio::new()
    }
}

impl Scheduler for Dio {
    fn name(&self) -> &str {
        "DIO"
    }

    fn initial_quantum(&self) -> SimTime {
        SimTime::from_ms(QUANTUM_MS)
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        let order = &mut self.order;
        order.clear();
        order.extend(0..view.threads.len());
        // Sort by LLC miss rate, highest first (ties by id for determinism).
        // Total order so corrupted (NaN) samples under fault injection
        // sort deterministically instead of panicking; identical to the
        // old partial order on healthy (finite, non-negative) rates — and
        // the id tiebreak makes the unstable sort result-identical to a
        // stable one.
        order.sort_unstable_by(|&a, &b| {
            view.threads[b]
                .rates
                .llc_miss_rate
                .total_cmp(&view.threads[a].rates.llc_miss_rate)
                .then(view.threads[a].id.cmp(&view.threads[b].id))
        });
        let n = order.len();
        for k in 0..(n / 2).min(PAIRS_PER_QUANTUM) {
            let hi = &view.threads[order[k]];
            let lo = &view.threads[order[n - 1 - k]];
            if hi.vcore != lo.vcore {
                actions.swap((hi.id, hi.vcore), (lo.id, lo.vcore));
                self.swaps += 1;
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
    fn dio_swaps_every_quantum() {
        let mut machine = Machine::new(presets::small_machine(1));
        let mut w = Workload::plain("t", vec![AppKind::Jacobi, AppKind::Srad]);
        w.threads_per_app = 4;
        w.spawn(&mut machine, Placement::Interleaved, 0.1);
        let mut dio = Dio::new();
        let r = run(&mut machine, &mut dio, SimTime::from_secs_f64(600.0));
        assert!(r.completed);
        // Roughly one swap per thread pair per quantum: with 8 threads and
        // q quanta, about 4q swaps (fewer in final quanta as threads finish).
        assert!(
            r.swaps as f64 > 2.0 * r.quanta as f64,
            "expected aggressive swapping: {} swaps over {} quanta",
            r.swaps,
            r.quanta
        );
        assert_eq!(dio.swaps(), r.swaps);
    }

    #[test]
    fn dio_pairs_extreme_miss_rates() {
        use dike_counters::RateSample;
        use dike_machine::topology::CoreKind;
        use dike_machine::{AppId, DomainId, ThreadCounters, ThreadId, VCoreId};
        use dike_sched_core::{CoreObservation, ThreadObservation};

        let threads: Vec<ThreadObservation> = [0.30, 0.01, 0.20, 0.05]
            .iter()
            .enumerate()
            .map(|(i, &mr)| ThreadObservation {
                id: ThreadId(i as u32),
                app: AppId(0),
                vcore: VCoreId(i as u32),
                rates: RateSample {
                    llc_miss_rate: mr,
                    ..RateSample::default()
                },
                cumulative: ThreadCounters::default(),
                migrated_last_quantum: false,
                llc_occupancy_mib: 0.0,
            })
            .collect();
        let cores = (0..4)
            .map(|c| CoreObservation {
                id: VCoreId(c),
                kind: CoreKind::FAST,
                domain: DomainId(0),
                bandwidth: 0.0,
            })
            .collect();
        let view = SystemView {
            now: SimTime::from_ms(500),
            quantum: SimTime::from_ms(500),
            threads,
            cores,
            ..SystemView::default()
        };
        let mut dio = Dio::new();
        let mut actions = Actions::default();
        dio.on_quantum(&view, &mut actions);
        // Highest (t0, 0.30) swaps with lowest (t1, 0.01); second highest
        // (t2) with second lowest (t3).
        assert_eq!(actions.migrations.len(), 4);
        assert_eq!(actions.migrations[0], (ThreadId(0), VCoreId(1)));
        assert_eq!(actions.migrations[1], (ThreadId(1), VCoreId(0)));
        assert_eq!(actions.migrations[2], (ThreadId(2), VCoreId(3)));
        assert_eq!(actions.migrations[3], (ThreadId(3), VCoreId(2)));
        assert_eq!(dio.swaps(), 2);
    }
}
