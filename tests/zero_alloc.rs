//! Steady-state allocation discipline of the closed-system driver.
//!
//! The engine core's performance claim is structural: after the first few
//! quanta warm the driver's per-thread scratch buffers, a quantum performs **zero**
//! heap allocations — every per-quantum structure (the `SystemView`, its
//! CSR occupant table, the `Actions` buffer, fault draws, observer and
//! selector working sets) lives in reused storage. This test installs a
//! counting global allocator and measures the allocation delta between
//! consecutive quantum observations.
//!
//! Two policies, two strictness levels:
//!
//! * `Linux-CFS` (StaticSpread) issues no actions, so post-warmup quanta
//!   must allocate **exactly zero** — any regression in the driver or
//!   machine tick path fails here.
//! * `Dike` keeps per-run diagnostics (prediction error history) in
//!   growing `Vec`s, whose amortised doubling is O(log quanta) allocation
//!   events per run, not per quantum. Post-warmup quanta must be zero in
//!   the common case, with a small documented budget for those doublings.

use dike_repro::baselines::StaticSpread;
use dike_repro::dike::Dike;
use dike_repro::machine::{presets, Machine, SimTime};
use dike_repro::sched_core::{run_with, Scheduler};
use dike_repro::workloads::{paper, Placement};
use dike_util::CountingAllocator;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The counter is process-global and `cargo test` runs tests on parallel
/// threads, so each measurement holds this lock for its whole run: no
/// other test's allocations land between its samples.
static MEASURING: Mutex<()> = Mutex::new(());

fn measure_alone() -> MutexGuard<'static, ()> {
    // A poisoned lock only means the other measurement failed; this one
    // still runs alone.
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Quanta allowed to allocate while the scratch buffers grow to their
/// steady-state sizes (first view build, first observation, first
/// ranking). Everything after must obey the per-policy budget.
const WARMUP_QUANTA: usize = 3;

/// Run WL9 (mixed compute/memory, 40 threads) under `sched`, sampling the
/// allocation counter at every quantum observation; returns the per-quantum
/// allocation-event deltas after warmup.
fn post_warmup_deltas(sched: &mut dyn Scheduler) -> Vec<u64> {
    let mut machine = Machine::new(presets::paper_machine(42));
    paper::workload(9).spawn(&mut machine, Placement::Interleaved, 1.0);
    // Pre-size the sample buffer: pushing within capacity must not
    // allocate, or the probe would perturb the measurement.
    let mut samples: Vec<u64> = Vec::with_capacity(4096);
    let result = run_with(
        &mut machine,
        sched,
        SimTime::from_secs_f64(120.0),
        |_view| {
            assert!(
                samples.len() < samples.capacity(),
                "sample buffer too small"
            );
            samples.push(ALLOC.allocations());
        },
    );
    assert!(result.completed);
    assert!(
        samples.len() > WARMUP_QUANTA + 10,
        "run too short to measure steady state: {} quanta",
        samples.len()
    );
    samples
        .windows(2)
        .skip(WARMUP_QUANTA)
        .map(|w| w[1] - w[0])
        .collect()
}

#[test]
fn cfs_steady_state_allocates_nothing() {
    let _alone = measure_alone();
    let mut sched = StaticSpread::new();
    let deltas = post_warmup_deltas(&mut sched);
    let dirty: Vec<(usize, u64)> = deltas
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != 0)
        .map(|(i, &d)| (i + WARMUP_QUANTA, d))
        .collect();
    assert!(
        dirty.is_empty(),
        "driver/machine quantum path allocated after warmup: {dirty:?} (quantum, events)"
    );
}

#[test]
fn dike_steady_state_allocates_nothing_beyond_diagnostic_growth() {
    let _alone = measure_alone();
    let mut sched = Dike::new();
    let deltas = post_warmup_deltas(&mut sched);
    let total: u64 = deltas.iter().sum();
    let dirty_quanta = deltas.iter().filter(|&&d| d != 0).count();
    // Amortised doubling of the predictor's error-history vectors: a few
    // reallocation events across the whole run, never sustained
    // per-quantum churn.
    assert!(
        total <= 16,
        "Dike allocated {total} events post-warmup across {} quanta (deltas: {:?})",
        deltas.len(),
        deltas.iter().filter(|&&d| d != 0).collect::<Vec<_>>()
    );
    assert!(
        dirty_quanta * 10 <= deltas.len(),
        "allocations in {dirty_quanta}/{} post-warmup quanta — per-quantum churn, not amortised growth",
        deltas.len()
    );
}
