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
//!
//! Two more gates cover the open-system spawn path:
//!
//! * a whole fleet lap may allocate per machine, never per admitted
//!   thread: every spec shares its kind's program, so the lap stays under
//!   one allocation event per eight admitted threads;
//! * `drive` sizes a machine's per-thread columns once for its arrival
//!   plan, so admitting a long plan reallocates none of them.
//!
//! Two gates read live bytes rather than allocation events:
//!
//! * a fleet lap holds one machine's per-thread columns per worker at a
//!   time, retiring each machine into a compact record after its last
//!   epoch, and the runner holds nothing once the lap's result is
//!   dropped;
//! * a multi-epoch failover lap keeps hot per-thread rows only for the
//!   threads still running: each machine retires its finished threads at
//!   every epoch barrier, down to a 24-B history row each.

use dike_fleet::FleetRunner;
use dike_repro::baselines::StaticSpread;
use dike_repro::dike::Dike;
use dike_repro::experiments::{failover, fleet};
use dike_repro::machine::{presets, AppId, BarrierId, Machine, SimTime};
use dike_repro::sched_core::{drive, run_with, Scheduler, TimedSpawn};
use dike_repro::workloads::{paper, AppKind, Placement, ProgramTable};
use dike_util::{CountingAllocator, Pool};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocation events are counted per thread, but live and peak bytes are
/// process-wide and `cargo test` runs tests on parallel threads, so each
/// measurement holds this lock for its whole run: no other test's heap
/// lands between its samples.
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

/// Allocation events allowed per admitted thread in a fleet lap: one per
/// eight. A per-thread allocation in the spawn path (a spec that owns its
/// program or its name) costs one or more per thread and fails here.
const FLEET_THREADS_PER_ALLOCATION: u64 = 8;

#[test]
fn fleet_lap_allocates_per_machine_not_per_thread() {
    let _alone = measure_alone();
    let cfg = fleet::smoke_config(42);
    // One worker runs every machine on this thread, so one lap warms the
    // thread-local driver scratch that the measured lap reuses.
    let pool = Pool::new(1);
    FleetRunner::new(cfg.clone()).run(&pool);

    let runner = FleetRunner::new(cfg);
    let before = ALLOC.allocations();
    let result = runner.run(&pool);
    let events = ALLOC.allocations() - before;
    let admitted: u64 = result.machines.iter().map(|m| m.admitted).sum();
    assert!(
        admitted > 1_000,
        "smoke fleet admitted only {admitted} threads"
    );
    assert!(
        events * FLEET_THREADS_PER_ALLOCATION < admitted,
        "fleet lap allocated {events} events for {admitted} admitted threads \
         ({:.3} per thread; budget below {:.3})",
        events as f64 / admitted as f64,
        1.0 / FLEET_THREADS_PER_ALLOCATION as f64
    );
}

/// Allocation events allowed while `drive` admits a 2,000-thread plan
/// into a fresh machine. Sized once for the plan, each of the machine's
/// per-thread columns allocates once (about 40 events in all, with the
/// live-population buffers); grown by doubling, each reallocates about
/// nine times on the way to 2,000 rows (about 230).
const OPEN_PLAN_ALLOCATIONS: u64 = 100;

#[test]
fn open_run_sizes_the_machine_once_for_its_plan() {
    let _alone = measure_alone();
    let programs = ProgramTable::new(1e-4);
    let plan: Vec<TimedSpawn> = (0..2_000u32)
        .map(|i| TimedSpawn {
            at: SimTime::from_ms(u64::from(i)),
            spec: programs.spec(AppKind::LavaMd, AppId(i), BarrierId(i)),
        })
        .collect();
    let deadline = SimTime::from_secs_f64(60.0);
    let open_run = |plan: Vec<TimedSpawn>| {
        let mut machine = Machine::new(presets::small_machine(42));
        let mut sched = StaticSpread::new();
        let before = ALLOC.allocations();
        let (totals, _) = drive(&mut machine, &mut sched, deadline, plan, |_| {});
        let events = ALLOC.allocations() - before;
        assert!(totals.completed);
        assert_eq!(machine.num_threads(), 2_000);
        events
    };
    // The first run warms this thread's driver scratch.
    open_run(plan.clone());
    let events = open_run(plan);
    assert!(
        events < OPEN_PLAN_ALLOCATIONS,
        "admitting a 2,000-thread plan allocated {events} events \
         (budget {OPEN_PLAN_ALLOCATIONS}): a per-thread column grows mid-run"
    );
}

/// Live heap a smoke-fleet lap may peak at, per admitted thread, above
/// where it started. A retired machine leaves a 32-B span per thread, and
/// the barrier's specs (48 B each) and the roll-up's merged span list
/// (32 B) come and go; a machine that outlives its last epoch keeps a
/// 326-B row per thread in its per-thread columns and fails here.
const FLEET_PEAK_BYTES_PER_THREAD: u64 = 256;

/// Live heap a runner may still hold per admitted thread once its lap's
/// result is dropped: nothing but rounding.
const FLEET_HELD_BYTES_PER_THREAD: u64 = 4;

#[test]
fn fleet_lap_heap_follows_the_running_machines() {
    let _alone = measure_alone();
    let cfg = fleet::smoke_config(42);
    // One worker runs every machine on this thread; a warm-up lap on a
    // throwaway runner grows the thread-local driver scratch, so the
    // measured lap starts warm.
    let pool = Pool::new(1);
    FleetRunner::new(cfg.clone()).run(&pool);

    let runner = FleetRunner::new(cfg);
    let start = ALLOC.live();
    ALLOC.reset_peak();
    let result = runner.run(&pool);
    let peak = ALLOC.peak() - start;
    let admitted = result.total_arrivals;
    drop(result);
    let held = ALLOC.live().saturating_sub(start);
    assert!(
        admitted > 1_000,
        "smoke fleet admitted only {admitted} threads"
    );
    assert!(
        peak < FLEET_PEAK_BYTES_PER_THREAD * admitted,
        "fleet lap peaked at {peak} live bytes above its start for {admitted} admitted \
         threads ({:.0} per thread; budget {FLEET_PEAK_BYTES_PER_THREAD})",
        peak as f64 / admitted as f64
    );
    assert!(
        held < FLEET_HELD_BYTES_PER_THREAD * admitted,
        "the runner holds {held} live bytes after its lap for {admitted} admitted \
         threads ({:.1} per thread; budget {FLEET_HELD_BYTES_PER_THREAD}): a machine \
         outlives its run",
        held as f64 / admitted as f64
    );
    drop(runner);
}

/// Live heap a warm multi-epoch failover lap may peak at, per admitted
/// thread, above where it started. Each thread keeps a 24-B history row
/// and, at the roll-up, a 32-B span; its hot row (≈260 B) lives only
/// until the barrier after it finishes, and the barrier's specs (48 B
/// each) come and go. On `smoke_config(42)` the lap reads ≈209 B per
/// thread; with every finished thread's hot row kept until the roll-up
/// (and a 48-B event log entry pair per thread) it read ≈549 B and
/// failed.
const FAILOVER_PEAK_BYTES_PER_THREAD: u64 = 320;

#[test]
fn failover_lap_heap_follows_the_running_threads() {
    let _alone = measure_alone();
    let cfg = fleet::smoke_config(42);
    // The harshest cell of the failover sweep: crashes, brownouts and
    // re-dispatch, over the smoke fleet's 2-s epochs.
    let fo = failover::cell_config(
        failover::FAILOVER_CRASH_RATES[failover::FAILOVER_CRASH_RATES.len() - 1],
        failover::FAILOVER_BROWNOUT_RATES[failover::FAILOVER_BROWNOUT_RATES.len() - 1],
        failover::FAILOVER_BUDGETS[failover::FAILOVER_BUDGETS.len() - 1],
        true,
    );
    // A warm-up lap on a throwaway runner grows the thread-local driver
    // scratch, so the measured lap starts warm.
    let pool = Pool::new(1);
    FleetRunner::new(cfg.clone()).run_failover(&pool, &fo);

    let runner = FleetRunner::new(cfg);
    let start = ALLOC.live();
    ALLOC.reset_peak();
    let result = runner.run_failover(&pool, &fo);
    let peak = ALLOC.peak() - start;
    let admitted = result.total_arrivals;
    assert!(
        admitted > 1_000 && result.epochs > 2 && result.quarantines > 0,
        "the lap must admit work over several epochs under machine faults: \
         {admitted} threads, {} epochs, {} quarantines",
        result.epochs,
        result.quarantines
    );
    assert!(
        peak < FAILOVER_PEAK_BYTES_PER_THREAD * admitted,
        "failover lap peaked at {peak} live bytes above its start for {admitted} admitted \
         threads ({:.0} per thread; budget {FAILOVER_PEAK_BYTES_PER_THREAD}): finished \
         threads keep their hot rows",
        peak as f64 / admitted as f64
    );
}
