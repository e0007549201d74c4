//! The quantum driver: connects a policy to the machine.
//!
//! The driver advances the machine one scheduling quantum at a time, builds
//! a [`SystemView`] from counter deltas at each boundary, invokes the
//! scheduler, and applies the resulting migrations — mirroring a userspace
//! contention-aware scheduler daemon reading perf counters and calling
//! `sched_setaffinity` on a timer.
//!
//! [`drive`] is that loop, and every run enters it there. Its arrival plan
//! injects threads mid-run. Quantum boundaries stay on the regular grid
//! the policy chose; arrival instants split a quantum into sub-segments so
//! a thread starts executing at its arrival time, not at the next
//! boundary. An arrival with no idle vcore waits in a FIFO queue until a
//! departure frees a slot (slots are re-checked at every arrival instant
//! and quantum boundary). An empty machine idles forward to the next
//! arrival instead of terminating. A call stops at its deadline or when
//! the run drains, and hands back the work still undrained, so an epoch
//! caller can cut one run into slices.
//!
//! [`run`]/[`run_with`] are its closed form: every thread is spawned
//! before the driver starts, the plan is empty and the system runs to
//! empty — the paper's batch mixes. With an empty plan each quantum is a
//! single `run_for`, byte-identical to the pre-open-system driver
//! (enforced by the `golden_stability` fixtures in `dike-experiments`).
//!
//! Every call runs on one set of scratch buffers per OS thread and
//! through one observe/act path: the fault channel
//! ([`dike_machine::faults`]) draws on every call, and at zero rates every
//! draw returns nothing.

use crate::scheduler::Scheduler;
use crate::view::{Actions, CoreObservation, SystemView, ThreadObservation};
use dike_counters::RateSample;
use dike_machine::{
    CoreCounters, FaultHasher, FaultKind, Machine, PartitionPlan, SimTime, ThreadCounters,
    ThreadId, ThreadSpec, VCoreId,
};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A thread arrival scheduled for a future machine time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedSpawn {
    /// Machine time at which the thread arrives (rounded up to the tick
    /// grid by the driver).
    pub at: SimTime,
    /// What to spawn.
    pub spec: ThreadSpec,
}

/// Outcome of a driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Wall time when the run ended (all threads done, or the deadline).
    pub wall: SimTime,
    /// True if the run drained before the deadline: no thread alive, no
    /// arrival pending or queued.
    pub completed: bool,
    /// Per-thread results, in thread-id order.
    pub threads: Vec<ThreadResult>,
    /// Number of scheduling quanta executed.
    pub quanta: u64,
    /// Total migrations applied by the policy.
    pub migrations: u64,
    /// Completed swap operations, as in Table III: planner/selector pairs
    /// where *both* members actually moved. Under actuation faults a pair
    /// can lose one member (fail, or a delay that never lands); such a
    /// half-swap is not a swap — the old `migrations / 2` accounting
    /// miscounted exactly those runs.
    pub swaps: u64,
    /// Applied migrations that were not part of a swap pair: planner
    /// re-issues of lost members, explicit single-thread placements.
    /// Fault-free, `migrations == 2 * swaps + unilateral_migrations`.
    pub unilateral_migrations: u64,
    /// LLC partition plans actually applied to the machine (after the
    /// actuation fault channel; failed or invalid plans are not counted).
    pub partitions: u64,
}

/// One thread's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadResult {
    /// Thread id.
    pub id: ThreadId,
    /// Application index (dense; matches spawn order).
    pub app: u32,
    /// Application name.
    pub app_name: String,
    /// Time the thread was spawned (zero in a closed run; the arrival
    /// instant in an open run).
    pub spawned_at: SimTime,
    /// Completion time, if the thread finished.
    pub finished_at: Option<SimTime>,
    /// Final cumulative counters.
    pub counters: ThreadCounters,
}

impl ThreadResult {
    /// Sojourn (response) time in seconds: completion minus arrival, the
    /// quantity fairness normalises by in an open system. An unfinished
    /// thread is charged up to `wall` (a fairness-conservative choice: a
    /// straggler that never finished is maximally unfair). Equal to the
    /// absolute completion time in a closed run, where `spawned_at` is 0.
    pub fn sojourn_secs(&self, wall: SimTime) -> f64 {
        self.finished_at
            .unwrap_or(wall)
            .saturating_sub(self.spawned_at)
            .as_secs_f64()
    }
}

/// A driven run's scalar totals: a [`RunResult`] without its per-thread
/// list. [`drive`] returns only these; the per-thread state stays on the
/// machine, where [`RunResult::collect`] reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Wall time when the run ended (all threads done, or the deadline).
    pub wall: SimTime,
    /// True if the run drained before the deadline: no thread alive and
    /// no leftovers (no arrival pending or queued).
    pub completed: bool,
    /// Number of scheduling quanta executed.
    pub quanta: u64,
    /// Total migrations applied by the policy.
    pub migrations: u64,
    /// Completed swap operations (see [`RunResult::swaps`]).
    pub swaps: u64,
    /// Applied migrations that were not part of a swap pair.
    pub unilateral_migrations: u64,
    /// LLC partition plans actually applied to the machine.
    pub partitions: u64,
}

impl RunResult {
    /// Assemble a run's result from the totals [`drive`] returned and the
    /// machine's per-thread state: one [`ThreadResult`] per thread spawned
    /// since the machine's last reset, in id order.
    pub fn collect(scheduler: &str, totals: RunTotals, machine: &Machine) -> Self {
        RunResult {
            scheduler: scheduler.to_string(),
            wall: totals.wall,
            completed: totals.completed,
            threads: machine
                .thread_ids()
                .map(|id| ThreadResult {
                    id,
                    app: machine.app_of(id).0,
                    app_name: machine.app_name_of(id).to_string(),
                    spawned_at: machine.spawn_time(id),
                    finished_at: machine.finish_time(id),
                    counters: machine.counters(id),
                })
                .collect(),
            quanta: totals.quanta,
            migrations: totals.migrations,
            swaps: totals.swaps,
            unilateral_migrations: totals.unilateral_migrations,
            partitions: totals.partitions,
        }
    }

    /// Per-app thread sojourn times in seconds, for every app present.
    pub fn per_app_runtimes(&self) -> Vec<(u32, Vec<f64>)> {
        let mut apps: Vec<u32> = self.threads.iter().map(|t| t.app).collect();
        apps.sort_unstable();
        apps.dedup();
        apps.into_iter()
            .map(|app| (app, self.app_runtimes(app)))
            .collect()
    }

    /// Sojourn times of one app's threads, without rebuilding the whole
    /// per-app table.
    pub fn app_runtimes(&self, app: u32) -> Vec<f64> {
        self.threads
            .iter()
            .filter(|t| t.app == app)
            .map(|t| t.sojourn_secs(self.wall))
            .collect()
    }
}

/// A pair the policy requested this (or an earlier, delay-extended)
/// quantum, still waiting for both members' actuation outcomes.
#[derive(Debug, Clone, Copy)]
struct PendingPair {
    /// Globally unique pair token (monotone across quanta).
    token: u64,
    /// Members that actually changed placement.
    hits: u8,
    /// Members whose outcome is still unknown (delayed in flight).
    outstanding: u8,
}

/// Delayed-pair sentinel: the migration carries no pair (unilateral).
const NO_PAIR_TOKEN: u64 = u64::MAX;

/// A thread the observe step watches — live at the last view, or admitted
/// since — and what the driver last saw of it.
#[derive(Debug, Clone, Copy)]
struct Watched {
    id: ThreadId,
    /// Cumulative counters at the last view (or at admission).
    prev: ThreadCounters,
    /// Previous quantum's *true* rates, for stale-sample replay.
    last_rates: RateSample,
    /// Whether a true sample exists yet (a stale draw before the first
    /// sample has nothing to replay — see the dropout fallback).
    rate_seen: bool,
}

impl Watched {
    fn new(machine: &Machine, id: ThreadId) -> Self {
        Watched {
            id,
            prev: machine.counters(id),
            last_rates: RateSample::default(),
            rate_seen: false,
        }
    }
}

/// Reusable buffers for the driver's per-quantum work.
///
/// Everything the quantum loop needs — the [`SystemView`] (threads,
/// cores, CSR occupancy), the [`Actions`] passed to the policy, the watch
/// list of live threads, admission scratch — lives here and is reused
/// across quanta and across calls, so the steady-state loop performs no
/// heap allocation. There is one per OS thread (`SCRATCH`), reset at the
/// start of every call.
#[derive(Debug, Default)]
struct DriverScratch {
    view: SystemView,
    actions: Actions,
    /// The threads live at the last view plus those admitted since,
    /// ascending by id. The observe step walks only this list, so its
    /// cost follows the live population, not every thread the machine
    /// has run since its reset.
    watch: Vec<Watched>,
    prev_core: Vec<CoreCounters>,
    arrived: Vec<ThreadId>,
    occupied: Vec<bool>,
    idle: Vec<VCoreId>,
    occ_cursor: Vec<u32>,
    /// Migrations deferred by the delay channel: (land at quantum counter,
    /// thread, target, pair token or [`NO_PAIR_TOKEN`]). FIFO-ordered
    /// because the delay is constant.
    delayed: VecDeque<(u64, ThreadId, VCoreId, u64)>,
    pending_pairs: Vec<PendingPair>,
    /// A partition plan deferred by the actuation delay channel: (land at
    /// quantum counter, plan). At most one — a newer delayed plan
    /// supersedes an older one, mirroring the machine's whole-plan apply
    /// semantics.
    delayed_partition: Option<(u64, PartitionPlan)>,
}

impl DriverScratch {
    /// Clear all per-run state, retaining buffer capacity.
    fn reset(&mut self) {
        self.view.threads.clear();
        self.view.cores.clear();
        self.view.arrived.clear();
        self.view.departed.clear();
        self.view.occ_offsets.clear();
        self.view.occ_ids.clear();
        self.actions.clear();
        self.watch.clear();
        self.prev_core.clear();
        self.arrived.clear();
        self.occupied.clear();
        self.idle.clear();
        self.occ_cursor.clear();
        self.delayed.clear();
        self.pending_pairs.clear();
        self.delayed_partition = None;
    }
}

/// Record one member's actuation outcome on its pending pair.
fn credit_pair(pairs: &mut [PendingPair], token: u64, applied: bool) {
    if let Some(p) = pairs.iter_mut().find(|p| p.token == token) {
        p.outstanding -= 1;
        if applied {
            p.hits += 1;
        }
    }
}

/// Run `scheduler` over `machine` until all threads finish or `deadline`.
///
/// # Panics
///
/// As [`drive`]: when called from inside another run on the same thread.
pub fn run(machine: &mut Machine, scheduler: &mut dyn Scheduler, deadline: SimTime) -> RunResult {
    run_with(machine, scheduler, deadline, |_| {})
}

/// Like [`run`], additionally invoking `observer` with every view built at
/// a quantum boundary (used by the experiment harness to trace access
/// rates, prediction errors, utilisation, …). This is [`drive`] with an
/// empty arrival plan, its totals collected into a [`RunResult`].
///
/// # Panics
///
/// As [`drive`]: when called from inside another run on the same thread.
pub fn run_with(
    machine: &mut Machine,
    scheduler: &mut dyn Scheduler,
    deadline: SimTime,
    observer: impl FnMut(&SystemView),
) -> RunResult {
    let (totals, _) = drive(machine, scheduler, deadline, Vec::new(), observer);
    RunResult::collect(scheduler.name(), totals, machine)
}

std::thread_local! {
    /// The driver's one scratch set per OS thread. A harness that drives
    /// many runs back to back, or a fleet worker that drives hundreds of
    /// machines through many epochs, reuses one warm buffer set instead of
    /// reallocating per call.
    static SCRATCH: RefCell<DriverScratch> = RefCell::new(DriverScratch::default());
}

/// The driver loop: run `scheduler` over `machine`, admitting `arrivals`
/// as they fall due (see the module docs), until `deadline` or until the
/// run drains — no thread alive, nothing pending or queued.
///
/// Besides the run's totals it returns the work still undrained at the
/// deadline, so an epoch caller can feed it into the machine's next call
/// or re-dispatch it to a peer: queued specs first, due immediately
/// because they already arrived (FIFO order preserved — equal arrival
/// instants keep insertion order through the driver's stable sort), then
/// the plan entries not yet due, at their original instants. The
/// per-thread outcomes stay on the machine; [`RunResult::collect`] reads
/// them, and an epoch caller reads them once at the end of its run
/// rather than at every barrier.
///
/// Per call and per quantum the loop costs O(live threads): it walks the
/// watch list (threads alive at the call's start plus those it admits),
/// never the machine's whole thread history, so an epoch caller that
/// drives one machine through many short calls pays for what is running,
/// not for everything that ever ran. The thread's scratch buffers are
/// reset at the start of every call, so a call's result never depends on
/// what ran on the thread before.
///
/// # Panics
///
/// Calling `drive` (or [`run`]/[`run_with`]) from inside the scheduler or
/// the observer of another run on the same thread panics: both calls
/// would borrow the thread's one scratch set.
pub fn drive(
    machine: &mut Machine,
    scheduler: &mut dyn Scheduler,
    deadline: SimTime,
    arrivals: Vec<TimedSpawn>,
    mut observer: impl FnMut(&SystemView),
) -> (RunTotals, Vec<TimedSpawn>) {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.reset();
        let tick = machine.config().tick_us;
        let clamp_quantum = |q: SimTime| -> SimTime {
            let us = q.as_us().max(tick);
            SimTime::from_us(us - us % tick)
        };
        // The machine advances in whole ticks, so arrival instants round up to
        // the tick grid; equal-time arrivals keep their plan order.
        let mut pending: VecDeque<TimedSpawn> = {
            let mut a = arrivals;
            for ts in &mut a {
                let us = ts.at.as_us().div_ceil(tick) * tick;
                ts.at = SimTime::from_us(us);
            }
            a.sort_by_key(|ts| ts.at);
            a.into()
        };
        let mut waiting: VecDeque<ThreadSpec> = VecDeque::new();

        let mut quantum = clamp_quantum(scheduler.initial_quantum());
        let n_vcores = machine.config().topology.num_vcores();
        // Threads that finished before this call were reported (or, on a
        // fresh machine, never existed): only the live ones are watched.
        scratch
            .watch
            .extend(machine.alive_ids().map(|id| Watched::new(machine, id)));
        scratch
            .prev_core
            .extend((0..n_vcores).map(|v| machine.core_counters(VCoreId(v as u32))));
        // Reserve for the call's full live population up front so mid-run
        // arrivals and departures never grow a buffer: departures start
        // quanta after warmup, and a doubling there would break the
        // steady-state zero-allocation guarantee (see `tests/zero_alloc.rs`).
        scratch
            .view
            .departed
            .reserve(scratch.watch.len() + pending.len());
        scratch.arrived.reserve(pending.len());
        scratch.view.arrived.reserve(pending.len());
        scratch.watch.reserve(pending.len());

        // Core identity (id, kind, domain) is fixed at machine construction:
        // build the observation rows once and only refresh `bandwidth` per
        // quantum.
        for v in 0..n_vcores {
            let vid = VCoreId(v as u32);
            scratch.view.cores.push(CoreObservation {
                id: vid,
                kind: machine.config().topology.kind_of(vid),
                domain: machine.config().topology.domain_of(vid),
                bandwidth: 0.0,
            });
        }
        scratch.view.num_domains = machine.config().topology.num_domains();

        let mut quanta = 0u64;
        let migrations_before = machine.total_migrations();
        let mut swaps = 0u64;
        let mut unilateral = 0u64;
        let mut partitions = 0u64;
        let mut next_pair_token = 0u64;

        // Fault injection at the observe/act boundary (see `dike_machine::faults`).
        // Every call draws. At zero rates no draw fires (no telemetry or
        // actuation fault, a noise factor of exactly 1.0, no stall), so a
        // fault-free run applies nothing and stays byte-identical to the
        // committed goldens.
        let faults = machine.config().faults;
        let hasher = FaultHasher::new(&faults);

        // Admit everything due by `now`: move due plan entries to the wait
        // queue, then place queued specs (FIFO) on idle vcores, lowest id
        // first. Specs that find no slot stay queued until a departure frees
        // one.
        fn admit(
            machine: &mut Machine,
            pending: &mut VecDeque<TimedSpawn>,
            waiting: &mut VecDeque<ThreadSpec>,
            scratch: &mut DriverScratch,
        ) {
            while pending.front().is_some_and(|ts| ts.at <= machine.now()) {
                waiting.push_back(pending.pop_front().expect("checked front").spec);
            }
            if waiting.is_empty() {
                return;
            }
            machine.idle_vcores_into(&mut scratch.occupied, &mut scratch.idle);
            for i in 0..scratch.idle.len() {
                let Some(spec) = waiting.pop_front() else {
                    break;
                };
                let id = machine.spawn(spec, scratch.idle[i]);
                scratch.watch.push(Watched::new(machine, id));
                scratch.arrived.push(id);
            }
        }

        while machine.now() < deadline {
            admit(machine, &mut pending, &mut waiting, scratch);
            let open_work_left = !pending.is_empty() || !waiting.is_empty();
            if machine.all_done() && !open_work_left {
                break;
            }

            // One scheduling quantum, executed in sub-segments so that a
            // mid-quantum arrival starts running at its arrival instant. With
            // an empty plan this is a single `run_for(step)` — the closed
            // path, byte-identical to the pre-open-system driver.
            let remaining = deadline.saturating_sub(machine.now());
            let step = clamp_quantum(if quantum.as_us() < remaining.as_us() {
                quantum
            } else {
                remaining
            });
            let q_end = machine.now() + step;
            while machine.now() < q_end {
                let seg_end = match pending.front() {
                    Some(ts) if ts.at > machine.now() && ts.at < q_end => ts.at,
                    _ => q_end,
                };
                machine.run_for(seg_end.saturating_sub(machine.now()));
                if machine.now() < q_end {
                    admit(machine, &mut pending, &mut waiting, scratch);
                }
            }
            quanta += 1;

            if machine.all_done() && pending.is_empty() && waiting.is_empty() {
                break;
            }

            // Build the view from counter deltas, reusing the scratch-owned
            // buffers. A thread that arrived inside this quantum is observed
            // over the full quantum length (its rates slightly underestimate
            // its true rates for one quantum). Walking the ascending watch
            // list keeps `threads` and `departed` in id order; a thread that
            // finished is reported once and leaves the list.
            let dt_s = step.as_secs_f64();
            let q = quanta - 1;
            scratch.view.threads.clear();
            scratch.view.departed.clear();
            let view = &mut scratch.view;
            scratch.watch.retain_mut(|w| {
                let id = w.id;
                if machine.finish_time(id).is_some() {
                    view.departed.push(id);
                    return false;
                }
                let cur = machine.counters(id);
                let d = cur.delta(&w.prev);
                let mut rates = RateSample::from_deltas(
                    d.instructions,
                    d.llc_misses,
                    d.llc_accesses,
                    d.cycles,
                    dt_s,
                );
                w.prev = cur;
                let true_rates = rates;
                let mut fault = hasher.telemetry_fault(id.0, q);
                if fault == Some(FaultKind::Stale) && !w.rate_seen {
                    // A stale sensor with no prior sample has nothing to
                    // replay; replaying `RateSample::default()` would hand
                    // the policy an all-zero thread that looks idle. The
                    // faithful degradation is a missing sample.
                    fault = Some(FaultKind::Dropout);
                }
                if fault == Some(FaultKind::Dropout) {
                    // The sample is simply missing: the scheduler's view
                    // has no entry for this thread this quantum.
                    w.last_rates = true_rates;
                    w.rate_seen = true;
                    return true;
                }
                match fault {
                    Some(FaultKind::CorruptNan) => {
                        rates.access_rate = f64::NAN;
                        rates.llc_miss_rate = f64::NAN;
                    }
                    Some(FaultKind::CorruptZero) => rates = RateSample::default(),
                    Some(FaultKind::CorruptSaturate) => {
                        rates.access_rate = 1e15;
                        rates.instr_rate = 1e15;
                        rates.miss_ratio = 1.0;
                        rates.llc_miss_rate = 1.0;
                        rates.ipc = 0.0;
                    }
                    Some(FaultKind::Stale) => rates = w.last_rates,
                    _ => {}
                }
                let nf = hasher.noise_factor(id.0, q);
                if nf != 1.0 {
                    rates.access_rate *= nf;
                    rates.instr_rate *= nf;
                }
                w.last_rates = true_rates;
                w.rate_seen = true;
                view.threads.push(ThreadObservation {
                    id,
                    app: machine.app_of(id),
                    vcore: machine.vcore_of(id),
                    rates,
                    cumulative: cur,
                    migrated_last_quantum: d.migrations > 0,
                    llc_occupancy_mib: machine.llc_occupancy_mib(id),
                });
                true
            });
            for v in 0..n_vcores {
                let vid = VCoreId(v as u32);
                let cur = machine.core_counters(vid);
                let d = cur.delta(&scratch.prev_core[v]);
                scratch.prev_core[v] = cur;
                scratch.view.cores[v].bandwidth = d.accesses / dt_s;
            }

            // Per-core occupancy, from the machine's actual placement — not
            // from the observation list, which telemetry dropout thins out. A
            // thread whose sample went missing is still running on its core
            // and still occupies it. Counting sort over the alive list (which
            // is ascending) keeps occupants in id order per core.
            {
                let occ = &mut scratch.view.occ_offsets;
                occ.clear();
                occ.resize(n_vcores + 1, 0);
                for t in machine.alive_ids() {
                    occ[machine.vcore_of(t).index() + 1] += 1;
                }
                for v in 0..n_vcores {
                    occ[v + 1] += occ[v];
                }
                let total = occ[n_vcores] as usize;
                scratch.occ_cursor.clear();
                scratch.occ_cursor.extend_from_slice(&occ[..n_vcores]);
                scratch.view.occ_ids.clear();
                scratch.view.occ_ids.resize(total, ThreadId(0));
                for t in machine.alive_ids() {
                    let slot = &mut scratch.occ_cursor[machine.vcore_of(t).index()];
                    scratch.view.occ_ids[*slot as usize] = t;
                    *slot += 1;
                }
            }

            scratch.view.now = machine.now();
            scratch.view.quantum = step;
            scratch.view.quantum_index = q;
            scratch.view.partition_epoch = machine.partition_epoch();
            std::mem::swap(&mut scratch.view.arrived, &mut scratch.arrived);
            scratch.arrived.clear();

            observer(&scratch.view);

            scratch.actions.clear();
            scheduler.on_quantum(&scratch.view, &mut scratch.actions);

            // Swap accounting (Table III): a swap is only complete when both
            // members of a policy-requested pair actually changed placement.
            // Each pair opens a pending entry; members credit it as their
            // actuation outcome becomes known (immediately, or when a delayed
            // migration lands quanta later).
            let pair_base = next_pair_token;
            next_pair_token += scratch.actions.num_pairs() as u64;
            for p in 0..scratch.actions.num_pairs() {
                scratch.pending_pairs.push(PendingPair {
                    token: pair_base + p as u64,
                    hits: 0,
                    outstanding: 2,
                });
            }
            // Land migrations whose delay has elapsed. `Machine::migrate`
            // is a no-op when the thread has finished or already sits on
            // the target, so a late landing is never double-applied over a
            // placement the policy has since re-established.
            while scratch
                .delayed
                .front()
                .is_some_and(|&(due, ..)| due <= quanta)
            {
                let (_, t, v, token) = scratch.delayed.pop_front().expect("checked front");
                let applied = machine.finish_time(t).is_none() && machine.vcore_of(t) != v;
                machine.migrate(t, v);
                if token == NO_PAIR_TOKEN {
                    unilateral += u64::from(applied);
                } else {
                    credit_pair(&mut scratch.pending_pairs, token, applied);
                }
            }
            for i in 0..scratch.actions.migrations.len() {
                let (t, v) = scratch.actions.migrations[i];
                let tag = scratch.actions.pair_tag(i);
                match hasher.migration_fault(t.0, q) {
                    Some(FaultKind::MigrationFail) => {
                        // Silently lost; the pair member's outcome is known.
                        if let Some(g) = tag {
                            credit_pair(&mut scratch.pending_pairs, pair_base + g as u64, false);
                        }
                    }
                    Some(FaultKind::MigrationDelay) => {
                        let token = tag.map_or(NO_PAIR_TOKEN, |g| pair_base + g as u64);
                        scratch.delayed.push_back((
                            quanta + faults.migration_delay_quanta as u64,
                            t,
                            v,
                            token,
                        ));
                    }
                    _ => {
                        let applied = machine.finish_time(t).is_none() && machine.vcore_of(t) != v;
                        machine.migrate(t, v);
                        match tag {
                            Some(g) => credit_pair(
                                &mut scratch.pending_pairs,
                                pair_base + g as u64,
                                applied,
                            ),
                            None => unilateral += u64::from(applied),
                        }
                    }
                }
            }
            if faults.stall_rate > 0.0 {
                // Nothing has finished since the view, so the watch list
                // is exactly the live set, ascending.
                for w in &scratch.watch {
                    if hasher.stall(w.id.0, q) {
                        machine.stall(w.id, SimTime::from_us(faults.stall_us));
                    }
                }
            }
            // LLC partition actuation: land a delay-deferred plan first, then
            // route this quantum's plan (if any) through the same fault
            // channel migrations use (under a sentinel thread id — see
            // `FaultHasher::partition_fault`). The machine applies plans
            // wholesale, so there is at most one in flight; an invalid plan
            // is dropped, mirroring `Machine::migrate`'s silent no-op on a
            // stale target.
            if scratch
                .delayed_partition
                .as_ref()
                .is_some_and(|d| d.0 <= quanta)
            {
                let (_, plan) = scratch.delayed_partition.take().expect("checked above");
                partitions += u64::from(machine.apply_partition(&plan).is_ok());
            }
            if let Some(plan) = scratch.actions.partition.take() {
                match hasher.partition_fault(q) {
                    Some(FaultKind::MigrationFail) => {} // silently lost
                    Some(FaultKind::MigrationDelay) => {
                        // A newer delayed plan supersedes an older one, as a
                        // late `apply_partition` would.
                        scratch.delayed_partition =
                            Some((quanta + faults.migration_delay_quanta as u64, plan));
                    }
                    _ => partitions += u64::from(machine.apply_partition(&plan).is_ok()),
                }
            }
            // Resolve pairs whose members have all reported (delay-extended
            // pairs stay pending until their last member lands).
            scratch.pending_pairs.retain(|p| {
                if p.outstanding == 0 {
                    swaps += u64::from(p.hits == 2);
                    false
                } else {
                    true
                }
            });
            if let Some(q) = scratch.actions.set_quantum {
                quantum = clamp_quantum(q);
            }
        }

        let now = machine.now();
        let leftovers: Vec<TimedSpawn> = waiting
            .into_iter()
            .map(|spec| TimedSpawn { at: now, spec })
            .chain(pending)
            .collect();
        let totals = RunTotals {
            wall: now,
            completed: machine.all_done() && leftovers.is_empty(),
            quanta,
            migrations: machine.total_migrations() - migrations_before,
            swaps,
            unilateral_migrations: unilateral,
            partitions,
        };
        (totals, leftovers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::NullScheduler;
    use crate::view::SystemView;
    use dike_machine::{presets, AppId, Phase, PhaseProgram, ThreadSpec};

    fn spawn_pair(machine: &mut Machine) {
        for (i, vcore) in [(0u32, 0u32), (1, 4)] {
            machine.spawn(
                ThreadSpec {
                    app: AppId(i),
                    app_name: format!("app{i}"),
                    program: PhaseProgram::single(Phase::steady(0.8, 10.0, 2.0, 1e7), 2e9),
                    barrier: None,
                },
                VCoreId(vcore),
            );
        }
    }

    #[test]
    fn null_run_completes_and_reports() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert!(r.completed);
        assert_eq!(r.scheduler, "null");
        assert_eq!(r.threads.len(), 2);
        assert_eq!(r.migrations, 0);
        assert_eq!(r.swaps, 0);
        assert!(r.quanta > 0);
        assert!(r.threads.iter().all(|t| t.finished_at.is_some()));
        let per_app = r.per_app_runtimes();
        assert_eq!(per_app.len(), 2);
        // Thread on the slow core takes longer.
        assert!(r.app_runtimes(1)[0] > r.app_runtimes(0)[0]);
    }

    #[test]
    fn deadline_cuts_run_short() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let r = run(&mut m, &mut s, SimTime::from_ms(300));
        assert!(!r.completed);
        assert_eq!(r.wall, SimTime::from_ms(300));
        // Unfinished threads are charged the wall time.
        assert_eq!(r.app_runtimes(0), vec![0.3]);
    }

    #[test]
    fn observer_sees_views_with_rates() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut seen = 0;
        let mut last_rate = 0.0;
        run_with(
            &mut m,
            &mut s,
            SimTime::from_ms(500),
            |view: &SystemView| {
                seen += 1;
                assert_eq!(view.threads.len(), 2);
                assert_eq!(view.cores.len(), 8);
                last_rate = view.threads[0].rates.access_rate;
                assert_eq!(view.quantum, SimTime::from_ms(100));
            },
        );
        assert!(seen >= 4, "saw {seen} views");
        assert!(last_rate > 0.0);
    }

    /// A scheduler that swaps the two threads once, then changes quantum.
    struct SwapOnce {
        done: bool,
    }
    impl Scheduler for SwapOnce {
        fn name(&self) -> &str {
            "swap-once"
        }
        fn initial_quantum(&self) -> SimTime {
            SimTime::from_ms(100)
        }
        fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
            if !self.done && view.threads.len() == 2 {
                let a = &view.threads[0];
                let b = &view.threads[1];
                actions.swap((a.id, a.vcore), (b.id, b.vcore));
                actions.set_quantum = Some(SimTime::from_ms(200));
                self.done = true;
            }
        }
    }

    #[test]
    fn migrations_are_applied_and_counted() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = SwapOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.migrations, 2);
        assert_eq!(r.swaps, 1);
        assert_eq!(r.unilateral_migrations, 0);
        assert!(r.completed);
    }

    /// BUG regression: occupancy must come from the machine's placement,
    /// not the observation list. Under full telemetry dropout the view has
    /// no thread observations at all, yet both threads still occupy their
    /// cores and the policy must be able to see that.
    #[test]
    fn dropped_samples_do_not_vacate_occupancy() {
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            dropout_rate: 1.0,
            seed: 11,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut checked = 0;
        run_with(&mut m, &mut s, SimTime::from_ms(500), |view| {
            assert!(view.threads.is_empty(), "every sample must drop");
            if m_alive(view) {
                assert_eq!(view.occupants(VCoreId(0)), &[ThreadId(0)]);
                assert_eq!(view.occupants(VCoreId(4)), &[ThreadId(1)]);
                checked += 1;
            }
        });
        assert!(checked >= 4, "checked {checked} views");

        fn m_alive(view: &SystemView) -> bool {
            // Both threads outlive 500ms; every view sees them placed.
            view.departed.is_empty()
        }
    }

    /// BUG regression: a migration pair losing one member to an actuation
    /// fault is not a completed swap. The old `migrations / 2` accounting
    /// rounded lost and delayed members into phantom swap counts.
    #[test]
    fn lost_pair_member_is_not_counted_as_a_swap() {
        // Fail every migration: the swap is requested but nobody moves.
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_fail_rate: 1.0,
            seed: 3,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = SwapOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.migrations, 0);
        assert_eq!(r.swaps, 0, "a fully lost pair is not a swap");
        assert_eq!(r.unilateral_migrations, 0);

        // Delay every migration: both members land late but they do land,
        // so the pair eventually completes as exactly one swap.
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_delay_rate: 1.0,
            migration_delay_quanta: 2,
            seed: 3,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = SwapOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.migrations, 2);
        assert_eq!(r.swaps, 1, "a delayed pair that fully lands is a swap");
        assert_eq!(r.unilateral_migrations, 0);
    }

    /// A policy that issues one *single* migration (no pair) once.
    struct MoveOnce {
        done: bool,
    }
    impl Scheduler for MoveOnce {
        fn name(&self) -> &str {
            "move-once"
        }
        fn initial_quantum(&self) -> SimTime {
            SimTime::from_ms(100)
        }
        fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
            if !self.done && !view.threads.is_empty() {
                let t = &view.threads[0];
                actions.migrate(t.id, VCoreId(t.vcore.0 + 1));
                self.done = true;
            }
        }
    }

    #[test]
    fn single_migrations_count_as_unilateral_not_half_swaps() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = MoveOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.migrations, 1);
        // The old accounting reported `1 / 2 == 0` swaps by luck here, but
        // a second unilateral move anywhere would have minted a phantom
        // swap; they are now reported in their own channel.
        assert_eq!(r.swaps, 0);
        assert_eq!(r.unilateral_migrations, 1);
        assert_eq!(r.migrations, 2 * r.swaps + r.unilateral_migrations);
    }

    /// BUG regression: a stale-sample fault in a thread's *first* observed
    /// quantum used to replay `RateSample::default()` — an all-zero
    /// fabricated reading the machine never produced. It must degrade to
    /// a dropout (no sample) instead.
    #[test]
    fn first_quantum_stale_degrades_to_dropout() {
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            stale_rate: 1.0,
            seed: 9,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut first = true;
        let mut later_rates = Vec::new();
        run_with(&mut m, &mut s, SimTime::from_ms(500), |view| {
            if first {
                // No fabricated all-zero observations in the first view.
                assert!(
                    view.threads.is_empty(),
                    "first-quantum stale must present as dropout, got {:?}",
                    view.threads
                );
                first = false;
            } else {
                // Later quanta replay the previous *true* sample.
                for t in &view.threads {
                    later_rates.push(t.rates.access_rate);
                }
            }
        });
        assert!(!later_rates.is_empty());
        assert!(
            later_rates.iter().all(|&r| r > 0.0),
            "stale replays must be real past samples, got {later_rates:?}"
        );
    }

    /// Every call runs on its OS thread's one scratch set, reset per call:
    /// back-to-back runs on a thread whose scratch a faulted run left
    /// dirty (a swap pending with both members delayed past its
    /// deadline, a stale-replay history) match a run on a fresh thread
    /// exactly.
    #[test]
    fn reused_scratch_matches_a_fresh_thread() {
        fn open_run() -> RunResult {
            let mut m = Machine::new(presets::small_machine(1));
            spawn_pair(&mut m);
            let arrivals = vec![TimedSpawn {
                at: SimTime::from_ms(150),
                spec: spec_for(2, 5e7),
            }];
            let r = collect_drive(
                &mut m,
                &mut SwapOnce { done: false },
                60.0,
                arrivals,
                |_| {},
            );
            assert!(r.completed, "the open run drains");
            assert_eq!(r.swaps, 1);
            r
        }
        let fresh = std::thread::spawn(open_run).join().expect("fresh thread");

        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_delay_rate: 1.0,
            migration_delay_quanta: 5,
            stale_rate: 0.5,
            seed: 3,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        // Not `spawn_pair`'s vcores, so a leaked delayed member would land
        // somewhere the clean runs never place a thread.
        m.spawn(spec_for(0, 2e9), VCoreId(2));
        m.spawn(spec_for(1, 2e9), VCoreId(6));
        let dirty = run(&mut m, &mut SwapOnce { done: false }, SimTime::from_ms(300));
        assert_eq!(dirty.migrations, 0, "the delayed swap is still in flight");
        for _ in 0..2 {
            assert_eq!(open_run(), fresh);
        }
    }

    /// BUG regression: a run cut at its deadline with an arrival still
    /// pending has not drained, even though no thread is alive.
    #[test]
    fn pending_arrivals_leave_a_run_incomplete() {
        let mut m = Machine::new(presets::small_machine(1));
        let arrivals = vec![TimedSpawn {
            at: SimTime::from_ms(800),
            spec: spec_for(0, 2e7),
        }];
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let (totals, leftovers) = drive(&mut m, &mut s, SimTime::from_ms(500), arrivals, |_| {});
        assert_eq!(m.num_threads(), 0);
        assert_eq!(leftovers.len(), 1);
        assert_eq!(leftovers[0].at, SimTime::from_ms(800));
        assert!(!totals.completed, "an arrival is still pending");
    }

    #[test]
    fn quantum_is_clamped_to_ticks() {
        struct Odd;
        impl Scheduler for Odd {
            fn name(&self) -> &str {
                "odd"
            }
            fn initial_quantum(&self) -> SimTime {
                SimTime::from_us(1_500) // not a tick multiple
            }
            fn on_quantum(&mut self, _: &SystemView, _: &mut Actions) {}
        }
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        // Must not panic (run_for requires tick multiples).
        let r = run(&mut m, &mut Odd, SimTime::from_ms(10));
        assert!(r.quanta > 0);
    }

    /// [`drive`] to `deadline_s`, its totals collected into a result.
    fn collect_drive(
        machine: &mut Machine,
        scheduler: &mut dyn Scheduler,
        deadline_s: f64,
        arrivals: Vec<TimedSpawn>,
        observer: impl FnMut(&SystemView),
    ) -> RunResult {
        let deadline = SimTime::from_secs_f64(deadline_s);
        let (totals, _) = drive(machine, scheduler, deadline, arrivals, observer);
        RunResult::collect(scheduler.name(), totals, machine)
    }

    fn spec_for(app: u32, instructions: f64) -> ThreadSpec {
        ThreadSpec {
            app: AppId(app),
            app_name: format!("app{app}"),
            program: PhaseProgram::single(Phase::steady(0.8, 10.0, 2.0, 1e7), instructions),
            barrier: None,
        }
    }

    #[test]
    fn arrival_with_all_vcores_busy_queues_until_a_slot_frees() {
        let mut m = Machine::new(presets::small_machine(1));
        // Fill all 8 vcores: one short thread on vcore 0, seven long ones.
        // The short thread outlives the arrival instant, so the arrival
        // finds no idle vcore and must queue.
        m.spawn(spec_for(0, 2e8), VCoreId(0));
        for v in 1..8u32 {
            m.spawn(spec_for(v, 2e9), VCoreId(v));
        }
        let arrivals = vec![TimedSpawn {
            at: SimTime::from_ms(100),
            spec: spec_for(8, 2e7),
        }];
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let r = collect_drive(&mut m, &mut s, 120.0, arrivals, |_| {});
        assert!(r.completed);
        assert_eq!(r.threads.len(), 9);
        let freed = r.threads[0].finished_at.expect("short thread finishes");
        let queued = &r.threads[8];
        // The arrival was due at 100ms but no vcore was idle; it must wait
        // in the FIFO queue until the short thread departs.
        assert!(
            queued.spawned_at >= freed && queued.spawned_at > SimTime::from_ms(100),
            "spawned_at {:?} vs freed {:?}",
            queued.spawned_at,
            freed
        );
        // It takes the freed slot (the only idle vcore at admit time).
        assert_eq!(m.vcore_of(ThreadId(8)), VCoreId(0));
        // Sojourn time is measured from the actual spawn, not from zero.
        let sojourn = queued.sojourn_secs(r.wall);
        let total = queued.finished_at.unwrap().as_secs_f64();
        assert!(sojourn < total);
    }

    #[test]
    fn departure_mid_quantum_is_reported_once_in_departed() {
        let mut m = Machine::new(presets::small_machine(1));
        m.spawn(spec_for(0, 3e7), VCoreId(0)); // finishes mid-run
        m.spawn(spec_for(1, 2e9), VCoreId(1));
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut departures: Vec<(u64, Vec<ThreadId>)> = Vec::new();
        let mut seen_alive_after_departure = false;
        run_with(&mut m, &mut s, SimTime::from_secs_f64(60.0), |view| {
            if !view.departed.is_empty() {
                departures.push((view.quantum_index, view.departed.clone()));
            }
            if departures.len() == 1 && view.thread(ThreadId(0)).is_some() {
                seen_alive_after_departure = true;
            }
        });
        // Thread 0 departs exactly once and is gone from `threads` in the
        // same view and every later one.
        assert_eq!(departures.len(), 1, "departures: {departures:?}");
        assert_eq!(departures[0].1, vec![ThreadId(0)]);
        assert!(!seen_alive_after_departure);
        // The departure happened strictly inside a quantum, not at a
        // boundary the driver would have stopped at anyway.
        let fin = m.finish_time(ThreadId(0)).unwrap();
        assert_ne!(fin.as_us() % 100_000, 0, "finish at {fin:?}");
    }

    #[test]
    fn empty_machine_idles_until_first_arrival() {
        let mut m = Machine::new(presets::small_machine(1));
        // Arrival mid-quantum (550ms with a 100ms quantum) exercises the
        // sub-segment split: the thread starts at its arrival instant.
        // Long enough to outlive its arrival quantum, so the quantum's
        // view (with the `arrived` entry) is actually built.
        let arrivals = vec![TimedSpawn {
            at: SimTime::from_ms(550),
            spec: spec_for(0, 2e8),
        }];
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut first_arrival_view: Option<(SimTime, Vec<ThreadId>)> = None;
        let r = collect_drive(&mut m, &mut s, 60.0, arrivals, |view| {
            if !view.arrived.is_empty() && first_arrival_view.is_none() {
                first_arrival_view = Some((view.now, view.arrived.clone()));
            }
        });
        assert!(r.completed);
        assert_eq!(r.threads.len(), 1);
        assert_eq!(r.threads[0].spawned_at, SimTime::from_ms(550));
        assert!(r.threads[0].finished_at.unwrap() > SimTime::from_ms(550));
        // The machine idled forward through the empty quanta instead of
        // exiting: wall time covers the pre-arrival gap too.
        assert!(r.wall > SimTime::from_ms(550));
        // The arrival is reported in the view of the quantum it landed in.
        let (at, ids) = first_arrival_view.expect("arrival observed");
        assert_eq!(ids, vec![ThreadId(0)]);
        assert_eq!(at, SimTime::from_ms(600));
    }

    /// A policy that requests one LLC partition plan once.
    struct PartitionOnce {
        done: bool,
    }
    impl Scheduler for PartitionOnce {
        fn name(&self) -> &str {
            "partition-once"
        }
        fn initial_quantum(&self) -> SimTime {
            SimTime::from_ms(100)
        }
        fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
            if !self.done && view.threads.len() == 2 {
                let mut plan = PartitionPlan::new();
                plan.cluster_ways.push(4);
                plan.assignments.push((view.threads[0].id, 0));
                actions.partition = Some(plan);
                self.done = true;
            }
        }
    }

    #[test]
    fn partition_plans_are_applied_and_counted() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = PartitionOnce { done: false };
        let mut max_epoch = 0;
        let r = run_with(&mut m, &mut s, SimTime::from_secs_f64(60.0), |view| {
            max_epoch = max_epoch.max(view.partition_epoch);
        });
        assert!(r.completed);
        assert_eq!(r.partitions, 1);
        assert_eq!(r.migrations, 0);
        assert!(m.partition_active());
        assert_eq!(m.partition_epoch(), 1);
        // The view reported the advanced epoch back to the policy.
        assert_eq!(max_epoch, 1);
    }

    #[test]
    fn partition_faults_fail_and_delay_like_migrations() {
        // Fail every actuation: the plan is silently lost.
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_fail_rate: 1.0,
            seed: 3,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = PartitionOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.partitions, 0);
        assert!(!m.partition_active());
        assert_eq!(m.partition_epoch(), 0);

        // Delay every actuation: the plan lands quanta later, once.
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_delay_rate: 1.0,
            migration_delay_quanta: 2,
            seed: 3,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        spawn_pair(&mut m);
        let mut s = PartitionOnce { done: false };
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(60.0));
        assert_eq!(r.partitions, 1);
        assert!(m.partition_active());
        assert_eq!(m.partition_epoch(), 1);
    }

    #[test]
    fn views_report_llc_occupancy() {
        let mut m = Machine::new(presets::small_machine(1));
        spawn_pair(&mut m);
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let mut seen = 0;
        run_with(&mut m, &mut s, SimTime::from_ms(500), |view| {
            for t in &view.threads {
                // spawn_pair threads have a 2 MiB working set, well under
                // the unpartitioned 5 MiB LLC: occupancy is the full set.
                assert_eq!(t.llc_occupancy_mib, 2.0);
                seen += 1;
            }
        });
        assert!(seen >= 8, "saw {seen} occupancy samples");
    }

    #[test]
    fn arrivals_round_up_to_tick_grid_and_keep_plan_order() {
        let mut m = Machine::new(presets::small_machine(1));
        let arrivals = vec![
            TimedSpawn {
                at: SimTime::from_us(1_499), // rounds up to 2ms
                spec: spec_for(0, 2e7),
            },
            TimedSpawn {
                at: SimTime::from_us(2_000), // same tick, later in plan
                spec: spec_for(1, 2e7),
            },
        ];
        let mut s = NullScheduler::new(SimTime::from_ms(100));
        let r = collect_drive(&mut m, &mut s, 60.0, arrivals, |_| {});
        assert!(r.completed);
        assert_eq!(r.threads[0].spawned_at, SimTime::from_ms(2));
        assert_eq!(r.threads[1].spawned_at, SimTime::from_ms(2));
        // Stable sort: plan order decides ids for equal-time arrivals.
        assert_eq!(r.threads[0].app, 0);
        assert_eq!(r.threads[1].app, 1);
    }
}
