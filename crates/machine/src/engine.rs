//! The tick-based execution engine.
//!
//! [`Machine`] advances simulated time in fixed ticks (default 1 ms). In each
//! tick it:
//!
//! 1. determines which threads are runnable (alive, not parked at a barrier,
//!    outside migration dead time) and how each virtual core's time is
//!    shared among its runnable threads;
//! 2. applies SMT interference (busy sibling contexts shrink pipeline share);
//! 3. computes each thread's *effective* miss ratio: the phase's intrinsic
//!    ratio, inflated by shared-LLC pressure, post-migration cache warm-up,
//!    and deterministic burstiness noise;
//! 4. solves each memory controller's contention fixed point for achieved
//!    instruction rates ([`crate::contention::NumaWarmSolver`]; the paper
//!    machine is the one-controller case);
//! 5. advances threads, clamping at phase boundaries, barrier points and
//!    program completion, and accumulates per-thread and per-core counters.
//!
//! Stages 1–4 run only when an event changed their inputs, and between
//! events [`Machine::run_for`] advances whole quiescent stretches in one
//! pass (see `Machine::step`); every path is bit-identical to ticking
//! one tick at a time.
//!
//! Everything is deterministic given [`crate::config::MachineConfig::seed`]:
//! the only stochastic element, phase burstiness, is derived from a hash of
//! `(seed, thread, coarse tick)`, so a thread's intrinsic behaviour over time
//! does not depend on scheduling decisions — exactly the property needed to
//! compare schedulers fairly.

use crate::config::MachineConfig;
use crate::contention::{llc_inflation, llc_inflation_scaled, MemDemand, NumaWarmSolver};
use crate::ids::{AppId, BarrierId, DomainId, SimTime, ThreadId, VCoreId};
use crate::partition::PartitionPlan;
use crate::phase::Phase;
use crate::thread::{CoreCounters, ThreadCounters, ThreadSlab, ThreadSpec};
use std::collections::BTreeMap;

/// Notable events, for logs and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineEvent {
    /// A thread was spawned on a core.
    Spawned { thread: ThreadId, vcore: VCoreId },
    /// A thread migrated between cores.
    Migrated {
        thread: ThreadId,
        from: VCoreId,
        to: VCoreId,
        at: SimTime,
    },
    /// A thread retired all its instructions.
    Finished { thread: ThreadId, at: SimTime },
    /// The substrate load balancer moved a thread to an idle context.
    Balanced {
        thread: ThreadId,
        from: VCoreId,
        to: VCoreId,
        at: SimTime,
    },
    /// A transient stall was injected: the thread makes no progress until
    /// `until` (fault injection, see [`crate::faults`]).
    Stalled {
        thread: ThreadId,
        at: SimTime,
        until: SimTime,
    },
}

/// Coarseness of the burstiness noise: the pseudo-random miss-ratio
/// fluctuation is held constant for this many consecutive ticks, giving
/// bursts a realistic multi-millisecond duration.
const NOISE_WINDOW_TICKS: u64 = 8;

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    tick_index: u64,
    /// Per-thread state, as structure-of-arrays slabs indexed by dense id.
    threads: ThreadSlab,
    vcore_counters: Vec<CoreCounters>,
    events: Vec<MachineEvent>,
    /// Barrier bookkeeping: group -> member thread ids.
    barrier_groups: BTreeMap<BarrierId, Vec<ThreadId>>,
    /// Moves performed by the substrate balancer (not counted as policy
    /// migrations).
    balancer_moves: u64,
    /// Policy migrations across all threads — the sum of every thread's
    /// `migrations` counter, kept by [`Machine::migrate`] so reading it is
    /// O(1) rather than a walk over every thread ever spawned.
    policy_migrations: u64,
    /// Which vcores sit in the balancer's "fast half" (frequency at or
    /// above the median). The topology is immutable after construction, so
    /// this is computed once instead of re-sorting frequencies every
    /// balance interval.
    balance_fast: Vec<bool>,
    /// True when every vcore lands on the same side of the median split
    /// (homogeneous machine): the balancer then only spreads doubled-up
    /// contexts.
    balance_homogeneous: bool,
    /// Per-thread burstiness-noise cache: the hashed unit draw is constant
    /// within a noise window (`tick_index / NOISE_WINDOW_TICKS`), so it is
    /// recomputed only when the window changes.
    noise_window: Vec<u64>,
    noise_unit: Vec<f64>,
    /// Dense ids of unfinished threads, ascending. Spawns append (ids are
    /// monotone), completions remove — so every per-tick sweep walks only
    /// the live population instead of everything ever spawned.
    alive: Vec<u32>,
    /// Physical core of each vcore, flattened from the (immutable)
    /// topology so the SMT-interference test is two array loads instead of
    /// a sibling-list walk.
    vcore_pcore: Vec<u32>,
    /// Frequency of each vcore, likewise flattened.
    vcore_freq: Vec<f64>,
    /// Cycles each vcore clocks per tick (`freq · dt`), the per-tick
    /// `cycles` step of every thread running on it.
    vcore_cycles: Vec<f64>,
    // Per-thread cached tick state, indexed by dense thread id. Written
    // by the rebuild stages, read by the advance stage; between rebuilds
    // of a thread's domain the entries stay exact (the boundary entry is
    // a decayed lower bound, re-walked exactly in the advance slow path).
    thread_phase: Vec<Phase>,
    thread_boundary: Vec<f64>,
    thread_demand: Vec<MemDemand>,
    thread_rate: Vec<f64>,
    /// The step cache: a fast-path tick's LLC-miss and LLC-access
    /// increments, `a·mr` and `a·max(apki/1000, mr)` with `a = rate·dt`,
    /// stored whenever the thread's controller is solved (its rate, miss
    /// ratio and phase are then all current).
    thread_step_miss: Vec<f64>,
    thread_step_access: Vec<f64>,
    /// Phase freshness: true while `thread_phase` is the phase at the
    /// thread's `retired` count and `thread_boundary` a lower bound on the
    /// distance to its next boundary. Only fast-path advances happened
    /// since the lookup, and each stays a full instruction short of that
    /// bound, so a rebuild may skip the walk. Cleared at spawn and by every
    /// slow-path advance.
    phase_fresh: Vec<bool>,
    /// No dead time or warm-up of a live thread can be crossed before this
    /// instant: every such instant later than the last rebuild is at or
    /// after it. The expiry scan runs only once `now` reaches it and then
    /// re-arms it; every writer of `dead_until`/`warmup_until` lowers it.
    next_expiry: SimTime,
    /// Set by every state mutation (spawn, migration, stall, balancer
    /// move, completion, barrier traffic, phase-boundary crossing). While
    /// clear, the per-tick scratch state built by the last full tick still
    /// describes the machine exactly, so [`Machine::tick`] may take its
    /// quiescent fast path.
    state_dirty: bool,
    /// Noise window (`tick_index / NOISE_WINDOW_TICKS`) in which the
    /// scratch state was last rebuilt: a window change redraws burstiness
    /// noise, so quiescent ticks require the window to match.
    memo_window: u64,
    /// Simulated time at which the scratch state was last rebuilt. A dead
    /// time or cache warm-up expiring between this instant and the current
    /// tick changes runnability or an effective miss ratio without any
    /// event firing; the per-tick expiry scan detects exactly those
    /// *crossings* (an expiry still in the future leaves every cached
    /// branch outcome unchanged, so it forces nothing until it happens).
    cache_now: SimTime,
    // Per-tick scratch buffers, reused so steady-state ticks allocate
    // nothing at all.
    scratch_vcore_load: Vec<u32>,
    scratch_pcore_load: Vec<u32>,
    scratch_vcore_busy: Vec<bool>,
    scratch_finished: Vec<ThreadId>,
    scratch_occupancy: Vec<u32>,
    scratch_moves: Vec<(ThreadId, VCoreId)>,
    /// The runnable threads of a span, in alive order.
    scratch_span: Vec<u32>,
    // Incremental-rebuild state, per NUMA domain (a single domain on the
    // paper machine).
    /// NUMA domain of each vcore, flattened from the immutable topology.
    vcore_domain: Vec<u32>,
    /// Run domains whose cached loads/LLC/demands no longer match the
    /// machine. Every event marks the domain(s) it touches; a rebuild
    /// refreshes exactly the marked ones.
    dirty_domains: Vec<bool>,
    /// Memory controllers whose demand sub-vector may have moved and must
    /// be re-presented to the warm solver (which skips bitwise-unchanged
    /// inputs outright).
    stale_ctrls: Vec<bool>,
    /// Alive thread ids currently *running* in each domain, ascending —
    /// the per-domain walk list of the incremental rebuild. Ascending
    /// order keeps every float accumulation in global thread order, which
    /// is what makes the partial rebuild bit-identical to a full one.
    run_members: Vec<Vec<u32>>,
    /// Alive thread ids *homed* to each controller, ascending — the
    /// presentation order of each controller's demand sub-vector.
    home_members: Vec<Vec<u32>>,
    /// Alive threads running outside their home domain. While zero (always
    /// on the one-domain paper machine), each domain's runnable members
    /// are exactly its controller's runnable home members, in the same
    /// order, so the rebuild presents every controller straight from its
    /// domain's walk.
    n_remote: usize,
    /// Per-domain shared-LLC inflation factor, persistent across ticks so
    /// clean domains keep theirs.
    domain_llc: Vec<f64>,
    /// Per-controller memoised fixed-point solver (reuses a solution only
    /// on identical inputs, so results stay bit-identical to the cold
    /// reference).
    ctrl_solver: NumaWarmSolver,
    // The controller sub-vector being presented to the solver: demands,
    // latency factors and the member each entry belongs to. Stage 1 of a
    // domain's rebuild also leaves the domain's runnable members in
    // `ctrl_scratch_members`.
    ctrl_scratch_demands: Vec<MemDemand>,
    ctrl_scratch_factors: Vec<f64>,
    ctrl_scratch_members: Vec<u32>,
    // LLC way-partitioning state (the second actuator). All of it is
    // inert until a non-empty plan is applied: while `partition_active`
    // is false the rebuild stages read none of these fields, keeping the
    // unpartitioned trajectory bit-identical to the pre-partitioning
    // engine.
    /// Currently applied plan (empty when unpartitioned).
    partition: PartitionPlan,
    /// True while a non-empty plan is in force.
    partition_active: bool,
    /// Bumped on every successful partition application or clear — the
    /// actuation layer verifies against this, the way migration actuation
    /// verifies against placement.
    partition_epoch: u64,
    /// Per-thread cluster id (`u32::MAX` = shared pool), dense thread
    /// index. Threads spawned after an application land in the shared
    /// pool until the next plan names them.
    thread_cluster: Vec<u32>,
    /// Capacity (MiB) of each cluster's slice; last slot = shared pool.
    cluster_capacity_mib: Vec<f64>,
    /// Per-rebuild per-slot runnable working-set sums and inflation
    /// factors (scratch, reused per domain).
    scratch_cluster_ws: Vec<f64>,
    scratch_cluster_llc: Vec<f64>,
}

impl Machine {
    /// Create an empty machine.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let n_vcores = cfg.topology.num_vcores();
        // Split vcores into the faster and slower halves by median
        // frequency, once: the topology never changes after construction.
        let balance_fast: Vec<bool> = if n_vcores == 0 {
            Vec::new()
        } else {
            let mut freqs: Vec<f64> = (0..n_vcores)
                .map(|v| cfg.topology.freq_of(VCoreId(v as u32)))
                .collect();
            freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = freqs[n_vcores / 2];
            (0..n_vcores)
                .map(|v| cfg.topology.freq_of(VCoreId(v as u32)) >= median)
                .collect()
        };
        let balance_homogeneous =
            balance_fast.iter().all(|&f| f) || !balance_fast.iter().any(|&f| f);
        let vcore_pcore: Vec<u32> = (0..n_vcores)
            .map(|v| cfg.topology.physical_of(VCoreId(v as u32)).0)
            .collect();
        let vcore_freq: Vec<f64> = (0..n_vcores)
            .map(|v| cfg.topology.freq_of(VCoreId(v as u32)))
            .collect();
        let dt_s = cfg.tick_us as f64 / 1e6;
        let vcore_cycles: Vec<f64> = vcore_freq.iter().map(|&f| f * dt_s).collect();
        let num_domains = cfg.topology.num_domains();
        let n_pcores = cfg.topology.num_pcores();
        let vcore_domain: Vec<u32> = (0..n_vcores)
            .map(|v| cfg.topology.domain_of(VCoreId(v as u32)).0)
            .collect();
        Machine {
            cfg,
            now: SimTime::ZERO,
            tick_index: 0,
            threads: ThreadSlab::default(),
            vcore_counters: vec![CoreCounters::default(); n_vcores],
            // The event log accumulates for the whole run. Pre-size it so
            // a Finished/Migrated push in steady state never pays an
            // amortised doubling (`tests/zero_alloc.rs`); unusually
            // migration-heavy runs fall back to O(log n) growth.
            events: Vec::with_capacity(1024),
            barrier_groups: BTreeMap::new(),
            balancer_moves: 0,
            policy_migrations: 0,
            balance_fast,
            balance_homogeneous,
            noise_window: Vec::new(),
            noise_unit: Vec::new(),
            alive: Vec::new(),
            vcore_pcore,
            vcore_freq,
            vcore_cycles,
            thread_phase: Vec::new(),
            thread_boundary: Vec::new(),
            thread_demand: Vec::new(),
            thread_rate: Vec::new(),
            thread_step_miss: Vec::new(),
            thread_step_access: Vec::new(),
            phase_fresh: Vec::new(),
            next_expiry: SimTime::ZERO,
            // Dirty until the first full tick builds the scratch state.
            state_dirty: true,
            memo_window: u64::MAX,
            cache_now: SimTime::ZERO,
            // Sized once: a rebuild resets only the entries it counts.
            scratch_vcore_load: vec![0; n_vcores],
            scratch_pcore_load: vec![0; n_pcores],
            scratch_vcore_busy: Vec::new(),
            scratch_finished: Vec::new(),
            scratch_occupancy: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_span: Vec::new(),
            vcore_domain,
            dirty_domains: vec![false; num_domains],
            stale_ctrls: vec![false; num_domains],
            run_members: vec![Vec::new(); num_domains],
            home_members: vec![Vec::new(); num_domains],
            n_remote: 0,
            domain_llc: vec![1.0; num_domains],
            ctrl_solver: NumaWarmSolver::new(num_domains),
            ctrl_scratch_demands: Vec::new(),
            ctrl_scratch_factors: Vec::new(),
            ctrl_scratch_members: Vec::new(),
            partition: PartitionPlan::new(),
            partition_active: false,
            partition_epoch: 0,
            thread_cluster: Vec::new(),
            cluster_capacity_mib: Vec::new(),
            scratch_cluster_ws: Vec::new(),
            scratch_cluster_llc: Vec::new(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spawn a thread pinned to `vcore`. The thread's memory is homed to
    /// the NUMA domain of that core (first touch **at actual spawn time** —
    /// a mid-run arrival homes to wherever it first lands) and stays there
    /// for life: later migrations change where the thread *runs*, not where
    /// its misses are serviced. Thread ids are dense and stable: the `n`-th
    /// spawn — whether at `t = 0` or mid-run — is `ThreadId(n)`, and ids
    /// are never reused after retirement.
    ///
    /// # Panics
    /// Panics if the spec is invalid or the core id is out of range.
    pub fn spawn(&mut self, spec: ThreadSpec, vcore: VCoreId) -> ThreadId {
        spec.validate().expect("invalid thread spec");
        assert!(
            vcore.index() < self.cfg.topology.num_vcores(),
            "vcore {vcore} out of range"
        );
        let id = ThreadId(self.threads.len() as u32);
        if let Some(b) = &spec.barrier {
            self.barrier_groups.entry(b.group).or_default().push(id);
        }
        let home = self.cfg.topology.domain_of(vcore);
        // Placeholder cached state: the spawn dirties the thread's domain,
        // so the next rebuild overwrites these before the advance stage
        // ever reads them.
        let phase0 = *spec
            .program
            .phase_at(0.0)
            .expect("validated program has a first phase");
        self.threads.push(spec, vcore, home, self.now);
        self.noise_window.push(u64::MAX);
        self.noise_unit.push(0.0);
        self.thread_phase.push(phase0);
        self.thread_boundary.push(0.0);
        self.thread_demand.push(MemDemand {
            base_time_per_instr: 0.0,
            miss_ratio: 0.0,
        });
        self.thread_rate.push(0.0);
        self.thread_step_miss.push(0.0);
        self.thread_step_access.push(0.0);
        self.phase_fresh.push(false);
        self.thread_cluster.push(u32::MAX);
        // Ids are monotone, so appending keeps the alive list ascending.
        self.alive.push(id.0);
        self.state_dirty = true;
        let d = self.vcore_domain[vcore.index()] as usize;
        self.run_members[d].push(id.0);
        self.home_members[home.index()].push(id.0);
        self.dirty_domains[d] = true;
        self.stale_ctrls[home.index()] = true;
        // Migrations shuffle membership lists mid-run: keep every list
        // (and the controller sub-vector scratch) sized for the whole live
        // population so a binary-search insert never reallocates. Every
        // list holds live threads only, so sizing by the threads ever
        // spawned would grow each one with the run's history instead.
        let n = self.alive.len();
        for v in &mut self.run_members {
            v.reserve(n - v.len());
        }
        for v in &mut self.home_members {
            v.reserve(n - v.len());
        }
        self.ctrl_scratch_demands.reserve(n);
        self.ctrl_scratch_factors.reserve(n);
        self.ctrl_scratch_members.reserve(n);
        // Every live thread can finish in the same tick, and the balancer
        // can move every live thread at once: keep those scratches sized
        // for the worst case now, so the first completion (which is also
        // what first wakes the balancer) never allocates mid-run.
        self.scratch_finished.reserve(n);
        self.scratch_moves.reserve(n);
        self.scratch_span.reserve(n);
        self.events
            .push(MachineEvent::Spawned { thread: id, vcore });
        id
    }

    /// Mark thread `i`'s current run domain dirty and its home controller
    /// stale. Every event that can change the thread's runnability,
    /// placement or demand must call this — for moves, once per endpoint.
    fn mark_thread_dirty(&mut self, i: usize) {
        let d = self.vcore_domain[self.threads.vcore[i].index()] as usize;
        self.dirty_domains[d] = true;
        self.stale_ctrls[self.threads.home_domain[i].index()] = true;
    }

    /// Move thread `i` between per-domain run-membership lists, keeping
    /// both ascending, and count it as remote while it runs away from home.
    fn move_run_member(&mut self, i: u32, from_d: usize, to_d: usize) {
        if from_d == to_d {
            return;
        }
        let list = &mut self.run_members[from_d];
        if let Ok(pos) = list.binary_search(&i) {
            list.remove(pos);
        }
        let list = &mut self.run_members[to_d];
        if let Err(pos) = list.binary_search(&i) {
            list.insert(pos, i);
        }
        let home = self.threads.home_domain[i as usize].index();
        self.n_remote = self.n_remote + usize::from(to_d != home) - usize::from(from_d != home);
    }

    /// Record a newly written dead-time or warm-up instant: the cached next
    /// expiry may only move earlier.
    fn note_expiry(&mut self, at: SimTime) {
        self.next_expiry = self.next_expiry.min(at);
    }

    /// Move a thread to another virtual core. A move to the thread's current
    /// core is a no-op; a real move costs the configured dead time and cache
    /// warm-up and increments the thread's migration counter. A move that
    /// crosses NUMA domains refills its cache from a remote controller, so
    /// the warm-up window stretches by
    /// [`crate::config::MigrationConfig::cross_domain_warmup_factor`].
    pub fn migrate(&mut self, thread: ThreadId, to: VCoreId) {
        assert!(
            to.index() < self.cfg.topology.num_vcores(),
            "vcore {to} out of range"
        );
        let i = thread.index();
        if self.threads.finished(i) || self.threads.vcore[i] == to {
            return;
        }
        let from = self.threads.vcore[i];
        // Both endpoints change state: the source domain loses the thread's
        // load/LLC share, the destination gains it (once runnable again),
        // and the home controller's sub-vector moves either way.
        self.mark_thread_dirty(i);
        self.threads.vcore[i] = to;
        self.mark_thread_dirty(i);
        self.move_run_member(
            thread.0,
            self.vcore_domain[from.index()] as usize,
            self.vcore_domain[to.index()] as usize,
        );
        self.threads.dead_until[i] = self.now + SimTime::from_us(self.cfg.migration.dead_time_us);
        // Warm-up scales with the thread's current working set: a large
        // footprint takes proportionally longer to refill on the new core.
        let ws_mib = self.threads.specs[i]
            .program
            .phase_at(self.threads.retired[i])
            .map(|p| p.working_set_mib)
            .unwrap_or(0.0);
        let mut warmup = self.cfg.migration.warmup_us
            + (ws_mib * self.cfg.migration.warmup_us_per_mib as f64) as u64;
        if self.cfg.topology.domain_of(from) != self.cfg.topology.domain_of(to) {
            warmup = (warmup as f64 * self.cfg.migration.cross_domain_warmup_factor) as u64;
        }
        self.threads.warmup_until[i] =
            self.now + SimTime::from_us(self.cfg.migration.dead_time_us + warmup);
        self.note_expiry(self.threads.dead_until[i]);
        self.note_expiry(self.threads.warmup_until[i]);
        self.threads.counters[i].migrations += 1;
        self.policy_migrations += 1;
        self.state_dirty = true;
        self.events.push(MachineEvent::Migrated {
            thread,
            from,
            to,
            at: self.now,
        });
    }

    /// Inject a transient stall: the thread makes no progress for `dur`
    /// from now (fault injection; extends, never shortens, any dead time
    /// already pending from a migration). No-op on finished threads.
    pub fn stall(&mut self, thread: ThreadId, dur: SimTime) {
        let now = self.now;
        let i = thread.index();
        if self.threads.finished(i) || dur == SimTime::ZERO {
            return;
        }
        let until = now + dur;
        if until <= self.threads.dead_until[i] {
            return;
        }
        self.threads.dead_until[i] = until;
        self.note_expiry(until);
        self.mark_thread_dirty(i);
        self.state_dirty = true;
        self.events.push(MachineEvent::Stalled {
            thread,
            at: now,
            until,
        });
    }

    /// Apply an LLC way-partitioning plan (the second actuator; see
    /// [`crate::partition`]). The plan replaces any previous one in full.
    /// Threads named by the plan contend only inside their cluster's
    /// slice (`capacity_mib * ways / total_ways`, identically in every
    /// NUMA domain — the plan models one machine-wide CAT configuration);
    /// unassigned threads share the leftover ways. Re-partitioning models
    /// nested CAT masks: a live thread is charged the migration-style
    /// cache warm-up (but no dead time — reprogramming CAT does not
    /// unschedule anyone) exactly when its slice moves or shrinks, while
    /// a pure capacity grow keeps its lines resident. Assignments naming
    /// finished or never-spawned threads are skipped. An empty plan lifts
    /// the partition (see [`Machine::clear_partition`]).
    ///
    /// Every successful application bumps [`Machine::partition_epoch`],
    /// which the actuation layer uses to verify the request landed.
    pub fn apply_partition(&mut self, plan: &PartitionPlan) -> Result<(), String> {
        let total_ways = self.cfg.llc.ways;
        plan.validate(total_ways)?;
        let n = self.threads.len();
        let mut new_cluster = vec![u32::MAX; n];
        for &(t, c) in &plan.assignments {
            let i = t.index();
            if i < n && !self.threads.finished(i) {
                new_cluster[i] = c;
            }
        }
        let now_active = !plan.is_empty();
        let total_cap = self.cfg.llc.capacity_mib;
        let tw = f64::from(total_ways);
        // Location labels for the warm-up decision: a cluster index, the
        // shared pool, or the whole unpartitioned cache. Two labels name
        // the same ways only when equal — except that a full-width slice
        // (capacity == total) is literally the whole cache under any
        // label, so moving between full-width slices evicts nothing.
        const LOC_FULL: u64 = u64::MAX;
        const LOC_SHARED: u64 = u32::MAX as u64;
        let old_shared_cap = total_cap * (f64::from(self.partition.shared_ways(total_ways)) / tw);
        let new_shared_cap = total_cap * (f64::from(plan.shared_ways(total_ways)) / tw);
        for idx in 0..self.alive.len() {
            let i = self.alive[idx] as usize;
            let (old_cap, old_loc) = if !self.partition_active {
                (total_cap, LOC_FULL)
            } else {
                match self.thread_cluster[i] {
                    u32::MAX => (old_shared_cap, LOC_SHARED),
                    c => (
                        total_cap * (f64::from(self.partition.cluster_ways[c as usize]) / tw),
                        u64::from(c),
                    ),
                }
            };
            let (new_cap, new_loc) = if !now_active {
                (total_cap, LOC_FULL)
            } else {
                match new_cluster[i] {
                    u32::MAX => (new_shared_cap, LOC_SHARED),
                    c => (
                        total_cap * (f64::from(plan.cluster_ways[c as usize]) / tw),
                        u64::from(c),
                    ),
                }
            };
            let warms = if old_loc == new_loc {
                new_cap < old_cap
            } else {
                !(old_cap == total_cap && new_cap == total_cap)
            };
            if warms {
                let ws_mib = self.threads.specs[i]
                    .program
                    .phase_at(self.threads.retired[i])
                    .map(|p| p.working_set_mib)
                    .unwrap_or(0.0);
                let warmup = self.cfg.migration.warmup_us
                    + (ws_mib * self.cfg.migration.warmup_us_per_mib as f64) as u64;
                let until = self.now + SimTime::from_us(warmup);
                // Extend, never shorten, a warm-up already pending.
                if until > self.threads.warmup_until[i] {
                    self.threads.warmup_until[i] = until;
                    self.note_expiry(until);
                }
                self.mark_thread_dirty(i);
            }
        }
        self.thread_cluster = new_cluster;
        self.partition = plan.clone();
        self.partition_active = now_active;
        self.cluster_capacity_mib.clear();
        for &w in &plan.cluster_ways {
            self.cluster_capacity_mib
                .push(total_cap * (f64::from(w) / tw));
        }
        self.cluster_capacity_mib.push(new_shared_cap);
        self.partition_epoch += 1;
        // Every domain's contention changes shape: force a full rebuild
        // and make the warm solver forget its memoised fixed points.
        self.state_dirty = true;
        self.dirty_domains.iter_mut().for_each(|f| *f = true);
        self.stale_ctrls.iter_mut().for_each(|f| *f = true);
        self.ctrl_solver.invalidate();
        Ok(())
    }

    /// Lift any applied partition: every thread contends for the whole
    /// cache again. Bumps the epoch like any application.
    pub fn clear_partition(&mut self) {
        self.apply_partition(&PartitionPlan::new())
            .expect("the empty plan always validates");
    }

    /// Number of successful partition applications (including clears) so
    /// far — the actuation layer's verification signal.
    pub fn partition_epoch(&self) -> u64 {
        self.partition_epoch
    }

    /// The currently applied plan (empty when unpartitioned).
    pub fn partition(&self) -> &PartitionPlan {
        &self.partition
    }

    /// True while a non-empty plan is in force.
    pub fn partition_active(&self) -> bool {
        self.partition_active
    }

    /// Simulated cache-occupancy counter (the Intel CMT analog exposed to
    /// schedulers): the thread's current-phase working set, capped at the
    /// capacity its partition slot lets it occupy. Zero once finished.
    pub fn llc_occupancy_mib(&self, thread: ThreadId) -> f64 {
        let i = thread.index();
        if self.threads.finished(i) {
            return 0.0;
        }
        let ws = self.threads.specs[i]
            .program
            .phase_at(self.threads.retired[i])
            .map(|p| p.working_set_mib)
            .unwrap_or(0.0);
        let cap = if self.partition_active {
            self.cluster_capacity_mib[self.cluster_slot(i)]
        } else {
            self.cfg.llc.capacity_mib
        };
        ws.min(cap)
    }

    /// Slot index of thread `i` under the current plan: its cluster, or
    /// the shared pool (last slot) when unassigned.
    #[inline]
    fn cluster_slot(&self, i: usize) -> usize {
        let c = self.thread_cluster[i];
        if c == u32::MAX {
            self.partition.num_clusters()
        } else {
            c as usize
        }
    }

    /// Inflate each slot's accumulated working set against its slice
    /// capacity (an empty slot of zero capacity inflates by exactly 1 —
    /// `llc_inflation_scaled` maps 0/0 to no pressure).
    fn fill_cluster_llc_factors(&mut self) {
        self.scratch_cluster_llc.clear();
        for s in 0..self.scratch_cluster_ws.len() {
            self.scratch_cluster_llc.push(llc_inflation_scaled(
                self.scratch_cluster_ws[s],
                &self.cfg.llc,
                self.cluster_capacity_mib[s],
            ));
        }
    }

    /// All thread ids ever spawned.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32).map(ThreadId)
    }

    /// Thread ids that have not yet finished, ascending, without
    /// allocating.
    pub fn alive_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.alive.iter().map(|&i| ThreadId(i))
    }

    /// True if the thread has not yet finished (the per-thread form of
    /// [`Machine::alive_ids`]).
    pub fn is_alive(&self, thread: ThreadId) -> bool {
        !self.threads.finished(thread.index())
    }

    /// True when no thread is alive: every spawned thread has finished, or
    /// none was ever spawned.
    pub fn all_done(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of spawned threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The virtual core a thread is currently pinned to.
    pub fn vcore_of(&self, thread: ThreadId) -> VCoreId {
        self.threads.vcore[thread.index()]
    }

    /// The application a thread belongs to.
    pub fn app_of(&self, thread: ThreadId) -> AppId {
        self.threads.specs[thread.index()].app
    }

    /// The NUMA domain a thread's memory is homed to (fixed at spawn).
    pub fn home_domain_of(&self, thread: ThreadId) -> DomainId {
        self.threads.home_domain[thread.index()]
    }

    /// The application name a thread belongs to.
    pub fn app_name_of(&self, thread: ThreadId) -> &str {
        &self.threads.specs[thread.index()].app_name
    }

    /// Cumulative hardware counters of a thread.
    pub fn counters(&self, thread: ThreadId) -> ThreadCounters {
        self.threads.counters[thread.index()]
    }

    /// Cumulative counters of a virtual core.
    pub fn core_counters(&self, vcore: VCoreId) -> CoreCounters {
        self.vcore_counters[vcore.index()]
    }

    /// Completion time of a thread, if finished.
    pub fn finish_time(&self, thread: ThreadId) -> Option<SimTime> {
        self.threads.finished_at[thread.index()]
    }

    /// Machine time at which a thread was spawned (zero for threads spawned
    /// before the run started).
    pub fn spawn_time(&self, thread: ThreadId) -> SimTime {
        self.threads.spawned_at[thread.index()]
    }

    /// Virtual cores with no unfinished occupant, in id order — the free
    /// slots a mid-run arrival can be placed on (a retired thread frees its
    /// vcore the moment it finishes).
    pub fn idle_vcores(&self) -> Vec<VCoreId> {
        let mut idle = Vec::new();
        self.idle_vcores_into(&mut vec![false; 0], &mut idle);
        idle
    }

    /// Allocation-free form of [`Machine::idle_vcores`]: fills `idle` (in
    /// id order) using `occupied` as reusable scratch. Both buffers are
    /// cleared first; steady-state callers reuse their capacity.
    pub fn idle_vcores_into(&self, occupied: &mut Vec<bool>, idle: &mut Vec<VCoreId>) {
        occupied.clear();
        occupied.resize(self.cfg.topology.num_vcores(), false);
        for &i in &self.alive {
            occupied[self.threads.vcore[i as usize].index()] = true;
        }
        idle.clear();
        for (v, &o) in occupied.iter().enumerate() {
            if !o {
                idle.push(VCoreId(v as u32));
            }
        }
    }

    /// Fraction of a thread's instructions retired so far, in `[0, 1]`.
    pub fn progress_of(&self, thread: ThreadId) -> f64 {
        let i = thread.index();
        (self.threads.retired[i] / self.threads.specs[i].program.total_instructions).min(1.0)
    }

    /// Event log (spawns, migrations, completions).
    pub fn events(&self) -> &[MachineEvent] {
        &self.events
    }

    /// Total policy migrations across all threads (balancer moves are
    /// tracked separately in [`Machine::balancer_moves`]).
    pub fn total_migrations(&self) -> u64 {
        self.policy_migrations
    }

    /// Moves performed by the substrate load balancer.
    pub fn balancer_moves(&self) -> u64 {
        self.balancer_moves
    }

    /// The OS's count-based idle balancer (see
    /// [`crate::config::BalanceConfig`]): when the fast and slow halves
    /// have unequal unfinished-thread counts and the lighter half has an
    /// empty context, move threads over. A balanced move costs cache
    /// warm-up (cold caches are physics) but no affinity dead time.
    fn balance(&mut self) {
        if self.balance_homogeneous {
            // Homogeneous: balance is about emptiness only; handled by the
            // shared-vcore spreading below.
            self.spread_shared_vcores();
            return;
        }
        let n = self.cfg.topology.num_vcores();
        self.scratch_occupancy.clear();
        self.scratch_occupancy.resize(n, 0);
        for &i in &self.alive {
            self.scratch_occupancy[self.threads.vcore[i as usize].index()] += 1;
        }
        let mut fast_load: u32 = (0..n)
            .filter(|&v| self.balance_fast[v])
            .map(|v| self.scratch_occupancy[v])
            .sum();
        let mut slow_load: u32 = (0..n)
            .filter(|&v| !self.balance_fast[v])
            .map(|v| self.scratch_occupancy[v])
            .sum();
        let min_imb = self.cfg.balance.min_imbalance;
        self.scratch_moves.clear();
        while fast_load.abs_diff(slow_load) >= min_imb.max(1) {
            let move_to_fast = slow_load > fast_load;
            // An empty target context on the lighter half.
            let target = (0..n)
                .find(|&v| self.balance_fast[v] == move_to_fast && self.scratch_occupancy[v] == 0)
                .map(|v| VCoreId(v as u32));
            let Some(target) = target else { break };
            // Candidate: a thread on the heavier half, preferring doubled-up
            // contexts, then the highest-occupancy context (deterministic
            // lowest thread id).
            let mut source: Option<(u32, u32, ThreadId)> = None;
            for &i in &self.alive {
                let v = self.threads.vcore[i as usize].index();
                if self.balance_fast[v] == move_to_fast {
                    continue;
                }
                let key = (self.scratch_occupancy[v], u32::MAX - i);
                if source.is_none_or(|(o, r, _)| key > (o, r)) {
                    source = Some((key.0, key.1, ThreadId(i)));
                }
            }
            let Some((_, _, thread)) = source else { break };
            self.scratch_occupancy[self.threads.vcore[thread.index()].index()] -= 1;
            self.scratch_occupancy[target.index()] += 1;
            if move_to_fast {
                fast_load += 1;
                slow_load -= 1;
            } else {
                fast_load -= 1;
                slow_load += 1;
            }
            self.scratch_moves.push((thread, target));
        }
        for k in 0..self.scratch_moves.len() {
            let (thread, target) = self.scratch_moves[k];
            self.balancer_move(thread, target);
        }
        self.spread_shared_vcores();
    }

    /// Within each half, move threads off doubled-up contexts onto empty
    /// ones (plain per-CPU balancing).
    fn spread_shared_vcores(&mut self) {
        let n = self.cfg.topology.num_vcores();
        self.scratch_occupancy.clear();
        self.scratch_occupancy.resize(n, 0);
        for &i in &self.alive {
            self.scratch_occupancy[self.threads.vcore[i as usize].index()] += 1;
        }
        self.scratch_moves.clear();
        for &i in &self.alive {
            let v = self.threads.vcore[i as usize].index();
            if self.scratch_occupancy[v] >= 2 {
                if let Some(empty) = (0..n).find(|&c| self.scratch_occupancy[c] == 0) {
                    self.scratch_occupancy[v] -= 1;
                    self.scratch_occupancy[empty] += 1;
                    self.scratch_moves
                        .push((ThreadId(i), VCoreId(empty as u32)));
                }
            }
        }
        for k in 0..self.scratch_moves.len() {
            let (thread, target) = self.scratch_moves[k];
            self.balancer_move(thread, target);
        }
    }

    /// Apply one balancer move: re-home the thread with cache warm-up but
    /// no affinity dead time, and without touching the policy migration
    /// counter.
    fn balancer_move(&mut self, thread: ThreadId, to: VCoreId) {
        let i = thread.index();
        if self.threads.finished(i) || self.threads.vcore[i] == to {
            return;
        }
        let from = self.threads.vcore[i];
        self.mark_thread_dirty(i);
        self.threads.vcore[i] = to;
        self.mark_thread_dirty(i);
        self.move_run_member(
            thread.0,
            self.vcore_domain[from.index()] as usize,
            self.vcore_domain[to.index()] as usize,
        );
        let ws_mib = self.threads.specs[i]
            .program
            .phase_at(self.threads.retired[i])
            .map(|p| p.working_set_mib)
            .unwrap_or(0.0);
        let mut warmup = self.cfg.migration.warmup_us
            + (ws_mib * self.cfg.migration.warmup_us_per_mib as f64) as u64;
        if self.cfg.topology.domain_of(from) != self.cfg.topology.domain_of(to) {
            warmup = (warmup as f64 * self.cfg.migration.cross_domain_warmup_factor) as u64;
        }
        self.threads.warmup_until[i] = self.now + SimTime::from_us(warmup);
        self.note_expiry(self.threads.warmup_until[i]);
        self.state_dirty = true;
        self.balancer_moves += 1;
        self.events.push(MachineEvent::Balanced {
            thread,
            from,
            to,
            at: self.now,
        });
    }

    /// Rebuild the per-tick scratch state — stages 1–4 of the tick: the
    /// runnable walk, shared-LLC pressure, contention demands and the
    /// memory solution — refreshing only the run domains marked dirty and
    /// re-presenting only the stale controllers to the warm solver.
    /// Afterwards the cached per-thread state mirrors the machine exactly,
    /// so the dirty flags clear and quiescent ticks may reuse it; events
    /// from the advance stage or from between-tick actuation re-dirty it.
    ///
    /// Cross-domain coupling is one-directional by construction — a
    /// thread's demand depends only on state *inside its run domain*
    /// (per-domain LLC slice, per-vcore/pcore loads, its own warm-up and
    /// noise), and a controller's solution depends only on the demands of
    /// the threads *homed* to it — so refreshing the marked subset
    /// reproduces what a full rebuild would compute, bit for bit:
    ///
    /// * every per-thread quantity is an independent pure function, so
    ///   clean-domain threads' cached values are already what a full
    ///   rebuild would recompute;
    /// * the only cross-thread float accumulation (a domain's working-set
    ///   sum) walks that domain's members in ascending thread order —
    ///   exactly the order of a global walk over the alive list;
    /// * each controller's demand sub-vector is presented in ascending
    ///   thread order, exactly the partition order of the cold
    ///   `solve_memory_numa_into` reference, and the warm solver runs the
    ///   very same fixed point on it (skipping unchanged inputs, which is
    ///   a pure speedup).
    ///
    /// On the one-domain paper machine every event marks the only domain,
    /// so each non-quiescent tick refreshes the whole machine.
    fn rebuild_tick_state(&mut self, window: u64) {
        let num_domains = self.cfg.topology.num_domains();
        // A window change redraws burstiness noise for every bursty
        // thread (and the first rebuild has nothing cached): refresh
        // everything.
        if window != self.memo_window {
            self.dirty_domains.iter_mut().for_each(|f| *f = true);
            self.stale_ctrls.iter_mut().for_each(|f| *f = true);
        }

        for d in 0..num_domains {
            if !self.dirty_domains[d] {
                continue;
            }
            // Stage 1 (per dirty domain): loads, phases and the domain's
            // shared-LLC slice, walking only this domain's members. A
            // thread whose phase went stale (new, or advanced by the slow
            // path since) gets one combined phase-table walk, whose result
            // every later stage reuses (LLC pressure, demand build, the
            // step cache, the advance's boundary test); a fresh thread's
            // cached phase is still exact. Stage 2 reads loads only where a
            // member of d sits (pcores never span domains), so zeroing
            // those entries first resets them.
            for &i in &self.run_members[d] {
                let v = self.threads.vcore[i as usize].index();
                self.scratch_vcore_load[v] = 0;
                self.scratch_pcore_load[self.vcore_pcore[v] as usize] = 0;
            }
            if self.partition_active {
                self.scratch_cluster_ws.clear();
                self.scratch_cluster_ws
                    .resize(self.partition.num_clusters() + 1, 0.0);
            }
            // The domain's runnable members, ascending, are stage 2's walk
            // list — and, with no thread remote, controller d's members.
            self.ctrl_scratch_members.clear();
            let mut ws_sum = 0.0;
            for idx in 0..self.run_members[d].len() {
                let i = self.run_members[d][idx] as usize;
                if !self.threads.runnable(i, self.now) {
                    continue;
                }
                self.ctrl_scratch_members.push(i as u32);
                if !self.phase_fresh[i] {
                    let (phase, boundary) = self.threads.specs[i]
                        .program
                        .phase_and_boundary(self.threads.retired[i])
                        .expect("runnable thread must have an active phase");
                    self.thread_phase[i] = phase;
                    self.thread_boundary[i] = boundary;
                    self.phase_fresh[i] = true;
                }
                let ws = self.thread_phase[i].working_set_mib;
                let v = self.threads.vcore[i].index();
                self.scratch_vcore_load[v] += 1;
                self.scratch_pcore_load[self.vcore_pcore[v] as usize] += 1;
                ws_sum += ws;
                if self.partition_active {
                    let slot = self.cluster_slot(i);
                    self.scratch_cluster_ws[slot] += ws;
                }
            }
            if self.partition_active {
                self.fill_cluster_llc_factors();
            } else {
                self.domain_llc[d] = llc_inflation(ws_sum, &self.cfg.llc);
            }

            // Stage 2 (same domain, loads now final): SMT interference,
            // effective miss ratios and demands. Any thread whose demand
            // is recomputed may feed a different sub-vector to its home
            // controller. With no thread remote, that controller is d and
            // its sub-vector is this walk's output, solved right here.
            let local = self.n_remote == 0;
            self.ctrl_scratch_demands.clear();
            self.ctrl_scratch_factors.clear();
            let llc_factor = self.domain_llc[d];
            for idx in 0..self.ctrl_scratch_members.len() {
                let i = self.ctrl_scratch_members[idx] as usize;
                let phase = self.thread_phase[i];
                let lf = if self.partition_active {
                    self.scratch_cluster_llc[self.cluster_slot(i)]
                } else {
                    llc_factor
                };
                let mut mr = phase.miss_ratio() * lf;
                let mut cpi = phase.cpi_exec;
                if self.now < self.threads.warmup_until[i] {
                    mr *= self.cfg.migration.warmup_miss_multiplier;
                    cpi *= self.cfg.migration.warmup_cpi_multiplier;
                }
                if phase.burstiness != 0.0 {
                    // The unit draw is a pure hash of (seed, thread,
                    // window); within a noise window the cached value is
                    // exact, so the splitmix64 finaliser runs once per
                    // window instead of every tick.
                    if self.noise_window[i] != window {
                        self.noise_window[i] = window;
                        self.noise_unit[i] = noise_unit(self.cfg.seed, i, window);
                    }
                    mr *= 1.0 + phase.burstiness * (2.0 * self.noise_unit[i] - 1.0);
                }
                mr = mr.clamp(0.0, 1.0);
                let v = self.threads.vcore[i].index();
                let share = 1.0 / self.scratch_vcore_load[v] as f64;
                let freq = self.vcore_freq[v];
                // A sibling context is busy exactly when the physical core
                // carries more load than the vcore itself.
                let smt_factor = if self.scratch_pcore_load[self.vcore_pcore[v] as usize]
                    > self.scratch_vcore_load[v]
                {
                    self.cfg.smt.busy_share
                } else {
                    1.0
                };
                let base_time = cpi / (freq * share * smt_factor);
                let demand = MemDemand {
                    base_time_per_instr: base_time,
                    miss_ratio: mr,
                };
                self.thread_demand[i] = demand;
                if local {
                    self.ctrl_scratch_demands.push(demand);
                    self.ctrl_scratch_factors.push(1.0);
                } else {
                    self.stale_ctrls[self.threads.home_domain[i].index()] = true;
                }
            }
            if local {
                self.solve_ctrl(d);
                self.stale_ctrls[d] = false;
            }
        }

        // Stage 3: re-present each remaining stale controller's demand
        // sub-vector (runnable home members, ascending) to the warm solver
        // and scatter the achieved rates back. The solver memoises
        // bitwise, so a controller whose sub-vector did not actually move
        // costs one comparison instead of a fixed point.
        for c in 0..num_domains {
            if !self.stale_ctrls[c] {
                continue;
            }
            self.ctrl_scratch_demands.clear();
            self.ctrl_scratch_factors.clear();
            self.ctrl_scratch_members.clear();
            for idx in 0..self.home_members[c].len() {
                let i = self.home_members[c][idx] as usize;
                if !self.threads.runnable(i, self.now) {
                    continue;
                }
                let run_d = self.vcore_domain[self.threads.vcore[i].index()] as usize;
                self.ctrl_scratch_demands.push(self.thread_demand[i]);
                self.ctrl_scratch_factors.push(if run_d != c {
                    self.cfg.memory.remote_latency_factor
                } else {
                    1.0
                });
                self.ctrl_scratch_members.push(i as u32);
            }
            self.solve_ctrl(c);
        }

        self.dirty_domains.iter_mut().for_each(|f| *f = false);
        self.stale_ctrls.iter_mut().for_each(|f| *f = false);
        self.state_dirty = false;
        self.memo_window = window;
        self.cache_now = self.now;
    }

    /// Solve controller `c` for the sub-vector in the controller scratch
    /// and scatter the achieved rates back to its members, with each
    /// member's step cache. Every demand a rebuild recomputes is re-solved
    /// here before the advance reads it, so the steps are always current.
    fn solve_ctrl(&mut self, c: usize) {
        let dt_s = self.cfg.tick_us as f64 / 1e6;
        let (rates, _) = self.ctrl_solver.solve(
            c,
            &self.ctrl_scratch_demands,
            &self.ctrl_scratch_factors,
            &self.cfg.memory,
        );
        for (j, &i) in self.ctrl_scratch_members.iter().enumerate() {
            let i = i as usize;
            let rate = rates[j];
            let advance = rate * dt_s;
            let mr = self.thread_demand[i].miss_ratio;
            self.thread_rate[i] = rate;
            self.thread_step_miss[i] = advance * mr;
            self.thread_step_access[i] = advance * (self.thread_phase[i].apki / 1000.0).max(mr);
        }
    }

    /// True when a dead time or warm-up of thread `i` expired between the
    /// last rebuild and now (see [`Machine::scan_expiries`]).
    #[inline]
    fn expiry_crossed(&self, i: usize) -> bool {
        let dead = self.threads.dead_until[i];
        let warm = self.threads.warmup_until[i];
        (dead > self.cache_now && dead <= self.now) || (warm > self.cache_now && warm <= self.now)
    }

    /// The expiry scan. A dead time or warm-up that ended between
    /// `cache_now` (when the cached state was built) and now changes the
    /// runnable set or an effective miss ratio without any event firing,
    /// so each such *crossing* marks its thread's run domain and home
    /// controller for the partial rebuild; an expiry still in the future
    /// flips no cached branch outcome (`now >= dead_until`,
    /// `now < warmup_until`) yet. Returns whether anything was crossed,
    /// and re-arms `next_expiry` at the earliest instant still ahead: after
    /// this tick's head either a rebuild moves `cache_now` to now, or
    /// nothing lay in `(cache_now, now]`, so every pending instant is
    /// later than now.
    fn scan_expiries(&mut self) -> bool {
        let mut crossed = false;
        let mut next = SimTime(u64::MAX);
        for idx in 0..self.alive.len() {
            let i = self.alive[idx] as usize;
            if self.expiry_crossed(i) {
                crossed = true;
                self.mark_thread_dirty(i);
            }
            for at in [self.threads.dead_until[i], self.threads.warmup_until[i]] {
                if at > self.now {
                    next = next.min(at);
                }
            }
        }
        self.next_expiry = next;
        crossed
    }

    /// True when some barrier group has every live member waiting, so the
    /// release scan would free it. Never the case at a tick's start: only
    /// an advance parks or finishes a thread, that dirties the state, and
    /// a tick whose advance dirtied the state runs the release scan.
    fn barrier_releasable(&self) -> bool {
        self.barrier_groups.values().any(|members| {
            let waiting = |t: &ThreadId| {
                !self.threads.finished(t.index()) && self.threads.at_barrier[t.index()]
            };
            members.iter().any(waiting)
                && members
                    .iter()
                    .all(|t| self.threads.finished(t.index()) || waiting(t))
        })
    }

    /// Advance the machine by one tick.
    ///
    /// A tick runs in one of two modes, both producing **bit-identical**
    /// trajectories. A *full* tick rebuilds the runnable set, phase
    /// lookups, contention demands and the memory solution of every run
    /// domain and controller an event touched (see `rebuild_tick_state`).
    /// A *quiescent* tick reuses all of that from the last full tick:
    /// between events a thread's phase, placement, warm-up status and
    /// burstiness draw are constant, so the only per-tick input that ages
    /// is each thread's distance to its next phase boundary — tracked as
    /// a decayed lower bound and re-walked exactly only when a tick could
    /// actually reach it (see the advance stage). Eligibility
    /// is conservative — every mutation (spawn, migration, stall,
    /// balancer move, completion, barrier traffic, phase-boundary
    /// crossing) marks the cached state dirty, and a crossed dead-time or
    /// warm-up expiry, or a noise-window change, forces the full path.
    pub fn tick(&mut self) {
        self.step(1);
    }

    /// Run one tick's head, then advance between 1 and `max` ticks from
    /// it, returning how many. When every later tick of a stretch would be
    /// quiescent with each runnable thread on its fast path, the stretch
    /// runs as one span (see [`Machine::span_horizon`]); otherwise the tick
    /// runs alone.
    fn step(&mut self, max: u64) -> u64 {
        debug_assert!(
            !self.barrier_releasable(),
            "a barrier group is releasable at a tick start"
        );
        self.tick_head();
        let span = if max >= 2 { self.span_horizon(max) } else { 1 };
        if span >= 2 {
            self.advance_span(span);
            span
        } else {
            self.tick_body();
            1
        }
    }

    /// A tick's head: the OS balancer on its period, the expiry test and,
    /// unless the cached state still describes the machine exactly, the
    /// rebuild. Skipping the rebuild is bit-identical because rebuilding
    /// is idempotent: with no input changed it would recompute exactly the
    /// cached values.
    fn tick_head(&mut self) {
        // The OS balancer runs on its own coarse period. Its moves dirty
        // the cached state, so quiescence is judged after it runs.
        if self.cfg.balance.enabled
            && self
                .now
                .as_us()
                .is_multiple_of(self.cfg.balance.interval_us)
            && !self.threads.is_empty()
        {
            self.balance();
        }
        let window = self.tick_index / NOISE_WINDOW_TICKS;
        // Before the cached next expiry no crossing can have happened, so
        // the O(alive) scan runs only once `now` reaches it.
        let crossed = self.now >= self.next_expiry && self.scan_expiries();
        if self.state_dirty || window != self.memo_window || crossed {
            self.rebuild_tick_state(window);
        }
    }

    /// How many consecutive ticks, at most `cap`, thread `i` takes the
    /// advance fast path from its current state. Each iteration runs the
    /// per-tick test on the very `retired` and `thread_boundary` float
    /// chains the advance will produce.
    ///
    /// `thread_boundary[i]` is a lower bound on the distance to the
    /// thread's next phase boundary (or completion): exact right after a
    /// phase lookup, then decayed by each tick's progress, whose f64
    /// rounding the one-instruction cushion absorbs. When a tick's whole
    /// progress fits strictly inside that bound and short of the barrier,
    /// the exact walk of [`Machine::slow_advance`] would take its
    /// single-slice branch with the very same advance, so the walk is
    /// skipped — and the phase cannot have changed, which is what keeps
    /// `phase_fresh` honest.
    #[inline]
    fn fast_ticks_ahead(&self, i: usize, dt_s: f64, cap: u64) -> u64 {
        let rate = self.thread_rate[i];
        let advance = rate * dt_s;
        let next_barrier_at = self.threads.next_barrier_at[i];
        let mut retired = self.threads.retired[i];
        let mut bound = self.thread_boundary[i];
        let mut k = 0;
        while k < cap
            && rate > 0.0
            && advance < bound - 1.0
            && advance < (next_barrier_at - retired).max(0.0)
        {
            retired += advance;
            bound -= advance;
            k += 1;
        }
        k
    }

    /// Apply `k` ticks of thread `i`'s progress: each retires `advance`
    /// instructions, adds `misses` and `accesses` LLC events and its
    /// vcore's cycle step, and decays the boundary bound — the same float
    /// chains, in the same order, whether the ticks run one at a time or
    /// as a span. The fast path passes its step cache; the slow path its
    /// walked advance, with `k = 1`.
    #[inline]
    fn apply_ticks(&mut self, i: usize, k: u64, advance: f64, misses: f64, accesses: f64) {
        let v = self.threads.vcore[i].index();
        let cycles = self.vcore_cycles[v];
        let mut retired = self.threads.retired[i];
        let mut bound = self.thread_boundary[i];
        let c = &mut self.threads.counters[i];
        for _ in 0..k {
            retired += advance;
            bound -= advance;
            c.instructions += advance;
            c.llc_misses += misses;
            c.llc_accesses += accesses;
            c.cycles += cycles;
        }
        c.busy_us += k * self.cfg.tick_us;
        if self.n_remote > 0 && self.vcore_domain[v] != self.threads.home_domain[i].0 {
            c.remote_us += k * self.cfg.tick_us;
        }
        self.threads.retired[i] = retired;
        self.thread_boundary[i] = bound;
    }

    /// The exact multi-slice advance of thread `i` over one tick, for a
    /// thread near a boundary, a barrier, or stalled. The cached bound may
    /// have decayed, so the true distance is re-walked first (and stored)
    /// — `instructions_to_boundary` returns the same value a rebuild's
    /// phase lookup computes (a property pinned by a unit test in
    /// `phase.rs`), so re-walking is always exact regardless of how stale
    /// the bound was. The thread then advances through as many phase
    /// boundaries as the tick allows (the achieved rate is held constant
    /// within the tick; phase boundaries only clamp barrier/completion
    /// crossings exactly). Returns the instructions retired and whether
    /// the thread reached its barrier.
    fn slow_advance(&mut self, i: usize, dt_s: f64) -> (f64, bool) {
        let rate = self.thread_rate[i];
        let retired = self.threads.retired[i];
        let next_barrier_at = self.threads.next_barrier_at[i];
        self.thread_boundary[i] = self.threads.specs[i]
            .program
            .instructions_to_boundary(retired);
        let mut advance = 0.0;
        let mut hit_barrier = false;
        let mut time_left = dt_s;
        // The first iteration's boundary came free with the walk above.
        let mut first_boundary = Some(self.thread_boundary[i]);
        for _ in 0..64 {
            if time_left <= 0.0 || rate <= 0.0 {
                break;
            }
            let pos = retired + advance;
            let to_boundary = match first_boundary.take() {
                Some(b) => b,
                None => self.threads.specs[i].program.instructions_to_boundary(pos),
            };
            let to_barrier = (next_barrier_at - pos).max(0.0);
            let limit = to_boundary.min(to_barrier);
            if limit <= 0.0 {
                hit_barrier = to_barrier <= 0.0 && to_barrier <= to_boundary;
                break;
            }
            let possible = rate * time_left;
            if possible < limit {
                advance += possible;
                time_left = 0.0;
            } else {
                advance += limit;
                time_left -= limit / rate;
                if to_barrier <= to_boundary {
                    hit_barrier = true;
                    break;
                }
            }
        }
        (advance, hit_barrier)
    }

    /// The rest of a lone tick after its head: advance every runnable
    /// thread, release complete barrier groups, record completions.
    fn tick_body(&mut self) {
        let dt_s = self.cfg.tick_us as f64 / 1e6;
        let tick_us = self.cfg.tick_us;
        let pf = self.cfg.memory.prefetch_factor;
        let tick_end = self.now + SimTime::from_us(tick_us);
        self.scratch_vcore_busy.clear();
        self.scratch_vcore_busy
            .resize(self.cfg.topology.num_vcores(), false);
        self.scratch_finished.clear();
        // 5. Advance threads (the alive list is ascending and the runnable
        // set cannot have changed since the last rebuild, so this meets
        // exactly the rebuilt threads, in rebuild order).
        for idx in 0..self.alive.len() {
            let i = self.alive[idx] as usize;
            if !self.threads.runnable(i, self.now) {
                continue;
            }
            let v = self.threads.vcore[i].index();
            if !self.scratch_vcore_busy[v] {
                self.scratch_vcore_busy[v] = true;
                self.vcore_counters[v].busy_us += tick_us;
            }
            if self.fast_ticks_ahead(i, dt_s, 1) == 1 {
                let (advance, misses) = (self.thread_rate[i] * dt_s, self.thread_step_miss[i]);
                self.apply_ticks(i, 1, advance, misses, self.thread_step_access[i]);
                self.vcore_counters[v].accesses += misses * pf;
                continue;
            }
            let (advance, hit_barrier) = self.slow_advance(i, dt_s);
            self.phase_fresh[i] = false;
            // Reaching (or crossing) a phase boundary changes the next
            // rebuild's phase lookup, so the cached state cannot be reused
            // past it.
            if advance >= self.thread_boundary[i] {
                self.state_dirty = true;
                self.mark_thread_dirty(i);
            }
            let mr = self.thread_demand[i].miss_ratio;
            let misses = advance * mr;
            let accesses = advance * (self.thread_phase[i].apki / 1000.0).max(mr);
            self.apply_ticks(i, 1, advance, misses, accesses);
            self.vcore_counters[v].accesses += misses * pf;
            if self.threads.retired[i] >= self.threads.specs[i].program.total_instructions {
                self.threads.finished_at[i] = Some(tick_end);
                self.threads.at_barrier[i] = false;
                self.state_dirty = true;
                // The departure changes its domain's loads and its
                // controller's membership; drop it from both walk lists
                // now that it can never run again.
                self.mark_thread_dirty(i);
                let d = self.vcore_domain[v] as usize;
                if let Ok(pos) = self.run_members[d].binary_search(&(i as u32)) {
                    self.run_members[d].remove(pos);
                }
                let h = self.threads.home_domain[i].index();
                if let Ok(pos) = self.home_members[h].binary_search(&(i as u32)) {
                    self.home_members[h].remove(pos);
                }
                self.n_remote -= usize::from(d != h);
                // The alive walk is ascending, so completions are recorded
                // in id order.
                self.scratch_finished.push(ThreadId(i as u32));
            } else if hit_barrier {
                self.threads.at_barrier[i] = true;
                self.state_dirty = true;
                self.mark_thread_dirty(i);
            }
        }

        // Barrier release: a group proceeds when every alive member waits.
        // Membership state only moves on completions and barrier arrivals,
        // both of which dirty the state; no group is releasable at a tick's
        // start (see `barrier_releasable`), so a tick whose advance left
        // the state clean has nothing to release.
        if self.state_dirty {
            for members in self.barrier_groups.values() {
                let all_arrived = members.iter().all(|t| {
                    let i = t.index();
                    self.threads.finished(i) || self.threads.at_barrier[i]
                });
                if all_arrived {
                    for t in members {
                        let i = t.index();
                        if !self.threads.finished(i) && self.threads.at_barrier[i] {
                            self.threads.at_barrier[i] = false;
                            let interval = self.threads.specs[i]
                                .barrier
                                .expect("barrier member must have barrier spec")
                                .interval_instructions;
                            self.threads.next_barrier_at[i] += interval;
                            self.state_dirty = true;
                            // A released member rejoins its domain's
                            // runnable set next tick.
                            let d = self.vcore_domain[self.threads.vcore[i].index()] as usize;
                            self.dirty_domains[d] = true;
                            self.stale_ctrls[self.threads.home_domain[i].index()] = true;
                        }
                    }
                }
            }
        }

        // Record completions after the fact (events carry the finish tick).
        self.now = tick_end;
        self.tick_index += 1;
        if !self.scratch_finished.is_empty() {
            self.alive.retain(|&i| !self.threads.finished(i as usize));
        }
        for k in 0..self.scratch_finished.len() {
            self.events.push(MachineEvent::Finished {
                thread: self.scratch_finished[k],
                at: self.now,
            });
        }
    }

    /// The span horizon: how many ticks, up to `max`, can run from here
    /// as one span — at least 2, or this tick runs alone. Every later
    /// tick of a span must have a quiescent head and fast-path advances,
    /// so the span stops short of
    ///
    /// * the next noise window (its head would redraw burstiness);
    /// * the next balancer instant (its head would run the balancer);
    /// * the cached next expiry (its head could see a crossing);
    /// * the first tick on which any runnable thread's fast-path test
    ///   fails (its advance would take the slow path).
    ///
    /// A fast-path advance never parks, finishes or crosses a boundary,
    /// so nothing inside a span dirties the state. Leaves the runnable
    /// threads, in alive order, in the span scratch.
    fn span_horizon(&mut self, max: u64) -> u64 {
        debug_assert!(!self.state_dirty && self.next_expiry > self.now);
        let tick = self.cfg.tick_us;
        let now = self.now.as_us();
        let mut h = max.min(NOISE_WINDOW_TICKS - self.tick_index % NOISE_WINDOW_TICKS);
        if self.cfg.balance.enabled {
            let interval = self.cfg.balance.interval_us;
            h = h.min(((now / interval + 1) * interval - now).div_ceil(tick));
        }
        h = h.min((self.next_expiry.as_us() - now).div_ceil(tick));
        let dt_s = tick as f64 / 1e6;
        self.scratch_span.clear();
        for idx in 0..self.alive.len() {
            if h < 2 {
                break;
            }
            let i = self.alive[idx] as usize;
            if self.threads.runnable(i, self.now) {
                h = self.fast_ticks_ahead(i, dt_s, h);
                self.scratch_span.push(i as u32);
            }
        }
        h
    }

    /// Run `h` ticks from [`Machine::span_horizon`] in one thread-major
    /// pass. Each thread's float sums take its `h` adds in the same order
    /// as `h` lone ticks; integer counters add `h` ticks at once; per-vcore
    /// access sums stay tick-major, in alive order, because two threads
    /// can share a vcore. No thread finishes, parks or crosses a boundary
    /// in a span, so there is nothing to release or record.
    fn advance_span(&mut self, h: u64) {
        let dt_s = self.cfg.tick_us as f64 / 1e6;
        let pf = self.cfg.memory.prefetch_factor;
        let span_us = h * self.cfg.tick_us;
        self.scratch_vcore_busy.clear();
        self.scratch_vcore_busy
            .resize(self.cfg.topology.num_vcores(), false);
        for idx in 0..self.scratch_span.len() {
            let i = self.scratch_span[idx] as usize;
            let v = self.threads.vcore[i].index();
            if !self.scratch_vcore_busy[v] {
                self.scratch_vcore_busy[v] = true;
                self.vcore_counters[v].busy_us += span_us;
            }
            let (advance, misses) = (self.thread_rate[i] * dt_s, self.thread_step_miss[i]);
            self.apply_ticks(i, h, advance, misses, self.thread_step_access[i]);
        }
        for _ in 0..h {
            for &i in &self.scratch_span {
                let i = i as usize;
                self.vcore_counters[self.threads.vcore[i].index()].accesses +=
                    self.thread_step_miss[i] * pf;
            }
        }
        self.now += SimTime::from_us(span_us);
        self.tick_index += h;
    }

    /// Run for a duration (must be a multiple of the tick length).
    pub fn run_for(&mut self, dur: SimTime) {
        assert_eq!(
            dur.as_us() % self.cfg.tick_us,
            0,
            "duration {dur} is not a multiple of the tick"
        );
        let mut left = dur.as_us() / self.cfg.tick_us;
        while left > 0 {
            left -= self.step(left);
        }
    }

    /// Run until all threads finish or `deadline` passes. Returns true if
    /// everything finished. Spans are capped at the ticks left before
    /// `deadline`; no thread finishes inside one, so stopping at the first
    /// tick after which everything is done is unaffected.
    pub fn run_until_done(&mut self, deadline: SimTime) -> bool {
        while !self.all_done() && self.now < deadline {
            let left = (deadline.as_us() - self.now.as_us()).div_ceil(self.cfg.tick_us);
            self.step(left);
        }
        self.all_done()
    }

    /// Return the machine to its just-constructed state: simulated time
    /// zero, no threads, cleared counters/events, burstiness noise
    /// re-derived from the configured seed. A reset machine is
    /// behaviourally indistinguishable from `Machine::new(config)` — the
    /// fleet layer relies on this to reuse machine slots across runs
    /// without re-validating or re-plumbing configurations.
    pub fn reset(&mut self) {
        let cfg = self.cfg.clone();
        *self = Machine::new(cfg);
    }

    /// [`Machine::reset`] under a different seed: the fleet constructs
    /// every machine from one template configuration and gives each slot
    /// its own deterministic noise/fault stream.
    pub fn reset_with_seed(&mut self, seed: u64) {
        let mut cfg = self.cfg.clone();
        cfg.seed = seed;
        *self = Machine::new(cfg);
    }
}

/// Deterministic burstiness unit draw for `(seed, thread, window)` — a
/// pure hash mapped onto `[0, 1)`. The multiplier applied to the miss
/// ratio is `1 + burstiness · (2·unit − 1)`.
fn noise_unit(seed: u64, thread_idx: usize, window: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((thread_idx as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(window.wrapping_mul(0x94D0_49BB_1331_11EB));
    // splitmix64 finaliser
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64 // [0,1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::ids::BarrierId;
    use crate::phase::{Phase, PhaseProgram, PhaseRepeat};
    use crate::thread::BarrierSpec;
    use dike_util::check::check;
    use dike_util::Pcg32;

    fn compute_spec(app: u32, instr: f64) -> ThreadSpec {
        ThreadSpec {
            app: AppId(app),
            app_name: format!("comp{app}"),
            program: PhaseProgram::single(Phase::steady(0.6, 1.5, 0.5, 1e6), instr),
            barrier: None,
        }
    }

    fn memory_spec(app: u32, instr: f64) -> ThreadSpec {
        ThreadSpec {
            app: AppId(app),
            app_name: format!("mem{app}"),
            program: PhaseProgram::single(Phase::steady(1.0, 30.0, 8.0, 1e6), instr),
            barrier: None,
        }
    }

    #[test]
    fn single_thread_finishes_and_counts() {
        let mut m = Machine::new(presets::small_machine(1));
        let t = m.spawn(compute_spec(0, 1e8), VCoreId(0));
        assert!(m.run_until_done(SimTime::from_secs_f64(10.0)));
        let c = m.counters(t);
        assert!((c.instructions - 1e8).abs() < 1.0);
        assert!(c.llc_misses > 0.0);
        assert!(m.finish_time(t).is_some());
        assert_eq!(m.progress_of(t), 1.0);
        // Rough speed check: ~2.33e9/0.6 instr/s pipeline-limited, low misses.
        let secs = m.finish_time(t).unwrap().as_secs_f64();
        assert!(secs > 0.01 && secs < 0.2, "took {secs}s");
    }

    #[test]
    fn fast_core_beats_slow_core() {
        let mut fast = Machine::new(presets::small_machine(1));
        let tf = fast.spawn(compute_spec(0, 1e8), VCoreId(0)); // fast vcore
        fast.run_until_done(SimTime::from_secs_f64(10.0));

        let mut slow = Machine::new(presets::small_machine(1));
        let ts = slow.spawn(compute_spec(0, 1e8), VCoreId(4)); // slow vcore
        slow.run_until_done(SimTime::from_secs_f64(10.0));

        let ff = fast.finish_time(tf).unwrap().as_secs_f64();
        let ss = slow.finish_time(ts).unwrap().as_secs_f64();
        let ratio = ss / ff;
        // Frequency ratio is 2.33/1.21 ≈ 1.93 for a compute-bound thread.
        assert!(ratio > 1.6 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn memory_thread_less_sensitive_to_core_speed() {
        let run = |vcore: u32| {
            let mut m = Machine::new(presets::small_machine(1));
            let t = m.spawn(memory_spec(0, 1e8), VCoreId(vcore));
            m.run_until_done(SimTime::from_secs_f64(30.0));
            m.finish_time(t).unwrap().as_secs_f64()
        };
        let ratio = run(4) / run(0);
        assert!(ratio > 1.0 && ratio < 1.7, "memory-bound ratio {ratio}");
    }

    #[test]
    fn contention_slows_corunners() {
        // One memory thread alone...
        let mut alone = Machine::new(presets::small_machine(1));
        let t0 = alone.spawn(memory_spec(0, 5e7), VCoreId(0));
        alone.run_until_done(SimTime::from_secs_f64(30.0));
        let t_alone = alone.finish_time(t0).unwrap().as_secs_f64();

        // ... versus with seven co-running memory threads.
        let mut crowd = Machine::new(presets::small_machine(1));
        let t0c = crowd.spawn(memory_spec(0, 5e7), VCoreId(0));
        for i in 1..8 {
            crowd.spawn(memory_spec(1, 4e8), VCoreId(i));
        }
        crowd.run_until_done(SimTime::from_secs_f64(60.0));
        let t_crowd = crowd.finish_time(t0c).unwrap().as_secs_f64();
        let slowdown = t_crowd / t_alone;
        assert!(slowdown > 1.5, "contention slowdown {slowdown}");
    }

    /// A small machine with the substrate balancer off, for tests that
    /// deliberately co-locate threads.
    fn small_machine_pinned(seed: u64) -> crate::config::MachineConfig {
        let mut cfg = presets::small_machine(seed);
        cfg.balance.enabled = false;
        cfg
    }

    #[test]
    fn smt_sibling_interferes() {
        // Two compute threads on separate physical cores...
        let mut apart = Machine::new(small_machine_pinned(1));
        let a = apart.spawn(compute_spec(0, 1e8), VCoreId(0));
        apart.spawn(compute_spec(1, 1e8), VCoreId(2));
        apart.run_until_done(SimTime::from_secs_f64(10.0));
        let t_apart = apart.finish_time(a).unwrap().as_secs_f64();

        // ... versus on the two contexts of one physical core.
        let mut together = Machine::new(small_machine_pinned(1));
        let b = together.spawn(compute_spec(0, 1e8), VCoreId(0));
        together.spawn(compute_spec(1, 1e8), VCoreId(1));
        together.run_until_done(SimTime::from_secs_f64(10.0));
        let t_together = together.finish_time(b).unwrap().as_secs_f64();

        let ratio = t_together / t_apart;
        let expect = 1.0 / presets::small_machine(1).smt.busy_share;
        assert!(
            ratio > 0.9 * expect && ratio < 1.1 * expect,
            "SMT ratio {ratio}, expected ~{expect}"
        );
    }

    #[test]
    fn migration_costs_dead_time_and_counts() {
        let mut m = Machine::new(presets::small_machine(1));
        let t = m.spawn(compute_spec(0, 1e9), VCoreId(0));
        m.run_for(SimTime::from_ms(10));
        let before = m.counters(t).instructions;
        m.migrate(t, VCoreId(4));
        assert_eq!(m.counters(t).migrations, 1);
        // During dead time no progress.
        m.run_for(SimTime::from_ms(2));
        assert_eq!(m.counters(t).instructions, before);
        m.run_for(SimTime::from_ms(10));
        assert!(m.counters(t).instructions > before);
        assert_eq!(m.vcore_of(t), VCoreId(4));
        // A no-op migration neither counts nor costs.
        m.migrate(t, VCoreId(4));
        assert_eq!(m.counters(t).migrations, 1);
    }

    #[test]
    fn two_threads_share_one_vcore() {
        let mut m = Machine::new(small_machine_pinned(1));
        let a = m.spawn(compute_spec(0, 1e8), VCoreId(0));
        let b = m.spawn(compute_spec(1, 1e8), VCoreId(0));
        m.run_until_done(SimTime::from_secs_f64(10.0));
        // Each got half the core: both take roughly twice the solo time.
        let mut solo = Machine::new(small_machine_pinned(1));
        let s = solo.spawn(compute_spec(0, 1e8), VCoreId(0));
        solo.run_until_done(SimTime::from_secs_f64(10.0));
        let ratio_a =
            m.finish_time(a).unwrap().as_secs_f64() / solo.finish_time(s).unwrap().as_secs_f64();
        assert!(ratio_a > 1.7 && ratio_a < 2.3, "sharing ratio {ratio_a}");
        assert!(m.finish_time(b).is_some());
    }

    #[test]
    fn barrier_couples_group_progress() {
        let mut m = Machine::new(presets::small_machine(1));
        let barrier = Some(BarrierSpec {
            group: BarrierId(0),
            interval_instructions: 1e6,
        });
        // One member on a fast core, one on a slow core.
        let mk = |app: u32| ThreadSpec {
            barrier,
            ..compute_spec(app, 2e7)
        };
        let fast_t = m.spawn(mk(0), VCoreId(0));
        let slow_t = m.spawn(mk(0), VCoreId(4));
        assert!(m.run_until_done(SimTime::from_secs_f64(30.0)));
        let ff = m.finish_time(fast_t).unwrap().as_secs_f64();
        let fs = m.finish_time(slow_t).unwrap().as_secs_f64();
        // Barrier coupling: the fast member is dragged to the slow member's
        // pace, so finish times are close despite a ~1.9x core-speed gap.
        assert!(
            (ff - fs).abs() / fs < 0.1,
            "barrier members should finish together: {ff} vs {fs}"
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut m = Machine::new(presets::small_machine(7));
            let mut spec = memory_spec(0, 1e8);
            spec.program.phases[0].burstiness = 0.4;
            let t = m.spawn(spec, VCoreId(0));
            m.spawn(compute_spec(1, 1e8), VCoreId(2));
            m.run_for(SimTime::from_ms(500));
            m.counters(t)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_bursty_thread() {
        let run = |seed: u64| {
            let mut m = Machine::new(presets::small_machine(seed));
            let mut spec = memory_spec(0, 1e9);
            spec.program.phases[0].burstiness = 0.5;
            let t = m.spawn(spec, VCoreId(0));
            m.run_for(SimTime::from_ms(200));
            m.counters(t).llc_misses
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn events_are_recorded() {
        let mut m = Machine::new(presets::small_machine(1));
        let t = m.spawn(compute_spec(0, 1e6), VCoreId(0));
        m.migrate(t, VCoreId(1));
        m.run_until_done(SimTime::from_secs_f64(5.0));
        let kinds: Vec<&'static str> = m
            .events()
            .iter()
            .map(|e| match e {
                MachineEvent::Spawned { .. } => "spawn",
                MachineEvent::Migrated { .. } => "migrate",
                MachineEvent::Finished { .. } => "finish",
                MachineEvent::Balanced { .. } => "balance",
                MachineEvent::Stalled { .. } => "stall",
            })
            .collect();
        assert_eq!(kinds, vec!["spawn", "migrate", "finish"]);
        assert_eq!(m.total_migrations(), 1);
    }

    #[test]
    fn stall_freezes_progress_without_counting_as_migration() {
        let mut m = Machine::new(presets::small_machine(1));
        let t = m.spawn(compute_spec(0, 1e9), VCoreId(0));
        m.run_for(SimTime::from_ms(10));
        let before = m.counters(t).instructions;
        // Stalled for the whole window: no instructions retire.
        m.stall(t, SimTime::from_ms(20));
        m.run_for(SimTime::from_ms(20));
        assert_eq!(m.counters(t).instructions, before);
        assert_eq!(m.counters(t).migrations, 0);
        // Progress resumes after the stall window.
        m.run_for(SimTime::from_ms(10));
        assert!(m.counters(t).instructions > before);
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, MachineEvent::Stalled { thread, .. } if *thread == t)));
        // A zero-length stall is a no-op and records nothing.
        let n_events = m.events().len();
        m.stall(t, SimTime::ZERO);
        assert_eq!(m.events().len(), n_events);
    }

    #[test]
    fn core_counters_accumulate_on_right_core() {
        let mut m = Machine::new(presets::small_machine(1));
        m.spawn(memory_spec(0, 1e9), VCoreId(3));
        m.run_for(SimTime::from_ms(100));
        assert!(m.core_counters(VCoreId(3)).accesses > 0.0);
        assert_eq!(m.core_counters(VCoreId(0)).accesses, 0.0);
        assert_eq!(m.core_counters(VCoreId(3)).busy_us, 100_000);
    }

    #[test]
    fn balancer_promotes_threads_to_the_idle_half() {
        // Two compute threads pinned to the slow half; the balancer should
        // move one to the idle fast half within its first interval.
        let mut m = Machine::new(presets::small_machine(1));
        let a = m.spawn(compute_spec(0, 1e9), VCoreId(4));
        let b = m.spawn(compute_spec(1, 1e9), VCoreId(5));
        m.run_for(SimTime::from_ms(300));
        let on_fast = [a, b]
            .iter()
            .filter(|&&t| m.vcore_of(t).index() < 4)
            .count();
        assert_eq!(on_fast, 1, "balancer should even the halves");
        assert!(m.balancer_moves() >= 1);
        // Policy migration counters untouched.
        assert_eq!(m.total_migrations(), 0);
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, MachineEvent::Balanced { .. })));
    }

    #[test]
    fn balancer_respects_disable_flag() {
        let mut cfg = presets::small_machine(1);
        cfg.balance.enabled = false;
        let mut m = Machine::new(cfg);
        let a = m.spawn(compute_spec(0, 1e9), VCoreId(4));
        m.run_for(SimTime::from_ms(300));
        assert_eq!(m.vcore_of(a), VCoreId(4));
        assert_eq!(m.balancer_moves(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn run_for_rejects_partial_ticks() {
        let mut m = Machine::new(presets::small_machine(1));
        m.run_for(SimTime::from_us(1500));
    }

    /// A 2-domain all-fast machine (2 pcores per domain, 2-way SMT = 8
    /// vcores), balancer off so tests control placement exactly.
    fn numa_small(seed: u64) -> crate::config::MachineConfig {
        let mut cfg = presets::small_machine(seed);
        cfg.topology = crate::topology::Topology::numa_uniform(2, 2, 0, 2);
        cfg.balance.enabled = false;
        cfg
    }

    #[test]
    fn home_domain_is_fixed_at_spawn() {
        let mut m = Machine::new(numa_small(1));
        let t = m.spawn(memory_spec(0, 1e9), VCoreId(0));
        assert_eq!(m.home_domain_of(t), crate::ids::DomainId(0));
        m.migrate(t, VCoreId(4)); // domain 1
        assert_eq!(m.home_domain_of(t), crate::ids::DomainId(0));
        let u = m.spawn(memory_spec(1, 1e9), VCoreId(5));
        assert_eq!(m.home_domain_of(u), crate::ids::DomainId(1));
    }

    #[test]
    fn cross_domain_migration_costs_more_than_intra() {
        // Identical fast cores; the only difference is whether the
        // migration target shares the source's NUMA domain.
        let run = |target: u32| {
            let mut m = Machine::new(numa_small(1));
            let t = m.spawn(memory_spec(0, 5e7), VCoreId(0));
            m.migrate(t, VCoreId(target));
            m.run_until_done(SimTime::from_secs_f64(30.0));
            (
                m.finish_time(t).unwrap().as_secs_f64(),
                m.counters(t).remote_us,
            )
        };
        let (intra_s, intra_remote) = run(2); // pcore 1, still domain 0
        let (cross_s, cross_remote) = run(4); // pcore 2, domain 1
        assert_eq!(intra_remote, 0);
        assert!(cross_remote > 0, "remote residency must be counted");
        assert!(
            cross_s > intra_s * 1.05,
            "cross-domain swap must cost more: {cross_s}s vs {intra_s}s"
        );
    }

    #[test]
    fn remote_us_zero_on_single_domain_machines() {
        let mut m = Machine::new(presets::small_machine(1));
        let t = m.spawn(memory_spec(0, 1e8), VCoreId(0));
        m.migrate(t, VCoreId(4));
        m.run_until_done(SimTime::from_secs_f64(30.0));
        assert_eq!(m.counters(t).remote_us, 0);
    }

    #[test]
    fn mid_run_spawn_records_time_home_and_dense_id() {
        let mut m = Machine::new(numa_small(1));
        let a = m.spawn(compute_spec(0, 1e6), VCoreId(0));
        assert_eq!(m.spawn_time(a), SimTime::ZERO);
        m.run_for(SimTime::from_ms(50));
        // First-touch homing happens at actual spawn time, on the core the
        // arrival lands on — domain 1 here, regardless of earlier threads.
        let b = m.spawn(compute_spec(1, 1e6), VCoreId(5));
        assert_eq!(b, ThreadId(1), "ids stay dense across mid-run spawns");
        assert_eq!(m.spawn_time(b), SimTime::from_ms(50));
        assert_eq!(m.home_domain_of(b), crate::ids::DomainId(1));
        assert!(m.run_until_done(SimTime::from_secs_f64(10.0)));
        // A finished thread is retired: its vcore shows up as idle again.
        assert!(m.idle_vcores().contains(&VCoreId(5)));
        assert_eq!(m.idle_vcores().len(), 8);
    }

    #[test]
    fn idle_vcores_excludes_occupied_slots() {
        let mut m = Machine::new(small_machine_pinned(1));
        m.spawn(compute_spec(0, 1e9), VCoreId(2));
        m.spawn(compute_spec(1, 1e9), VCoreId(2)); // doubled up
        let idle = m.idle_vcores();
        assert!(!idle.contains(&VCoreId(2)));
        assert_eq!(idle.len(), 7, "one occupied vcore on an 8-vcore machine");
    }

    #[test]
    fn full_width_single_cluster_is_bitwise_unpartitioned() {
        // A single cluster holding every way, with every thread assigned
        // to it, computes the very same working-set sum (same order) and
        // the very same inflation as the unpartitioned path — so the whole
        // trajectory must match bit for bit, including burstiness.
        let run = |partition: bool| {
            let mut m = Machine::new(small_machine_pinned(7));
            let mut ids = Vec::new();
            for i in 0..4u32 {
                let mut spec = memory_spec(i, 2e8);
                spec.program.phases[0].burstiness = 0.3;
                ids.push(m.spawn(spec, VCoreId(i * 2)));
            }
            if partition {
                let plan = PartitionPlan {
                    cluster_ways: vec![m.config().llc.ways],
                    assignments: ids.iter().map(|&t| (t, 0)).collect(),
                };
                m.apply_partition(&plan).unwrap();
                assert!(m.partition_active());
            }
            m.run_for(SimTime::from_ms(500));
            ids.iter().map(|&t| m.counters(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn full_width_single_cluster_is_bitwise_unpartitioned_on_numa() {
        // Same identity on a two-domain machine.
        let run = |partition: bool| {
            let mut m = Machine::new(numa_small(7));
            let mut ids = Vec::new();
            for i in 0..4u32 {
                let mut spec = memory_spec(i, 2e8);
                spec.program.phases[0].burstiness = 0.3;
                ids.push(m.spawn(spec, VCoreId(i * 2)));
            }
            if partition {
                let plan = PartitionPlan {
                    cluster_ways: vec![m.config().llc.ways],
                    assignments: ids.iter().map(|&t| (t, 0)).collect(),
                };
                m.apply_partition(&plan).unwrap();
            }
            m.run_for(SimTime::from_ms(500));
            ids.iter().map(|&t| m.counters(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn jailing_a_thrasher_shields_the_sensitive_corunner() {
        // The thrasher drags a 20 MiB footprint through the 5 MiB LLC but
        // misses rarely (capacity pressure without bandwidth pressure), so
        // unpartitioned both threads inflate to the cap. Jailing it into a
        // single way leaves the victim a 15/16 slice its 8 MiB set only
        // mildly overflows, while the thrasher's own inflation was already
        // capped — the shielded victim finishes sooner, the bandwidth bill
        // stays the same.
        let run = |jail: bool| {
            let mut m = Machine::new(small_machine_pinned(1));
            let victim = m.spawn(memory_spec(0, 2e8), VCoreId(0));
            let thrasher = m.spawn(
                ThreadSpec {
                    app: AppId(1),
                    app_name: "thrash".into(),
                    program: PhaseProgram::single(Phase::steady(1.0, 5.0, 20.0, 1e6), 1e9),
                    barrier: None,
                },
                VCoreId(2),
            );
            if jail {
                let plan = PartitionPlan {
                    cluster_ways: vec![1, m.config().llc.ways - 1],
                    assignments: vec![(victim, 1), (thrasher, 0)],
                };
                m.apply_partition(&plan).unwrap();
            }
            m.run_until_done(SimTime::from_secs_f64(300.0));
            m.finish_time(victim).unwrap().as_secs_f64()
        };
        let jailed = run(true);
        let free = run(false);
        assert!(
            jailed < free * 0.95,
            "shielded victim should finish sooner: {jailed}s vs {free}s"
        );
    }

    #[test]
    fn partition_epoch_validation_and_occupancy() {
        let mut m = Machine::new(small_machine_pinned(1));
        assert_eq!(m.partition_epoch(), 0);
        assert!(!m.partition_active());
        // An invalid plan is rejected without touching state.
        let bad = PartitionPlan {
            cluster_ways: vec![99],
            assignments: vec![],
        };
        assert!(m.apply_partition(&bad).is_err());
        assert_eq!(m.partition_epoch(), 0);
        let t = m.spawn(memory_spec(0, 1e9), VCoreId(0));
        // Unpartitioned occupancy: working set capped at full capacity.
        assert_eq!(m.llc_occupancy_mib(t), 5.0);
        let plan = PartitionPlan {
            cluster_ways: vec![4],
            assignments: vec![(t, 0)],
        };
        m.apply_partition(&plan).unwrap();
        assert_eq!(m.partition_epoch(), 1);
        assert!(m.partition_active());
        assert_eq!(m.partition().cluster_ways, vec![4]);
        // Occupancy is now capped by the 4/16 slice.
        let cap = m.config().llc.capacity_mib * 4.0 / 16.0;
        assert!((m.llc_occupancy_mib(t) - cap).abs() < 1e-12);
        // Shrinking the slice charged a cache warm-up (no dead time).
        assert!(m.threads.warmup_until[t.index()] > SimTime::ZERO);
        assert_eq!(m.threads.dead_until[t.index()], SimTime::ZERO);
        m.clear_partition();
        assert_eq!(m.partition_epoch(), 2);
        assert!(!m.partition_active());
        // Reset returns to the unpartitioned epoch-zero state.
        m.apply_partition(&plan).unwrap();
        m.reset();
        assert_eq!(m.partition_epoch(), 0);
        assert!(!m.partition_active());
    }

    #[test]
    fn numa_machine_runs_threads_in_every_domain() {
        let mut cfg = presets::numa_machine(4, 3);
        cfg.balance.enabled = false;
        let mut m = Machine::new(cfg);
        let mut ids = Vec::new();
        for d in 0..4u32 {
            ids.push(m.spawn(memory_spec(d, 5e7), VCoreId(d * 40)));
        }
        assert!(m.run_until_done(SimTime::from_secs_f64(30.0)));
        for (d, &t) in ids.iter().enumerate() {
            assert_eq!(m.home_domain_of(t), crate::ids::DomainId(d as u32));
            assert_eq!(m.counters(t).remote_us, 0);
            assert!(m.counters(t).instructions >= 5e7 - 1.0);
        }
    }

    impl Machine {
        /// One tick with every fast path forced off: the quiescent skip,
        /// the per-domain incremental rebuild, phase freshness (every
        /// thread's phase is walked again), the cached next expiry (the
        /// expiry scan runs), the solver memo, the no-remote shortcut (an
        /// offset on the remote count sends every controller through the
        /// gather from its home list) and the advance fast path with its
        /// step cache (a bound of −∞ fails the fast-path test, so every
        /// thread takes the exact slow walk). The reference a normal tick,
        /// or a span, must match bit for bit.
        fn tick_cold(&mut self) {
            const PRETEND_REMOTE: usize = usize::MAX / 2;
            self.state_dirty = true;
            self.dirty_domains.iter_mut().for_each(|f| *f = true);
            self.stale_ctrls.iter_mut().for_each(|f| *f = true);
            self.phase_fresh.iter_mut().for_each(|f| *f = false);
            self.next_expiry = SimTime::ZERO;
            self.ctrl_solver.invalidate();
            self.n_remote += PRETEND_REMOTE;
            self.tick_head();
            for &i in &self.alive {
                self.thread_boundary[i as usize] = f64::NEG_INFINITY;
            }
            self.tick_body();
            self.n_remote -= PRETEND_REMOTE;
        }

        /// Alive threads running outside their home domain, counted from
        /// scratch.
        fn count_remote(&self) -> usize {
            self.alive_ids()
                .filter(|&t| {
                    self.vcore_domain[self.vcore_of(t).index()] != self.home_domain_of(t).0
                })
                .count()
        }
    }

    /// A random multi-phase, partly bursty program, short enough that a
    /// few dozen ticks cross phase boundaries and completions.
    fn random_spec(rng: &mut Pcg32, app: u32, barrier: Option<BarrierSpec>) -> ThreadSpec {
        let n_phases = rng.gen_range(1usize..4);
        let phases = (0..n_phases)
            .map(|_| {
                let cpi = rng.gen_range(0.3f64..2.0);
                let mpki = rng.gen_range(0.1f64..40.0);
                let ws = rng.gen_range(0.1f64..16.0);
                let instructions = rng.gen_range(2e5f64..5e6);
                let bursty = rng.gen_range(0u32..3) != 0;
                let burstiness = rng.gen_range(0.0f64..0.5);
                Phase::steady(cpi, mpki, ws, instructions).with_burstiness(if bursty {
                    burstiness
                } else {
                    0.0
                })
            })
            .collect();
        ThreadSpec {
            app: AppId(app),
            app_name: format!("t{app}"),
            program: PhaseProgram {
                phases,
                repeat: PhaseRepeat::LoopFrom(rng.gen_range(0..n_phases)),
                total_instructions: rng.gen_range(1e6f64..3e7),
            },
            barrier,
        }
    }

    /// Everything a tick can change, one line per item, with floats in
    /// shortest round-trip form (so equal lines mean equal bits).
    fn state_lines(m: &Machine) -> Vec<String> {
        let mut lines = vec![format!("now {:?} alive {:?}", m.now(), m.alive)];
        for t in m.thread_ids() {
            lines.push(format!(
                "{t:?} on {:?} finished {:?} {:?}",
                m.vcore_of(t),
                m.finish_time(t),
                m.counters(t)
            ));
        }
        for v in 0..m.config().topology.num_vcores() {
            lines.push(format!("{:?}", m.core_counters(VCoreId(v as u32))));
        }
        lines.extend(m.events().iter().map(|e| format!("{e:?}")));
        lines
    }

    /// Require the twins' `state_lines` to be equal, line by line.
    fn assert_same_state(fast: &Machine, cold: &Machine, what: &str) {
        let (f, c) = (state_lines(fast), state_lines(cold));
        assert_eq!(f.len(), c.len(), "{what}: state shapes differ");
        for (a, b) in f.iter().zip(&c) {
            assert_eq!(a, b, "{what}: fast ticks diverged from cold ticks");
        }
    }

    #[test]
    fn fast_ticks_match_cold_ticks_on_random_machines() {
        // The quiescent skip, spans, the step cache, phase freshness, the
        // cached next expiry, the per-domain incremental rebuild, the
        // solver memo and the no-remote shortcut must each be a pure
        // speedup: a machine running stretches of 1-20 ticks through
        // `run_for` (so spans form wherever they may) and its twin
        // rebuilding, walking, scanning, gathering and solving everything
        // cold every single tick must stay bit-identical through random
        // placements, barriers, migrations, stalls, partition plans and
        // mid-run spawns, on one- and two-domain machines alike.
        check(
            "fast_ticks_match_cold_ticks_on_random_machines",
            48,
            |rng| {
                let seed = rng.gen_range(0u64..1000);
                let mut cfg = match rng.gen_range(0u32..4) {
                    0 => presets::paper_machine(seed),
                    1 => presets::small_machine(seed),
                    2 => numa_small(seed),
                    _ => presets::numa_machine(2, seed),
                };
                // A short balancer period, sometimes off the tick grid,
                // puts balancer instants inside the stretches spans cover.
                cfg.balance.interval_us = rng.gen_range(1u64..=24) * 500;
                let n_vcores = cfg.topology.num_vcores();
                let ways = cfg.llc.ways;
                let mut fast = Machine::new(cfg.clone());
                let mut cold = Machine::new(cfg);
                let barrier = BarrierSpec {
                    group: BarrierId(0),
                    interval_instructions: rng.gen_range(5e5f64..4e6),
                };
                let n_threads = rng.gen_range(1..n_vcores.min(32) + 8);
                for app in 0..n_threads as u32 {
                    let joins = rng.gen_range(0u32..3) == 0;
                    let spec = random_spec(rng, app, joins.then_some(barrier));
                    let vcore = VCoreId(rng.gen_range(0..n_vcores) as u32);
                    fast.spawn(spec.clone(), vcore);
                    cold.spawn(spec, vcore);
                }
                let tick_us = fast.config().tick_us;
                for batch in 0..8 {
                    let ticks = rng.gen_range(1u64..=20);
                    fast.run_for(SimTime::from_us(ticks * tick_us));
                    for _ in 0..ticks {
                        cold.tick_cold();
                    }
                    assert_same_state(&fast, &cold, &format!("batch {batch}"));
                    assert_eq!(fast.n_remote, fast.count_remote(), "batch {batch}");
                    let n = fast.num_threads() as u32;
                    let thread = ThreadId(rng.gen_range(0..n));
                    let vcore = VCoreId(rng.gen_range(0..n_vcores) as u32);
                    match rng.gen_range(0u32..5) {
                        0 => {
                            fast.migrate(thread, vcore);
                            cold.migrate(thread, vcore);
                        }
                        1 => {
                            let dur = SimTime::from_us(rng.gen_range(0u64..6_000));
                            fast.stall(thread, dur);
                            cold.stall(thread, dur);
                        }
                        2 => {
                            let n_clusters = rng.gen_range(1u32..4);
                            let cluster_ways = (0..n_clusters)
                                .map(|_| rng.gen_range(1..=ways / 4))
                                .collect();
                            // Drawing one past the last cluster leaves the
                            // thread in the shared pool.
                            let assignments = (0..n)
                                .filter_map(|t| {
                                    let c = rng.gen_range(0..=n_clusters);
                                    (c < n_clusters).then_some((ThreadId(t), c))
                                })
                                .collect();
                            let plan = PartitionPlan {
                                cluster_ways,
                                assignments,
                            };
                            fast.apply_partition(&plan).unwrap();
                            cold.apply_partition(&plan).unwrap();
                        }
                        3 => {
                            fast.clear_partition();
                            cold.clear_partition();
                        }
                        _ => {
                            let joins = rng.gen_range(0u32..3) == 0;
                            let spec = random_spec(rng, n, joins.then_some(barrier));
                            fast.spawn(spec.clone(), vcore);
                            cold.spawn(spec, vcore);
                        }
                    }
                }
                // `run_until_done` spans too: capped at a deadline that may
                // fall between ticks, and stopping once everything is done.
                let deadline = fast.now() + SimTime::from_us(rng.gen_range(1u64..=60_000));
                let done = fast.run_until_done(deadline);
                while !cold.all_done() && cold.now() < deadline {
                    cold.tick_cold();
                }
                assert_eq!(done, cold.all_done());
                assert_same_state(&fast, &cold, "run_until_done");
            },
        );
    }
}
