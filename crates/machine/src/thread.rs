//! Thread specifications and runtime state.

use crate::ids::{AppId, BarrierId, DomainId, SimTime, VCoreId};
use crate::phase::PhaseProgram;
use std::num::NonZeroU64;
use std::sync::Arc;

/// Barrier-synchronisation behaviour of a thread (the paper's KMEANS
/// background app "produces excessive inter-thread communication"; we model
/// communication as recurring group barriers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierSpec {
    /// Barrier group this thread belongs to. All members must use the same
    /// interval.
    pub group: BarrierId,
    /// Instructions between consecutive barriers.
    pub interval_instructions: f64,
}

/// Everything the machine needs to know to run one thread.
///
/// The program is shared: every thread of one app kind at one scale runs
/// the same immutable [`PhaseProgram`], so a spec holds it by refcount
/// and cloning a spec allocates nothing. The machine still validates the
/// program at every spawn.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSpec {
    /// Application this thread belongs to.
    pub app: AppId,
    /// The thread's phase program.
    pub program: Arc<PhaseProgram>,
    /// Optional barrier synchronisation.
    pub barrier: Option<BarrierSpec>,
}

impl ThreadSpec {
    /// Validate the spec.
    pub fn validate(&self) -> Result<(), String> {
        self.program.validate()?;
        if let Some(b) = &self.barrier {
            if !(b.interval_instructions > 0.0) {
                return Err("barrier interval must be > 0".into());
            }
        }
        Ok(())
    }
}

/// Cumulative hardware-counter values for one thread.
///
/// These are the quantities a scheduler may legitimately observe — the
/// simulated analogue of a per-thread perf-event group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThreadCounters {
    /// Instructions retired.
    pub instructions: f64,
    /// LLC misses (equivalently, main-memory accesses — the paper uses the
    /// terms interchangeably for scheduling purposes).
    pub llc_misses: f64,
    /// LLC accesses (loads/stores reaching the shared cache). The paper's
    /// classification boundary — "LLC miss rate more than 10 %" — is
    /// `llc_misses / llc_accesses`.
    pub llc_accesses: f64,
    /// Core cycles elapsed while scheduled (frequency × busy wall time).
    pub cycles: f64,
    /// Wall time spent runnable on a core, in microseconds.
    pub busy_us: u64,
    /// Wall time spent runnable on a core *outside the thread's home NUMA
    /// domain*, in microseconds. Always 0 on single-domain machines.
    pub remote_us: u64,
    /// Number of migrations performed on this thread.
    pub migrations: u64,
}

impl ThreadCounters {
    /// Counter deltas `self - earlier` (for per-quantum rates).
    pub fn delta(&self, earlier: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            instructions: self.instructions - earlier.instructions,
            llc_misses: self.llc_misses - earlier.llc_misses,
            llc_accesses: self.llc_accesses - earlier.llc_accesses,
            cycles: self.cycles - earlier.cycles,
            busy_us: self.busy_us - earlier.busy_us,
            remote_us: self.remote_us - earlier.remote_us,
            migrations: self.migrations - earlier.migrations,
        }
    }

    /// LLC miss ratio over these counters (misses / instruction). Returns 0
    /// when no instructions retired.
    pub fn miss_ratio(&self) -> f64 {
        if self.instructions > 0.0 {
            self.llc_misses / self.instructions
        } else {
            0.0
        }
    }

    /// LLC miss *rate* (misses / LLC access) — the paper's classification
    /// quantity. Returns 0 when no accesses were made.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llc_accesses > 0.0 {
            self.llc_misses / self.llc_accesses
        } else {
            0.0
        }
    }

    /// Instructions per cycle. Returns 0 when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions / self.cycles
        } else {
            0.0
        }
    }
}

/// Cumulative counters for one virtual core.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreCounters {
    /// Memory accesses served for threads running on this core.
    pub accesses: f64,
    /// Microseconds during which at least one thread ran on this core.
    pub busy_us: u64,
}

impl CoreCounters {
    /// Counter deltas `self - earlier`.
    pub fn delta(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            accesses: self.accesses - earlier.accesses,
            busy_us: self.busy_us - earlier.busy_us,
        }
    }
}

/// Marks a [`ThreadHistory`] whose thread has no hot row any more.
pub(crate) const RETIRED: u32 = u32::MAX;

/// What a machine keeps of every thread it has ever spawned, 24 B each:
/// the answers that outlive the thread's hot row (crate-private). Indexed
/// by `ThreadId`, which stays the thread's public identity for life.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThreadHistory {
    /// Machine time at which the thread was spawned. Zero for a closed
    /// workload; mid-run arrivals record their actual arrival instant so
    /// fairness can normalise by sojourn time.
    pub spawned_at: SimTime,
    /// Completion time in microseconds, once finished. A thread finishes
    /// at the end of a tick, never at time zero, so the zero niche holds
    /// "not yet" and the field takes 8 B instead of an `Option`'s 16.
    pub finished_us: Option<NonZeroU64>,
    /// Application the thread belongs to.
    pub app: AppId,
    /// The thread's row in the hot slab, or [`RETIRED`] once
    /// `Machine::retire_finished` has compacted it away.
    pub row: u32,
}

/// Internal runtime state of the threads that have not been retired, laid
/// out as structure-of-arrays slabs indexed by *row* (crate-private).
///
/// The engine's tick loop touches a handful of fields for every runnable
/// thread every millisecond of simulated time; keeping each field in its
/// own contiguous slab means those sweeps walk dense cache lines instead
/// of striding over one large per-thread struct (most of which — the spec,
/// the counters — a given pass never reads). A spawn appends a row and
/// compaction removes finished rows in place without reordering the rest,
/// so rows stay in ascending thread-id order; `ids` maps a row back to
/// its thread.
#[derive(Debug, Clone, Default)]
pub(crate) struct ThreadSlab {
    /// The thread id of each row, ascending.
    pub ids: Vec<u32>,
    /// Immutable per-thread specification (app, phase program, barrier).
    pub specs: Vec<ThreadSpec>,
    /// Core each thread is currently pinned to.
    pub vcore: Vec<VCoreId>,
    /// NUMA domain the thread's memory is homed to (first touch: the domain
    /// of the core it was spawned on). Misses always queue there.
    pub home_domain: Vec<DomainId>,
    /// Instructions retired so far.
    pub retired: Vec<f64>,
    /// True once the thread has retired all its instructions (its finish
    /// time is in its history).
    pub finished: Vec<bool>,
    /// The thread makes no progress before this time (migration dead time).
    pub dead_until: Vec<SimTime>,
    /// Elevated miss ratio until this time (cache warm-up after migration).
    pub warmup_until: Vec<SimTime>,
    /// Instruction count of the next barrier, if barrier-synchronised.
    pub next_barrier_at: Vec<f64>,
    /// True while parked at a barrier waiting for the group.
    pub at_barrier: Vec<bool>,
    /// Cumulative counters.
    pub counters: Vec<ThreadCounters>,
}

/// Keep only the rows `keep` names (ascending), in order, at the front of
/// `column`, and drop the rest — in place, without allocating. Each kept
/// row moves down to its index in `keep`: row `keep[k] >= k`, and every
/// slot a later step reads is still untouched.
pub(crate) fn compact_column<T>(column: &mut Vec<T>, keep: &[u32]) {
    for (k, &row) in keep.iter().enumerate() {
        column.swap(k, row as usize);
    }
    column.truncate(keep.len());
}

impl ThreadSlab {
    /// Number of hot rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the slab holds no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Reserve room for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.specs.reserve(additional);
        self.vcore.reserve(additional);
        self.home_domain.reserve(additional);
        self.retired.reserve(additional);
        self.finished.reserve(additional);
        self.dead_until.reserve(additional);
        self.warmup_until.reserve(additional);
        self.next_barrier_at.reserve(additional);
        self.at_barrier.reserve(additional);
        self.counters.reserve(additional);
    }

    /// Append a row for freshly spawned thread `id`.
    pub fn push(&mut self, id: u32, spec: ThreadSpec, vcore: VCoreId, home_domain: DomainId) {
        let next_barrier_at = spec
            .barrier
            .map(|b| b.interval_instructions)
            .unwrap_or(f64::INFINITY);
        self.ids.push(id);
        self.specs.push(spec);
        self.vcore.push(vcore);
        self.home_domain.push(home_domain);
        self.retired.push(0.0);
        self.finished.push(false);
        self.dead_until.push(SimTime::ZERO);
        self.warmup_until.push(SimTime::ZERO);
        self.next_barrier_at.push(next_barrier_at);
        self.at_barrier.push(false);
        self.counters.push(ThreadCounters::default());
    }

    /// Keep only the rows `keep` names, in order (see [`compact_column`]).
    pub fn compact(&mut self, keep: &[u32]) {
        compact_column(&mut self.ids, keep);
        compact_column(&mut self.specs, keep);
        compact_column(&mut self.vcore, keep);
        compact_column(&mut self.home_domain, keep);
        compact_column(&mut self.retired, keep);
        compact_column(&mut self.finished, keep);
        compact_column(&mut self.dead_until, keep);
        compact_column(&mut self.warmup_until, keep);
        compact_column(&mut self.next_barrier_at, keep);
        compact_column(&mut self.at_barrier, keep);
        compact_column(&mut self.counters, keep);
    }

    /// Release every column's capacity beyond its rows.
    pub fn shrink_to_fit(&mut self) {
        self.ids.shrink_to_fit();
        self.specs.shrink_to_fit();
        self.vcore.shrink_to_fit();
        self.home_domain.shrink_to_fit();
        self.retired.shrink_to_fit();
        self.finished.shrink_to_fit();
        self.dead_until.shrink_to_fit();
        self.warmup_until.shrink_to_fit();
        self.next_barrier_at.shrink_to_fit();
        self.at_barrier.shrink_to_fit();
        self.counters.shrink_to_fit();
    }

    /// True once row `i`'s thread has retired all its instructions.
    #[inline]
    pub fn finished(&self, i: usize) -> bool {
        self.finished[i]
    }

    /// True if row `i`'s thread can execute at time `now`: alive, not
    /// parked at a barrier, and not inside migration dead time.
    #[inline]
    pub fn runnable(&self, i: usize, now: SimTime) -> bool {
        !self.finished(i) && !self.at_barrier[i] && now >= self.dead_until[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, PhaseProgram};

    fn spec() -> ThreadSpec {
        ThreadSpec {
            app: AppId(0),
            program: PhaseProgram::single(Phase::steady(1.0, 10.0, 4.0, 1e6), 1e7).into(),
            barrier: None,
        }
    }

    #[test]
    fn counters_delta_and_ratios() {
        let a = ThreadCounters {
            instructions: 1000.0,
            llc_misses: 30.0,
            llc_accesses: 300.0,
            cycles: 2000.0,
            busy_us: 10,
            remote_us: 6,
            migrations: 1,
        };
        let b = ThreadCounters {
            instructions: 400.0,
            llc_misses: 10.0,
            llc_accesses: 120.0,
            cycles: 800.0,
            busy_us: 4,
            remote_us: 2,
            migrations: 0,
        };
        let d = a.delta(&b);
        assert_eq!(d.instructions, 600.0);
        assert_eq!(d.llc_misses, 20.0);
        assert_eq!(d.llc_accesses, 180.0);
        assert_eq!(d.remote_us, 4);
        assert_eq!(d.migrations, 1);
        assert!((a.miss_ratio() - 0.03).abs() < 1e-12);
        assert!((a.llc_miss_rate() - 0.1).abs() < 1e-12);
        assert!((a.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().miss_ratio(), 0.0);
        assert_eq!(ThreadCounters::default().llc_miss_rate(), 0.0);
        assert_eq!(ThreadCounters::default().ipc(), 0.0);
    }

    #[test]
    fn core_counters_delta() {
        let a = CoreCounters {
            accesses: 100.0,
            busy_us: 50,
        };
        let b = CoreCounters {
            accesses: 40.0,
            busy_us: 20,
        };
        let d = a.delta(&b);
        assert_eq!(d.accesses, 60.0);
        assert_eq!(d.busy_us, 30);
    }

    #[test]
    fn history_rows_are_24_bytes() {
        assert_eq!(std::mem::size_of::<ThreadHistory>(), 24);
    }

    #[test]
    fn compaction_keeps_the_named_rows_in_order() {
        let mut column: Vec<u32> = (10..20).collect();
        compact_column(&mut column, &[0, 3, 4, 8]);
        assert_eq!(column, vec![10, 13, 14, 18]);
        let capacity = column.capacity();
        compact_column(&mut column, &[]);
        assert!(column.is_empty());
        assert_eq!(column.capacity(), capacity, "compaction keeps capacity");
        let mut column: Vec<u32> = (0..4).collect();
        compact_column(&mut column, &[0, 1, 2, 3]);
        assert_eq!(column, vec![0, 1, 2, 3]);
    }

    #[test]
    fn new_thread_state_is_runnable() {
        let mut s = ThreadSlab::default();
        assert!(s.is_empty());
        s.push(0, spec(), VCoreId(0), DomainId(0));
        assert_eq!(s.len(), 1);
        assert!(s.runnable(0, SimTime::ZERO));
        assert!(!s.finished(0));
        assert_eq!(s.next_barrier_at[0], f64::INFINITY);
        assert_eq!(s.retired[0], 0.0);
    }

    #[test]
    fn dead_time_blocks_execution() {
        let mut s = ThreadSlab::default();
        s.push(0, spec(), VCoreId(0), DomainId(0));
        s.dead_until[0] = SimTime::from_ms(5);
        assert!(!s.runnable(0, SimTime::from_ms(4)));
        assert!(s.runnable(0, SimTime::from_ms(5)));
    }

    #[test]
    fn barrier_spec_sets_first_barrier() {
        let mut sp = spec();
        sp.barrier = Some(BarrierSpec {
            group: BarrierId(0),
            interval_instructions: 5000.0,
        });
        assert!(sp.validate().is_ok());
        let mut s = ThreadSlab::default();
        s.push(0, sp, VCoreId(1), DomainId(0));
        assert_eq!(s.next_barrier_at[0], 5000.0);
    }

    #[test]
    fn invalid_barrier_interval_rejected() {
        let mut sp = spec();
        sp.barrier = Some(BarrierSpec {
            group: BarrierId(0),
            interval_instructions: 0.0,
        });
        assert!(sp.validate().is_err());
    }
}
