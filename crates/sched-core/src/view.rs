//! What a scheduler is allowed to observe each quantum.
//!
//! A real contention-aware scheduler sees per-thread performance counters
//! and the core topology — nothing else. [`SystemView`] packages exactly
//! that: per-thread rates over the last quantum (from counter deltas) and
//! per-core observed bandwidth. Ground-truth simulator state (phase
//! programs, intrinsic miss ratios) is deliberately absent.

use dike_counters::RateSample;
use dike_machine::topology::CoreKind;
use dike_machine::{AppId, DomainId, PartitionPlan, SimTime, ThreadCounters, ThreadId, VCoreId};

/// Per-thread observation for the last quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadObservation {
    /// Thread id.
    pub id: ThreadId,
    /// Owning application.
    pub app: AppId,
    /// Core the thread is currently pinned to.
    pub vcore: VCoreId,
    /// Rates over the last quantum.
    pub rates: RateSample,
    /// Cumulative counters since spawn.
    pub cumulative: ThreadCounters,
    /// True if this thread migrated during the last quantum (the paper's
    /// Decider skips threads swapped in the previous quantum).
    pub migrated_last_quantum: bool,
    /// Estimated LLC occupancy in MiB — the Intel CMT analogue a
    /// cache-partitioning policy samples to build miss curves. Subject to
    /// the same telemetry faults as the counter rates.
    pub llc_occupancy_mib: f64,
}

/// Per-core observation for the last quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreObservation {
    /// Core id.
    pub id: VCoreId,
    /// Core kind (class + frequency) — public hardware knowledge.
    pub kind: CoreKind,
    /// NUMA domain of the core — public hardware knowledge, like the kind.
    /// Always `DomainId(0)` on single-controller machines.
    pub domain: DomainId,
    /// Memory accesses served per second on this core over the last
    /// quantum — the raw input to the paper's `CoreBW` moving mean.
    pub bandwidth: f64,
}

/// A scheduler's complete view of the system at a quantum boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemView {
    /// Current simulated time.
    pub now: SimTime,
    /// Length of the quantum that just elapsed.
    pub quantum: SimTime,
    /// Index of this quantum (0 = after the first quantum).
    pub quantum_index: u64,
    /// Alive threads, in thread-id order.
    pub threads: Vec<ThreadObservation>,
    /// All cores, in core-id order.
    pub cores: Vec<CoreObservation>,
    /// Number of NUMA domains on the machine — public hardware knowledge
    /// from the topology, so policies never have to re-derive it by
    /// scanning per-core domain tags. `0` (the default) means "unstated";
    /// consumers treat it as a single domain.
    pub num_domains: usize,
    /// Threads that arrived (were spawned) during the quantum that just
    /// elapsed, in spawn order. Always empty for a closed workload, where
    /// every thread exists before the driver starts.
    pub arrived: Vec<ThreadId>,
    /// Threads that departed (finished) during the quantum that just
    /// elapsed, in thread-id order. Departed threads are absent from
    /// `threads`; policies must evict any per-thread state they keep.
    pub departed: Vec<ThreadId>,
    /// Per-core occupancy in CSR form: core `v` hosts
    /// `occ_ids[occ_offsets[v] .. occ_offsets[v+1]]` (thread-id order).
    /// Derived from the machine's actual placement, so a thread whose
    /// telemetry sample was dropped this quantum still appears on its
    /// core; read through [`SystemView::occupants`]. Empty (all cores
    /// unoccupied) when a hand-built view never called
    /// [`SystemView::assign_occupants`].
    pub occ_offsets: Vec<u32>,
    /// CSR payload for [`SystemView::occupants`]: thread ids grouped by
    /// core, cores in id order, ids ascending within a core.
    pub occ_ids: Vec<ThreadId>,
    /// Number of successful partition applications on the machine so far
    /// (see [`dike_machine::Machine::partition_epoch`]). A policy that
    /// requested a [`PartitionPlan`] checks this advanced to verify the
    /// request actually landed.
    pub partition_epoch: u64,
}

impl SystemView {
    /// Observation for a specific thread, if alive.
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadObservation> {
        self.threads.iter().find(|t| t.id == id)
    }

    /// Threads currently pinned to core `v` (alive only, ascending id).
    /// Returns an empty slice when occupancy was never assigned (a
    /// hand-built view) or the core id is out of range.
    pub fn occupants(&self, v: VCoreId) -> &[ThreadId] {
        let i = v.index();
        if i + 1 >= self.occ_offsets.len() {
            return &[];
        }
        &self.occ_ids[self.occ_offsets[i] as usize..self.occ_offsets[i + 1] as usize]
    }

    /// Populate the occupancy CSR from the observation list (each thread
    /// on its `vcore`). Fixture helper for hand-built views; the driver
    /// instead derives occupancy from the machine's placement so telemetry
    /// dropout cannot hide a live thread from its core.
    pub fn assign_occupants(&mut self) {
        let n = self.cores.len();
        self.occ_offsets.clear();
        self.occ_offsets.resize(n + 1, 0);
        for t in &self.threads {
            self.occ_offsets[t.vcore.index() + 1] += 1;
        }
        for v in 0..n {
            self.occ_offsets[v + 1] += self.occ_offsets[v];
        }
        self.occ_ids.clear();
        self.occ_ids.resize(self.threads.len(), ThreadId(0));
        let mut cursor: Vec<u32> = self.occ_offsets[..n].to_vec();
        for t in &self.threads {
            let c = &mut cursor[t.vcore.index()];
            self.occ_ids[*c as usize] = t.id;
            *c += 1;
        }
    }

    /// Observation for a core.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn core(&self, id: VCoreId) -> &CoreObservation {
        &self.cores[id.index()]
    }
}

/// Actions a scheduler may request at a quantum boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Actions {
    /// Affinity changes to apply, in order.
    pub migrations: Vec<(ThreadId, VCoreId)>,
    /// Pair tag per migration, parallel to `migrations`: entries sharing a
    /// tag were requested together by [`Actions::swap`];
    /// [`Actions::NO_PAIR`] marks a unilateral [`Actions::migrate`]. The
    /// driver counts a swap as completed only when both members of a tag
    /// actually landed, so lost or delayed migrations can no longer be
    /// mistaken for half a swap.
    pair_of: Vec<u32>,
    /// Number of swap pairs requested (tags are `0..num_pairs`).
    num_pairs: u32,
    /// Change the scheduling quantum from the next quantum on (the
    /// Optimizer's `quantaLength` actuation).
    pub set_quantum: Option<SimTime>,
    /// LLC way-partitioning request — the second actuator channel. At most
    /// one plan per quantum; a later request in the same quantum replaces
    /// an earlier one (the machine applies plans wholesale). Subject to
    /// the same actuation faults as migrations: the driver may drop or
    /// delay it, so policies verify via [`SystemView::partition_epoch`]
    /// (or a [`crate::PartitionPlanner`]).
    pub partition: Option<PartitionPlan>,
}

impl Actions {
    /// Pair tag of a migration requested outside any swap.
    pub const NO_PAIR: u32 = u32::MAX;

    /// Request a migration.
    pub fn migrate(&mut self, thread: ThreadId, to: VCoreId) {
        self.migrations.push((thread, to));
        self.pair_of.push(Self::NO_PAIR);
    }

    /// Request a pairwise swap: each thread moves to the other's core.
    pub fn swap(&mut self, a: (ThreadId, VCoreId), b: (ThreadId, VCoreId)) {
        let tag = self.num_pairs;
        self.num_pairs += 1;
        self.migrations.push((a.0, b.1));
        self.migrations.push((b.0, a.1));
        self.pair_of.push(tag);
        self.pair_of.push(tag);
    }

    /// Pair tag of migration `i`: `Some(tag)` when it is one member of a
    /// requested swap, `None` for a unilateral migration (including
    /// entries pushed directly onto `migrations` without going through
    /// [`Actions::migrate`]).
    pub fn pair_tag(&self, i: usize) -> Option<u32> {
        match self.pair_of.get(i) {
            Some(&t) if t != Self::NO_PAIR => Some(t),
            _ => None,
        }
    }

    /// Number of swap pairs requested via [`Actions::swap`].
    pub fn num_pairs(&self) -> u32 {
        self.num_pairs
    }

    /// Reset to the empty state, retaining buffer capacity (the driver
    /// reuses one `Actions` across every quantum of a run).
    pub fn clear(&mut self) {
        self.migrations.clear();
        self.pair_of.clear();
        self.num_pairs = 0;
        self.set_quantum = None;
        self.partition = None;
    }

    /// True when no actions were requested.
    pub fn is_empty(&self) -> bool {
        self.migrations.is_empty() && self.set_quantum.is_none() && self.partition.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(id: u32, rate: f64) -> ThreadObservation {
        ThreadObservation {
            id: ThreadId(id),
            app: AppId(0),
            vcore: VCoreId(id),
            rates: RateSample {
                access_rate: rate,
                ..RateSample::default()
            },
            cumulative: ThreadCounters::default(),
            migrated_last_quantum: false,
            llc_occupancy_mib: 0.0,
        }
    }

    #[test]
    fn view_lookup_helpers() {
        let mut view = SystemView {
            now: SimTime::from_ms(500),
            quantum: SimTime::from_ms(500),
            quantum_index: 0,
            threads: vec![obs(0, 10.0), obs(1, 20.0)],
            arrived: vec![ThreadId(0)],
            departed: vec![ThreadId(9)],
            cores: vec![
                CoreObservation {
                    id: VCoreId(0),
                    kind: CoreKind::FAST,
                    domain: DomainId(0),
                    bandwidth: 5.0,
                },
                CoreObservation {
                    id: VCoreId(1),
                    kind: CoreKind::SLOW,
                    domain: DomainId(0),
                    bandwidth: 7.0,
                },
            ],
            ..SystemView::default()
        };
        assert_eq!(view.thread(ThreadId(1)).unwrap().rates.access_rate, 20.0);
        assert!(view.thread(ThreadId(9)).is_none());
        assert_eq!(view.core(VCoreId(1)).bandwidth, 7.0);
        let rates: Vec<f64> = view.threads.iter().map(|t| t.rates.access_rate).collect();
        assert_eq!(rates, vec![10.0, 20.0]);
        // Occupancy is empty until assigned, then reflects the threads.
        assert!(view.occupants(VCoreId(0)).is_empty());
        view.assign_occupants();
        assert_eq!(view.occupants(VCoreId(0)), &[ThreadId(0)]);
        assert_eq!(view.occupants(VCoreId(1)), &[ThreadId(1)]);
        assert!(view.occupants(VCoreId(7)).is_empty());
    }

    #[test]
    fn assign_occupants_groups_by_core_in_id_order() {
        let mut t0 = obs(0, 1.0);
        let mut t1 = obs(1, 1.0);
        let mut t2 = obs(2, 1.0);
        t0.vcore = VCoreId(1);
        t1.vcore = VCoreId(0);
        t2.vcore = VCoreId(1);
        let mk_core = |id: u32| CoreObservation {
            id: VCoreId(id),
            kind: CoreKind::FAST,
            domain: DomainId(0),
            bandwidth: 0.0,
        };
        let mut view = SystemView {
            threads: vec![t0, t1, t2],
            cores: vec![mk_core(0), mk_core(1), mk_core(2)],
            ..SystemView::default()
        };
        view.assign_occupants();
        assert_eq!(view.occupants(VCoreId(0)), &[ThreadId(1)]);
        assert_eq!(view.occupants(VCoreId(1)), &[ThreadId(0), ThreadId(2)]);
        assert!(view.occupants(VCoreId(2)).is_empty());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn actions_swap_crosses_cores() {
        let mut a = Actions::default();
        assert!(a.is_empty());
        a.swap((ThreadId(0), VCoreId(3)), (ThreadId(1), VCoreId(7)));
        assert_eq!(
            a.migrations,
            vec![(ThreadId(0), VCoreId(7)), (ThreadId(1), VCoreId(3))]
        );
        assert!(!a.is_empty());
        let mut b = Actions::default();
        b.set_quantum = Some(SimTime::from_ms(100));
        assert!(!b.is_empty());
        // A partition request alone also makes the actions non-empty, and
        // clear() resets it with everything else.
        let mut c = Actions::default();
        c.partition = Some(PartitionPlan {
            cluster_ways: vec![4],
            assignments: vec![(ThreadId(0), 0)],
        });
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert!(c.partition.is_none());
    }

    #[test]
    fn pair_tags_distinguish_swaps_from_unilateral_migrations() {
        let mut a = Actions::default();
        a.swap((ThreadId(0), VCoreId(0)), (ThreadId(1), VCoreId(1)));
        a.migrate(ThreadId(2), VCoreId(5));
        a.swap((ThreadId(3), VCoreId(2)), (ThreadId(4), VCoreId(3)));
        assert_eq!(a.num_pairs(), 2);
        assert_eq!(a.pair_tag(0), Some(0));
        assert_eq!(a.pair_tag(1), Some(0));
        assert_eq!(a.pair_tag(2), None);
        assert_eq!(a.pair_tag(3), Some(1));
        assert_eq!(a.pair_tag(4), Some(1));
        assert_eq!(a.pair_tag(99), None);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.num_pairs(), 0);
        // A raw push without the helper is treated as unilateral.
        a.migrations.push((ThreadId(9), VCoreId(0)));
        assert_eq!(a.pair_tag(0), None);
    }
}
