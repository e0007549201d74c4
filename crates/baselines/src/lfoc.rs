//! LFOC-like fairness-oriented cache clustering [Garcia-Garcia et al.,
//! ICPP 2019], the cache-partitioning comparison point.
//!
//! LFOC classifies threads from lightweight counters into *streaming*
//! (high miss rate, no reuse — the cache cannot help them), *sensitive*
//! (working sets that benefit from protected capacity) and *light* (barely
//! touch the LLC), then programs CAT-style way clusters: streaming threads
//! are jailed together into a small thrash cluster, each sensitive app
//! gets a cluster sized to its measured occupancy, and light threads share
//! the leftover ways. It never migrates — partitioning is its only
//! actuator, which is exactly what makes it a clean contrast to Dike's
//! migration-only actuation (and the substrate both combine in the
//! Dike+LFOC hybrid).
//!
//! Classification and cluster sizing are pure functions ([`classify`],
//! [`build_plan`]) so the hybrid reuses them verbatim and property tests
//! can drive them with arbitrary inputs.

use dike_machine::{AppId, PartitionPlan, SimTime, ThreadId};
use dike_sched_core::{Actions, PartitionPlanner, Scheduler, SystemView};

/// Miss-per-access ratio at or above which a thread is *streaming* (the
/// Dike paper's own "more than 10 % ⇒ memory intensive" threshold).
pub const STREAMING_MISS_RATE: f64 = 0.10;

/// Miss-per-access ratio below which a thread is *light* on the LLC.
pub const LIGHT_MISS_RATE: f64 = 0.02;

/// How a thread uses the shared LLC, as inferred from counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// High miss rate: the footprint streams through without reuse, so
    /// granting it capacity is wasted — jail it.
    Streaming,
    /// Meaningful occupancy at a healthy hit rate: protect its share.
    Sensitive,
    /// Barely uses the cache: safe to leave in the shared pool.
    Light,
}

/// Classify one thread from its observed miss rate and LLC occupancy.
/// `way_mib` is the capacity of a single way — a thread occupying less
/// than half a way cannot benefit from an own cluster.
pub fn classify(llc_miss_rate: f64, occupancy_mib: f64, way_mib: f64) -> CacheClass {
    if llc_miss_rate >= STREAMING_MISS_RATE {
        CacheClass::Streaming
    } else if llc_miss_rate < LIGHT_MISS_RATE || occupancy_mib < 0.5 * way_mib {
        CacheClass::Light
    } else {
        CacheClass::Sensitive
    }
}

/// Build the LFOC way-partition for the classified population
/// (`(thread, app, class, occupancy_mib)`, any order). Streaming threads
/// share one small jail cluster; each sensitive app gets a cluster sized
/// to its summed occupancy (largest first, while the way budget lasts);
/// light threads — and sensitive apps the budget could not cover — stay
/// unassigned in the reserved shared pool. The result is always valid for
/// `total_ways` (see `plan_is_always_valid` in the tests, and the
/// workspace property test driving this with random populations).
pub fn build_plan(
    population: &[(ThreadId, AppId, CacheClass, f64)],
    total_ways: u32,
    capacity_mib: f64,
) -> PartitionPlan {
    let streaming: Vec<ThreadId> = population
        .iter()
        .filter(|p| p.2 == CacheClass::Streaming)
        .map(|p| p.0)
        .collect();
    // (app, summed occupancy) over sensitive threads, largest first so the
    // budget protects the biggest working sets; app id breaks ties for
    // determinism.
    let mut apps: Vec<(AppId, f64)> = Vec::new();
    for p in population.iter().filter(|p| p.2 == CacheClass::Sensitive) {
        match apps.iter_mut().find(|(a, _)| *a == p.1) {
            Some((_, occ)) => *occ += p.3,
            None => apps.push((p.1, p.3)),
        }
    }
    apps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

    if streaming.is_empty() && apps.is_empty() {
        return PartitionPlan::new();
    }

    // A jail and a shared reserve of 1/8th of the cache each (at least one
    // way): the reserve keeps light threads out of a zero-capacity slot.
    let small = (total_ways / 8).max(1);
    let way_mib = capacity_mib / f64::from(total_ways.max(1));
    let mut plan = PartitionPlan::new();
    let mut budget = total_ways.saturating_sub(small);
    let mut jail = None;
    if !streaming.is_empty() && budget > small {
        budget -= small;
        jail = Some(plan.cluster_ways.len() as u32);
        plan.cluster_ways.push(small);
    }
    let mut placed: Vec<(ThreadId, u32)> = Vec::new();
    for t in streaming {
        if let Some(c) = jail {
            placed.push((t, c));
        }
    }
    for (app, occ) in apps {
        let want = ((occ / way_mib).ceil() as u32).max(1);
        let ways = want.min(budget);
        if ways == 0 {
            break; // budget exhausted: remaining apps share the pool
        }
        budget -= ways;
        let c = plan.cluster_ways.len() as u32;
        plan.cluster_ways.push(ways);
        // Only the app's *sensitive* threads: a mixed app's streaming
        // threads are already jailed and its light threads belong in the
        // shared pool — a thread must never appear in two clusters.
        for p in population
            .iter()
            .filter(|p| p.1 == app && p.2 == CacheClass::Sensitive)
        {
            placed.push((p.0, c));
        }
    }
    placed.sort_unstable_by_key(|&(t, _)| t);
    plan.assignments = placed;
    plan
}

/// The LFOC scheduler: reclassifies every quantum, re-partitions whenever
/// the desired clustering changes, and never migrates.
#[derive(Debug, Clone)]
pub struct Lfoc {
    quantum: SimTime,
    total_ways: u32,
    capacity_mib: f64,
    planner: PartitionPlanner,
    /// Last plan we decided on; `None` when the machine's state is
    /// unknown (startup, or after an abandoned actuation).
    current: Option<PartitionPlan>,
    /// Sticky per-thread classification `(thread, app, class, occupancy)`,
    /// ascending by thread id. Updated only from plausible samples, so
    /// telemetry dropout or corruption does not churn the clustering.
    population: Vec<(ThreadId, AppId, CacheClass, f64)>,
    replans: u64,
}

impl Lfoc {
    /// LFOC for a cache of `total_ways` ways and `capacity_mib` MiB —
    /// public hardware knowledge, like the core topology.
    pub fn new(total_ways: u32, capacity_mib: f64) -> Self {
        Lfoc {
            quantum: SimTime::from_ms(500),
            total_ways,
            capacity_mib,
            planner: PartitionPlanner::new(3, 8),
            current: None,
            population: Vec::new(),
            replans: 0,
        }
    }

    /// LFOC configured from the machine's LLC description.
    pub fn for_llc(llc: &dike_machine::LlcConfig) -> Self {
        Lfoc::new(llc.ways, llc.capacity_mib)
    }

    /// Partition plans issued so far (excluding planner retries).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    fn way_mib(&self) -> f64 {
        self.capacity_mib / f64::from(self.total_ways.max(1))
    }
}

impl Scheduler for Lfoc {
    fn name(&self) -> &str {
        "LFOC"
    }

    fn initial_quantum(&self) -> SimTime {
        self.quantum
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        let now_q = view.quantum_index;
        for &d in &view.departed {
            if let Ok(i) = self.population.binary_search_by_key(&d, |p| p.0) {
                self.population.remove(i);
            }
        }
        let way = self.way_mib();
        for t in &view.threads {
            if !t.rates.is_plausible() || !t.llc_occupancy_mib.is_finite() {
                continue; // keep the last good classification
            }
            let class = classify(t.rates.llc_miss_rate, t.llc_occupancy_mib, way);
            let entry = (t.id, t.app, class, t.llc_occupancy_mib);
            match self.population.binary_search_by_key(&t.id, |p| p.0) {
                Ok(i) => self.population[i] = entry,
                Err(i) => self.population.insert(i, entry),
            }
        }

        let report = self.planner.verify(view, actions, now_q);
        if report.abandoned > 0 {
            // The machine's partition state is unknown now; re-decide from
            // scratch once the fallback window ends.
            self.current = None;
        }
        if self.planner.in_fallback(now_q) {
            return;
        }
        let desired = build_plan(&self.population, self.total_ways, self.capacity_mib);
        if self.current.as_ref() != Some(&desired) {
            self.planner
                .track(desired.clone(), view.partition_epoch, now_q);
            actions.partition = Some(desired.clone());
            self.current = Some(desired);
            self.replans += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine, Phase, PhaseProgram, ThreadSpec, VCoreId};
    use dike_sched_core::run;

    #[test]
    fn classification_thresholds() {
        let way = 0.3125; // 5 MiB / 16 ways
        assert_eq!(classify(0.15, 5.0, way), CacheClass::Streaming);
        assert_eq!(classify(0.10, 0.1, way), CacheClass::Streaming);
        assert_eq!(classify(0.05, 2.0, way), CacheClass::Sensitive);
        assert_eq!(classify(0.005, 2.0, way), CacheClass::Light);
        assert_eq!(classify(0.05, 0.1, way), CacheClass::Light);
    }

    fn member(t: u32, app: u32, class: CacheClass, occ: f64) -> (ThreadId, AppId, CacheClass, f64) {
        (ThreadId(t), AppId(app), class, occ)
    }

    #[test]
    fn plan_jails_streamers_and_sizes_sensitive_clusters() {
        let pop = vec![
            member(0, 0, CacheClass::Streaming, 5.0),
            member(1, 0, CacheClass::Streaming, 5.0),
            member(2, 1, CacheClass::Sensitive, 2.0),
            member(3, 1, CacheClass::Sensitive, 2.0),
            member(4, 2, CacheClass::Light, 0.1),
        ];
        let plan = build_plan(&pop, 16, 25.0);
        plan.validate(16).expect("plan is valid");
        // Jail first (2 of 16 ways), then app 1 sized to 4 MiB of
        // occupancy at 1.5625 MiB per way = 3 ways.
        assert_eq!(plan.cluster_ways, vec![2, 3]);
        assert_eq!(
            plan.assignments,
            vec![
                (ThreadId(0), 0),
                (ThreadId(1), 0),
                (ThreadId(2), 1),
                (ThreadId(3), 1),
            ]
        );
        // The light thread shares the unreserved remainder.
        assert_eq!(plan.shared_ways(16), 11);
    }

    #[test]
    fn all_light_population_partitions_nothing() {
        let pop = vec![
            member(0, 0, CacheClass::Light, 0.1),
            member(1, 1, CacheClass::Light, 0.2),
        ];
        assert!(build_plan(&pop, 16, 25.0).is_empty());
        assert!(build_plan(&[], 16, 25.0).is_empty());
    }

    #[test]
    fn plan_is_always_valid_when_occupancy_exceeds_the_cache() {
        // Three sensitive apps each claiming the whole cache must clamp to
        // the way budget, largest first, instead of over-committing.
        let pop = vec![
            member(0, 0, CacheClass::Sensitive, 30.0),
            member(1, 1, CacheClass::Sensitive, 20.0),
            member(2, 2, CacheClass::Sensitive, 10.0),
            member(3, 3, CacheClass::Streaming, 25.0),
        ];
        let plan = build_plan(&pop, 16, 25.0);
        plan.validate(16).expect("plan is valid");
        let granted: u32 = plan.cluster_ways.iter().sum();
        assert!(granted <= 14, "shared reserve kept: {granted} ways");
    }

    #[test]
    fn sustained_actuation_faults_abandon_into_fallback_then_replan() {
        // Every actuation silently fails: the PartitionPlanner's retry
        // budget (3) must exhaust, the plan is abandoned, LFOC forgets
        // its `current` and goes quiet for the fallback window (8
        // quanta), then re-decides from scratch — and the cycle repeats
        // for as long as the fault persists. The machine must end the
        // run unpartitioned with the workload still completing on the
        // fault-free substrate.
        let mut cfg = presets::small_machine(1);
        cfg.faults = dike_machine::FaultConfig {
            migration_fail_rate: 1.0,
            seed: 3,
            ..Default::default()
        };
        let (ways, cap) = (cfg.llc.ways, cfg.llc.capacity_mib);
        let mut m = Machine::new(cfg);
        // Long-running threads: the abandon→fallback cycle needs ~23
        // quanta (retry backoff 1+2+4+8, then 8 fallback quanta) at the
        // 500 ms LFOC quantum, so the population must survive ≳ 12 s.
        m.spawn(
            ThreadSpec {
                app: dike_machine::AppId(0),
                program: PhaseProgram::single(Phase::steady(1.0, 60.0, 20.0, 1e6), 4e10).into(),
                barrier: None,
            },
            VCoreId(0),
        );
        for i in 1..4u32 {
            m.spawn(
                ThreadSpec {
                    app: dike_machine::AppId(i),
                    program: PhaseProgram::single(Phase::steady(0.8, 1.0, 0.5, 1e7), 1e10).into(),
                    barrier: None,
                },
                VCoreId(i + 1),
            );
        }
        let mut s = Lfoc::new(ways, cap);
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(120.0));
        assert!(r.completed, "the substrate still runs without partitions");
        assert_eq!(r.migrations, 0, "LFOC only partitions");
        assert_eq!(r.partitions, 0, "every actuation was swallowed");
        assert!(!m.partition_active());
        assert_eq!(m.partition_epoch(), 0);
        // Abandon → fallback → fresh decision: the run is long enough
        // (240 quanta vs a ~12-quantum abandon/fallback cycle) that LFOC
        // must have re-planned after at least one abandonment.
        assert!(
            s.replans() >= 2,
            "expected a replan after fallback, got {}",
            s.replans()
        );
    }

    #[test]
    fn lfoc_partitions_the_machine_and_never_migrates() {
        let cfg = presets::small_machine(1);
        let (ways, cap) = (cfg.llc.ways, cfg.llc.capacity_mib);
        let mut m = Machine::new(cfg);
        // A thrasher (streams through 20 MiB at a high miss rate) beside
        // three light compute threads.
        m.spawn(
            ThreadSpec {
                app: dike_machine::AppId(0),
                program: PhaseProgram::single(Phase::steady(1.0, 60.0, 20.0, 1e6), 2e9).into(),
                barrier: None,
            },
            VCoreId(0),
        );
        for i in 1..4u32 {
            m.spawn(
                ThreadSpec {
                    app: dike_machine::AppId(i),
                    program: PhaseProgram::single(Phase::steady(0.8, 1.0, 0.5, 1e7), 5e8).into(),
                    barrier: None,
                },
                VCoreId(i + 1),
            );
        }
        let mut s = Lfoc::new(ways, cap);
        let r = run(&mut m, &mut s, SimTime::from_secs_f64(120.0));
        assert!(r.completed);
        assert_eq!(r.migrations, 0, "LFOC only partitions");
        assert!(r.partitions >= 1, "no partition was ever applied");
        assert!(s.replans() >= 1);
        assert!(m.partition_active());
        // The thrasher ended up jailed in cluster 0.
        let plan = m.partition();
        assert_eq!(plan.cluster_ways[0], 2);
        assert!(plan.assignments.contains(&(dike_machine::ThreadId(0), 0)));
    }
}
