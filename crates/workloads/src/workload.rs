//! Workloads: named multi-application mixes, their classes, and placement.

use crate::apps::{AppClass, AppKind, ProgramTable};
use dike_machine::{AppId, BarrierId, Machine, ThreadId, VCoreId};
use dike_util::{Pcg32, SliceRandom};

/// The paper's workload classes (Section III-F / Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Balanced: equally many memory- and compute-intensive apps.
    Balanced,
    /// Unbalanced, compute: compute-intensive apps outnumber memory ones.
    UnbalancedCompute,
    /// Unbalanced, memory: memory-intensive apps outnumber compute ones.
    UnbalancedMemory,
}

impl WorkloadClass {
    /// Short label as used in the paper ("B", "UC", "UM").
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Balanced => "B",
            WorkloadClass::UnbalancedCompute => "UC",
            WorkloadClass::UnbalancedMemory => "UM",
        }
    }

    /// Classify from memory- and compute-intensive thread (or app) counts.
    pub fn from_counts(memory: usize, compute: usize) -> WorkloadClass {
        use std::cmp::Ordering::*;
        match memory.cmp(&compute) {
            Equal => WorkloadClass::Balanced,
            Less => WorkloadClass::UnbalancedCompute,
            Greater => WorkloadClass::UnbalancedMemory,
        }
    }
}

/// Initial thread-to-core placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Threads of different apps interleaved round-robin across the vcore
    /// list: thread *k* of the *a*-th app lands on vcore `k*num_apps + a`.
    /// This is what a contention-oblivious load balancer converges to when
    /// apps start together, and it maximally mixes core types within each
    /// app — the paper's unfair baseline starting point.
    Interleaved,
    /// Each app's threads on consecutive vcores (apps arrive one by one).
    AppContiguous,
    /// Uniformly random permutation from the given seed.
    Random(u64),
}

/// A named multi-application workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, e.g. `"WL1"`.
    pub name: String,
    /// The benchmark applications (paper: four per workload).
    pub apps: Vec<AppKind>,
    /// Background applications run alongside (paper: KMEANS in every
    /// workload, "which further increases contention").
    pub background: Vec<AppKind>,
    /// Threads per application (paper: 8).
    pub threads_per_app: usize,
}

impl Workload {
    /// A workload with the paper's defaults: 8 threads per app and a KMEANS
    /// background instance.
    pub fn with_kmeans(name: impl Into<String>, apps: Vec<AppKind>) -> Self {
        Workload {
            name: name.into(),
            apps,
            background: vec![AppKind::Kmeans],
            threads_per_app: 8,
        }
    }

    /// A workload without background apps.
    pub fn plain(name: impl Into<String>, apps: Vec<AppKind>) -> Self {
        Workload {
            name: name.into(),
            apps,
            background: Vec::new(),
            threads_per_app: 8,
        }
    }

    /// All applications in spawn order (benchmarks, then background).
    pub fn all_apps(&self) -> Vec<AppKind> {
        let mut v = self.apps.clone();
        v.extend(self.background.iter().copied());
        v
    }

    /// Total threads this workload spawns.
    pub fn num_threads(&self) -> usize {
        self.all_apps().len() * self.threads_per_app
    }

    /// The paper's B/UC/UM class, from the benchmark apps' ground-truth
    /// memory/compute split (background apps are excluded, as in Table II).
    pub fn class(&self) -> WorkloadClass {
        let memory = self
            .apps
            .iter()
            .filter(|a| a.class() == AppClass::Memory)
            .count();
        let compute = self.apps.len() - memory;
        WorkloadClass::from_counts(memory, compute)
    }

    /// Compute the initial vcore assignment for `num_threads` threads under
    /// a placement policy. Thread order is app-major: threads
    /// `[a*threads_per_app .. (a+1)*threads_per_app)` belong to app `a`.
    pub fn placement_order(&self, placement: Placement, num_vcores: usize) -> Vec<VCoreId> {
        let n = self.num_threads();
        assert!(
            n <= num_vcores,
            "workload needs {n} vcores, machine has {num_vcores}"
        );
        let num_apps = self.all_apps().len();
        let mut slots: Vec<VCoreId> = (0..n as u32).map(VCoreId).collect();
        match placement {
            Placement::AppContiguous => {}
            Placement::Interleaved => {
                // Thread k of app a -> position k*num_apps + a.
                let mut assigned = vec![VCoreId(0); n];
                for (i, slot) in slots.iter().enumerate() {
                    let a = i / self.threads_per_app;
                    let k = i % self.threads_per_app;
                    let _ = slot;
                    assigned[i] = VCoreId((k * num_apps + a) as u32);
                }
                slots = assigned;
            }
            Placement::Random(seed) => {
                let mut rng = Pcg32::seed_from_u64(seed);
                slots.shuffle(&mut rng);
            }
        }
        slots
    }

    /// Spawn every thread of the workload into `machine`.
    ///
    /// `scale` multiplies all instruction budgets (1.0 = paper scale).
    pub fn spawn(
        &self,
        machine: &mut Machine,
        placement: Placement,
        scale: f64,
    ) -> SpawnedWorkload {
        let order = self.placement_order(placement, machine.config().topology.num_vcores());
        let programs = ProgramTable::new(scale);
        let mut threads = Vec::with_capacity(self.num_threads());
        let mut app_names = Vec::new();
        let mut idx = 0;
        for (a, app) in self.all_apps().into_iter().enumerate() {
            let app_id = AppId(a as u32);
            app_names.push(app.name().to_string());
            let spec = programs.spec(app, app_id, BarrierId(a as u32));
            for _ in 0..self.threads_per_app {
                let vcore = order[idx];
                idx += 1;
                let tid = machine.spawn(spec.clone(), vcore);
                threads.push((tid, app_id));
            }
        }
        SpawnedWorkload {
            threads,
            app_names,
            num_benchmark_apps: self.apps.len(),
        }
    }
}

/// Handle to a workload's threads after spawning.
#[derive(Debug, Clone, PartialEq)]
pub struct SpawnedWorkload {
    /// `(thread, app)` pairs in spawn order.
    pub threads: Vec<(ThreadId, AppId)>,
    /// App names indexed by `AppId`.
    pub app_names: Vec<String>,
    /// The first `num_benchmark_apps` app ids are benchmarks; the rest are
    /// background (excluded from the fairness metric, as in the paper).
    pub num_benchmark_apps: usize,
}

impl SpawnedWorkload {
    /// Thread ids of one app.
    pub fn threads_of(&self, app: AppId) -> Vec<ThreadId> {
        self.threads
            .iter()
            .filter(|(_, a)| *a == app)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Benchmark app ids (fairness is computed over these).
    pub fn benchmark_apps(&self) -> Vec<AppId> {
        (0..self.num_benchmark_apps as u32).map(AppId).collect()
    }

    /// All app ids including background.
    pub fn all_apps(&self) -> Vec<AppId> {
        (0..self.app_names.len() as u32).map(AppId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::presets;

    fn wl() -> Workload {
        Workload::with_kmeans(
            "T1",
            vec![
                AppKind::Jacobi,
                AppKind::Streamcluster,
                AppKind::Leukocyte,
                AppKind::Srad,
            ],
        )
    }

    #[test]
    fn class_from_counts() {
        assert_eq!(WorkloadClass::from_counts(2, 2), WorkloadClass::Balanced);
        assert_eq!(
            WorkloadClass::from_counts(1, 3),
            WorkloadClass::UnbalancedCompute
        );
        assert_eq!(
            WorkloadClass::from_counts(3, 1),
            WorkloadClass::UnbalancedMemory
        );
        assert_eq!(WorkloadClass::Balanced.label(), "B");
        assert_eq!(WorkloadClass::UnbalancedCompute.label(), "UC");
        assert_eq!(WorkloadClass::UnbalancedMemory.label(), "UM");
    }

    #[test]
    fn workload_counts_and_class() {
        let w = wl();
        assert_eq!(w.num_threads(), 40);
        assert_eq!(w.class(), WorkloadClass::Balanced);
        assert_eq!(w.all_apps().len(), 5);
    }

    #[test]
    fn interleaved_placement_spreads_each_app_across_core_types() {
        let w = wl();
        let order = w.placement_order(Placement::Interleaved, 40);
        assert_eq!(order.len(), 40);
        // All assignments distinct.
        let mut seen: Vec<u32> = order.iter().map(|v| v.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40);
        // App 0 (threads 0..8) should land on both halves of the machine.
        let app0: Vec<u32> = order[0..8].iter().map(|v| v.0).collect();
        assert!(app0.iter().any(|&v| v < 20), "app0 on fast: {app0:?}");
        assert!(app0.iter().any(|&v| v >= 20), "app0 on slow: {app0:?}");
    }

    #[test]
    fn contiguous_placement_keeps_apps_together() {
        let w = wl();
        let order = w.placement_order(Placement::AppContiguous, 40);
        let app0: Vec<u32> = order[0..8].iter().map(|v| v.0).collect();
        assert_eq!(app0, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn random_placement_is_seeded_permutation() {
        let w = wl();
        let a = w.placement_order(Placement::Random(1), 40);
        let b = w.placement_order(Placement::Random(1), 40);
        let c = w.placement_order(Placement::Random(2), 40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted: Vec<u32> = a.iter().map(|v| v.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "vcores")]
    fn placement_rejects_small_machines() {
        let w = wl();
        let _ = w.placement_order(Placement::Interleaved, 8);
    }

    #[test]
    fn spawn_creates_all_threads_on_assigned_cores() {
        let w = wl();
        let mut m = Machine::new(presets::paper_machine(1));
        let spawned = w.spawn(&mut m, Placement::Interleaved, 0.01);
        assert_eq!(m.num_threads(), 40);
        assert_eq!(spawned.threads.len(), 40);
        assert_eq!(spawned.app_names.len(), 5);
        assert_eq!(spawned.benchmark_apps().len(), 4);
        assert_eq!(spawned.all_apps().len(), 5);
        // kmeans is the background app.
        assert_eq!(spawned.app_names[4], "kmeans");
        for app in spawned.all_apps() {
            assert_eq!(spawned.threads_of(app).len(), 8);
        }
    }
}
