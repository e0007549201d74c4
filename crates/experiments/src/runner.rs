//! The experiment runner: evaluate one (workload × scheduler × machine)
//! cell and reduce it to the paper's metrics.

use crate::roster::PolicyHandle;
use dike_machine::{Machine, MachineConfig, SimTime};
use dike_metrics::RuntimeMatrix;
use dike_sched_core::{run_with, RunResult, SystemView};
use dike_scheduler::{DikeConfig, SchedConfig};
use dike_util::json_struct;
use dike_workloads::{Placement, Workload};

/// Which scheduling policy to run.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedKind {
    /// No-op scheduler: threads stay where the driver placed them (the
    /// open-system floor — no migration response to churn at all).
    Null,
    /// Linux-CFS stand-in (the baseline).
    Cfs,
    /// Distributed Intensity Online.
    Dio,
    /// Random swaps (seeded).
    Random(u64),
    /// One-shot sorted static placement.
    SortOnce,
    /// Non-adaptive Dike with an explicit configuration.
    Dike(SchedConfig),
    /// Dike-AF (adaptive, fairness goal).
    DikeAf,
    /// Dike-AP (adaptive, performance goal).
    DikeAp,
    /// Dike-H: the fault-hardened pipeline (sanitize → holdover →
    /// retry/backoff → watchdog demotion), non-adaptive default config.
    DikeHardened,
    /// Dike with a fully custom configuration (ablations).
    DikeCustom(DikeConfig),
    /// LFOC-like fairness-oriented cache clustering: partitions the LLC,
    /// never migrates (the second-actuator baseline).
    Lfoc,
    /// Dike swaps plus LFOC way-partitioning — both actuators at once.
    DikeLfoc,
}

impl SchedKind {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            SchedKind::Null => "Null".into(),
            SchedKind::Cfs => "Linux-CFS".into(),
            SchedKind::Dio => "DIO".into(),
            SchedKind::Random(_) => "Random".into(),
            SchedKind::SortOnce => "SortOnce".into(),
            SchedKind::Dike(c) if *c == SchedConfig::DEFAULT => "Dike".into(),
            SchedKind::Dike(c) => format!("Dike<{},{}>", c.swap_size, c.quantum_ms),
            SchedKind::DikeAf => "Dike-AF".into(),
            SchedKind::DikeAp => "Dike-AP".into(),
            SchedKind::DikeHardened => "Dike-H".into(),
            SchedKind::DikeCustom(_) => "Dike*".into(),
            SchedKind::Lfoc => "LFOC".into(),
            SchedKind::DikeLfoc => "Dike+LFOC".into(),
        }
    }

    /// The standard comparison set of Figure 6 / Table III.
    pub fn comparison_set() -> Vec<SchedKind> {
        vec![
            SchedKind::Cfs,
            SchedKind::Dio,
            SchedKind::Dike(SchedConfig::DEFAULT),
            SchedKind::DikeAf,
            SchedKind::DikeAp,
        ]
    }
}

/// Options for one experimental cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Instruction-budget scale (1.0 = paper scale; tests use less).
    pub scale: f64,
    /// Deadline after which the run is cut off.
    pub deadline_s: f64,
    /// Initial placement.
    pub placement: Placement,
    /// Machine seed (phase-noise determinism).
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 1.0,
            deadline_s: 600.0,
            placement: Placement::Interleaved,
            seed: 42,
        }
    }
}

impl RunOptions {
    /// Reduced scale for fast CI runs.
    pub fn quick() -> Self {
        RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        }
    }
}

/// The reduced result of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Workload name.
    pub workload: String,
    /// Scheduler label.
    pub scheduler: String,
    /// The paper's fairness (Eqn 4) over benchmark apps.
    pub fairness: f64,
    /// Mean benchmark-app runtime (seconds); each app's runtime is its
    /// slowest thread's completion.
    pub mean_app_runtime_s: f64,
    /// Completion time of the last thread (benchmarks + background).
    pub makespan_s: f64,
    /// Swap operations performed (pairs of migrations).
    pub swaps: u64,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Whether all threads finished before the deadline.
    pub completed: bool,
    /// Signed relative prediction errors (Dike policies only).
    pub prediction_errors: Vec<f64>,
    /// Quanta in which the fairness gate passed (Dike policies only).
    pub fair_quanta: u64,
    /// Selector pairs proposed (Dike policies only).
    pub pairs_proposed: u64,
    /// Pairs rejected for non-positive profit (Dike policies only).
    pub rejected_profit: u64,
    /// Pairs rejected by the cooldown (Dike policies only).
    pub rejected_cooldown: u64,
    /// Per-quantum mean prediction error trace `(t_seconds, error)`
    /// (Dike policies only).
    pub prediction_trace: Vec<(f64, f64)>,
}

json_struct!(CellResult {
    workload,
    scheduler,
    fairness,
    mean_app_runtime_s,
    makespan_s,
    swaps,
    quanta,
    completed,
    prediction_errors,
    fair_quanta,
    pairs_proposed,
    rejected_profit,
    rejected_cooldown,
    prediction_trace,
});

/// Drive one closed cell: spawn `workload` on a machine built from
/// `machine_cfg` (its faults included) at `opts.seed`, run `kind` to
/// `opts.deadline_s`, and return the run, its benchmark apps' runtime
/// matrix and the policy.
pub(crate) fn drive_cell(
    machine_cfg: &MachineConfig,
    workload: &Workload,
    kind: &SchedKind,
    opts: &RunOptions,
    observer: impl FnMut(&SystemView),
) -> (RunResult, RuntimeMatrix, PolicyHandle) {
    let mut cfg = machine_cfg.clone();
    cfg.seed = opts.seed;
    let mut machine = Machine::new(cfg);
    let spawned = workload.spawn(&mut machine, opts.placement, opts.scale);
    let deadline = SimTime::from_secs_f64(opts.deadline_s);

    // One roster build covers every kind; the handle keeps the concrete
    // policy alive after the run so Dike's predictor state (plain or inside
    // the hybrid) can be read back out.
    let mut policy = PolicyHandle::build(kind, &machine.config().llc);
    let result = run_with(&mut machine, policy.as_scheduler(), deadline, observer);

    // Fairness over benchmark apps only (the paper's Eqn 4 excludes the
    // KMEANS background).
    let bench_apps = spawned.benchmark_apps();
    let per_app: Vec<Vec<f64>> = bench_apps
        .iter()
        .map(|a| result.app_runtimes(a.0))
        .collect();
    (result, RuntimeMatrix::new(per_app), policy)
}

/// Run one cell with a custom per-quantum observer hook.
pub fn run_cell_with(
    machine_cfg: &MachineConfig,
    workload: &Workload,
    kind: &SchedKind,
    opts: &RunOptions,
    observer: impl FnMut(&SystemView),
) -> CellResult {
    let (result, matrix, policy) = drive_cell(machine_cfg, workload, kind, opts, observer);
    let (prediction_errors, prediction_trace) = policy
        .dike()
        .map(|d| (d.predictor().error_values(), d.predictor().error_trace()))
        .unwrap_or_default();
    let dike_stats = policy.dike().map(|d| d.stats()).unwrap_or_default();

    CellResult {
        workload: workload.name.clone(),
        scheduler: kind.label(),
        fairness: matrix.fairness(),
        mean_app_runtime_s: matrix.mean_app_runtime(),
        makespan_s: result.wall.as_secs_f64(),
        swaps: result.swaps,
        quanta: result.quanta,
        completed: result.completed,
        prediction_errors,
        fair_quanta: dike_stats.fair_quanta,
        pairs_proposed: dike_stats.pairs_proposed,
        rejected_profit: dike_stats.rejected_profit,
        rejected_cooldown: dike_stats.rejected_cooldown,
        prediction_trace,
    }
}

/// Run one cell.
pub fn run_cell(
    machine_cfg: &MachineConfig,
    workload: &Workload,
    kind: &SchedKind,
    opts: &RunOptions,
) -> CellResult {
    run_cell_with(machine_cfg, workload, kind, opts, |_| {})
}

/// Run a batch of independent cells across a thread pool.
///
/// Results come back in task order no matter which worker ran what, so a
/// comparison set built from this is identical to the serial loop it
/// replaces. Each cell builds its own [`Machine`], so tasks share nothing
/// but the immutable configs.
pub fn run_cells(
    machine_cfg: &MachineConfig,
    tasks: &[(&Workload, SchedKind)],
    opts: &RunOptions,
    pool: &dike_util::Pool,
) -> Vec<CellResult> {
    pool.map_indexed(tasks.len(), |i| {
        let (workload, kind) = &tasks[i];
        run_cell(machine_cfg, workload, kind, opts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::presets;
    use dike_workloads::paper;

    #[test]
    fn cell_runs_and_reports_metrics() {
        let opts = RunOptions {
            scale: 0.05,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let w = paper::workload(1);
        let cell = run_cell(&cfg, &w, &SchedKind::Cfs, &opts);
        assert!(cell.completed, "run hit the deadline");
        assert!(cell.fairness <= 1.0);
        assert!(cell.mean_app_runtime_s > 0.0);
        assert!(cell.makespan_s >= cell.mean_app_runtime_s);
        assert_eq!(cell.swaps, 0);
        assert!(cell.prediction_errors.is_empty());
    }

    #[test]
    fn dike_cell_exposes_prediction_errors() {
        let opts = RunOptions {
            scale: 0.05,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let w = paper::workload(1);
        let cell = run_cell(&cfg, &w, &SchedKind::Dike(SchedConfig::DEFAULT), &opts);
        assert!(cell.completed);
        assert!(!cell.prediction_errors.is_empty());
        assert!(!cell.prediction_trace.is_empty());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SchedKind::Cfs.label(), "Linux-CFS");
        assert_eq!(SchedKind::Dio.label(), "DIO");
        assert_eq!(SchedKind::Dike(SchedConfig::DEFAULT).label(), "Dike");
        assert_eq!(
            SchedKind::Dike(SchedConfig {
                swap_size: 4,
                quantum_ms: 100
            })
            .label(),
            "Dike<4,100>"
        );
        assert_eq!(SchedKind::DikeAf.label(), "Dike-AF");
        assert_eq!(SchedKind::DikeAp.label(), "Dike-AP");
        assert_eq!(SchedKind::comparison_set().len(), 5);
    }
}
