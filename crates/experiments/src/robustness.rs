//! Robustness experiment: degradation curves under injected faults.
//!
//! The paper assumes perfect telemetry and instant, reliable actuation.
//! Real machines offer neither: counters drop samples, return garbage, or
//! replay stale values; affinity requests fail or land late. This
//! experiment sweeps seeded fault rates along two axes — telemetry
//! (dropout + corruption + stale replay + noise) and actuation (failed +
//! delayed migrations) — plus one combined worst-case point, and runs the
//! comparison set (CFS, DIO, paper Dike, hardened Dike-H) through each
//! level on WL1. Every cell reports the whole-run fairness (Eqn 4) and
//! the windowed fairness series, so the output is a degradation curve per
//! policy: how gracefully does fairness decay as the fault rate climbs?
//!
//! The zero-fault points use an all-zero [`FaultConfig`]: the driver
//! draws, but at zero rates no draw fires, so those cells are
//! byte-identical to the ordinary Figure 6 cells (the golden-stability
//! suite proves it).
//!
//! Cells are flattened into one task list over the [`dike_util::pool`]
//! workers and reassembled in input order, so output is byte-identical to
//! a serial run at any `DIKE_THREADS` — the same contract as every other
//! experiment in this crate.

use crate::open::spans_of;
use crate::runner::{drive_cell, RunOptions, SchedKind};
use dike_machine::{presets, FaultConfig, MachineConfig};
use dike_metrics::{window_series, TextTable};
use dike_scheduler::SchedConfig;
use dike_util::{json_struct, Pool};
use dike_workloads::paper;

/// Telemetry-axis fault levels: the dropout rate; corruption, stale
/// replay, and noise ride along at half that (see
/// [`FaultConfig::telemetry_axis`]).
pub const TELEMETRY_LEVELS: [f64; 4] = [0.0, 0.10, 0.20, 0.30];

/// Actuation-axis fault levels: the migration-failure rate; delayed
/// migrations ride along at half that (see [`FaultConfig::actuation_axis`]).
pub const ACTUATION_LEVELS: [f64; 3] = [0.0, 0.05, 0.10];

/// The robustness comparison set: the unhardened paper pipeline against
/// its hardened sibling, with the CFS and DIO baselines for context.
pub fn robustness_comparison_set() -> Vec<SchedKind> {
    vec![
        SchedKind::Cfs,
        SchedKind::Dio,
        SchedKind::Dike(SchedConfig::DEFAULT),
        SchedKind::DikeHardened,
    ]
}

/// One `(fault level × scheduler)` cell of the robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Which fault axis this level belongs to: `telemetry`, `actuation`,
    /// or `combined`.
    pub axis: String,
    /// The axis' primary fault rate (dropout for telemetry, migration
    /// failure for actuation).
    pub level: f64,
    /// Scheduler label.
    pub scheduler: String,
    /// Whole-run fairness (Eqn 4) over benchmark apps.
    pub fairness: f64,
    /// Mean of the per-window fairness scores over the run.
    pub mean_windowed_fairness: f64,
    /// Worst window of the run.
    pub min_windowed_fairness: f64,
    /// Mean benchmark-app runtime (seconds).
    pub mean_app_runtime_s: f64,
    /// Completion time of the last thread (or the deadline).
    pub makespan_s: f64,
    /// Swap operations performed.
    pub swaps: u64,
    /// Whether all threads finished before the deadline.
    pub completed: bool,
}

json_struct!(RobustnessPoint {
    axis,
    level,
    scheduler,
    fairness,
    mean_windowed_fairness,
    min_windowed_fairness,
    mean_app_runtime_s,
    makespan_s,
    swaps,
    completed,
});

/// Run one robustness cell: WL1, closed, on a machine whose config
/// carries the cell's [`FaultConfig`].
pub fn run_robustness_cell(
    axis: &str,
    level: f64,
    machine_cfg: &MachineConfig,
    kind: &SchedKind,
    opts: &RunOptions,
) -> RobustnessPoint {
    let (result, matrix, _) = drive_cell(machine_cfg, &paper::workload(1), kind, opts, |_| {});
    let wall = result.wall.as_secs_f64();
    let (_, mean_fair, min_fair) = window_series(&spans_of(&result), wall);

    RobustnessPoint {
        axis: axis.to_string(),
        level,
        scheduler: kind.label(),
        fairness: matrix.fairness(),
        mean_windowed_fairness: mean_fair,
        min_windowed_fairness: min_fair,
        mean_app_runtime_s: matrix.mean_app_runtime(),
        makespan_s: wall,
        swaps: result.swaps,
        completed: result.completed,
    }
}

/// The swept `(axis, level, FaultConfig)` grid: every telemetry level,
/// every actuation level, plus the combined worst case.
pub fn fault_grid(
    telemetry: &[f64],
    actuation: &[f64],
    combined: bool,
    seed: u64,
) -> Vec<(String, f64, FaultConfig)> {
    let mut grid: Vec<(String, f64, FaultConfig)> = Vec::new();
    for &d in telemetry {
        grid.push(("telemetry".into(), d, FaultConfig::telemetry_axis(d, seed)));
    }
    for &f in actuation {
        grid.push(("actuation".into(), f, FaultConfig::actuation_axis(f, seed)));
    }
    if combined {
        grid.push(("combined".into(), 0.30, FaultConfig::combined_worst(seed)));
    }
    grid
}

/// Run the sweep over explicit fault levels on an explicit pool (tests pin
/// both). Cells fan out in `(level, scheduler)` order and come back in
/// input order — byte-identical at any worker count.
pub fn run_robustness_pool(
    telemetry: &[f64],
    actuation: &[f64],
    combined: bool,
    opts: &RunOptions,
    pool: &Pool,
) -> Vec<RobustnessPoint> {
    let kinds = robustness_comparison_set();
    let grid = fault_grid(telemetry, actuation, combined, opts.seed);
    let base = presets::paper_machine(opts.seed);
    let per = kinds.len();
    pool.map_indexed(grid.len() * per, |task| {
        let (g, s) = (task / per, task % per);
        let (axis, level, faults) = &grid[g];
        let mut cfg = base.clone();
        cfg.faults = *faults;
        run_robustness_cell(axis, *level, &cfg, &kinds[s], opts)
    })
}

/// Render the sweep as a degradation-curve table.
pub fn render(points: &[RobustnessPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "axis".to_string(),
        "level".to_string(),
        "scheduler".to_string(),
        "fairness".to_string(),
        "fair(win)".to_string(),
        "fair(min)".to_string(),
        "runtime(s)".to_string(),
        "swaps".to_string(),
        "done".to_string(),
    ]);
    for p in points {
        t.row(vec![
            p.axis.clone(),
            format!("{:.2}", p.level),
            p.scheduler.clone(),
            format!("{:.3}", p.fairness),
            format!("{:.3}", p.mean_windowed_fairness),
            format!("{:.3}", p.min_windowed_fairness),
            format!("{:.2}", p.mean_app_runtime_s),
            p.swaps.to_string(),
            if p.completed { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::json::{self, ToJson};

    fn small_opts() -> RunOptions {
        RunOptions {
            scale: 0.05,
            deadline_s: 240.0,
            ..RunOptions::default()
        }
    }

    #[test]
    fn zero_fault_cell_is_byte_identical_to_a_faultless_run() {
        // telemetry_axis(0.0) keeps every rate at zero, so the driver must
        // take the exact pre-fault code path: the cell serializes to the
        // same bytes as one run on a machine with no fault config at all.
        let opts = small_opts();
        let base = presets::paper_machine(opts.seed);
        let kind = SchedKind::Dike(SchedConfig::DEFAULT);
        let plain = run_robustness_cell("telemetry", 0.0, &base, &kind, &opts);
        let mut faulted_cfg = base.clone();
        faulted_cfg.faults = FaultConfig::telemetry_axis(0.0, opts.seed);
        let faulted = run_robustness_cell("telemetry", 0.0, &faulted_cfg, &kind, &opts);
        assert_eq!(json::to_string(&plain), json::to_string(&faulted));
    }

    #[test]
    fn sweep_reports_all_cells_in_order_with_finite_metrics() {
        let opts = small_opts();
        let points = run_robustness_pool(&[0.0, 0.30], &[0.10], true, &opts, &Pool::new(2));
        let per = robustness_comparison_set().len();
        assert_eq!(points.len(), 4 * per);
        for p in &points {
            assert!(
                p.completed,
                "{} @ {}:{}: hit deadline",
                p.scheduler, p.axis, p.level
            );
            assert!(p.fairness.is_finite() && p.fairness <= 1.0, "{p:?}");
            assert!(p.mean_windowed_fairness.is_finite(), "{p:?}");
            assert!(p.min_windowed_fairness.is_finite(), "{p:?}");
            assert!(p.mean_app_runtime_s.is_finite() && p.mean_app_runtime_s > 0.0);
        }
        // Serialization round-trip (results are archived as JSON).
        let s = json::to_string(&points[0]);
        assert_eq!(json::parse(&s).unwrap(), points[0].to_json_value());
    }

    #[test]
    fn hardened_dike_degrades_more_gracefully_than_unhardened() {
        // The ISSUE's headline acceptance: at >= 10% counter dropout the
        // hardened pipeline retains strictly higher windowed fairness than
        // the trusting paper pipeline. Averaged over three machine seeds
        // so the comparison measures the pipeline, not one seed's phase
        // noise; everything is deterministic, so this cannot flake.
        let mut plain = 0.0;
        let mut hard = 0.0;
        for seed in [42, 43, 44] {
            let opts = RunOptions {
                seed,
                ..small_opts()
            };
            let mut cfg = presets::paper_machine(seed);
            cfg.faults = FaultConfig::telemetry_axis(0.10, seed);
            let kind = SchedKind::Dike(SchedConfig::DEFAULT);
            plain +=
                run_robustness_cell("telemetry", 0.10, &cfg, &kind, &opts).mean_windowed_fairness;
            let cell =
                run_robustness_cell("telemetry", 0.10, &cfg, &SchedKind::DikeHardened, &opts);
            hard += cell.mean_windowed_fairness;
        }
        assert!(
            hard > plain,
            "hardened {:.4} <= unhardened {:.4} (mean windowed fairness x3 seeds)",
            hard / 3.0,
            plain / 3.0
        );
    }
}
