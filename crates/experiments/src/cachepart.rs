//! Cache-partitioning experiment: the second actuator, end to end.
//!
//! Every other experiment moves threads; this one compares what shaping
//! the shared LLC buys on top. The grid crosses two paper mixes (WL1,
//! the all-memory worst case, and WL13, a memory/compute blend) with
//! three fault environments (clean, 20 % telemetry dropout, 10 %
//! actuation failure) and runs five policies through each cell:
//!
//! * **Linux-CFS** — neither actuator (the floor),
//! * **DIO** — migration-only, no prediction,
//! * **Dike** — migration-only, the paper pipeline,
//! * **LFOC** — partition-only cache clustering
//!   ([`dike_baselines::Lfoc`]),
//! * **Dike+LFOC** — both actuators ([`dike_scheduler::DikeLfoc`]).
//!
//! Each cell reports whole-run fairness (Eqn 4), the windowed-fairness
//! summary, and the count of partition plans the machine actually applied
//! (after the actuation fault channel). The headline claim this
//! experiment pins — see `results/BENCH_cachepart.json` and the golden
//! suite — is that the hybrid's windowed fairness matches or beats plain
//! Dike's on both mixes: jailing streamers cannot slow threads already at
//! the contention cap, while everyone else gets cleaner cache.
//!
//! Cells fan out over the [`dike_util::pool`] workers and come back in
//! input order — byte-identical at any `DIKE_THREADS`, like every other
//! experiment in this crate.

use crate::open::spans_of;
use crate::runner::{drive_cell, RunOptions, SchedKind};
use dike_machine::{presets, FaultConfig, MachineConfig};
use dike_metrics::{window_series, TextTable};
use dike_scheduler::SchedConfig;
use dike_util::{json_struct, Pool};
use dike_workloads::paper;

/// The paper mixes the grid sweeps: WL1 (all memory-intensive — maximum
/// LLC pressure) and WL13 (memory/compute blend — streamers and victims
/// coexist, the case partitioning is built for).
pub const CACHEPART_WORKLOADS: [usize; 2] = [1, 13];

/// The cache-partitioning comparison set: no actuator, migration-only
/// (naive and predictive), partition-only, and both.
pub fn cachepart_comparison_set() -> Vec<SchedKind> {
    vec![
        SchedKind::Cfs,
        SchedKind::Dio,
        SchedKind::Dike(SchedConfig::DEFAULT),
        SchedKind::Lfoc,
        SchedKind::DikeLfoc,
    ]
}

/// The fault environments each `(workload × scheduler)` pair runs under:
/// clean, a telemetry axis point, and an actuation axis point. The clean
/// cell uses the all-zero default config, under which no fault draw
/// fires.
pub fn fault_cells(seed: u64) -> Vec<(String, f64, FaultConfig)> {
    vec![
        ("none".into(), 0.0, FaultConfig::default()),
        (
            "telemetry".into(),
            0.20,
            FaultConfig::telemetry_axis(0.20, seed),
        ),
        (
            "actuation".into(),
            0.10,
            FaultConfig::actuation_axis(0.10, seed),
        ),
    ]
}

/// One `(workload × fault cell × scheduler)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePartPoint {
    /// Fault axis: `none`, `telemetry`, or `actuation`.
    pub axis: String,
    /// The axis' primary fault rate.
    pub level: f64,
    /// Workload name (`WL1`, `WL13`).
    pub workload: String,
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
    /// Swap operations performed (migration actuator).
    pub swaps: u64,
    /// Partition plans applied to the machine (cache actuator; plans lost
    /// to actuation faults are not counted).
    pub partitions: u64,
    /// Whether all threads finished before the deadline.
    pub completed: bool,
}

json_struct!(CachePartPoint {
    axis,
    level,
    workload,
    scheduler,
    fairness,
    mean_windowed_fairness,
    min_windowed_fairness,
    mean_app_runtime_s,
    makespan_s,
    swaps,
    partitions,
    completed,
});

/// Run one cell: the paper workload, closed, on a machine whose config
/// carries the cell's [`FaultConfig`].
pub fn run_cachepart_cell(
    axis: &str,
    level: f64,
    wl: usize,
    machine_cfg: &MachineConfig,
    kind: &SchedKind,
    opts: &RunOptions,
) -> CachePartPoint {
    let workload = paper::workload(wl);
    let (result, matrix, _) = drive_cell(machine_cfg, &workload, kind, opts, |_| {});
    let wall = result.wall.as_secs_f64();
    let (_, mean_fair, min_fair) = window_series(&spans_of(&result), wall);

    CachePartPoint {
        axis: axis.to_string(),
        level,
        workload: workload.name,
        scheduler: kind.label(),
        fairness: matrix.fairness(),
        mean_windowed_fairness: mean_fair,
        min_windowed_fairness: min_fair,
        mean_app_runtime_s: matrix.mean_app_runtime(),
        makespan_s: wall,
        swaps: result.swaps,
        partitions: result.partitions,
        completed: result.completed,
    }
}

/// Run the full grid on the environment-sized pool.
pub fn run_cachepart_experiment(opts: &RunOptions) -> Vec<CachePartPoint> {
    run_cachepart_pool(&CACHEPART_WORKLOADS, opts, &Pool::from_env())
}

/// Run the grid over explicit workloads on an explicit pool (tests pin
/// both). Tasks fan out in `(workload, fault cell, scheduler)` order and
/// come back in input order — byte-identical at any worker count.
pub fn run_cachepart_pool(
    workloads: &[usize],
    opts: &RunOptions,
    pool: &Pool,
) -> Vec<CachePartPoint> {
    let kinds = cachepart_comparison_set();
    let cells = fault_cells(opts.seed);
    let base = presets::paper_machine(opts.seed);
    let per = kinds.len();
    let per_wl = cells.len() * per;
    pool.map_indexed(workloads.len() * per_wl, |task| {
        let wl = workloads[task / per_wl];
        let (axis, level, faults) = &cells[(task % per_wl) / per];
        let mut cfg = base.clone();
        cfg.faults = *faults;
        run_cachepart_cell(axis, *level, wl, &cfg, &kinds[task % per], opts)
    })
}

/// Render the grid as a comparison table.
pub fn render(points: &[CachePartPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".to_string(),
        "axis".to_string(),
        "level".to_string(),
        "scheduler".to_string(),
        "fairness".to_string(),
        "fair(win)".to_string(),
        "fair(min)".to_string(),
        "runtime(s)".to_string(),
        "swaps".to_string(),
        "parts".to_string(),
        "done".to_string(),
    ]);
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.axis.clone(),
            format!("{:.2}", p.level),
            p.scheduler.clone(),
            format!("{:.3}", p.fairness),
            format!("{:.3}", p.mean_windowed_fairness),
            format!("{:.3}", p.min_windowed_fairness),
            format!("{:.2}", p.mean_app_runtime_s),
            p.swaps.to_string(),
            p.partitions.to_string(),
            if p.completed { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::json;

    fn small_opts() -> RunOptions {
        RunOptions {
            scale: 0.05,
            deadline_s: 240.0,
            ..RunOptions::default()
        }
    }

    #[test]
    fn grid_reports_all_cells_in_order_with_finite_metrics() {
        let opts = small_opts();
        let points = run_cachepart_pool(&[1], &opts, &Pool::new(2));
        let per = cachepart_comparison_set().len();
        assert_eq!(points.len(), fault_cells(opts.seed).len() * per);
        for p in &points {
            assert!(
                p.completed,
                "{} @ {}:{} on {}: hit deadline",
                p.scheduler, p.axis, p.level, p.workload
            );
            assert!(p.fairness.is_finite() && p.fairness <= 1.0, "{p:?}");
            assert!(p.mean_windowed_fairness.is_finite(), "{p:?}");
            assert!(p.mean_app_runtime_s.is_finite() && p.mean_app_runtime_s > 0.0);
        }
        // The migration-only policies must never partition; the
        // partition-capable ones must actually use the actuator in the
        // clean cell on the all-memory mix.
        for p in &points {
            match p.scheduler.as_str() {
                "Linux-CFS" | "DIO" | "Dike" => assert_eq!(p.partitions, 0, "{p:?}"),
                _ => {}
            }
            if p.axis == "none" && (p.scheduler == "LFOC" || p.scheduler == "Dike+LFOC") {
                assert!(p.partitions > 0, "partition channel silent: {p:?}");
            }
        }
        // Serialization round-trip (results are archived as JSON).
        let s = json::to_string(&points[0]);
        let back: CachePartPoint = json::from_str(&s).unwrap();
        assert_eq!(back, points[0]);
    }

    #[test]
    fn hybrid_matches_or_beats_plain_dike_on_both_mixes() {
        // The ISSUE's headline acceptance: with partitioning enabled the
        // Dike+LFOC hybrid's windowed fairness matches or beats plain
        // Dike's on at least two workload mixes. Deterministic, so this
        // cannot flake; `results/BENCH_cachepart.json` archives the same
        // comparison at full scale.
        let opts = small_opts();
        for wl in CACHEPART_WORKLOADS {
            let base = presets::paper_machine(opts.seed);
            let dike = run_cachepart_cell(
                "none",
                0.0,
                wl,
                &base,
                &SchedKind::Dike(SchedConfig::DEFAULT),
                &opts,
            );
            let hybrid = run_cachepart_cell("none", 0.0, wl, &base, &SchedKind::DikeLfoc, &opts);
            assert!(dike.completed && hybrid.completed);
            assert!(
                hybrid.mean_windowed_fairness >= dike.mean_windowed_fairness - 1e-12,
                "WL{}: hybrid windowed fairness {:.4} < plain Dike {:.4}",
                wl,
                hybrid.mean_windowed_fairness,
                dike.mean_windowed_fairness
            );
        }
    }
}
