//! Figure 2: fairness/performance of the optimal, default and worst
//! scheduler configurations for selected workloads.
//!
//! "Poor scheduler configurations lead to notable fairness and performance
//! loss. The optimal scheduler configuration, however, is a function of
//! both the current application workload and user preference."

use crate::runner::RunOptions;
use crate::sweep::{sweep_workloads_pool, Sweep};
use dike_machine::presets;
use dike_metrics::TextTable;
use dike_scheduler::SchedConfig;
use dike_util::Pool;
use dike_workloads::paper;

/// One workload's Figure 2 bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Workload name.
    pub workload: String,
    /// Best configuration by fairness and its normalised fairness (1.0).
    pub optimal_fairness_cfg: SchedConfig,
    /// Default config's fairness normalised to the optimum.
    pub default_fairness: f64,
    /// Worst config's fairness normalised to the optimum.
    pub worst_fairness: f64,
    /// Best configuration by performance.
    pub optimal_perf_cfg: SchedConfig,
    /// Default config's speedup normalised to the optimum.
    pub default_perf: f64,
    /// Worst config's speedup normalised to the optimum.
    pub worst_perf: f64,
}

/// Reduce a full sweep to the Figure 2 bars.
pub fn reduce(sweep: &Sweep) -> Fig2Row {
    let bf = sweep.best_fairness();
    let wf = sweep.worst_fairness();
    let bp = sweep.best_performance();
    let wp = sweep.worst_performance();
    let default = sweep
        .cell(SchedConfig::DEFAULT)
        .expect("grid contains the default config");

    let best_fair = sweep.cells[bf].result.fairness;
    let speedups = sweep.speedups();
    let best_speed = speedups[bp];
    let default_idx = sweep
        .cells
        .iter()
        .position(|c| c.config == SchedConfig::DEFAULT)
        .expect("default in grid");

    Fig2Row {
        workload: sweep.workload.clone(),
        optimal_fairness_cfg: sweep.cells[bf].config,
        default_fairness: default.result.fairness / best_fair,
        worst_fairness: sweep.cells[wf].result.fairness / best_fair,
        optimal_perf_cfg: sweep.cells[bp].config,
        default_perf: speedups[default_idx] / best_speed,
        worst_perf: speedups[wp] / best_speed,
    }
}

/// The paper's three selected workloads (one per class).
pub const SELECTED: [usize; 3] = [2, 7, 13];

/// Run the Figure 2 experiment: all three workloads' sweeps share one
/// flattened parallel task list (3 × 33 cells).
pub fn run(opts: &RunOptions) -> Vec<Fig2Row> {
    let cfg = presets::paper_machine(opts.seed);
    let workloads: Vec<_> = SELECTED.iter().map(|&n| paper::workload(n)).collect();
    sweep_workloads_pool(&cfg, &workloads, opts, &Pool::from_env())
        .iter()
        .map(reduce)
        .collect()
}

/// Render as a table.
pub fn render(rows: &[Fig2Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload",
        "opt-fair-cfg",
        "fair(default)",
        "fair(worst)",
        "opt-perf-cfg",
        "perf(default)",
        "perf(worst)",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            format!(
                "<{},{}>",
                r.optimal_fairness_cfg.swap_size, r.optimal_fairness_cfg.quantum_ms
            ),
            format!("{:.3}", r.default_fairness),
            format!("{:.3}", r.worst_fairness),
            format!(
                "<{},{}>",
                r.optimal_perf_cfg.swap_size, r.optimal_perf_cfg.quantum_ms
            ),
            format!("{:.3}", r.default_perf),
            format!("{:.3}", r.worst_perf),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_orders_optimal_default_worst() {
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let sweeps = sweep_workloads_pool(&cfg, &[paper::workload(2)], &opts, &Pool::from_env());
        let row = reduce(&sweeps[0]);
        assert!(row.default_fairness <= 1.0 + 1e-12);
        assert!(row.worst_fairness <= row.default_fairness + 1e-12);
        assert!(row.default_perf <= 1.0 + 1e-12);
        assert!(row.worst_perf <= 1.0 + 1e-12);
        let t = render(&[row]);
        assert_eq!(t.len(), 1);
    }
}
