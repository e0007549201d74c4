//! Configuration-grid sweeps over ⟨swapSize, quantaLength⟩ — the engine
//! behind Figures 2, 4 and 5.
//!
//! Every cell of a sweep is independent, so the drivers shard cells across
//! the [`dike_util::pool`] workers. Results are reassembled in
//! [`SchedConfig::grid`] order regardless of completion order, which makes
//! the parallel output — including its serialized JSON — byte-identical to
//! the serial path (`DIKE_THREADS=1`).

use crate::runner::{run_cell, CellResult, RunOptions, SchedKind};
use dike_machine::MachineConfig;
use dike_metrics::relative_improvement;
use dike_scheduler::SchedConfig;
use dike_util::{json_struct, Pool};
use dike_workloads::Workload;

/// One grid cell: a configuration and its measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The configuration.
    pub config: SchedConfig,
    /// Full cell result.
    pub result: CellResult,
}

json_struct!(SweepCell { config, result });

/// A full 32-point sweep for one workload, plus the baseline cell used for
/// normalisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Workload name.
    pub workload: String,
    /// Baseline (Linux-CFS) result.
    pub baseline: CellResult,
    /// One cell per configuration, in [`SchedConfig::grid`] order.
    pub cells: Vec<SweepCell>,
}

json_struct!(Sweep {
    workload,
    baseline,
    cells,
});

impl Sweep {
    /// Fairness improvement over the baseline for each cell.
    pub fn fairness_improvements(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| relative_improvement(c.result.fairness, self.baseline.fairness))
            .collect()
    }

    /// Speedup over the baseline (mean benchmark-app runtime) per cell.
    pub fn speedups(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| self.baseline.mean_app_runtime_s / c.result.mean_app_runtime_s)
            .collect()
    }

    /// Index of the best cell by fairness.
    pub fn best_fairness(&self) -> usize {
        argmax(
            &self
                .cells
                .iter()
                .map(|c| c.result.fairness)
                .collect::<Vec<_>>(),
        )
    }

    /// Index of the worst cell by fairness.
    pub fn worst_fairness(&self) -> usize {
        argmin(
            &self
                .cells
                .iter()
                .map(|c| c.result.fairness)
                .collect::<Vec<_>>(),
        )
    }

    /// Index of the best cell by performance (lowest mean app runtime).
    pub fn best_performance(&self) -> usize {
        argmin(
            &self
                .cells
                .iter()
                .map(|c| c.result.mean_app_runtime_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Index of the worst cell by performance.
    pub fn worst_performance(&self) -> usize {
        argmax(
            &self
                .cells
                .iter()
                .map(|c| c.result.mean_app_runtime_s)
                .collect::<Vec<_>>(),
        )
    }

    /// The cell for a specific configuration.
    pub fn cell(&self, config: SchedConfig) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.config == config)
    }
}

// `total_cmp` instead of `partial_cmp(..).expect("finite")`: a NaN-poisoned
// cell (e.g. a degenerate runtime matrix) must yield *some* index, never a
// panic deep inside a figure driver. NaN sorts above +inf in the total
// order, so argmax prefers it; callers that care filter beforehand.
fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty sweep")
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty sweep")
}

/// Sweep all 32 configurations of each workload with non-adaptive Dike,
/// flattening all `(workload × cell)` pairs — the CFS baseline, then the
/// grid — into one task list on `pool`, so the pool stays saturated
/// across workload boundaries. Results come back in input order, each
/// sweep's cells in [`SchedConfig::grid`] order.
pub fn sweep_workloads_pool(
    machine_cfg: &MachineConfig,
    workloads: &[Workload],
    opts: &RunOptions,
    pool: &Pool,
) -> Vec<Sweep> {
    let grid = SchedConfig::grid();
    let per_workload = grid.len() + 1;
    let results = pool.map_indexed(workloads.len() * per_workload, |task| {
        let (w, cell) = (task / per_workload, task % per_workload);
        if cell == 0 {
            run_cell(machine_cfg, &workloads[w], &SchedKind::Cfs, opts)
        } else {
            run_cell(
                machine_cfg,
                &workloads[w],
                &SchedKind::Dike(grid[cell - 1]),
                opts,
            )
        }
    });
    let mut out = Vec::with_capacity(workloads.len());
    let mut iter = results.into_iter();
    for w in workloads {
        let baseline = iter.next().expect("baseline cell present");
        let cells = grid
            .iter()
            .map(|&config| SweepCell {
                config,
                result: iter.next().expect("grid cell present"),
            })
            .collect();
        out.push(Sweep {
            workload: w.name.clone(),
            baseline,
            cells,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::presets;
    use dike_workloads::paper;

    #[test]
    fn sweep_covers_the_grid_and_finds_extremes() {
        // Tiny scale: this runs 33 cells.
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let sweep =
            sweep_workloads_pool(&cfg, &[paper::workload(1)], &opts, &Pool::from_env()).remove(0);
        assert_eq!(sweep.cells.len(), 32);
        assert_eq!(sweep.fairness_improvements().len(), 32);
        assert_eq!(sweep.speedups().len(), 32);
        let bf = sweep.best_fairness();
        let wf = sweep.worst_fairness();
        assert!(
            sweep.cells[bf].result.fairness >= sweep.cells[wf].result.fairness,
            "best fairness below worst"
        );
        let bp = sweep.best_performance();
        let wp = sweep.worst_performance();
        assert!(
            sweep.cells[bp].result.mean_app_runtime_s <= sweep.cells[wp].result.mean_app_runtime_s
        );
        assert!(sweep.cell(SchedConfig::DEFAULT).is_some());
    }

    #[test]
    fn extremes_survive_a_nan_poisoned_cell() {
        // Regression: argmax/argmin used `partial_cmp(..).expect("finite")`
        // and panicked on NaN. A degenerate cell must not take down a
        // whole figure driver.
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let mut sweep =
            sweep_workloads_pool(&cfg, &[paper::workload(1)], &opts, &Pool::new(1)).remove(0);
        sweep.cells[5].result.fairness = f64::NAN;
        sweep.cells[11].result.mean_app_runtime_s = f64::NAN;
        for idx in [
            sweep.best_fairness(),
            sweep.worst_fairness(),
            sweep.best_performance(),
            sweep.worst_performance(),
        ] {
            assert!(idx < sweep.cells.len());
        }
        // NaN sorts above every finite value in the total order, so the
        // poisoned cells land at the max end, not the min end.
        assert_eq!(sweep.best_fairness(), 5);
        assert_eq!(sweep.worst_performance(), 11);
        assert_ne!(sweep.worst_fairness(), 5);
        assert_ne!(sweep.best_performance(), 11);
    }
}
