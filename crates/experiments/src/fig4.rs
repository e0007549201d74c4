//! Figure 4: heatmaps of normalised fairness/performance over the full
//! 8×4 ⟨swapSize, quantaLength⟩ grid for two selected workloads.

use crate::runner::RunOptions;
use crate::sweep::{sweep_workloads_pool, Sweep};
use dike_machine::presets;
use dike_metrics::TextTable;
use dike_scheduler::config::{QUANTA_LADDER_MS, SWAP_SIZE_MAX, SWAP_SIZE_MIN};
use dike_util::Pool;
use dike_workloads::paper;

/// A rendered heatmap: rows = quanta ladder, columns = swap sizes, values
/// normalised to the grid's best cell (1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Workload name.
    pub workload: String,
    /// `"fairness"` or `"performance"`.
    pub metric: &'static str,
    /// `values[quantum_rung][swap_rung]` in `[0, 1]`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Swap-size axis labels.
    pub fn swap_sizes() -> Vec<u32> {
        (SWAP_SIZE_MIN..=SWAP_SIZE_MAX).step_by(2).collect()
    }

    /// Quantum axis labels (ms).
    pub fn quanta_ms() -> Vec<u64> {
        QUANTA_LADDER_MS.to_vec()
    }

    /// Render as a table with one row per quantum.
    pub fn render(&self) -> TextTable {
        let mut header = vec![format!("{} {}", self.workload, self.metric)];
        header.extend(Self::swap_sizes().iter().map(|s| format!("ss={s}")));
        let mut t = TextTable::new(header);
        for (qi, q) in Self::quanta_ms().iter().enumerate() {
            let mut row = vec![format!("q={q}ms")];
            row.extend(self.values[qi].iter().map(|v| format!("{v:.3}")));
            t.row(row);
        }
        t
    }
}

/// Build both heatmaps (fairness + performance) from one sweep.
///
/// Grid order from [`dike_scheduler::SchedConfig::grid`] is quantum-major,
/// so cell `(qi, si)` is index `qi * 8 + si`.
pub fn heatmaps(sweep: &Sweep) -> (Heatmap, Heatmap) {
    let n_swaps = Heatmap::swap_sizes().len();
    let shape = |values: Vec<f64>| -> Vec<Vec<f64>> {
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        values
            .chunks(n_swaps)
            .map(|row| row.iter().map(|v| v / max).collect())
            .collect()
    };
    let fairness = shape(sweep.cells.iter().map(|c| c.result.fairness).collect());
    let speed = shape(sweep.speedups());
    (
        Heatmap {
            workload: sweep.workload.clone(),
            metric: "fairness",
            values: fairness,
        },
        Heatmap {
            workload: sweep.workload.clone(),
            metric: "performance",
            values: speed,
        },
    )
}

/// The two selected workloads (one balanced, one unbalanced).
pub const SELECTED: [usize; 2] = [3, 9];

/// Run the Figure 4 experiment: both workloads' sweeps share one
/// flattened parallel task list.
pub fn run(opts: &RunOptions) -> Vec<Heatmap> {
    let cfg = presets::paper_machine(opts.seed);
    let workloads: Vec<_> = SELECTED.iter().map(|&n| paper::workload(n)).collect();
    let mut out = Vec::new();
    for sweep in sweep_workloads_pool(&cfg, &workloads, opts, &Pool::from_env()) {
        let (f, p) = heatmaps(&sweep);
        out.push(f);
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmaps_are_normalised_grids() {
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let sweeps = sweep_workloads_pool(&cfg, &[paper::workload(3)], &opts, &Pool::from_env());
        let (f, p) = heatmaps(&sweeps[0]);
        for h in [&f, &p] {
            assert_eq!(h.values.len(), 4);
            assert!(h.values.iter().all(|r| r.len() == 8));
            let max = h.values.iter().flatten().copied().fold(f64::MIN, f64::max);
            assert!((max - 1.0).abs() < 1e-12, "{} max {max}", h.metric);
            assert!(h.values.iter().flatten().all(|&v| v > 0.0 && v <= 1.0));
            let t = h.render();
            assert_eq!(t.len(), 4);
        }
    }
}
