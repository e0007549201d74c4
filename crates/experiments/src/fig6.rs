//! Figure 6: the headline comparison — fairness improvement (6a) and
//! speedup over the baseline (6b) for DIO, Dike, Dike-AF and Dike-AP on
//! all sixteen workloads, plus averages and geometric means.
//!
//! The paper runs each workload once under each scheduler, and Table III
//! and Figures 7–8 read the same runs; so do [`crate::table3`],
//! [`crate::fig7`] and [`crate::fig8`], from one [`Fig6`].

use crate::runner::{run_cells, CellResult, RunOptions, SchedKind};
use dike_machine::presets;
use dike_metrics::{geometric_mean, mean, pct, relative_improvement, TextTable};
use dike_util::{json_struct, Pool};
use dike_workloads::paper;

/// All cells of the comparison, grouped by workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Scheduler labels, in column order (first is the baseline).
    pub schedulers: Vec<String>,
    /// `rows[w][s]` = cell for workload `w` under scheduler `s`.
    pub rows: Vec<Vec<CellResult>>,
}

json_struct!(Fig6 { schedulers, rows });

impl Fig6 {
    /// Index of the scheduler column labelled `label`.
    ///
    /// # Panics
    /// Panics if no column carries that label.
    pub fn column(&self, label: &str) -> usize {
        self.schedulers
            .iter()
            .position(|s| s == label)
            .unwrap_or_else(|| panic!("{label} not in the comparison set"))
    }

    /// Fairness improvement over the baseline per workload per scheduler
    /// (column 0, the baseline, is all zeros) — Figure 6a.
    pub fn fairness_improvements(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|row| {
                let base = row[0].fairness;
                row.iter()
                    .map(|c| relative_improvement(c.fairness, base))
                    .collect()
            })
            .collect()
    }

    /// Speedup over the baseline per workload per scheduler, using the
    /// paper's per-workload performance = mean benchmark runtime —
    /// Figure 6b.
    pub fn speedups(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|row| {
                let base = row[0].mean_app_runtime_s;
                row.iter().map(|c| base / c.mean_app_runtime_s).collect()
            })
            .collect()
    }

    /// Makespan speedups (secondary performance metric: time until the
    /// whole workload, including the background app, completes).
    pub fn makespan_speedups(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|row| {
                let base = row[0].makespan_s;
                row.iter().map(|c| base / c.makespan_s).collect()
            })
            .collect()
    }

    /// Column means of a per-workload matrix.
    pub fn column_means(matrix: &[Vec<f64>]) -> Vec<f64> {
        let cols = matrix[0].len();
        (0..cols)
            .map(|s| mean(&matrix.iter().map(|row| row[s]).collect::<Vec<_>>()))
            .collect()
    }

    /// Column geometric means (used by the paper's headline numbers).
    /// Non-positive entries (possible for improvements) are mapped through
    /// `1 + x` as ratios.
    pub fn column_geomeans_of_ratios(matrix: &[Vec<f64>]) -> Vec<f64> {
        let cols = matrix[0].len();
        (0..cols)
            .map(|s| {
                geometric_mean(
                    &matrix
                        .iter()
                        .map(|row| row[s].max(1e-9))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }
}

/// Run the comparison over a subset of workload numbers, sharding all
/// `(workload × scheduler)` cells across `pool`.
pub fn run_subset_pool(opts: &RunOptions, workload_numbers: &[usize], pool: &Pool) -> Fig6 {
    let cfg = presets::paper_machine(opts.seed);
    let kinds = SchedKind::comparison_set();
    let workloads: Vec<_> = workload_numbers
        .iter()
        .map(|&n| paper::workload(n))
        .collect();
    let tasks: Vec<_> = workloads
        .iter()
        .flat_map(|w| kinds.iter().map(move |k| (w, k.clone())))
        .collect();
    let mut results = run_cells(&cfg, &tasks, opts, pool).into_iter();
    let rows = workloads
        .iter()
        .map(|_| {
            (0..kinds.len())
                .map(|_| results.next().expect("cell"))
                .collect()
        })
        .collect();
    Fig6 {
        schedulers: kinds.iter().map(|k| k.label()).collect(),
        rows,
    }
}

/// Render Figure 6a (fairness improvement over baseline).
pub fn render_fairness(fig: &Fig6) -> TextTable {
    let mut header = vec!["workload".to_string()];
    header.extend(fig.schedulers.iter().skip(1).cloned());
    let mut t = TextTable::new(header);
    let improvements = fig.fairness_improvements();
    for (row, cells) in improvements.iter().zip(&fig.rows) {
        let mut out = vec![cells[0].workload.clone()];
        out.extend(row.iter().skip(1).map(|&v| pct(v)));
        t.row(out);
    }
    // Average and geomean rows, as in the figure's final region.
    let means = Fig6::column_means(&improvements);
    let mut avg = vec!["average".to_string()];
    avg.extend(means.iter().skip(1).map(|&v| pct(v)));
    t.row(avg);
    let ratios: Vec<Vec<f64>> = improvements
        .iter()
        .map(|r| r.iter().map(|&v| 1.0 + v).collect())
        .collect();
    let geo = Fig6::column_geomeans_of_ratios(&ratios);
    let mut geo_row = vec!["geomean".to_string()];
    geo_row.extend(geo.iter().skip(1).map(|&v| pct(v - 1.0)));
    t.row(geo_row);
    t
}

/// Render Figure 6b (speedup over baseline).
pub fn render_performance(fig: &Fig6) -> TextTable {
    let mut header = vec!["workload".to_string()];
    for s in fig.schedulers.iter().skip(1) {
        header.push(s.clone());
    }
    header.push("(makespan) Dike".into());
    let mut t = TextTable::new(header);
    let speedups = fig.speedups();
    let mk = fig.makespan_speedups();
    let dike_col = fig.column("Dike");
    for ((row, cells), mrow) in speedups.iter().zip(&fig.rows).zip(&mk) {
        let mut out = vec![cells[0].workload.clone()];
        out.extend(row.iter().skip(1).map(|&v| format!("{v:.3}")));
        out.push(format!("{:.3}", mrow[dike_col]));
        t.row(out);
    }
    let means = Fig6::column_means(&speedups);
    let mk_means = Fig6::column_means(&mk);
    let mut avg = vec!["average".to_string()];
    avg.extend(means.iter().skip(1).map(|&v| format!("{v:.3}")));
    avg.push(format!("{:.3}", mk_means[dike_col]));
    t.row(avg);
    let geo = Fig6::column_geomeans_of_ratios(&speedups);
    let mk_geo = Fig6::column_geomeans_of_ratios(&mk);
    let mut geo_row = vec!["geomean".to_string()];
    geo_row.extend(geo.iter().skip(1).map(|&v| format!("{v:.3}")));
    geo_row.push(format!("{:.3}", mk_geo[dike_col]));
    t.row(geo_row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_comparison_has_expected_shape_and_orderings() {
        let opts = RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        // One workload per class keeps this test affordable.
        let fig = run_subset_pool(&opts, &[1, 9, 13], &Pool::from_env());
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.schedulers.len(), 5);
        let improvements = fig.fairness_improvements();
        // Every contention-aware scheduler improves fairness over CFS.
        for (w, row) in improvements.iter().enumerate() {
            assert_eq!(row[0], 0.0);
            for (s, &v) in row.iter().enumerate().skip(1) {
                assert!(
                    v > 0.0,
                    "{} should improve fairness on row {w} (got {v})",
                    fig.schedulers[s]
                );
            }
        }
        // Dike swaps far less than DIO on every workload.
        for row in &fig.rows {
            let dio = &row[1];
            let dike = &row[2];
            // Paper Table III ratio: DIO ~2117 vs Dike ~773 (2.7x).
            assert!(
                dike.swaps < dio.swaps,
                "Dike ({}) should swap less than DIO ({})",
                dike.swaps,
                dio.swaps
            );
        }
        let ft = render_fairness(&fig);
        assert_eq!(ft.len(), 5); // 3 workloads + average + geomean
        let pt = render_performance(&fig);
        assert_eq!(pt.len(), 5);
    }
}
