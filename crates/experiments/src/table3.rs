//! Table III: swap counts per workload under DIO, Dike, Dike-AF and
//! Dike-AP, read from the cells of the Figure 6 run ([`Table3::of`]).
//!
//! The paper's averages: DIO ≈ 2117, Dike ≈ 773, Dike-AF ≈ 289,
//! Dike-AP ≈ 191 — with a strong class pattern for Dike (B workloads need
//! ~10 swaps; UC workloads churn at DIO-like rates; UM workloads rotate at
//! hundreds).

use crate::fig6::Fig6;
use dike_metrics::{mean, TextTable};
use dike_util::json_struct;

/// Swap counts per workload (rows) per scheduler (columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Scheduler labels.
    pub schedulers: Vec<String>,
    /// Workload names.
    pub workloads: Vec<String>,
    /// `swaps[w][s]`.
    pub swaps: Vec<Vec<u64>>,
}

json_struct!(Table3 {
    schedulers,
    workloads,
    swaps,
});

impl Table3 {
    /// The swap counts of a Figure 6 run: every scheduler after the
    /// baseline, one row per workload.
    pub fn of(fig: &Fig6) -> Table3 {
        Table3 {
            schedulers: fig.schedulers[1..].to_vec(),
            workloads: fig.rows.iter().map(|row| row[0].workload.clone()).collect(),
            swaps: fig
                .rows
                .iter()
                .map(|row| row[1..].iter().map(|c| c.swaps).collect())
                .collect(),
        }
    }

    /// Per-scheduler averages (the table's final column).
    pub fn averages(&self) -> Vec<f64> {
        (0..self.schedulers.len())
            .map(|s| {
                mean(
                    &self
                        .swaps
                        .iter()
                        .map(|row| row[s] as f64)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }
}

/// Render in the paper's layout (schedulers as rows, workloads as columns).
pub fn render(t3: &Table3) -> TextTable {
    let mut header = vec!["scheduler".to_string()];
    header.extend(t3.workloads.iter().map(|w| w.to_lowercase()));
    header.push("Average".into());
    let mut t = TextTable::new(header);
    let avgs = t3.averages();
    for (s, name) in t3.schedulers.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(t3.swaps.iter().map(|w| w[s].to_string()));
        row.push(format!("{:.1}", avgs[s]));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig6, RunOptions};
    use dike_util::Pool;

    #[test]
    fn swap_counts_follow_the_papers_ordering() {
        let opts = RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let t3 = Table3::of(&fig6::run_subset_pool(&opts, &[1, 13], &Pool::from_env()));
        assert_eq!(t3.schedulers, vec!["DIO", "Dike", "Dike-AF", "Dike-AP"]);
        let avgs = t3.averages();
        // DIO out-swaps the non-adaptive and performance-adaptive Dike
        // variants clearly (paper ratio ~2.7x for Dike, ~11x for Dike-AP).
        for s in [1usize, 3] {
            assert!(
                avgs[0] > 1.3 * avgs[s],
                "DIO avg {} vs {} avg {}",
                avgs[0],
                t3.schedulers[s],
                avgs[s]
            );
        }
        let rendered = render(&t3);
        assert_eq!(rendered.len(), 4);
    }
}
