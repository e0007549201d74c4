//! Figure 7: Dike's prediction error per workload — minimum, average and
//! maximum signed relative error across all scored (thread, quantum)
//! samples. The paper reports averages within 0–3 % and bounds of −9 % to
//! +10 %, with UC workloads hardest to predict. The samples are the Dike
//! column of the Figure 6 run ([`rows`]).

use crate::fig6::Fig6;
use dike_metrics::{Summary, TextTable};

/// One workload's error summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Workload name.
    pub workload: String,
    /// Error summary (signed relative errors).
    pub summary: Summary,
}

/// One row per workload of `fig`, from its Dike cells.
pub fn rows(fig: &Fig6) -> Vec<Fig7Row> {
    let dike = fig.column("Dike");
    fig.rows
        .iter()
        .map(|row| Fig7Row {
            workload: row[dike].workload.clone(),
            summary: Summary::of(&row[dike].prediction_errors),
        })
        .collect()
}

/// Render as the figure's min/avg/max series.
pub fn render(rows: &[Fig7Row]) -> TextTable {
    let mut t = TextTable::new(vec!["workload", "min", "avg", "max", "samples"]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            format!("{:+.1}%", r.summary.min * 100.0),
            format!("{:+.1}%", r.summary.mean * 100.0),
            format!("{:+.1}%", r.summary.max * 100.0),
            format!("{}", r.summary.n),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig6, RunOptions};
    use dike_util::Pool;

    #[test]
    fn prediction_errors_are_small_on_average() {
        let opts = RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let rows = rows(&fig6::run_subset_pool(&opts, &[1, 13], &Pool::from_env()));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.summary.n > 0, "{} recorded no samples", r.workload);
            assert!(
                r.summary.mean.abs() < 0.15,
                "{} mean error {:.3} too large",
                r.workload,
                r.summary.mean
            );
            assert!(r.summary.min <= r.summary.mean && r.summary.mean <= r.summary.max);
        }
        let t = render(&rows);
        assert_eq!(t.len(), 2);
    }
}
