//! Figure 8: the prediction-error *trend* over time for WL6 and WL11.
//!
//! The paper shows per-quantum error traces with spikes at phase changes
//! (sudden access-rate shifts, most likely in compute-intensive threads)
//! and after benchmark completions (freed bandwidth perturbs the remaining
//! threads), while staying within ±10 % overall. The traces are the Dike
//! cells of the Figure 6 run ([`traces`]).

use crate::fig6::Fig6;
use dike_metrics::{TextTable, TimeSeries};
use dike_workloads::paper;

/// One workload's error trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Trace {
    /// Workload name.
    pub workload: String,
    /// Per-quantum mean signed relative error.
    pub series: TimeSeries,
}

/// The paper's two selected workloads.
pub const SELECTED: [usize; 2] = [6, 11];

/// The traces of the [`SELECTED`] workloads that `fig` ran, from their
/// Dike cells.
pub fn traces(fig: &Fig6) -> Vec<Fig8Trace> {
    let dike = fig.column("Dike");
    SELECTED
        .iter()
        .filter_map(|&n| {
            let name = paper::workload(n).name;
            fig.rows
                .iter()
                .map(|row| &row[dike])
                .find(|c| c.workload == name)
        })
        .map(|cell| {
            let mut series = TimeSeries::new(cell.workload.clone());
            for (t, e) in &cell.prediction_trace {
                series.push(*t, *e);
            }
            Fig8Trace {
                workload: cell.workload.clone(),
                series,
            }
        })
        .collect()
}

/// Render a trace (down-sampled) with a crude ASCII sparkline.
pub fn render(trace: &Fig8Trace, max_points: usize) -> TextTable {
    let ds = trace.series.downsample(max_points);
    let mut t = TextTable::new(vec!["t(s)", "error", "trend"]);
    let max_abs = ds.values.iter().map(|v| v.abs()).fold(1e-9, f64::max);
    for (time, value) in ds.iter() {
        let width = 20usize;
        let mid = width / 2;
        let offset = ((value / max_abs) * mid as f64).round() as i64;
        let pos = (mid as i64 + offset).clamp(0, width as i64 - 1) as usize;
        let mut bar: Vec<char> = vec!['.'; width];
        bar[mid] = '|';
        bar[pos] = '*';
        t.row(vec![
            format!("{time:.1}"),
            format!("{:+.2}%", value * 100.0),
            bar.into_iter().collect::<String>(),
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
    fn traces_record_per_quantum_errors() {
        let opts = RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let traces = traces(&fig6::run_subset_pool(&opts, &[6], &Pool::from_env()));
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        assert!(
            tr.series.len() > 5,
            "too few trace points: {}",
            tr.series.len()
        );
        // Errors stay bounded.
        let s = tr.series.summary();
        assert!(s.min > -1.0 && s.max < 1.0, "unbounded errors: {s:?}");
        let rendered = render(tr, 10);
        assert!(rendered.len() <= 10);
    }
}
