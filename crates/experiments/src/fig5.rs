//! Figure 5: the optimisation space of scheduler configurations, aggregated
//! per workload class (B / UC / UM) — the empirical basis of Algorithm 2's
//! adaptation rules.
//!
//! For each class, normalised fairness and performance are averaged over
//! the class's workloads at every grid point; the paper derives its
//! optimizer moves from the resulting contours (e.g. *Fairness-UC* peaks at
//! high swapSize and quantaLength ≈ 200 ms).

use crate::fig4::{heatmaps, Heatmap};
use crate::runner::RunOptions;
use crate::sweep::sweep_workloads_pool;
use dike_machine::presets;
use dike_util::Pool;
use dike_workloads::{paper, WorkloadClass};

/// Aggregated per-class heatmaps.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassContours {
    /// Workload class.
    pub class: WorkloadClass,
    /// Workloads aggregated.
    pub workloads: Vec<String>,
    /// Mean normalised fairness per grid point.
    pub fairness: Heatmap,
    /// Mean normalised performance per grid point.
    pub performance: Heatmap,
}

impl ClassContours {
    /// Grid point with the highest aggregated value for a metric.
    pub fn peak(values: &[Vec<f64>]) -> (usize, usize) {
        let mut best = (0, 0);
        let mut best_v = f64::MIN;
        for (qi, row) in values.iter().enumerate() {
            for (si, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = (qi, si);
                }
            }
        }
        best
    }
}

fn mean_maps(maps: Vec<Heatmap>, label: String, metric: &'static str) -> Heatmap {
    let n = maps.len() as f64;
    let mut acc = maps[0].values.clone();
    for m in &maps[1..] {
        for (qi, row) in m.values.iter().enumerate() {
            for (si, &v) in row.iter().enumerate() {
                acc[qi][si] += v;
            }
        }
    }
    for row in &mut acc {
        for v in row {
            *v /= n;
        }
    }
    Heatmap {
        workload: label,
        metric,
        values: acc,
    }
}

/// Run the Figure 5 experiment.
///
/// `workloads_per_class` limits the sweep cost (the full figure uses all
/// workloads of each class: 6 + 5 + 5 sweeps of 33 runs each).
pub fn run(opts: &RunOptions, workloads_per_class: usize) -> Vec<ClassContours> {
    let cfg = presets::paper_machine(opts.seed);
    let pool = Pool::from_env();
    let mut out = Vec::new();
    for class in [
        WorkloadClass::Balanced,
        WorkloadClass::UnbalancedCompute,
        WorkloadClass::UnbalancedMemory,
    ] {
        let workloads: Vec<_> = paper::all_workloads()
            .into_iter()
            .filter(|w| w.class() == class)
            .take(workloads_per_class)
            .collect();
        let mut fair_maps = Vec::new();
        let mut perf_maps = Vec::new();
        let mut names = Vec::new();
        for sweep in sweep_workloads_pool(&cfg, &workloads, opts, &pool) {
            let (f, p) = heatmaps(&sweep);
            fair_maps.push(f);
            perf_maps.push(p);
            names.push(sweep.workload.clone());
        }
        out.push(ClassContours {
            class,
            fairness: mean_maps(fair_maps, format!("{}-fairness", class.label()), "fairness"),
            performance: mean_maps(
                perf_maps,
                format!("{}-performance", class.label()),
                "performance",
            ),
            workloads: names,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_contours_aggregate_and_peak() {
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        let contours = run(&opts, 1);
        assert_eq!(contours.len(), 3);
        for c in &contours {
            assert_eq!(c.workloads.len(), 1);
            assert_eq!(c.fairness.values.len(), 4);
            let (qi, si) = ClassContours::peak(&c.fairness.values);
            assert!(qi < 4 && si < 8);
            assert!(c
                .fairness
                .values
                .iter()
                .flatten()
                .all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        }
    }

    #[test]
    fn mean_maps_averages_pointwise() {
        let mk = |v: f64| Heatmap {
            workload: "x".into(),
            metric: "fairness",
            values: vec![vec![v; 8]; 4],
        };
        let m = mean_maps(vec![mk(0.4), mk(0.8)], "avg".into(), "fairness");
        assert!((m.values[0][0] - 0.6).abs() < 1e-12);
        assert!((m.values[3][7] - 0.6).abs() < 1e-12);
    }
}
