//! Design-choice ablations: what each Dike mechanism contributes.
//!
//! DESIGN.md §5 lists the choices worth isolating. Each ablation runs the
//! standard workload set with one mechanism altered and reports fairness,
//! performance and swap volume next to default Dike and the DIO/CFS
//! anchors:
//!
//! * **no-prediction** — the Decider accepts every Selector pair: shows the
//!   migration volume Eqns 1–3 prevent (the paper's central claim for
//!   Dike-vs-DIO);
//! * **no-cooldown** — threads may swap in consecutive quanta;
//! * **demand-gated CoreBW** — the capability-estimating variant of the
//!   Observer; its profit test almost never rejects a pair, so it swaps
//!   about as often as no-prediction, more than default Dike;
//! * **observed-bandwidth core ranking** — fully dynamic core
//!   identification as sketched in Section III-A;
//! * **θ_f sensitivity** — tighter/looser fairness gates.

use crate::runner::{run_cell, CellResult, RunOptions, SchedKind};
use dike_machine::presets;
use dike_metrics::{mean, TextTable};
use dike_scheduler::{CoreBwEstimate, CoreRanking, DikeConfig};
use dike_workloads::paper;

/// The ablation variants, with display names.
pub fn variants() -> Vec<(String, SchedKind)> {
    let dike = DikeConfig::default();
    let mut v: Vec<(String, SchedKind)> = vec![
        ("Linux-CFS".into(), SchedKind::Cfs),
        ("DIO".into(), SchedKind::Dio),
        ("Dike".into(), SchedKind::DikeCustom(dike.clone())),
        (
            "Dike/no-prediction".into(),
            SchedKind::DikeCustom(DikeConfig {
                use_prediction: false,
                ..dike.clone()
            }),
        ),
        (
            "Dike/no-cooldown".into(),
            SchedKind::DikeCustom(DikeConfig {
                cooldown: false,
                ..dike.clone()
            }),
        ),
        (
            "Dike/gated-corebw".into(),
            SchedKind::DikeCustom(DikeConfig {
                core_bw_estimate: CoreBwEstimate::DemandGated,
                ..dike.clone()
            }),
        ),
        (
            "Dike/observed-rank".into(),
            SchedKind::DikeCustom(DikeConfig {
                core_ranking: CoreRanking::ObservedBandwidth,
                ..dike.clone()
            }),
        ),
    ];
    for theta in [0.05, 0.2] {
        v.push((
            format!("Dike/theta={theta}"),
            SchedKind::DikeCustom(DikeConfig {
                fairness_threshold: theta,
                ..dike.clone()
            }),
        ));
    }
    v
}

/// One variant's aggregated outcome over the workload set.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub name: String,
    /// Mean fairness.
    pub fairness: f64,
    /// Mean benchmark-app runtime (s).
    pub mean_app_runtime_s: f64,
    /// Mean swaps.
    pub swaps: f64,
    /// All cells.
    pub cells: Vec<CellResult>,
}

/// Run the ablation study over a representative workload subset (one per
/// class by default; pass more numbers for a fuller picture).
pub fn run(opts: &RunOptions, workload_numbers: &[usize]) -> Vec<AblationRow> {
    let cfg = presets::paper_machine(opts.seed);
    variants()
        .into_iter()
        .map(|(name, kind)| {
            let cells: Vec<CellResult> = workload_numbers
                .iter()
                .map(|&n| run_cell(&cfg, &paper::workload(n), &kind, opts))
                .collect();
            AblationRow {
                name,
                fairness: mean(&cells.iter().map(|c| c.fairness).collect::<Vec<_>>()),
                mean_app_runtime_s: mean(
                    &cells
                        .iter()
                        .map(|c| c.mean_app_runtime_s)
                        .collect::<Vec<_>>(),
                ),
                swaps: mean(&cells.iter().map(|c| c.swaps as f64).collect::<Vec<_>>()),
                cells,
            }
        })
        .collect()
}

/// Render the study.
pub fn render(rows: &[AblationRow]) -> TextTable {
    let mut t = TextTable::new(vec!["variant", "fairness", "meanApp(s)", "swaps"]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            format!("{:.4}", r.fairness),
            format!("{:.2}", r.mean_app_runtime_s),
            format!("{:.1}", r.swaps),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_swaps_more_than_default() {
        let opts = RunOptions {
            scale: 0.1,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let rows = run(&opts, &[1]);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let dike = by_name("Dike");
        let nopred = by_name("Dike/no-prediction");
        assert!(
            nopred.swaps > dike.swaps,
            "prediction should prevent migrations: {} vs {}",
            nopred.swaps,
            dike.swaps
        );
        // CFS never swaps; DIO swaps the most.
        assert_eq!(by_name("Linux-CFS").swaps, 0.0);
        assert!(by_name("DIO").swaps > nopred.swaps);
        let t = render(&rows);
        assert_eq!(t.len(), rows.len());
    }

    /// The gated estimate is not no-prediction by construction: on WL12
    /// at paper scale it rejects pairs on profit, so it swaps less.
    #[test]
    fn gated_corebw_rejects_on_profit_where_no_prediction_cannot() {
        let opts = RunOptions::default();
        let cfg = presets::paper_machine(opts.seed);
        let wl12 = paper::workload(12);
        let cell = |name: &str| {
            let (_, kind) = variants().into_iter().find(|(n, _)| n == name).unwrap();
            run_cell(&cfg, &wl12, &kind, &opts)
        };
        let gated = cell("Dike/gated-corebw");
        let nopred = cell("Dike/no-prediction");
        assert!(gated.rejected_profit > 0, "gated rejected none on profit");
        assert_eq!(nopred.rejected_profit, 0);
        assert_ne!(gated.swaps, nopred.swaps);
    }
}
