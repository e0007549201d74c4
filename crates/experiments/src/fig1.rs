//! Figure 1: performance of standalone vs concurrent execution.
//!
//! The paper's motivation figure: each application is run alone on the
//! machine ("standalone") and inside its 4-app + KMEANS workload under the
//! baseline scheduler ("concurrent"); the slowdown ratio shows contention
//! loss is large and unevenly distributed (jacobi 2.3× vs srad 1.25× in
//! WL2), and that heterogeneity makes it worse (STREAM in WL15: 3.4× on
//! the homogeneous machine vs 4.6× on the heterogeneous one).

use crate::runner::RunOptions;
use dike_machine::{presets, AppId, BarrierId, Machine, MachineConfig, SimTime, VCoreId};
use dike_metrics::TextTable;
use dike_workloads::{paper, AppKind, ProgramTable, Workload};

/// One application's standalone-vs-concurrent measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Workload the app ran inside.
    pub workload: String,
    /// Application name.
    pub app: String,
    /// `"hetero"` or `"homo"` machine (the concurrent run's machine).
    pub machine: &'static str,
    /// Runtime alone on the same machine with the same relative placement
    /// (seconds) — the reference isolating *contention*.
    pub standalone_same_s: f64,
    /// Runtime alone on the homogeneous machine (seconds) — the ideal
    /// reference capturing contention *and* the heterogeneity penalty.
    pub standalone_homo_s: f64,
    /// Runtime inside the concurrent workload under the baseline (seconds).
    pub concurrent_s: f64,
}

impl Fig1Row {
    /// Contention slowdown (vs same-machine, same-placement standalone).
    pub fn slowdown(&self) -> f64 {
        self.concurrent_s / self.standalone_same_s
    }

    /// Total slowdown vs the homogeneous ideal (contention + slow-core
    /// half). On the homogeneous machine the two references coincide.
    pub fn total_slowdown(&self) -> f64 {
        self.concurrent_s / self.standalone_homo_s
    }
}

/// Run one app standalone (8 threads, alone on the machine) and return its
/// runtime (slowest thread).
///
/// The standalone threads are pinned to the *same relative placement* the
/// app receives inside a five-app workload (vcores 0, 5, 10, …). Figure 1
/// measures every standalone reference on the *homogeneous* machine: the
/// slowdown then captures everything the deployment does to the app —
/// co-runner contention, and (on the heterogeneous machine) the slow-core
/// half — which is exactly the paper's point that "the problem gets worse
/// on a heterogeneous system".
fn standalone_runtime(machine_cfg: &MachineConfig, app: AppKind, opts: &RunOptions) -> f64 {
    let mut cfg = machine_cfg.clone();
    cfg.seed = opts.seed;
    let mut machine = Machine::new(cfg);
    let spec = ProgramTable::new(opts.scale).spec(app, AppId(0), BarrierId(0));
    let threads: Vec<_> = (0..8u32)
        .map(|k| machine.spawn(spec.clone(), VCoreId(k * 5)))
        .collect();
    machine.run_until_done(SimTime::from_secs_f64(opts.deadline_s));
    threads
        .iter()
        .map(|&t| {
            machine
                .finish_time(t)
                .map(|f| f.as_secs_f64())
                .unwrap_or(opts.deadline_s)
        })
        .fold(0.0, f64::max)
}

/// Per-app concurrent runtimes inside a workload under the baseline.
fn concurrent_runtimes(
    machine_cfg: &MachineConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Vec<(String, f64)> {
    let mut cfg = machine_cfg.clone();
    cfg.seed = opts.seed;
    let mut machine = Machine::new(cfg);
    let spawned = workload.spawn(&mut machine, opts.placement, opts.scale);
    machine.run_until_done(SimTime::from_secs_f64(opts.deadline_s));
    spawned
        .benchmark_apps()
        .iter()
        .map(|&a| {
            let runtime = spawned
                .threads_of(a)
                .iter()
                .map(|&t| {
                    machine
                        .finish_time(t)
                        .map(|f| f.as_secs_f64())
                        .unwrap_or(opts.deadline_s)
                })
                .fold(0.0, f64::max);
            (spawned.app_names[a.index()].clone(), runtime)
        })
        .collect()
}

/// Run the Figure 1 experiment.
///
/// Measures the paper's two highlighted workloads (WL2 and WL15) on the
/// heterogeneous machine, plus WL15 on the homogeneous machine for the
/// STREAM homo-vs-hetero comparison.
pub fn run(opts: &RunOptions) -> Vec<Fig1Row> {
    let hetero = presets::paper_machine(opts.seed);
    let homo = presets::homogeneous_machine(opts.seed);
    let mut rows = Vec::new();
    for (machine_label, machine_cfg, wl_nums) in [
        ("hetero", &hetero, vec![2usize, 15]),
        ("homo", &homo, vec![15]),
    ] {
        for n in wl_nums {
            let w = paper::workload(n);
            let concurrent = concurrent_runtimes(machine_cfg, &w, opts);
            for (app_kind, (app, concurrent_s)) in w.apps.iter().zip(concurrent) {
                let standalone_same_s = standalone_runtime(machine_cfg, *app_kind, opts);
                let standalone_homo_s = standalone_runtime(&homo, *app_kind, opts);
                rows.push(Fig1Row {
                    workload: w.name.clone(),
                    app,
                    machine: machine_label,
                    standalone_same_s,
                    standalone_homo_s,
                    concurrent_s,
                });
            }
        }
    }
    rows
}

/// Render the rows as the paper's bar-chart series.
pub fn render(rows: &[Fig1Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload",
        "app",
        "machine",
        "standalone_s",
        "concurrent_s",
        "contention",
        "total",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.app.clone(),
            r.machine.to_string(),
            format!("{:.2}", r.standalone_same_s),
            format!("{:.2}", r.concurrent_s),
            format!("{:.2}x", r.slowdown()),
            format!("{:.2}x", r.total_slowdown()),
        ]);
    }
    t
}

/// Sanity entry used by tests: slowdowns must exceed 1 and memory apps
/// must suffer more than compute apps within a workload.
pub fn quick_check(rows: &[Fig1Row]) -> Result<(), String> {
    for r in rows {
        if r.slowdown() < 1.0 {
            return Err(format!(
                "{} in {} speeds up under contention ({:.2}x)",
                r.app,
                r.workload,
                r.slowdown()
            ));
        }
    }
    // Within hetero WL2: jacobi (memory) must slow more than srad (compute).
    let slow = |app: &str| {
        rows.iter()
            .find(|r| r.app == app && r.machine == "hetero" && r.workload == "WL2")
            .map(|r| r.slowdown())
    };
    if let (Some(j), Some(s)) = (slow("jacobi"), slow("srad")) {
        if j <= s {
            return Err(format!(
                "jacobi ({j:.2}x) should slow more than srad ({s:.2}x)"
            ));
        }
    }
    // STREAM must suffer more on the heterogeneous machine, relative to
    // the homogeneous ideal (the paper's 3.4x -> 4.6x comparison).
    let stream = |machine: &str| {
        rows.iter()
            .find(|r| r.app == "stream_omp" && r.machine == machine)
            .map(|r| r.total_slowdown())
    };
    if let (Some(het), Some(hom)) = (stream("hetero"), stream("homo")) {
        if het <= hom {
            return Err(format!(
                "stream should slow more on hetero ({het:.2}x) than homo ({hom:.2}x)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_holds_at_reduced_scale() {
        let opts = RunOptions {
            scale: 0.08,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let rows = run(&opts);
        assert_eq!(rows.len(), 4 + 4 + 4); // WL2 + WL15 hetero, WL15 homo
        quick_check(&rows).unwrap();
        let table = render(&rows);
        assert_eq!(table.len(), rows.len());
    }

    #[test]
    fn standalone_is_faster_than_concurrent() {
        let opts = RunOptions {
            scale: 0.05,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(1);
        let solo = standalone_runtime(&cfg, AppKind::Jacobi, &opts);
        let conc = concurrent_runtimes(&cfg, &paper::workload(2), &opts);
        let jacobi = conc.iter().find(|(a, _)| a == "jacobi").unwrap().1;
        assert!(jacobi > solo, "concurrent {jacobi} <= standalone {solo}");
    }
}
