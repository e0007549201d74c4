//! Scale sweep: does the pipeline still deliver fairness when the machine
//! grows from the paper's 40 vcores to hundreds of cores spread across
//! multiple memory controllers?
//!
//! Each sweep point pairs a `k`-controller machine
//! ([`dike_machine::presets::numa_machine`], 40 vcores per domain) with the
//! paper's WL1 application mix replicated `k`× (plus the usual single
//! KMEANS background), so per-controller pressure stays comparable to the
//! paper machine while the global problem grows. Every point runs the full
//! Figure 6 comparison set; the `(point × scheduler)` cells are flattened
//! into one task list over the [`dike_util::pool`] workers, and results are
//! reassembled in input order so the output is byte-identical to a serial
//! run (the same contract as the Fig 2/4/5 sweeps).
//!
//! Host wall-clock per point is *not* part of the result struct — it would
//! break the parallel-determinism contract. The benchmark's `numa_closed`
//! workload times the 26-controller machine instead (`BENCHMARK.json`).

use crate::runner::{run_cell, CellResult, RunOptions, SchedKind};
use dike_machine::{presets, MachineConfig};
use dike_metrics::{relative_improvement, TextTable};
use dike_util::{json_struct, Pool};
use dike_workloads::{paper, Workload};

/// One machine size in the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Memory controllers (NUMA domains).
    pub domains: u32,
    /// Total virtual cores.
    pub vcores: u32,
    /// Threads the workload spawns.
    pub threads: u32,
    /// One result per scheduler of [`SchedKind::comparison_set`], in order.
    pub cells: Vec<CellResult>,
}

json_struct!(ScalePoint {
    domains,
    vcores,
    threads,
    cells,
});

/// The sweep's machine sizes: the paper machine plus 4-, 8-, 16- and
/// 26-controller scale-ups (40 / 160 / 320 / 640 / 1040 vcores). The two
/// largest cells exist to demonstrate sub-quadratic growth of the
/// hierarchical selection + incremental contention-solve pipeline.
pub const SCALE_DOMAINS: [u32; 5] = [1, 4, 8, 16, 26];

/// The paper's WL1 mix replicated `k`×, plus one KMEANS background — sized
/// so a `k`-domain machine sees the paper machine's per-controller load.
pub fn scale_workload(k: usize) -> Workload {
    assert!(k >= 1, "need at least one mix replica");
    let mut apps = Vec::with_capacity(4 * k);
    for _ in 0..k {
        apps.extend(paper::TABLE2[0]);
    }
    Workload::with_kmeans(format!("WL1x{k}"), apps)
}

/// Machine configuration for `domains` controllers (1 = the paper machine,
/// byte-identical to [`presets::paper_machine`]).
pub fn scale_machine(domains: u32, seed: u64) -> MachineConfig {
    if domains == 1 {
        presets::paper_machine(seed)
    } else {
        presets::numa_machine(domains as usize, seed)
    }
}

/// Run the comparison set at explicit machine sizes on an explicit pool
/// (tests pin both).
pub fn run_scale_points_pool(domains: &[u32], opts: &RunOptions, pool: &Pool) -> Vec<ScalePoint> {
    let kinds = SchedKind::comparison_set();
    let machines: Vec<MachineConfig> = domains
        .iter()
        .map(|&d| scale_machine(d, opts.seed))
        .collect();
    let workloads: Vec<Workload> = domains
        .iter()
        .map(|&d| scale_workload(d as usize))
        .collect();
    let per = kinds.len();
    let results = pool.map_indexed(domains.len() * per, |task| {
        let (p, s) = (task / per, task % per);
        run_cell(&machines[p], &workloads[p], &kinds[s], opts)
    });
    let mut iter = results.into_iter();
    domains
        .iter()
        .zip(&machines)
        .zip(&workloads)
        .map(|((&d, m), w)| ScalePoint {
            domains: d,
            vcores: m.topology.num_vcores() as u32,
            threads: w.num_threads() as u32,
            cells: (0..per)
                .map(|_| iter.next().expect("cell present"))
                .collect(),
        })
        .collect()
}

/// Render the sweep: per machine size, each policy's fairness improvement
/// over the Linux baseline plus Dike's makespan.
pub fn render(points: &[ScalePoint]) -> TextTable {
    let kinds = SchedKind::comparison_set();
    let mut header = vec!["machine".to_string(), "threads".to_string()];
    for k in kinds.iter().skip(1) {
        header.push(format!("{} Δfairness", k.label()));
    }
    header.push("Dike makespan(s)".into());
    let mut t = TextTable::new(header);
    for p in points {
        let baseline = &p.cells[0];
        let mut row = vec![
            format!("{}dom/{}c", p.domains, p.vcores),
            p.threads.to_string(),
        ];
        for c in p.cells.iter().skip(1) {
            let d = relative_improvement(c.fairness, baseline.fairness);
            row.push(format!("{:+.1}%", d * 100.0));
        }
        let dike = p
            .cells
            .iter()
            .find(|c| c.scheduler == "Dike")
            .expect("Dike in comparison set");
        row.push(format!("{:.1}", dike.makespan_s));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_workloads_fit_their_machines() {
        for &d in &SCALE_DOMAINS {
            let m = scale_machine(d, 42);
            let w = scale_workload(d as usize);
            assert!(
                w.num_threads() <= m.topology.num_vcores(),
                "{}dom: {} threads > {} vcores",
                d,
                w.num_threads(),
                m.topology.num_vcores()
            );
            assert_eq!(m.topology.num_domains(), d as usize);
            assert_eq!(m.topology.num_vcores(), 40 * d as usize);
        }
        // The 1-domain point is the paper machine and workload scale.
        assert_eq!(scale_workload(1).num_threads(), 40);
        assert_eq!(scale_workload(8).num_threads(), 264);
        assert_eq!(scale_workload(16).num_threads(), 520);
        assert_eq!(scale_workload(26).num_threads(), 840);
    }

    #[test]
    fn small_scale_sweep_runs_the_comparison_set() {
        let opts = RunOptions {
            scale: 0.02,
            deadline_s: 60.0,
            ..RunOptions::default()
        };
        // 26 domains is the full-size machine: every policy of the
        // comparison set must drive 1,040 vcores to completion.
        let points = run_scale_points_pool(&[1, 2, 26], &opts, &Pool::new(2));
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].vcores, 40);
        assert_eq!(points[1].vcores, 80);
        assert_eq!(points[1].threads, 72);
        assert_eq!(points[2].vcores, 1040);
        assert_eq!(points[2].threads, 840);
        for p in &points {
            assert_eq!(p.cells.len(), SchedKind::comparison_set().len());
            for c in &p.cells {
                assert!(
                    c.completed,
                    "{}dom {} hit the deadline",
                    p.domains, c.scheduler
                );
                assert!(c.fairness > 0.0 && c.fairness <= 1.0);
            }
        }
        let t = render(&points);
        assert_eq!(t.len(), 3);
    }
}
