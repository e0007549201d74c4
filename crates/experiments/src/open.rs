//! Open-system experiment: the comparison policies under mid-run arrivals
//! and departures.
//!
//! The paper evaluates closed workloads — every thread exists at time
//! zero and the run ends when the last finishes. Real consolidated
//! servers are open: applications arrive, run, and leave while others are
//! mid-flight. This experiment subjects the comparison set (plus the null
//! scheduler, the do-nothing floor) to WL1-derived Poisson arrival traces
//! at three offered-load levels and scores each policy by the open-system
//! analogues of the paper's metrics: *mean sojourn time* (completion −
//! arrival, the performance headline) and *windowed fairness* (Eqn 4 over
//! each sliding window's departures — see [`dike_metrics::windowed`]).
//!
//! The `(load level × scheduler)` cells are flattened into one task list
//! over the [`dike_util::pool`] workers and reassembled in input order, so
//! output is byte-identical to a serial run — the same contract as every
//! other experiment in this crate.

use crate::roster::PolicyHandle;
use crate::runner::{RunOptions, SchedKind};
use dike_machine::{presets, Machine, MachineConfig, SimTime};
use dike_metrics::{mean_sojourn, window_series, TextTable, ThreadSpan, WindowPoint};
use dike_sched_core::{drive, RunResult, TimedSpawn};
use dike_scheduler::SchedConfig;
use dike_util::{json_struct, Pool};
use dike_workloads::{paper, ArrivalConfig, ArrivalTrace};

/// Offered-load levels: mean inter-arrival time in milliseconds, from
/// light (one app every 4 s) to heavy (one every second).
pub const LOAD_LEVELS_MS: [f64; 3] = [4000.0, 2000.0, 1000.0];

/// Arrivals stop after this horizon; each run continues until the last
/// admitted thread departs (or the deadline cuts it off).
pub const HORIZON_MS: u64 = 30_000;

/// The open-system comparison set: Dike against the CFS/DIO/random
/// baselines and the null-scheduler floor.
pub fn open_comparison_set() -> Vec<SchedKind> {
    vec![
        SchedKind::Null,
        SchedKind::Cfs,
        SchedKind::Dio,
        SchedKind::Random(1),
        SchedKind::Dike(SchedConfig::DEFAULT),
    ]
}

/// One `(arrival trace × scheduler)` cell of the open experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenPoint {
    /// Arrival-trace name.
    pub trace: String,
    /// The trace's mean inter-arrival time (the load knob).
    pub mean_interarrival_ms: f64,
    /// Scheduler label.
    pub scheduler: String,
    /// Threads that arrived over the run.
    pub arrivals: u64,
    /// Threads that departed before the deadline.
    pub departures: u64,
    /// Whether every arrived thread departed before the deadline.
    pub completed: bool,
    /// Time the last departure (or the deadline) was reached.
    pub makespan_s: f64,
    /// Mean sojourn time; unfinished threads charged up to the wall.
    pub mean_sojourn_s: f64,
    /// Mean of the per-window fairness scores.
    pub mean_windowed_fairness: f64,
    /// Worst window — the transient a whole-run scalar would hide.
    pub min_windowed_fairness: f64,
    /// The full fairness-over-time series.
    pub windows: Vec<WindowPoint>,
}

json_struct!(OpenPoint {
    trace,
    mean_interarrival_ms,
    scheduler,
    arrivals,
    departures,
    completed,
    makespan_s,
    mean_sojourn_s,
    mean_windowed_fairness,
    min_windowed_fairness,
    windows,
});

/// The WL1-derived arrival trace for one load level: apps drawn uniformly
/// from WL1's benchmark mix, 2–4 threads per arrival, horizon
/// [`HORIZON_MS`]. Deterministic in `(mean_ms, seed)`.
pub fn wl1_trace(mean_ms: f64, seed: u64) -> ArrivalTrace {
    let apps = paper::workload(1).apps;
    let cfg = ArrivalConfig {
        mean_interarrival_ms: mean_ms,
        horizon_ms: HORIZON_MS,
        threads_min: 2,
        threads_max: 4,
    };
    // Offset the stream per load level so traces differ in more than rate.
    let stream = seed.wrapping_add(mean_ms as u64);
    ArrivalTrace::poisson(
        format!("WL1-open-{}ms", mean_ms as u64),
        &apps,
        &cfg,
        stream,
    )
}

/// Every thread's lifetime in `result`, in seconds, tagged with its app.
pub(crate) fn spans_of(result: &RunResult) -> Vec<ThreadSpan> {
    result
        .threads
        .iter()
        .map(|t| ThreadSpan {
            app: t.app,
            spawned_at: t.spawned_at.as_secs_f64(),
            finished_at: t.finished_at.map(|f| f.as_secs_f64()),
        })
        .collect()
}

/// Run one open cell: inject the trace into an initially empty machine
/// and reduce the per-thread lifetimes to the open-system metrics.
pub fn run_open_cell(
    machine_cfg: &MachineConfig,
    trace: &ArrivalTrace,
    kind: &SchedKind,
    opts: &RunOptions,
) -> OpenPoint {
    let mut cfg = machine_cfg.clone();
    cfg.seed = opts.seed;
    let mut machine = Machine::new(cfg);
    let plan: Vec<TimedSpawn> = trace
        .spawn_plan(opts.scale)
        .into_iter()
        .map(|(at, spec, threads)| TimedSpawn { at, spec, threads })
        .collect();
    let deadline = SimTime::from_secs_f64(opts.deadline_s);
    let mut policy = PolicyHandle::build(kind, &machine.config().llc);
    let sched = policy.as_scheduler();
    let (totals, _) = drive(&mut machine, sched, deadline, plan, |_| {});
    let result = RunResult::collect(sched.name(), totals, &machine);

    let wall = result.wall.as_secs_f64();
    let spans = spans_of(&result);
    let (windows, mean_fair, min_fair) = window_series(&spans, wall);

    OpenPoint {
        trace: trace.name.clone(),
        mean_interarrival_ms: trace_mean_ms(&trace.name),
        scheduler: kind.label(),
        arrivals: spans.len() as u64,
        departures: spans.iter().filter(|s| s.finished_at.is_some()).count() as u64,
        completed: result.completed,
        makespan_s: wall,
        mean_sojourn_s: mean_sojourn(&spans, wall),
        mean_windowed_fairness: mean_fair,
        min_windowed_fairness: min_fair,
        windows,
    }
}

/// Recover the load knob from the trace name (`WL1-open-<ms>ms`); 0 for
/// hand-written traces.
fn trace_mean_ms(name: &str) -> f64 {
    name.strip_prefix("WL1-open-")
        .and_then(|s| s.strip_suffix("ms"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// Run the open comparison set at explicit load levels on an explicit
/// pool (tests pin both). Cells are fanned out in `(level, scheduler)`
/// order and reassembled in input order — byte-identical at any worker
/// count.
pub fn run_open_points_pool(levels_ms: &[f64], opts: &RunOptions, pool: &Pool) -> Vec<OpenPoint> {
    let kinds = open_comparison_set();
    let traces: Vec<ArrivalTrace> = levels_ms.iter().map(|&m| wl1_trace(m, opts.seed)).collect();
    let machine = presets::paper_machine(opts.seed);
    let per = kinds.len();
    pool.map_indexed(traces.len() * per, |task| {
        let (t, s) = (task / per, task % per);
        run_open_cell(&machine, &traces[t], &kinds[s], opts)
    })
}

/// Render the experiment: per load level, each policy's sojourn and
/// fairness-over-time summary.
pub fn render(points: &[OpenPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "trace".to_string(),
        "scheduler".to_string(),
        "arrivals".to_string(),
        "sojourn(s)".to_string(),
        "fair(mean)".to_string(),
        "fair(min)".to_string(),
        "makespan(s)".to_string(),
    ]);
    for p in points {
        t.row(vec![
            p.trace.clone(),
            p.scheduler.clone(),
            p.arrivals.to_string(),
            format!("{:.2}", p.mean_sojourn_s),
            format!("{:.3}", p.mean_windowed_fairness),
            format!("{:.3}", p.min_windowed_fairness),
            format!("{:.1}", p.makespan_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> RunOptions {
        RunOptions {
            scale: 0.02,
            deadline_s: 120.0,
            ..RunOptions::default()
        }
    }

    #[test]
    fn open_experiment_reports_all_cells_in_order() {
        let opts = small_opts();
        let points = run_open_points_pool(&[2000.0], &opts, &Pool::new(2));
        assert_eq!(points.len(), open_comparison_set().len());
        let labels: Vec<&str> = points.iter().map(|p| p.scheduler.as_str()).collect();
        assert_eq!(labels, vec!["Null", "Linux-CFS", "DIO", "Random", "Dike"]);
        for p in &points {
            assert!(p.arrivals > 0, "{}: no arrivals", p.scheduler);
            assert!(p.completed, "{}: hit the deadline", p.scheduler);
            assert_eq!(p.departures, p.arrivals);
            assert!(p.mean_sojourn_s > 0.0);
            assert!(p.min_windowed_fairness <= p.mean_windowed_fairness);
            assert!(p.mean_windowed_fairness <= 1.0);
            assert!(!p.windows.is_empty());
        }
    }

    #[test]
    fn higher_load_means_more_arrivals() {
        let a = wl1_trace(4000.0, 42);
        let b = wl1_trace(1000.0, 42);
        assert!(b.num_threads() > a.num_threads());
        // The trace is named for its load, which `OpenPoint::trace` reports.
        assert_eq!(b.name, "WL1-open-1000ms");
    }

    /// Churn with unreliable actuation: mid-run arrivals/departures at a
    /// 10% migration-failure rate (plus delayed migrations that land
    /// several quanta late, possibly after their thread finished). No
    /// panics, no dropped threads, and the run drains completely.
    #[test]
    fn churn_survives_a_10pct_migration_failure_rate() {
        let opts = RunOptions {
            scale: 0.01,
            deadline_s: 240.0,
            ..RunOptions::default()
        };
        let cfg = ArrivalConfig {
            mean_interarrival_ms: 400.0,
            horizon_ms: 20_000,
            threads_min: 1,
            threads_max: 2,
        };
        let apps = paper::workload(1).apps;
        let trace = ArrivalTrace::poisson("churn-faulty", &apps, &cfg, 11);
        let mut machine_cfg = presets::paper_machine(opts.seed);
        machine_cfg.faults = dike_machine::FaultConfig::actuation_axis(0.10, opts.seed);
        for kind in [
            SchedKind::Dio,
            SchedKind::Dike(SchedConfig::DEFAULT),
            SchedKind::DikeHardened,
        ] {
            let p = run_open_cell(&machine_cfg, &trace, &kind, &opts);
            assert_eq!(
                p.arrivals,
                trace.num_threads() as u64,
                "{}: dropped arrivals",
                p.scheduler
            );
            assert!(
                p.completed,
                "{}: churn under faulty actuation hit the deadline",
                p.scheduler
            );
            assert_eq!(p.departures, p.arrivals, "{}", p.scheduler);
        }
    }

    /// The ISSUE's churn stress: every policy survives hundreds of
    /// lifecycle events — no panics, no stale ThreadIds (a stale id would
    /// panic inside the machine), and the run drains completely.
    #[test]
    fn churn_stress_every_policy_survives_hundreds_of_lifecycle_events() {
        let opts = RunOptions {
            scale: 0.01,
            deadline_s: 240.0,
            ..RunOptions::default()
        };
        let cfg = ArrivalConfig {
            mean_interarrival_ms: 200.0,
            horizon_ms: 30_000,
            threads_min: 1,
            threads_max: 2,
        };
        let apps = paper::workload(1).apps;
        let trace = ArrivalTrace::poisson("churn", &apps, &cfg, 7);
        assert!(
            trace.num_threads() >= 100,
            "want >= 100 threads (200 lifecycle events), got {}",
            trace.num_threads()
        );
        let machine = presets::paper_machine(opts.seed);
        let mut kinds = open_comparison_set();
        kinds.push(SchedKind::DikeAf);
        kinds.push(SchedKind::DikeAp);
        for kind in &kinds {
            let p = run_open_cell(&machine, &trace, kind, &opts);
            assert_eq!(
                p.arrivals,
                trace.num_threads() as u64,
                "{}: dropped arrivals",
                p.scheduler
            );
            assert!(p.completed, "{}: churn run hit the deadline", p.scheduler);
            assert_eq!(p.departures, p.arrivals, "{}", p.scheduler);
        }
    }
}
