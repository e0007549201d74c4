//! The benchmark's four workloads: how each is set up from a seed, what
//! one timed lap calls, and what a traced lap records per layer.
//!
//! Each workload stresses a different layer, so that an optimisation of
//! one layer has a workload that exercises it and one that bypasses it:
//!
//! * `fleet_wide` — fleet routing (`dispatch` is O(events × machines))
//!   and per-machine fixed cost over 1024 machines;
//! * `failover_deep` — the same fleet layer through the epoch loop, with
//!   barriers, orphan re-dispatch and health-aware routing;
//! * `numa_closed` — no fleet code: one 1040-vcore machine, where the
//!   multi-domain engine path and the hierarchical selector dominate;
//! * `paper_fig6` — the paper's experiment: the 1-domain engine path,
//!   every baseline and the adaptive optimizer.

use crate::replay::{replay, EngineTime};
use crate::stats::nearest_rank;
use crate::trace::{Policy, TimedScheduler, Trace};
use dike_experiments::fig6::{self, Fig6};
use dike_experiments::{failover, fleet, scale, CellResult, PolicyHandle, RunOptions, SchedKind};
use dike_fleet::{dispatch, tenant_traces, FailoverConfig, FleetRunner};
use dike_machine::{Machine, MachineConfig, MachineFaultConfig, SimTime};
use dike_metrics::{mean, RuntimeMatrix};
use dike_sched_core::{run_with, Actions, Scheduler, SystemView};
use dike_scheduler::{Dike, SchedConfig};
use dike_util::{json, Pool, ToJson};
use dike_workloads::{paper, Workload};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1024-machine one-shot fleet.
    FleetWide,
    /// 64-machine fleet through the failover epoch loop.
    FailoverDeep,
    /// One 26-domain, 1040-vcore closed run.
    NumaClosed,
    /// Figure 6: WL1–16 × the comparison set on the paper machine.
    PaperFig6,
}

impl Kind {
    /// Every workload, in the order the README and `BENCHMARK.json` list.
    pub const ALL: [Kind; 4] = [
        Kind::FleetWide,
        Kind::FailoverDeep,
        Kind::NumaClosed,
        Kind::PaperFig6,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetWide => "fleet_wide",
            Kind::FailoverDeep => "failover_deep",
            Kind::NumaClosed => "numa_closed",
            Kind::PaperFig6 => "paper_fig6",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The harsh failover cell: the largest swept crash and brownout rates
/// with the full re-dispatch budget.
fn failover_cell() -> FailoverConfig {
    failover::cell_config(
        failover::FAILOVER_CRASH_RATES[failover::FAILOVER_CRASH_RATES.len() - 1],
        failover::FAILOVER_BROWNOUT_RATES[failover::FAILOVER_BROWNOUT_RATES.len() - 1],
        failover::FAILOVER_BUDGETS[failover::FAILOVER_BUDGETS.len() - 1],
        true,
    )
}

/// A workload's inputs, built from its seed before the first lap.
pub enum Prepared {
    /// A one-shot fleet and the threads its tenants offer.
    Fleet { runner: FleetRunner, offered: u64 },
    /// A fleet, its failover cell and the threads its tenants offer.
    Failover {
        runner: FleetRunner,
        fo: FailoverConfig,
        offered: u64,
    },
    /// One closed cell under default Dike.
    Closed {
        machine: Box<MachineConfig>,
        workload: Workload,
        opts: RunOptions,
    },
    /// The Figure 6 comparison over paper workloads `numbers` and their
    /// thread counts. `fig6::run_subset_pool` builds the machine and the
    /// workloads itself, so set-up does not.
    Fig6 {
        opts: RunOptions,
        numbers: Vec<usize>,
        threads: Vec<u64>,
    },
}

/// Build `kind`'s inputs for `seed`; `smoke` picks the small size.
pub fn prepare(kind: Kind, seed: u64, smoke: bool) -> Prepared {
    // Smoke sizes keep the closed workloads' simulated work small too.
    let opts = RunOptions {
        seed,
        scale: if smoke { 0.1 } else { 1.0 },
        ..RunOptions::default()
    };
    match kind {
        Kind::FleetWide => {
            let cfg = fleet::wide_quick_config(if smoke { 16 } else { 1024 }, seed);
            let offered = cfg.offered_threads() as u64;
            Prepared::Fleet {
                runner: FleetRunner::new(cfg),
                offered,
            }
        }
        Kind::FailoverDeep => {
            let cfg = if smoke {
                fleet::smoke_config(seed)
            } else {
                fleet::headline_config(seed)
            };
            let offered = cfg.offered_threads() as u64;
            Prepared::Failover {
                runner: FleetRunner::new(cfg),
                fo: failover_cell(),
                offered,
            }
        }
        Kind::NumaClosed => {
            let domains = if smoke { 2 } else { 26 };
            Prepared::Closed {
                machine: Box::new(scale::scale_machine(domains, seed)),
                workload: scale::scale_workload(domains as usize),
                opts,
            }
        }
        Kind::PaperFig6 => {
            let numbers: Vec<usize> = (1..=if smoke { 2 } else { 16 }).collect();
            Prepared::Fig6 {
                threads: numbers
                    .iter()
                    .map(|&n| paper::workload(n).num_threads() as u64)
                    .collect(),
                numbers,
                opts,
            }
        }
    }
}

/// What one lap produced, reduced to the benchmark's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a of the lap's result JSON.
    pub digest: u64,
    /// Simulated threads offered.
    pub attempted: u64,
    /// Offered threads lost or unfinished.
    pub failed: u64,
    /// Eqn-4 fairness as the workload defines it (see the README).
    pub fairness: f64,
    /// Mean simulated sojourn (closed: mean app runtime), seconds.
    pub sojourn_s: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Workload-specific simulated outputs reported beside the metrics:
    /// (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Named output-check failures.
    pub failures: Vec<String>,
}

/// The simulated outcomes every workload reports: (name, unit, lower is
/// better). They repeat exactly at a given seed but vary across seeds, so
/// `--compare` judges them seed by seed with no tolerance, rather than by
/// a bound on a median over seeds.
pub const SIM_METRICS: [(&str, &str, bool); 3] = [
    ("sim.unfairness", "1", true),
    ("sim.sojourn_s", "sim_s", true),
    ("sim.makespan_s", "sim_s", true),
];

impl Outcome {
    /// The [`SIM_METRICS`] values, in order. Unfairness (1 − Eqn-4
    /// fairness) stays positive where fleet fairness goes negative.
    pub fn sim_values(&self) -> [f64; 3] {
        [1.0 - self.fairness, self.sojourn_s, self.makespan_s]
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: ToJson>(result: &T) -> u64 {
    fnv1a(json::to_string(result).as_bytes())
}

fn check_finite(failures: &mut Vec<String>, what: &str, values: impl IntoIterator<Item = f64>) {
    if values.into_iter().any(|v| !v.is_finite()) {
        failures.push(format!("non-finite fairness in {what}"));
    }
}

fn fleet_outcome(r: &dike_fleet::FleetResult, offered: u64) -> Outcome {
    let mut failures = Vec::new();
    if r.total_arrivals != offered {
        failures.push(format!(
            "fleet arrivals {} != offered threads {offered}",
            r.total_arrivals
        ));
    }
    check_finite(
        &mut failures,
        "fleet windows",
        r.windows
            .iter()
            .map(|w| w.fairness)
            .chain([r.mean_windowed_fairness, r.min_windowed_fairness]),
    );
    Outcome {
        digest: digest(r),
        attempted: offered,
        failed: offered.saturating_sub(r.total_departures),
        fairness: r.mean_windowed_fairness,
        sojourn_s: r.mean_sojourn_s,
        makespan_s: r.makespan_s,
        extra: vec![("min_windowed_fairness", r.min_windowed_fairness, "1")],
        failures,
    }
}

fn failover_outcome(r: &dike_fleet::FailoverResult, offered: u64) -> Outcome {
    let mut failures = Vec::new();
    let l = &r.ledger;
    if l.dispatched != offered {
        failures.push(format!(
            "failover dispatched {} != offered threads {offered}",
            l.dispatched
        ));
    }
    if !l.holds() {
        failures.push(format!(
            "ledger broken: dispatched {} != drained {} + in_flight {} + lost {}",
            l.dispatched, l.drained, l.in_flight, l.lost
        ));
    }
    check_finite(
        &mut failures,
        "failover fleet",
        [r.mean_windowed_fairness, r.min_windowed_fairness],
    );
    Outcome {
        digest: digest(r),
        attempted: offered,
        failed: l.lost + l.in_flight,
        fairness: r.mean_windowed_fairness,
        sojourn_s: r.mean_sojourn_s,
        makespan_s: r.makespan_s,
        extra: vec![
            ("min_windowed_fairness", r.min_windowed_fairness, "1"),
            ("lost", l.lost as f64, "count"),
        ],
        failures,
    }
}

fn cell_outcome(c: &CellResult, threads: u64) -> Outcome {
    let mut failures = Vec::new();
    check_finite(&mut failures, "closed cell", [c.fairness]);
    Outcome {
        digest: digest(c),
        attempted: threads,
        failed: if c.completed { 0 } else { threads },
        fairness: c.fairness,
        sojourn_s: c.mean_app_runtime_s,
        makespan_s: c.makespan_s,
        extra: vec![("swaps", c.swaps as f64, "count")],
        failures,
    }
}

fn fig6_outcome(f: &Fig6, threads_per_cell: &[u64]) -> Outcome {
    let mut failures = Vec::new();
    check_finite(
        &mut failures,
        "Figure 6",
        f.rows.iter().flatten().map(|c| c.fairness),
    );
    let dike = f
        .schedulers
        .iter()
        .position(|s| s == "Dike")
        .expect("Dike is in the comparison set");
    let dio = f
        .schedulers
        .iter()
        .position(|s| s == "DIO")
        .expect("DIO is in the comparison set");
    let gains = Fig6::column_means(&f.fairness_improvements());
    let dike_cells: Vec<&CellResult> = f.rows.iter().map(|row| &row[dike]).collect();
    let over = |field: fn(&CellResult) -> f64| {
        mean(&dike_cells.iter().map(|c| field(c)).collect::<Vec<_>>())
    };
    let mut attempted = 0;
    let mut failed = 0;
    for (row, &threads) in f.rows.iter().zip(threads_per_cell) {
        attempted += threads * row.len() as u64;
        failed += threads * row.iter().filter(|c| !c.completed).count() as u64;
    }
    Outcome {
        digest: digest(f),
        attempted,
        failed,
        fairness: over(|c| c.fairness),
        sojourn_s: over(|c| c.mean_app_runtime_s),
        makespan_s: over(|c| c.makespan_s),
        extra: vec![
            ("dike_gain_over_cfs", gains[dike], "1"),
            ("dio_gain_over_cfs", gains[dio], "1"),
        ],
        failures,
    }
}

/// One timed lap: a single call into the workload's public entry point.
pub fn lap(p: &Prepared, pool: &Pool) -> Outcome {
    match p {
        Prepared::Fleet { runner, offered } => fleet_outcome(&runner.run(pool), *offered),
        Prepared::Failover {
            runner,
            fo,
            offered,
        } => failover_outcome(&runner.run_failover(pool, fo), *offered),
        Prepared::Closed {
            machine,
            workload,
            opts,
        } => cell_outcome(
            &dike_experiments::run_cell(
                machine,
                workload,
                &SchedKind::Dike(SchedConfig::DEFAULT),
                opts,
            ),
            workload.num_threads() as u64,
        ),
        Prepared::Fig6 {
            opts,
            numbers,
            threads,
            ..
        } => fig6_outcome(&fig6::run_subset_pool(opts, numbers, pool), threads),
    }
}

/// Every per-layer metric, with its unit, in report order. A traced lap
/// reports each of them; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 29] = [
    ("workloads.traces_s", "s"),
    ("fleet.dispatch_s", "s"),
    ("fleet.dispatch_ns_per_event_machine", "ns"),
    ("fleet.events", "count"),
    ("fleet.machine_s", "s"),
    ("fleet.machine_p50_ms", "ms"),
    ("fleet.machine_p99_ms", "ms"),
    ("fleet.rollup_s", "s"),
    ("fleet.epoch_loop_overhead_s", "s"),
    ("fleet.epochs", "count"),
    ("fleet.orphaned", "count"),
    ("fleet.redispatched", "count"),
    ("fleet.redispatch_ratio", "ratio"),
    ("fleet.quarantines", "count"),
    ("fleet.readmissions", "count"),
    ("policy.decide_s", "s"),
    ("policy.decide_calls", "count"),
    ("policy.decide_p50_us", "us"),
    ("policy.decide_p99_us", "us"),
    ("dike.swaps", "count"),
    ("dike.pairs_proposed", "count"),
    ("dike.accept_ratio", "ratio"),
    ("dike.fair_quanta_ratio", "ratio"),
    ("machine.engine_s", "s"),
    ("machine.engine_ns_per_vcore_tick", "ns"),
    ("machine.quanta", "count"),
    ("sched_core.driver_s", "s"),
    ("sched_core.driver_share", "ratio"),
    ("trace.lap_s", "s"),
];

/// One traced lap's per-layer values, by [`LAYER_METRICS`] name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.0.push((name, value));
    }

    /// The value recorded for `name`, or 0 for an unexercised layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Summed statistics of every Dike pipeline in a lap.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DikeTotals {
    quanta: u64,
    fair_quanta: u64,
    pairs_proposed: u64,
    swaps: u64,
}

impl DikeTotals {
    fn add(&mut self, d: &Dike) {
        let s = d.stats();
        self.quanta += s.quanta;
        self.fair_quanta += s.fair_quanta;
        self.pairs_proposed += s.pairs_proposed;
        self.swaps += s.swaps;
    }
}

/// Decide-step and policy statistics gathered across a lap.
#[derive(Debug, Default)]
struct PolicyTotals {
    decide_ns: Vec<u64>,
    dike: DikeTotals,
}

impl PolicyTotals {
    fn add<P: Policy>(&mut self, timed: &TimedScheduler<P>) {
        self.decide_ns.extend_from_slice(timed.decide_ns());
        if let Some(d) = timed.inner().dike() {
            self.dike.add(d);
        }
    }

    fn decide_s(&self) -> f64 {
        self.decide_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    fn report(&self, layers: &mut Layers) {
        let mut us: Vec<f64> = self.decide_ns.iter().map(|&n| n as f64 * 1e-3).collect();
        us.sort_by(f64::total_cmp);
        layers.set("policy.decide_s", self.decide_s());
        layers.set("policy.decide_calls", self.decide_ns.len() as f64);
        layers.set("policy.decide_p50_us", nearest_rank(&us, 0.5));
        layers.set("policy.decide_p99_us", nearest_rank(&us, 0.99));
        let d = self.dike;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        layers.set("dike.swaps", d.swaps as f64);
        layers.set("dike.pairs_proposed", d.pairs_proposed as f64);
        layers.set("dike.accept_ratio", ratio(d.swaps, d.pairs_proposed));
        layers.set("dike.fair_quanta_ratio", ratio(d.fair_quanta, d.quanta));
    }
}

/// What the per-machine policy wrappers of one fleet run hand back.
#[derive(Debug, Default)]
struct FleetSink {
    /// (start, end) of each machine: from `make(i)` to the wrapper's drop.
    machines: Vec<(Instant, Instant)>,
    policy: PolicyTotals,
}

/// The per-machine policy of a traced fleet run: default Dike behind a
/// [`TimedScheduler`], reporting to a shared sink when the fleet drops it.
struct MachineProbe {
    timed: TimedScheduler<Dike>,
    made: Instant,
    sink: Arc<Mutex<FleetSink>>,
}

impl MachineProbe {
    fn new(sink: &Arc<Mutex<FleetSink>>) -> Self {
        MachineProbe {
            timed: TimedScheduler::new(Dike::fixed(SchedConfig::DEFAULT)),
            made: Instant::now(),
            sink: Arc::clone(sink),
        }
    }
}

impl Scheduler for MachineProbe {
    fn name(&self) -> &str {
        self.timed.name()
    }

    fn initial_quantum(&self) -> SimTime {
        self.timed.initial_quantum()
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        self.timed.on_quantum(view, actions);
    }
}

impl Drop for MachineProbe {
    fn drop(&mut self) {
        let end = Instant::now();
        // A poisoned sink means a panic is already unwinding; drop quietly.
        if let Ok(mut sink) = self.sink.lock() {
            sink.machines.push((self.made, end));
            sink.policy.add(&self.timed);
        }
    }
}

fn take_sink(sink: Arc<Mutex<FleetSink>>) -> FleetSink {
    Arc::try_unwrap(sink)
        .map_err(|_| "every machine probe is dropped by the end of the run")
        .and_then(|m| m.into_inner().map_err(|_| "sink poisoned"))
        .expect("fleet sink")
}

/// [`FleetRunner::run`] with every machine's policy timed.
fn run_fleet_traced(runner: &FleetRunner, pool: &Pool) -> (dike_fleet::FleetResult, FleetSink) {
    let sink = Arc::new(Mutex::new(FleetSink::default()));
    let result = runner.run_with(pool, "dike", |_| Box::new(MachineProbe::new(&sink)));
    (result, take_sink(sink))
}

/// [`FleetRunner::run_failover`] with every machine's policy timed.
fn run_failover_traced(
    runner: &FleetRunner,
    pool: &Pool,
    fo: &FailoverConfig,
) -> (dike_fleet::FailoverResult, FleetSink) {
    let sink = Arc::new(Mutex::new(FleetSink::default()));
    let result = runner.run_failover_with(pool, fo, "dike", |_| Box::new(MachineProbe::new(&sink)));
    (result, take_sink(sink))
}

/// One traced closed cell, with its engine replay.
struct TracedCell {
    result: CellResult,
    /// Host seconds in `run_with`.
    run_s: f64,
    /// The replay's engine time, or how it diverged from the run.
    replayed: Result<EngineTime, String>,
}

/// Run one closed cell as [`dike_experiments::run_cell`] does, with the
/// policy timed and its actions logged, then replay it on a fresh machine
/// straight away, so run and replay see the same host speed. The cell's
/// span and the replay's are children of `lap`.
fn traced_cell(
    machine_cfg: &MachineConfig,
    workload: &Workload,
    kind: &SchedKind,
    opts: &RunOptions,
    trace: &mut Trace,
    lap: usize,
    policy: &mut PolicyTotals,
) -> TracedCell {
    // Mirrors `run_cell_with`; the digest check against an untraced lap
    // shows the two agree.
    let cell_start = Instant::now();
    let mut cfg = machine_cfg.clone();
    cfg.seed = opts.seed;
    let mut machine = Machine::new(cfg.clone());
    let spawned = workload.spawn(&mut machine, opts.placement, opts.scale);
    let deadline = SimTime::from_secs_f64(opts.deadline_s);
    let mut timed = TimedScheduler::logging(PolicyHandle::build(kind, &machine.config().llc));
    let initial = timed.initial_quantum();
    let run_start = Instant::now();
    let driven = run_with(&mut machine, &mut timed, deadline, |_| {});
    let run_end = Instant::now();

    let per_app: Vec<Vec<f64>> = spawned
        .benchmark_apps()
        .iter()
        .map(|a| driven.app_runtimes(a.0))
        .collect();
    let matrix = RuntimeMatrix::new(per_app);
    let dike = timed.inner().dike();
    let (prediction_errors, prediction_trace) = dike
        .map(|d| (d.predictor().error_values(), d.predictor().error_trace()))
        .unwrap_or_default();
    let stats = dike.map(|d| d.stats()).unwrap_or_default();
    let result = CellResult {
        workload: workload.name.clone(),
        scheduler: kind.label(),
        fairness: matrix.fairness(),
        mean_app_runtime_s: matrix.mean_app_runtime(),
        makespan_s: driven.wall.as_secs_f64(),
        swaps: driven.swaps,
        quanta: driven.quanta,
        completed: driven.completed,
        prediction_errors,
        fair_quanta: stats.fair_quanta,
        pairs_proposed: stats.pairs_proposed,
        rejected_profit: stats.rejected_profit,
        rejected_cooldown: stats.rejected_cooldown,
        prediction_trace,
    };
    policy.add(&timed);
    let cell = trace.record(
        "experiments.run_cell",
        Some(lap),
        cell_start,
        Instant::now(),
    );
    trace.record("sched_core.run_with", Some(cell), run_start, run_end);

    let (replayed, _) = trace.time("machine.replay", Some(lap), |_, _| {
        let mut fresh = Machine::new(cfg);
        workload.spawn(&mut fresh, opts.placement, opts.scale);
        replay(&mut fresh, initial, deadline, timed.log(), &driven)
    });
    TracedCell {
        result,
        run_s: (run_end - run_start).as_secs_f64(),
        replayed,
    }
}

/// Traced closed cells: every `(workload, kinds)` row, each cell followed
/// by its engine replay. Returns the rows and the first replay failure.
fn traced_closed(
    machine: &MachineConfig,
    tasks: &[(&Workload, &[SchedKind])],
    opts: &RunOptions,
    trace: &mut Trace,
    layers: &mut Layers,
) -> (Vec<Vec<CellResult>>, Result<(), String>) {
    let mut policy = PolicyTotals::default();
    let mut engine = EngineTime::default();
    let mut run_s = 0.0;
    let mut outcome = Ok(());
    let (rows, lap) = trace.time("experiments.cells", None, |trace, lap| {
        let mut rows = Vec::with_capacity(tasks.len());
        for (workload, kinds) in tasks {
            let mut row = Vec::with_capacity(kinds.len());
            for kind in *kinds {
                let cell = traced_cell(machine, workload, kind, opts, trace, lap, &mut policy);
                run_s += cell.run_s;
                match cell.replayed {
                    Ok(e) => engine += e,
                    Err(f) if outcome.is_ok() => outcome = Err(f),
                    Err(_) => {}
                }
                row.push(cell.result);
            }
            rows.push(row);
        }
        rows
    });
    let engine_s = engine.engine.as_secs_f64();
    let driver_s = run_s - engine_s - policy.decide_s();
    layers.set("machine.engine_s", engine_s);
    layers.set(
        "machine.engine_ns_per_vcore_tick",
        engine_s * 1e9 / engine.vcore_ticks.max(1) as f64,
    );
    layers.set("machine.quanta", engine.quanta as f64);
    layers.set("sched_core.driver_s", driver_s);
    layers.set("sched_core.driver_share", driver_s / run_s);
    policy.report(layers);
    // The traced lap is the cells themselves, without their replays.
    let cells_s: f64 = trace
        .durations("experiments.run_cell", Some(lap))
        .iter()
        .sum();
    layers.set("trace.lap_s", cells_s);
    (rows, outcome)
}

/// One traced lap: the lap's outcome and its per-layer values. Spans go
/// to `trace`; a failed engine replay is a named output-check failure.
pub fn traced_lap(kind: Kind, p: &Prepared, pool: &Pool, trace: &mut Trace) -> (Outcome, Layers) {
    let mut layers = Layers::default();
    let (mut outcome, replayed) = match p {
        Prepared::Fleet { runner, offered } => {
            let cfg = runner.config();
            let (traces, traces_id) =
                trace.time("workloads.tenant_traces", None, |_, _| tenant_traces(cfg));
            // The plan is freed outside the span: `run_with` moves its
            // spawns into the machines rather than dropping them there.
            let (plan, dispatch_id) =
                trace.time("fleet.dispatch", None, |_, _| dispatch(cfg, &traces));
            let events = plan.merged.len();
            drop(plan);
            drop(traces);
            let ((result, sink), lap_id) = trace.time("fleet.run_with", None, |_, _| {
                run_fleet_traced(runner, pool)
            });
            for &(start, end) in &sink.machines {
                trace.record("fleet.machine", Some(lap_id), start, end);
            }
            let traces_s = trace.span(traces_id).secs();
            let dispatch_s = trace.span(dispatch_id).secs();
            let lap_s = trace.span(lap_id).secs();
            let mut machine_ms: Vec<f64> = trace
                .durations("fleet.machine", Some(lap_id))
                .iter()
                .map(|s| s * 1e3)
                .collect();
            machine_ms.sort_by(f64::total_cmp);
            let machine_s = machine_ms.iter().sum::<f64>() * 1e-3;
            let m = cfg.machines.len() as f64;
            layers.set("workloads.traces_s", traces_s);
            layers.set("fleet.dispatch_s", dispatch_s);
            layers.set(
                "fleet.dispatch_ns_per_event_machine",
                dispatch_s * 1e9 / (events as f64 * m).max(1.0),
            );
            layers.set("fleet.events", events as f64);
            layers.set("fleet.machine_s", machine_s);
            layers.set("fleet.machine_p50_ms", nearest_rank(&machine_ms, 0.5));
            layers.set("fleet.machine_p99_ms", nearest_rank(&machine_ms, 0.99));
            // `run_with` repeats the traces and dispatch timed above.
            layers.set("fleet.rollup_s", lap_s - traces_s - dispatch_s - machine_s);
            sink.policy.report(&mut layers);
            layers.set("trace.lap_s", lap_s);
            (fleet_outcome(&result, *offered), Ok(()))
        }
        Prepared::Failover {
            runner,
            fo,
            offered,
        } => {
            let cfg = runner.config();
            let (_, traces_id) =
                trace.time("workloads.tenant_traces", None, |_, _| tenant_traces(cfg));
            let ((result, sink), lap_id) = trace.time("fleet.run_failover_with", None, |_, _| {
                run_failover_traced(runner, pool, fo)
            });
            // The epoch loop's own cost: the same fleet with no faults,
            // epoch by epoch, against the one-shot run.
            let zero_fault = FailoverConfig {
                faults: MachineFaultConfig::default(),
                ..*fo
            };
            let (_, epochs_id) = trace.time("fleet.run_failover", None, |_, _| {
                runner.run_failover(pool, &zero_fault)
            });
            let (_, oneshot_id) = trace.time("fleet.run", None, |_, _| runner.run(pool));
            let ratio = if result.orphaned == 0 {
                0.0
            } else {
                result.redispatched as f64 / result.orphaned as f64
            };
            layers.set("workloads.traces_s", trace.span(traces_id).secs());
            layers.set(
                "fleet.epoch_loop_overhead_s",
                trace.span(epochs_id).secs() - trace.span(oneshot_id).secs(),
            );
            layers.set("fleet.epochs", result.epochs as f64);
            layers.set("fleet.orphaned", result.orphaned as f64);
            layers.set("fleet.redispatched", result.redispatched as f64);
            layers.set("fleet.redispatch_ratio", ratio);
            layers.set("fleet.quarantines", result.quarantines as f64);
            layers.set("fleet.readmissions", result.readmissions as f64);
            sink.policy.report(&mut layers);
            layers.set("trace.lap_s", trace.span(lap_id).secs());
            (failover_outcome(&result, *offered), Ok(()))
        }
        Prepared::Closed {
            machine,
            workload,
            opts,
        } => {
            let kinds = [SchedKind::Dike(SchedConfig::DEFAULT)];
            let (rows, replayed) =
                traced_closed(machine, &[(workload, &kinds)], opts, trace, &mut layers);
            let threads = workload.num_threads() as u64;
            (cell_outcome(&rows[0][0], threads), replayed)
        }
        Prepared::Fig6 {
            opts,
            numbers,
            threads,
        } => {
            // `fig6::run_subset_pool`'s machine and cells, in its order.
            let machine = dike_machine::presets::paper_machine(opts.seed);
            let workloads: Vec<Workload> = numbers.iter().map(|&n| paper::workload(n)).collect();
            let kinds = SchedKind::comparison_set();
            let tasks: Vec<(&Workload, &[SchedKind])> =
                workloads.iter().map(|w| (w, kinds.as_slice())).collect();
            let (rows, replayed) = traced_closed(&machine, &tasks, opts, trace, &mut layers);
            let fig = Fig6 {
                schedulers: kinds.iter().map(SchedKind::label).collect(),
                rows,
            };
            (fig6_outcome(&fig, threads), replayed)
        }
    };
    if let Err(f) = replayed {
        outcome
            .failures
            .push(format!("engine replay diverged on {}: {f}", kind.name()));
    }
    (outcome, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_fleet_run_equals_the_untraced_run() {
        let runner = FleetRunner::new(fleet::smoke_config(3));
        let pool = Pool::new(1);
        let (traced, sink) = run_fleet_traced(&runner, &pool);
        assert_eq!(traced, runner.run(&pool));
        assert_eq!(sink.machines.len(), runner.config().machines.len());
        assert!(!sink.policy.decide_ns.is_empty());
    }

    #[test]
    fn traced_failover_run_equals_the_untraced_run() {
        let runner = FleetRunner::new(fleet::smoke_config(3));
        let pool = Pool::new(1);
        let fo = failover_cell();
        let (traced, sink) = run_failover_traced(&runner, &pool, &fo);
        let plain = runner.run_failover(&pool, &fo);
        assert!(plain.quarantines > 0, "the harsh cell must fault");
        assert_eq!(traced, plain);
        assert!(sink.policy.dike.quanta > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
