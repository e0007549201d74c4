//! Fan a dispatched fleet across pool workers and roll the results up.
//!
//! Each machine's open-system run is completely independent after the
//! dispatch pre-pass (see [`crate::dispatch`]), so the fleet fans out
//! over [`dike_util::Pool`]'s workers with `map_indexed` — results come
//! back in machine order regardless of worker count, which is what makes
//! the fleet JSON byte-identical at `DIKE_THREADS=1`, `2`, or `8`. The
//! roll-up then re-tags every thread span with its owning *tenant* (the
//! dispatcher records the event→tenant map) and scores fleet-wide
//! windowed fairness over the merged span set, exactly the way a single
//! machine's open run scores its own.
//!
//! [`crate::dispatch`]: mod@crate::dispatch

use crate::config::FleetConfig;
use crate::dispatch::{dispatch, home_machine, tenant_traces, DispatchPlan};
use dike_machine::{Machine, SimTime};
use dike_metrics::{
    fairness_summary, mean_sojourn, merge_spans, sojourn_by_app, windowed_fairness, ThreadSpan,
    WindowPoint,
};
use dike_sched_core::{run_open_pooled, Scheduler, TimedSpawn};
use dike_scheduler::{Dike, SchedConfig};
use dike_util::{json_struct, Pool};
use std::sync::Mutex;

/// Sliding-window length for fleet fairness, in seconds (matches the
/// single-machine open experiment).
pub const WINDOW_S: f64 = 5.0;

/// Window step, in seconds.
pub const WINDOW_STEP_S: f64 = 2.5;

/// One machine's contribution to a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Machine index in the fleet.
    pub machine: u32,
    /// Threads dispatched to this machine.
    pub arrivals: u64,
    /// Threads that departed before the deadline.
    pub departures: u64,
    /// Whether every dispatched thread departed in time.
    pub completed: bool,
    /// Time of the machine's last departure (or the deadline).
    pub makespan_s: f64,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Migrations applied by the policy.
    pub migrations: u64,
}

/// One tenant's fleet-wide roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Tenant index.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// The tenant's home machine under the dispatch hash.
    pub home: u32,
    /// Threads the tenant offered.
    pub arrivals: u64,
    /// Threads that departed.
    pub departures: u64,
    /// Mean sojourn across the tenant's threads, unfinished charged to
    /// the fleet wall.
    pub mean_sojourn_s: f64,
}

/// A whole fleet run, rolled up.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Scheduler label (every machine runs the same policy).
    pub scheduler: String,
    /// Per-machine summaries, in machine order.
    pub machines: Vec<MachineSummary>,
    /// Per-tenant roll-ups, in tenant order.
    pub tenants: Vec<TenantPoint>,
    /// Fleet-wide fairness-over-time series (Eqn 4 per window over the
    /// merged span set, grouped by tenant).
    pub windows: Vec<WindowPoint>,
    /// Mean of the per-window fleet fairness scores.
    pub mean_windowed_fairness: f64,
    /// Worst window.
    pub min_windowed_fairness: f64,
    /// Total threads dispatched across the fleet.
    pub total_arrivals: u64,
    /// Total departures.
    pub total_departures: u64,
    /// Whether every machine drained before its deadline.
    pub completed: bool,
    /// Latest machine makespan — the fleet wall clock.
    pub makespan_s: f64,
    /// Mean sojourn over every thread in the fleet.
    pub mean_sojourn_s: f64,
}

json_struct!(MachineSummary {
    machine,
    arrivals,
    departures,
    completed,
    makespan_s,
    quanta,
    migrations,
});
json_struct!(TenantPoint {
    tenant,
    name,
    home,
    arrivals,
    departures,
    mean_sojourn_s,
});
json_struct!(FleetResult {
    scheduler,
    machines,
    tenants,
    windows,
    mean_windowed_fairness,
    min_windowed_fairness,
    total_arrivals,
    total_departures,
    completed,
    makespan_s,
    mean_sojourn_s,
});

/// One span per thread `machine` has admitted since its last reset, in id
/// order, tagged with its owning tenant: the fleet tags every thread's
/// `AppId` with its global event index, and `tenant_of_event` maps that
/// back. Both fleet loops roll their machines up through this, reading
/// the machine directly rather than a per-thread result list.
pub(crate) fn machine_spans(machine: &Machine, tenant_of_event: &[u32]) -> Vec<ThreadSpan> {
    machine
        .thread_ids()
        .map(|id| ThreadSpan {
            app: tenant_of_event[machine.app_of(id).0 as usize],
            spawned_at: machine.spawn_time(id).as_secs_f64(),
            finished_at: machine.finish_time(id).map(|f| f.as_secs_f64()),
        })
        .collect()
}

/// Spans that finished.
pub(crate) fn departures(spans: &[ThreadSpan]) -> u64 {
    spans.iter().filter(|s| s.finished_at.is_some()).count() as u64
}

/// A reusable fleet: machines are built once and reset per run, so bench
/// iterations pay construction cost only on the first lap.
pub struct FleetRunner {
    pub(crate) cfg: FleetConfig,
    pub(crate) machines: Vec<Mutex<Machine>>,
}

impl FleetRunner {
    /// Build every machine in the fleet.
    pub fn new(cfg: FleetConfig) -> FleetRunner {
        let machines = cfg
            .machines
            .iter()
            .map(|mc| Mutex::new(Machine::new(mc.clone())))
            .collect();
        FleetRunner { cfg, machines }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Materialise traces and the dispatch plan for this config.
    pub fn plan(&self) -> DispatchPlan {
        dispatch(&self.cfg, &tenant_traces(&self.cfg))
    }

    /// Run the whole fleet under the default Dike policy.
    pub fn run(&self, pool: &Pool) -> FleetResult {
        self.run_with(pool, "dike", |_| {
            Box::new(Dike::fixed(SchedConfig::DEFAULT))
        })
    }

    /// Run the whole fleet, constructing one scheduler per machine with
    /// `make` (called with the machine index). Machines fan out over the
    /// pool's workers; results are reassembled in machine order, so the
    /// output is identical at any worker count.
    pub fn run_with<F>(&self, pool: &Pool, label: &str, make: F) -> FleetResult
    where
        F: Fn(usize) -> Box<dyn Scheduler> + Sync,
    {
        let mut plan = self.plan();
        let deadline = SimTime::from_secs_f64(self.cfg.deadline_s);
        let n = self.machines.len();

        // Hand each machine its spawn plan by move: a fleet-sized plan is
        // millions of specs, and cloning it once more per run would cost
        // more than the dispatch pre-pass itself.
        let spawn_plans: Vec<Mutex<Option<Vec<TimedSpawn>>>> = plan
            .per_machine
            .drain(..)
            .map(|v| Mutex::new(Some(v)))
            .collect();

        // (summary, tenant-tagged spans) per machine, in machine order.
        let per_machine: Vec<(MachineSummary, Vec<ThreadSpan>)> = pool.map_indexed(n, |i| {
            let mut machine = self.machines[i].lock().expect("fleet machine lock");
            machine.reset();
            let mut sched = make(i);
            let spawns = spawn_plans[i]
                .lock()
                .expect("fleet plan lock")
                .take()
                .expect("each machine's plan is taken exactly once");
            let totals = run_open_pooled(&mut machine, sched.as_mut(), deadline, spawns);
            let spans = machine_spans(&machine, &plan.tenant_of_event);
            let summary = MachineSummary {
                machine: i as u32,
                arrivals: spans.len() as u64,
                departures: departures(&spans),
                completed: totals.completed,
                makespan_s: totals.wall.as_secs_f64(),
                quanta: totals.quanta,
                migrations: totals.migrations,
            };
            (summary, spans)
        });

        let (machines, span_lists): (Vec<MachineSummary>, Vec<Vec<ThreadSpan>>) =
            per_machine.into_iter().unzip();
        let merged = merge_spans(&span_lists);
        let wall = machines.iter().map(|m| m.makespan_s).fold(0.0, f64::max);
        let windows = windowed_fairness(&merged, WINDOW_S, WINDOW_STEP_S, wall.max(WINDOW_S));
        let (mean_fair, min_fair) = fairness_summary(&windows);

        let tenants: Vec<TenantPoint> = sojourn_by_app(&merged, self.cfg.tenants.len(), wall)
            .iter()
            .enumerate()
            .map(|(t, totals)| TenantPoint {
                tenant: t as u32,
                name: self.cfg.tenants[t].name.clone(),
                home: home_machine(t as u32, n),
                arrivals: totals.threads,
                departures: totals.departures,
                mean_sojourn_s: totals.mean_sojourn_s(),
            })
            .collect();

        FleetResult {
            scheduler: label.to_string(),
            total_arrivals: machines.iter().map(|m| m.arrivals).sum(),
            total_departures: machines.iter().map(|m| m.departures).sum(),
            completed: machines.iter().all(|m| m.completed),
            makespan_s: wall,
            mean_sojourn_s: mean_sojourn(&merged, wall),
            machines,
            tenants,
            windows,
            mean_windowed_fairness: mean_fair,
            min_windowed_fairness: min_fair,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_workloads::ArrivalConfig;

    fn tiny_fleet() -> FleetConfig {
        let mut cfg = FleetConfig::uniform(
            2,
            3,
            ArrivalConfig {
                mean_interarrival_ms: 1_000.0,
                horizon_ms: 5_000,
                threads_min: 1,
                threads_max: 2,
            },
            11,
        );
        cfg.scale = 0.01;
        cfg
    }

    #[test]
    fn fleet_run_is_deterministic_and_reusable() {
        let runner = FleetRunner::new(tiny_fleet());
        let pool = Pool::new(1);
        let a = runner.run(&pool);
        // Second lap on the *same* runner: machines reset, identical out.
        let b = runner.run(&pool);
        assert_eq!(a, b);
        assert!(a.total_arrivals > 0);
        assert_eq!(
            a.total_arrivals,
            a.machines.iter().map(|m| m.arrivals).sum::<u64>()
        );
        assert_eq!(
            a.total_arrivals,
            a.tenants.iter().map(|t| t.arrivals).sum::<u64>()
        );
    }

    #[test]
    fn fleet_drains_under_light_load() {
        let runner = FleetRunner::new(tiny_fleet());
        let r = runner.run(&Pool::new(1));
        assert!(r.completed, "light load should drain: {r:?}");
        assert_eq!(r.total_arrivals, r.total_departures);
        assert!(r.makespan_s > 0.0);
        assert!(r.mean_windowed_fairness > 0.0);
        assert!(r.min_windowed_fairness <= r.mean_windowed_fairness);
    }
}
