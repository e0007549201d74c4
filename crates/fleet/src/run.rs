//! The fleet runner, and the one-shot run's result schema.
//!
//! A one-shot run is the fleet's epoch loop ([`crate::failover`]) with
//! one epoch that ends at the deadline, blind routing and no machine
//! faults: the single barrier routes every arrival, then the machines'
//! open-system runs fan out over [`dike_util::Pool`]'s workers with
//! `map_indexed`, which returns in machine order regardless of worker
//! count — what makes the fleet JSON byte-identical at `DIKE_THREADS=1`,
//! `2`, or `8`. The roll-up then re-tags every thread span with its
//! owning *tenant* (through the event→tenant map) and scores fleet-wide
//! windowed fairness over the merged span set, exactly the way a single
//! machine's open run scores its own.

use crate::config::FleetConfig;
use crate::failover::FailoverConfig;
use dike_machine::Machine;
use dike_metrics::WindowPoint;
use dike_sched_core::Scheduler;
use dike_scheduler::{Dike, SchedConfig};
use dike_util::{json_struct, Pool};
use std::sync::Mutex;

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

    /// Run the whole fleet under the default Dike policy.
    pub fn run(&self, pool: &Pool) -> FleetResult {
        self.run_with(pool, "dike", |_| {
            Box::new(Dike::fixed(SchedConfig::DEFAULT))
        })
    }

    /// Run the whole fleet, constructing one scheduler per machine with
    /// `make` (called with the machine index on the worker that simulates
    /// the machine, and dropped there once it is done). This is the epoch
    /// loop with one epoch that ends at the deadline, blind routing and no
    /// machine faults; results are reassembled in machine order, so the
    /// output is identical at any worker count.
    pub fn run_with<F>(&self, pool: &Pool, label: &str, make: F) -> FleetResult
    where
        F: Fn(usize) -> Box<dyn Scheduler + Send> + Sync,
    {
        // A zero deadline runs zero epochs; the epoch itself must be > 0.
        let fo = FailoverConfig {
            epoch_ms: ((self.cfg.deadline_s * 1_000.0).ceil() as u64).max(1),
            failover: false,
            ..Default::default()
        };
        self.run_epochs(pool, &fo, label, make).0
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

    /// The one-shot run places events exactly as `dispatch()` does, event
    /// by event: every thread runs on the machine its event was assigned,
    /// and every event is admitted whole. Per-machine totals alone would
    /// not catch two equal-sized events swapped between machines.
    #[test]
    fn every_event_runs_whole_where_dispatch_sends_it() {
        let mut cfg = FleetConfig::uniform(
            4,
            5,
            ArrivalConfig {
                mean_interarrival_ms: 300.0,
                horizon_ms: 5_000,
                threads_min: 1,
                threads_max: 4,
            },
            23,
        );
        cfg.scale = 0.01;
        let runner = FleetRunner::new(cfg);
        assert!(runner.run(&Pool::new(1)).completed);
        let traces = crate::tenant_traces(&runner.cfg);
        let plan = crate::dispatch(&runner.cfg, &traces);
        assert!(plan.assignment.iter().any(|&i| i != plan.assignment[0]));
        let mut admitted = vec![0u32; plan.merged.len()];
        for (i, m) in runner.machines.iter().enumerate() {
            let machine = m.lock().expect("fleet machine lock");
            for t in machine.thread_ids() {
                let g = machine.app_of(t).0 as usize;
                assert_eq!(plan.assignment[g] as usize, i, "event {g}");
                admitted[g] += 1;
            }
        }
        for (g, ev) in plan.merged.iter().enumerate() {
            let nthreads = traces[ev.tenant as usize].events[ev.event as usize].nthreads;
            assert_eq!(admitted[g], nthreads, "event {g}");
        }
    }
}
