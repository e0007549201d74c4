//! The fleet runner, and the fleet's one result schema.
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
//! machine's open run scores its own. Both entry points fill the same
//! [`FleetResult`]: a one-shot run reports zero health counters and its
//! real ledger.

use crate::config::FleetConfig;
use crate::failover::FailoverConfig;
use dike_machine::Machine;
use dike_metrics::{ConservationLedger, WindowPoint};
use dike_sched_core::Scheduler;
use dike_scheduler::{Dike, SchedConfig};
use dike_util::{json_struct, Pool};
use std::sync::Mutex;

/// One machine's contribution to a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Machine index in the fleet.
    pub machine: u32,
    /// Threads ever admitted (spawned) on this machine.
    pub admitted: u64,
    /// Admitted threads that finished.
    pub drained: u64,
    /// Threads routed here but still queued (never spawned) at run end.
    pub queued: u64,
    /// Hard crashes suffered.
    pub crashes: u64,
    /// Brownout windows entered.
    pub brownouts: u64,
    /// Whether the machine ended the run down.
    pub down_at_end: bool,
    /// The machine's own clock at run end, seconds.
    pub makespan_s: f64,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Migrations applied by the policy.
    pub migrations: u64,
}

impl MachineSummary {
    /// Whether every thread routed here departed in time: every admitted
    /// thread drained and none is still queued.
    pub fn completed(&self) -> bool {
        self.drained == self.admitted && self.queued == 0
    }
}

/// One tenant's fleet-wide roll-up, tolerant of partial-machine results:
/// threads stranded on a dead machine still appear (unfinished, charged
/// to the fleet wall), and lost threads are reported explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Tenant index.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// The tenant's home machine under the dispatch hash.
    pub home: u32,
    /// Threads the tenant offered.
    pub offered: u64,
    /// Threads admitted on some machine.
    pub admitted: u64,
    /// Admitted threads that finished.
    pub drained: u64,
    /// Threads lost (budget exhausted or routed into a dead machine).
    pub lost: u64,
    /// Mean sojourn over the tenant's *admitted* threads, unfinished
    /// charged to the fleet wall. Lost threads never ran and are excluded
    /// (they are accounted in `lost`, not smeared into sojourn).
    pub mean_sojourn_s: f64,
}

/// A whole fleet run, rolled up: what [`FleetRunner::run`] and
/// [`FleetRunner::run_failover`] both return.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Scheduler label (every machine runs the same policy).
    pub scheduler: String,
    /// Whether health-aware failover routing was on.
    pub failover: bool,
    /// Epochs actually executed (the loop exits early once drained).
    pub epochs: u64,
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
    /// The conservation balance sheet:
    /// `dispatched = drained + in_flight + lost`.
    pub ledger: ConservationLedger,
    /// Machines quarantined at a barrier (crash + brownout entries).
    pub quarantines: u64,
    /// Recovered machines re-admitted to routing.
    pub readmissions: u64,
    /// Events orphaned off crashed machines (or un-routable arrivals).
    pub orphaned: u64,
    /// Orphaned events successfully re-dispatched to a healthy peer.
    pub redispatched: u64,
    /// Threads admitted across the fleet: the sum of the machines'
    /// `admitted`.
    pub total_arrivals: u64,
    /// Threads that departed. Always `ledger.drained`; kept only because
    /// the frozen benchmark (`benchmark/`) reads it, and to be removed
    /// with the next benchmark change.
    pub total_departures: u64,
    /// Latest machine clock — the fleet wall, seconds.
    pub makespan_s: f64,
    /// Mean sojourn over every admitted thread, unfinished charged to the
    /// wall.
    pub mean_sojourn_s: f64,
}

impl FleetResult {
    /// Whether every offered thread drained before the deadline.
    pub fn completed(&self) -> bool {
        self.ledger.drained == self.ledger.dispatched
    }
}

/// Another name for [`FleetResult`], the result of
/// [`FleetRunner::run_failover`]. Nothing in the workspace names it; it
/// stays only because the frozen benchmark (`benchmark/`) does, and goes
/// with the next benchmark change.
pub type FailoverResult = FleetResult;

json_struct!(MachineSummary {
    machine,
    admitted,
    drained,
    queued,
    crashes,
    brownouts,
    down_at_end,
    makespan_s,
    quanta,
    migrations,
});
json_struct!(TenantPoint {
    tenant,
    name,
    home,
    offered,
    admitted,
    drained,
    lost,
    mean_sojourn_s,
});
json_struct!(FleetResult {
    scheduler,
    failover,
    epochs,
    machines,
    tenants,
    windows,
    mean_windowed_fairness,
    min_windowed_fairness,
    ledger,
    quarantines,
    readmissions,
    orphaned,
    redispatched,
    total_arrivals,
    total_departures,
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
        self.run_failover_with(pool, &fo, label, make)
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
            a.machines.iter().map(|m| m.admitted).sum::<u64>()
        );
        assert_eq!(
            a.total_arrivals,
            a.tenants.iter().map(|t| t.admitted).sum::<u64>()
        );
    }

    #[test]
    fn fleet_drains_under_light_load() {
        let runner = FleetRunner::new(tiny_fleet());
        let r = runner.run(&Pool::new(1));
        assert!(r.completed(), "light load should drain: {r:?}");
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
        assert!(runner.run(&Pool::new(1)).completed());
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
