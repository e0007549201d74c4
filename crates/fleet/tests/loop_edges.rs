//! Fixed fleets at the edges of the fleet's one loop: machines that never
//! get a thread, a deadline that cuts the arrival window short, and
//! arrivals due after the run while every machine is down.

use dike_fleet::{home_machine, tenant_traces, FailoverConfig, FleetConfig, FleetRunner};
use dike_machine::MachineFaultConfig;
use dike_util::Pool;
use dike_workloads::ArrivalConfig;

fn fleet(machines: usize, tenants: usize, mean_ms: f64, horizon_ms: u64, seed: u64) -> FleetConfig {
    let arrivals = ArrivalConfig {
        mean_interarrival_ms: mean_ms,
        horizon_ms,
        threads_min: 1,
        threads_max: 3,
    };
    let mut cfg = FleetConfig::uniform(machines, tenants, arrivals, seed);
    cfg.scale = 0.01;
    cfg
}

/// A machine with no thread is done: one tenant pinned home leaves
/// seven machines idle, and they neither idle to the deadline nor hold
/// the fleet open. The fleet's windows end with the last departure, not
/// at the 60 s deadline, so no empty window lifts the fairness mean.
#[test]
fn idle_machines_are_done() {
    let mut cfg = fleet(8, 1, 700.0, 4_000, 5);
    cfg.deadline_s = 60.0;
    cfg.dispatch.affinity_bonus = 1e9;
    let r = FleetRunner::new(cfg).run(&Pool::new(1));
    let home = home_machine(0, 8) as usize;
    assert!(r.completed, "{r:?}");
    assert_eq!(r.makespan_s, 4.5);
    assert_eq!(r.machines[home].arrivals, r.total_arrivals);
    for m in r.machines.iter().filter(|m| m.machine as usize != home) {
        assert_eq!((m.arrivals, m.quanta), (0, 0), "{m:?}");
        assert!(m.completed);
    }
    assert_eq!(r.mean_windowed_fairness, r.min_windowed_fairness);
}

/// The deadline bounds a one-shot run whose arrivals outlast it. At 5 s
/// every machine runs to the deadline, where arrivals still due stay
/// queued: routed but never admitted, so the fleet is not complete. A
/// zero deadline runs zero epochs: nothing is routed, admitted or
/// simulated, and the failover ledger still balances with every offered
/// thread in flight.
#[test]
fn deadline_bounds_a_run_whose_arrivals_outlast_it() {
    let mut cfg = fleet(3, 4, 700.0, 8_000, 5);
    cfg.deadline_s = 5.0;
    let offered = cfg.offered_threads() as u64;
    let pool = Pool::new(1);
    let r = FleetRunner::new(cfg.clone()).run(&pool);
    assert!(!r.completed);
    assert!(r.total_arrivals < offered);
    assert!(r.machines.iter().all(|m| m.makespan_s == 5.0), "{r:?}");

    cfg.deadline_s = 0.0;
    let runner = FleetRunner::new(cfg);
    let r = runner.run(&pool);
    assert!(!r.completed);
    assert_eq!((r.total_arrivals, r.makespan_s), (0, 0.0));
    assert!(r.machines.iter().all(|m| m.quanta == 0));
    let f = runner.run_failover(&pool, &FailoverConfig::default());
    assert_eq!(f.epochs, 0);
    f.ledger.assert_holds("zero deadline");
    assert_eq!(f.ledger.in_flight, offered);
}

/// Arrivals due after the run's end were never due, so no machine fault
/// can lose them: with every machine down at the last barrier they stay
/// in flight, blind or health-aware, and only the work due inside the
/// run is lost.
#[test]
fn arrivals_after_the_run_stay_in_flight_when_every_machine_is_down() {
    let mut cfg = fleet(3, 4, 800.0, 6_000, 19);
    cfg.deadline_s = 3.0; // ⌈3/2⌉ = 2 epochs: the run ends at 4 s
    let late: u64 = tenant_traces(&cfg)
        .iter()
        .flat_map(|t| &t.events)
        .filter(|ev| ev.at_ms >= 4_000)
        .map(|ev| u64::from(ev.nthreads))
        .sum();
    assert!(late > 0, "the fleet's arrivals must outlast the run");
    let runner = FleetRunner::new(cfg);
    for failover in [false, true] {
        let fo = FailoverConfig {
            failover,
            retry_budget: 0, // a due orphan is lost at once
            faults: MachineFaultConfig {
                crash_rate: 1.0,
                recovery_epochs: 0, // permanent
                ..Default::default()
            },
            ..Default::default()
        };
        let r = runner.run_failover(&Pool::new(1), &fo);
        let cell = format!("failover {failover}");
        r.ledger.assert_holds(&cell);
        assert_eq!(r.epochs, 2, "{cell}");
        assert!(r.machines.iter().all(|m| m.down_at_end), "{cell}");
        assert_eq!(r.ledger.drained, 0, "{cell}");
        assert_eq!(r.ledger.in_flight, late, "{cell}");
        assert_eq!(r.ledger.lost, r.ledger.dispatched - late, "{cell}");
    }
}
