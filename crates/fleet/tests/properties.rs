//! Dispatcher and roll-up properties the fleet layer is contractually
//! bound to: routing is a pure function of the config, no arrival is
//! lost or duplicated, the fleet loop routes exactly as [`dispatch`]
//! does, and the M=1 fleet degenerates *exactly* to a single-machine
//! open run.

use dike_fleet::{dispatch, tenant_traces, FailoverConfig, FleetConfig, FleetRunner};
use dike_machine::{AppId, BarrierId, FaultConfig, Machine, MachineFaultConfig, SimTime};
use dike_metrics::{window_series, ThreadSpan};
use dike_sched_core::{drive, RunResult, Scheduler, TimedSpawn};
use dike_scheduler::{Dike, SchedConfig};
use dike_util::check::check;
use dike_util::Pool;
use dike_workloads::ArrivalConfig;

fn arrivals(mean_ms: f64, horizon_ms: u64) -> ArrivalConfig {
    ArrivalConfig {
        mean_interarrival_ms: mean_ms,
        horizon_ms,
        threads_min: 1,
        threads_max: 3,
    }
}

#[test]
fn routing_is_deterministic_for_a_fixed_seed() {
    check("routing_is_deterministic_for_a_fixed_seed", 12, |rng| {
        let m = rng.gen_range(1u64..12) as usize;
        let t = rng.gen_range(1u64..8) as usize;
        let seed = rng.gen_range(0u64..u64::MAX);
        let cfg = FleetConfig::uniform(m, t, arrivals(400.0, 8_000), seed);
        let traces = tenant_traces(&cfg);
        let a = dispatch(&cfg, &traces);
        let b = dispatch(&cfg, &tenant_traces(&cfg));
        assert_eq!(a, b, "same config must route identically");
        assert!(a.assignment.iter().all(|&i| (i as usize) < m));
    });
}

#[test]
fn every_arrival_lands_on_exactly_one_machine() {
    check("every_arrival_lands_on_exactly_one_machine", 12, |rng| {
        let m = rng.gen_range(1u64..12) as usize;
        let t = rng.gen_range(1u64..8) as usize;
        let seed = rng.gen_range(0u64..u64::MAX);
        let cfg = FleetConfig::uniform(m, t, arrivals(300.0, 8_000), seed);
        let traces = tenant_traces(&cfg);
        let plan = dispatch(&cfg, &traces);

        // Event conservation: one assignment per merged event, each to a
        // machine of the fleet. Where their threads land is checked
        // against the simulated fleet in
        // `dispatch_is_the_fleet_loops_blind_router`.
        let total_events: usize = traces.iter().map(|tr| tr.events.len()).sum();
        assert_eq!(plan.merged.len(), total_events);
        assert_eq!(plan.assignment.len(), total_events);
        assert_eq!(plan.tenant_of_event.len(), total_events);
        assert!(plan.assignment.iter().all(|&i| (i as usize) < m));
    });
}

/// [`dispatch`] is the fleet loop's blind router as one pass: on random
/// zero-fault fleets that drain, every machine admits exactly the
/// threads `dispatch()` assigns it, both in a one-shot `run()` and in a
/// blind epoch-by-epoch `run_failover`. Short arrival windows leave some
/// machines idle, and an idle machine is done.
#[test]
fn dispatch_is_the_fleet_loops_blind_router() {
    check("dispatch_is_the_fleet_loops_blind_router", 32, |rng| {
        let m = rng.gen_range(1u64..9) as usize;
        let t = rng.gen_range(1u64..9) as usize;
        let seed = rng.gen_range(0u64..u64::MAX);
        let horizon_ms = rng.gen_range(500u64..4_000);
        let mut cfg = FleetConfig::uniform(m, t, arrivals(900.0, horizon_ms), seed);
        cfg.scale = 0.01;
        cfg.deadline_s = 60.0;
        let traces = tenant_traces(&cfg);
        let plan = dispatch(&cfg, &traces);
        let mut assigned = vec![0u64; m];
        for (ev, &i) in plan.merged.iter().zip(&plan.assignment) {
            assigned[i as usize] +=
                u64::from(traces[ev.tenant as usize].events[ev.event as usize].nthreads);
        }

        let runner = FleetRunner::new(cfg);
        let pool = Pool::new(1);
        let one_shot = runner.run(&pool);
        let blind = runner.run_failover(
            &pool,
            &FailoverConfig {
                failover: false,
                ..FailoverConfig::default()
            },
        );
        assert!(one_shot.completed, "light load drains: {one_shot:?}");
        let admitted: Vec<u64> = one_shot.machines.iter().map(|s| s.arrivals).collect();
        assert_eq!(admitted, assigned, "one-shot run");
        let admitted: Vec<u64> = blind.machines.iter().map(|s| s.admitted).collect();
        assert_eq!(admitted, assigned, "blind epochs");
        assert_eq!(blind.ledger.drained, blind.ledger.dispatched);
    });
}

/// With one machine the fleet's roll-up must equal a single-machine open
/// run exactly: same spans, same windows, same summary scalars — not
/// approximately, byte-for-byte.
#[test]
fn m1_rollup_equals_the_single_machine_value() {
    let mut cfg = FleetConfig::uniform(1, 3, arrivals(800.0, 6_000), 21);
    cfg.scale = 0.01;
    let runner = FleetRunner::new(cfg.clone());
    let fleet = runner.run(&Pool::new(1));

    // The reference: spawn every thread of every merged event `g` as
    // `AppId(g)`/`BarrierId(g)` on the single machine through the plain
    // open-system driver, and roll up by tenant by hand.
    let traces = tenant_traces(&cfg);
    let plan = dispatch(&cfg, &traces);
    let mut spawns = Vec::new();
    for (g, ev) in plan.merged.iter().enumerate() {
        let event = &traces[ev.tenant as usize].events[ev.event as usize];
        for _ in 0..event.nthreads {
            spawns.push(TimedSpawn {
                at: SimTime::from_ms(ev.at_ms),
                spec: event
                    .app
                    .thread_spec(AppId(g as u32), cfg.scale, BarrierId(g as u32)),
            });
        }
    }
    let mut machine = Machine::new(cfg.machines[0].clone());
    let mut sched = Dike::fixed(SchedConfig::DEFAULT);
    let deadline = SimTime::from_secs_f64(cfg.deadline_s);
    let (totals, _) = drive(&mut machine, &mut sched, deadline, spawns, |_| {});
    let result = RunResult::collect(sched.name(), totals, &machine);
    let wall = result.wall.as_secs_f64();
    let spans: Vec<ThreadSpan> = result
        .threads
        .iter()
        .map(|t| ThreadSpan {
            app: plan.tenant_of_event[t.app as usize],
            spawned_at: t.spawned_at.as_secs_f64(),
            finished_at: t.finished_at.map(|f| f.as_secs_f64()),
        })
        .collect();
    let (windows, mean_fair, min_fair) = window_series(&spans, wall);

    assert!(fleet.total_arrivals > 0);
    assert_eq!(fleet.total_arrivals as usize, spans.len());
    assert_eq!(fleet.windows, windows);
    assert_eq!(fleet.mean_windowed_fairness, mean_fair);
    assert_eq!(fleet.min_windowed_fairness, min_fair);
    assert_eq!(fleet.makespan_s, wall);
    let tenant_arrivals: u64 = fleet.tenants.iter().map(|t| t.arrivals).sum();
    assert_eq!(tenant_arrivals, fleet.total_arrivals);
}

/// A machine with an aggressive fault plan still drains its share: the
/// fleet layer inherits the single-machine graceful-degradation
/// guarantee, and the faulty machine's results stay deterministic.
#[test]
fn faulty_machines_still_drain_their_dispatch_share() {
    let mut cfg = FleetConfig::uniform(3, 4, arrivals(900.0, 5_000), 33);
    cfg.scale = 0.01;
    cfg.machines[1].faults = FaultConfig {
        dropout_rate: 0.3,
        corruption_rate: 0.1,
        stale_rate: 0.1,
        noise_amplitude: 0.2,
        migration_fail_rate: 0.2,
        migration_delay_rate: 0.2,
        migration_delay_quanta: 2,
        stall_rate: 0.05,
        stall_us: 500,
        seed: 99,
    };
    let runner = FleetRunner::new(cfg);
    let pool = Pool::new(1);
    let a = runner.run(&pool);
    let b = runner.run(&pool);
    assert_eq!(a, b, "faulty fleet must still be deterministic");
    assert!(a.completed, "light load should drain even under faults");
    assert_eq!(a.total_arrivals, a.total_departures);
}

/// The failover loop's contract under *arbitrary* machine-fault regimes:
/// every offered thread is accounted for exactly once
/// (`dispatched = drained + in_flight + lost`), the per-tenant roll-up
/// partitions the same totals, and the whole run — blind or health-aware
/// — is a pure function of its config.
#[test]
fn failover_conserves_and_is_deterministic_under_random_faults() {
    check(
        "failover_conserves_and_is_deterministic_under_random_faults",
        8,
        |rng| {
            let m = rng.gen_range(2u64..5) as usize;
            let t = rng.gen_range(2u64..5) as usize;
            let seed = rng.gen_range(0u64..1_000);
            let mut cfg = FleetConfig::uniform(m, t, arrivals(800.0, 5_000), seed);
            cfg.scale = 0.01;
            cfg.deadline_s = 60.0;
            let offered: u64 = tenant_traces(&cfg)
                .iter()
                .map(|tr| tr.num_threads() as u64)
                .sum();
            let runner = FleetRunner::new(cfg);

            let fo = FailoverConfig {
                failover: rng.gen_range(0u64..2) == 0,
                retry_budget: rng.gen_range(0u64..4) as u32,
                faults: MachineFaultConfig {
                    crash_rate: rng.gen_range(0u64..500) as f64 / 1_000.0,
                    recovery_epochs: rng.gen_range(0u64..4) as u32,
                    brownout_rate: rng.gen_range(0u64..500) as f64 / 1_000.0,
                    brownout_epochs: rng.gen_range(1u64..3) as u32,
                    brownout_stall_ms: 1_500,
                    seed: rng.gen_range(0u64..u64::MAX),
                },
                ..FailoverConfig::default()
            };

            let pool = Pool::new(1);
            let a = runner.run_failover(&pool, &fo);
            let b = runner.run_failover(&pool, &fo);
            assert_eq!(a, b, "failover run must be deterministic");

            // Conservation: nothing silently dropped, nothing counted
            // twice — at any fault level, with or without failover.
            assert!(a.ledger.holds(), "ledger imbalance: {:?}", a.ledger);
            assert_eq!(a.ledger.dispatched, offered, "ledger covers all offered");

            // The tenant roll-up partitions the same balance sheet.
            let t_offered: u64 = a.tenants.iter().map(|p| p.offered).sum();
            let t_drained: u64 = a.tenants.iter().map(|p| p.drained).sum();
            let t_lost: u64 = a.tenants.iter().map(|p| p.lost).sum();
            assert_eq!(t_offered, a.ledger.dispatched);
            assert_eq!(t_drained, a.ledger.drained);
            assert_eq!(t_lost, a.ledger.lost);

            // Machine summaries agree with the drained total.
            let m_drained: u64 = a.machines.iter().map(|s| s.drained).sum();
            assert_eq!(m_drained, a.ledger.drained);
        },
    );
}

/// With no faults configured, the epoch-driven loop is just a sliced
/// re-phrasing of the one-shot fleet: everything offered drains, nothing
/// is lost or quarantined, and the blind and health-aware dispatchers
/// agree with each other exactly (no fault ever differentiates them).
#[test]
fn zero_fault_failover_matches_blind_and_drains_everything() {
    check(
        "zero_fault_failover_matches_blind_and_drains_everything",
        6,
        |rng| {
            let m = rng.gen_range(1u64..4) as usize;
            let t = rng.gen_range(1u64..4) as usize;
            let seed = rng.gen_range(0u64..1_000);
            let mut cfg = FleetConfig::uniform(m, t, arrivals(900.0, 4_000), seed);
            cfg.scale = 0.01;
            cfg.deadline_s = 60.0;
            let runner = FleetRunner::new(cfg);
            let pool = Pool::new(1);

            let on = runner.run_failover(&pool, &FailoverConfig::default());
            let off = runner.run_failover(
                &pool,
                &FailoverConfig {
                    failover: false,
                    ..FailoverConfig::default()
                },
            );
            for r in [&on, &off] {
                assert!(r.ledger.holds());
                assert_eq!(r.ledger.lost, 0, "no faults, nothing lost");
                assert_eq!(r.ledger.in_flight, 0, "light load fully drains");
                assert_eq!(r.ledger.drained, r.ledger.dispatched);
                assert_eq!(r.quarantines, 0);
                assert_eq!(r.orphaned, 0);
            }
            // The scorers may route differently (backlog vs decayed-load
            // estimates), but fault-free both balance the same sheet.
            assert_eq!(on.ledger, off.ledger);
        },
    );
}
