//! The driver's observe step against the machine's own lifecycle record.
//!
//! The driver builds each quantum's [`SystemView`] from a watch list of
//! live threads rather than from every thread the machine has ever run.
//! This property drives random open workloads — more threads than vcores,
//! so the wait queue builds — through `drive`, whole and in epoch slices
//! at random cutoffs, records every view, and checks each one
//! against `Machine::spawn_time`/`finish_time` after the run:
//!
//! * every observed thread was live at `view.now`, and ids ascend;
//! * with per-thread faults off, `view.threads` is exactly the live set;
//! * a thread is reported in `departed` at most once, never before it
//!   finished, and never observed after that; every thread that finished
//!   by the last view was reported.

use dike_machine::{
    presets, AppId, FaultConfig, Machine, MachineConfig, Phase, PhaseProgram, SimTime, ThreadId,
    ThreadSpec,
};
use dike_sched_core::{drive, Actions, Scheduler, SystemView, TimedSpawn};
use dike_util::check::check;
use dike_util::Pcg32;
use std::collections::BTreeSet;

/// Records every view; swaps the first and last observed threads on odd
/// quanta so migrations (and their fault channel) are exercised too.
struct Recorder {
    quantum: SimTime,
    views: Vec<SystemView>,
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn initial_quantum(&self) -> SimTime {
        self.quantum
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        self.views.push(view.clone());
        if view.quantum_index % 2 == 1 {
            if let [a, .., b] = view.threads.as_slice() {
                actions.swap((a.id, a.vcore), (b.id, b.vcore));
            }
        }
    }
}

/// Every arrival is due within this window, well inside the threads'
/// lifetimes, so the surplus over the vcore count queues.
const ARRIVAL_WINDOW_US: u64 = 30_000;

fn arrivals(rng: &mut Pcg32, n_vcores: usize) -> Vec<TimedSpawn> {
    let n = n_vcores + rng.gen_range(1u64..n_vcores as u64 + 1) as usize;
    (0..n)
        .map(|i| {
            let phase = Phase::steady(
                0.5 + rng.gen_range(0u64..10) as f64 / 10.0,
                rng.gen_range(0u64..20) as f64,
                rng.gen_range(1u64..8) as f64,
                1e7,
            );
            let instructions = rng.gen_range(10u64..80) as f64 * 1e6;
            TimedSpawn {
                at: SimTime::from_us(rng.gen_range(0u64..ARRIVAL_WINDOW_US)),
                spec: ThreadSpec {
                    app: AppId(i as u32),
                    app_name: format!("t{i}"),
                    program: PhaseProgram::single(phase, instructions),
                    barrier: None,
                },
            }
        })
        .collect()
}

/// Threads live at `now`: spawned strictly before it (a thread admitted
/// at a view's instant is admitted after that view) and not finished by it.
fn live_at(machine: &Machine, now: SimTime) -> Vec<ThreadId> {
    machine
        .thread_ids()
        .filter(|&t| machine.spawn_time(t) < now && machine.finish_time(t).is_none_or(|f| f > now))
        .collect()
}

fn check_views(machine: &Machine, views: &[SystemView], faults_on: bool) {
    let mut departed_at: Vec<Option<SimTime>> = vec![None; machine.num_threads()];
    for view in views {
        let ids: Vec<ThreadId> = view.threads.iter().map(|t| t.id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "observed ids must ascend at {:?}: {ids:?}",
            view.now
        );
        let live = live_at(machine, view.now);
        if faults_on {
            let live: BTreeSet<ThreadId> = live.into_iter().collect();
            assert!(
                ids.iter().all(|t| live.contains(t)),
                "observed a thread not live at {:?}",
                view.now
            );
        } else {
            assert_eq!(ids, live, "view at {:?} is not the live set", view.now);
        }
        for &t in &ids {
            assert!(
                departed_at[t.index()].is_none(),
                "{t:?} observed after it departed"
            );
        }
        assert!(view.departed.windows(2).all(|w| w[0] < w[1]));
        for &t in &view.departed {
            let fin = machine.finish_time(t).expect("departed threads finished");
            assert!(fin <= view.now, "{t:?} departed before it finished");
            assert!(
                departed_at[t.index()].replace(view.now).is_none(),
                "{t:?} departed twice"
            );
        }
    }
    if let Some(last) = views.last() {
        for t in machine.thread_ids() {
            if machine.finish_time(t).is_some_and(|f| f <= last.now) {
                assert!(departed_at[t.index()].is_some(), "{t:?} never departed");
            }
        }
    }
}

#[test]
fn observe_step_reports_exactly_the_live_set_under_churn() {
    check(
        "observe_step_reports_exactly_the_live_set_under_churn",
        200,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let mut cfg: MachineConfig = if rng.gen_bool() {
                presets::paper_machine(seed)
            } else {
                presets::numa_machine(2, seed)
            };
            let faults_on = rng.gen_bool();
            if faults_on {
                cfg.faults = FaultConfig::combined_worst(seed);
            }
            let n_vcores = cfg.topology.num_vcores();
            let plan = arrivals(rng, n_vcores);
            let mut machine = Machine::new(cfg);
            let mut sched = Recorder {
                quantum: SimTime::from_ms(rng.gen_range(2u64..30)),
                views: Vec::new(),
            };
            let deadline = SimTime::from_secs_f64(10.0);
            let sliced = rng.gen_bool();
            if sliced {
                // Epoch slices: one persistent policy, leftovers fed back.
                let mut pending = plan;
                let mut until = SimTime::ZERO;
                while until < deadline && !(machine.all_done() && pending.is_empty()) {
                    until += SimTime::from_ms(rng.gen_range(1u64..60));
                    pending = drive(&mut machine, &mut sched, until, pending, |_| {}).1;
                }
            } else {
                drive(&mut machine, &mut sched, deadline, plan, |_| {});
            }
            // Fault draws are keyed by the quantum index of the call, so
            // equal short slices replay one stall draw every call and can
            // starve a thread; only a faulted sliced run may not drain.
            assert!(
                machine.all_done() || (sliced && faults_on),
                "the workload must drain"
            );
            assert!(!sched.views.is_empty());
            check_views(&machine, &sched.views, faults_on);
            let per_thread: u64 = machine
                .thread_ids()
                .map(|t| machine.counters(t).migrations)
                .sum();
            assert_eq!(machine.total_migrations(), per_thread);
        },
    );
}
