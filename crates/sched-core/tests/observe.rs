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
//!
//! A second property pins the plan's form: an entry of `k` threads drives
//! a machine exactly as `k` one-thread entries in its place.

use dike_machine::{
    presets, AppId, FaultConfig, Machine, MachineConfig, Phase, PhaseProgram, SimTime, ThreadId,
    ThreadSpec,
};
use dike_sched_core::{drive, Actions, RunTotals, Scheduler, SystemView, TimedSpawn};
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
                    program: PhaseProgram::single(phase, instructions).into(),
                    barrier: None,
                },
                threads: 1,
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

/// `plan` with every entry expanded into one-thread entries in its place.
fn expand(plan: &[TimedSpawn]) -> Vec<TimedSpawn> {
    plan.iter()
        .flat_map(|ts| {
            (0..ts.threads).map(|_| TimedSpawn {
                threads: 1,
                ..ts.clone()
            })
        })
        .collect()
}

/// What one driven session leaves: every call's totals and leftovers,
/// every view, and the machine.
struct Session {
    calls: Vec<(RunTotals, Vec<TimedSpawn>)>,
    views: Vec<SystemView>,
    machine: Machine,
}

/// Drive `plan` on a fresh machine in calls that end at `cuts`, one
/// persistent policy, the leftovers fed back, until the work drains.
fn session(
    cfg: &MachineConfig,
    quantum: SimTime,
    plan: Vec<TimedSpawn>,
    cuts: &[SimTime],
) -> Session {
    let mut machine = Machine::new(cfg.clone());
    let mut sched = Recorder {
        quantum,
        views: Vec::new(),
    };
    let mut calls = Vec::new();
    let mut pending = plan;
    for &until in cuts {
        let (totals, leftovers) = drive(&mut machine, &mut sched, until, pending, |_| {});
        pending = leftovers.clone();
        calls.push((totals, leftovers));
        if totals.completed {
            break;
        }
    }
    Session {
        calls,
        views: sched.views,
        machine,
    }
}

/// An entry of `k` identical threads is `k` one-thread entries in its
/// place: on random plans of multi-thread entries, driven whole and in
/// random epoch slices, with per-thread faults on and off, the plan and
/// its expansion give equal totals and views at every call, equal
/// leftovers once expanded, and equal spawn times, finish times and
/// counters for every thread. The 8-vcore machine takes events of up to
/// 8 threads arriving faster than they drain, so an event's threads are
/// often admitted across several calls and handed back partly admitted.
#[test]
fn multi_thread_entries_drive_as_their_expansion() {
    check(
        "multi_thread_entries_drive_as_their_expansion",
        100,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let mut cfg = presets::small_machine(seed);
            if rng.gen_bool() {
                cfg.faults = FaultConfig::combined_worst(seed);
            }
            let n_vcores = cfg.topology.num_vcores();
            let mut plan = arrivals(rng, n_vcores);
            for ts in &mut plan {
                ts.threads = rng.gen_range(1u64..n_vcores as u64 + 1) as u32;
            }
            let quantum = SimTime::from_ms(rng.gen_range(2u64..30));
            let deadline = SimTime::from_secs_f64(10.0);
            let mut cuts = Vec::new();
            if rng.gen_bool() {
                let mut until = SimTime::ZERO;
                while until < deadline {
                    until += SimTime::from_ms(rng.gen_range(1u64..60));
                    cuts.push(until.min(deadline));
                }
            } else {
                cuts.push(deadline);
            }

            let expanded = expand(&plan);
            let grouped = session(&cfg, quantum, plan, &cuts);
            let single = session(&cfg, quantum, expanded, &cuts);
            assert_eq!(grouped.calls.len(), single.calls.len(), "calls made");
            for (k, (g, s)) in grouped.calls.iter().zip(&single.calls).enumerate() {
                assert_eq!(g.0, s.0, "totals of call {k}");
                assert_eq!(expand(&g.1), s.1, "leftovers of call {k}");
            }
            // Debug text, because a corrupted sample is NaN, equal to nothing.
            let text = |views: &[SystemView]| format!("{views:?}");
            assert!(
                text(&grouped.views) == text(&single.views),
                "the views differ"
            );
            let (a, b) = (&grouped.machine, &single.machine);
            assert_eq!(a.num_threads(), b.num_threads());
            for t in a.thread_ids() {
                assert_eq!(a.app_of(t), b.app_of(t), "{t:?}");
                assert_eq!(a.spawn_time(t), b.spawn_time(t), "{t:?}");
                assert_eq!(a.finish_time(t), b.finish_time(t), "{t:?}");
                assert_eq!(a.counters(t), b.counters(t), "{t:?}");
            }
        },
    );
}
