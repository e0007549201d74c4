//! Engine replay: time the machine layer alone by re-running a closed,
//! fault-free run's actuation against a fresh machine.
//!
//! The driver's closed loop is `run_for(step)`, observe, decide, then
//! apply the policy's migrations, partition plan and quantum change.
//! Observation only reads the machine, so replaying the logged actions in
//! the same order reproduces the driven run bit for bit; [`replay`]
//! checks that it did, thread by thread.

use crate::trace::QuantumLog;
use dike_machine::{Machine, SimTime};
use dike_sched_core::RunResult;
use std::time::{Duration, Instant};

/// What the replay measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTime {
    /// Host time inside `Machine::run_for`.
    pub engine: Duration,
    /// Quanta replayed (equals the driven run's count).
    pub quanta: u64,
    /// Simulated vcore-ticks: vcores × ticks advanced.
    pub vcore_ticks: u64,
}

impl std::ops::AddAssign for EngineTime {
    fn add_assign(&mut self, other: EngineTime) {
        self.engine += other.engine;
        self.quanta += other.quanta;
        self.vcore_ticks += other.vcore_ticks;
    }
}

/// Replay `log` on `machine` (freshly built and spawned exactly as the
/// driven run's was) and check every thread ends with the driven run's
/// counters and finish time.
///
/// # Errors
/// A description of the first divergence from `driven`.
pub fn replay(
    machine: &mut Machine,
    initial_quantum: SimTime,
    deadline: SimTime,
    log: &[QuantumLog],
    driven: &RunResult,
) -> Result<EngineTime, String> {
    let tick = machine.config().tick_us;
    let vcores = machine.config().topology.num_vcores() as u64;
    // The driver's own clamp: at least one tick, a whole number of ticks.
    let clamp = |q: SimTime| {
        let us = q.as_us().max(tick);
        SimTime::from_us(us - us % tick)
    };
    let mut quantum = clamp(initial_quantum);
    let mut engine = Duration::ZERO;
    let mut quanta = 0u64;
    let mut entries = log.iter();
    while machine.now() < deadline && !machine.all_done() {
        let remaining = deadline.saturating_sub(machine.now());
        let step = clamp(if quantum.as_us() < remaining.as_us() {
            quantum
        } else {
            remaining
        });
        let start = Instant::now();
        machine.run_for(step);
        engine += start.elapsed();
        quanta += 1;
        if machine.all_done() {
            break;
        }
        let entry = entries
            .next()
            .ok_or_else(|| format!("replay ran past the log at quantum {quanta}"))?;
        for &(t, v) in &entry.migrations {
            machine.migrate(t, v);
        }
        if let Some(plan) = &entry.partition {
            // The driver drops an invalid plan the same way.
            let _ = machine.apply_partition(plan);
        }
        if let Some(q) = entry.set_quantum {
            quantum = clamp(q);
        }
    }
    if entries.next().is_some() {
        return Err(format!("replay ended after {quanta} quanta, log is longer"));
    }
    if quanta != driven.quanta || machine.now() != driven.wall {
        return Err(format!(
            "replay ran {quanta} quanta to {}, driven run {} to {}",
            machine.now(),
            driven.quanta,
            driven.wall
        ));
    }
    if machine.num_threads() != driven.threads.len() {
        return Err("thread count differs".into());
    }
    for t in &driven.threads {
        if machine.counters(t.id) != t.counters || machine.finish_time(t.id) != t.finished_at {
            return Err(format!("thread {} diverged", t.id.0));
        }
    }
    Ok(EngineTime {
        engine,
        quanta,
        vcore_ticks: vcores * (machine.now().as_us() / tick),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TimedScheduler;
    use dike_experiments::{PolicyHandle, RunOptions, SchedKind};
    use dike_machine::presets;
    use dike_sched_core::{run_with, Scheduler};
    use dike_workloads::paper;

    /// Drive WL1 on the paper machine under `kind`, then replay it.
    fn drive_and_replay(kind: SchedKind) -> (RunResult, Result<EngineTime, String>) {
        let opts = RunOptions {
            scale: 0.05,
            deadline_s: 120.0,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(opts.seed);
        let wl = paper::workload(1);
        let build = || {
            let mut m = Machine::new(cfg.clone());
            wl.spawn(&mut m, opts.placement, opts.scale);
            m
        };
        let deadline = SimTime::from_secs_f64(opts.deadline_s);
        let mut machine = build();
        let mut timed = TimedScheduler::logging(PolicyHandle::build(&kind, &cfg.llc));
        let initial = timed.initial_quantum();
        let driven = run_with(&mut machine, &mut timed, deadline, |_| {});
        let replayed = replay(&mut build(), initial, deadline, timed.log(), &driven);
        (driven, replayed)
    }

    #[test]
    fn replay_is_bit_exact_when_the_quantum_changes() {
        let (driven, replayed) = drive_and_replay(SchedKind::DikeAf);
        let e = replayed.expect("Dike-AF replay");
        assert_eq!(e.quanta, driven.quanta);
        assert!(driven.swaps > 0, "the policy must actually act");
    }

    #[test]
    fn replay_is_bit_exact_for_cfs() {
        let (driven, replayed) = drive_and_replay(SchedKind::Cfs);
        assert_eq!(replayed.expect("CFS replay").quanta, driven.quanta);
    }

    #[test]
    fn replay_catches_a_changed_action() {
        let opts = RunOptions {
            scale: 0.05,
            ..RunOptions::default()
        };
        let cfg = presets::paper_machine(opts.seed);
        let wl = paper::workload(1);
        let build = || {
            let mut m = Machine::new(cfg.clone());
            wl.spawn(&mut m, opts.placement, opts.scale);
            m
        };
        let deadline = SimTime::from_secs_f64(120.0);
        let mut timed = TimedScheduler::logging(PolicyHandle::build(
            &SchedKind::Dike(dike_scheduler::SchedConfig::DEFAULT),
            &cfg.llc,
        ));
        let initial = timed.initial_quantum();
        let driven = run_with(&mut build(), &mut timed, deadline, |_| {});
        let mut log = timed.log().to_vec();
        let k = log
            .iter()
            .position(|q| !q.migrations.is_empty())
            .expect("Dike swaps on WL1");
        log[k].migrations.clear();
        assert!(replay(&mut build(), initial, deadline, &log, &driven).is_err());
    }
}
