//! # dike-sched-core — the scheduler framework
//!
//! The paper observes that contention-aware schedulers share one structure:
//! "a performance monitor records thread progress … a predictor estimates
//! performance degradation … a decider chooses a thread-to-core mapping …
//! enforced by a scheduler". This crate is that shared skeleton:
//!
//! * [`SystemView`] / [`Actions`] — the observation/actuation contract
//!   (counter rates in, migrations + quantum changes out);
//! * [`Scheduler`] — the policy trait implemented by Dike, DIO and the
//!   baselines;
//! * [`drive`] — the quantum driver connecting a policy to a
//!   [`dike_machine::Machine`], the simulated analogue of a userspace
//!   scheduling daemon on a perf-counter timer. It takes a [`TimedSpawn`]
//!   plan, for open systems where threads arrive and depart mid-run, and
//!   returns the run's [`RunTotals`] with the work left undrained;
//! * [`run`] / [`run_with`] — its closed form: no plan, every thread
//!   spawned up front, the outcome collected into a [`RunResult`].

//! * [`SwapPlanner`] / [`PartitionPlanner`] — actuation verification:
//!   confirm that requested swaps and LLC partition plans actually
//!   landed, retry with backoff, fall back to substrate behaviour when
//!   the budget is exhausted.

pub mod actuation;
pub mod driver;
pub mod scheduler;
pub mod view;

pub use actuation::{ActuationReport, PartitionPlanner, SwapPlanner};
pub use driver::{drive, run, run_with, RunResult, RunTotals, ThreadResult, TimedSpawn};
pub use scheduler::{NullScheduler, Scheduler};
pub use view::{Actions, CoreObservation, SystemView, ThreadObservation};
