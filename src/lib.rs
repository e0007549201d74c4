//! # dike-repro — umbrella crate for the Dike reproduction
//!
//! Re-exports the whole workspace behind one dependency, hosting the
//! runnable examples in `examples/` and the cross-crate integration tests
//! in `tests/`. See the individual crates for the real APIs:
//!
//! * [`machine`] — the simulated heterogeneous multicore.
//! * `workloads` — Rodinia-style application models and the paper's WL1–16.
//! * `counters` — counter-rate plumbing and the `CoreBW` moving mean.
//! * `sched_core` — the scheduler framework and run loop.
//! * `dike` — the Dike scheduler (Observer/Selector/Predictor/Decider/
//!   Migrator/Optimizer).
//! * `baselines` — CFS stand-in, DIO, random, sort-once, LFOC.
//! * `metrics` — fairness/performance/prediction-error metrics.
//! * `experiments` — per-figure/table experiment drivers.
//! * `util` — in-tree RNG, JSON, property-check, allocation-counting and
//!   thread-pool support (keeps the build offline and dependency-free).

pub use dike_baselines as baselines;
pub use dike_counters as counters;
pub use dike_experiments as experiments;
pub use dike_machine as machine;
pub use dike_metrics as metrics;
pub use dike_sched_core as sched_core;
pub use dike_scheduler as dike;
pub use dike_util as util;
pub use dike_workloads as workloads;
