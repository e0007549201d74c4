//! # dike-counters — performance-counter plumbing for contention-aware scheduling
//!
//! The paper's Observer "keeps track of memory access rate per thread by
//! reading hardware performance counters". This crate contains the
//! machine-independent half of that observation pipeline:
//!
//! * [`RateSample`] — per-quantum rates (access rate, instruction rate,
//!   miss ratio, IPC) derived from raw counter deltas;
//! * [`MovingMean`] — the paper's `CoreBW` estimator, a cumulative mean
//!   of each core's bandwidth.
//!
//! The machine-dependent half (how counters are read from the simulated
//! hardware each quantum) lives in `dike-sched-core`.

pub mod estimators;
pub mod rates;

pub use estimators::MovingMean;
pub use rates::RateSample;
