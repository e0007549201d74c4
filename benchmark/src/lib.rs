//! # dike-benchmark — end-to-end and per-layer benchmark
//!
//! One binary, `benchmark`, runs one of four workloads per process on a
//! one-worker pool and prints every metric by name with its unit. Untraced
//! runs report the end-to-end metrics; `--trace 1` runs traced laps that
//! time each layer from outside, through its public entry points. See
//! `README.md` for the workloads, the metrics and the layer map.

pub mod bench;
pub mod compare;
mod replay;
mod stats;
pub mod trace;
pub mod workloads;
