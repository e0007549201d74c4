//! # dike-workloads — application models and the paper's workload suite
//!
//! The paper evaluates Dike with Rodinia OpenMP benchmarks arranged into
//! sixteen four-app workloads (Table II), each accompanied by a KMEANS
//! background instance, at 8 threads per app (40 threads = the paper
//! machine's 40 virtual cores). This crate provides:
//!
//! * [`AppKind`] — phase-structured models of the ten applications, with
//!   the memory/compute-intensive split implied by Table II, and
//!   [`ProgramTable`], their programs at one scale, built once per run
//!   and shared by every thread spec;
//! * [`Workload`] / [`WorkloadClass`] — multi-app mixes and the paper's
//!   B/UC/UM classification;
//! * [`paper`] — WL1..=WL16 exactly as in Table II;
//! * [`generator`] — seeded random workloads for property tests and
//!   stress benchmarks;
//! * [`Placement`] — initial thread placements (the interleaved placement
//!   models what a contention-oblivious balancer converges to).

pub mod apps;
pub mod arrival;
pub mod generator;
pub mod paper;
pub mod workload;

pub use apps::{AppClass, AppKind, ProgramTable};
pub use arrival::{ArrivalConfig, ArrivalEvent, ArrivalTrace, MergedArrival};
pub use generator::{random_workload, GeneratorConfig};
pub use workload::{Placement, SpawnedWorkload, Workload, WorkloadClass};
