//! # dike-experiments — drivers reproducing every table and figure
//!
//! One module per experiment; each produces the same rows/series the paper
//! reports and is exercised by a binary (`cargo run -p dike-experiments
//! --release --bin figN`). Figures 6–8 and Table III share one comparison
//! run ([`fig6::run_subset_pool`]) and one binary, `fig6`, as they share
//! one set of runs in the paper. The `*_pool` drivers take their
//! [`dike_util::Pool`] from the caller; the binaries pass
//! `Pool::from_env()`. See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured values.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig1`] | Figure 1 — standalone vs concurrent slowdown |
//! | [`fig2`] | Figure 2 — optimal/default/worst configurations |
//! | [`fig4`] | Figure 4 — configuration heatmaps |
//! | [`fig5`] | Figure 5 — per-class optimisation contours |
//! | [`fig6`] | Figure 6 — fairness & performance comparison |
//! | [`fig7`] | Figure 7 — prediction error per workload |
//! | [`fig8`] | Figure 8 — prediction-error traces |
//! | [`table3`] | Table III — swap counts |
//! | [`ablations`] | DESIGN.md §5 design-choice ablations |
//! | [`scale`] | beyond-paper: 40/160/320-vcore NUMA scale sweep |
//! | [`open`] | beyond-paper: open-system arrivals/departures |
//! | [`fleet`] | beyond-paper: fleet-scale multi-tenancy roll-up |
//! | [`failover`] | beyond-paper: fleet fault tolerance (crash/brownout sweep) |
//! | [`robustness`] | beyond-paper: fault-injection degradation curves |
//! | [`cachepart`] | beyond-paper: LLC way-partitioning actuator comparison |
//!
//! [`roster`] is the shared `SchedKind → scheduler` constructor all of the
//! above build policies through.

pub mod ablations;
pub mod cachepart;
pub mod cli;
pub mod failover;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod open;
pub mod robustness;
pub mod roster;
pub mod runner;
pub mod scale;
pub mod sweep;
pub mod table3;

pub use roster::PolicyHandle;
pub use runner::{run_cell, run_cell_with, CellResult, RunOptions, SchedKind};
