//! # dike-fleet — fleet-scale multi-tenancy over independent machines
//!
//! Everything below the fleet layer simulates *one* machine. Real
//! consolidated deployments run thousands, with tenants' jobs arriving
//! at a dispatcher that must pick a machine for each. This crate models
//! that layer while preserving the workspace's two core contracts:
//!
//! * **Determinism** — a fleet run is a pure function of its
//!   [`FleetConfig`]. Routing reads only the arrival stream and, at epoch
//!   barriers, machine health, so machines never communicate inside an
//!   epoch and fan out over [`dike_util::Pool`] workers with
//!   byte-identical output at any `DIKE_THREADS`.
//! * **Paper metrics** — per-tenant fairness is the windowed Eqn-4
//!   reduction from [`dike_metrics::windowed`], computed over the merged
//!   fleet-wide span set; with one machine the roll-up equals the
//!   single-machine value exactly.
//!
//! Pipeline: [`config`] describes machines + tenants → [`failover`] runs
//! the fleet's one loop, epoch by epoch, routing each epoch's arrivals
//! with the [`dispatch`] router (least-loaded, vcore-normalised,
//! home-affinity bonus) or the health-aware one, and rolls the machines
//! up. [`run`] is that loop's one-epoch, fault-free case.
//!
//! [`dispatch`]: mod@dispatch
//! [`run`]: mod@run

pub mod config;
pub mod dispatch;
pub mod failover;
pub mod run;

pub use config::{DispatchConfig, FleetConfig, TenantSpec};
pub use dispatch::{dispatch, home_machine, tenant_traces, DispatchPlan};
pub use failover::{FailoverConfig, FailoverMachineSummary, FailoverResult, FailoverTenantPoint};
pub use run::{FleetResult, FleetRunner, MachineSummary, TenantPoint};
