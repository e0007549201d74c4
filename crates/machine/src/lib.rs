//! # dike-machine — a deterministic simulated heterogeneous multicore
//!
//! This crate is the hardware substrate of the Dike reproduction. The paper
//! evaluates its scheduler on a dual-socket Xeon E5 configured as a
//! heterogeneous machine (one socket at 2.33 GHz, one at 1.21 GHz, 2-way
//! SMT, a single memory controller and a 25 MiB shared LLC). That hardware
//! is replaced here by a tick-based simulation exposing exactly the
//! interface a contention-aware OS scheduler uses:
//!
//! * **observation** — per-thread hardware counters (instructions, LLC
//!   misses, cycles) and per-core bandwidth counters;
//! * **actuation** — thread-to-core affinity changes (migrations), with a
//!   realistic cost (dead time + cache warm-up).
//!
//! The contention mechanisms that drive the paper's results are modelled
//! explicitly: shared memory-controller bandwidth with queueing delay,
//! shared-LLC capacity pressure, SMT pipeline sharing, and heterogeneous
//! core frequencies. See `DESIGN.md` at the repository root for the mapping
//! from the paper's testbed to this model.
//!
//! ## Example
//!
//! ```
//! use dike_machine::{Machine, presets, Phase, PhaseProgram, ThreadSpec, AppId, VCoreId, SimTime};
//!
//! let mut machine = Machine::new(presets::small_machine(42));
//! let spec = ThreadSpec {
//!     app: AppId(0),
//!     program: PhaseProgram::single(Phase::steady(1.0, 20.0, 4.0, 1e6), 1e8).into(),
//!     barrier: None,
//! };
//! let t = machine.spawn(spec, VCoreId(0));
//! machine.run_for(SimTime::from_ms(100));
//! let counters = machine.counters(t);
//! assert!(counters.instructions > 0.0);
//! assert!(counters.llc_misses > 0.0);
//! ```

// Validators deliberately use `!(x > 0.0)`-style comparisons: they must
// reject NaN, which plain `x <= 0.0` would silently accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod config;
pub mod contention;
pub mod engine;
pub mod faults;
pub mod ids;
pub mod partition;
pub mod phase;
pub mod thread;
pub mod topology;

pub use config::{presets, LlcConfig, MachineConfig, MemoryConfig, MigrationConfig, SmtConfig};
pub use contention::{
    llc_inflation, llc_inflation_scaled, solve_memory, solve_memory_into, solve_memory_numa,
    solve_memory_numa_into, solve_memory_reference, DomainSolution, MemDemand, MemSolution,
    NumaDemand, NumaSolution, NumaWarmSolver,
};
pub use engine::Machine;
pub use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, MachineFaultConfig};
pub use ids::{AppId, BarrierId, DomainId, PCoreId, SimTime, ThreadId, VCoreId, MAX_SPAN_MS};
pub use partition::PartitionPlan;
pub use phase::{Phase, PhaseProgram, PhaseRepeat};
pub use thread::{BarrierSpec, CoreCounters, ThreadCounters, ThreadSpec};
