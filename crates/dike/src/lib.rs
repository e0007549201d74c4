//! # dike-scheduler — the paper's contribution
//!
//! Dike is a software-level contention-aware scheduler for heterogeneous
//! multicores that provides fairness (threads of one application finish
//! together) and performance without hardware support or offline training.
//! Execution is divided into quanta; each quantum runs the loop of the
//! paper's Figure 3:
//!
//! 1. **[`observer::Observer`]** reads per-thread memory access rates from
//!    hardware counters, classifies threads memory-/compute-intensive at
//!    the 10 % LLC-miss-rate boundary, and maintains per-core `CoreBW`
//!    moving means.
//! 2. **[`selector`]** (Algorithm 1) gates on the coefficient of variation
//!    of access rates (θ_f = 0.1) and pairs low-access threads on
//!    high-bandwidth cores with high-access threads on low-bandwidth cores.
//! 3. **[`predictor::Predictor`]** (Eqns 1–3) estimates each swap's profit
//!    from `CoreBW` and current rates, charging the migration overhead —
//!    and closes the loop by scoring its own predictions every quantum.
//! 4. **[`decider`]** rejects pairs swapped last quantum (cooldown) and
//!    pairs with non-positive total profit.
//! 5. The **Migrator** applies accepted swaps as pairwise affinity changes
//!    (via [`dike_sched_core::Actions::swap`]).
//! 6. **[`optimizer`]** (Algorithm 2, adaptive modes only) walks
//!    ⟨swapSize, quantaLength⟩ one unit per quantum toward the per-class
//!    optimum for the user's fairness/performance goal.
//!
//! ```
//! use dike_scheduler::Dike;
//! use dike_sched_core::run;
//! use dike_machine::{Machine, presets, SimTime};
//! use dike_workloads::{Workload, Placement, AppKind};
//!
//! let mut machine = Machine::new(presets::small_machine(42));
//! let mut workload = Workload::plain("demo", vec![AppKind::Jacobi, AppKind::Srad]);
//! workload.threads_per_app = 4;
//! workload.spawn(&mut machine, Placement::Interleaved, 0.005);
//!
//! let mut dike = Dike::new();
//! let result = run(&mut machine, &mut dike, SimTime::from_secs_f64(60.0));
//! assert!(result.completed);
//! ```

// Validators deliberately use `!(x > 0.0)`-style comparisons: they must
// reject NaN, which plain `x <= 0.0` would silently accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod config;
pub mod decider;
pub mod hybrid;
pub mod observer;
pub mod optimizer;
pub mod predictor;
pub mod scheduler;
pub mod selector;

pub use config::{AdaptationGoal, CoreBwEstimate, CoreRanking, DikeConfig, SchedConfig};
pub use hybrid::DikeLfoc;
pub use observer::{Observation, ObservedThread, Observer, ThreadClass};
pub use optimizer::WorkloadType;
pub use predictor::{ErrorSample, Predictor, SwapPrediction};
pub use scheduler::{Dike, DikeStats};
pub use selector::{select_pairs, select_pairs_flat_into, select_pairs_into, Pair, SelectScratch};
