//! # dike-metrics — evaluation metrics for contention-aware scheduling
//!
//! Implements the quantities the paper reports:
//!
//! * **Fairness** (Eqn 4): `1 − mean per-app coefficient of variation` of
//!   homogeneous threads' runtimes — [`RuntimeMatrix::fairness`];
//! * **Performance**: speedups and runtime aggregates;
//! * **Prediction error** summaries (Figures 7/8) via [`Summary`] and
//!   [`TimeSeries`];
//! * plain-text/CSV table rendering for the experiment binaries.

pub mod conservation;
pub mod fairness;
pub mod stats;
pub mod table;
pub mod timeseries;
pub mod windowed;

pub use conservation::ConservationLedger;
pub use fairness::{relative_improvement, speedup, RuntimeMatrix};
pub use stats::{coefficient_of_variation, geometric_mean, mean, std_dev, Summary};
pub use table::{pct, ratio, TextTable};
pub use timeseries::TimeSeries;
pub use windowed::{
    mean_sojourn, sojourn_by_app, window_series, SojournTotals, ThreadSpan, WindowPoint,
};
