//! # dike-util — the repo's zero-dependency utility subsystem
//!
//! A reproduction whose headline claim is *determinism* of the simulated
//! machine should own its randomness and serialization rather than pull
//! them from a registry. This crate replaces every external dependency the
//! workspace used to have, so `cargo build --offline` works from a clean
//! checkout with no network and no vendored sources:
//!
//! * [`rng`] — deterministic SplitMix64 seeder + PCG32 stream with
//!   `gen_range`/`shuffle`/`choose`/`sample` (replaces `rand`/`rand_pcg`);
//! * [`json`] — a small writer-based serializer behind the derive-free
//!   [`json::ToJson`] trait, with a `macro_rules!` helper for structs,
//!   and a recursive-descent parser into a [`json::Value`] tree (replaces
//!   `serde`/`serde_json`; nothing decodes typed values, because every
//!   kept document is compared as text);
//! * [`check`] — a seeded property-testing harness, shrinking-free but
//!   with the failing seed reported for exact reproduction (replaces
//!   `proptest`);
//! * [`alloc`] — a counting `GlobalAlloc` wrapper for tests that assert
//!   allocation behaviour (e.g. the zero-allocation steady-state claim of
//!   the driver's scratch-buffer core);
//! * [`pool`] — a std-only work-sharing thread pool with deterministic
//!   result ordering and a `DIKE_THREADS` environment override (replaces
//!   `rayon` for the experiment drivers' embarrassingly parallel maps).
//!
//! The RNG stream and the JSON output shape are frozen by golden tests in
//! `tests/`: any change to either is a breaking change for recorded
//! experiment fixtures and seeded test expectations.

pub mod alloc;
pub mod check;
pub mod json;
pub mod pool;
pub mod rng;

pub use alloc::CountingAllocator;
pub use json::{JsonError, ToJson, Value};
pub use pool::Pool;
pub use rng::{Pcg32, SliceRandom};
