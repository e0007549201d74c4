//! Dike's configuration: the paper's tunables in one place.

use dike_machine::SimTime;
use dike_util::json_struct;

/// The adaptation goal of the Optimizer (Section III-F): the user's
/// preference for fairness or throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptationGoal {
    /// Favour fairness (Dike-AF).
    Fairness,
    /// Favour performance (Dike-AP).
    Performance,
}

/// How the Observer estimates `CoreBW`, the per-core bandwidth used by the
/// Predictor as "the expected access rate of a thread migrated there".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreBwEstimate {
    /// The paper's literal definition: the moving mean of each core's
    /// served bandwidth over its whole execution. With this estimator a
    /// candidate swap's total profit (Eqn 3) is a near-zero-mean quantity
    /// perturbed by phase noise, minus the overhead term — so swaps fire
    /// stochastically *while placement violators exist* and stop when they
    /// vanish. That reproduces Table III's class pattern (B ≈ tens of
    /// swaps, UC ≈ thousands, UM ≈ hundreds). Default.
    PerCoreMean,
    /// Demand-gated capability estimate: a core's bandwidth is only
    /// sampled in quanta when it hosts a memory-classified thread, with a
    /// frequency-class fallback for cores lacking history. An ablation,
    /// and not a quieter Dike: every core's estimate is then its
    /// bandwidth under memory demand, above the rate of nearly every
    /// thread the Selector pairs, so a pair's predicted profit (Eqn 3) is
    /// almost always positive, the Decider almost never rejects on profit,
    /// and the variant swaps about as often as no-prediction, more than
    /// [`CoreBwEstimate::PerCoreMean`].
    DemandGated,
}

/// How the Observer ranks cores into higher/lower memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRanking {
    /// Rank by core frequency: the paper's fast (TurboBoost) socket is its
    /// high-bandwidth half. Static, robust, and matches the paper's
    /// description of the testbed. Default.
    Frequency,
    /// Rank by each core's observed served bandwidth (moving mean): fully
    /// dynamic, as sketched in Section III-A ("a core may become
    /// low-bandwidth due to contention"). Provided as an ablation; with one
    /// thread per core the observed bandwidth mostly reflects the occupant
    /// rather than the core, which makes this ranking noisier.
    ObservedBandwidth,
}

/// The paper's `quantaLength` menu (Section III-F): 100/200/500/1000 ms.
pub const QUANTA_LADDER_MS: [u64; 4] = [100, 200, 500, 1000];

/// Bounds of the `swapSize` range: even numbers from 2 to 16.
pub const SWAP_SIZE_MIN: u32 = 2;
/// Upper bound of `swapSize` (Algorithm 2 caps at 16).
pub const SWAP_SIZE_MAX: u32 = 16;

/// A scheduler configuration ⟨swapSize, quantaLength⟩ — the pair Figure 4's
/// heatmaps sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedConfig {
    /// Number of *threads* to swap per quantum (pairs = `swap_size / 2`).
    pub swap_size: u32,
    /// Time between scheduling decisions, in milliseconds.
    pub quantum_ms: u64,
}

json_struct!(SchedConfig {
    swap_size,
    quantum_ms,
});

impl SchedConfig {
    /// The paper's default configuration ⟨8, 500⟩.
    pub const DEFAULT: SchedConfig = SchedConfig {
        swap_size: 8,
        quantum_ms: 500,
    };

    /// All 32 configurations of the paper's grid (8 swap sizes × 4 quanta).
    pub fn grid() -> Vec<SchedConfig> {
        let mut out = Vec::with_capacity(32);
        for &quantum_ms in &QUANTA_LADDER_MS {
            for swap_size in (SWAP_SIZE_MIN..=SWAP_SIZE_MAX).step_by(2) {
                out.push(SchedConfig {
                    swap_size,
                    quantum_ms,
                });
            }
        }
        out
    }

    /// Number of thread pairs to swap per quantum.
    pub fn pairs(&self) -> usize {
        (self.swap_size / 2) as usize
    }

    /// The quantum as [`SimTime`].
    pub fn quantum(&self) -> SimTime {
        SimTime::from_ms(self.quantum_ms)
    }

    /// Validate against the paper's ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.swap_size < SWAP_SIZE_MIN
            || self.swap_size > SWAP_SIZE_MAX
            || !self.swap_size.is_multiple_of(2)
        {
            return Err(format!(
                "swap_size must be an even number in [{SWAP_SIZE_MIN},{SWAP_SIZE_MAX}], got {}",
                self.swap_size
            ));
        }
        if !QUANTA_LADDER_MS.contains(&self.quantum_ms) {
            return Err(format!(
                "quantum_ms must be one of {QUANTA_LADDER_MS:?}, got {}",
                self.quantum_ms
            ));
        }
        Ok(())
    }

    /// Index of the quantum on the ladder.
    pub(crate) fn quantum_rung(&self) -> usize {
        QUANTA_LADDER_MS
            .iter()
            .position(|&q| q == self.quantum_ms)
            .expect("validated quantum is on the ladder")
    }

    /// One rung shorter on the quantum ladder, clamped at `floor_ms`.
    pub fn decrease_quantum(&mut self, floor_ms: u64) {
        let rung = self.quantum_rung();
        if rung > 0 && QUANTA_LADDER_MS[rung - 1] >= floor_ms {
            self.quantum_ms = QUANTA_LADDER_MS[rung - 1];
        }
    }

    /// One rung longer on the quantum ladder, clamped at `cap_ms`.
    pub fn increase_quantum(&mut self, cap_ms: u64) {
        let rung = self.quantum_rung();
        if rung + 1 < QUANTA_LADDER_MS.len() && QUANTA_LADDER_MS[rung + 1] <= cap_ms {
            self.quantum_ms = QUANTA_LADDER_MS[rung + 1];
        }
    }

    /// `swapSize = min(swapSize + 2, SWAP_SIZE_MAX)` (Algorithm 2).
    pub fn increase_swap_size(&mut self) {
        self.swap_size = (self.swap_size + 2).min(SWAP_SIZE_MAX);
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::DEFAULT
    }
}

/// LLC-miss-rate boundary separating memory- from compute-intensive
/// threads. The paper fixes it at 10 %, following Xie & Loh.
pub const CLASSIFY_BOUNDARY: f64 = 0.10;

/// Assumed per-swap overhead (the paper's `swapOH`) in Eqn 2's overhead
/// term, in milliseconds. The paper leaves it to profilers and treats
/// residual error as closed-loop noise; it is the machine model's
/// migration dead time.
pub const SWAP_OH_MS: f64 = 3.0;

/// Workload classification bands on the observed fraction of
/// memory-intensive threads: below `UC_BAND` is UC, above [`UM_BAND`] is
/// UM, between is B. Asymmetric so that a moderate communication-bound
/// background app (KMEANS classifies compute) does not flip the class.
pub const UC_BAND: f64 = 0.30;
/// Upper classification band; see [`UC_BAND`].
pub const UM_BAND: f64 = 0.50;

// The hardened pipeline's fixed values (DESIGN.md §11), read only when
// `DikeConfig::hardened` is set.

/// Quanta a thread's last good sample may be held over when its current
/// sample is missing or implausible, before the thread is treated as
/// unknown (zero rates, zero confidence).
pub const HOLDOVER_AGE_CAP: u32 = 4;
/// Per-quantum decay of sample confidence while holding over: after `k`
/// quanta on stale data, confidence is `CONFIDENCE_DECAY^k`.
pub const CONFIDENCE_DECAY: f64 = 0.5;
/// Minimum pair confidence (the lower of the two members') for the
/// Decider to accept a swap; below it the pair is rejected outright. It
/// sits above the first decay step (0.5), so held-over threads inform the
/// fairness estimates but are never themselves actuation-eligible: moving
/// a thread on stale placement data is worse than leaving it put.
pub const MIN_CONFIDENCE: f64 = 0.6;
/// Physical upper bound on a believable per-thread access rate, in
/// accesses/s; anything above it is a corrupted (saturated) reading. The
/// paper machine's controller peaks at 4e8, and an order of magnitude
/// above that is unreachable by any real thread.
pub const MAX_PLAUSIBLE_RATE: f64 = 4e9;
/// Re-issues allowed per unconfirmed swap before abandoning it
/// (`sched_core::SwapPlanner`'s retry budget).
pub const RETRY_BUDGET: u32 = 3;
/// Quanta an abandoned swap's members stay under substrate (CFS-like)
/// placement before Dike may pair them again.
pub const FALLBACK_COOLDOWN_QUANTA: u64 = 8;

/// Full Dike configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DikeConfig {
    /// Initial ⟨swapSize, quantaLength⟩ (the paper's default is ⟨8, 500⟩).
    pub sched: SchedConfig,
    /// Fairness threshold θ_f on the coefficient of variation of thread
    /// access rates (paper default 0.1). Below it, the quantum is skipped.
    pub fairness_threshold: f64,
    /// Adaptation goal; `None` = the non-adaptive "Dike" policy.
    pub adaptation: Option<AdaptationGoal>,
    /// How cores are ranked into high/low bandwidth.
    pub core_ranking: CoreRanking,
    /// How `CoreBW` is estimated.
    pub core_bw_estimate: CoreBwEstimate,
    /// Skip threads swapped in the previous quantum (the paper's Decider
    /// cooldown). Disable only for the ablation benchmark.
    pub cooldown: bool,
    /// Reject pairs with negative predicted total profit. Disable only for
    /// the "Dike minus predictor" ablation.
    pub use_prediction: bool,
    /// Run the graceful-degradation pipeline (sanitize → holdover →
    /// retry/backoff → demotion) at its fixed values ([`HOLDOVER_AGE_CAP`]
    /// and the rest); `false` (the default) keeps the paper-faithful
    /// trusting pipeline.
    pub hardened: bool,
}

impl Default for DikeConfig {
    fn default() -> Self {
        DikeConfig {
            sched: SchedConfig::DEFAULT,
            fairness_threshold: 0.1,
            adaptation: None,
            core_ranking: CoreRanking::Frequency,
            core_bw_estimate: CoreBwEstimate::PerCoreMean,
            cooldown: true,
            use_prediction: true,
            hardened: false,
        }
    }
}

impl DikeConfig {
    /// The non-adaptive default ("Dike" in the paper's figures).
    pub fn fixed(sched: SchedConfig) -> Self {
        DikeConfig {
            sched,
            ..DikeConfig::default()
        }
    }

    /// Dike-AF: adaptive, favouring fairness.
    pub fn adaptive_fairness() -> Self {
        DikeConfig {
            adaptation: Some(AdaptationGoal::Fairness),
            ..DikeConfig::default()
        }
    }

    /// Dike-AP: adaptive, favouring performance.
    pub fn adaptive_performance() -> Self {
        DikeConfig {
            adaptation: Some(AdaptationGoal::Performance),
            ..DikeConfig::default()
        }
    }

    /// The hardened non-adaptive policy ("Dike-H"): the default pipeline
    /// plus the full degradation ladder (sanitize → holdover → retry/
    /// backoff → demotion).
    pub fn hardened(sched: SchedConfig) -> Self {
        DikeConfig {
            sched,
            hardened: true,
            ..DikeConfig::default()
        }
    }

    /// Validate.
    pub fn validate(&self) -> Result<(), String> {
        self.sched.validate()?;
        if !(self.fairness_threshold > 0.0) {
            return Err("fairness_threshold must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_32_valid_configs() {
        let grid = SchedConfig::grid();
        assert_eq!(grid.len(), 32);
        for c in &grid {
            c.validate().unwrap();
        }
        // All distinct.
        let mut set = std::collections::HashSet::new();
        for c in &grid {
            assert!(set.insert((c.swap_size, c.quantum_ms)));
        }
    }

    #[test]
    fn default_is_the_papers_median_config() {
        let d = SchedConfig::default();
        assert_eq!(d.swap_size, 8);
        assert_eq!(d.quantum_ms, 500);
        assert_eq!(d.pairs(), 4);
        assert_eq!(d.quantum(), SimTime::from_ms(500));
    }

    #[test]
    fn ladder_moves_respect_floors_and_caps() {
        let mut c = SchedConfig::DEFAULT; // 500ms
        c.decrease_quantum(100);
        assert_eq!(c.quantum_ms, 200);
        c.decrease_quantum(200);
        assert_eq!(c.quantum_ms, 200); // floor reached
        c.decrease_quantum(100);
        assert_eq!(c.quantum_ms, 100);
        c.decrease_quantum(100);
        assert_eq!(c.quantum_ms, 100); // bottom of ladder
        c.increase_quantum(1000);
        assert_eq!(c.quantum_ms, 200);
        c.increase_quantum(200);
        assert_eq!(c.quantum_ms, 200); // cap reached
    }

    #[test]
    fn swap_size_moves_clamp() {
        let mut c = SchedConfig {
            swap_size: 14,
            quantum_ms: 500,
        };
        c.increase_swap_size();
        assert_eq!(c.swap_size, 16);
        c.increase_swap_size();
        assert_eq!(c.swap_size, 16);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(SchedConfig {
            swap_size: 3,
            quantum_ms: 500
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            swap_size: 18,
            quantum_ms: 500
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            swap_size: 8,
            quantum_ms: 300
        }
        .validate()
        .is_err());
    }

    #[test]
    fn dike_config_presets_validate() {
        assert!(DikeConfig::default().validate().is_ok());
        assert!(DikeConfig::adaptive_fairness().validate().is_ok());
        assert!(DikeConfig::adaptive_performance().validate().is_ok());
        assert_eq!(
            DikeConfig::adaptive_fairness().adaptation,
            Some(AdaptationGoal::Fairness)
        );
        assert_eq!(
            DikeConfig::adaptive_performance().adaptation,
            Some(AdaptationGoal::Performance)
        );
        assert_eq!(DikeConfig::default().adaptation, None);
    }

    #[test]
    fn hardened_preset_validates_and_defaults_are_sane() {
        let c = DikeConfig::hardened(SchedConfig::DEFAULT);
        assert!(c.validate().is_ok());
        assert!(c.hardened);
        // Plain presets stay unhardened (paper-faithful).
        assert!(!DikeConfig::default().hardened);
        assert!(!DikeConfig::adaptive_fairness().hardened);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // exercising one bad field at a time
    fn dike_config_validation_rejects_nonsense() {
        let mut c = DikeConfig::default();
        c.fairness_threshold = 0.0;
        assert!(c.validate().is_err());
        let mut c = DikeConfig::default();
        c.fairness_threshold = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = DikeConfig::default();
        c.sched.quantum_ms = 300;
        assert!(c.validate().is_err());
    }
}
