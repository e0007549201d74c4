//! The Dike scheduler: Observer → Selector → Predictor → Decider →
//! Migrator, plus the adaptive Optimizer (Figure 3's loop).

use crate::config::{
    AdaptationGoal, DikeConfig, SchedConfig, FALLBACK_COOLDOWN_QUANTA, MIN_CONFIDENCE, RETRY_BUDGET,
};
use crate::decider::{decide, Rejection};
use crate::observer::{Observation, Observer};
use crate::optimizer;
use crate::predictor::Predictor;
use crate::selector::{select_pairs_into, Pair, SelectScratch};
use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SwapPlanner, SystemView};
use std::collections::HashMap;

/// Counters describing what Dike did during a run (for tests, the swap
/// accounting of Table III, and the ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DikeStats {
    /// Quanta observed.
    pub quanta: u64,
    /// Quanta skipped because the system was fair (the Algorithm 1 gate).
    pub fair_quanta: u64,
    /// Pairs proposed by the Selector.
    pub pairs_proposed: u64,
    /// Pairs rejected by the Decider's cooldown rule.
    pub rejected_cooldown: u64,
    /// Pairs rejected for non-positive predicted profit.
    pub rejected_profit: u64,
    /// Swaps actually performed.
    pub swaps: u64,
    /// Optimizer steps taken (adaptive modes only).
    pub optimizer_steps: u64,
    /// Thread-quanta excluded from pairing because sample confidence was
    /// below the floor or the thread was in post-abandonment fallback
    /// (hardened pipeline only).
    pub rejected_low_confidence: u64,
    /// Unconfirmed-swap retries issued by the actuation planner
    /// (hardened pipeline only).
    pub swap_retries: u64,
    /// Swaps abandoned after exhausting the retry budget (hardened
    /// pipeline only).
    pub swaps_abandoned: u64,
    /// True once the watchdog demoted the policy to the Null/CFS floor
    /// (non-finite fairness estimates; hardened pipeline only).
    pub demoted: bool,
}

/// The Dike scheduler.
///
/// Construct with [`Dike::new`] (non-adaptive ⟨8, 500⟩ default),
/// [`Dike::adaptive_fairness`] (Dike-AF) or [`Dike::adaptive_performance`]
/// (Dike-AP), or from an explicit [`DikeConfig`] via [`Dike::with_config`].
#[derive(Debug)]
pub struct Dike {
    cfg: DikeConfig,
    sched: SchedConfig,
    observer: Option<Observer>,
    predictor: Predictor,
    stats: DikeStats,
    name: String,
    /// Actuation verification (hardened pipeline only).
    planner: Option<SwapPlanner>,
    /// Set by the watchdog: the policy has demoted itself to the
    /// Null/CFS floor and issues no further actions.
    demoted: bool,
    /// Reusable per-quantum observation.
    obs: Observation,
    /// Reusable actuation-eligible copy (hardened pipeline only).
    eligible: Observation,
    /// Reusable Selector output and scratch.
    pairs: Vec<Pair>,
    select_scratch: SelectScratch,
    /// Reusable accepted-swap prediction map (cleared each quantum;
    /// `HashMap::clear` retains capacity).
    swapped_predictions: HashMap<dike_machine::ThreadId, f64>,
}

impl Dike {
    /// The paper's non-adaptive "Dike": fixed ⟨swapSize 8, quantum 500 ms⟩.
    pub fn new() -> Self {
        Dike::with_config(DikeConfig::default())
    }

    /// Dike-AF: adaptive, favouring fairness.
    pub fn adaptive_fairness() -> Self {
        Dike::with_config(DikeConfig::adaptive_fairness())
    }

    /// Dike-AP: adaptive, favouring performance.
    pub fn adaptive_performance() -> Self {
        Dike::with_config(DikeConfig::adaptive_performance())
    }

    /// Non-adaptive Dike with an explicit ⟨swapSize, quantaLength⟩ (the
    /// configuration-grid experiments of Figures 2/4/5).
    pub fn fixed(sched: SchedConfig) -> Self {
        Dike::with_config(DikeConfig::fixed(sched))
    }

    /// Dike-H: the fault-hardened pipeline (sanitize → holdover →
    /// retry/backoff → watchdog demotion) at its fixed values.
    pub fn hardened() -> Self {
        Dike::with_config(DikeConfig::hardened(SchedConfig::DEFAULT))
    }

    /// Build from a full configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn with_config(cfg: DikeConfig) -> Self {
        cfg.validate().expect("invalid Dike configuration");
        let mut name = match cfg.adaptation {
            None => "Dike".to_string(),
            Some(AdaptationGoal::Fairness) => "Dike-AF".to_string(),
            Some(AdaptationGoal::Performance) => "Dike-AP".to_string(),
        };
        if cfg.hardened {
            name.push_str("-H");
        }
        Dike {
            sched: cfg.sched,
            predictor: Predictor::new(),
            observer: None,
            stats: DikeStats::default(),
            name,
            planner: cfg
                .hardened
                .then(|| SwapPlanner::new(RETRY_BUDGET, FALLBACK_COOLDOWN_QUANTA)),
            demoted: false,
            obs: Observation::default(),
            eligible: Observation::default(),
            pairs: Vec::new(),
            select_scratch: SelectScratch::default(),
            swapped_predictions: HashMap::new(),
            cfg,
        }
    }

    /// Run counters.
    pub fn stats(&self) -> DikeStats {
        self.stats
    }

    /// The current ⟨swapSize, quantaLength⟩ (changes in adaptive modes).
    pub fn current_config(&self) -> SchedConfig {
        self.sched
    }

    /// The Predictor's scored error samples (Figures 7/8).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// The full configuration.
    pub fn config(&self) -> &DikeConfig {
        &self.cfg
    }
}

impl Default for Dike {
    fn default() -> Self {
        Dike::new()
    }
}

impl Scheduler for Dike {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_quantum(&self) -> SimTime {
        self.sched.quantum()
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        self.stats.quanta += 1;

        // Watchdog floor: once demoted, behave exactly like the Null/CFS
        // policy — observe nothing, request nothing, let the substrate's
        // load balancing place threads.
        if self.demoted {
            return;
        }

        // Actuation verification (hardened pipeline): confirm that last
        // quantum's swaps landed; retry with exponential backoff, or pull
        // the pair out of Dike's hands (fallback) once the budget is spent.
        if let Some(planner) = &mut self.planner {
            let report = planner.verify(view, actions, view.quantum_index);
            self.stats.swap_retries += u64::from(report.retried);
            self.stats.swaps_abandoned += u64::from(report.abandoned);
        }

        let observer = self
            .observer
            .get_or_insert_with(|| Observer::new(&self.cfg, view.cores.len()));
        observer.observe_into(view, &mut self.obs);
        let obs = &self.obs;

        // Watchdog (hardened pipeline): if the fairness estimates go
        // non-finite despite sanitization, the policy cannot be trusted —
        // demote permanently to the Null/CFS floor.
        if self.planner.is_some()
            && (!obs.fairness_cv.is_finite()
                || !obs.memory_fraction.is_finite()
                || obs.core_bw.iter().any(|b| !b.is_finite()))
        {
            self.demoted = true;
            self.stats.demoted = true;
            return;
        }

        // Close the prediction loop: score last quantum's predictions.
        self.predictor.score(obs, view.now);

        // Optimizer (adaptive modes): one unit of configuration movement.
        let before = self.sched;
        if optimizer::step(&self.cfg, obs, &mut self.sched).is_some() {
            self.stats.optimizer_steps += 1;
            if self.sched.quantum_ms != before.quantum_ms {
                actions.set_quantum = Some(self.sched.quantum());
            }
        }

        self.swapped_predictions.clear();

        // Fairness gate.
        if obs.is_fair(self.cfg.fairness_threshold) {
            self.stats.fair_quanta += 1;
            self.predictor.commit(&self.obs, &self.swapped_predictions);
            return;
        }

        // Selector → Predictor → Decider → Migrator.
        // Hardened pipeline: select pairs among actuation-eligible threads
        // only. Held-over threads (confidence below the floor) and members
        // of abandoned swaps (fallback) still inform the fairness and
        // bandwidth estimates above, but pairing them would either waste a
        // healthy partner's swap or move a thread on stale placement data.
        let pairs_from = if let Some(planner) = &self.planner {
            let q = view.quantum_index;
            self.obs.clone_into(&mut self.eligible);
            let stats = &mut self.stats;
            self.eligible.threads.retain(|t| {
                let keep = t.confidence >= MIN_CONFIDENCE && !planner.in_fallback(t.id, q);
                if !keep {
                    stats.rejected_low_confidence += 1;
                }
                keep
            });
            &self.eligible
        } else {
            &self.obs
        };
        select_pairs_into(
            pairs_from,
            self.sched.swap_size,
            self.cfg.fairness_threshold,
            &mut self.select_scratch,
            &mut self.pairs,
        );
        self.stats.pairs_proposed += self.pairs.len() as u64;
        let obs = &self.obs;
        for pair in &self.pairs {
            let prediction = self.predictor.evaluate(obs, pair, self.sched.quantum());
            match decide(
                obs,
                pair,
                &prediction,
                self.cfg.cooldown,
                self.cfg.use_prediction,
            ) {
                Ok(()) => {
                    actions.swap((pair.low, pair.low_vcore), (pair.high, pair.high_vcore));
                    if let Some(planner) = &mut self.planner {
                        planner.track(
                            (pair.low, pair.low_vcore),
                            (pair.high, pair.high_vcore),
                            view.quantum_index,
                        );
                    }
                    self.swapped_predictions
                        .insert(pair.low, prediction.predicted_low);
                    self.swapped_predictions
                        .insert(pair.high, prediction.predicted_high);
                    self.stats.swaps += 1;
                }
                Err(Rejection::Cooldown) => self.stats.rejected_cooldown += 1,
                Err(Rejection::NegativeProfit) => self.stats.rejected_profit += 1,
            }
        }

        // Commit next-quantum predictions for every thread.
        self.predictor.commit(&self.obs, &self.swapped_predictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine, SimTime};
    use dike_sched_core::{run, run_with};
    use dike_workloads::apps::AppKind;
    use dike_workloads::{Placement, Workload};

    fn small_workload() -> Workload {
        let mut w = Workload::plain("test", vec![AppKind::Jacobi, AppKind::Leukocyte]);
        w.threads_per_app = 4;
        w
    }

    fn run_dike(mut dike: Dike) -> (dike_sched_core::RunResult, Dike) {
        let mut machine = Machine::new(presets::small_machine(3));
        small_workload().spawn(&mut machine, Placement::Interleaved, 0.2);
        let result = run(&mut machine, &mut dike, SimTime::from_secs_f64(300.0));
        (result, dike)
    }

    #[test]
    fn dike_names_match_paper_policies() {
        assert_eq!(Dike::new().name(), "Dike");
        assert_eq!(Dike::adaptive_fairness().name(), "Dike-AF");
        assert_eq!(Dike::adaptive_performance().name(), "Dike-AP");
    }

    #[test]
    fn default_quantum_is_500ms() {
        assert_eq!(Dike::new().initial_quantum(), SimTime::from_ms(500));
        let custom = Dike::fixed(SchedConfig {
            swap_size: 4,
            quantum_ms: 100,
        });
        assert_eq!(custom.initial_quantum(), SimTime::from_ms(100));
    }

    #[test]
    fn dike_completes_a_mixed_workload_and_swaps_sparingly() {
        let (result, dike) = run_dike(Dike::new());
        assert!(result.completed, "workload did not finish");
        let stats = dike.stats();
        assert!(stats.quanta > 0);
        // Dike performs *some* swaps on an unfair mixed workload…
        assert!(stats.swaps > 0, "expected at least one swap: {stats:?}");
        // …but sparingly: nowhere near DIO's every-pair-every-quantum.
        assert!(
            stats.swaps < 2 * stats.quanta,
            "swapping like DIO: {stats:?}"
        );
        assert_eq!(result.swaps, stats.swaps);
    }

    #[test]
    fn prediction_errors_are_recorded_and_bounded() {
        let (_, dike) = run_dike(Dike::new());
        let errs = dike.predictor().error_values();
        assert!(!errs.is_empty(), "no prediction errors recorded");
        let wild = errs.iter().filter(|e| e.abs() > 2.0).count();
        assert!(
            (wild as f64) < 0.1 * errs.len() as f64,
            "too many wild errors: {wild}/{}",
            errs.len()
        );
    }

    #[test]
    fn adaptive_modes_move_the_configuration() {
        let (_, af) = run_dike(Dike::adaptive_fairness());
        assert!(af.stats().optimizer_steps > 0);
        assert!(af.current_config().quantum_ms < 500);

        let (_, ap) = run_dike(Dike::adaptive_performance());
        assert!(ap.stats().optimizer_steps > 0);
        assert_eq!(ap.current_config().quantum_ms, 1000);
    }

    #[test]
    fn non_adaptive_config_never_moves() {
        let (_, dike) = run_dike(Dike::new());
        assert_eq!(dike.current_config(), SchedConfig::DEFAULT);
        assert_eq!(dike.stats().optimizer_steps, 0);
    }

    #[test]
    fn cooldown_prevents_consecutive_swaps_of_same_thread() {
        // With prediction disabled every selector pair is accepted except
        // for the cooldown, so a thread moved after one quantum is not
        // moved after the next. Verify from the driver's per-quantum
        // views: no thread moved twice between two views, and none shows
        // a move in two consecutive views.
        let cfg = DikeConfig {
            use_prediction: false,
            ..DikeConfig::default()
        };
        let mut machine = Machine::new(presets::small_machine(3));
        small_workload().spawn(&mut machine, Placement::Interleaved, 0.2);
        let mut dike = Dike::with_config(cfg);
        // Per thread, at its last view: quantum index, cumulative
        // migrations, and whether it had just moved.
        let mut last: HashMap<u32, (u64, u64, bool)> = HashMap::new();
        let result = run_with(
            &mut machine,
            &mut dike,
            SimTime::from_secs_f64(120.0),
            |view| {
                for t in &view.threads {
                    let (q, moves) = (view.quantum_index, t.cumulative.migrations);
                    if let Some(&(prev_q, prev_moves, moved)) = last.get(&t.id.0) {
                        assert!(moves - prev_moves <= 1, "thread {} moved twice", t.id);
                        assert!(
                            !(moved && t.migrated_last_quantum && prev_q + 1 == q),
                            "thread {} moved in consecutive quanta",
                            t.id
                        );
                    }
                    last.insert(t.id.0, (q, moves, t.migrated_last_quantum));
                }
            },
        );
        assert!(result.swaps > 0, "the run must swap for the check to bite");
    }

    #[test]
    fn hardened_dike_matches_plain_dike_without_faults() {
        // With all fault rates zero the hardened pipeline must be
        // behaviourally identical to the paper-faithful one: sanitize is a
        // bit-identical passthrough, confidence is exactly 1.0, and every
        // swap lands and is confirmed on the next quantum. This holds on
        // `small_machine` because its substrate balancer is off; on
        // machines with the balancer enabled the two *legitimately*
        // diverge — the balancer races policy placement, plain Dike
        // silently loses those swaps, and Dike-H's planner re-issues them
        // (the actuation loop working as designed, not injection leakage).
        let (plain, pd) = run_dike(Dike::new());
        let (hard, hd) = run_dike(Dike::hardened());
        assert_eq!(hd.name(), "Dike-H");
        assert!(plain.completed && hard.completed);
        assert_eq!(plain.swaps, hard.swaps);
        assert_eq!(pd.stats().swaps, hd.stats().swaps);
        let hs = hd.stats();
        assert_eq!(hs.swap_retries, 0, "{hs:?}");
        assert_eq!(hs.swaps_abandoned, 0, "{hs:?}");
        assert_eq!(hs.rejected_low_confidence, 0, "{hs:?}");
        assert!(!hs.demoted);
    }

    fn hand_view(bandwidth: f64) -> dike_sched_core::SystemView {
        use dike_counters::RateSample;
        use dike_machine::topology::CoreKind;
        use dike_machine::{AppId, DomainId, ThreadCounters, ThreadId, VCoreId};
        use dike_sched_core::{CoreObservation, SystemView, ThreadObservation};
        let thread = |id: u32, vcore: u32, rate: f64, llc: f64| ThreadObservation {
            id: ThreadId(id),
            app: AppId(id),
            vcore: VCoreId(vcore),
            rates: RateSample {
                access_rate: rate,
                llc_miss_rate: llc,
                ..RateSample::default()
            },
            cumulative: ThreadCounters::default(),
            migrated_last_quantum: false,
            llc_occupancy_mib: 0.0,
        };
        let core = |id: u32, kind: CoreKind| CoreObservation {
            id: VCoreId(id),
            kind,
            domain: DomainId(0),
            bandwidth,
        };
        let mut view = SystemView {
            now: SimTime::from_ms(500),
            quantum: SimTime::from_ms(500),
            threads: vec![thread(0, 0, 5e8, 0.5), thread(1, 1, 1e6, 0.0)],
            cores: vec![core(0, CoreKind::SLOW), core(1, CoreKind::FAST)],
            ..SystemView::default()
        };
        view.assign_occupants();
        view
    }

    #[test]
    fn watchdog_demotes_on_non_finite_fairness_estimates() {
        use dike_sched_core::Actions;
        let mut dike = Dike::hardened();
        let mut actions = Actions::default();
        dike.on_quantum(&hand_view(f64::NAN), &mut actions);
        assert!(dike.stats().demoted, "{:?}", dike.stats());
        assert!(actions.is_empty(), "demoted policy issued actions");

        // Demotion is permanent: healthy views no longer produce actions.
        let mut actions = Actions::default();
        dike.on_quantum(&hand_view(5e8), &mut actions);
        assert!(actions.is_empty());
        assert!(dike.stats().demoted);
    }

    #[test]
    fn unhardened_dike_has_no_watchdog_or_planner() {
        use dike_sched_core::Actions;
        let mut dike = Dike::new();
        let mut actions = Actions::default();
        dike.on_quantum(&hand_view(f64::NAN), &mut actions);
        assert!(!dike.stats().demoted);
    }

    #[test]
    fn nan_corruption_faults_do_not_poison_swap_decisions() {
        // Heavy telemetry corruption (dropout + NaN/zero/saturate + noise)
        // against the *unhardened* paper pipeline: the observer's
        // unconditional sanitization must keep every prediction finite and
        // the run panic-free.
        let mut cfg = presets::small_machine(3);
        cfg.faults = dike_machine::FaultConfig::telemetry_axis(0.30, 7);
        let mut machine = Machine::new(cfg);
        small_workload().spawn(&mut machine, Placement::Interleaved, 0.2);
        let mut dike = Dike::new();
        let result = run(&mut machine, &mut dike, SimTime::from_secs_f64(300.0));
        assert!(result.completed);
        let errs = dike.predictor().error_values();
        assert!(
            errs.iter().all(|e| e.is_finite()),
            "NaN leaked into swap predictions"
        );
    }

    #[test]
    fn corrupted_telemetry_never_panics_multi_domain_selection() {
        // Same corruption regime as above but on a 2-controller NUMA box,
        // exercising the hierarchical per-domain nomination path: the
        // un-hardened pipeline's NaN-safe ordering (total_cmp) must keep
        // selection panic-free and every emitted pair domain-local even
        // when corrupted rates reach the Selector.
        let mut cfg = presets::numa_machine(2, 5);
        cfg.faults = dike_machine::FaultConfig::telemetry_axis(0.35, 11);
        let mut machine = Machine::new(cfg);
        small_workload().spawn(&mut machine, Placement::Interleaved, 0.2);
        let mut dike = Dike::new();
        let result = run(&mut machine, &mut dike, SimTime::from_secs_f64(300.0));
        assert!(result.completed);
        assert!(
            dike.predictor()
                .error_values()
                .iter()
                .all(|e| e.is_finite()),
            "NaN leaked into swap predictions"
        );
    }

    #[test]
    #[should_panic(expected = "invalid Dike configuration")]
    fn bad_config_panics_at_construction() {
        let _ = Dike::with_config(DikeConfig {
            fairness_threshold: -1.0,
            ..DikeConfig::default()
        });
    }
}
