//! The Observer: thread classification and core identification
//! (Section III-A).
//!
//! Each quantum the Observer
//!
//! * classifies every thread as **memory-intensive (M)** or
//!   **compute-intensive (C)** by its LLC miss rate against the 10 %
//!   boundary ("if a thread's LLC miss rate is more than 10 %, it is
//!   considered memory intensive"), reclassifying every quantum because
//!   "memory intensity of a thread dynamically changes as \[the\] thread goes
//!   through execution phases";
//! * partitions cores into **higher and lower memory bandwidth** halves;
//! * maintains `CoreBW`, the moving mean of each core's served bandwidth,
//!   which the Predictor uses as the expected access rate of a thread
//!   migrated to that core.
//!
//! Observations are *sanitized* before anything downstream sees them: a
//! non-finite or negative rate (a corrupted counter read) is scrubbed to
//! its physical bounds, so a poisoned view can never push NaN into the
//! fairness gate or the Predictor. With hardening enabled
//! ([`crate::config::HardeningConfig`]) the Observer additionally holds
//! over each thread's last good sample (with an age cap) when the current
//! one is missing or implausible, and attaches a per-thread confidence
//! score the Predictor and Decider use to widen or reject decisions.

use crate::config::{CoreBwEstimate, CoreRanking, DikeConfig, HardeningConfig};
use dike_counters::{Estimator, MovingMean, RateSample};
use dike_machine::{AppId, DomainId, ThreadId, VCoreId};
use dike_sched_core::SystemView;

/// A thread's observed class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadClass {
    /// Memory-intensive (paper's "M").
    Memory,
    /// Compute-intensive (paper's "C").
    Compute,
}

/// One thread as the Observer sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedThread {
    /// Thread id.
    pub id: ThreadId,
    /// Owning app.
    pub app: AppId,
    /// Current core.
    pub vcore: VCoreId,
    /// Memory access rate over the last quantum (accesses/s).
    pub access_rate: f64,
    /// LLC miss rate (misses per access) over the last quantum.
    pub llc_miss_rate: f64,
    /// Classification against the boundary.
    pub class: ThreadClass,
    /// True if the thread migrated during the last quantum.
    pub migrated_last_quantum: bool,
    /// Sample confidence in `[0, 1]`: 1 for a fresh plausible sample,
    /// decaying per quantum of last-good holdover, 0 for an unknown
    /// thread. Always exactly 1 without hardening.
    pub confidence: f64,
}

/// The Observer's per-quantum output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observation {
    /// Alive threads with classes and rates, in thread-id order.
    pub threads: Vec<ObservedThread>,
    /// `high_bw[core] == true` for the higher-bandwidth half of the cores.
    pub high_bw: Vec<bool>,
    /// Current `CoreBW` moving means (accesses/s), indexed by core.
    pub core_bw: Vec<f64>,
    /// NUMA domain of each core (hardware knowledge passed through from the
    /// view). The Selector pairs swap candidates within a domain so swaps
    /// stay domain-local on multi-controller machines.
    pub core_domain: Vec<DomainId>,
    /// Number of NUMA domains (hardware knowledge passed through from the
    /// view's topology). The Selector sizes its per-domain nomination
    /// lists from this instead of re-deriving the count by max-scanning
    /// `core_domain` on every call. Always at least 1.
    pub num_domains: usize,
    /// Worst per-application coefficient of variation of thread access
    /// rates — the fairness-gate quantity of Algorithms 1 and 2 (the
    /// runtime analogue of Eqn 4's per-benchmark runtime CV; max rather
    /// than mean so a single unfairly-treated application keeps the gate
    /// open).
    pub fairness_cv: f64,
    /// Fraction of alive threads classified memory-intensive (workload-type
    /// input for the Optimizer).
    pub memory_fraction: f64,
}

impl Observation {
    /// True when the system is fair w.r.t. threshold θ_f.
    pub fn is_fair(&self, threshold: f64) -> bool {
        self.fairness_cv < threshold
    }

    /// Copy `self` into `out`, reusing `out`'s buffers (a `clone_from`
    /// that is guaranteed allocation-free once capacities are warm).
    pub fn clone_into(&self, out: &mut Observation) {
        out.threads.clear();
        out.threads.extend_from_slice(&self.threads);
        out.high_bw.clear();
        out.high_bw.extend_from_slice(&self.high_bw);
        out.core_bw.clear();
        out.core_bw.extend_from_slice(&self.core_bw);
        out.core_domain.clear();
        out.core_domain.extend_from_slice(&self.core_domain);
        out.num_domains = self.num_domains;
        out.fairness_cv = self.fairness_cv;
        out.memory_fraction = self.memory_fraction;
    }
}

/// Persistent Observer state.
///
/// See [`CoreBwEstimate`] for the two `CoreBW` estimators: the
/// paper-literal per-core moving mean (default; swap acceptance is then
/// driven by phase noise around a ≈ −overhead expectation, matching Table
/// III's per-class swap counts) and the demand-gated capability variant
/// (deterministic corrective swaps, used as an ablation).
#[derive(Debug)]
pub struct Observer {
    boundary: f64,
    ranking: CoreRanking,
    estimate: CoreBwEstimate,
    /// Per-core bandwidth moving means (all quanta for
    /// [`CoreBwEstimate::PerCoreMean`], consumed quanta only for
    /// [`CoreBwEstimate::DemandGated`]).
    core_bw: Vec<MovingMean>,
    /// Per-frequency-class consumed-bandwidth moving means, keyed by the
    /// class's frequency bits (f64 frequencies are finite machine config).
    /// Used only by the demand-gated estimator's fallback.
    class_bw: Vec<(u64, MovingMean)>,
    /// Degradation ladder knobs; `None` = the paper-faithful pipeline.
    hardening: Option<HardeningConfig>,
    /// Per-thread last-good sample (hardened only), in insertion order.
    last_good: Vec<(ThreadId, LastGood)>,
    /// Reusable core-ranking index buffer.
    scratch_order: Vec<usize>,
    /// Reusable per-quantum app list for the fairness gate.
    scratch_apps: Vec<AppId>,
    /// Reusable memory-class flags (indexed by thread id) for the
    /// demand-gated estimator.
    scratch_mem: Vec<bool>,
}

/// The last plausible sample seen for a thread, used for holdover.
#[derive(Debug, Clone, Copy)]
struct LastGood {
    app: AppId,
    vcore: VCoreId,
    access_rate: f64,
    llc_miss_rate: f64,
    /// Consecutive quanta this entry has been substituting for missing or
    /// implausible samples (0 = fresh).
    age: u32,
}

impl Observer {
    /// An Observer for a machine with `num_cores` virtual cores.
    pub fn new(cfg: &DikeConfig, num_cores: usize) -> Self {
        Observer {
            boundary: cfg.classify_boundary,
            ranking: cfg.core_ranking,
            estimate: cfg.core_bw_estimate,
            core_bw: vec![MovingMean::new(); num_cores],
            class_bw: Vec::new(),
            hardening: cfg.hardening,
            last_good: Vec::new(),
            scratch_order: Vec::new(),
            scratch_apps: Vec::new(),
            scratch_mem: Vec::new(),
        }
    }

    fn class_mean_mut(&mut self, freq_hz: f64) -> &mut MovingMean {
        let key = freq_hz.to_bits();
        if let Some(pos) = self.class_bw.iter().position(|(k, _)| *k == key) {
            return &mut self.class_bw[pos].1;
        }
        self.class_bw.push((key, MovingMean::new()));
        &mut self.class_bw.last_mut().expect("just pushed").1
    }

    fn class_mean(&self, freq_hz: f64) -> Option<f64> {
        let key = freq_hz.to_bits();
        self.class_bw
            .iter()
            .find(|(k, e)| *k == key && !e.is_empty())
            .map(|(_, e)| e.value())
    }

    /// Ingest one quantum's view and produce the observation.
    pub fn observe(&mut self, view: &SystemView) -> Observation {
        let mut out = Observation::default();
        self.observe_into(view, &mut out);
        out
    }

    /// [`Observer::observe`] into a caller-owned observation, reusing its
    /// buffers (and the Observer's internal scratch) so the steady-state
    /// observation path performs no heap allocation.
    pub fn observe_into(&mut self, view: &SystemView, out: &mut Observation) {
        assert_eq!(
            view.cores.len(),
            self.core_bw.len(),
            "view core count changed mid-run"
        );
        // Update the CoreBW estimate.
        out.core_bw.clear();
        match self.estimate {
            CoreBwEstimate::PerCoreMean => {
                // Paper-literal: every quantum contributes to every core's
                // moving mean.
                for core in &view.cores {
                    self.core_bw[core.id.index()].update(core.bandwidth);
                }
                out.core_bw.extend(self.core_bw.iter().map(|e| e.value()));
            }
            CoreBwEstimate::DemandGated => {
                // Capability variant: classify occupants first, sample only
                // consumed cores, fall back to class means. An occupant
                // without an observation this quantum (telemetry dropout)
                // cannot be classified and does not mark its core consumed.
                let max_id = view
                    .threads
                    .iter()
                    .map(|t| t.id.index() + 1)
                    .max()
                    .unwrap_or(0);
                self.scratch_mem.clear();
                self.scratch_mem.resize(max_id, false);
                for t in &view.threads {
                    if t.rates.llc_miss_rate > self.boundary {
                        self.scratch_mem[t.id.index()] = true;
                    }
                }
                for core in &view.cores {
                    let consumed = view
                        .occupants(core.id)
                        .iter()
                        .any(|t| self.scratch_mem.get(t.index()).copied().unwrap_or(false));
                    if consumed {
                        self.core_bw[core.id.index()].update(core.bandwidth);
                        self.class_mean_mut(core.kind.freq_hz)
                            .update(core.bandwidth);
                    }
                }
                for core in &view.cores {
                    let own = &self.core_bw[core.id.index()];
                    out.core_bw.push(if !own.is_empty() {
                        own.value()
                    } else if let Some(class) = self.class_mean(core.kind.freq_hz) {
                        class
                    } else {
                        core.bandwidth
                    });
                }
            }
        }

        // Rank cores into high/low-bandwidth halves. The comparators are
        // total orders (index tiebreak), so the unstable sort is
        // deterministic and result-identical to a stable one.
        let n = view.cores.len();
        self.scratch_order.clear();
        self.scratch_order.extend(0..n);
        match self.ranking {
            CoreRanking::Frequency => {
                self.scratch_order.sort_unstable_by(|&a, &b| {
                    view.cores[b]
                        .kind
                        .freq_hz
                        .partial_cmp(&view.cores[a].kind.freq_hz)
                        .expect("frequencies are finite")
                        .then(a.cmp(&b))
                });
            }
            CoreRanking::ObservedBandwidth => {
                let core_bw = &out.core_bw;
                self.scratch_order.sort_unstable_by(|&a, &b| {
                    core_bw[b]
                        .partial_cmp(&core_bw[a])
                        .expect("bandwidths are finite")
                        .then(a.cmp(&b))
                });
            }
        }
        out.high_bw.clear();
        out.high_bw.resize(n, false);
        for &c in self.scratch_order.iter().take(n / 2) {
            out.high_bw[c] = true;
        }

        // Classify threads. Samples are sanitized unconditionally: a
        // corrupted counter read (NaN/∞/negative) is scrubbed to its
        // physical bounds instead of flowing into the fairness gate and
        // the Predictor. Plausible samples pass through bit-identical, so
        // fault-free runs are unchanged.
        let boundary = self.boundary;
        let classify = |llc_miss_rate: f64| {
            if llc_miss_rate > boundary {
                ThreadClass::Memory
            } else {
                ThreadClass::Compute
            }
        };
        out.threads.clear();
        out.threads.extend(view.threads.iter().map(|t| {
            let rates = t.rates.sanitized();
            ObservedThread {
                id: t.id,
                app: t.app,
                vcore: t.vcore,
                access_rate: rates.access_rate,
                llc_miss_rate: rates.llc_miss_rate,
                class: classify(rates.llc_miss_rate),
                migrated_last_quantum: t.migrated_last_quantum,
                confidence: 1.0,
            }
        }));

        if self.hardening.is_some() {
            self.harden(view, &mut out.threads);
        }

        // Fairness gate: the paper's getSystemFairness() mirrors its Eqn 4
        // metric — dispersion *within each application* ("fairness in an
        // application means that threads' runtime are approximately close
        // together"; "fairness in a system means that applications are not
        // unpredictably impeded"). The gate takes the *worst* application's
        // CV: the system is fair only when every application is. A global
        // CV over a mixed workload would never drop below any sensible
        // threshold (the M/C rate gap alone is a CV above 1), and a mean
        // per-app CV lets one badly-split application hide behind several
        // fair ones, closing the gate prematurely.
        self.scratch_apps.clear();
        self.scratch_apps.extend(out.threads.iter().map(|t| t.app));
        self.scratch_apps.sort_unstable();
        self.scratch_apps.dedup();
        // Per-app CV inlined from `coefficient_of_variation` with the same
        // summation order (filter order == thread order), so the result is
        // bit-identical to collecting the rates first.
        out.fairness_cv = 0.0;
        for &a in &self.scratch_apps {
            let mut sum = 0.0;
            let mut len = 0usize;
            for t in out.threads.iter().filter(|t| t.app == a) {
                sum += t.access_rate;
                len += 1;
            }
            let mean = sum / len as f64;
            let cv = if mean == 0.0 {
                0.0
            } else {
                let mut var = 0.0;
                for t in out.threads.iter().filter(|t| t.app == a) {
                    var += (t.access_rate - mean).powi(2);
                }
                (var / len as f64).sqrt() / mean
            };
            out.fairness_cv = f64::max(out.fairness_cv, cv);
        }
        out.memory_fraction = if out.threads.is_empty() {
            0.0
        } else {
            out.threads
                .iter()
                .filter(|t| t.class == ThreadClass::Memory)
                .count() as f64
                / out.threads.len() as f64
        };

        out.core_domain.clear();
        out.core_domain.extend(view.cores.iter().map(|c| c.domain));
        // Hand-built views (tests) may leave the count unstated (0): treat
        // as a single domain, matching their all-`DomainId(0)` core tags.
        out.num_domains = view.num_domains.max(1);
    }

    /// Current `CoreBW` moving mean of one core.
    pub fn core_bw_of(&self, core: VCoreId) -> f64 {
        self.core_bw[core.index()].value()
    }

    /// The degradation ladder's observation stages (hardened only):
    /// implausible samples are replaced by the thread's last good sample
    /// up to an age cap (then zeroed), missing threads (counter dropout)
    /// are synthesized from their last good sample, and every substitute
    /// carries a decayed confidence score. Works in place on `threads`,
    /// which must have been built 1:1 from `view.threads`.
    fn harden(&mut self, view: &SystemView, threads: &mut Vec<ObservedThread>) {
        let h = self.hardening.expect("harden is only called when hardened");
        let boundary = self.boundary;
        let classify = |llc_miss_rate: f64| {
            if llc_miss_rate > boundary {
                ThreadClass::Memory
            } else {
                ThreadClass::Compute
            }
        };
        // Plausibility is judged on the *raw* view sample: the sanitizer
        // has already scrubbed `threads`, but a scrubbed corrupted sample
        // is still the wrong number — the holdover path is better.
        let raw_suspect =
            |r: &RateSample| !r.is_plausible() || r.access_rate > h.max_plausible_rate;

        self.last_good.retain(|(id, _)| !view.departed.contains(id));

        for (raw, t) in view.threads.iter().zip(threads.iter_mut()) {
            if raw_suspect(&raw.rates) {
                let held = self
                    .last_good
                    .iter_mut()
                    .find(|(id, _)| *id == t.id)
                    .and_then(|(_, lg)| {
                        if lg.age >= h.holdover_age_cap {
                            return None;
                        }
                        lg.age += 1;
                        Some((lg.access_rate, lg.llc_miss_rate, lg.age))
                    });
                match held {
                    Some((rate, miss, age)) => {
                        t.access_rate = rate;
                        t.llc_miss_rate = miss;
                        t.class = classify(miss);
                        t.confidence = h.confidence_decay.powi(age as i32);
                    }
                    None => {
                        // Past the age cap (or never seen healthy): the
                        // thread is unknown. Zero rates keep it out of the
                        // memory class; zero confidence keeps it out of
                        // swap decisions.
                        t.access_rate = 0.0;
                        t.llc_miss_rate = 0.0;
                        t.class = ThreadClass::Compute;
                        t.confidence = 0.0;
                    }
                }
            } else {
                let fresh = LastGood {
                    app: t.app,
                    vcore: t.vcore,
                    access_rate: t.access_rate,
                    llc_miss_rate: t.llc_miss_rate,
                    age: 0,
                };
                match self.last_good.iter_mut().find(|(id, _)| *id == t.id) {
                    Some((_, lg)) => *lg = fresh,
                    None => self.last_good.push((t.id, fresh)),
                }
            }
        }

        // Counter dropout: a thread we have healthy history for is absent
        // from the view without having departed. Synthesize it from the
        // last good sample so the Selector still sees (and can fix) it.
        let observed = threads.len();
        for (id, lg) in &mut self.last_good {
            if threads[..observed].iter().any(|t| t.id == *id) || lg.age >= h.holdover_age_cap {
                continue;
            }
            lg.age += 1;
            threads.push(ObservedThread {
                id: *id,
                app: lg.app,
                vcore: lg.vcore,
                access_rate: lg.access_rate,
                llc_miss_rate: lg.llc_miss_rate,
                class: classify(lg.llc_miss_rate),
                migrated_last_quantum: false,
                confidence: h.confidence_decay.powi(lg.age as i32),
            });
        }
        // Ids are unique, so the unstable sort is result-identical to a
        // stable one.
        threads.sort_unstable_by_key(|t| t.id);
    }
}

/// Standard-deviation-over-mean (duplicated from `dike-metrics` to keep the
/// scheduler crate free of the evaluation crate; the metrics tests
/// cross-check the two implementations agree). The hot path inlines this
/// per-app to avoid collecting rates into a temporary; this copy remains as
/// the reference the tests check against.
#[cfg(test)]
fn coefficient_of_variation(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_counters::RateSample;
    use dike_machine::topology::CoreKind;
    use dike_machine::{SimTime, ThreadCounters};
    use dike_sched_core::{CoreObservation, ThreadObservation};

    fn mk_view(rates_and_miss: &[(f64, f64)], fast_cores: usize) -> SystemView {
        let threads: Vec<ThreadObservation> = rates_and_miss
            .iter()
            .enumerate()
            .map(|(i, &(access_rate, llc_miss_rate))| ThreadObservation {
                id: ThreadId(i as u32),
                app: AppId(i as u32 / 2),
                vcore: VCoreId(i as u32),
                rates: RateSample {
                    access_rate,
                    llc_miss_rate,
                    ..RateSample::default()
                },
                cumulative: ThreadCounters::default(),
                migrated_last_quantum: false,
                llc_occupancy_mib: 0.0,
            })
            .collect();
        let n = rates_and_miss.len();
        let cores: Vec<CoreObservation> = (0..n)
            .map(|c| CoreObservation {
                id: VCoreId(c as u32),
                kind: if c < fast_cores {
                    CoreKind::FAST
                } else {
                    CoreKind::SLOW
                },
                domain: DomainId(0),
                bandwidth: rates_and_miss[c].0,
            })
            .collect();
        let mut view = SystemView {
            now: SimTime::from_ms(500),
            quantum: SimTime::from_ms(500),
            threads,
            cores,
            ..SystemView::default()
        };
        view.assign_occupants();
        view
    }

    #[test]
    fn classification_uses_the_ten_percent_boundary() {
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let view = mk_view(&[(5e7, 0.15), (4e7, 0.12), (1e6, 0.05), (2e6, 0.02)], 2);
        let o = obs.observe(&view);
        assert_eq!(o.threads[0].class, ThreadClass::Memory);
        assert_eq!(o.threads[1].class, ThreadClass::Memory);
        assert_eq!(o.threads[2].class, ThreadClass::Compute);
        assert_eq!(o.threads[3].class, ThreadClass::Compute);
        assert_eq!(o.memory_fraction, 0.5);
    }

    #[test]
    fn frequency_ranking_marks_fast_half_high_bw() {
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let view = mk_view(&[(1.0, 0.0), (1.0, 0.0), (9.0, 0.0), (9.0, 0.0)], 2);
        let o = obs.observe(&view);
        assert_eq!(o.high_bw, vec![true, true, false, false]);
    }

    #[test]
    fn observed_bandwidth_ranking_follows_corebw() {
        let cfg = DikeConfig {
            core_ranking: CoreRanking::ObservedBandwidth,
            ..DikeConfig::default()
        };
        let mut obs = Observer::new(&cfg, 4);
        // Cores 2,3 serve more bandwidth despite being "slow".
        let view = mk_view(&[(1.0, 0.0), (2.0, 0.0), (90.0, 0.0), (80.0, 0.0)], 2);
        let o = obs.observe(&view);
        assert_eq!(o.high_bw, vec![false, false, true, true]);
    }

    fn gated_cfg() -> DikeConfig {
        DikeConfig {
            core_bw_estimate: crate::config::CoreBwEstimate::DemandGated,
            ..DikeConfig::default()
        }
    }

    #[test]
    fn per_core_mean_is_the_papers_plain_moving_mean() {
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let v1 = mk_view(&[(10.0, 0.15), (4.0, 0.0), (3.0, 0.02), (2.0, 0.0)], 2);
        let v2 = mk_view(&[(30.0, 0.15), (8.0, 0.0), (9.0, 0.02), (4.0, 0.0)], 2);
        obs.observe(&v1);
        let o = obs.observe(&v2);
        // Every core's mean updates every quantum, consumed or not.
        assert_eq!(o.core_bw, vec![20.0, 6.0, 6.0, 3.0]);
    }

    #[test]
    fn core_bw_is_a_demand_gated_moving_mean() {
        let mut obs = Observer::new(&gated_cfg(), 4);
        // Core 0 hosts a memory thread (miss rate 0.15): its bandwidth is
        // sampled. Core 2 hosts a compute thread: not sampled.
        let v1 = mk_view(&[(10.0, 0.15), (0.0, 0.0), (3.0, 0.02), (0.0, 0.0)], 2);
        let v2 = mk_view(&[(30.0, 0.15), (0.0, 0.0), (9.0, 0.02), (0.0, 0.0)], 2);
        obs.observe(&v1);
        let o = obs.observe(&v2);
        assert_eq!(o.core_bw[0], 20.0); // mean of 10 and 30
        assert_eq!(obs.core_bw_of(VCoreId(0)), 20.0);
        // Core 1 never consumed: falls back to its class mean. Cores 0 and
        // 1 share the FAST class, so the class mean equals core 0's mean.
        assert_eq!(o.core_bw[1], 20.0);
        // Core 3 (SLOW class, no class history): falls back to its own
        // current served bandwidth.
        assert_eq!(o.core_bw[3], 0.0);
    }

    #[test]
    fn unconsumed_cores_inherit_class_capability() {
        let mut obs = Observer::new(&gated_cfg(), 4);
        // Memory thread on fast core 0 and slow core 2; cores 1 and 3 host
        // compute threads.
        let v = mk_view(&[(50.0, 0.2), (1.0, 0.01), (30.0, 0.2), (1.0, 0.01)], 2);
        let o = obs.observe(&v);
        assert_eq!(o.core_bw[0], 50.0);
        assert_eq!(o.core_bw[1], 50.0); // fast-class capability
        assert_eq!(o.core_bw[2], 30.0);
        assert_eq!(o.core_bw[3], 30.0); // slow-class capability
    }

    #[test]
    fn fairness_gate_uses_mean_per_app_cv_of_access_rates() {
        // mk_view assigns app = thread_index / 2: threads (0,1) are one app
        // and (2,3) another.
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let even = mk_view(&[(10.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 0.0)], 2);
        let o = obs.observe(&even);
        assert!(o.fairness_cv < 1e-12);
        assert!(o.is_fair(0.1));

        // Dispersion inside app 0: unfair.
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let skew = mk_view(&[(1.0, 0.0), (100.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 2);
        let o = obs.observe(&skew);
        assert!(o.fairness_cv > 0.4, "cv {}", o.fairness_cv);
        assert!(!o.is_fair(0.1));

        // A huge rate gap *between* apps with none inside: fair — this is
        // what makes the gate meaningful for mixed M/C workloads.
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let between = mk_view(&[(100.0, 0.0), (100.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 2);
        let o = obs.observe(&between);
        assert!(o.fairness_cv < 1e-12, "cv {}", o.fairness_cv);
        assert!(o.is_fair(0.1));
    }

    #[test]
    fn poisoned_view_is_sanitized_not_propagated() {
        // A corrupted counter read (NaN/∞/out-of-range) must never leak
        // into the observation: every downstream quantity stays finite.
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let mut view = mk_view(&[(5e7, 0.15), (4e7, 0.12), (1e6, 0.05), (2e6, 0.02)], 2);
        view.threads[0].rates.access_rate = f64::NAN;
        view.threads[0].rates.llc_miss_rate = f64::NAN;
        view.threads[1].rates.access_rate = f64::INFINITY;
        view.threads[2].rates.llc_miss_rate = 7.0;
        let o = obs.observe(&view);
        for t in &o.threads {
            assert!(t.access_rate.is_finite(), "{t:?}");
            assert!((0.0..=1.0).contains(&t.llc_miss_rate), "{t:?}");
            assert_eq!(t.confidence, 1.0);
        }
        assert!(o.fairness_cv.is_finite());
        assert!(o.memory_fraction.is_finite());
        // The gate still produces a decidable verdict (no NaN poisoning:
        // a NaN cv would make is_fair silently false forever).
        let _ = o.is_fair(0.1);
    }

    fn hardened_cfg() -> DikeConfig {
        crate::config::DikeConfig::hardened(crate::config::SchedConfig::DEFAULT)
    }

    #[test]
    fn hardened_holdover_replaces_implausible_samples_with_last_good() {
        let mut obs = Observer::new(&hardened_cfg(), 4);
        let healthy = mk_view(&[(5e7, 0.15), (4e7, 0.12), (1e6, 0.05), (2e6, 0.02)], 2);
        let o = obs.observe(&healthy);
        assert!(o.threads.iter().all(|t| t.confidence == 1.0));

        // Thread 0's sample goes bad: the last good value substitutes, at
        // reduced confidence, and the class sticks.
        let mut poisoned = healthy.clone();
        poisoned.threads[0].rates.access_rate = f64::NAN;
        let o = obs.observe(&poisoned);
        let t0 = &o.threads[0];
        assert_eq!(t0.access_rate, 5e7);
        assert_eq!(t0.class, ThreadClass::Memory);
        assert!(t0.confidence < 1.0 && t0.confidence > 0.0);
        assert_eq!(o.threads[1].confidence, 1.0);

        // Past the age cap the thread becomes unknown: zero rates, zero
        // confidence — never a stale value held forever.
        let cap = hardened_cfg().hardening.unwrap().holdover_age_cap;
        for _ in 0..cap {
            let o = obs.observe(&poisoned);
            assert!(o.threads[0].access_rate.is_finite());
        }
        let o = obs.observe(&poisoned);
        assert_eq!(o.threads[0].access_rate, 0.0);
        assert_eq!(o.threads[0].confidence, 0.0);
        assert_eq!(o.threads[0].class, ThreadClass::Compute);
    }

    #[test]
    fn hardened_dropout_synthesizes_missing_threads_from_history() {
        let mut obs = Observer::new(&hardened_cfg(), 4);
        let healthy = mk_view(&[(5e7, 0.15), (4e7, 0.12), (1e6, 0.05), (2e6, 0.02)], 2);
        obs.observe(&healthy);

        // Thread 1's sample is dropped outright (absent, not departed).
        let mut dropped = healthy.clone();
        dropped.threads.remove(1);
        let o = obs.observe(&dropped);
        assert_eq!(o.threads.len(), 4, "dropout must be synthesized back");
        let t1 = o.threads.iter().find(|t| t.id == ThreadId(1)).unwrap();
        assert_eq!(t1.access_rate, 4e7);
        assert!(t1.confidence < 1.0 && t1.confidence > 0.0);
        // Thread-id order is preserved after the merge.
        let ids: Vec<u32> = o.threads.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);

        // A *departed* thread is not synthesized.
        let mut finished = healthy.clone();
        finished.threads.remove(1);
        finished.departed = vec![ThreadId(1)];
        let o = obs.observe(&finished);
        assert_eq!(o.threads.len(), 3);
        assert!(o.threads.iter().all(|t| t.id != ThreadId(1)));
    }

    #[test]
    fn unhardened_observer_keeps_no_holdover_state() {
        // The paper-faithful pipeline scrubs but never substitutes: a
        // dropped thread simply vanishes from the observation.
        let mut obs = Observer::new(&DikeConfig::default(), 4);
        let healthy = mk_view(&[(5e7, 0.15), (4e7, 0.12), (1e6, 0.05), (2e6, 0.02)], 2);
        obs.observe(&healthy);
        let mut dropped = healthy.clone();
        dropped.threads.remove(1);
        let o = obs.observe(&dropped);
        assert_eq!(o.threads.len(), 3);
    }

    #[test]
    fn cv_matches_metrics_crate() {
        let xs = [3.0, 7.0, 9.0, 1.0];
        assert!(
            (coefficient_of_variation(&xs) - dike_metrics::coefficient_of_variation(&xs)).abs()
                < 1e-12
        );
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }
}
