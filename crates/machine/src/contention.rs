//! Shared-resource contention models.
//!
//! The paper attributes contention-induced slowdown primarily to the shared
//! memory system (memory controller plus on-chip interconnect) with a
//! secondary effect from shared last-level cache capacity. Both effects are
//! modelled here as pure functions so they can be tested and reasoned about
//! in isolation from the execution engine.
//!
//! * **LLC pressure** ([`llc_inflation`]): when the sum of the running
//!   threads' working sets exceeds the shared cache, every thread's miss
//!   ratio inflates — misses that would have been hits in isolation. This is
//!   why even compute-intensive applications slow down under co-location
//!   (Figure 1 of the paper).
//! * **Memory controller** ([`solve_memory`]): threads' miss streams queue at
//!   one controller. Utilisation below saturation inflates the effective
//!   per-miss latency with an M/M/1-style factor; demand beyond the peak
//!   bandwidth is served proportionally to demand (bandwidth sharing).
//! * **Multiple controllers** ([`solve_memory_numa`]): on a NUMA machine
//!   each domain's controller runs the same fixed point over the demands
//!   *homed* to it, with remote threads (running outside their home domain)
//!   paying a latency factor on every miss.
//!
//! Every entry point runs one fixed-point loop, which takes a latency
//! factor per demand; a single controller is the all-local case (unit
//! factors), so the one-domain solve is bit-for-bit [`solve_memory`]. The
//! engine solves through [`NumaWarmSolver`] on every topology, the
//! one-controller paper machine included.

use crate::config::{LlcConfig, MemoryConfig};
use crate::ids::DomainId;
use std::iter;

/// Miss-ratio inflation factor for a given total running working set.
///
/// Returns 1.0 while the combined working set fits in the cache and grows
/// linearly with over-subscription up to [`LlcConfig::max_inflation`].
pub fn llc_inflation(total_working_set_mib: f64, cfg: &LlcConfig) -> f64 {
    llc_inflation_scaled(total_working_set_mib, cfg, cfg.capacity_mib)
}

/// [`llc_inflation`] against an explicit capacity instead of the full
/// configured cache — the per-cluster form used under way-partitioning,
/// where a cluster of threads sees only its allocated slice
/// `capacity_mib * ways_granted / ways_total`. With
/// `capacity_mib == cfg.capacity_mib` this is [`llc_inflation`] itself
/// (same float ops in the same order), which is what keeps the
/// no-partition path bit-identical. A zero capacity caps at
/// `max_inflation` for any positive working set (ws/0 = inf) and yields
/// 1.0 for an empty cluster (0/0 = NaN, discarded by the `.max(0.0)`).
pub fn llc_inflation_scaled(total_working_set_mib: f64, cfg: &LlcConfig, capacity_mib: f64) -> f64 {
    let over = (total_working_set_mib / capacity_mib - 1.0).max(0.0);
    (1.0 + cfg.sensitivity * over).min(cfg.max_inflation)
}

/// One thread's demand on the memory system for the current tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemDemand {
    /// Seconds per instruction from the pipeline alone (already includes
    /// the core's frequency, run-queue share and SMT factor).
    pub base_time_per_instr: f64,
    /// Effective LLC miss ratio (misses per instruction) after cache
    /// pressure, warm-up and burstiness adjustments.
    pub miss_ratio: f64,
}

/// The solved state of the memory system for one tick.
///
/// Reusable as a scratch buffer: a caller that passes one long-lived
/// `MemSolution` to [`solve_memory_into`] performs no allocation in steady
/// state (the `rates` vector keeps its capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct MemSolution {
    /// Achieved instruction rate (instructions/second) per input demand.
    pub rates: Vec<f64>,
    /// Controller utilisation: achieved miss throughput over peak bandwidth.
    pub utilisation: f64,
    /// Effective per-miss latency (seconds) including queueing delay.
    pub latency_s: f64,
}

impl MemSolution {
    /// An empty solution, ready for reuse via [`solve_memory_into`].
    pub fn empty() -> Self {
        MemSolution {
            rates: Vec::new(),
            utilisation: 0.0,
            latency_s: 0.0,
        }
    }
}

impl Default for MemSolution {
    fn default() -> Self {
        MemSolution::empty()
    }
}

/// Iteration budget of the fixed-point solve. The reference solver always
/// spends the whole budget; the production solver exits as soon as the
/// utilisation estimate has converged (typically 3–6 evaluations).
const MAX_ITERS: usize = 16;

/// Relative convergence tolerance on the utilisation `rho` between damped
/// iterations. Chosen so an early exit perturbs the solved rates by far
/// less than 1e-9 relative to running the full budget (the remaining
/// geometric tail is bounded by the last step size).
const REL_TOL: f64 = 1e-12;

/// Solve the coupled rate/latency fixed point for one tick.
///
/// Each thread's achieved instruction rate is
/// `1 / (base_time + miss_ratio * latency)`, while the latency itself
/// depends on total achieved miss throughput through the queueing factor
/// `latency = base * (1 + gain * r / (1 - r))`, `r = min(rho, max_util)`.
/// The fixed point is found by damped iteration (the map is monotone
/// decreasing in `rho`, so damping guarantees convergence), accelerated by
/// geometric extrapolation of the damped step sequence and an early exit
/// once `rho` has converged to 1e-12 relative — instead of always burning
/// the full 16-round budget. Any residual demand above peak bandwidth is
/// then cut by proportional sharing.
pub fn solve_memory(demands: &[MemDemand], cfg: &MemoryConfig) -> MemSolution {
    let mut out = MemSolution::empty();
    solve_memory_into(demands, cfg, &mut out);
    out
}

/// [`solve_memory`] writing into a caller-provided solution, reusing its
/// `rates` allocation.
pub fn solve_memory_into(demands: &[MemDemand], cfg: &MemoryConfig, out: &mut MemSolution) {
    (out.utilisation, out.latency_s) =
        solve_controller(demands, iter::repeat(1.0), cfg, &mut out.rates, true);
}

/// Reference solver: identical scheme to [`solve_memory`] but always runs
/// the full 16-round iteration budget with no early exit. Exists so
/// property tests can assert the early exit never truncates prematurely;
/// not used on any hot path.
pub fn solve_memory_reference(demands: &[MemDemand], cfg: &MemoryConfig) -> MemSolution {
    let mut out = MemSolution::empty();
    (out.utilisation, out.latency_s) =
        solve_controller(demands, iter::repeat(1.0), cfg, &mut out.rates, false);
    out
}

/// One evaluation of the fixed-point map at utilisation `rho`: computes
/// the queue-inflated latency, every thread's rate at that latency (its
/// per-miss stall scaled by the demand's latency factor), and returns
/// `(latency, g(rho))` where `g` is the next utilisation estimate. A unit
/// factor leaves the stall bit-identical (`x · 1.0 = x`), so one map
/// serves local and remote demands alike.
#[inline]
fn eval_map(
    rho: f64,
    demands: &[MemDemand],
    factors: impl Iterator<Item = f64>,
    cfg: &MemoryConfig,
    rates: &mut [f64],
) -> (f64, f64) {
    let r = rho.clamp(0.0, cfg.max_utilisation);
    let latency = cfg.base_latency_s * (1.0 + cfg.queue_gain * r / (1.0 - r));
    let mut miss_throughput = 0.0;
    for ((rate, d), f) in rates.iter_mut().zip(demands).zip(factors) {
        *rate = 1.0 / (d.base_time_per_instr + d.miss_ratio * latency * f);
        miss_throughput += *rate * d.miss_ratio;
    }
    (latency, miss_throughput / cfg.bandwidth_accesses_per_sec)
}

/// The fixed point of one memory controller: fills `rates` (cleared and
/// resized, parallel to `demands`) and returns `(utilisation, latency_s)`.
/// `factors` yields each demand's remote-latency factor, in order. With
/// `early_exit` off the loop spends the whole [`MAX_ITERS`] budget (the
/// reference scheme).
fn solve_controller(
    demands: &[MemDemand],
    factors: impl Iterator<Item = f64> + Clone,
    cfg: &MemoryConfig,
    rates: &mut Vec<f64>,
    early_exit: bool,
) -> (f64, f64) {
    rates.clear();
    if demands.is_empty() {
        return (0.0, cfg.base_latency_s);
    }
    rates.resize(demands.len(), 0.0);

    let bw = cfg.bandwidth_accesses_per_sec;
    let mut rho = 0.0_f64;
    // Step size of the previous damped iteration; zero means "no usable
    // ratio yet" (first iteration, or just after an extrapolation jump).
    let mut prev_delta = 0.0_f64;

    for _ in 0..MAX_ITERS {
        let (_, g_rho) = eval_map(rho, demands, factors.clone(), cfg, rates);
        // Damping: the undamped map can oscillate when demand >> bandwidth.
        let damped = 0.5 * rho + 0.5 * g_rho;
        let delta = damped - rho;
        if early_exit && delta.abs() <= REL_TOL * damped.abs().max(REL_TOL) {
            rho = damped;
            break;
        }
        // The damped step sequence contracts geometrically with local
        // ratio q = 0.5·(1 + g′) — positive under light load, negative
        // (oscillating) when g′ < −1 near the utilisation cap. Either
        // way the remaining tail sums to delta·q/(1 − q), so once the
        // ratio is measurable and contracting (|q| < 1), jump straight
        // to the geometric limit and restart ratio estimation. The upper
        // guard stays below 1 so a near-unit ratio cannot launch a wild
        // extrapolation.
        if prev_delta != 0.0 {
            let q = delta / prev_delta;
            if q > -0.99 && q < 0.95 && q != 0.0 {
                rho = (damped + delta * q / (1.0 - q)).max(0.0);
                prev_delta = 0.0;
                continue;
            }
        }
        rho = damped;
        prev_delta = delta;
    }

    // One closing evaluation at the settled utilisation, so the reported
    // rates, latency and throughput are mutually consistent.
    let (latency, final_rho) = eval_map(rho, demands, factors, cfg, rates);
    let miss_throughput = final_rho * bw;

    // Hard bandwidth cap: when total demand exceeds peak bandwidth, the
    // controller serves each thread in proportion to its *unconstrained*
    // demand (pipeline rate × miss ratio). A faster core issues misses
    // faster and wins a proportionally larger share — this is what makes
    // memory-bound threads frequency-sensitive under saturation, the
    // effect behind the paper's "STREAM slows 4.6× on the heterogeneous
    // machine vs 3.4× on the homogeneous one". The remote factor does not
    // change how much controller bandwidth a miss consumes, only how long
    // the requester stalls on it, so it stays out of the weight. The
    // per-demand weight `miss_ratio / base_time` is summed in a first pass
    // and applied in a second, so the branch allocates nothing.
    let utilisation = if miss_throughput > bw {
        let total_weight: f64 = demands
            .iter()
            .map(|d| d.miss_ratio / d.base_time_per_instr)
            .sum();
        if total_weight > 0.0 {
            for (rate, d) in rates.iter_mut().zip(demands) {
                if d.miss_ratio > 0.0 {
                    let share = bw * (d.miss_ratio / d.base_time_per_instr) / total_weight;
                    *rate = rate.min(share / d.miss_ratio);
                }
            }
        }
        let served: f64 = rates
            .iter()
            .zip(demands)
            .map(|(rate, d)| rate * d.miss_ratio)
            .sum();
        (served / bw).min(1.0)
    } else {
        miss_throughput / bw
    };
    (utilisation, latency)
}

/// One thread's demand on a multi-controller memory system: the plain
/// [`MemDemand`] plus which controller its misses are homed to and whether
/// the thread currently runs outside that domain (paying the remote-access
/// latency factor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumaDemand {
    /// Pipeline-side demand, as for the single-controller solver.
    pub demand: MemDemand,
    /// Controller that services this thread's misses (first-touch home).
    pub home: DomainId,
    /// True when the thread runs on a core outside its home domain.
    pub remote: bool,
}

/// Solved state of one memory controller inside a [`NumaSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainSolution {
    /// Controller utilisation (achieved miss throughput / peak bandwidth).
    pub utilisation: f64,
    /// Effective *local* per-miss latency at this controller (seconds);
    /// remote clients of the controller see it scaled by the remote factor.
    pub latency_s: f64,
}

/// The solved state of a multi-controller memory system for one tick.
///
/// Like [`MemSolution`] it is reusable as a scratch buffer: a caller that
/// keeps one alive across calls to [`solve_memory_numa_into`] performs no
/// allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct NumaSolution {
    /// Achieved instruction rate (instructions/second) per input demand,
    /// parallel to the input slice.
    pub rates: Vec<f64>,
    /// Per-controller utilisation and latency, indexed by domain.
    pub domains: Vec<DomainSolution>,
    // Per-domain partitioning scratch, reused across ticks.
    scratch_idx: Vec<u32>,
    scratch_demands: Vec<MemDemand>,
    scratch_factors: Vec<f64>,
    scratch_rates: Vec<f64>,
}

impl NumaSolution {
    /// An empty solution, ready for reuse via [`solve_memory_numa_into`].
    pub fn empty() -> Self {
        NumaSolution::default()
    }

    /// Sum of achieved miss throughput (accesses/second) across all
    /// controllers, computed from the solved utilisations.
    pub fn total_miss_throughput(&self, cfg: &MemoryConfig) -> f64 {
        self.domains
            .iter()
            .map(|d| d.utilisation * cfg.bandwidth_accesses_per_sec)
            .sum()
    }
}

/// Solve every controller of a multi-domain memory system for one tick.
///
/// Demands are partitioned by their *home* domain — misses always queue at
/// the controller that owns the thread's memory, wherever the thread runs —
/// and each partition gets its own [`solve_memory`]-style fixed point, with
/// remote threads' per-miss stall scaled by
/// [`MemoryConfig::remote_latency_factor`]. Controllers are independent:
/// each has the full per-controller peak bandwidth.
pub fn solve_memory_numa(
    demands: &[NumaDemand],
    num_domains: usize,
    cfg: &MemoryConfig,
) -> NumaSolution {
    let mut out = NumaSolution::empty();
    solve_memory_numa_into(demands, num_domains, cfg, &mut out);
    out
}

/// [`solve_memory_numa`] writing into a caller-provided solution, reusing
/// its allocations. A cold, whole-machine reference for tests and benches;
/// the engine solves each controller through [`NumaWarmSolver`].
pub fn solve_memory_numa_into(
    demands: &[NumaDemand],
    num_domains: usize,
    cfg: &MemoryConfig,
    out: &mut NumaSolution,
) {
    assert!(num_domains >= 1, "need at least one memory controller");
    out.rates.clear();
    out.rates.resize(demands.len(), 0.0);
    out.domains.clear();

    for dom in 0..num_domains as u32 {
        out.scratch_idx.clear();
        out.scratch_demands.clear();
        out.scratch_factors.clear();
        for (i, nd) in demands.iter().enumerate() {
            if nd.home.0 == dom {
                out.scratch_idx.push(i as u32);
                out.scratch_demands.push(nd.demand);
                out.scratch_factors.push(if nd.remote {
                    cfg.remote_latency_factor
                } else {
                    1.0
                });
            }
        }
        let (utilisation, latency_s) = solve_controller(
            &out.scratch_demands,
            out.scratch_factors.iter().copied(),
            cfg,
            &mut out.scratch_rates,
            true,
        );
        out.domains.push(DomainSolution {
            utilisation,
            latency_s,
        });
        for (k, &i) in out.scratch_idx.iter().enumerate() {
            out.rates[i as usize] = out.scratch_rates[k];
        }
    }
}

/// Memo of one memory controller inside a [`NumaWarmSolver`].
#[derive(Debug, Clone, Default)]
struct WarmController {
    /// Demand sub-vector of the last real solve, in presentation order.
    demands: Vec<MemDemand>,
    /// Latency factors of the last real solve, parallel to `demands`.
    factors: Vec<f64>,
    /// Rates of the last real solve, parallel to `demands`.
    rates: Vec<f64>,
    solution: DomainSolution,
    /// False until the first solve populates the memo.
    valid: bool,
}

/// Per-controller memoised contention solving — the engine's solver.
///
/// The engine re-presents a controller only when that controller's demand
/// sub-vector may have moved (per-domain dirty tracking); this type holds
/// the per-controller memo that makes each unchanged controller free: an
/// identical `(demands, factors)` sub-vector returns the memoised rates
/// outright. The solver is a pure function of its inputs, so every answer
/// is bit-for-bit the one the cold [`solve_memory_numa_into`] reference
/// gives, and any other input runs the same fixed point cold.
#[derive(Debug, Clone, Default)]
pub struct NumaWarmSolver {
    ctrls: Vec<WarmController>,
}

impl NumaWarmSolver {
    /// A memoising solver for `num_domains` controllers.
    pub fn new(num_domains: usize) -> Self {
        NumaWarmSolver {
            ctrls: vec![WarmController::default(); num_domains.max(1)],
        }
    }

    /// Number of controllers this solver tracks.
    pub fn num_domains(&self) -> usize {
        self.ctrls.len()
    }

    /// Drop all memoised state: the next solve of every controller runs
    /// cold, exactly as on the first tick.
    pub fn invalidate(&mut self) {
        for c in &mut self.ctrls {
            c.valid = false;
        }
    }

    /// Solved state of one controller (the last `solve` answer for it).
    pub fn domain_solution(&self, dom: usize) -> DomainSolution {
        self.ctrls[dom].solution
    }

    /// Solve controller `dom` for a demand sub-vector in presentation
    /// order, returning the achieved rates (parallel to `demands`) and the
    /// controller solution. Reuses the memoised answer when the inputs are
    /// unchanged; otherwise runs the fixed point.
    pub fn solve(
        &mut self,
        dom: usize,
        demands: &[MemDemand],
        factors: &[f64],
        cfg: &MemoryConfig,
    ) -> (&[f64], DomainSolution) {
        assert_eq!(
            demands.len(),
            factors.len(),
            "demands and factors must be parallel"
        );
        let c = &mut self.ctrls[dom];
        if c.valid && c.demands == demands && c.factors == factors {
            return (&c.rates, c.solution);
        }
        let (utilisation, latency_s) =
            solve_controller(demands, factors.iter().copied(), cfg, &mut c.rates, true);
        c.demands.clear();
        c.demands.extend_from_slice(demands);
        c.factors.clear();
        c.factors.extend_from_slice(factors);
        c.solution = DomainSolution {
            utilisation,
            latency_s,
        };
        c.valid = true;
        (&c.rates, c.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_cfg() -> MemoryConfig {
        MemoryConfig::default()
    }

    #[test]
    fn llc_no_pressure_below_capacity() {
        let cfg = LlcConfig::default();
        assert_eq!(llc_inflation(0.0, &cfg), 1.0);
        assert_eq!(llc_inflation(10.0, &cfg), 1.0);
        assert_eq!(llc_inflation(25.0, &cfg), 1.0);
    }

    #[test]
    fn llc_inflation_grows_then_caps() {
        let cfg = LlcConfig::default();
        let a = llc_inflation(30.0, &cfg);
        let b = llc_inflation(50.0, &cfg);
        assert!(a > 1.0 && b > a);
        assert_eq!(llc_inflation(10_000.0, &cfg), cfg.max_inflation);
    }

    #[test]
    fn llc_inflation_scaled_at_full_capacity_is_llc_inflation_bitwise() {
        let cfg = LlcConfig::default();
        for ws in [0.0, 10.0, 25.0, 30.0, 50.0, 10_000.0] {
            assert_eq!(
                llc_inflation(ws, &cfg),
                llc_inflation_scaled(ws, &cfg, cfg.capacity_mib),
                "ws {ws}"
            );
        }
    }

    #[test]
    fn llc_inflation_scaled_smaller_slice_inflates_more() {
        let cfg = LlcConfig::default();
        let full = llc_inflation_scaled(20.0, &cfg, cfg.capacity_mib);
        let half = llc_inflation_scaled(20.0, &cfg, cfg.capacity_mib / 2.0);
        assert_eq!(full, 1.0, "20 MiB fits the full 25 MiB cache");
        assert!(half > 1.0, "but overflows a 12.5 MiB slice: {half}");
    }

    #[test]
    fn llc_inflation_scaled_zero_capacity_is_finite() {
        let cfg = LlcConfig::default();
        // An empty cluster with no capacity: no pressure.
        assert_eq!(llc_inflation_scaled(0.0, &cfg, 0.0), 1.0);
        // Any working set against zero capacity caps out.
        assert_eq!(llc_inflation_scaled(1.0, &cfg, 0.0), cfg.max_inflation);
    }

    #[test]
    fn empty_memory_system_is_idle() {
        let s = solve_memory(&[], &mem_cfg());
        assert!(s.rates.is_empty());
        assert_eq!(s.utilisation, 0.0);
        assert_eq!(s.latency_s, mem_cfg().base_latency_s);
    }

    #[test]
    fn single_compute_thread_nearly_unconstrained() {
        // A pure compute thread: essentially no misses.
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 0.5 / 2.33e9,
            miss_ratio: 1e-5,
        };
        let s = solve_memory(&[d], &cfg);
        let unconstrained = 1.0 / d.base_time_per_instr;
        assert!(s.rates[0] > 0.99 * unconstrained);
        assert!(s.utilisation < 0.01);
    }

    #[test]
    fn memory_thread_is_latency_bound() {
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let s = solve_memory(&[d], &cfg);
        // Achieved rate should be well below pipeline rate.
        assert!(s.rates[0] < 0.5 / d.base_time_per_instr);
        // And consistent with the solved latency.
        let expect = 1.0 / (d.base_time_per_instr + d.miss_ratio * s.latency_s);
        assert!((s.rates[0] - expect).abs() / expect < 0.05);
    }

    #[test]
    fn contention_slows_everyone_memory_threads_most() {
        let cfg = mem_cfg();
        let mem = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let comp = MemDemand {
            base_time_per_instr: 0.6 / 2.33e9,
            miss_ratio: 0.002,
        };
        let alone_mem = solve_memory(&[mem], &cfg).rates[0];
        let alone_comp = solve_memory(&[comp], &cfg).rates[0];
        // 16 memory threads + 16 compute threads contending.
        let mut demands = vec![mem; 16];
        demands.extend(vec![comp; 16]);
        let s = solve_memory(&demands, &cfg);
        let slow_mem = alone_mem / s.rates[0];
        let slow_comp = alone_comp / s.rates[16];
        assert!(slow_mem > 1.5, "memory slowdown {slow_mem}");
        assert!(slow_comp > 1.05, "compute slowdown {slow_comp}");
        assert!(
            slow_mem > slow_comp,
            "memory threads must suffer more: {slow_mem} vs {slow_comp}"
        );
    }

    #[test]
    fn bandwidth_cap_is_respected() {
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.05,
        };
        let s = solve_memory(&vec![d; 64], &cfg);
        let total_misses: f64 = s.rates.iter().map(|r| r * d.miss_ratio).sum();
        assert!(total_misses <= cfg.bandwidth_accesses_per_sec * 1.0001);
        assert!(s.utilisation <= 1.0);
    }

    #[test]
    fn identical_demands_get_identical_rates() {
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 1.21e9,
            miss_ratio: 0.03,
        };
        let s = solve_memory(&[d; 8], &cfg);
        for r in &s.rates {
            assert!((r - s.rates[0]).abs() < 1e-6 * s.rates[0]);
        }
    }

    #[test]
    fn faster_core_gets_more_bandwidth_share() {
        // Same miss ratio, one thread on a faster core: it demands more and,
        // under proportional sharing, achieves more.
        let cfg = mem_cfg();
        let fast = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let slow = MemDemand {
            base_time_per_instr: 1.0 / 1.21e9,
            miss_ratio: 0.03,
        };
        let mut demands = vec![fast; 20];
        demands.extend(vec![slow; 20]);
        let s = solve_memory(&demands, &cfg);
        assert!(s.rates[0] > s.rates[20]);
    }

    #[test]
    fn numa_single_domain_local_matches_single_controller_exactly() {
        let cfg = mem_cfg();
        let d1 = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let d2 = MemDemand {
            base_time_per_instr: 0.6 / 1.21e9,
            miss_ratio: 0.002,
        };
        let mut flat = vec![d1; 12];
        flat.extend(vec![d2; 12]);
        let numa: Vec<NumaDemand> = flat
            .iter()
            .map(|&demand| NumaDemand {
                demand,
                home: DomainId(0),
                remote: false,
            })
            .collect();
        let single = solve_memory(&flat, &cfg);
        let multi = solve_memory_numa(&numa, 1, &cfg);
        assert_eq!(single.rates, multi.rates, "one local domain is bit-exact");
        assert_eq!(single.utilisation, multi.domains[0].utilisation);
        assert_eq!(single.latency_s, multi.domains[0].latency_s);
    }

    #[test]
    fn remote_threads_run_slower_than_local() {
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let local = NumaDemand {
            demand: d,
            home: DomainId(0),
            remote: false,
        };
        let remote = NumaDemand {
            remote: true,
            ..local
        };
        let s = solve_memory_numa(&[local, remote], 1, &cfg);
        assert!(
            s.rates[0] > s.rates[1],
            "remote access must cost: {} vs {}",
            s.rates[0],
            s.rates[1]
        );
    }

    #[test]
    fn domains_are_independent_controllers() {
        // 32 heavy threads on one controller saturate it; split across two
        // controllers each side solves as if alone.
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.05,
        };
        let one_side = solve_memory(&vec![d; 16], &cfg);
        let split: Vec<NumaDemand> = (0..32)
            .map(|i| NumaDemand {
                demand: d,
                home: DomainId((i % 2) as u32),
                remote: false,
            })
            .collect();
        let s = solve_memory_numa(&split, 2, &cfg);
        assert_eq!(s.domains.len(), 2);
        assert_eq!(s.rates[0], one_side.rates[0]);
        assert_eq!(s.domains[0].utilisation, s.domains[1].utilisation);
        // Aggregate throughput may exceed one controller's peak but never
        // the sum of both peaks.
        let total = s.total_miss_throughput(&cfg);
        assert!(total <= 2.0 * cfg.bandwidth_accesses_per_sec * 1.0001);
        assert!(total > cfg.bandwidth_accesses_per_sec * 0.9);
    }

    #[test]
    fn empty_domain_reports_idle() {
        let cfg = mem_cfg();
        let d = NumaDemand {
            demand: MemDemand {
                base_time_per_instr: 1.0 / 2.33e9,
                miss_ratio: 0.01,
            },
            home: DomainId(1),
            remote: false,
        };
        let s = solve_memory_numa(&[d], 4, &cfg);
        assert_eq!(s.domains.len(), 4);
        assert_eq!(s.domains[0].utilisation, 0.0);
        assert_eq!(s.domains[0].latency_s, cfg.base_latency_s);
        assert!(s.domains[1].utilisation > 0.0);
        assert!(s.rates[0] > 0.0);
    }

    #[test]
    fn latency_increases_with_load() {
        let cfg = mem_cfg();
        let d = MemDemand {
            base_time_per_instr: 1.0 / 2.33e9,
            miss_ratio: 0.03,
        };
        let light = solve_memory(&[d], &cfg);
        let heavy = solve_memory(&vec![d; 32], &cfg);
        assert!(heavy.latency_s > light.latency_s);
        assert!(
            heavy.latency_s <= cfg.base_latency_s * 25.0,
            "latency finite"
        );
    }

    fn demand(bt: f64, mr: f64) -> MemDemand {
        MemDemand {
            base_time_per_instr: bt,
            miss_ratio: mr,
        }
    }

    /// The cold fixed point: `(rates, utilisation, latency_s)`.
    fn cold(demands: &[MemDemand], factors: &[f64], cfg: &MemoryConfig) -> (Vec<f64>, f64, f64) {
        let mut rates = Vec::new();
        let (util, lat) = solve_controller(demands, factors.iter().copied(), cfg, &mut rates, true);
        (rates, util, lat)
    }

    #[test]
    fn warm_solver_exact_mode_matches_cold_solver_bitwise() {
        let cfg = mem_cfg();
        let demands = vec![
            demand(1.0 / 2.33e9, 0.03),
            demand(1.0 / 1.21e9, 0.15),
            demand(1.0 / 2.33e9, 0.002),
        ];
        let factors = vec![1.0, 1.5, 1.0];
        let mut warm = NumaWarmSolver::new(2);
        let (cold_rates, cold_util, cold_lat) = cold(&demands, &factors, &cfg);
        for _ in 0..3 {
            let (rates, sol) = warm.solve(1, &demands, &factors, &cfg);
            assert_eq!(rates, cold_rates.as_slice(), "rates bit-identical");
            assert_eq!(sol.utilisation, cold_util);
            assert_eq!(sol.latency_s, cold_lat);
        }
    }

    #[test]
    fn warm_solver_resolves_on_any_bit_change_in_exact_mode() {
        let cfg = mem_cfg();
        let mut demands = vec![demand(1.0 / 2.33e9, 0.03); 8];
        let factors = vec![1.0; 8];
        let mut warm = NumaWarmSolver::new(1);
        let (_, first) = warm.solve(0, &demands, &factors, &cfg);
        // A tiny (one-ulp-scale) change must still trigger a real re-solve.
        demands[3].miss_ratio = 0.03 + 1e-14;
        let (_, second) = warm.solve(0, &demands, &factors, &cfg);
        let (_, cold_util, _) = cold(&demands, &factors, &cfg);
        assert_eq!(second.utilisation, cold_util, "exact mode never reuses");
        assert!(first.utilisation > 0.0);
    }

    #[test]
    fn warm_solver_length_change_always_resolves() {
        let cfg = mem_cfg();
        let factors4 = vec![1.0; 4];
        let factors5 = vec![1.0; 5];
        let mut warm = NumaWarmSolver::new(1);
        let four = vec![demand(1.0 / 2.33e9, 0.03); 4];
        let five = vec![demand(1.0 / 2.33e9, 0.03); 5];
        let (r4, _) = warm.solve(0, &four, &factors4, &cfg);
        assert_eq!(r4.len(), 4);
        let (r5, sol5) = warm.solve(0, &five, &factors5, &cfg);
        assert_eq!(r5.len(), 5);
        let (_, cold_util, _) = cold(&five, &factors5, &cfg);
        assert_eq!(sol5.utilisation, cold_util, "membership change re-solves");
    }

    #[test]
    fn warm_solver_invalidate_forces_cold_restart() {
        let cfg = mem_cfg();
        let demands = vec![demand(1.0 / 2.33e9, 0.03); 4];
        let factors = vec![1.0; 4];
        let mut warm = NumaWarmSolver::new(2);
        let (_, a) = warm.solve(0, &demands, &factors, &cfg);
        warm.invalidate();
        let (_, b) = warm.solve(0, &demands, &factors, &cfg);
        // After invalidation the solve runs cold, so the answer is the
        // plain cold answer bit-for-bit.
        let (_, cold_util, _) = cold(&demands, &factors, &cfg);
        assert_eq!(b.utilisation, cold_util);
        assert_eq!(a.utilisation, b.utilisation);
        assert_eq!(warm.num_domains(), 2);
        assert_eq!(warm.domain_solution(1), DomainSolution::default());
    }

    #[test]
    fn warm_solver_empty_domain_is_consistent() {
        let cfg = mem_cfg();
        let mut warm = NumaWarmSolver::new(1);
        let (rates, sol) = warm.solve(0, &[], &[], &cfg);
        assert!(rates.is_empty());
        assert_eq!(sol.utilisation, 0.0);
        assert_eq!(sol.latency_s, cfg.base_latency_s);
    }
}
