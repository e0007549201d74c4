//! Fleet topology and tenant population.
//!
//! A fleet is `M` independent [`MachineConfig`]s (each with its own
//! topology, seed, and fault plan) plus `T` tenants, each a seeded
//! Poisson arrival stream over a benchmark mix. Everything downstream —
//! dispatch, simulation, roll-up — is a pure function of this struct, so
//! two fleets built from equal configs produce byte-identical results.

use dike_machine::{presets, MachineConfig, MAX_SPAN_MS};
use dike_util::rng::splitmix64;
use dike_workloads::{paper, AppKind, ArrivalConfig};

/// Dispatcher knobs (see [`crate::dispatch`](mod@crate::dispatch)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchConfig {
    /// Load discount a tenant's *home* machine receives when competing
    /// for an arrival, in normalised-load units (load per vcore). Zero
    /// disables affinity entirely; large values pin tenants home.
    pub affinity_bonus: f64,
    /// Time constant of the exponential decay applied to each machine's
    /// load estimate, in milliseconds. Arrivals further apart than a few
    /// `tau` barely see each other.
    pub decay_tau_ms: f64,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            affinity_bonus: 0.05,
            decay_tau_ms: 2_000.0,
        }
    }
}

/// One tenant: a named, seeded arrival stream over an app mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (reported in roll-ups).
    pub name: String,
    /// Benchmark pool the tenant's arrivals draw from.
    pub apps: Vec<AppKind>,
    /// Poisson arrival shape.
    pub arrivals: ArrivalConfig,
    /// Seed of the tenant's arrival stream.
    pub seed: u64,
}

/// The whole fleet: machines, tenants, dispatch policy, and the knobs
/// shared by every per-machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// One config per machine. Heterogeneous fleets (mixed topologies,
    /// per-machine fault plans) are just different elements here.
    pub machines: Vec<MachineConfig>,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Dispatcher knobs.
    pub dispatch: DispatchConfig,
    /// Phase-program scale applied to every spawned thread (same knob as
    /// the single-machine experiments).
    pub scale: f64,
    /// Per-machine run deadline in seconds.
    pub deadline_s: f64,
}

impl FleetConfig {
    /// A uniform fleet: `n_machines` paper-testbed machines (every 8th a
    /// 2-domain NUMA box, so locality handling stays exercised) and
    /// `n_tenants` tenants drawing from the WL1 mix with the given
    /// arrival shape. All seeds — per-machine and per-tenant — are
    /// expanded from `fleet_seed` with SplitMix64, so the whole fleet is
    /// deterministic in `(n_machines, n_tenants, arrivals, fleet_seed)`.
    ///
    /// # Panics
    /// Panics if `n_machines` or `n_tenants` is zero.
    pub fn uniform(
        n_machines: usize,
        n_tenants: usize,
        arrivals: ArrivalConfig,
        fleet_seed: u64,
    ) -> FleetConfig {
        assert!(n_machines > 0, "a fleet needs at least one machine");
        assert!(n_tenants > 0, "a fleet needs at least one tenant");
        let mut state = fleet_seed;
        let machines = (0..n_machines)
            .map(|i| {
                let seed = splitmix64(&mut state);
                if i % 8 == 7 {
                    presets::numa_machine(2, seed)
                } else {
                    presets::paper_machine(seed)
                }
            })
            .collect();
        let mix = paper::workload(1).apps;
        let tenants = (0..n_tenants)
            .map(|t| TenantSpec {
                name: format!("tenant-{t}"),
                // One app kind per tenant, cycling through the WL1 mix: a
                // tenant's jobs are homogeneous, so its Eqn-4 group CV
                // measures scheduling-induced spread rather than workload
                // heterogeneity (mixing kinds in one group would push CV
                // past 1 and the fairness score below zero by
                // construction).
                apps: vec![mix[t % mix.len()]],
                arrivals,
                seed: splitmix64(&mut state),
            })
            .collect();
        FleetConfig {
            machines,
            tenants,
            dispatch: DispatchConfig::default(),
            scale: 0.02,
            deadline_s: 240.0,
        }
    }

    /// Check every field a run relies on. [`crate::FleetRunner::new`]
    /// panics with this message, so a run never meets a fleet with no
    /// machine, a machine that cannot be built, a deadline or arrival
    /// horizon whose instants overflow a `SimTime`, or a tenant whose
    /// trace cannot be drawn. A fleet with no tenant yet is legal: it
    /// runs idle.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines.is_empty() {
            return Err("a fleet needs at least one machine".into());
        }
        for (i, m) in self.machines.iter().enumerate() {
            m.validate().map_err(|e| format!("machine {i}: {e}"))?;
        }
        // NaN fails every comparison, so each range check rejects it.
        if !(self.deadline_s >= 0.0 && self.deadline_s.is_finite())
            || self.deadline_ms() > MAX_SPAN_MS
        {
            return Err(format!(
                "deadline_s must be finite, >= 0 and at most {} s, got {}",
                MAX_SPAN_MS / 1_000,
                self.deadline_s
            ));
        }
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(format!("scale must be finite and > 0, got {}", self.scale));
        }
        for t in &self.tenants {
            if t.apps.is_empty() {
                return Err(format!("tenant {}: needs at least one app", t.name));
            }
            t.arrivals
                .validate()
                .map_err(|e| format!("tenant {}: {e}", t.name))?;
            if t.arrivals.horizon_ms > MAX_SPAN_MS {
                return Err(format!(
                    "tenant {}: horizon_ms must be at most {MAX_SPAN_MS}, got {}",
                    t.name, t.arrivals.horizon_ms
                ));
            }
        }
        let d = &self.dispatch;
        if !(d.decay_tau_ms > 0.0 && d.decay_tau_ms.is_finite()) {
            return Err(format!(
                "decay_tau_ms must be finite and > 0, got {}",
                d.decay_tau_ms
            ));
        }
        if !d.affinity_bonus.is_finite() {
            return Err(format!(
                "affinity_bonus must be finite, got {}",
                d.affinity_bonus
            ));
        }
        Ok(())
    }

    /// The deadline in whole milliseconds, rounded up (saturating, so an
    /// unchecked config reads past [`MAX_SPAN_MS`] rather than wrapping).
    pub(crate) fn deadline_ms(&self) -> u64 {
        (self.deadline_s * 1_000.0).ceil() as u64
    }

    /// Total simulated thread arrivals this config offers (the sum over
    /// tenants of their traces' thread counts). Materialises the traces;
    /// intended for sizing reports, not hot paths.
    pub fn offered_threads(&self) -> usize {
        crate::dispatch::tenant_traces(self)
            .iter()
            .map(|t| t.num_threads())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fleet_is_deterministic_and_seed_diverse() {
        let cfg = ArrivalConfig::default();
        let a = FleetConfig::uniform(9, 3, cfg, 42);
        let b = FleetConfig::uniform(9, 3, cfg, 42);
        assert_eq!(a, b);
        // Per-machine seeds all differ, and machine 7 is the NUMA box.
        let mut seeds: Vec<u64> = a.machines.iter().map(|m| m.seed).collect();
        seeds.extend(a.tenants.iter().map(|t| t.seed));
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "seed collision");
        assert_eq!(a.machines[7].topology.num_domains(), 2);
        assert_eq!(a.machines[0].topology.num_domains(), 1);
        // A different fleet seed produces a different fleet.
        assert_ne!(a, FleetConfig::uniform(9, 3, cfg, 43));
    }

    /// Every field a run relies on is checked, and each rejection names
    /// its field: NaN, infinite and out-of-range values alike.
    #[test]
    fn validation_rejects_each_bad_field() {
        let good = FleetConfig::uniform(2, 2, ArrivalConfig::default(), 1);
        assert_eq!(good.validate(), Ok(()));
        let zero_deadline = FleetConfig {
            deadline_s: 0.0,
            ..good.clone()
        };
        assert_eq!(zero_deadline.validate(), Ok(()));
        let at_bound = FleetConfig {
            deadline_s: MAX_SPAN_MS as f64 / 1_000.0 * 0.999,
            ..good.clone()
        };
        assert_eq!(at_bound.validate(), Ok(()));
        let no_tenants = FleetConfig {
            tenants: Vec::new(),
            ..good.clone()
        };
        assert_eq!(no_tenants.validate(), Ok(()));

        let reject = |edit: &dyn Fn(&mut FleetConfig), field: &str| {
            let mut cfg = good.clone();
            edit(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        };
        reject(&|c| c.machines.clear(), "machine");
        reject(&|c| c.machines[1].tick_us = 0, "machine 1");
        for bad in [f64::NAN, -1.0, f64::INFINITY, 1e300] {
            reject(&|c| c.deadline_s = bad, "deadline_s");
        }
        for bad in [f64::NAN, 0.0, -0.5, f64::INFINITY] {
            reject(&|c| c.scale = bad, "scale");
        }
        reject(&|c| c.tenants[0].apps.clear(), "tenant-0");
        for bad in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            reject(
                &|c| c.tenants[1].arrivals.mean_interarrival_ms = bad,
                "mean_interarrival_ms",
            );
        }
        reject(&|c| c.tenants[0].arrivals.threads_min = 0, "threads_min");
        reject(
            &|c| {
                c.tenants[0].arrivals.threads_min = 5;
                c.tenants[0].arrivals.threads_max = 4;
            },
            "threads_min",
        );
        reject(
            &|c| c.tenants[0].arrivals.horizon_ms = MAX_SPAN_MS + 1,
            "horizon_ms",
        );
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            reject(&|c| c.dispatch.decay_tau_ms = bad, "decay_tau_ms");
        }
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            reject(&|c| c.dispatch.affinity_bonus = bad, "affinity_bonus");
        }
    }
}
