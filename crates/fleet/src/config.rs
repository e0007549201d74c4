//! Fleet topology and tenant population.
//!
//! A fleet is `M` independent [`MachineConfig`]s (each with its own
//! topology, seed, and fault plan) plus `T` tenants, each a seeded
//! Poisson arrival stream over a benchmark mix. Everything downstream —
//! dispatch, simulation, roll-up — is a pure function of this struct, so
//! two fleets built from equal configs produce byte-identical results.

use dike_machine::{presets, MachineConfig};
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
}
