//! Machine configuration: every knob of the simulated hardware in one place.

use crate::faults::FaultConfig;
use crate::topology::Topology;
use dike_util::json_struct;

/// Parameters of the memory system. Every NUMA domain in the topology gets
/// its own controller with these parameters; the paper's testbed is the
/// one-domain case, solved by the same per-controller fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Peak sustainable *per-controller* throughput in LLC-miss transfers
    /// per second. With 64-byte lines, 400e6 accesses/s ≈ 24 GiB/s. Total
    /// machine bandwidth scales with the number of domains.
    pub bandwidth_accesses_per_sec: f64,
    /// Uncontended effective memory access latency in seconds. This is the
    /// *effective* per-miss stall after memory-level parallelism, not the
    /// raw DRAM latency.
    pub base_latency_s: f64,
    /// Gain of the queueing-delay inflation: effective latency is
    /// `base * (1 + gain * rho / (1 - rho))` with utilisation `rho` capped
    /// at [`Self::max_utilisation`].
    pub queue_gain: f64,
    /// Cap on utilisation used inside the latency formula, keeping the
    /// model finite when demand exceeds bandwidth.
    pub max_utilisation: f64,
    /// Ratio of a core's *measured* bandwidth (uncore counters, which see
    /// hardware-prefetcher traffic) to its occupants' demand-miss traffic.
    /// Only affects the per-core bandwidth counters schedulers read — the
    /// paper's `CoreBW` — not the contention physics. Real uncore counts
    /// run 10–50 % above demand misses on prefetch-friendly streams.
    pub prefetch_factor: f64,
    /// Latency multiplier for a miss serviced by a *remote* controller: a
    /// thread running outside its home domain pays this factor on every
    /// per-miss stall (interconnect hop both ways). 1.5 is a typical local
    /// vs. remote DRAM ratio on two-hop x86 servers. Irrelevant on
    /// single-domain machines, where every access is local.
    pub remote_latency_factor: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            bandwidth_accesses_per_sec: 400e6,
            base_latency_s: 20e-9,
            queue_gain: 0.9,
            max_utilisation: 0.75,
            prefetch_factor: 1.1,
            remote_latency_factor: 1.5,
        }
    }
}

/// Parameters of the shared last-level cache pressure model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcConfig {
    /// Shared LLC capacity in MiB (25 MiB on the paper's Xeon E5).
    pub capacity_mib: f64,
    /// How strongly over-subscription inflates miss ratios: with total
    /// running working set `W`, each thread's miss ratio is multiplied by
    /// `1 + sensitivity * max(0, W/capacity - 1)`, capped by
    /// [`Self::max_inflation`].
    pub sensitivity: f64,
    /// Upper bound on the miss-ratio inflation factor.
    pub max_inflation: f64,
    /// Number of equal-capacity ways the cache divides into for
    /// way-partitioning (Intel CAT-style). 16 matches a 25 MiB Xeon E5
    /// LLC's 20-way associativity order of magnitude while keeping the
    /// arithmetic round. Purely an actuation granularity: with no
    /// partition applied the model never divides by it, so the
    /// unpartitioned solve is bit-identical whatever the value.
    pub ways: u32,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            capacity_mib: 25.0,
            sensitivity: 0.12,
            max_inflation: 1.5,
            ways: 16,
        }
    }
}

/// Cost model for a thread migration (an affinity change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Dead time during which the migrating thread makes no progress
    /// (context switch, run-queue hop). The paper calls this `swapOH`.
    pub dead_time_us: u64,
    /// Base duration of the cache warm-up window after arrival on the new
    /// core (private-cache and TLB refill).
    pub warmup_us: u64,
    /// Additional warm-up per MiB of the migrating thread's current
    /// working set (refilling a large footprint at contended bandwidth
    /// dominates the cost — ~5 ms/MiB at a ~200 MiB/s contended share).
    pub warmup_us_per_mib: u64,
    /// Miss-ratio multiplier while warming up (cold cache on the new core).
    pub warmup_miss_multiplier: f64,
    /// Pipeline CPI multiplier while warming up: cold private caches and
    /// lost NUMA locality stall the pipeline itself, independently of the
    /// shared-bandwidth picture.
    pub warmup_cpi_multiplier: f64,
    /// Warm-up duration multiplier when the migration *leaves its NUMA
    /// domain*: the refill streams from a remote controller, so the whole
    /// warm-up window stretches by roughly the remote-access latency ratio.
    /// Intra-domain moves use the base warm-up unchanged.
    pub cross_domain_warmup_factor: f64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        // The base costs model an *intra-domain* move: run-queue hop plus a
        // cold private cache refilled from the local controller for tens of
        // milliseconds (the paper's dual-socket testbed shares one memory
        // controller, so all of its swaps are intra-domain). A move that
        // crosses NUMA domains refills from a remote controller instead and
        // pays `cross_domain_warmup_factor` on the warm-up window.
        MigrationConfig {
            dead_time_us: 3_000,
            warmup_us: 40_000,
            warmup_us_per_mib: 5_000,
            warmup_miss_multiplier: 3.0,
            warmup_cpi_multiplier: 2.5,
            cross_domain_warmup_factor: 1.75,
        }
    }
}

/// The OS's underlying load balancer (CFS runs beneath every userspace
/// scheduling daemon on the paper's testbed). It is *count-based and
/// speed-oblivious*, like the pre-EAS x86 balancer: when the fast and
/// slow halves of the machine have unequal runnable-thread counts and the
/// lighter half has empty contexts, threads migrate over (experiencing
/// cache warm-up but no affinity-change dead time). Without this, a policy
/// that segregates thread types would leave a whole half idle once its
/// apps finish — something no real Linux box does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConfig {
    /// Enable the substrate balancer (on for every scheduler, as on the
    /// real machine).
    pub enabled: bool,
    /// How often the balancer runs, in microseconds.
    pub interval_us: u64,
    /// Minimum cross-half imbalance (in threads) before acting.
    pub min_imbalance: u32,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            enabled: true,
            interval_us: 100_000,
            min_imbalance: 2,
        }
    }
}

/// Simultaneous-multithreading interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtConfig {
    /// Fraction of the physical pipeline each context achieves when all its
    /// siblings are busy (0.62 means 2 busy siblings together reach 1.24× of
    /// single-context throughput, a typical SMT yield).
    pub busy_share: f64,
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig { busy_share: 0.62 }
    }
}

/// Full configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Core topology.
    pub topology: Topology,
    /// Memory controller model.
    pub memory: MemoryConfig,
    /// Shared-cache model.
    pub llc: LlcConfig,
    /// Migration cost model.
    pub migration: MigrationConfig,
    /// SMT interference model.
    pub smt: SmtConfig,
    /// Substrate load balancer.
    pub balance: BalanceConfig,
    /// Simulation tick in microseconds. Quanta must be multiples of this.
    pub tick_us: u64,
    /// Seed for deterministic burstiness noise.
    pub seed: u64,
    /// Fault injection at the observe/act boundary. The driver draws on
    /// every run; at all-zero rates (the default) no draw fires, so the
    /// layer applies nothing and golden outputs stay byte-identical.
    pub faults: FaultConfig,
}

json_struct!(MemoryConfig {
    bandwidth_accesses_per_sec,
    base_latency_s,
    queue_gain,
    max_utilisation,
    prefetch_factor,
    remote_latency_factor,
});
json_struct!(LlcConfig {
    capacity_mib,
    sensitivity,
    max_inflation,
    ways,
});
json_struct!(MigrationConfig {
    dead_time_us,
    warmup_us,
    warmup_us_per_mib,
    warmup_miss_multiplier,
    warmup_cpi_multiplier,
    cross_domain_warmup_factor,
});
json_struct!(BalanceConfig {
    enabled,
    interval_us,
    min_imbalance,
});
json_struct!(SmtConfig { busy_share });
json_struct!(MachineConfig {
    topology,
    memory,
    llc,
    migration,
    smt,
    balance,
    tick_us,
    seed,
    faults,
});

impl MachineConfig {
    /// Validate parameter sanity. Every float must be finite and in its
    /// range, and each error names its field (`memory.base_latency_s`).
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_us == 0 {
            return Err("tick_us must be > 0".into());
        }
        let (mem, llc, mig) = (&self.memory, &self.llc, &self.migration);
        // `is_finite` is false for NaN and ±∞ alike.
        let positive = [
            (
                "memory.bandwidth_accesses_per_sec",
                mem.bandwidth_accesses_per_sec,
            ),
            ("memory.base_latency_s", mem.base_latency_s),
            ("llc.capacity_mib", llc.capacity_mib),
        ];
        for (field, x) in positive {
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("{field} must be finite and > 0, got {x}"));
            }
        }
        let at_least = [
            ("memory.queue_gain", mem.queue_gain, 0.0),
            ("llc.sensitivity", llc.sensitivity, 0.0),
            ("memory.prefetch_factor", mem.prefetch_factor, 1.0),
            (
                "memory.remote_latency_factor",
                mem.remote_latency_factor,
                1.0,
            ),
            ("llc.max_inflation", llc.max_inflation, 1.0),
            (
                "migration.warmup_miss_multiplier",
                mig.warmup_miss_multiplier,
                1.0,
            ),
            (
                "migration.warmup_cpi_multiplier",
                mig.warmup_cpi_multiplier,
                1.0,
            ),
            (
                "migration.cross_domain_warmup_factor",
                mig.cross_domain_warmup_factor,
                1.0,
            ),
        ];
        for (field, x, lo) in at_least {
            if !(x.is_finite() && x >= lo) {
                return Err(format!("{field} must be finite and >= {lo}, got {x}"));
            }
        }
        // The two fractions are bounded on both sides, which rejects NaN
        // and ±∞ alike.
        if !(0.0..1.0).contains(&mem.max_utilisation) {
            return Err(format!(
                "memory.max_utilisation must be in [0, 1), got {}",
                mem.max_utilisation
            ));
        }
        if !(0.0 < self.smt.busy_share && self.smt.busy_share <= 1.0) {
            return Err(format!(
                "smt.busy_share must be in (0, 1], got {}",
                self.smt.busy_share
            ));
        }
        if llc.ways == 0 {
            return Err("llc.ways must be >= 1".into());
        }
        if self.balance.enabled && self.balance.interval_us == 0 {
            return Err("balance.interval_us must be > 0 when balance.enabled".into());
        }
        self.faults.validate()?;
        Ok(())
    }
}

/// Ready-made machine configurations.
pub mod presets {
    use super::*;
    use crate::topology::CoreKind;

    /// The paper's Table I testbed: 10 fast (2.33 GHz) + 10 slow (1.21 GHz)
    /// physical cores, 2-way SMT (40 virtual cores), 25 MiB shared LLC, one
    /// memory controller.
    pub fn paper_machine(seed: u64) -> MachineConfig {
        MachineConfig {
            topology: Topology::two_class(10, 10, 2),
            memory: MemoryConfig::default(),
            llc: LlcConfig::default(),
            migration: MigrationConfig::default(),
            smt: SmtConfig::default(),
            balance: BalanceConfig::default(),
            tick_us: 1_000,
            seed,
            faults: FaultConfig::default(),
        }
    }

    /// A scaled-out NUMA machine: `n_domains` replicas of the paper's
    /// socket mix (10 fast + 10 slow physical cores, 2-way SMT), each
    /// domain owning its own memory controller and LLC slice with the
    /// paper-machine parameters. 4 domains = 160 vcores, 8 = 320.
    pub fn numa_machine(n_domains: usize, seed: u64) -> MachineConfig {
        MachineConfig {
            topology: Topology::numa_uniform(n_domains, 10, 10, 2),
            ..paper_machine(seed)
        }
    }

    /// The same machine with every core fast — used by Figure 1's
    /// homogeneous-vs-heterogeneous comparison.
    pub fn homogeneous_machine(seed: u64) -> MachineConfig {
        MachineConfig {
            topology: Topology::homogeneous(20, CoreKind::FAST, 2),
            ..paper_machine(seed)
        }
    }

    /// A small machine (2 fast + 2 slow, 2-way SMT = 8 vcores) for fast
    /// unit tests and the quickstart example.
    pub fn small_machine(seed: u64) -> MachineConfig {
        MachineConfig {
            topology: Topology::two_class(2, 2, 2),
            memory: MemoryConfig {
                // Scale bandwidth with core count so contention intensity
                // per core matches the large machine.
                bandwidth_accesses_per_sec: 400e6 * (4.0 / 20.0),
                ..MemoryConfig::default()
            },
            llc: LlcConfig {
                capacity_mib: 5.0,
                ..LlcConfig::default()
            },
            migration: MigrationConfig::default(),
            smt: SmtConfig::default(),
            balance: BalanceConfig::default(),
            tick_us: 1_000,
            seed,
            faults: FaultConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(presets::paper_machine(1).validate().is_ok());
        assert!(presets::homogeneous_machine(1).validate().is_ok());
        assert!(presets::small_machine(1).validate().is_ok());
        assert!(presets::numa_machine(4, 1).validate().is_ok());
        assert!(presets::numa_machine(8, 1).validate().is_ok());
    }

    #[test]
    fn numa_presets_scale_core_counts() {
        assert_eq!(presets::numa_machine(4, 0).topology.num_vcores(), 160);
        assert_eq!(presets::numa_machine(8, 0).topology.num_vcores(), 320);
        assert_eq!(presets::numa_machine(8, 0).topology.num_domains(), 8);
        // The 1-domain preset is the paper machine's topology exactly.
        assert_eq!(
            presets::numa_machine(1, 0).topology.num_vcores(),
            presets::paper_machine(0).topology.num_vcores()
        );
    }

    #[test]
    fn paper_machine_matches_table1() {
        let m = presets::paper_machine(0);
        assert_eq!(m.topology.num_vcores(), 40);
        assert_eq!(m.llc.capacity_mib, 25.0);
        assert!(!m.topology.is_homogeneous());
        assert!(presets::homogeneous_machine(0).topology.is_homogeneous());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut m = presets::small_machine(0);
        m.tick_us = 0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.memory.max_utilisation = 1.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.smt.busy_share = 0.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.llc.max_inflation = 0.5;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.migration.warmup_miss_multiplier = 0.9;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.memory.base_latency_s = 0.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.memory.bandwidth_accesses_per_sec = -1.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.llc.capacity_mib = 0.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.llc.ways = 0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.memory.remote_latency_factor = 0.5;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.migration.cross_domain_warmup_factor = 0.0;
        assert!(m.validate().is_err());
        let mut m = presets::small_machine(0);
        m.memory.queue_gain = -0.1;
        assert!(m.validate().unwrap_err().contains("memory.queue_gain"));
        let mut m = presets::small_machine(0);
        m.llc.sensitivity = -0.1;
        assert!(m.validate().unwrap_err().contains("llc.sensitivity"));

        // NaN and ±∞ in every float field, each error naming its field.
        // A paper machine with an infinite `memory.base_latency_s` would
        // otherwise run to its deadline with no thread finished.
        type Field = fn(&mut MachineConfig) -> &mut f64;
        let fields: [(&str, Field); 13] = [
            ("memory.bandwidth_accesses_per_sec", |m| {
                &mut m.memory.bandwidth_accesses_per_sec
            }),
            ("memory.base_latency_s", |m| &mut m.memory.base_latency_s),
            ("memory.queue_gain", |m| &mut m.memory.queue_gain),
            ("memory.max_utilisation", |m| &mut m.memory.max_utilisation),
            ("memory.prefetch_factor", |m| &mut m.memory.prefetch_factor),
            ("memory.remote_latency_factor", |m| {
                &mut m.memory.remote_latency_factor
            }),
            ("llc.capacity_mib", |m| &mut m.llc.capacity_mib),
            ("llc.sensitivity", |m| &mut m.llc.sensitivity),
            ("llc.max_inflation", |m| &mut m.llc.max_inflation),
            ("migration.warmup_miss_multiplier", |m| {
                &mut m.migration.warmup_miss_multiplier
            }),
            ("migration.warmup_cpi_multiplier", |m| {
                &mut m.migration.warmup_cpi_multiplier
            }),
            ("migration.cross_domain_warmup_factor", |m| {
                &mut m.migration.cross_domain_warmup_factor
            }),
            ("smt.busy_share", |m| &mut m.smt.busy_share),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut m = presets::paper_machine(0);
                *field(&mut m) = bad;
                let err = m.validate().expect_err(name);
                assert!(err.contains(name), "{name} = {bad}: {err}");
            }
        }
    }
}
