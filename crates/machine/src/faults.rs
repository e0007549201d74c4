//! Deterministic, seeded fault injection at the observe/act boundary.
//!
//! The paper's testbed reads per-thread counters that are always fresh and
//! finite, and every affinity change it requests lands. Real PMUs
//! multiplex, drop samples, saturate and return garbage, and migrations
//! fail or stall. [`FaultConfig`] describes how often each of those
//! degradations happens; the scheduling driver consults it at every
//! quantum boundary and perturbs what the policy observes (counter
//! dropout, corruption, stale replay, bounded noise) and what it actuates
//! (failed, delayed migrations; transient thread stalls).
//!
//! Everything is a pure hash of `(fault seed, channel, thread, quantum)`
//! — the same SplitMix64 construction as the machine's burstiness noise —
//! so fault streams are identical across worker counts and independent of
//! what any other experiment cell does. The driver draws on every call,
//! and a zero-rate channel draws nothing: no fault, a noise factor of
//! exactly 1.0, no stall. So a zero-rate config, whatever its seed,
//! applies nothing, keeping zero-fault runs byte-identical to the
//! committed goldens.
//!
//! [`FaultPlan`] is the serializable preview of a fault stream: the same
//! draws the online injector makes, expanded into an event list that can
//! be archived with an experiment's results (mirroring
//! `ArrivalTrace` in `dike-workloads`).

use dike_util::rng::splitmix64;
use dike_util::{json_enum, json_struct};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The thread's counter sample for this quantum is missing entirely
    /// (the thread is absent from the scheduler's view).
    Dropout,
    /// The sample reads back as NaN (garbage register read).
    CorruptNan,
    /// The sample reads back as all-zero (counter reset mid-read).
    CorruptZero,
    /// The sample reads back saturated (counter overflow pegs the rates).
    CorruptSaturate,
    /// The sample is a replay of the previous quantum's reading
    /// (multiplexed counter not rotated in this interval).
    Stale,
    /// A requested migration silently does not happen.
    MigrationFail,
    /// A requested migration lands several quanta late.
    MigrationDelay,
    /// The thread makes no progress for a transient window.
    Stall,
    /// Machine-scope: the whole machine hard-crashes — it stops accepting
    /// and stops draining from the drawn fleet epoch onward. (For
    /// machine-scope kinds the event's `thread` field carries the machine
    /// index.)
    MachineCrash,
    /// Machine-scope: a transient brownout — the machine keeps its queue
    /// but its throughput collapses (every thread stalls) for a window of
    /// fleet epochs.
    Brownout,
    /// Machine-scope: a crashed machine comes back after its recovery
    /// delay (emitted by [`MachineFaultConfig::timeline`] so archived
    /// schedules show the outage window, not just its start).
    MachineRecover,
}

json_enum!(FaultKind {
    Dropout,
    CorruptNan,
    CorruptZero,
    CorruptSaturate,
    Stale,
    MigrationFail,
    MigrationDelay,
    Stall,
    MachineCrash,
    Brownout,
    MachineRecover
} {});

/// Per-channel fault rates. All rates are per-(thread, quantum)
/// probabilities; the default is all-zero, under which every draw returns
/// nothing and the layer changes no run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a thread's sample for a quantum is dropped.
    pub dropout_rate: f64,
    /// Probability a surviving sample is corrupted (NaN / zero /
    /// saturated, chosen uniformly).
    pub corruption_rate: f64,
    /// Probability a surviving sample replays the previous quantum's
    /// reading.
    pub stale_rate: f64,
    /// Half-width of the multiplicative measurement noise applied to
    /// surviving samples: rates are scaled by `1 + a·u`, `u ∈ [−1, 1)`.
    /// Zero disables the noise channel.
    pub noise_amplitude: f64,
    /// Probability a requested migration silently fails.
    pub migration_fail_rate: f64,
    /// Probability a requested migration is deferred by
    /// [`FaultConfig::migration_delay_quanta`] quanta.
    pub migration_delay_rate: f64,
    /// How many quanta late a delayed migration lands.
    pub migration_delay_quanta: u32,
    /// Probability a thread transiently stalls at a quantum boundary.
    pub stall_rate: f64,
    /// Duration of one transient stall, microseconds.
    pub stall_us: u64,
    /// Fault-stream seed, mixed per channel/thread/quantum.
    pub seed: u64,
}

json_struct!(FaultConfig {
    dropout_rate,
    corruption_rate,
    stale_rate,
    noise_amplitude,
    migration_fail_rate,
    migration_delay_rate,
    migration_delay_quanta,
    stall_rate,
    stall_us,
    seed,
});

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            dropout_rate: 0.0,
            corruption_rate: 0.0,
            stale_rate: 0.0,
            noise_amplitude: 0.0,
            migration_fail_rate: 0.0,
            migration_delay_rate: 0.0,
            migration_delay_quanta: 2,
            stall_rate: 0.0,
            stall_us: 20_000,
            seed: 0,
        }
    }
}

/// Channel salts: independent hash streams per fault family, so raising
/// one rate never shifts another channel's draws.
const SALT_TELEMETRY: u64 = 0xFA01_7E1E_0000_0001;
const SALT_CORRUPT_KIND: u64 = 0xFA01_C022_0000_0002;
const SALT_NOISE: u64 = 0xFA01_A015_0000_0003;
const SALT_MIGRATION: u64 = 0xFA01_316A_0000_0004;
const SALT_STALL: u64 = 0xFA01_57A1_0000_0005;
const SALT_CRASH: u64 = 0xFA01_C4A5_0000_0006;
const SALT_BROWNOUT: u64 = 0xFA01_B07E_0000_0007;

/// Three-round SplitMix64 mix of `(seed, salt, thread, quantum)`.
fn mix(seed: u64, salt: u64, thread: u32, quantum: u64) -> u64 {
    let mut s = seed ^ salt;
    let h1 = splitmix64(&mut s);
    let mut s2 = h1 ^ (thread as u64);
    let h2 = splitmix64(&mut s2);
    let mut s3 = h2 ^ quantum;
    splitmix64(&mut s3)
}

/// Map 64 hash bits onto `[0, 1)` (53-bit mantissa, like `gen_f64`).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultConfig {
    /// Validate rates and channel parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("dropout_rate", self.dropout_rate),
            ("corruption_rate", self.corruption_rate),
            ("stale_rate", self.stale_rate),
            ("migration_fail_rate", self.migration_fail_rate),
            ("migration_delay_rate", self.migration_delay_rate),
            ("stall_rate", self.stall_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0,1], got {r}"));
            }
        }
        if !(0.0..1.0).contains(&self.noise_amplitude) {
            return Err("noise_amplitude must be in [0,1)".into());
        }
        if self.dropout_rate + self.corruption_rate + self.stale_rate > 1.0 {
            return Err("telemetry rates (dropout+corruption+stale) must sum to <= 1".into());
        }
        if self.migration_fail_rate + self.migration_delay_rate > 1.0 {
            return Err("migration rates (fail+delay) must sum to <= 1".into());
        }
        if self.migration_delay_rate > 0.0 && self.migration_delay_quanta == 0 {
            return Err("migration_delay_quanta must be >= 1 when delays are enabled".into());
        }
        if self.stall_rate > 0.0 && self.stall_us == 0 {
            return Err("stall_us must be > 0 when stalls are enabled".into());
        }
        Ok(())
    }

    /// The telemetry fault (if any) hitting `thread`'s sample at
    /// `quantum`. A single cascaded draw keeps the channel rates
    /// composable: dropout, then corruption, then stale replay.
    pub fn telemetry_fault(&self, thread: u32, quantum: u64) -> Option<FaultKind> {
        let budget = self.dropout_rate + self.corruption_rate + self.stale_rate;
        if budget <= 0.0 {
            return None;
        }
        let u = unit(mix(self.seed, SALT_TELEMETRY, thread, quantum));
        if u < self.dropout_rate {
            return Some(FaultKind::Dropout);
        }
        if u < self.dropout_rate + self.corruption_rate {
            let k = mix(self.seed, SALT_CORRUPT_KIND, thread, quantum) % 3;
            return Some(match k {
                0 => FaultKind::CorruptNan,
                1 => FaultKind::CorruptZero,
                _ => FaultKind::CorruptSaturate,
            });
        }
        if u < budget {
            return Some(FaultKind::Stale);
        }
        None
    }

    /// Multiplicative measurement-noise factor for `thread` at `quantum`
    /// (exactly 1.0 when the channel is off).
    pub fn noise_factor(&self, thread: u32, quantum: u64) -> f64 {
        if self.noise_amplitude <= 0.0 {
            return 1.0;
        }
        let u = unit(mix(self.seed, SALT_NOISE, thread, quantum));
        1.0 + self.noise_amplitude * (2.0 * u - 1.0)
    }

    /// The actuation fault (if any) hitting a migration of `thread`
    /// requested at `quantum`.
    pub fn migration_fault(&self, thread: u32, quantum: u64) -> Option<FaultKind> {
        let budget = self.migration_fail_rate + self.migration_delay_rate;
        if budget <= 0.0 {
            return None;
        }
        let u = unit(mix(self.seed, SALT_MIGRATION, thread, quantum));
        if u < self.migration_fail_rate {
            return Some(FaultKind::MigrationFail);
        }
        if u < budget {
            return Some(FaultKind::MigrationDelay);
        }
        None
    }

    /// Whether `thread` transiently stalls at the `quantum` boundary.
    pub fn stall(&self, thread: u32, quantum: u64) -> bool {
        self.stall_rate > 0.0 && unit(mix(self.seed, SALT_STALL, thread, quantum)) < self.stall_rate
    }

    /// The actuation fault (if any) hitting a cache-partition request at
    /// `quantum`. Partitioning is a machine-wide actuation (one CAT
    /// programming per request, not per thread), so it draws from the
    /// migration channel under the sentinel thread id `u32::MAX` — a slot
    /// no real thread occupies (thread ids are dense and small), which
    /// keeps every existing migration draw unshifted and the partition
    /// stream independent of migration traffic.
    pub fn partition_fault(&self, quantum: u64) -> Option<FaultKind> {
        self.migration_fault(u32::MAX, quantum)
    }

    /// Telemetry-degradation axis of the robustness experiment: dropout
    /// at `d` with corruption and stale replay riding along at `d/2`
    /// each, plus bounded noise of amplitude `d/2`.
    pub fn telemetry_axis(d: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            dropout_rate: d,
            corruption_rate: d / 2.0,
            stale_rate: d / 2.0,
            noise_amplitude: d / 2.0,
            seed,
            ..FaultConfig::default()
        }
    }

    /// Actuation-degradation axis: migration failures at `f` with delays
    /// riding along at `f/2` (landing two quanta late).
    pub fn actuation_axis(f: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            migration_fail_rate: f,
            migration_delay_rate: f / 2.0,
            migration_delay_quanta: 2,
            seed,
            ..FaultConfig::default()
        }
    }

    /// Every channel on at once — the robustness experiment's worst point.
    pub fn combined_worst(seed: u64) -> FaultConfig {
        FaultConfig {
            stall_rate: 0.02,
            stall_us: 20_000,
            seed,
            ..FaultConfig {
                migration_fail_rate: 0.10,
                migration_delay_rate: 0.05,
                migration_delay_quanta: 2,
                ..FaultConfig::telemetry_axis(0.30, seed)
            }
        }
    }
}

/// Second-and-third rounds of the SplitMix64 mix, from a pre-mixed
/// per-channel base (`splitmix64(seed ^ salt)`).
fn mix2(base: u64, thread: u32, quantum: u64) -> u64 {
    let mut s2 = base ^ (thread as u64);
    let h2 = splitmix64(&mut s2);
    let mut s3 = h2 ^ quantum;
    splitmix64(&mut s3)
}

/// Pre-mixed fault-draw state for one run.
///
/// The first round of `mix` depends only on `(seed, salt)`, both fixed
/// for a run, so the hasher caches it per channel once and every draw
/// costs two SplitMix64 rounds instead of three. The draws are
/// bit-identical to the corresponding [`FaultConfig`] methods (asserted by
/// a regression test).
#[derive(Debug, Clone, Copy)]
pub struct FaultHasher {
    cfg: FaultConfig,
    base_telemetry: u64,
    base_corrupt: u64,
    base_noise: u64,
    base_migration: u64,
    base_stall: u64,
}

impl FaultHasher {
    /// Pre-mix the per-channel bases for `cfg`.
    pub fn new(cfg: &FaultConfig) -> Self {
        let base = |salt: u64| {
            let mut s = cfg.seed ^ salt;
            splitmix64(&mut s)
        };
        FaultHasher {
            cfg: *cfg,
            base_telemetry: base(SALT_TELEMETRY),
            base_corrupt: base(SALT_CORRUPT_KIND),
            base_noise: base(SALT_NOISE),
            base_migration: base(SALT_MIGRATION),
            base_stall: base(SALT_STALL),
        }
    }

    /// Same draw as [`FaultConfig::telemetry_fault`].
    pub fn telemetry_fault(&self, thread: u32, quantum: u64) -> Option<FaultKind> {
        let c = &self.cfg;
        let budget = c.dropout_rate + c.corruption_rate + c.stale_rate;
        if budget <= 0.0 {
            return None;
        }
        let u = unit(mix2(self.base_telemetry, thread, quantum));
        if u < c.dropout_rate {
            return Some(FaultKind::Dropout);
        }
        if u < c.dropout_rate + c.corruption_rate {
            let k = mix2(self.base_corrupt, thread, quantum) % 3;
            return Some(match k {
                0 => FaultKind::CorruptNan,
                1 => FaultKind::CorruptZero,
                _ => FaultKind::CorruptSaturate,
            });
        }
        if u < budget {
            return Some(FaultKind::Stale);
        }
        None
    }

    /// Same draw as [`FaultConfig::noise_factor`].
    pub fn noise_factor(&self, thread: u32, quantum: u64) -> f64 {
        if self.cfg.noise_amplitude <= 0.0 {
            return 1.0;
        }
        let u = unit(mix2(self.base_noise, thread, quantum));
        1.0 + self.cfg.noise_amplitude * (2.0 * u - 1.0)
    }

    /// Same draw as [`FaultConfig::migration_fault`].
    pub fn migration_fault(&self, thread: u32, quantum: u64) -> Option<FaultKind> {
        let c = &self.cfg;
        let budget = c.migration_fail_rate + c.migration_delay_rate;
        if budget <= 0.0 {
            return None;
        }
        let u = unit(mix2(self.base_migration, thread, quantum));
        if u < c.migration_fail_rate {
            return Some(FaultKind::MigrationFail);
        }
        if u < budget {
            return Some(FaultKind::MigrationDelay);
        }
        None
    }

    /// Same draw as [`FaultConfig::stall`].
    pub fn stall(&self, thread: u32, quantum: u64) -> bool {
        self.cfg.stall_rate > 0.0
            && unit(mix2(self.base_stall, thread, quantum)) < self.cfg.stall_rate
    }

    /// Same draw as [`FaultConfig::partition_fault`].
    pub fn partition_fault(&self, quantum: u64) -> Option<FaultKind> {
        self.migration_fault(u32::MAX, quantum)
    }
}

/// Whole-machine fault process, drawn once per *fleet epoch* per machine
/// at the dispatcher's barrier.
///
/// The unit of failure here is a machine, not a thread: a hard crash
/// freezes the whole box (it stops accepting and stops draining), a
/// brownout collapses its throughput for a window of epochs while it
/// keeps its queue, and a crashed machine recovers after a fixed delay
/// (or never, when `recovery_epochs` is zero). Draws are the same
/// chained-SplitMix64 construction as the per-thread channels with the
/// machine index in the thread slot and the fleet epoch in the quantum
/// slot, under fresh salts — enabling machine faults never shifts any
/// existing channel's stream, and a zero-rate channel returns `false`
/// without hashing, so fault-free fleets take the exact pre-fault code
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineFaultConfig {
    /// Per-(machine, epoch) probability the machine hard-crashes at that
    /// epoch's barrier.
    pub crash_rate: f64,
    /// Epochs a crashed machine stays down before recovering. Zero means
    /// a crash is permanent for the rest of the run.
    pub recovery_epochs: u32,
    /// Per-(machine, epoch) probability a brownout starts at that epoch's
    /// barrier (draws while already browned out extend nothing — the
    /// fleet's health state machine folds them).
    pub brownout_rate: f64,
    /// Epochs one brownout lasts.
    pub brownout_epochs: u32,
    /// Per-epoch stall applied to every thread of a browned-out machine,
    /// milliseconds — the throughput-collapse knob.
    pub brownout_stall_ms: u64,
    /// Machine-fault stream seed, mixed per channel/machine/epoch.
    pub seed: u64,
}

json_struct!(MachineFaultConfig {
    crash_rate,
    recovery_epochs,
    brownout_rate,
    brownout_epochs,
    brownout_stall_ms,
    seed,
});

impl Default for MachineFaultConfig {
    fn default() -> Self {
        MachineFaultConfig {
            crash_rate: 0.0,
            recovery_epochs: 3,
            brownout_rate: 0.0,
            brownout_epochs: 1,
            brownout_stall_ms: 2_000,
            seed: 0,
        }
    }
}

impl MachineFaultConfig {
    /// Validate rates and window parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("crash_rate", self.crash_rate),
            ("brownout_rate", self.brownout_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0,1], got {r}"));
            }
        }
        if self.brownout_rate > 0.0 && self.brownout_epochs == 0 {
            return Err("brownout_epochs must be >= 1 when brownouts are enabled".into());
        }
        if self.brownout_rate > 0.0 && self.brownout_stall_ms == 0 {
            return Err("brownout_stall_ms must be > 0 when brownouts are enabled".into());
        }
        Ok(())
    }

    /// Whether `machine` hard-crashes at `epoch`'s barrier.
    pub fn crash_at(&self, machine: u32, epoch: u64) -> bool {
        self.crash_rate > 0.0 && unit(mix(self.seed, SALT_CRASH, machine, epoch)) < self.crash_rate
    }

    /// Whether a brownout starts on `machine` at `epoch`'s barrier.
    pub fn brownout_at(&self, machine: u32, epoch: u64) -> bool {
        self.brownout_rate > 0.0
            && unit(mix(self.seed, SALT_BROWNOUT, machine, epoch)) < self.brownout_rate
    }

    /// Crash-and-brownout axis preset for the failover experiment: crash
    /// probability `c` and brownout probability `b` per (machine, epoch),
    /// with the default recovery/brownout windows.
    pub fn axis(c: f64, b: f64, seed: u64) -> MachineFaultConfig {
        MachineFaultConfig {
            crash_rate: c,
            brownout_rate: b,
            seed,
            ..MachineFaultConfig::default()
        }
    }

    /// Expand the machine-fault stream over a `machines × epochs` grid
    /// into an archivable event list, folding raw draws through the same
    /// state machine the fleet applies: crash draws while a machine is
    /// already down are ignored, each crash emits a [`FaultKind::MachineRecover`]
    /// at its recovery epoch (when finite and inside the grid), and
    /// brownout draws while already browned out extend nothing. The
    /// event's `thread` field carries the machine index.
    pub fn timeline(&self, machines: u32, epochs: u64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for m in 0..machines {
            // Down-until / brownout-until epoch (exclusive); u64::MAX is
            // a permanent crash.
            let mut down_until = 0u64;
            let mut brown_until = 0u64;
            for e in 0..epochs {
                if e < down_until {
                    continue;
                }
                if down_until != 0 && e == down_until {
                    events.push(FaultEvent {
                        quantum: e,
                        thread: m,
                        kind: FaultKind::MachineRecover,
                    });
                    down_until = 0;
                }
                if self.crash_at(m, e) {
                    events.push(FaultEvent {
                        quantum: e,
                        thread: m,
                        kind: FaultKind::MachineCrash,
                    });
                    down_until = if self.recovery_epochs == 0 {
                        u64::MAX
                    } else {
                        e + u64::from(self.recovery_epochs)
                    };
                    continue;
                }
                if e >= brown_until && self.brownout_at(m, e) {
                    events.push(FaultEvent {
                        quantum: e,
                        thread: m,
                        kind: FaultKind::Brownout,
                    });
                    brown_until = e + u64::from(self.brownout_epochs);
                }
            }
        }
        events
    }
}

/// One materialized fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Quantum index the fault fires in.
    pub quantum: u64,
    /// Thread index the fault hits.
    pub thread: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A serializable expansion of a fault stream over a `threads × quanta`
/// grid: exactly the draws the online injector makes, in `(quantum,
/// thread)` order, so an experiment's fault schedule can be archived with
/// its results. Migration faults are listed for every `(thread, quantum)`
/// cell — they fire only if the policy actually requests a migration
/// there, so the plan is the superset of what a given run experiences.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name (reported in experiment output).
    pub name: String,
    /// Fault events in generation order.
    pub events: Vec<FaultEvent>,
}

json_struct!(FaultEvent {
    quantum,
    thread,
    kind,
});
json_struct!(FaultPlan { name, events });

impl FaultPlan {
    /// Expand `cfg`'s fault stream over a grid of `threads` threads and
    /// `quanta` quanta. Deterministic in `(cfg, threads, quanta)`: the
    /// same hash draws the driver makes online.
    pub fn generate(name: impl Into<String>, cfg: &FaultConfig, threads: u32, quanta: u64) -> Self {
        let mut events = Vec::new();
        for q in 0..quanta {
            for t in 0..threads {
                if let Some(kind) = cfg.telemetry_fault(t, q) {
                    events.push(FaultEvent {
                        quantum: q,
                        thread: t,
                        kind,
                    });
                }
                if let Some(kind) = cfg.migration_fault(t, q) {
                    events.push(FaultEvent {
                        quantum: q,
                        thread: t,
                        kind,
                    });
                }
                if cfg.stall(t, q) {
                    events.push(FaultEvent {
                        quantum: q,
                        thread: t,
                        kind: FaultKind::Stall,
                    });
                }
            }
        }
        FaultPlan {
            name: name.into(),
            events,
        }
    }

    /// Events of one kind.
    pub fn count_of(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::check::check;
    use dike_util::json;

    /// The driver draws on every call, so the default's zero rates must
    /// draw nothing through the hasher it uses, whatever the seed and the
    /// channels' other parameters: no telemetry or actuation fault, a
    /// noise factor of exactly 1.0 and no stall, for any thread (the
    /// partition sentinel included) at any quantum.
    #[test]
    fn default_config_is_inert_and_valid() {
        FaultConfig::default().validate().unwrap();
        check("default_config_is_inert_and_valid", 64, |rng| {
            let cfg = FaultConfig {
                migration_delay_quanta: rng.gen_range(0u32..8),
                stall_us: rng.gen_range(0u64..100_000),
                seed: rng.gen_range(0u64..u64::MAX),
                ..FaultConfig::default()
            };
            cfg.validate().unwrap();
            let h = FaultHasher::new(&cfg);
            for _ in 0..64 {
                let t = match rng.gen_range(0u32..3) {
                    0 => u32::MAX,
                    1 => rng.gen_range(0u32..64),
                    _ => rng.gen_range(0u32..=u32::MAX),
                };
                let q = rng.gen_range(0u64..u64::MAX);
                // The reference draws the hasher is checked against...
                assert_eq!(cfg.telemetry_fault(t, q), None);
                assert_eq!(cfg.noise_factor(t, q), 1.0);
                assert_eq!(cfg.migration_fault(t, q), None);
                assert!(!cfg.stall(t, q));
                assert_eq!(cfg.partition_fault(q), None);
                // ...and the hasher the driver draws through.
                assert_eq!(h.telemetry_fault(t, q), None);
                assert_eq!(h.noise_factor(t, q), 1.0);
                assert_eq!(h.migration_fault(t, q), None);
                assert!(!h.stall(t, q));
                assert_eq!(h.partition_fault(q), None);
            }
            assert!(FaultPlan::generate("inert", &cfg, 8, 50).events.is_empty());
        });
    }

    #[test]
    fn validation_rejects_nonsense() {
        let c = FaultConfig {
            dropout_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            dropout_rate: f64::NAN,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            dropout_rate: 0.6,
            corruption_rate: 0.3,
            stale_rate: 0.3,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            noise_amplitude: 1.0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            migration_delay_rate: 0.1,
            migration_delay_quanta: 0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            stall_rate: 0.1,
            stall_us: 0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(FaultConfig::telemetry_axis(0.3, 1).validate().is_ok());
        assert!(FaultConfig::actuation_axis(0.1, 1).validate().is_ok());
        assert!(FaultConfig::combined_worst(1).validate().is_ok());
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let cfg = FaultConfig {
            dropout_rate: 0.2,
            corruption_rate: 0.1,
            stale_rate: 0.1,
            migration_fail_rate: 0.1,
            migration_delay_rate: 0.05,
            stall_rate: 0.05,
            seed: 9,
            ..FaultConfig::default()
        };
        cfg.validate().unwrap();
        let plan = FaultPlan::generate("rates", &cfg, 40, 500);
        let cells = 40.0 * 500.0;
        let frac = |k| plan.count_of(k) as f64 / cells;
        assert!((frac(FaultKind::Dropout) - 0.2).abs() < 0.02);
        assert!((frac(FaultKind::Stale) - 0.1).abs() < 0.02);
        assert!((frac(FaultKind::MigrationFail) - 0.1).abs() < 0.02);
        assert!((frac(FaultKind::Stall) - 0.05).abs() < 0.02);
        // The three corruption kinds together hit the corruption rate and
        // each kind actually occurs.
        let corrupt = frac(FaultKind::CorruptNan)
            + frac(FaultKind::CorruptZero)
            + frac(FaultKind::CorruptSaturate);
        assert!((corrupt - 0.1).abs() < 0.02);
        for k in [
            FaultKind::CorruptNan,
            FaultKind::CorruptZero,
            FaultKind::CorruptSaturate,
        ] {
            assert!(plan.count_of(k) > 0, "{k:?} never drawn");
        }
    }

    #[test]
    fn noise_is_bounded_and_centred() {
        let cfg = FaultConfig {
            noise_amplitude: 0.1,
            seed: 4,
            ..FaultConfig::default()
        };
        let mut sum = 0.0;
        let mut n = 0u32;
        for q in 0..200 {
            for t in 0..10 {
                let f = cfg.noise_factor(t, q);
                assert!((0.9..1.1).contains(&f), "factor {f}");
                sum += f;
                n += 1;
            }
        }
        assert!((sum / n as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let cfg = FaultConfig::combined_worst(11);
        let plan = FaultPlan::generate("worst", &cfg, 8, 40);
        assert!(!plan.events.is_empty());
        let s = json::to_string(&plan);
        let back: FaultPlan = json::from_str(&s).expect("parse");
        assert_eq!(plan, back);
        // The config itself round-trips too (it is archived alongside).
        let s = json::to_string(&cfg);
        let back: FaultConfig = json::from_str(&s).expect("parse");
        assert_eq!(cfg, back);
    }

    #[test]
    fn generator_determinism_property() {
        // Mirrors ArrivalTrace's seeded-generator property: for any rates
        // and seed, regeneration is identical; a different seed moves at
        // least one event once any channel is active.
        check("fault_plan_determinism", 64, |rng| {
            let cfg = FaultConfig {
                dropout_rate: rng.gen_f64() * 0.3,
                corruption_rate: rng.gen_f64() * 0.2,
                stale_rate: rng.gen_f64() * 0.2,
                noise_amplitude: rng.gen_f64() * 0.4,
                migration_fail_rate: rng.gen_f64() * 0.3,
                migration_delay_rate: rng.gen_f64() * 0.2,
                migration_delay_quanta: 1 + rng.gen_range(0u32..4),
                stall_rate: rng.gen_f64() * 0.1,
                stall_us: 1 + rng.gen_range(0u64..50_000),
                seed: rng.gen_range(0u64..u64::MAX),
            };
            cfg.validate().unwrap();
            let a = FaultPlan::generate("p", &cfg, 16, 64);
            let b = FaultPlan::generate("p", &cfg, 16, 64);
            assert_eq!(a, b);
            if cfg.dropout_rate + cfg.corruption_rate + cfg.stale_rate > 0.05 {
                let other = FaultConfig {
                    seed: cfg.seed.wrapping_add(1),
                    ..cfg
                };
                let c = FaultPlan::generate("p", &other, 16, 64);
                assert_ne!(a.events, c.events, "seed change must move the stream");
            }
        });
    }

    #[test]
    fn hasher_reproduces_config_draws_bit_for_bit() {
        // The pre-mixed FaultHasher must agree with the three-round mix on
        // every channel.
        let cfg = FaultConfig::combined_worst(17);
        let h = FaultHasher::new(&cfg);
        for q in 0..64 {
            for t in 0..12u32 {
                assert_eq!(h.telemetry_fault(t, q), cfg.telemetry_fault(t, q));
                assert_eq!(h.noise_factor(t, q), cfg.noise_factor(t, q));
                assert_eq!(h.migration_fault(t, q), cfg.migration_fault(t, q));
                assert_eq!(h.stall(t, q), cfg.stall(t, q));
            }
        }
        // Inert configs stay inert through the hasher too.
        let inert = FaultHasher::new(&FaultConfig::default());
        assert_eq!(inert.telemetry_fault(0, 0), None);
        assert_eq!(inert.noise_factor(0, 0), 1.0);
        assert_eq!(inert.migration_fault(0, 0), None);
        assert!(!inert.stall(0, 0));
        assert_eq!(inert.partition_fault(0), None);
    }

    #[test]
    fn partition_faults_share_the_migration_channel_under_a_sentinel() {
        // Partition draws are migration draws at thread u32::MAX: the
        // hasher and config agree, real-thread migration draws are
        // untouched, and an actuation axis makes some partition requests
        // fail or delay over a long horizon.
        let cfg = FaultConfig::actuation_axis(0.25, 13);
        let h = FaultHasher::new(&cfg);
        let mut fired = 0;
        for q in 0..200 {
            assert_eq!(h.partition_fault(q), cfg.partition_fault(q));
            assert_eq!(cfg.partition_fault(q), cfg.migration_fault(u32::MAX, q));
            fired += usize::from(cfg.partition_fault(q).is_some());
        }
        assert!(fired > 10, "actuation axis must hit partitions: {fired}");
        // Telemetry-only configs never fault partitions.
        let tel = FaultConfig::telemetry_axis(0.3, 13);
        assert!((0..100).all(|q| tel.partition_fault(q).is_none()));
    }

    #[test]
    fn machine_fault_default_is_inert_and_valid() {
        let cfg = MachineFaultConfig::default();
        cfg.validate().unwrap();
        for e in 0..200 {
            for m in 0..32 {
                assert!(!cfg.crash_at(m, e));
                assert!(!cfg.brownout_at(m, e));
            }
        }
        assert!(cfg.timeline(32, 200).is_empty());
        // A non-zero seed alone keeps the channel inert: zero rates must
        // short-circuit to the exact current path.
        let seeded = MachineFaultConfig {
            seed: 0xDEAD_BEEF,
            ..MachineFaultConfig::default()
        };
        assert!(seeded.timeline(32, 200).is_empty());
    }

    #[test]
    fn machine_fault_validation_rejects_nonsense() {
        let c = MachineFaultConfig {
            crash_rate: 1.5,
            ..MachineFaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MachineFaultConfig {
            brownout_rate: f64::NAN,
            ..MachineFaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MachineFaultConfig {
            brownout_rate: 0.2,
            brownout_epochs: 0,
            ..MachineFaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MachineFaultConfig {
            brownout_rate: 0.2,
            brownout_stall_ms: 0,
            ..MachineFaultConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(MachineFaultConfig::axis(0.1, 0.2, 7).validate().is_ok());
    }

    #[test]
    fn machine_fault_rates_are_approximately_honoured() {
        let cfg = MachineFaultConfig {
            crash_rate: 0.1,
            brownout_rate: 0.15,
            seed: 21,
            ..MachineFaultConfig::default()
        };
        let (mut crashes, mut brownouts) = (0usize, 0usize);
        let cells = 64.0 * 500.0;
        for e in 0..500 {
            for m in 0..64 {
                crashes += usize::from(cfg.crash_at(m, e));
                brownouts += usize::from(cfg.brownout_at(m, e));
            }
        }
        assert!((crashes as f64 / cells - 0.1).abs() < 0.02);
        assert!((brownouts as f64 / cells - 0.15).abs() < 0.02);
    }

    #[test]
    fn machine_fault_channels_are_independent_of_thread_channels() {
        // Turning the machine-scope channel on must not shift any
        // per-thread channel's draws (fresh salts), and vice versa the
        // machine draws only depend on the machine-fault seed.
        let base = FaultConfig {
            dropout_rate: 0.2,
            migration_fail_rate: 0.1,
            seed: 5,
            ..FaultConfig::default()
        };
        let machine = MachineFaultConfig::axis(0.3, 0.2, 5);
        for q in 0..100 {
            for t in 0..8 {
                assert_eq!(base.telemetry_fault(t, q), base.telemetry_fault(t, q));
                // Same (seed, index, epoch) but different salts: the
                // crash/brownout draws are distinct streams from each
                // other and from the migration channel.
                let crash = machine.crash_at(t, q);
                let brown = machine.brownout_at(t, q);
                let _ = (crash, brown);
            }
        }
        let a: Vec<bool> = (0..400).map(|e| machine.crash_at(3, e)).collect();
        let b: Vec<bool> = (0..400).map(|e| machine.brownout_at(3, e)).collect();
        assert_ne!(a, b, "crash and brownout must be independent streams");
    }

    #[test]
    fn machine_fault_timeline_folds_the_outage_state_machine() {
        let cfg = MachineFaultConfig {
            crash_rate: 0.15,
            recovery_epochs: 3,
            brownout_rate: 0.2,
            brownout_epochs: 2,
            seed: 33,
            ..MachineFaultConfig::default()
        };
        let tl = cfg.timeline(16, 80);
        assert!(!tl.is_empty());
        // Regenerating is identical, and per machine: no crash event
        // inside another crash's outage window, every finite recovery
        // emitted exactly recovery_epochs after its crash.
        assert_eq!(tl, cfg.timeline(16, 80));
        for m in 0..16u32 {
            let mine: Vec<&FaultEvent> = tl.iter().filter(|e| e.thread == m).collect();
            let mut down_until = None::<u64>;
            for ev in mine {
                match ev.kind {
                    FaultKind::MachineCrash => {
                        assert!(
                            down_until.is_none_or(|d| ev.quantum >= d),
                            "machine {m} crashed while already down at {}",
                            ev.quantum
                        );
                        down_until = Some(ev.quantum + 3);
                    }
                    FaultKind::MachineRecover => {
                        assert_eq!(Some(ev.quantum), down_until, "recovery delay wrong");
                        down_until = None;
                    }
                    FaultKind::Brownout => {
                        assert!(
                            down_until.is_none_or(|d| ev.quantum >= d),
                            "brownout drawn during an outage"
                        );
                    }
                    _ => panic!("unexpected kind in machine timeline"),
                }
            }
        }
        // Permanent crashes (recovery 0) never emit a recovery.
        let perm = MachineFaultConfig {
            recovery_epochs: 0,
            ..cfg
        };
        let tl = perm.timeline(16, 80);
        assert!(tl.iter().any(|e| e.kind == FaultKind::MachineCrash));
        assert!(!tl.iter().any(|e| e.kind == FaultKind::MachineRecover));
        // At most one crash per machine: the first one is forever.
        for m in 0..16u32 {
            let crashes = tl
                .iter()
                .filter(|e| e.thread == m && e.kind == FaultKind::MachineCrash)
                .count();
            assert!(crashes <= 1, "machine {m} crashed {crashes} times");
        }
    }

    #[test]
    fn machine_fault_config_round_trips_through_json() {
        let cfg = MachineFaultConfig::axis(0.08, 0.15, 99);
        let s = json::to_string(&cfg);
        let back: MachineFaultConfig = json::from_str(&s).expect("parse");
        assert_eq!(cfg, back);
    }

    #[test]
    fn channels_are_independent_streams() {
        // Raising one channel's rate must not shift another channel's
        // draws (each has its own salt).
        let base = FaultConfig {
            migration_fail_rate: 0.2,
            seed: 5,
            ..FaultConfig::default()
        };
        let more = FaultConfig {
            dropout_rate: 0.3,
            ..base
        };
        for q in 0..100 {
            for t in 0..8 {
                assert_eq!(base.migration_fault(t, q), more.migration_fault(t, q));
            }
        }
    }
}
