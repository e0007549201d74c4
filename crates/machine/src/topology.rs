//! Core topology: physical cores, SMT contexts, and heterogeneity.
//!
//! The paper's testbed is a dual-socket Xeon E5 where one socket runs at
//! maximum frequency (TurboBoost, 2.33 GHz) and the other at minimum
//! (1.21 GHz), with 2-way hyper-threading: 20 physical cores exposing 40
//! virtual cores. [`Topology`] describes such a machine: a list of physical
//! cores, each with a *kind* (its frequency class) and a number of SMT
//! contexts (virtual cores).

use crate::ids::{DomainId, PCoreId, VCoreId};
use dike_util::{json_enum, json_struct};

/// Named frequency class of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreClass {
    /// High-frequency class (the paper's TurboBoost socket).
    Fast,
    /// Low-frequency class (the paper's minimum-frequency socket).
    Slow,
    /// Anything else (custom topologies).
    Other,
}

/// Frequency class of a physical core.
///
/// The paper builds heterogeneity from two classes only, but nothing in the
/// scheduler restricts the machine to two, so the kind carries its frequency
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreKind {
    /// Named class, e.g. [`CoreClass::Fast`].
    pub class: CoreClass,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
}

impl CoreKind {
    /// The paper's fast socket: 2.33 GHz (TurboBoost enabled).
    pub const FAST: CoreKind = CoreKind {
        class: CoreClass::Fast,
        freq_hz: 2.33e9,
    };
    /// The paper's slow socket: 1.21 GHz (minimum frequency).
    pub const SLOW: CoreKind = CoreKind {
        class: CoreClass::Slow,
        freq_hz: 1.21e9,
    };

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self.class {
            CoreClass::Fast => "fast",
            CoreClass::Slow => "slow",
            CoreClass::Other => "other",
        }
    }
}

/// A physical core: one pipeline with `smt_ways` hardware thread contexts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalCore {
    /// Frequency class.
    pub kind: CoreKind,
    /// Number of SMT contexts (1 = no hyper-threading, 2 = the paper's setup).
    pub smt_ways: u32,
}

/// A NUMA domain descriptor used by the multi-domain builders: one memory
/// controller local to a block of physical cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumaDomain {
    /// Fast physical cores in the domain.
    pub n_fast: usize,
    /// Slow physical cores in the domain.
    pub n_slow: usize,
    /// SMT contexts per physical core.
    pub smt_ways: u32,
}

json_struct!(NumaDomain {
    n_fast,
    n_slow,
    smt_ways,
});

/// The machine's core topology.
///
/// Virtual cores are numbered densely: physical core `p`'s contexts occupy
/// virtual ids `[first_vcore(p) .. first_vcore(p) + smt_ways)`.
///
/// Every physical core belongs to exactly one NUMA domain (the memory
/// controller its misses are homed to). Single-controller machines — the
/// paper's testbed — put every core in domain 0, and the engine runs them
/// through the same per-domain tick path with N = 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    pcores: Vec<PhysicalCore>,
    /// `vcore_to_pcore[v]` = owning physical core of virtual core `v`.
    vcore_to_pcore: Vec<PCoreId>,
    /// `pcore_first_vcore[p]` = first virtual core id of physical core `p`.
    pcore_first_vcore: Vec<u32>,
    /// `pcore_domain[p]` = NUMA domain of physical core `p`.
    pcore_domain: Vec<DomainId>,
    /// Number of NUMA domains (= memory controllers).
    num_domains: u32,
}

json_enum!(CoreClass { Fast, Slow, Other } {});
json_struct!(CoreKind { class, freq_hz });
json_struct!(PhysicalCore { kind, smt_ways });
json_struct!(Topology {
    pcores,
    vcore_to_pcore,
    pcore_first_vcore,
    pcore_domain,
    num_domains,
});

impl Topology {
    /// Build a single-domain topology from an explicit list of physical cores.
    pub fn new(pcores: Vec<PhysicalCore>) -> Self {
        let n = pcores.len();
        Topology::with_domains(pcores, vec![DomainId(0); n])
    }

    /// Build a topology with an explicit physical-core → NUMA-domain map.
    ///
    /// Domain ids must be dense (`0..num_domains` all occupied).
    pub fn with_domains(pcores: Vec<PhysicalCore>, pcore_domain: Vec<DomainId>) -> Self {
        assert!(!pcores.is_empty(), "topology must have at least one core");
        assert_eq!(
            pcores.len(),
            pcore_domain.len(),
            "one domain id per physical core"
        );
        let mut vcore_to_pcore = Vec::new();
        let mut pcore_first_vcore = Vec::with_capacity(pcores.len());
        for (p, core) in pcores.iter().enumerate() {
            assert!(core.smt_ways >= 1, "a physical core needs >=1 SMT context");
            assert!(core.kind.freq_hz > 0.0, "core frequency must be positive");
            pcore_first_vcore.push(vcore_to_pcore.len() as u32);
            for _ in 0..core.smt_ways {
                vcore_to_pcore.push(PCoreId(p as u32));
            }
        }
        let num_domains = pcore_domain.iter().map(|d| d.0 + 1).max().unwrap_or(1);
        for d in 0..num_domains {
            assert!(
                pcore_domain.iter().any(|x| x.0 == d),
                "domain ids must be dense: domain {d} has no cores"
            );
        }
        Topology {
            pcores,
            vcore_to_pcore,
            pcore_first_vcore,
            pcore_domain,
            num_domains,
        }
    }

    /// A multi-domain machine built from per-domain descriptors: domain `d`'s
    /// cores are laid out contiguously (fast first), in domain order.
    pub fn numa(domains: &[NumaDomain]) -> Self {
        assert!(!domains.is_empty(), "need at least one NUMA domain");
        let mut cores = Vec::new();
        let mut core_domain = Vec::new();
        for (d, dom) in domains.iter().enumerate() {
            cores.extend(std::iter::repeat_n(
                PhysicalCore {
                    kind: CoreKind::FAST,
                    smt_ways: dom.smt_ways,
                },
                dom.n_fast,
            ));
            cores.extend(std::iter::repeat_n(
                PhysicalCore {
                    kind: CoreKind::SLOW,
                    smt_ways: dom.smt_ways,
                },
                dom.n_slow,
            ));
            core_domain.extend(std::iter::repeat_n(
                DomainId(d as u32),
                dom.n_fast + dom.n_slow,
            ));
        }
        Topology::with_domains(cores, core_domain)
    }

    /// `n_domains` copies of the paper's socket mix (`n_fast` + `n_slow`
    /// physical cores per domain, `smt_ways`-way SMT).
    pub fn numa_uniform(n_domains: usize, n_fast: usize, n_slow: usize, smt_ways: u32) -> Self {
        Topology::numa(&vec![
            NumaDomain {
                n_fast,
                n_slow,
                smt_ways,
            };
            n_domains
        ])
    }

    /// A two-class machine: `n_fast` fast + `n_slow` slow physical cores,
    /// each with `smt_ways` contexts. Fast cores come first.
    pub fn two_class(n_fast: usize, n_slow: usize, smt_ways: u32) -> Self {
        let mut cores = Vec::with_capacity(n_fast + n_slow);
        cores.extend(std::iter::repeat_n(
            PhysicalCore {
                kind: CoreKind::FAST,
                smt_ways,
            },
            n_fast,
        ));
        cores.extend(std::iter::repeat_n(
            PhysicalCore {
                kind: CoreKind::SLOW,
                smt_ways,
            },
            n_slow,
        ));
        Topology::new(cores)
    }

    /// A homogeneous machine of `n` cores of `kind` with `smt_ways` contexts.
    pub fn homogeneous(n: usize, kind: CoreKind, smt_ways: u32) -> Self {
        Topology::new(vec![PhysicalCore { kind, smt_ways }; n])
    }

    /// Number of physical cores.
    #[inline]
    pub fn num_pcores(&self) -> usize {
        self.pcores.len()
    }

    /// Number of virtual cores (schedulable contexts).
    #[inline]
    pub fn num_vcores(&self) -> usize {
        self.vcore_to_pcore.len()
    }

    /// Physical core owning a virtual core.
    #[inline]
    pub fn physical_of(&self, v: VCoreId) -> PCoreId {
        self.vcore_to_pcore[v.index()]
    }

    /// Description of a physical core.
    #[inline]
    pub fn pcore(&self, p: PCoreId) -> &PhysicalCore {
        &self.pcores[p.index()]
    }

    /// Frequency class of the physical core behind a virtual core.
    #[inline]
    pub fn kind_of(&self, v: VCoreId) -> CoreKind {
        self.pcores[self.physical_of(v).index()].kind
    }

    /// Clock frequency (Hz) seen by a thread running on virtual core `v`.
    #[inline]
    pub fn freq_of(&self, v: VCoreId) -> f64 {
        self.kind_of(v).freq_hz
    }

    /// First virtual core id of a physical core.
    #[inline]
    pub fn first_vcore(&self, p: PCoreId) -> VCoreId {
        VCoreId(self.pcore_first_vcore[p.index()])
    }

    /// Number of NUMA domains (memory controllers). Always >= 1.
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.num_domains as usize
    }

    /// NUMA domain of a physical core.
    #[inline]
    pub fn domain_of_pcore(&self, p: PCoreId) -> DomainId {
        self.pcore_domain[p.index()]
    }

    /// NUMA domain of a virtual core (its physical core's domain).
    #[inline]
    pub fn domain_of(&self, v: VCoreId) -> DomainId {
        self.pcore_domain[self.physical_of(v).index()]
    }

    /// Iterator over all domain ids.
    pub fn domains(&self) -> impl Iterator<Item = DomainId> + '_ {
        (0..self.num_domains).map(DomainId)
    }

    /// Virtual cores belonging to a domain, in id order.
    pub fn vcores_in_domain(&self, d: DomainId) -> Vec<VCoreId> {
        self.vcores().filter(|&v| self.domain_of(v) == d).collect()
    }

    /// Iterator over all virtual core ids.
    pub fn vcores(&self) -> impl Iterator<Item = VCoreId> + '_ {
        (0..self.num_vcores() as u32).map(VCoreId)
    }

    /// Iterator over all physical core ids.
    pub fn pcores(&self) -> impl Iterator<Item = PCoreId> + '_ {
        (0..self.num_pcores() as u32).map(PCoreId)
    }

    /// The SMT sibling virtual cores of `v` (contexts sharing its pipeline),
    /// excluding `v` itself.
    pub fn siblings_of(&self, v: VCoreId) -> Vec<VCoreId> {
        let p = self.physical_of(v);
        let first = self.pcore_first_vcore[p.index()];
        let ways = self.pcores[p.index()].smt_ways;
        (first..first + ways)
            .map(VCoreId)
            .filter(|&s| s != v)
            .collect()
    }

    /// Maximum core frequency in the machine.
    pub fn max_freq_hz(&self) -> f64 {
        self.pcores
            .iter()
            .map(|c| c.kind.freq_hz)
            .fold(0.0, f64::max)
    }

    /// Minimum core frequency in the machine.
    pub fn min_freq_hz(&self) -> f64 {
        self.pcores
            .iter()
            .map(|c| c.kind.freq_hz)
            .fold(f64::INFINITY, f64::min)
    }

    /// True if every core has the same frequency.
    pub fn is_homogeneous(&self) -> bool {
        (self.max_freq_hz() - self.min_freq_hz()).abs() < f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_class_layout_is_dense_and_ordered() {
        let t = Topology::two_class(2, 3, 2);
        assert_eq!(t.num_pcores(), 5);
        assert_eq!(t.num_vcores(), 10);
        // Fast cores first.
        assert_eq!(t.kind_of(VCoreId(0)).label(), "fast");
        assert_eq!(t.kind_of(VCoreId(3)).label(), "fast");
        assert_eq!(t.kind_of(VCoreId(4)).label(), "slow");
        assert_eq!(t.kind_of(VCoreId(9)).label(), "slow");
        // vcores 0,1 share pcore 0.
        assert_eq!(t.physical_of(VCoreId(0)), t.physical_of(VCoreId(1)));
        assert_ne!(t.physical_of(VCoreId(1)), t.physical_of(VCoreId(2)));
    }

    #[test]
    fn siblings_are_symmetric_and_exclude_self() {
        let t = Topology::two_class(1, 1, 2);
        let sib0 = t.siblings_of(VCoreId(0));
        assert_eq!(sib0, vec![VCoreId(1)]);
        let sib1 = t.siblings_of(VCoreId(1));
        assert_eq!(sib1, vec![VCoreId(0)]);
    }

    #[test]
    fn no_smt_means_no_siblings() {
        let t = Topology::two_class(2, 2, 1);
        assert_eq!(t.num_vcores(), 4);
        for v in t.vcores() {
            assert!(t.siblings_of(v).is_empty());
        }
    }

    #[test]
    fn homogeneous_machine_reports_homogeneous() {
        let t = Topology::homogeneous(4, CoreKind::FAST, 2);
        assert!(t.is_homogeneous());
        assert_eq!(t.max_freq_hz(), CoreKind::FAST.freq_hz);
        let het = Topology::two_class(2, 2, 2);
        assert!(!het.is_homogeneous());
        assert_eq!(het.min_freq_hz(), CoreKind::SLOW.freq_hz);
    }

    #[test]
    fn paper_machine_has_forty_vcores() {
        let t = Topology::two_class(10, 10, 2);
        assert_eq!(t.num_vcores(), 40);
        assert_eq!(t.num_pcores(), 20);
        let fast = t
            .vcores()
            .filter(|&v| t.kind_of(v).class == CoreClass::Fast)
            .count();
        assert_eq!(fast, 20);
    }

    #[test]
    fn first_vcore_matches_layout() {
        let t = Topology::two_class(2, 1, 2);
        assert_eq!(t.first_vcore(PCoreId(0)), VCoreId(0));
        assert_eq!(t.first_vcore(PCoreId(1)), VCoreId(2));
        assert_eq!(t.first_vcore(PCoreId(2)), VCoreId(4));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_topology_panics() {
        let _ = Topology::new(vec![]);
    }

    #[test]
    fn single_domain_by_default() {
        let t = Topology::two_class(10, 10, 2);
        assert_eq!(t.num_domains(), 1);
        for v in t.vcores() {
            assert_eq!(t.domain_of(v), DomainId(0));
        }
        assert_eq!(t.vcores_in_domain(DomainId(0)).len(), 40);
    }

    #[test]
    fn numa_uniform_layout_is_per_domain_contiguous() {
        // 4 domains x (10 fast + 10 slow) x 2-way SMT = 160 vcores.
        let t = Topology::numa_uniform(4, 10, 10, 2);
        assert_eq!(t.num_domains(), 4);
        assert_eq!(t.num_pcores(), 80);
        assert_eq!(t.num_vcores(), 160);
        // Domain d owns vcores [40d, 40d+40); the first half are fast.
        assert_eq!(t.domain_of(VCoreId(0)), DomainId(0));
        assert_eq!(t.domain_of(VCoreId(39)), DomainId(0));
        assert_eq!(t.domain_of(VCoreId(40)), DomainId(1));
        assert_eq!(t.domain_of(VCoreId(159)), DomainId(3));
        assert_eq!(t.kind_of(VCoreId(40)).label(), "fast");
        assert_eq!(t.kind_of(VCoreId(79)).label(), "slow");
        for d in t.domains() {
            let vs = t.vcores_in_domain(d);
            assert_eq!(vs.len(), 40);
            let fast = vs
                .iter()
                .filter(|&&v| t.kind_of(v).class == CoreClass::Fast)
                .count();
            assert_eq!(fast, 20);
        }
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_domain_ids_panic() {
        let cores = vec![
            PhysicalCore {
                kind: CoreKind::FAST,
                smt_ways: 1,
            };
            2
        ];
        let _ = Topology::with_domains(cores, vec![DomainId(0), DomainId(2)]);
    }
}
