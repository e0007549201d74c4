//! Phase-structured models of the paper's Rodinia applications.
//!
//! The paper's workloads combine ten applications from the Rodinia OpenMP
//! suite (plus the STREAM kernel). The schedulers never see application
//! code — only per-thread counter time series — so each application is
//! modelled by the *shape* of that time series: its pipeline CPI, LLC miss
//! intensity and working set per phase, its burstiness, and (for KMEANS)
//! its barrier-synchronised communication.
//!
//! The memory/compute split below is the unique assignment consistent with
//! Table II's workload classes (B = 2M/2C, UC = 1M/3C, UM = 3M/1C):
//! **memory-intensive** — jacobi, streamcluster, needle, stream_omp;
//! **compute-intensive** — leukocyte, lavaMD, srad, hotspot, heartwall.
//! Parameters are chosen so the memory apps sit above and the compute apps
//! below the paper's 10 % LLC-miss-rate classification boundary, with the
//! qualitative behaviours the paper describes: memory-intensive startup
//! phases, steady high access rates for the M apps, and short bursts of
//! intensive memory access inside long quiet periods for the C apps
//! (Section IV-C).

use dike_machine::{AppId, BarrierId, BarrierSpec, Phase, PhaseProgram, PhaseRepeat, ThreadSpec};
use std::sync::Arc;

/// Broad behavioural class of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Dominated by main-memory bandwidth (paper's "M").
    Memory,
    /// Dominated by the pipeline (paper's "C").
    Compute,
    /// Barrier-synchronised, communication-heavy (KMEANS).
    Communication,
}

/// The modelled applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Iterative stencil; steady, high memory access rate.
    Jacobi,
    /// Streaming clustering; high access rate with medium bursts.
    Streamcluster,
    /// Needleman-Wunsch dynamic programming; memory intensive, borderline
    /// miss rate (its DP wavefront alternates row sweeps).
    Needle,
    /// The STREAM kernel; the most extreme bandwidth consumer.
    StreamOmp,
    /// Leukocyte tracking; compute-bound, strongly fluctuating access.
    Leukocyte,
    /// Molecular dynamics; almost pure compute.
    LavaMd,
    /// Speckle-reducing anisotropic diffusion; compute with periodic
    /// memory-intensive frame loads.
    Srad,
    /// Thermal simulation; compute with a memory-intensive startup.
    Hotspot,
    /// Heart-wall tracking; compute-bound, bursty.
    Heartwall,
    /// K-means clustering; moderate memory use with heavy inter-thread
    /// communication (modelled as recurring group barriers).
    Kmeans,
}

impl AppKind {
    /// All modelled applications.
    pub const ALL: [AppKind; 10] = [
        AppKind::Jacobi,
        AppKind::Streamcluster,
        AppKind::Needle,
        AppKind::StreamOmp,
        AppKind::Leukocyte,
        AppKind::LavaMd,
        AppKind::Srad,
        AppKind::Hotspot,
        AppKind::Heartwall,
        AppKind::Kmeans,
    ];

    /// Canonical lower-case name (as printed in the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Jacobi => "jacobi",
            AppKind::Streamcluster => "streamcluster",
            AppKind::Needle => "needle",
            AppKind::StreamOmp => "stream_omp",
            AppKind::Leukocyte => "leukocyte",
            AppKind::LavaMd => "lavaMD",
            AppKind::Srad => "srad",
            AppKind::Hotspot => "hotspot",
            AppKind::Heartwall => "heartwall",
            AppKind::Kmeans => "kmeans",
        }
    }

    /// Ground-truth behavioural class (the schedulers are *not* given this;
    /// they must classify from counters).
    pub fn class(self) -> AppClass {
        match self {
            AppKind::Jacobi | AppKind::Streamcluster | AppKind::Needle | AppKind::StreamOmp => {
                AppClass::Memory
            }
            AppKind::Leukocyte
            | AppKind::LavaMd
            | AppKind::Srad
            | AppKind::Hotspot
            | AppKind::Heartwall => AppClass::Compute,
            AppKind::Kmeans => AppClass::Communication,
        }
    }

    /// The per-thread phase program at scale 1.0.
    ///
    /// `scale` multiplies the total instruction budget (and with it the
    /// simulated runtime); phase structure is unchanged. Use small scales
    /// for fast tests, 1.0 for the paper experiments.
    pub fn program(self, scale: f64) -> PhaseProgram {
        assert!(scale > 0.0, "scale must be positive");
        let s = scale;
        match self {
            AppKind::Jacobi => PhaseProgram {
                phases: vec![
                    // Memory-intensive startup: fetch the grid.
                    Phase {
                        cpi_exec: 1.0,
                        mpki: 35.0,
                        apki: 280.0,
                        working_set_mib: 24.0,
                        instructions: 3e8,
                        burstiness: 0.05,
                    },
                    // Steady stencil sweeps.
                    Phase {
                        cpi_exec: 1.0,
                        mpki: 26.0,
                        apki: 240.0,
                        working_set_mib: 20.0,
                        instructions: 1e9,
                        burstiness: 0.08,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(1),
                total_instructions: 6e9 * s,
            },
            AppKind::Streamcluster => PhaseProgram {
                phases: vec![
                    Phase {
                        cpi_exec: 0.95,
                        mpki: 30.0,
                        apki: 260.0,
                        working_set_mib: 14.0,
                        instructions: 6e8,
                        burstiness: 0.15,
                    },
                    Phase {
                        cpi_exec: 0.95,
                        mpki: 17.0,
                        apki: 150.0,
                        working_set_mib: 10.0,
                        instructions: 4e8,
                        burstiness: 0.15,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 5.5e9 * s,
            },
            AppKind::Needle => PhaseProgram {
                phases: vec![
                    Phase {
                        cpi_exec: 1.1,
                        mpki: 22.0,
                        apki: 190.0,
                        working_set_mib: 16.0,
                        instructions: 8e8,
                        burstiness: 0.10,
                    },
                    Phase {
                        cpi_exec: 1.1,
                        mpki: 18.0,
                        apki: 170.0,
                        working_set_mib: 14.0,
                        instructions: 6e8,
                        burstiness: 0.10,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 7e9 * s,
            },
            AppKind::StreamOmp => PhaseProgram {
                phases: vec![Phase {
                    cpi_exec: 1.0,
                    mpki: 42.0,
                    apki: 310.0,
                    working_set_mib: 30.0,
                    instructions: 1e9,
                    burstiness: 0.03,
                }],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 5e9 * s,
            },
            AppKind::Leukocyte => PhaseProgram {
                phases: vec![
                    // Frame load burst, then long compute on the frame.
                    Phase {
                        cpi_exec: 0.8,
                        mpki: 16.0,
                        apki: 320.0,
                        working_set_mib: 8.0,
                        instructions: 2e8,
                        burstiness: 0.2,
                    },
                    Phase {
                        cpi_exec: 0.55,
                        mpki: 1.2,
                        apki: 350.0,
                        working_set_mib: 2.0,
                        instructions: 5e9,
                        burstiness: 0.35,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 6.5e10 * s,
            },
            AppKind::LavaMd => PhaseProgram {
                phases: vec![Phase {
                    cpi_exec: 0.5,
                    mpki: 0.8,
                    apki: 320.0,
                    working_set_mib: 1.5,
                    instructions: 2e9,
                    burstiness: 0.15,
                }],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 8e10 * s,
            },
            AppKind::Srad => PhaseProgram {
                phases: vec![
                    // Periodic image load: a short memory-intensive burst…
                    Phase {
                        cpi_exec: 0.9,
                        mpki: 15.0,
                        apki: 300.0,
                        working_set_mib: 8.0,
                        instructions: 4e7,
                        burstiness: 0.2,
                    },
                    // …inside long diffusion-iteration compute.
                    Phase {
                        cpi_exec: 0.6,
                        mpki: 1.0,
                        apki: 330.0,
                        working_set_mib: 3.0,
                        instructions: 9e8,
                        burstiness: 0.3,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 6e10 * s,
            },
            AppKind::Hotspot => PhaseProgram {
                phases: vec![
                    // Memory-intensive grid initialisation.
                    Phase {
                        cpi_exec: 0.9,
                        mpki: 20.0,
                        apki: 310.0,
                        working_set_mib: 10.0,
                        instructions: 2e8,
                        burstiness: 0.1,
                    },
                    Phase {
                        cpi_exec: 0.6,
                        mpki: 2.8,
                        apki: 340.0,
                        working_set_mib: 4.0,
                        instructions: 1.5e9,
                        burstiness: 0.25,
                    },
                ],
                repeat: PhaseRepeat::LoopFrom(1),
                total_instructions: 6.5e10 * s,
            },
            AppKind::Heartwall => PhaseProgram {
                phases: vec![Phase {
                    cpi_exec: 0.58,
                    mpki: 1.8,
                    apki: 330.0,
                    working_set_mib: 3.0,
                    instructions: 2.5e9,
                    burstiness: 0.4,
                }],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 7e10 * s,
            },
            AppKind::Kmeans => PhaseProgram {
                phases: vec![Phase {
                    cpi_exec: 0.8,
                    mpki: 8.0,
                    apki: 300.0,
                    working_set_mib: 10.0,
                    instructions: 1e9,
                    burstiness: 0.1,
                }],
                repeat: PhaseRepeat::LoopFrom(0),
                total_instructions: 4e10 * s,
            },
        }
    }

    /// Barrier behaviour (only KMEANS synchronises).
    ///
    /// `group` distinguishes separate KMEANS instances in one machine.
    pub fn barrier(self, group: BarrierId) -> Option<BarrierSpec> {
        match self {
            AppKind::Kmeans => Some(BarrierSpec {
                group,
                // One reduction every ~20M instructions: frequent enough to
                // couple the threads tightly ("excessive inter-thread
                // communication"), coarse enough not to dominate runtime.
                interval_instructions: 2e7,
            }),
            _ => None,
        }
    }
}

/// Every app kind's phase program at one scale, built once and shared.
///
/// A thread's program is a fixed description of its app kind: the
/// scheduler sees only the counters it produces. So every thread of one
/// kind at one scale runs the same immutable program, and a spec holds
/// it by refcount. Build one table per run; [`ProgramTable::spec`] then
/// allocates nothing per thread, however many arrivals it expands.
#[derive(Debug, Clone)]
pub struct ProgramTable {
    /// Indexed by the kind's position in [`AppKind::ALL`].
    programs: [Arc<PhaseProgram>; AppKind::ALL.len()],
}

impl ProgramTable {
    /// Build every kind's program at `scale` (see [`AppKind::program`]).
    ///
    /// # Panics
    /// Panics if `scale` is not positive.
    pub fn new(scale: f64) -> Self {
        ProgramTable {
            programs: AppKind::ALL.map(|kind| Arc::new(kind.program(scale))),
        }
    }

    /// A spec for one thread of `kind`, running as application `app` in
    /// barrier group `barrier_group` (used only by barrier-synchronised
    /// kinds). Its program is the table's, shared by refcount.
    pub fn spec(&self, kind: AppKind, app: AppId, barrier_group: BarrierId) -> ThreadSpec {
        ThreadSpec {
            app,
            // `ALL` lists the kinds in declaration order.
            program: Arc::clone(&self.programs[kind as usize]),
            barrier: kind.barrier(barrier_group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_validate_at_all_scales() {
        for app in AppKind::ALL {
            for scale in [0.01, 0.5, 1.0, 2.0] {
                let p = app.program(scale);
                p.validate()
                    .unwrap_or_else(|e| panic!("{} @ {scale}: {e}", app.name()));
            }
        }
    }

    #[test]
    fn memory_apps_cross_the_ten_percent_boundary_compute_apps_do_not() {
        // The paper classifies a thread as memory-intensive when its LLC
        // miss rate exceeds 10%. Check the *steady-state* (weighted mean)
        // behaviour of each model.
        for app in AppKind::ALL {
            let p = app.program(1.0);
            let total: f64 = p.phases.iter().map(|ph| ph.instructions).sum();
            let misses: f64 = p
                .phases
                .iter()
                .map(|ph| ph.mpki / 1000.0 * ph.instructions)
                .sum();
            let accesses: f64 = p
                .phases
                .iter()
                .map(|ph| ph.apki / 1000.0 * ph.instructions)
                .sum();
            let miss_rate = misses / accesses;
            let _ = total;
            match app.class() {
                AppClass::Memory => assert!(
                    miss_rate > 0.10,
                    "{} should be memory-intensive, miss rate {miss_rate:.3}",
                    app.name()
                ),
                AppClass::Compute | AppClass::Communication => assert!(
                    miss_rate < 0.10,
                    "{} should be compute-intensive, miss rate {miss_rate:.3}",
                    app.name()
                ),
            }
        }
    }

    #[test]
    fn class_assignment_matches_table2_constraints() {
        use AppKind::*;
        let m: Vec<AppKind> = AppKind::ALL
            .iter()
            .copied()
            .filter(|a| a.class() == AppClass::Memory)
            .collect();
        assert_eq!(m, vec![Jacobi, Streamcluster, Needle, StreamOmp]);
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = AppKind::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AppKind::ALL.len());
    }

    #[test]
    fn scale_scales_budget_not_structure() {
        let a = AppKind::Jacobi.program(1.0);
        let b = AppKind::Jacobi.program(0.1);
        assert_eq!(a.phases, b.phases);
        assert!((a.total_instructions / b.total_instructions - 10.0).abs() < 1e-9);
    }

    #[test]
    fn only_kmeans_has_barriers() {
        for app in AppKind::ALL {
            let b = app.barrier(BarrierId(0));
            assert_eq!(b.is_some(), app == AppKind::Kmeans, "{}", app.name());
        }
    }

    #[test]
    fn table_specs_are_complete_and_valid() {
        let spec = ProgramTable::new(0.5).spec(AppKind::Kmeans, AppId(3), BarrierId(7));
        assert!(spec.validate().is_ok());
        assert_eq!(spec.app, AppId(3));
        assert_eq!(*spec.program, AppKind::Kmeans.program(0.5));
        assert_eq!(spec.barrier.unwrap().group, BarrierId(7));
    }

    #[test]
    fn table_specs_of_one_kind_share_one_program() {
        for scale in [0.01, 1.0] {
            let table = ProgramTable::new(scale);
            let firsts: Vec<ThreadSpec> = AppKind::ALL
                .iter()
                .map(|&kind| table.spec(kind, AppId(0), BarrierId(0)))
                .collect();
            for (kind, first) in AppKind::ALL.into_iter().zip(&firsts) {
                assert_eq!(*first.program, kind.program(scale), "{}", kind.name());
                for g in 1..4 {
                    let spec = table.spec(kind, AppId(g), BarrierId(g));
                    assert!(
                        Arc::ptr_eq(&spec.program, &first.program),
                        "{}",
                        kind.name()
                    );
                    assert_eq!(spec.app, AppId(g));
                    assert_eq!(spec.barrier, kind.barrier(BarrierId(g)));
                }
                // Distinct kinds never share.
                let sharing = firsts
                    .iter()
                    .filter(|f| Arc::ptr_eq(&f.program, &first.program))
                    .count();
                assert_eq!(sharing, 1, "{}", kind.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = AppKind::Jacobi.program(0.0);
    }
}
