//! Property tests on the machine model's invariants.

use dike_machine::{
    llc_inflation, presets, solve_memory, solve_memory_into, solve_memory_numa,
    solve_memory_reference, AppId, DomainId, LlcConfig, Machine, MemDemand, MemSolution,
    MemoryConfig, NumaDemand, NumaWarmSolver, Phase, PhaseProgram, PhaseRepeat, SimTime,
    ThreadSpec, VCoreId,
};
use dike_util::check::check;
use dike_util::Pcg32;

fn gen_phase(rng: &mut Pcg32) -> Phase {
    let mpki = rng.gen_range(0.1f64..45.0);
    Phase {
        cpi_exec: rng.gen_range(0.3f64..2.0),
        mpki,
        apki: mpki.max(100.0) + 200.0,
        working_set_mib: rng.gen_range(0.1f64..32.0),
        instructions: rng.gen_range(1e6f64..1e9),
        burstiness: rng.gen_range(0.0f64..0.5),
    }
}

fn gen_program(rng: &mut Pcg32) -> PhaseProgram {
    let n_phases = rng.gen_range(1usize..4);
    PhaseProgram {
        phases: (0..n_phases).map(|_| gen_phase(rng)).collect(),
        repeat: PhaseRepeat::LoopFrom(0),
        total_instructions: rng.gen_range(1e7f64..5e8),
    }
}

#[test]
fn threads_always_finish_and_counters_are_consistent() {
    check(
        "threads_always_finish_and_counters_are_consistent",
        32,
        |rng| {
            let n_programs = rng.gen_range(1usize..6);
            let programs: Vec<PhaseProgram> = (0..n_programs).map(|_| gen_program(rng)).collect();
            let seed = rng.gen_range(0u64..1000);

            let mut machine = Machine::new(presets::small_machine(seed));
            let n_vcores = machine.config().topology.num_vcores();
            let mut threads = Vec::new();
            for (i, program) in programs.iter().enumerate() {
                let spec = ThreadSpec {
                    app: AppId(i as u32),
                    app_name: format!("p{i}"),
                    program: program.clone(),
                    barrier: None,
                };
                threads.push(machine.spawn(spec, VCoreId((i % n_vcores) as u32)));
            }
            let done = machine.run_until_done(SimTime::from_secs_f64(600.0));
            assert!(done, "threads did not finish");
            for (t, program) in threads.iter().zip(&programs) {
                let c = machine.counters(*t);
                // Retired exactly the budget (within float tolerance).
                assert!(
                    (c.instructions - program.total_instructions).abs()
                        < 1e-6 * program.total_instructions + 1.0
                );
                // A miss is an access; counters are non-negative and finite.
                assert!(c.llc_misses <= c.llc_accesses + 1e-9);
                assert!(c.llc_misses >= 0.0 && c.cycles >= 0.0);
                assert!(c.instructions.is_finite() && c.llc_misses.is_finite());
                assert!(machine.finish_time(*t).is_some());
                assert!(machine.progress_of(*t) == 1.0);
            }
        },
    );
}

#[test]
fn migrations_never_lose_work() {
    check("migrations_never_lose_work", 32, |rng| {
        let program = gen_program(rng);
        let n_migrations = rng.gen_range(0usize..6);
        let migrate_at_ms: Vec<u64> = (0..n_migrations)
            .map(|_| rng.gen_range(1u64..200))
            .collect();
        let seed = rng.gen_range(0u64..100);

        let mut machine = Machine::new(presets::small_machine(seed));
        let spec = ThreadSpec {
            app: AppId(0),
            app_name: "m".into(),
            program: program.clone(),
            barrier: None,
        };
        let t = machine.spawn(spec, VCoreId(0));
        let mut last = 0.0;
        for (i, at) in migrate_at_ms.iter().enumerate() {
            machine.run_for(SimTime::from_ms(*at));
            let now = machine.counters(t).instructions;
            assert!(now >= last, "instructions went backwards");
            last = now;
            machine.migrate(t, VCoreId(((i + 1) % 8) as u32));
        }
        machine.run_until_done(SimTime::from_secs_f64(600.0));
        let c = machine.counters(t);
        assert!(
            (c.instructions - program.total_instructions).abs()
                < 1e-6 * program.total_instructions + 1.0
        );
        // Migrations requested after completion are no-ops, so the counter
        // is bounded by (not necessarily equal to) the request count.
        assert!(c.migrations as usize <= migrate_at_ms.len());
    });
}

#[test]
fn memory_solver_is_sane() {
    check("memory_solver_is_sane", 32, |rng| {
        let n_demands = rng.gen_range(1usize..48);
        let raw: Vec<(f64, f64)> = (0..n_demands)
            .map(|_| (rng.gen_range(0.2f64..2.0), rng.gen_range(0.0f64..0.06)))
            .collect();
        let bw = rng.gen_range(5e7f64..1e9);

        let cfg = MemoryConfig {
            bandwidth_accesses_per_sec: bw,
            ..MemoryConfig::default()
        };
        let demands: Vec<MemDemand> = raw
            .into_iter()
            .map(|(cpi, mr)| MemDemand {
                base_time_per_instr: cpi / 2.33e9,
                miss_ratio: mr,
            })
            .collect();
        let s = solve_memory(&demands, &cfg);
        assert_eq!(s.rates.len(), demands.len());
        for (rate, d) in s.rates.iter().zip(&demands) {
            assert!(*rate > 0.0 && rate.is_finite());
            // Never faster than the pipeline allows.
            assert!(*rate <= 1.0 / d.base_time_per_instr + 1e-3);
        }
        // Served bandwidth never exceeds the peak.
        let served: f64 = s
            .rates
            .iter()
            .zip(&demands)
            .map(|(r, d)| r * d.miss_ratio)
            .sum();
        assert!(served <= bw * 1.0001, "served {served} > bw {bw}");
        assert!((0.0..=1.0).contains(&s.utilisation));
        assert!(s.latency_s >= cfg.base_latency_s);
    });
}

#[test]
fn memory_solver_early_exit_matches_full_iteration_budget() {
    // The production solver exits the fixed-point loop as soon as the
    // utilisation estimate converges; the reference solver burns the full
    // iteration budget. Across random demand vectors (light, contended
    // and saturated), every achieved rate must agree to 1e-9 relative —
    // i.e. the early exit never truncates a solve prematurely.
    check(
        "memory_solver_early_exit_matches_full_iteration_budget",
        64,
        |rng| {
            let n_demands = rng.gen_range(1usize..64);
            let raw: Vec<(f64, f64)> = (0..n_demands)
                .map(|_| (rng.gen_range(0.2f64..2.5), rng.gen_range(0.0f64..0.08)))
                .collect();
            let bw = rng.gen_range(2e7f64..1.5e9);

            let cfg = MemoryConfig {
                bandwidth_accesses_per_sec: bw,
                ..MemoryConfig::default()
            };
            let demands: Vec<MemDemand> = raw
                .into_iter()
                .map(|(cpi, mr)| MemDemand {
                    base_time_per_instr: cpi / 2.33e9,
                    miss_ratio: mr,
                })
                .collect();
            let fast = solve_memory(&demands, &cfg);
            let full = solve_memory_reference(&demands, &cfg);
            assert_eq!(fast.rates.len(), full.rates.len());
            for (a, b) in fast.rates.iter().zip(&full.rates) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                    "early-exit rate {a} deviates from reference {b}"
                );
            }
            assert!(
                (fast.utilisation - full.utilisation).abs() <= 1e-9,
                "utilisation {} vs {}",
                fast.utilisation,
                full.utilisation
            );
            assert!(
                (fast.latency_s - full.latency_s).abs() <= 1e-9 * full.latency_s,
                "latency {} vs {}",
                fast.latency_s,
                full.latency_s
            );
        },
    );
}

#[test]
fn memory_solver_into_reuses_buffer_and_matches_allocating_path() {
    check(
        "memory_solver_into_reuses_buffer_and_matches_allocating_path",
        32,
        |rng| {
            let cfg = MemoryConfig::default();
            let mut scratch = MemSolution::empty();
            // Several rounds into the same buffer, shrinking and growing.
            for _ in 0..4 {
                let n = rng.gen_range(0usize..48);
                let demands: Vec<MemDemand> = (0..n)
                    .map(|_| MemDemand {
                        base_time_per_instr: rng.gen_range(0.2f64..2.0) / 2.33e9,
                        miss_ratio: rng.gen_range(0.0f64..0.06),
                    })
                    .collect();
                solve_memory_into(&demands, &cfg, &mut scratch);
                let fresh = solve_memory(&demands, &cfg);
                assert_eq!(scratch, fresh, "reused buffer diverged from fresh solve");
            }
        },
    );
}

#[test]
fn numa_solver_with_one_home_domain_matches_single_controller() {
    // A multi-domain memory system in which every demand is homed to one
    // domain and runs locally must reproduce the single-controller solution
    // (the other controllers solve empty systems). Agreement within 1e-9
    // relative is required — in practice it is bit-exact.
    check(
        "numa_solver_with_one_home_domain_matches_single_controller",
        48,
        |rng| {
            let n_demands = rng.gen_range(1usize..48);
            let n_domains = rng.gen_range(1usize..8);
            let home = DomainId(rng.gen_range(0u32..n_domains as u32));
            let raw: Vec<(f64, f64)> = (0..n_demands)
                .map(|_| (rng.gen_range(0.2f64..2.5), rng.gen_range(0.0f64..0.08)))
                .collect();
            let bw = rng.gen_range(2e7f64..1.5e9);

            let cfg = MemoryConfig {
                bandwidth_accesses_per_sec: bw,
                ..MemoryConfig::default()
            };
            let demands: Vec<MemDemand> = raw
                .into_iter()
                .map(|(cpi, mr)| MemDemand {
                    base_time_per_instr: cpi / 2.33e9,
                    miss_ratio: mr,
                })
                .collect();
            let numa_demands: Vec<NumaDemand> = demands
                .iter()
                .map(|&demand| NumaDemand {
                    demand,
                    home,
                    remote: false,
                })
                .collect();
            let single = solve_memory(&demands, &cfg);
            let multi = solve_memory_numa(&numa_demands, n_domains, &cfg);
            assert_eq!(multi.domains.len(), n_domains);
            for (a, b) in multi.rates.iter().zip(&single.rates) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                    "numa rate {a} deviates from single-controller {b}"
                );
            }
            let dom = &multi.domains[home.index()];
            assert!((dom.utilisation - single.utilisation).abs() <= 1e-9);
            assert!((dom.latency_s - single.latency_s).abs() <= 1e-9 * single.latency_s);
            for (d, sol) in multi.domains.iter().enumerate() {
                if d != home.index() {
                    assert_eq!(sol.utilisation, 0.0, "unused controller must be idle");
                }
            }
        },
    );
}

#[test]
fn numa_total_bandwidth_never_exceeds_sum_of_controller_peaks() {
    check(
        "numa_total_bandwidth_never_exceeds_sum_of_controller_peaks",
        48,
        |rng| {
            let n_demands = rng.gen_range(1usize..96);
            let n_domains = rng.gen_range(1usize..8);
            let raw: Vec<(f64, f64, u32, bool)> = (0..n_demands)
                .map(|_| {
                    (
                        rng.gen_range(0.2f64..2.5),
                        rng.gen_range(0.0f64..0.1),
                        rng.gen_range(0u32..n_domains as u32),
                        rng.gen_range(0u32..4) == 0,
                    )
                })
                .collect();
            let bw = rng.gen_range(2e7f64..5e8);

            let cfg = MemoryConfig {
                bandwidth_accesses_per_sec: bw,
                ..MemoryConfig::default()
            };
            let demands: Vec<NumaDemand> = raw
                .into_iter()
                .map(|(cpi, mr, home, remote)| NumaDemand {
                    demand: MemDemand {
                        base_time_per_instr: cpi / 2.33e9,
                        miss_ratio: mr,
                    },
                    home: DomainId(home),
                    remote,
                })
                .collect();
            let s = solve_memory_numa(&demands, n_domains, &cfg);
            // Per-controller served bandwidth respects each controller's peak...
            let mut per_domain = vec![0.0f64; n_domains];
            for (rate, d) in s.rates.iter().zip(&demands) {
                assert!(*rate > 0.0 && rate.is_finite());
                per_domain[d.home.index()] += rate * d.demand.miss_ratio;
            }
            for (served, sol) in per_domain.iter().zip(&s.domains) {
                assert!(*served <= bw * 1.0001, "served {served} > peak {bw}");
                assert!((0.0..=1.0).contains(&sol.utilisation));
                assert!(sol.latency_s >= cfg.base_latency_s);
            }
            // ... so total machine bandwidth never exceeds the sum of peaks.
            let total: f64 = per_domain.iter().sum();
            assert!(
                total <= n_domains as f64 * bw * 1.0001,
                "total {total} > {} * {bw}",
                n_domains
            );
        },
    );
}

#[test]
fn warm_started_solver_tracks_reference_across_perturbation_sequences() {
    // The engine's warm solver re-solves a controller only when its demand
    // vector moves, and reuses its memoised answer otherwise. Across
    // randomized perturbation sequences — small nudges, large jumps,
    // membership growth/shrink — every answer it hands out (reused ones
    // included) must agree with the cold full-budget
    // `solve_memory_reference` to 1e-9 relative.
    check(
        "warm_started_solver_tracks_reference_across_perturbation_sequences",
        48,
        |rng| {
            let n0 = rng.gen_range(1usize..48);
            let bw = rng.gen_range(2e7f64..1.5e9);
            let seq_len = rng.gen_range(2usize..8);
            // Draw the whole perturbation schedule up front so shrinking
            // keeps the draw-sequence shape.
            let mut demands: Vec<MemDemand> = (0..n0)
                .map(|_| MemDemand {
                    base_time_per_instr: rng.gen_range(0.2f64..2.5) / 2.33e9,
                    miss_ratio: rng.gen_range(0.0f64..0.08),
                })
                .collect();
            let mut steps: Vec<Vec<MemDemand>> = Vec::new();
            for _ in 0..seq_len {
                match rng.gen_range(0u32..4) {
                    // Tiny nudge of one element (may round to no-op).
                    0 => {
                        let i = rng.gen_range(0usize..demands.len());
                        let f = 1.0 + rng.gen_range(0.0f64..1e-8);
                        demands[i].miss_ratio *= f;
                    }
                    // Substantial move of a random subset.
                    1 => {
                        for d in demands.iter_mut() {
                            if rng.gen_range(0u32..3) == 0 {
                                d.base_time_per_instr *= rng.gen_range(0.5f64..2.0);
                            }
                        }
                    }
                    // Membership change: add a thread.
                    2 => demands.push(MemDemand {
                        base_time_per_instr: rng.gen_range(0.2f64..2.5) / 2.33e9,
                        miss_ratio: rng.gen_range(0.0f64..0.08),
                    }),
                    // Membership change: drop a thread (keep at least one).
                    _ => {
                        if demands.len() > 1 {
                            let i = rng.gen_range(0usize..demands.len());
                            demands.remove(i);
                        }
                    }
                }
                steps.push(demands.clone());
            }

            let cfg = MemoryConfig {
                bandwidth_accesses_per_sec: bw,
                ..MemoryConfig::default()
            };
            let mut warm = NumaWarmSolver::new(1);
            for step in &steps {
                let factors = vec![1.0; step.len()];
                let (rates, sol) = warm.solve(0, step, &factors, &cfg);
                let reference = solve_memory_reference(step, &cfg);
                assert_eq!(rates.len(), reference.rates.len());
                for (a, b) in rates.iter().zip(&reference.rates) {
                    assert!(
                        (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                        "warm rate {a} deviates from reference {b}"
                    );
                }
                assert!(
                    (sol.utilisation - reference.utilisation).abs() <= 1e-9,
                    "utilisation {} vs {}",
                    sol.utilisation,
                    reference.utilisation
                );
                assert!(
                    (sol.latency_s - reference.latency_s).abs() <= 1e-9 * reference.latency_s,
                    "latency {} vs {}",
                    sol.latency_s,
                    reference.latency_s
                );
            }
        },
    );
}

#[test]
fn llc_inflation_is_monotone_and_bounded() {
    check("llc_inflation_is_monotone_and_bounded", 32, |rng| {
        let n = rng.gen_range(2usize..10);
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..200.0)).collect();

        let cfg = LlcConfig::default();
        let mut sorted = ws.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for w in sorted {
            let f = llc_inflation(w, &cfg);
            assert!((1.0..=cfg.max_inflation).contains(&f));
            assert!(f >= last - 1e-12, "inflation not monotone");
            last = f;
        }
    });
}

#[test]
fn simulation_is_deterministic() {
    check("simulation_is_deterministic", 32, |rng| {
        let n_programs = rng.gen_range(1usize..4);
        let programs: Vec<PhaseProgram> = (0..n_programs).map(|_| gen_program(rng)).collect();
        let seed = rng.gen_range(0u64..50);
        let ms = rng.gen_range(10u64..300);

        let run_once = || {
            let mut machine = Machine::new(presets::small_machine(seed));
            for (i, p) in programs.iter().enumerate() {
                machine.spawn(
                    ThreadSpec {
                        app: AppId(i as u32),
                        app_name: "d".into(),
                        program: p.clone(),
                        barrier: None,
                    },
                    VCoreId((i % 8) as u32),
                );
            }
            machine.run_for(SimTime::from_ms(ms));
            (0..machine.num_threads())
                .map(|i| machine.counters(dike_machine::ThreadId(i as u32)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    });
}

/// The fleet-facing reset contract: a machine that already ran a workload
/// and was then `reset()` is behaviourally indistinguishable from a fresh
/// `Machine::new` — same counters, same finish times, same event stream —
/// and `reset_with_seed` is likewise indistinguishable from constructing
/// with that seed.
#[test]
fn reset_machine_is_indistinguishable_from_fresh() {
    check("reset_machine_is_indistinguishable_from_fresh", 16, |rng| {
        let n_programs = rng.gen_range(1usize..4);
        let programs: Vec<PhaseProgram> = (0..n_programs).map(|_| gen_program(rng)).collect();
        let seed = rng.gen_range(0u64..50);
        let reseed = rng.gen_range(50u64..100);
        let ms = rng.gen_range(10u64..200);

        let drive = |machine: &mut Machine| {
            for (i, p) in programs.iter().enumerate() {
                machine.spawn(
                    ThreadSpec {
                        app: AppId(i as u32),
                        app_name: "r".into(),
                        program: p.clone(),
                        barrier: None,
                    },
                    VCoreId((i % 8) as u32),
                );
            }
            machine.run_for(SimTime::from_ms(ms));
            let counters: Vec<_> = (0..machine.num_threads())
                .map(|i| machine.counters(dike_machine::ThreadId(i as u32)))
                .collect();
            (counters, machine.now(), machine.events().to_vec())
        };

        let fresh = drive(&mut Machine::new(presets::small_machine(seed)));
        let fresh_reseeded = drive(&mut Machine::new(presets::small_machine(reseed)));

        // Dirty the machine with a run, then reset and re-drive.
        let mut m = Machine::new(presets::small_machine(seed));
        drive(&mut m);
        m.reset();
        assert_eq!(m.now(), SimTime::from_ms(0));
        assert_eq!(m.num_threads(), 0);
        assert_eq!(drive(&mut m), fresh);

        // Reseeding matches a fresh machine built with the new seed.
        m.reset_with_seed(reseed);
        assert_eq!(m.config().seed, reseed);
        assert_eq!(drive(&mut m), fresh_reseeded);
    });
}
