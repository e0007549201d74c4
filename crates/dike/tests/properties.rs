//! Property tests on Dike's components: selector pairing, configuration
//! ladder, optimizer convergence, and decider consistency.

use dike_machine::{AppId, DomainId, ThreadId, VCoreId};
use dike_scheduler::observer::{Observation, ObservedThread, ThreadClass};
use dike_scheduler::{select_pairs, AdaptationGoal, DikeConfig, SchedConfig};
use dike_util::check::check;
use dike_util::Pcg32;
use dike_util::ToJson;

/// Build an observation from `(access_rate, on_high_bw, is_memory)` tuples.
fn obs_from(threads: &[(f64, bool, bool)]) -> Observation {
    let ts: Vec<ObservedThread> = threads
        .iter()
        .enumerate()
        .map(|(i, &(access_rate, _, memory))| ObservedThread {
            id: ThreadId(i as u32),
            app: AppId((i % 4) as u32),
            vcore: VCoreId(i as u32),
            access_rate,
            llc_miss_rate: if memory { 0.15 } else { 0.02 },
            class: if memory {
                ThreadClass::Memory
            } else {
                ThreadClass::Compute
            },
            migrated_last_quantum: false,
            confidence: 1.0,
        })
        .collect();
    let high_bw = threads.iter().map(|&(_, h, _)| h).collect();
    Observation {
        threads: ts,
        high_bw,
        core_bw: vec![1.0; threads.len()],
        core_domain: vec![DomainId(0); threads.len()],
        num_domains: 1,
        fairness_cv: 10.0, // force the gate open
        memory_fraction: 0.5,
    }
}

/// Like [`obs_from`] but tagging each thread's core with a NUMA domain
/// (`domains` parallel to `threads`) and a stated domain count.
fn obs_with_domains(
    threads: &[(f64, bool, bool)],
    domains: &[u32],
    num_domains: usize,
) -> Observation {
    let mut o = obs_from(threads);
    o.core_domain = domains.iter().map(|&d| DomainId(d)).collect();
    o.num_domains = num_domains;
    o
}

/// Draw a `(access_rate, on_high_bw, is_memory)` tuple list.
fn gen_threads(rng: &mut Pcg32, lo_rate: f64, max_len: usize) -> Vec<(f64, bool, bool)> {
    let len = rng.gen_range(2usize..max_len);
    (0..len)
        .map(|_| (rng.gen_range(lo_rate..1e8), rng.gen_bool(), rng.gen_bool()))
        .collect()
}

#[test]
fn selector_pairs_are_disjoint_directed_and_bounded() {
    check(
        "selector_pairs_are_disjoint_directed_and_bounded",
        256,
        |rng| {
            let threads = gen_threads(rng, 0.0, 40);
            let swap_size = rng.gen_range(0u32..20);

            let obs = obs_from(&threads);
            let pairs = select_pairs(&obs, swap_size, 0.1);
            // Bounded by swapSize/2.
            assert!(pairs.len() <= (swap_size / 2) as usize);
            // Disjoint thread ids.
            let mut ids: Vec<u32> = pairs.iter().flat_map(|p| [p.low.0, p.high.0]).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), before, "a thread appears in two pairs");
            for p in &pairs {
                // Direction: low member sits on a high-BW core, high member on
                // a low-BW core (that is what the swap corrects).
                assert!(obs.high_bw[p.low_vcore.index()]);
                assert!(!obs.high_bw[p.high_vcore.index()]);
                // Reported vcores match the threads'.
                let low = obs.threads.iter().find(|t| t.id == p.low).unwrap();
                let high = obs.threads.iter().find(|t| t.id == p.high).unwrap();
                assert_eq!(low.vcore, p.low_vcore);
                assert_eq!(high.vcore, p.high_vcore);
            }
        },
    );
}

#[test]
fn hierarchical_selection_matches_flat_reference() {
    use dike_scheduler::{select_pairs_flat_into, select_pairs_into, SelectScratch};
    // The O(n·swap_size) nomination/arbitration hierarchy must emit the
    // exact `Pair` sequence of the retained flat reference (global sort +
    // per-domain rescan) for every domain count, class mix, and budget.
    check(
        "hierarchical_selection_matches_flat_reference",
        512,
        |rng| {
            let num_domains = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
            let threads = gen_threads(rng, 0.0, 64);
            let domains: Vec<u32> = threads
                .iter()
                .map(|_| rng.gen_range(0u32..num_domains as u32))
                .collect();
            let swap_size = rng.gen_range(0u32..20);

            let obs = obs_with_domains(&threads, &domains, num_domains);
            let mut scratch = SelectScratch::default();
            let mut hier = Vec::new();
            let mut flat = Vec::new();
            select_pairs_into(&obs, swap_size, 0.1, &mut scratch, &mut hier);
            select_pairs_flat_into(&obs, swap_size, 0.1, &mut scratch, &mut flat);
            assert_eq!(
                hier, flat,
                "selection diverged: {num_domains} domains, swap_size {swap_size}, {threads:?}"
            );
        },
    );
}

#[test]
fn selector_respects_the_fairness_gate() {
    check("selector_respects_the_fairness_gate", 256, |rng| {
        let threads = gen_threads(rng, 1.0, 20);
        let mut obs = obs_from(&threads);
        obs.fairness_cv = 0.05; // fair system
        assert!(select_pairs(&obs, 8, 0.1).is_empty());
    });
}

#[test]
fn config_ladder_moves_stay_on_the_grid() {
    check("config_ladder_moves_stay_on_the_grid", 256, |rng| {
        let n_moves = rng.gen_range(0usize..40);
        let moves: Vec<u8> = (0..n_moves).map(|_| rng.gen_range(0u8..4)).collect();
        let start_idx = rng.gen_range(0usize..32);

        let grid = SchedConfig::grid();
        let mut cfg = grid[start_idx];
        for m in moves {
            match m {
                0 => cfg.decrease_quantum(100),
                1 => cfg.increase_quantum(1000),
                2 => cfg.increase_swap_size(),
                // Algorithm 2 only grows swapSize; the grid allows it
                // to shrink too, down to 2.
                _ => cfg.swap_size = cfg.swap_size.saturating_sub(2).max(2),
            }
            assert!(cfg.validate().is_ok(), "left the grid: {cfg:?}");
            assert!(grid.contains(&cfg));
        }
    });
}

#[test]
fn optimizer_converges_and_stays_valid() {
    check("optimizer_converges_and_stays_valid", 256, |rng| {
        let memory_fraction = rng.gen_range(0.0f64..1.0);
        let goal = if rng.gen_bool() {
            AdaptationGoal::Fairness
        } else {
            AdaptationGoal::Performance
        };
        let steps = rng.gen_range(1usize..20);

        let cfg = DikeConfig {
            adaptation: Some(goal),
            ..DikeConfig::default()
        };
        let obs = Observation {
            threads: Vec::new(),
            high_bw: Vec::new(),
            core_bw: Vec::new(),
            core_domain: Vec::new(),
            num_domains: 1,
            fairness_cv: 1.0,
            memory_fraction,
        };
        let mut sched = SchedConfig::DEFAULT;
        let mut prev = sched;
        let mut converged = false;
        for _ in 0..steps {
            dike_scheduler::optimizer::step(&cfg, &obs, &mut sched);
            assert!(sched.validate().is_ok());
            if sched == prev {
                converged = true;
            } else {
                // Once converged, the config must never move again (the
                // target is a fixed point for a fixed workload type).
                assert!(!converged, "left a fixed point");
            }
            prev = sched;
        }
    });
}

#[test]
fn dike_config_grid_round_trips_through_json() {
    check("dike_config_grid_round_trips_through_json", 256, |rng| {
        let idx = rng.gen_range(0usize..32);
        let cfg = SchedConfig::grid()[idx];
        let json = dike_util::json::to_string(&cfg);
        let back = dike_util::json::parse(&json).unwrap();
        assert_eq!(back, cfg.to_json_value());
    });
}
