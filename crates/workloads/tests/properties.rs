//! Property tests on workload construction, placement and generation.

use dike_machine::{presets, Machine};
use dike_util::check::check;
use dike_workloads::{
    paper, random_workload, ArrivalConfig, ArrivalTrace, GeneratorConfig, Placement, WorkloadClass,
};

const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::Balanced,
    WorkloadClass::UnbalancedCompute,
    WorkloadClass::UnbalancedMemory,
];

#[test]
fn generated_workloads_match_their_class_and_spawn() {
    check(
        "generated_workloads_match_their_class_and_spawn",
        64,
        |rng| {
            let class = CLASSES[rng.gen_range(0usize..CLASSES.len())];
            let seed = rng.gen_range(0u64..500);
            let threads_per_app = rng.gen_range(1usize..8);

            let cfg = GeneratorConfig {
                num_apps: 4,
                threads_per_app,
                with_kmeans: true,
            };
            let w = random_workload(class, cfg, seed);
            assert_eq!(w.class(), class);
            assert_eq!(w.num_threads(), 5 * threads_per_app);
            // Spawns cleanly on the paper machine.
            let mut machine = Machine::new(presets::paper_machine(seed));
            let spawned = w.spawn(&mut machine, Placement::Random(seed), 0.01);
            assert_eq!(spawned.threads.len(), w.num_threads());
            assert_eq!(machine.num_threads(), w.num_threads());
        },
    );
}

#[test]
fn placements_are_valid_permutations() {
    check("placements_are_valid_permutations", 256, |rng| {
        let seed = rng.gen_range(0u64..100);
        let n_workload = rng.gen_range(1usize..17);
        let placement = match rng.gen_range(0u8..3) {
            0 => Placement::Interleaved,
            1 => Placement::AppContiguous,
            _ => Placement::Random(seed),
        };

        let w = paper::workload(n_workload);
        let order = w.placement_order(placement, 40);
        assert_eq!(order.len(), 40);
        let mut ids: Vec<u32> = order.iter().map(|v| v.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "placement assigned a core twice");
        assert!(ids.iter().all(|&v| v < 40));
    });
}

#[test]
fn interleaving_balances_core_types_per_app() {
    check("interleaving_balances_core_types_per_app", 16, |rng| {
        let n = rng.gen_range(1usize..17);

        let w = paper::workload(n);
        let order = w.placement_order(Placement::Interleaved, 40);
        // For each app, count fast (vcore < 20) vs slow placements: the
        // interleaved pattern gives every app an even 4/4 split.
        for app in 0..5usize {
            let slots = &order[app * 8..(app + 1) * 8];
            let fast = slots.iter().filter(|v| v.0 < 20).count();
            assert_eq!(fast, 4, "app {} got {} fast cores", app, fast);
        }
    });
}

#[test]
fn merge_order_breaks_timestamp_ties_by_tenant_then_event() {
    // The documented tie-break contract of `ArrivalTrace::merge_order`:
    // the merged stream is sorted by `(at_ms, tenant, event)`, so
    // equal-timestamp arrivals across tenants dispatch in tenant-id
    // order and one tenant's own events keep generation order. Pin it
    // over random tenant sets with deliberately colliding timestamps
    // (a coarse inter-arrival mean quantised to the millisecond grid
    // collides often).
    check(
        "merge_order_breaks_timestamp_ties_by_tenant_then_event",
        64,
        |rng| {
            let n_tenants = rng.gen_range(2usize..6);
            let cfg = ArrivalConfig {
                mean_interarrival_ms: 3.0, // dense: many same-millisecond draws
                horizon_ms: rng.gen_range(50u64..400),
                threads_min: 1,
                threads_max: 3,
            };
            let base_seed = rng.gen_range(0u64..1_000);
            let traces: Vec<ArrivalTrace> = (0..n_tenants)
                .map(|t| {
                    ArrivalTrace::poisson(
                        format!("t{t}"),
                        &[dike_workloads::AppKind::Jacobi],
                        &cfg,
                        base_seed + t as u64,
                    )
                })
                .collect();
            let merged = ArrivalTrace::merge_order(&traces);

            // A permutation of every (tenant, event) pair, nothing dropped.
            let total: usize = traces.iter().map(|t| t.events.len()).sum();
            assert_eq!(merged.len(), total);
            let mut seen: Vec<(u32, u32)> = merged.iter().map(|m| (m.tenant, m.event)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), total);

            // Strictly sorted by the full (at_ms, tenant, event) key: ties on
            // at_ms resolve by tenant id, ties on (at_ms, tenant) by event
            // index — there are no equal keys, so the order is total and
            // deterministic.
            let keys: Vec<(u64, u32, u32)> = merged
                .iter()
                .map(|m| (m.at_ms, m.tenant, m.event))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "merged stream not strictly (at_ms, tenant, event)-sorted"
            );

            // The dense grid must actually have produced cross-tenant
            // timestamp collisions, or this test pins nothing.
            let collisions = keys
                .windows(2)
                .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
                .count();
            assert!(collisions > 0, "no equal-timestamp ties drawn");

            // Byte-determinism: merging again (and merging clones) agrees.
            assert_eq!(merged, ArrivalTrace::merge_order(&traces.clone()));
        },
    );
}
