//! The parallel experiment drivers' determinism contract: for any worker
//! count, results — including their serialized JSON — are byte-identical
//! to the serial path. This is what lets `DIKE_THREADS=N` be a pure
//! wall-clock knob with no effect on any recorded figure or fixture.

use dike_experiments::sweep::sweep_workloads_pool;
use dike_experiments::{cachepart, failover, fig6, fleet, open, robustness, scale, RunOptions};
use dike_machine::presets;
use dike_util::{json, Pool};
use dike_workloads::paper;

fn small_opts() -> RunOptions {
    RunOptions {
        scale: 0.02,
        deadline_s: 60.0,
        ..RunOptions::default()
    }
}

#[test]
fn parallel_sweep_json_is_byte_identical_across_thread_counts() {
    let opts = small_opts();
    let cfg = presets::paper_machine(1);
    let workloads = [paper::workload(1)];

    let serial = sweep_workloads_pool(&cfg, &workloads, &opts, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(serial_json.contains("\"workload\""), "sweep serializes");

    for threads in [2usize, 8] {
        let parallel = sweep_workloads_pool(&cfg, &workloads, &opts, &Pool::new(threads));
        let parallel_json = json::to_string(&parallel);
        assert_eq!(
            serial_json, parallel_json,
            "{threads}-thread sweep JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn fig6_comparison_set_is_thread_count_invariant() {
    let opts = small_opts();
    let serial = fig6::run_subset_pool(&opts, &[1, 13], &Pool::new(1));
    for threads in [2usize, 8] {
        let parallel = fig6::run_subset_pool(&opts, &[1, 13], &Pool::new(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread Fig 6 differs from serial"
        );
    }
}

#[test]
fn open_experiment_is_thread_count_invariant() {
    // The open driver injects arrivals mid-run; each cell still simulates
    // single-threaded, and the `(level × scheduler)` fan-out must not leak
    // worker count into any byte of the output.
    let opts = small_opts();
    let levels = [2000.0, 1000.0];
    let serial = open::run_open_points_pool(&levels, &opts, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(serial_json.contains("\"windows\""), "open points serialize");
    for threads in [2usize, 8] {
        let parallel = open::run_open_points_pool(&levels, &opts, &Pool::new(threads));
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread open experiment JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn robustness_sweep_is_thread_count_invariant() {
    // Fault draws are stateless hashes of (seed, salt, thread, quantum),
    // so the injected fault pattern — and with it every degradation-curve
    // byte — must be identical no matter how cells land on workers.
    let opts = small_opts();
    let serial = robustness::run_robustness_pool(&[0.0, 0.20], &[0.10], true, &opts, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(
        serial_json.contains("\"axis\""),
        "robustness points serialize"
    );
    for threads in [2usize, 8] {
        let parallel = robustness::run_robustness_pool(
            &[0.0, 0.20],
            &[0.10],
            true,
            &opts,
            &Pool::new(threads),
        );
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread robustness sweep JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn scale_sweep_is_thread_count_invariant_on_numa_machines() {
    // The multi-controller solve partitions demands per domain; this must
    // not introduce any worker-count sensitivity (the machine is still
    // simulated single-threaded per cell — only cells are sharded).
    let opts = small_opts();
    let serial = scale::run_scale_points_pool(&[1, 2], &opts, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(
        serial_json.contains("\"domains\""),
        "scale points serialize"
    );
    for threads in [2usize, 8] {
        let parallel = scale::run_scale_points_pool(&[1, 2], &opts, &Pool::new(threads));
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread scale sweep JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn cachepart_grid_is_thread_count_invariant() {
    // Partition plans, partition faults, and the occupancy observations
    // all live inside one machine's deterministic quantum loop; the
    // `(workload × fault cell × scheduler)` fan-out must not leak worker
    // count into any byte of the grid.
    let opts = small_opts();
    let serial = cachepart::run_cachepart_pool(&[1], &opts, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(
        serial_json.contains("\"partitions\""),
        "cachepart points serialize"
    );
    for threads in [2usize, 8] {
        let parallel = cachepart::run_cachepart_pool(&[1], &opts, &Pool::new(threads));
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread cachepart grid JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn fleet_rollup_is_thread_count_invariant() {
    // The fleet fans whole machines (not cells) across the pool, and its
    // dispatch pre-pass runs before any worker starts — so machine
    // placement on workers must not leak into a single byte of the
    // rolled-up result.
    let cfg = fleet::smoke_config(5);
    let serial = fleet::run_fleet_pool(&cfg, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(serial_json.contains("\"tenants\""), "fleet serializes");
    assert!(serial.total_arrivals > 0, "smoke fleet must dispatch work");
    for threads in [2usize, 8] {
        let parallel = fleet::run_fleet_pool(&cfg, &Pool::new(threads));
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread fleet JSON must be byte-identical to serial"
        );
    }
}

#[test]
fn failover_grid_is_thread_count_invariant() {
    // The failover loop interleaves pool fan-out (one epoch per machine)
    // with serial barrier decisions (health, routing, orphan
    // re-dispatch); worker count must not leak into any of them.
    let serial = failover::run_quick_pool(failover::FAILOVER_SEED, &Pool::new(1));
    let serial_json = json::to_string(&serial);
    assert!(serial_json.contains("\"lost\""), "failover serializes");
    assert!(
        serial.iter().any(|p| p.crashes > 0),
        "quick pair must exercise crashes"
    );
    for threads in [2usize, 8] {
        let parallel = failover::run_quick_pool(failover::FAILOVER_SEED, &Pool::new(threads));
        assert_eq!(
            serial_json,
            json::to_string(&parallel),
            "{threads}-thread failover JSON must be byte-identical to serial"
        );
    }
}
