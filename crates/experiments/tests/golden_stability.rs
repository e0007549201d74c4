//! Golden-stability regression: the closed-system experiment path must
//! stay byte-identical across driver refactors.
//!
//! The fixtures under `tests/fixtures/` were serialized from the
//! pre-open-system (closed, fixed-population) driver. Any change to the
//! quantum loop, view construction or result reduction that alters a
//! single byte of these artefacts is a behaviour change to the recorded
//! figures (fig2/4/5 reduce a `sweep`, and Figures 6–8 and Table III one
//! Figure 6 run, both exercised here) and must be flagged, not silently
//! absorbed.
//!
//! To *intentionally* re-baseline after a deliberate behaviour change:
//!
//! ```sh
//! DIKE_REGEN_GOLDENS=1 cargo test -p dike-experiments --test golden_stability
//! ```

use dike_experiments::runner::run_cells;
use dike_experiments::sweep::sweep_workloads_pool;
use dike_experiments::table3::Table3;
use dike_experiments::{cachepart, failover, fig6, fleet, robustness, RunOptions, SchedKind};
use dike_machine::{presets, FaultConfig};
use dike_util::{json, Pool};
use dike_workloads::paper;
use std::path::PathBuf;

fn small_opts() -> RunOptions {
    RunOptions {
        scale: 0.02,
        deadline_s: 60.0,
        ..RunOptions::default()
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("DIKE_REGEN_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); generate with DIKE_REGEN_GOLDENS=1")
    });
    assert_eq!(
        expected, actual,
        "golden {name} drifted: the closed-system driver path is no longer \
         byte-identical to the recorded baseline (DIKE_REGEN_GOLDENS=1 only \
         after a deliberate behaviour change)"
    );
}

/// Figure 2's machinery: a full 33-configuration sweep of one workload
/// (WL2 is the first of fig2's selected set). Covers fig4/fig5 too — they
/// reduce the same `sweep_workloads_pool` output differently.
#[test]
fn fig2_sweep_is_byte_identical_to_pre_refactor_golden() {
    let opts = small_opts();
    let sweeps = sweep_workloads_pool(
        &presets::paper_machine(opts.seed),
        &[paper::workload(2)],
        &opts,
        &Pool::new(1),
    );
    check_golden("golden_fig2_wl2.json", &json::to_string(&sweeps[0]));
}

/// Table III's machinery: swap counts for one B and one UM workload under
/// DIO and the three Dike variants, read from their Figure 6 run.
#[test]
fn table3_swaps_are_byte_identical_to_pre_refactor_golden() {
    let opts = small_opts();
    let t3 = Table3::of(&fig6::run_subset_pool(&opts, &[1, 13], &Pool::new(1)));
    check_golden("golden_table3.json", &json::to_string(&t3));
}

/// Figure 6's machinery: the five-scheduler comparison set on WL1 (the
/// cells behind both 6a fairness improvements and 6b speedups). The set
/// is migration-only, so the partition actuator, compiled into every
/// machine, stays at rest: its state, occupancy observations and epoch
/// plumbing change nothing until a policy issues a plan.
#[test]
fn fig6_comparison_is_byte_identical_to_pre_refactor_golden() {
    let opts = small_opts();
    let fig = fig6::run_subset_pool(&opts, &[1], &Pool::new(1));
    for cell in fig.rows.iter().flatten() {
        assert!(
            cell.scheduler != "LFOC" && cell.scheduler != "Dike+LFOC",
            "comparison_set must stay migration-only"
        );
    }
    check_golden("golden_fig6_wl1.json", &json::to_string(&fig));
}

/// The fault-injection layer at rate zero must be *absent*, not merely
/// quiet: a machine config carrying an explicit all-zero [`FaultConfig`]
/// (even with a non-zero fault seed) reproduces the committed Figure 6
/// golden byte for byte.
#[test]
fn explicit_zero_fault_config_reproduces_the_fig6_golden() {
    let opts = small_opts();
    let mut cfg = presets::paper_machine(opts.seed);
    cfg.faults = FaultConfig {
        seed: 0xDEAD_BEEF,
        ..FaultConfig::default()
    };
    let kinds = SchedKind::comparison_set();
    let workload = paper::workload(1);
    let tasks: Vec<_> = kinds.iter().map(|k| (&workload, k.clone())).collect();
    let rows = vec![run_cells(&cfg, &tasks, &opts, &Pool::new(1))];
    let fig = dike_experiments::fig6::Fig6 {
        schedulers: kinds.iter().map(|k| k.label()).collect(),
        rows,
    };
    check_golden("golden_fig6_wl1.json", &json::to_string(&fig));
}

/// The robustness experiment's own degradation curves, pinned: the fault
/// injector is part of the deterministic surface, so any change to its
/// hashing, channel salts, or the hardened pipeline's degradation ladder
/// shows up here as a byte diff.
#[test]
fn robustness_sweep_is_byte_identical_to_golden() {
    let opts = small_opts();
    let points = robustness::run_robustness_pool(&[0.0, 0.30], &[0.10], true, &opts, &Pool::new(1));
    check_golden("golden_robustness.json", &json::to_string(&points));
}

/// The cache-partitioning grid, pinned: this golden holds the headline
/// Dike vs Dike+LFOC windowed-fairness comparison, the LFOC plan
/// contents' downstream effects, and the partition actuation counts under
/// faults. Any change to the LFOC classifier, the plan builder, the
/// partition fault channel, or the engine's partitioned-capacity model
/// shows up here as a byte diff.
#[test]
fn cachepart_grid_is_byte_identical_to_golden() {
    let opts = small_opts();
    let points = cachepart::run_cachepart_pool(&[1, 13], &opts, &Pool::new(1));
    check_golden("golden_cachepart.json", &json::to_string(&points));
}

/// The failover grid's quick pair, pinned: this golden holds the
/// epoch-driven loop's routing decisions, the machine-fault stream, the
/// orphan/retry accounting and the conservation ledger byte for byte.
/// Any change to the epoch barrier order, health scoring, or the fault
/// hash channels shows up here as a byte diff.
#[test]
fn failover_quick_pair_is_byte_identical_to_golden() {
    let points = failover::run_quick_pool(failover::FAILOVER_SEED, &Pool::new(1));
    check_golden("golden_failover.json", &json::to_string(&points));
}

/// The one-shot fleet, pinned: the smoke fleet, a 64-machine wide fleet
/// and the smoke fleet cut by a 5 s deadline while its arrivals run to
/// 10 s, every routing decision (through the per-machine arrival
/// counts), every window and every tenant roll-up byte for byte. Any
/// change to the dispatch scorer, its tie-breaking, the per-tenant
/// reduction or what a deadline cuts shows up here as a byte diff.
#[test]
fn one_shot_fleet_is_byte_identical_to_golden() {
    let pool = Pool::new(1);
    let mut cut = fleet::smoke_config(fleet::FLEET_SEED);
    cut.deadline_s = 5.0;
    let results = vec![
        fleet::run_fleet_pool(&fleet::smoke_config(fleet::FLEET_SEED), &pool),
        fleet::run_fleet_pool(&fleet::wide_quick_config(64, fleet::FLEET_SEED), &pool),
        fleet::run_fleet_pool(&cut, &pool),
    ];
    check_golden("golden_fleet.json", &json::to_string(&results));
}
