//! Quickstart: build a heterogeneous machine, run a mixed workload under
//! Dike, and read the fairness result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dike_repro::dike::Dike;
use dike_repro::machine::{presets, Machine, SimTime};
use dike_repro::metrics::RuntimeMatrix;
use dike_repro::sched_core::run;
use dike_repro::workloads::{AppKind, Placement, Workload};

fn main() {
    // A small heterogeneous machine: 2 fast + 2 slow physical cores with
    // 2-way SMT (8 schedulable contexts), one shared memory controller.
    let mut machine = Machine::new(presets::small_machine(42));

    // Two applications with opposite demands: jacobi hammers memory,
    // leukocyte lives in the cache. Four threads each, interleaved across
    // the fast and slow cores — the unfair starting point a
    // contention-oblivious balancer produces.
    let mut workload = Workload::plain("quickstart", vec![AppKind::Jacobi, AppKind::Leukocyte]);
    workload.threads_per_app = 4;
    let spawned = workload.spawn(&mut machine, Placement::Interleaved, 0.3);

    // Dike with the paper's default configuration: swapSize 8, 500 ms
    // quanta, fairness threshold 0.1.
    let mut dike = Dike::new();
    let result = run(&mut machine, &mut dike, SimTime::from_secs_f64(600.0));

    println!("completed: {}", result.completed);
    println!("wall time: {:.2}s", result.wall.as_secs_f64());
    println!("quanta:    {}", result.quanta);
    println!(
        "swaps:     {} (migrations: {})",
        result.swaps, result.migrations
    );

    // The paper's fairness metric (Eqn 4): 1 − mean per-app coefficient of
    // variation of thread runtimes.
    let matrix = RuntimeMatrix::new(
        spawned
            .benchmark_apps()
            .iter()
            .map(|a| result.app_runtimes(a.0))
            .collect(),
    );
    println!(
        "fairness:  {:.4} (1.0 = every app's threads finished together)",
        matrix.fairness()
    );

    for t in &result.threads {
        println!(
            "  {}#{}: finished at {:.2}s after {} migration(s)",
            spawned.app_names[t.app as usize],
            t.id.0,
            t.finished_at.map(|f| f.as_secs_f64()).unwrap_or(f64::NAN),
            t.counters.migrations,
        );
    }

    let stats = dike.stats();
    println!(
        "decider: {} pairs proposed, {} rejected by prediction, {} by cooldown",
        stats.pairs_proposed, stats.rejected_profit, stats.rejected_cooldown
    );
}
