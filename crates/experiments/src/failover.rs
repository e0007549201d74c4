//! Failover experiment: fleet fault tolerance under machine-scope
//! faults, swept over crash rate × brownout rate × retry budget for both
//! dispatchers.
//!
//! Every cell runs the same smoke fleet (8 machines, 12 tenants, 10 s
//! arrival window — [`crate::fleet::smoke_config`]) through the
//! epoch-driven loop ([`dike_fleet::FleetRunner::run_failover`]) twice:
//! once with the blind decayed-load dispatcher (`failover: false`, the
//! no-failover baseline that keeps routing into dead machines) and once
//! with the health-aware dispatcher (quarantine, orphan re-dispatch with
//! bounded retry, decayed-trust re-admission). The recorded claim is the
//! conservation ledger per cell — `dispatched = drained + in_flight +
//! lost` at every fault level — and that whenever crashes actually
//! strand work, failover loses strictly fewer threads than the blind
//! baseline at the same fault stream.
//!
//! The fault stream is seeded independently of the fleet seed
//! ([`FAILOVER_FAULT_SEED`]) so the arrival/dispatch side of a cell is
//! identical across the whole grid; only the machine-fault channel
//! changes between cells.

use crate::fleet;
use dike_fleet::{FailoverConfig, FleetResult, FleetRunner};
use dike_machine::MachineFaultConfig;
use dike_metrics::TextTable;
use dike_util::{json_struct, Pool};

/// Crash probabilities per (machine, epoch) swept by the grid.
pub const FAILOVER_CRASH_RATES: [f64; 3] = [0.0, 0.08, 0.2];

/// Brownout probabilities per (machine, epoch) swept by the grid.
pub const FAILOVER_BROWNOUT_RATES: [f64; 2] = [0.0, 0.15];

/// Orphan re-dispatch budgets swept by the grid.
pub const FAILOVER_BUDGETS: [u32; 2] = [0, 2];

/// Fleet (arrival/dispatch) seed — the same smoke fleet in every cell.
pub const FAILOVER_SEED: u64 = 42;

/// Machine-fault stream seed, independent of the fleet seed.
pub const FAILOVER_FAULT_SEED: u64 = 1009;

/// Epoch length of the failover loop, milliseconds.
pub const FAILOVER_EPOCH_MS: u64 = 2_000;

/// One grid cell: a (crash, brownout, budget, dispatcher) tuple and the
/// scalars its run reduced to. The full conservation balance sheet rides
/// along so the recorded artefact *is* the invariant, not a summary of
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPoint {
    /// Crash probability per (machine, epoch).
    pub crash_rate: f64,
    /// Brownout probability per (machine, epoch).
    pub brownout_rate: f64,
    /// Orphan re-dispatch budget.
    pub retry_budget: u32,
    /// Health-aware dispatcher on (`false` = blind baseline).
    pub failover: bool,
    /// Threads offered to the fleet.
    pub dispatched: u64,
    /// Threads that finished.
    pub drained: u64,
    /// Threads admitted/queued/orphaned but unfinished at run end.
    pub in_flight: u64,
    /// Threads explicitly lost (stranded on dead machines, routed into
    /// one, or re-dispatch budget exhausted).
    pub lost: u64,
    /// Hard crashes the fault stream dealt this cell.
    pub crashes: u64,
    /// Brownout windows entered.
    pub brownouts: u64,
    /// Quarantine decisions at epoch barriers.
    pub quarantines: u64,
    /// Recovered machines re-admitted to routing.
    pub readmissions: u64,
    /// Events orphaned off crashed machines.
    pub orphaned: u64,
    /// Orphaned events re-dispatched to a healthy peer.
    pub redispatched: u64,
    /// Epochs the loop actually executed.
    pub epochs: u64,
    /// Mean windowed fleet fairness (Eqn 4 per window, by tenant).
    pub mean_windowed_fairness: f64,
    /// Mean sojourn over admitted threads, seconds.
    pub mean_sojourn_s: f64,
    /// Fleet wall, seconds.
    pub makespan_s: f64,
}

json_struct!(FailoverPoint {
    crash_rate,
    brownout_rate,
    retry_budget,
    failover,
    dispatched,
    drained,
    in_flight,
    lost,
    crashes,
    brownouts,
    quarantines,
    readmissions,
    orphaned,
    redispatched,
    epochs,
    mean_windowed_fairness,
    mean_sojourn_s,
    makespan_s,
});

/// The failover knobs for one cell.
pub fn cell_config(crash: f64, brownout: f64, budget: u32, failover: bool) -> FailoverConfig {
    FailoverConfig {
        epoch_ms: FAILOVER_EPOCH_MS,
        failover,
        retry_budget: budget,
        faults: MachineFaultConfig::axis(crash, brownout, FAILOVER_FAULT_SEED),
    }
}

/// Reduce a full [`FleetResult`] to its recorded grid point.
fn reduce(fo: &FailoverConfig, r: &FleetResult) -> FailoverPoint {
    FailoverPoint {
        crash_rate: fo.faults.crash_rate,
        brownout_rate: fo.faults.brownout_rate,
        retry_budget: fo.retry_budget,
        failover: fo.failover,
        dispatched: r.ledger.dispatched,
        drained: r.ledger.drained,
        in_flight: r.ledger.in_flight,
        lost: r.ledger.lost,
        crashes: r.machines.iter().map(|m| m.crashes).sum(),
        brownouts: r.machines.iter().map(|m| m.brownouts).sum(),
        quarantines: r.quarantines,
        readmissions: r.readmissions,
        orphaned: r.orphaned,
        redispatched: r.redispatched,
        epochs: r.epochs,
        mean_windowed_fairness: r.mean_windowed_fairness,
        mean_sojourn_s: r.mean_sojourn_s,
        makespan_s: r.makespan_s,
    }
}

/// Run one cell of the grid on the shared smoke fleet.
pub fn run_cell_pool(
    runner: &FleetRunner,
    crash: f64,
    brownout: f64,
    budget: u32,
    failover: bool,
    pool: &Pool,
) -> FailoverPoint {
    let fo = cell_config(crash, brownout, budget, failover);
    let r = runner.run_failover(pool, &fo);
    r.ledger
        .assert_holds(&format!("failover cell c={crash} b={brownout} k={budget}"));
    reduce(&fo, &r)
}

/// The full crash × brownout × budget × dispatcher grid, in deterministic
/// row order (crash-major, dispatcher last: the blind baseline of a cell
/// immediately precedes its failover twin).
pub fn run_grid_pool(seed: u64, pool: &Pool) -> Vec<FailoverPoint> {
    let runner = FleetRunner::new(fleet::smoke_config(seed));
    let mut points = Vec::new();
    for &c in &FAILOVER_CRASH_RATES {
        for &b in &FAILOVER_BROWNOUT_RATES {
            for &k in &FAILOVER_BUDGETS {
                for failover in [false, true] {
                    points.push(run_cell_pool(&runner, c, b, k, failover, pool));
                }
            }
        }
    }
    points
}

/// The quick pair for smoke runs and the golden: the harshest cell
/// (maximum swept crash + brownout, full budget) under both dispatchers.
pub fn run_quick_pool(seed: u64, pool: &Pool) -> Vec<FailoverPoint> {
    let runner = FleetRunner::new(fleet::smoke_config(seed));
    let c = FAILOVER_CRASH_RATES[FAILOVER_CRASH_RATES.len() - 1];
    let b = FAILOVER_BROWNOUT_RATES[FAILOVER_BROWNOUT_RATES.len() - 1];
    let k = FAILOVER_BUDGETS[FAILOVER_BUDGETS.len() - 1];
    vec![
        run_cell_pool(&runner, c, b, k, false, pool),
        run_cell_pool(&runner, c, b, k, true, pool),
    ]
}

/// Grid table for the binary's stdout.
pub fn render(points: &[FailoverPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "crash".to_string(),
        "brownout".to_string(),
        "budget".to_string(),
        "dispatcher".to_string(),
        "dispatched".to_string(),
        "drained".to_string(),
        "in_flight".to_string(),
        "lost".to_string(),
        "crashes".to_string(),
        "redisp".to_string(),
        "fairness".to_string(),
    ]);
    for p in points {
        t.row(vec![
            format!("{:.2}", p.crash_rate),
            format!("{:.2}", p.brownout_rate),
            p.retry_budget.to_string(),
            if p.failover { "failover" } else { "blind" }.to_string(),
            p.dispatched.to_string(),
            p.drained.to_string(),
            p.in_flight.to_string(),
            p.lost.to_string(),
            p.crashes.to_string(),
            p.redispatched.to_string(),
            format!("{:.3}", p.mean_windowed_fairness),
        ]);
    }
    t
}

/// One-paragraph summary: total lost per dispatcher over the faulted
/// cells, the headline fault-tolerance claim.
pub fn summary(points: &[FailoverPoint]) -> String {
    let lost = |fo: bool| -> u64 {
        points
            .iter()
            .filter(|p| p.failover == fo && p.crash_rate > 0.0)
            .map(|p| p.lost)
            .sum()
    };
    let cells = points.len();
    format!(
        "failover grid: {cells} cells | lost under crashes: blind {} vs failover {} | \
         conservation held in every cell",
        lost(false),
        lost(true)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::json::{self, ToJson};

    #[test]
    fn quick_pair_conserves_and_failover_loses_fewer() {
        let pts = run_quick_pool(FAILOVER_SEED, &Pool::new(1));
        assert_eq!(pts.len(), 2);
        let (blind, fo) = (&pts[0], &pts[1]);
        assert!(!blind.failover && fo.failover);
        // The harsh cell must actually exercise the fault machinery…
        assert!(blind.crashes > 0, "no crashes drawn in the harsh cell");
        assert!(blind.lost > 0, "blind baseline lost nothing to crashes");
        // …and the tentpole claim holds strictly there.
        assert!(
            fo.lost < blind.lost,
            "failover lost {} vs blind {}",
            fo.lost,
            blind.lost
        );
        assert!(fo.redispatched > 0, "failover never re-dispatched");
        for p in &pts {
            assert_eq!(p.dispatched, p.drained + p.in_flight + p.lost);
        }
        // JSON round-trip for the recorded artefact.
        let s = json::to_string(&pts);
        assert_eq!(json::parse(&s).expect("round-trip"), pts.to_json_value());
    }

    /// The deadline bounds every run, faulted or not: the smoke fleet's
    /// arrivals run to 10 s, and a 5 s deadline stops the loop after
    /// ⌈5/2⌉ = 3 epochs. Arrivals due later stay in flight; no machine's
    /// clock, and so no thread's spawn, passes the last epoch.
    #[test]
    fn deadline_bounds_every_epoch_loop() {
        let mut cfg = fleet::smoke_config(fleet::FLEET_SEED);
        cfg.deadline_s = 5.0;
        let runner = FleetRunner::new(cfg);
        for crash in [0.0, 0.2] {
            for failover in [false, true] {
                let fo = FailoverConfig {
                    failover,
                    faults: MachineFaultConfig::axis(crash, 0.15, 1009),
                    ..FailoverConfig::default()
                };
                let r = runner.run_failover(&Pool::new(1), &fo);
                let cell = format!("crash {crash}, failover {failover}");
                assert_eq!(r.epochs, 3, "{cell}");
                r.ledger.assert_holds(&cell);
                assert!(r.ledger.in_flight > 0, "{cell}: {:?}", r.ledger);
                assert!(r.machines.iter().all(|m| m.makespan_s <= 6.0), "{cell}");
            }
        }
    }

    #[test]
    fn grid_conserves_everywhere_and_zero_fault_cells_lose_nothing() {
        let pts = run_grid_pool(FAILOVER_SEED, &Pool::new(1));
        let expected =
            FAILOVER_CRASH_RATES.len() * FAILOVER_BROWNOUT_RATES.len() * FAILOVER_BUDGETS.len() * 2;
        assert_eq!(pts.len(), expected);
        for p in &pts {
            assert_eq!(
                p.dispatched,
                p.drained + p.in_flight + p.lost,
                "conservation violated at c={} b={} k={} fo={}",
                p.crash_rate,
                p.brownout_rate,
                p.retry_budget,
                p.failover
            );
            assert!(p.dispatched > 0);
            if p.crash_rate == 0.0 {
                assert_eq!(p.lost, 0, "no crashes, nothing may be lost");
            } else {
                assert!(
                    p.crashes > 0,
                    "crash cell c={} drew no crashes",
                    p.crash_rate
                );
            }
        }
        // Cell-by-cell: failover never loses more than its blind twin,
        // and strictly fewer wherever the blind baseline lost anything.
        for pair in pts.chunks(2) {
            let (blind, fo) = (&pair[0], &pair[1]);
            assert!(!blind.failover && fo.failover);
            assert!(
                fo.lost <= blind.lost,
                "failover lost more at c={} b={} k={}: {} vs {}",
                blind.crash_rate,
                blind.brownout_rate,
                blind.retry_budget,
                fo.lost,
                blind.lost
            );
            if blind.lost > 0 && fo.retry_budget > 0 {
                assert!(
                    fo.lost < blind.lost,
                    "failover not strictly better at c={} b={} k={}",
                    blind.crash_rate,
                    blind.brownout_rate,
                    blind.retry_budget
                );
            }
        }
    }
}
