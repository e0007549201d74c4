//! Fleet experiment: fleet-scale multi-tenancy over independent machines.
//!
//! The headline configuration is 64 machines (every 8th a 2-domain NUMA
//! box) serving 96 tenants whose Poisson streams together offer more
//! than a million thread arrivals in a 30-second window — the
//! "thousands of machines, millions of threads" direction of the
//! roadmap, scaled to what one CI lap affords. Dispatch is the
//! open-loop, vcore-normalised least-loaded rule with home affinity
//! (see [`dike_fleet::dispatch`]); every machine then runs the default
//! Dike policy through the event-driven open-system driver, fanned over
//! the [`dike_util::pool`] workers with byte-identical output at any
//! `DIKE_THREADS`.
//!
//! [`dike_fleet::dispatch`]: mod@dike_fleet::dispatch
//!
//! Tenant threads are deliberately short (`FLEET_SCALE`): fleet-level
//! questions are about routing and roll-up, not about a single
//! machine's long-job dynamics, and short jobs are what keeps a
//! million-arrival run inside a CI budget.

use dike_fleet::{FleetConfig, FleetResult, FleetRunner};
use dike_metrics::TextTable;
use dike_util::Pool;
use dike_workloads::ArrivalConfig;

/// Machines in the headline fleet.
pub const FLEET_MACHINES: usize = 64;

/// Tenants in the headline fleet.
pub const FLEET_TENANTS: usize = 96;

/// Per-tenant mean inter-arrival time, milliseconds.
pub const FLEET_MEAN_MS: f64 = 20.0;

/// Arrival horizon, milliseconds.
pub const FLEET_HORIZON_MS: u64 = 30_000;

/// Per-arrival thread range (uniform).
pub const FLEET_THREADS: (u32, u32) = (4, 12);

/// Phase-program scale for fleet tenants: short jobs, high churn.
pub const FLEET_SCALE: f64 = 0.0005;

/// Default fleet seed.
pub const FLEET_SEED: u64 = 42;

/// The fleet configuration for `machines × tenants`, all other knobs at
/// their headline values. Deterministic in its arguments.
pub fn fleet_config(machines: usize, tenants: usize, seed: u64) -> FleetConfig {
    let arrivals = ArrivalConfig {
        mean_interarrival_ms: FLEET_MEAN_MS,
        horizon_ms: FLEET_HORIZON_MS,
        threads_min: FLEET_THREADS.0,
        threads_max: FLEET_THREADS.1,
    };
    let mut cfg = FleetConfig::uniform(machines, tenants, arrivals, seed);
    cfg.scale = FLEET_SCALE;
    cfg.deadline_s = 120.0;
    cfg
}

/// The headline 64-machine, 96-tenant fleet.
pub fn headline_config(seed: u64) -> FleetConfig {
    fleet_config(FLEET_MACHINES, FLEET_TENANTS, seed)
}

/// A small fleet for smoke tests and quick laps.
pub fn smoke_config(seed: u64) -> FleetConfig {
    let mut cfg = fleet_config(8, 12, seed);
    // A shorter horizon keeps the smoke lap proportional to its fleet.
    for t in &mut cfg.tenants {
        t.arrivals.horizon_ms = 10_000;
    }
    cfg
}

/// A wide, shallow fleet: `machines` machines at the headline 3:2
/// tenant ratio but a 2 s arrival horizon — the ROADMAP's "thousands of
/// machines" probe. Total dispatched work stays near the headline lap
/// (the horizon shrinks as the fleet widens), so the row measures how
/// the dispatch pre-pass and per-machine fan-out scale with machine
/// count, not just more simulation.
pub fn wide_quick_config(machines: usize, seed: u64) -> FleetConfig {
    let mut cfg = fleet_config(machines, (machines * 3 / 2).max(1), seed);
    for t in &mut cfg.tenants {
        t.arrivals.horizon_ms = 2_000;
    }
    cfg
}

/// Run a fleet on an explicit pool (tests pin the worker count; the
/// binary uses `Pool::from_env`).
pub fn run_fleet_pool(cfg: &FleetConfig, pool: &Pool) -> FleetResult {
    FleetRunner::new(cfg.clone()).run(pool)
}

/// Per-machine table: where the dispatcher sent work and what each
/// machine did with it.
pub fn render_machines(r: &FleetResult) -> TextTable {
    let mut t = TextTable::new(vec![
        "machine".to_string(),
        "admitted".to_string(),
        "drained".to_string(),
        "makespan(s)".to_string(),
        "quanta".to_string(),
        "migrations".to_string(),
    ]);
    for m in &r.machines {
        t.row(vec![
            m.machine.to_string(),
            m.admitted.to_string(),
            m.drained.to_string(),
            format!("{:.1}", m.makespan_s),
            m.quanta.to_string(),
            m.migrations.to_string(),
        ]);
    }
    t
}

/// Per-tenant roll-up table.
pub fn render_tenants(r: &FleetResult) -> TextTable {
    let mut t = TextTable::new(vec![
        "tenant".to_string(),
        "home".to_string(),
        "admitted".to_string(),
        "drained".to_string(),
        "sojourn(s)".to_string(),
    ]);
    for p in &r.tenants {
        t.row(vec![
            p.name.clone(),
            p.home.to_string(),
            p.admitted.to_string(),
            p.drained.to_string(),
            format!("{:.3}", p.mean_sojourn_s),
        ]);
    }
    t
}

/// One-paragraph fleet summary for the binary's stdout.
pub fn summary(r: &FleetResult) -> String {
    format!(
        "fleet: {} machines, {} tenants | admitted {} | drained {} | \
         completed {} | makespan {:.1}s | sojourn {:.3}s | \
         fairness mean {:.3} min {:.3}",
        r.machines.len(),
        r.tenants.len(),
        r.total_arrivals,
        r.total_departures,
        r.completed(),
        r.makespan_s,
        r.mean_sojourn_s,
        r.mean_windowed_fairness,
        r.min_windowed_fairness
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::json;

    #[test]
    fn smoke_fleet_runs_and_serializes() {
        let cfg = smoke_config(7);
        let r = run_fleet_pool(&cfg, &Pool::new(1));
        assert!(r.total_arrivals > 0);
        assert_eq!(r.machines.len(), 8);
        assert_eq!(r.tenants.len(), 12);
        let s = json::to_string(&r);
        assert!(s.contains("\"windows\""));
        let back: FleetResult = json::from_str(&s).expect("round-trip");
        assert_eq!(back, r);
        assert!(!summary(&r).is_empty());
        assert!(render_machines(&r).render().lines().count() >= 9);
        assert!(render_tenants(&r).render().lines().count() >= 13);
    }

    #[test]
    fn headline_config_offers_a_million_threads() {
        // Cheap static check on the generator maths (traces only, no
        // simulation): the headline fleet offers >= 1M thread arrivals.
        let cfg = headline_config(FLEET_SEED);
        assert_eq!(cfg.machines.len(), FLEET_MACHINES);
        let offered = cfg.offered_threads();
        assert!(
            offered >= 1_000_000,
            "headline fleet offers only {offered} threads"
        );
    }
}
