//! Fleet fault-tolerance driver: sweep crash rate × brownout rate ×
//! retry budget over the blind and health-aware dispatchers and record
//! the conservation ledger of every cell. See the `failover` module
//! docs.
//!
//! Flags:
//!
//! * `--seed <n>`    — fleet (arrival/dispatch) seed (default 42);
//! * `--quick`       — only the harshest cell pair (the smoke lap);
//! * `--json <path>` — also write the grid as JSON (the byte-identity
//!   artefact the determinism gate diffs); the file is created before
//!   the run, so an unwritable path exits 2 at once, and `--soak` takes
//!   none;
//! * `--soak`        — long-churn soak instead of the grid: a 30 s
//!   arrival window under worst-case per-machine faults *and* heavy
//!   machine-scope crash/brownout churn, both dispatchers. Passes when
//!   no machine panics and conservation holds (asserted per run).

use dike_experiments::cli::{self, ArgError, JsonOut};
use dike_experiments::failover;
use dike_experiments::{out, outln};
use dike_fleet::FleetRunner;
use dike_machine::FaultConfig;
use dike_util::Pool;
use std::time::Instant;

struct Args {
    seed: u64,
    quick: bool,
    json: Option<JsonOut>,
    soak: bool,
}

fn parse() -> Result<Args, ArgError> {
    let mut a = Args {
        seed: failover::FAILOVER_SEED,
        quick: false,
        json: None,
        soak: false,
    };
    let mut json_path = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => a.seed = cli::value("--seed", iter.next(), cli::SEED, |_| true)?,
            "--quick" => a.quick = true,
            "--json" => json_path = Some(iter.next().ok_or(ArgError::MissingValue("--json"))?),
            "--soak" => a.soak = true,
            "--help" | "-h" => {
                return Err(ArgError::Help(
                    "flags: --seed <n> (default 42), --quick, --json <path>, --soak",
                ))
            }
            _ => return Err(ArgError::Unexpected(arg)),
        }
    }
    // The soak writes no grid, so a `--json` beside it would stay empty.
    if json_path.is_some() && a.soak {
        return Err(ArgError::Conflict("--json", "--soak"));
    }
    // Created last, so a rejected command line leaves no file behind.
    a.json = json_path.map(JsonOut::create).transpose()?;
    Ok(a)
}

/// The soak lap: the smoke fleet stretched to a 30 s arrival window,
/// every machine carrying the worst-case per-machine fault plan, plus a
/// machine-scope fault stream well above the swept grid. Conservation is
/// asserted inside the run; surviving to the summary line *is* the pass.
fn soak(seed: u64, pool: &Pool) {
    let mut cfg = dike_experiments::fleet::smoke_config(seed);
    for (i, m) in cfg.machines.iter_mut().enumerate() {
        m.faults = FaultConfig::combined_worst(seed ^ (i as u64 + 1));
    }
    for t in &mut cfg.tenants {
        t.arrivals.horizon_ms = 30_000;
    }
    let runner = FleetRunner::new(cfg);
    for failover_on in [false, true] {
        let fo = dike_fleet::FailoverConfig {
            retry_budget: 3,
            failover: failover_on,
            faults: dike_machine::MachineFaultConfig::axis(0.3, 0.3, failover::FAILOVER_FAULT_SEED),
            ..Default::default()
        };
        let t0 = Instant::now();
        let r = runner.run_failover(pool, &fo);
        r.ledger
            .assert_holds(&format!("soak failover={failover_on}"));
        outln!(
            "soak {}: {} epochs | dispatched {} drained {} in_flight {} lost {} | \
             quarantines {} readmissions {} | {:.1}s host",
            if failover_on { "failover" } else { "blind" },
            r.epochs,
            r.ledger.dispatched,
            r.ledger.drained,
            r.ledger.in_flight,
            r.ledger.lost,
            r.quarantines,
            r.readmissions,
            t0.elapsed().as_secs_f64()
        );
    }
    outln!("soak passed: conservation held under combined worst-case faults");
}

fn main() {
    let args = cli::or_exit(parse());
    let pool = Pool::from_env();
    if args.soak {
        soak(args.seed, &pool);
        return;
    }
    let t0 = Instant::now();
    let points = if args.quick {
        failover::run_quick_pool(args.seed, &pool)
    } else {
        failover::run_grid_pool(args.seed, &pool)
    };
    let host_s = t0.elapsed().as_secs_f64();

    outln!("Fleet failover — seed {}\n", args.seed);
    out!("{}", failover::render(&points).render());
    outln!("\n{}", failover::summary(&points));
    outln!("host wall-clock: {host_s:.1}s");
    if let Some(out) = args.json {
        out.write(&points);
    }
}
