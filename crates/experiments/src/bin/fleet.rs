//! Fleet-scale multi-tenancy driver: route tenants' Poisson arrival
//! streams over a fleet of independent machines and roll per-tenant
//! fairness up across the fleet. See the `fleet` module docs.
//!
//! Flags (the other binaries' common flags do not fit a fleet, so this
//! binary parses its own):
//!
//! * `--machines <n>` — fleet size (default 64);
//! * `--tenants <n>`  — tenant count (default 96);
//! * `--seed <n>`     — fleet seed (default 42);
//! * `--quick`        — the 8-machine, 12-tenant smoke fleet (takes no
//!   `--machines` or `--tenants`);
//! * `--json <path>`  — also write the full `FleetResult` as JSON (the
//!   byte-identity artefact the determinism gate diffs); the file is
//!   created before the run, so an unwritable path exits 2 at once;
//! * `--per-machine`  — print the per-machine table too.

use dike_experiments::cli::{self, ArgError, JsonOut};
use dike_experiments::fleet;
use dike_experiments::{out, outln};
use dike_util::Pool;
use std::time::Instant;

struct Args {
    machines: usize,
    tenants: usize,
    seed: u64,
    quick: bool,
    json: Option<JsonOut>,
    per_machine: bool,
}

fn parse() -> Result<Args, ArgError> {
    let count = |n: &usize| *n >= 1;
    let mut a = Args {
        machines: fleet::FLEET_MACHINES,
        tenants: fleet::FLEET_TENANTS,
        seed: fleet::FLEET_SEED,
        quick: false,
        json: None,
        per_machine: false,
    };
    let mut json_path = None;
    let mut sized = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--machines" => {
                a.machines = cli::value("--machines", iter.next(), cli::AT_LEAST_ONE, count)?;
                sized = Some("--machines");
            }
            "--tenants" => {
                a.tenants = cli::value("--tenants", iter.next(), cli::AT_LEAST_ONE, count)?;
                sized = Some("--tenants");
            }
            "--seed" => a.seed = cli::value("--seed", iter.next(), cli::SEED, |_| true)?,
            "--quick" => a.quick = true,
            "--json" => json_path = Some(iter.next().ok_or(ArgError::MissingValue("--json"))?),
            "--per-machine" => a.per_machine = true,
            "--help" | "-h" => {
                return Err(ArgError::Help(
                    "flags: --machines <n> (default 64), --tenants <n> (default 96), \
                     --seed <n>, --quick, --json <path>, --per-machine",
                ))
            }
            _ => return Err(ArgError::Unexpected(arg)),
        }
    }
    // The smoke fleet's size is fixed, so a count beside `--quick` would
    // be ignored.
    if let (Some(flag), true) = (sized, a.quick) {
        return Err(ArgError::Conflict(flag, "--quick"));
    }
    // Created last, so a rejected command line leaves no file behind.
    a.json = json_path.map(JsonOut::create).transpose()?;
    Ok(a)
}

fn main() {
    let args = cli::or_exit(parse());
    let cfg = if args.quick {
        fleet::smoke_config(args.seed)
    } else {
        fleet::fleet_config(args.machines, args.tenants, args.seed)
    };
    let offered = cfg.offered_threads();
    outln!(
        "Fleet — {} machines, {} tenants, {} offered thread-arrivals\n",
        cfg.machines.len(),
        cfg.tenants.len(),
        offered
    );
    let t0 = Instant::now();
    let result = fleet::run_fleet_pool(&cfg, &Pool::from_env());
    let host_s = t0.elapsed().as_secs_f64();

    outln!("{}\n", fleet::summary(&result));
    out!("{}", fleet::render_tenants(&result).render());
    if args.per_machine {
        out!("\n{}", fleet::render_machines(&result).render());
    }
    outln!(
        "\nhost wall-clock: {host_s:.1}s ({:.0} arrivals/sec)",
        result.total_arrivals as f64 / host_s
    );
    if let Some(out) = args.json {
        out.write(&result);
    }
}
