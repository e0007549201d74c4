//! Robustness driver: degradation curves under injected telemetry and
//! actuation faults, hardened Dike-H vs the trusting paper pipeline vs
//! the CFS/DIO baselines. See the `robustness` module docs.

use dike_experiments::{cli, out, outln, robustness};
use dike_util::Pool;
use std::time::Instant;

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    let t0 = Instant::now();
    let points = robustness::run_robustness_pool(
        &robustness::TELEMETRY_LEVELS,
        &robustness::ACTUATION_LEVELS,
        true,
        &args.opts,
        &Pool::from_env(),
    );
    let host_s = t0.elapsed().as_secs_f64();
    let t = robustness::render(&points);
    outln!("Robustness — fairness degradation under injected faults\n");
    out!("{}", t.render());
    if args.csv {
        out!("\n{}", t.to_csv());
    }
    outln!("\nhost wall-clock: {host_s:.1}s");
}
