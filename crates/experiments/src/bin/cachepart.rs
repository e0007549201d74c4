//! Cache-partitioning driver: the LLC way-partitioning actuator
//! comparison — CFS/DIO/Dike (migration-only) vs LFOC (partition-only)
//! vs the Dike+LFOC hybrid, across two paper mixes and three fault
//! environments. See the `cachepart` module docs.

use dike_experiments::{cachepart, cli, out, outln};
use dike_util::Pool;
use std::time::Instant;

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    let t0 = Instant::now();
    let points = cachepart::run_cachepart_pool(
        &cachepart::CACHEPART_WORKLOADS,
        &args.opts,
        &Pool::from_env(),
    );
    let host_s = t0.elapsed().as_secs_f64();
    let t = cachepart::render(&points);
    outln!("Cache partitioning — migration vs partition vs both\n");
    out!("{}", t.render());
    if args.csv {
        out!("\n{}", t.to_csv());
    }
    outln!("\nhost wall-clock: {host_s:.1}s");
}
