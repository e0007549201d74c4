//! Cache-partitioning driver: the LLC way-partitioning actuator
//! comparison — CFS/DIO/Dike (migration-only) vs LFOC (partition-only)
//! vs the Dike+LFOC hybrid, across two paper mixes and three fault
//! environments. See the `cachepart` module docs.

use dike_experiments::{cachepart, cli};
use dike_util::Pool;
use std::time::Instant;

fn main() {
    let args = cli::from_env();
    let t0 = Instant::now();
    let points = cachepart::run_cachepart_pool(
        &cachepart::CACHEPART_WORKLOADS,
        &args.opts,
        &Pool::from_env(),
    );
    let host_s = t0.elapsed().as_secs_f64();
    let t = cachepart::render(&points);
    println!("Cache partitioning — migration vs partition vs both\n");
    print!("{}", t.render());
    if args.csv {
        print!("\n{}", t.to_csv());
    }
    println!("\nhost wall-clock: {host_s:.1}s");
}
