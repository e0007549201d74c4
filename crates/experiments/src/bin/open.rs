//! Open-system driver: the comparison set plus the null floor under
//! WL1-derived Poisson arrivals at three load levels. See `open` module
//! docs.

use dike_experiments::{cli, open};
use dike_util::Pool;
use std::time::Instant;

fn main() {
    let args = cli::from_env();
    let t0 = Instant::now();
    let points = open::run_open_points_pool(&open::LOAD_LEVELS_MS, &args.opts, &Pool::from_env());
    let host_s = t0.elapsed().as_secs_f64();
    let t = open::render(&points);
    println!("Open system — mid-run arrivals/departures at three load levels\n");
    print!("{}", t.render());
    if args.csv {
        print!("\n{}", t.to_csv());
    }
    println!("\nhost wall-clock: {host_s:.1}s");
}
