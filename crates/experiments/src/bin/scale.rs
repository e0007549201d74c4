//! Scale sweep driver: the Figure 6 comparison set on 1-, 4- and
//! 8-controller machines (40/160/320 vcores). See `scale` module docs.

use dike_experiments::{cli, scale};
use dike_util::Pool;
use std::time::Instant;

fn main() {
    let args = cli::from_env();
    let t0 = Instant::now();
    let points = scale::run_scale_points_pool(&scale::SCALE_DOMAINS, &args.opts, &Pool::from_env());
    let host_s = t0.elapsed().as_secs_f64();
    let t = scale::render(&points);
    println!("Scale sweep — comparison set at 40/160/320 vcores\n");
    print!("{}", t.render());
    if args.csv {
        print!("\n{}", t.to_csv());
    }
    println!("\nhost wall-clock: {host_s:.1}s");
}
