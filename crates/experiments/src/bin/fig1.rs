//! Regenerates Figure 1: standalone vs concurrent slowdown per app on the
//! heterogeneous and homogeneous machines.

use dike_experiments::{cli, fig1, out, outln};

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    let rows = fig1::run(&args.opts);
    let table = fig1::render(&rows);
    outln!("Figure 1 — standalone vs concurrent execution\n");
    out!("{}", table.render());
    if args.csv {
        out!("\n{}", table.to_csv());
    }
    if let Err(e) = fig1::quick_check(&rows) {
        eprintln!("shape check FAILED: {e}");
        std::process::exit(1);
    }
    eprintln!("\nshape check passed: contention slows everyone, memory apps most, hetero worst");
}
