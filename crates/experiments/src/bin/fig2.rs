//! Regenerates Figure 2: optimal vs default vs worst Dike configuration
//! (normalised fairness/performance) for WL2, WL7 and WL13.

use dike_experiments::{cli, fig2, out, outln};

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    let rows = fig2::run(&args.opts);
    let table = fig2::render(&rows);
    outln!("Figure 2 — optimal/default/worst scheduler configurations\n");
    out!("{}", table.render());
    if args.csv {
        out!("\n{}", table.to_csv());
    }
}
