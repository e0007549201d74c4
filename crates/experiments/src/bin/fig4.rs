//! Regenerates Figure 4: normalised fairness/performance heatmaps over the
//! 8x4 <swapSize, quantaLength> grid for WL3 and WL9.

use dike_experiments::{cli, fig4, outln};

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    outln!("Figure 4 — configuration heatmaps (normalised to grid best)\n");
    for map in fig4::run(&args.opts) {
        let t = map.render();
        outln!("{}", t.render());
        if args.csv {
            outln!("{}", t.to_csv());
        }
    }
}
