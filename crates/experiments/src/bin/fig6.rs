//! Regenerates the paper's comparison from one run of all sixteen
//! workloads under CFS, DIO, Dike, Dike-AF and Dike-AP: Figure 6a
//! (fairness improvement over the Linux baseline), Figure 6b (speedup),
//! Table III (swap counts), Figure 7 (Dike's prediction error) and
//! Figure 8 (its trend for WL6 and WL11), in that order.

use dike_experiments::table3::{self, Table3};
use dike_experiments::{cli, fig6, fig7, fig8, out, outln};
use dike_metrics::TextTable;
use dike_util::Pool;

fn main() {
    let (args, ()) = cli::from_env(cli::none);
    let fig = fig6::run_subset_pool(&args.opts, &(1..=16).collect::<Vec<_>>(), &Pool::from_env());
    let print = |title: &str, t: &TextTable| {
        outln!("{title}\n");
        out!("{}", t.render());
        if args.csv {
            out!("\n{}", t.to_csv());
        }
        outln!();
    };
    print(
        "Figure 6a — fairness improvement over Linux-CFS",
        &fig6::render_fairness(&fig),
    );
    print(
        "Figure 6b — speedup over Linux-CFS (mean benchmark runtime)",
        &fig6::render_performance(&fig),
    );
    print(
        "Table III — swap counts",
        &table3::render(&Table3::of(&fig)),
    );
    print(
        "Figure 7 — Dike prediction error",
        &fig7::render(&fig7::rows(&fig)),
    );
    outln!("Figure 8 — prediction-error trend\n");
    for trace in fig8::traces(&fig) {
        outln!("{} ({} quanta scored)", trace.workload, trace.series.len());
        let t = fig8::render(&trace, 40);
        outln!("{}", t.render());
        if args.csv {
            outln!("{}", t.to_csv());
        }
    }
}
