//! Regenerates Figure 5: per-class (B/UC/UM) optimisation contours, the
//! data behind Algorithm 2's adaptation rules. Pass one positional
//! integer, at least 1, to limit workloads per class (default 2; the full
//! figure uses 6).

use dike_experiments::fig4::Heatmap;
use dike_experiments::fig5::ClassContours;
use dike_experiments::{cli, fig5, outln};

fn main() {
    let (args, per_class) = cli::from_env(|rest| cli::per_class(rest, 2));
    outln!("Figure 5 — per-class optimisation space ({per_class} workloads/class)\n");
    for c in fig5::run(&args.opts, per_class) {
        outln!(
            "class {} (workloads: {})",
            c.class.label(),
            c.workloads.join(", ")
        );
        for map in [&c.fairness, &c.performance] {
            let t = map.render();
            outln!("{}", t.render());
            if args.csv {
                outln!("{}", t.to_csv());
            }
        }
        let (fq, fs) = ClassContours::peak(&c.fairness.values);
        let (pq, ps) = ClassContours::peak(&c.performance.values);
        outln!(
            "  fairness peak: quantum={}ms swapSize={}   performance peak: quantum={}ms swapSize={}\n",
            Heatmap::quanta_ms()[fq],
            Heatmap::swap_sizes()[fs],
            Heatmap::quanta_ms()[pq],
            Heatmap::swap_sizes()[ps],
        );
    }
}
