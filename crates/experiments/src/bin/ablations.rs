//! Runs the design-choice ablation study (DESIGN.md section 5): default
//! Dike vs no-prediction / no-cooldown / alternate CoreBW estimators /
//! fairness-threshold settings, anchored by CFS and DIO. Positional
//! arguments select workload numbers, each in 1..=16 (default: 1 9 13,
//! one per class).

use dike_experiments::{ablations, cli, out, outln};

fn main() {
    let (args, workloads) = cli::from_env(|rest| cli::workload_numbers(rest, &[1, 9, 13]));
    outln!("Ablation study over workloads {workloads:?}\n");
    let rows = ablations::run(&args.opts, &workloads);
    let t = ablations::render(&rows);
    out!("{}", t.render());
    if args.csv {
        out!("\n{}", t.to_csv());
    }
}
