//! Runs the design-choice ablation study (DESIGN.md section 5): default
//! Dike vs no-prediction / no-cooldown / alternate CoreBW estimators /
//! fairness-threshold settings, anchored by CFS and DIO. Positional
//! arguments select workload numbers, each in 1..=16 (default: 1 9 13,
//! one per class).

use dike_experiments::{ablations, cli};

fn main() {
    let (args, workloads) = cli::from_env(|rest| cli::workload_numbers(rest, &[1, 9, 13]));
    println!("Ablation study over workloads {workloads:?}\n");
    let rows = ablations::run(&args.opts, &workloads);
    let t = ablations::render(&rows);
    print!("{}", t.render());
    if args.csv {
        print!("\n{}", t.to_csv());
    }
}
