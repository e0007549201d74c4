//! `--compare A B`: two sets of runs, judged metric by metric.
//!
//! Each set is a file of benchmark output; every line that is a run's
//! detail document (it has `workload` and `metrics`) counts as one run.
//! Per (workload, end-to-end metric) of `BENCHMARK.json`, all host-side,
//! the verdict is:
//!
//! * `unresolved` — either set's quartile spread, as a share of its
//!   median, is wider than the bound, unless every run of B reads better
//!   than every run of A (then `better`);
//! * `worse` / `better` — B's median moved the wrong / right way by more
//!   than the bound;
//! * `same` — otherwise.
//!
//! The simulated outcomes ([`SIM_METRICS`]) repeat exactly at a given
//! seed, so they are paired by (workload, seed) and may not change at
//! all: `worse` if any pair got worse, `better` if some improved and none
//! got worse, `same` if every pair is bit-identical. Result digests are
//! paired the same way, so a change to any simulated output is reported.

use crate::stats::{median, quartiles};
use crate::workloads::SIM_METRICS;
use dike_util::json::{self, Value};
use std::collections::BTreeMap;

/// An end-to-end metric's bound and direction, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    /// `true` when lower is better.
    lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    bound: f64,
}

/// The end-to-end bounds declared in a `BENCHMARK.json` document.
///
/// # Errors
/// When the document is not JSON or lacks a well-formed `end_to_end`.
fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let list = doc
        .field("end_to_end")
        .and_then(Value::items)
        .map_err(|e| e.to_string())?;
    list.iter()
        .map(|m| {
            let name = match m.field("name") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let lower_is_better = match m.field("better") {
                Ok(Value::Str(s)) if s == "lower" => true,
                Ok(Value::Str(s)) if s == "higher" => false,
                _ => return Err(format!("{name}: `better` must be lower or higher")),
            };
            let bound = match m.field("bound") {
                Ok(Value::Num(n)) => n.as_f64(),
                _ => return Err(format!("{name}: missing numeric bound")),
            };
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One run read from a set file.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    workload: String,
    seed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
    simulated: BTreeMap<String, f64>,
}

/// The `value` of every metric in the object `doc[key]`.
fn values(doc: &Value, key: &str) -> Option<BTreeMap<String, f64>> {
    match doc.field(key) {
        Ok(Value::Object(fields)) => Some(
            fields
                .iter()
                .filter_map(|(k, v)| match v.field("value") {
                    Ok(Value::Num(n)) => Some((k.clone(), n.as_f64())),
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

fn runs(text: &str) -> Vec<Run> {
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|doc| {
            let Ok(Value::Str(workload)) = doc.field("workload") else {
                return None;
            };
            let metrics = values(&doc, "metrics")?;
            let seed = match doc.field("seed") {
                Ok(Value::Num(n)) => n.as_u64().unwrap_or(0),
                _ => 0,
            };
            let digest = match doc.field("result_digest") {
                Ok(Value::Str(d)) => d.clone(),
                _ => String::new(),
            };
            Some(Run {
                workload: workload.clone(),
                seed,
                digest,
                metrics,
                simulated: values(&doc, "simulated").unwrap_or_default(),
            })
        })
        .collect()
}

/// The verdict for one (workload, host metric) pair.
fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let spread = |xs: &[f64], m: f64| {
        let (q1, q3) = quartiles(xs);
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    };
    let better = |x: f64, y: f64| {
        if bound.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let worse_share = if ma == 0.0 {
        0.0
    } else if bound.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if spread(a, ma).max(spread(b, mb)) > bound.bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better { "better" } else { "unresolved" };
    }
    if worse_share > bound.bound {
        "worse"
    } else if -worse_share > bound.bound {
        "better"
    } else {
        "same"
    }
}

/// The verdict for one simulated metric over (A, B) values paired by
/// seed: any change is `better` or `worse`, with no tolerance.
fn paired_verdict(pairs: &[(f64, f64)], lower_is_better: bool) -> &'static str {
    let mut verdict = "same";
    for &(a, b) in pairs {
        if a.to_bits() == b.to_bits() {
            continue;
        }
        // A NaN on either side reads as neither better nor worse: worse.
        let better = if lower_is_better { b < a } else { b > a };
        if !better {
            return "worse";
        }
        verdict = "better";
    }
    verdict
}

/// Compare set files `a` and `b`; returns the printed table and whether
/// the sets agree (no `worse` verdict and no digest mismatch).
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (ra, rb) = (runs(a), runs(b));
    if ra.is_empty() || rb.is_empty() {
        return Err("a set file holds no benchmark runs".into());
    }
    let mut out = String::new();
    let mut agree = true;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = ra.iter().map(|r| &r.workload).collect();
        w.sort();
        w.dedup();
        w
    };
    out.push_str(&format!(
        "{:<14} {:<14} {:>36} {:>36} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    ));
    for w in workloads {
        for bound in &bounds {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| &r.workload == w)
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.6} [{q1:.6}, {q3:.6}] {}", median(xs), xs.len())
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let v = verdict(&va, &vb, bound);
            agree &= v != "worse";
            out.push_str(&format!(
                "{w:<14} {:<14} {:>36} {:>36} {:>+8.2}% {:>5.1}%  {v}\n",
                bound.name,
                show(&va),
                show(&vb),
                change * 100.0,
                bound.bound * 100.0
            ));
        }
        let pairs: Vec<(&Run, &Run)> = ra
            .iter()
            .filter(|x| &x.workload == w)
            .flat_map(|x| {
                rb.iter()
                    .filter(move |y| y.workload == x.workload && y.seed == x.seed)
                    .map(move |y| (x, y))
            })
            .collect();
        for &(name, _, lower_is_better) in &SIM_METRICS {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(x, y)| Some((*x.simulated.get(name)?, *y.simulated.get(name)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (va, vb): (Vec<f64>, Vec<f64>) = values.iter().copied().unzip();
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let changed = values
                .iter()
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            let v = paired_verdict(&values, lower_is_better);
            agree &= v != "worse";
            out.push_str(&format!(
                "{w:<14} {name:<14} {:>36} {:>36} {:>+8.2}% {:>6}  {v} ({changed} of {} seed pairs changed)\n",
                format!("{ma:.6}"),
                format!("{mb:.6}"),
                change * 100.0,
                "0/seed",
                values.len()
            ));
        }
    }
    let mut matched = 0;
    for x in &ra {
        for y in rb
            .iter()
            .filter(|y| y.workload == x.workload && y.seed == x.seed)
        {
            if x.digest == y.digest {
                matched += 1;
            } else {
                agree = false;
                out.push_str(&format!(
                    "digest mismatch: {} seed {}: {} vs {}\n",
                    x.workload, x.seed, x.digest, y.digest
                ));
            }
        }
    }
    out.push_str(&format!("result digests identical: {matched} pair(s)\n"));
    Ok((out, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "lap_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&a, &[1.02, 1.03, 1.01, 1.02], &lower(0.1)), "same");
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.19, 1.20], &lower(0.1)), "worse");
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80], &lower(0.1)),
            "better"
        );
        let wide = [0.5, 1.5, 0.7, 1.3];
        assert_eq!(
            verdict(&wide, &[1.0, 1.0, 1.0, 1.0], &lower(0.1)),
            "unresolved"
        );
        assert_eq!(verdict(&wide, &[0.1, 0.1, 0.1, 0.1], &lower(0.1)), "better");
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&a, &[0.80, 0.81, 0.79, 0.80], &higher), "worse");
    }

    #[test]
    fn simulated_metrics_may_not_change_at_any_seed() {
        assert_eq!(paired_verdict(&[(0.3, 0.3), (0.5, 0.5)], true), "same");
        assert_eq!(paired_verdict(&[(0.3, 0.3), (0.5, 0.49)], true), "better");
        // One seed a hair worse outweighs another much better.
        assert_eq!(paired_verdict(&[(0.3, 0.1), (0.5, 0.5001)], true), "worse");
        assert_eq!(paired_verdict(&[(0.3, 0.31)], false), "better");
        assert_eq!(paired_verdict(&[(0.3, f64::NAN)], true), "worse");
    }

    #[test]
    fn compare_reads_runs_and_flags_simulated_and_digest_changes() {
        let bench = r#"{"end_to_end":[{"name":"lap_s","unit":"s","better":"lower","bound":0.1}]}"#;
        let line = |seed: u64, lap: f64, unfair: f64, digest: &str| {
            format!(
                r#"{{"workload":"w","seed":{seed},"result_digest":"{digest}","metrics":{{"lap_s":{{"value":{lap},"unit":"s"}}}},"simulated":{{"sim.unfairness":{{"value":{unfair},"unit":"1"}}}}}}"#
            )
        };
        let a = [
            line(1, 1.0, 0.3, "aa"),
            line(2, 1.01, 0.5, "bb"),
            "noise".into(),
        ]
        .join("\n");
        let b = [line(1, 1.02, 0.3, "aa"), line(2, 1.0, 0.5, "bb")].join("\n");
        let (table, agree) = compare(bench, &a, &b).expect("compare");
        assert!(agree, "{table}");
        assert!(
            table.contains("same (0 of 2 seed pairs changed)"),
            "{table}"
        );
        // Seed 2 got 0.2% worse: far inside any spread across seeds, but
        // a change at a fixed seed.
        let c = [line(1, 1.0, 0.3, "aa"), line(2, 1.0, 0.501, "cc")].join("\n");
        let (table, agree) = compare(bench, &a, &c).expect("compare");
        assert!(!agree);
        assert!(
            table.contains("worse (1 of 2 seed pairs changed)"),
            "{table}"
        );
        assert!(table.contains("digest mismatch"));
        assert!(compare(bench, "", &b).is_err());
    }
}
