//! One benchmark run: lap a workload for the requested time, each lap on
//! inputs freshly set up from the seed, check its outputs, and report
//! every metric.

use crate::stats::{median, peak_rss_mib, quartiles};
use crate::trace::Trace;
use crate::workloads::{lap, prepare, traced_lap, Kind, Outcome, LAYER_METRICS, SIM_METRICS};
use dike_util::json::{Num, Value};
use dike_util::Pool;
use std::time::{Duration, Instant};

/// Fewest laps per untraced run, so quartiles exist.
pub const MIN_LAPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to spend lapping.
    pub seconds: f64,
    /// Run traced laps and report per-layer metrics.
    pub trace: bool,
    /// Use the workload's small size.
    pub smoke: bool,
}

/// A finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every metric, lap statistics, digest and checks.
    pub detail: Value,
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Value,
    /// Named output-check failures; empty when every check passed.
    pub failures: Vec<String>,
}

fn num(x: f64) -> Value {
    Value::Num(Num::F(x))
}

fn count(x: u64) -> Value {
    Value::Num(Num::U(x))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn secs(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(Duration::as_secs_f64).collect()
}

/// Repeat `one` until `seconds` are spent (at least `min` times),
/// stopping before a repetition that would overrun by the median so far.
fn repeat_for<T>(seconds: f64, min: usize, mut one: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        out.push(one());
        took.push(t.elapsed().as_secs_f64());
        if out.len() >= min && started.elapsed().as_secs_f64() + median(&took) > seconds {
            return out;
        }
    }
}

/// `f`'s value and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

fn fastest(laps: &[f64]) -> f64 {
    laps.iter().copied().fold(f64::INFINITY, f64::min)
}

fn lap_stats(laps: &[f64]) -> Value {
    let (q1, q3) = quartiles(laps);
    obj(vec![
        ("min", num(fastest(laps))),
        ("median", num(median(laps))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", count(laps.len() as u64)),
    ])
}

/// Check that every lap produced lap 1's result, and gather failures.
fn check_laps(outcomes: &[&Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    let first = outcomes[0].digest;
    for (i, o) in outcomes.iter().enumerate() {
        if o.digest != first {
            failures.push(format!(
                "lap {} result digest {:016x} != lap 1's {first:016x}",
                i + 1,
                o.digest
            ));
        }
        failures.extend(o.failures.iter().cloned());
    }
    failures
}

/// Run the benchmark; spans of a traced run go to `trace`.
pub fn run(args: &RunArgs, trace: &mut Trace) -> Report {
    let pool = Pool::new(1);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Every lap runs on inputs set up just before it and dropped after
    // it, so the set-ups sample the host over the whole run as the laps
    // do, and only one lap's inputs are ever alive.
    let mut setups: Vec<Duration> = Vec::new();
    let mut timed_laps = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        // Untraced and traced laps alternate, on the same inputs, so that
        // both see the same host speed: the untraced laps give the result
        // every traced lap must reproduce and the tracing cost's baseline.
        let pairs = repeat_for(args.seconds, 1, || {
            let (took, inputs) = timed(|| prepare(args.workload, args.seed, args.smoke));
            setups.push(took);
            let plain = timed(|| lap(&inputs, &pool));
            (plain, traced_lap(args.workload, &inputs, &pool, trace))
        });
        for (plain, layered) in pairs {
            timed_laps.push(plain);
            traced.push(layered);
        }
    } else {
        timed_laps = repeat_for(args.seconds, MIN_LAPS, || {
            let (took, inputs) = timed(|| prepare(args.workload, args.seed, args.smoke));
            setups.push(took);
            timed(|| lap(&inputs, &pool))
        });
    }
    let setup_s = median(&secs(&setups));

    let outcomes: Vec<&Outcome> = timed_laps
        .iter()
        .map(|(_, o)| o)
        .chain(traced.iter().map(|(o, _)| o))
        .collect();
    let mut failures = check_laps(&outcomes);
    let peak = peak_rss_mib().unwrap_or_else(|e| {
        failures.push(e);
        f64::NAN
    });
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let first = outcomes[0];

    let lap_s: Vec<f64> = secs(&timed_laps.iter().map(|l| l.0).collect::<Vec<_>>());
    // The fastest lap, not the median: on a shared host other tenants
    // slow whole stretches of a run, and the fastest lap varies least
    // from run to run (see the README).
    let lap_min = fastest(&lap_s);
    let end_to_end = [
        ("setup_s", setup_s, "s"),
        ("lap_min_s", lap_min, "s"),
        ("threads_per_s", first.attempted as f64 / lap_min, "1/s"),
        ("peak_rss_mib", peak, "MiB"),
    ];
    let sim: Vec<(&str, f64, &str)> = SIM_METRICS
        .iter()
        .zip(first.sim_values())
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();
    let layers: Vec<(&str, f64, &str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = traced.iter().map(|(_, l)| l.get(name)).collect();
            (name, median(&values), unit)
        })
        .collect();
    let per_layer: Vec<(&str, f64, &str)> = layers.iter().chain(&sim).copied().collect();
    let simulated: Vec<(&str, f64, &str)> = sim
        .iter()
        .copied()
        .chain([
            ("fairness", first.fairness, "1"),
            ("fail_frac", failed as f64 / attempted.max(1) as f64, "1"),
        ])
        .chain(first.extra.iter().copied())
        .collect();
    let object = |ms: &[(&str, f64, &str)]| {
        Value::Object(
            ms.iter()
                .map(|&(name, v, unit)| (name.to_string(), metric(v, unit)))
                .collect(),
        )
    };

    let mut detail = vec![
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", count(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("trace", Value::Bool(args.trace)),
        ("host_threads", count(host_threads as u64)),
        ("pool_threads", count(pool.threads() as u64)),
        ("setup_s", lap_stats(&secs(&setups))),
        ("lap_s", lap_stats(&lap_s)),
        (
            "result_digest",
            Value::Str(format!("{:016x}", first.digest)),
        ),
        ("metrics", object(&end_to_end)),
        ("simulated", object(&simulated)),
    ];
    if args.trace {
        detail.push(("layers", object(&layers)));
    }
    detail.push((
        "failures",
        Value::Array(failures.iter().map(|f| Value::Str(f.clone())).collect()),
    ));

    Report {
        detail: obj(detail),
        result: obj(vec![
            ("correct", Value::Bool(failures.is_empty())),
            ("attempted", count(attempted)),
            ("failed", count(failed)),
            (
                "metrics",
                object(if args.trace { &per_layer } else { &end_to_end }),
            ),
        ]),
        failures,
    }
}
