//! Property tests on the metric definitions.

use dike_metrics::{
    coefficient_of_variation, geometric_mean, mean, relative_improvement, sojourn_by_app, speedup,
    std_dev, RuntimeMatrix, Summary, ThreadSpan, TimeSeries,
};
use dike_util::check::check;
use dike_util::Pcg32;

fn gen_vec(rng: &mut Pcg32, lo: f64, hi: f64, len_lo: usize, len_hi: usize) -> Vec<f64> {
    let len = rng.gen_range(len_lo..len_hi);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn cv_is_scale_invariant_and_nonnegative() {
    check("cv_is_scale_invariant_and_nonnegative", 256, |rng| {
        let xs = gen_vec(rng, 0.01, 1e6, 2, 50);
        let k = rng.gen_range(0.01f64..100.0);

        let cv = coefficient_of_variation(&xs);
        assert!(cv >= 0.0);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let cv2 = coefficient_of_variation(&scaled);
        assert!((cv - cv2).abs() < 1e-9 * (1.0 + cv));
    });
}

#[test]
fn std_dev_translation_invariant() {
    check("std_dev_translation_invariant", 256, |rng| {
        let xs = gen_vec(rng, -1e5, 1e5, 2, 50);
        let shift = rng.gen_range(-1e5f64..1e5);

        let a = std_dev(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let b = std_dev(&shifted);
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    });
}

#[test]
fn geomean_between_min_and_max() {
    check("geomean_between_min_and_max", 256, |rng| {
        let xs = gen_vec(rng, 0.01, 1e6, 1, 50);

        let g = geometric_mean(&xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        assert!(g >= min * (1.0 - 1e-12) && g <= max * (1.0 + 1e-12));
        // AM-GM.
        assert!(g <= mean(&xs) * (1.0 + 1e-9));
    });
}

#[test]
fn fairness_is_at_most_one_and_one_iff_uniform() {
    check("fairness_is_at_most_one_and_one_iff_uniform", 256, |rng| {
        let n_apps = rng.gen_range(1usize..6);
        let per_app: Vec<Vec<f64>> = (0..n_apps).map(|_| gen_vec(rng, 0.1, 1e4, 2, 10)).collect();

        let m = RuntimeMatrix::new(per_app.clone());
        let f = m.fairness();
        assert!(f <= 1.0 + 1e-12);
        // Uniform apps => fairness exactly 1.
        let uniform = RuntimeMatrix::new(per_app.iter().map(|ts| vec![3.5; ts.len()]).collect());
        assert!((uniform.fairness() - 1.0).abs() < 1e-12);
        // Aggregates relate sensibly.
        assert!(m.makespan() >= m.mean_app_runtime() - 1e-9);
    });
}

#[test]
fn summary_brackets_the_sample() {
    check("summary_brackets_the_sample", 256, |rng| {
        let xs = gen_vec(rng, -1e4, 1e4, 1, 100);

        let s = Summary::of(&xs);
        assert_eq!(s.n, xs.len());
        assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        for x in &xs {
            assert!(*x >= s.min && *x <= s.max);
        }
    });
}

#[test]
fn improvement_and_speedup_are_consistent() {
    check("improvement_and_speedup_are_consistent", 256, |rng| {
        let base = rng.gen_range(0.1f64..1e4);
        let v = rng.gen_range(0.1f64..1e4);

        let imp = relative_improvement(v, base);
        assert!((1.0 + imp) * base - v < 1e-6 * v);
        let sp = speedup(base, v);
        assert!((sp * v - base).abs() < 1e-6 * base);
    });
}

/// The one-pass per-app roll-up equals the filter-per-app reduction it
/// replaced, bit for bit: apps with no spans, unfinished spans, app ids
/// in any order and ids past `n_apps` included.
#[test]
fn sojourn_by_app_equals_the_filter_per_app_reference() {
    check(
        "sojourn_by_app_equals_the_filter_per_app_reference",
        256,
        |rng| {
            let n_apps = rng.gen_range(0usize..12);
            let wall = rng.gen_range(0.0f64..500.0);
            let spans: Vec<ThreadSpan> = (0..rng.gen_range(0usize..300))
                .map(|_| {
                    let spawned_at = rng.gen_range(0.0f64..wall.max(1e-9));
                    ThreadSpan {
                        // A few ids past `n_apps`, which both sides ignore.
                        app: rng.gen_range(0u32..n_apps as u32 + 3),
                        spawned_at,
                        finished_at: rng
                            .gen_bool()
                            .then(|| spawned_at + rng.gen_range(0.0f64..50.0)),
                    }
                })
                .collect();

            let totals = sojourn_by_app(&spans, n_apps, wall);
            assert_eq!(totals.len(), n_apps);
            for (app, t) in totals.iter().enumerate() {
                let own: Vec<&ThreadSpan> = spans.iter().filter(|s| s.app == app as u32).collect();
                let departures = own.iter().filter(|s| s.finished_at.is_some()).count() as u64;
                let sum: f64 = own.iter().map(|s| s.sojourn(wall)).sum();
                let mean = if own.is_empty() {
                    0.0
                } else {
                    sum / own.len() as f64
                };
                assert_eq!(t.threads, own.len() as u64, "app {app} threads");
                assert_eq!(t.departures, departures, "app {app} departures");
                assert_eq!(t.sojourn_sum.to_bits(), sum.to_bits(), "app {app} sum");
                assert_eq!(
                    t.mean_sojourn_s().to_bits(),
                    mean.to_bits(),
                    "app {app} mean"
                );
            }
        },
    );
}

#[test]
fn downsampling_preserves_the_mean() {
    check("downsampling_preserves_the_mean", 256, |rng| {
        let values = gen_vec(rng, -100.0, 100.0, 1, 200);
        let max_points = rng.gen_range(1usize..50);

        let mut s = TimeSeries::new("p");
        for (i, v) in values.iter().enumerate() {
            s.push(i as f64, *v);
        }
        let d = s.downsample(max_points);
        assert!(d.len() <= max_points.max(1));
        // Bucket means average to (approximately) the global mean when
        // buckets are equal-sized; allow tolerance for the ragged tail.
        if !values.is_empty() && values.len().is_multiple_of(d.len()) {
            let orig = mean(&values);
            let ds = mean(&d.values);
            assert!((orig - ds).abs() < 1e-9 * (1.0 + orig.abs()));
        }
    });
}
