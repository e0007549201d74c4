//! Property tests on the `CoreBW` estimator and rate derivations.

use dike_counters::{MovingMean, RateSample};
use dike_util::check::check;
use dike_util::Pcg32;

fn gen_samples(rng: &mut Pcg32, lo: f64, hi: f64, len_lo: usize, len_hi: usize) -> Vec<f64> {
    let len = rng.gen_range(len_lo..len_hi);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn moving_mean_equals_arithmetic_mean() {
    check("moving_mean_equals_arithmetic_mean", 256, |rng| {
        let samples = gen_samples(rng, -1e6, 1e6, 1, 200);

        let mut e = MovingMean::new();
        for s in &samples {
            e.update(*s);
        }
        let expect = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((e.value() - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    });
}

#[test]
fn rate_sample_fields_are_consistent() {
    check("rate_sample_fields_are_consistent", 256, |rng| {
        let instr = rng.gen_range(0.0f64..1e12);
        let misses_frac = rng.gen_range(0.0f64..0.5);
        let accesses_extra = rng.gen_range(1.0f64..4.0);
        let cycles = rng.gen_range(1.0f64..1e12);
        let dt = rng.gen_range(0.001f64..10.0);

        let misses = instr * misses_frac;
        let accesses = misses * accesses_extra;
        let r = RateSample::from_deltas(instr, misses, accesses, cycles, dt);
        assert!((r.instr_rate * dt - instr).abs() < 1e-6 * (1.0 + instr));
        assert!((r.access_rate * dt - misses).abs() < 1e-6 * (1.0 + misses));
        if accesses > 0.0 {
            assert!((0.0..=1.0 + 1e-9).contains(&r.llc_miss_rate));
        }
        assert!(r.ipc >= 0.0);
    });
}
