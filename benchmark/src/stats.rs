//! Order statistics and host measurements shared by the runner and the
//! compare mode.

/// Median of `xs` (the mean of the middle two for an even count; 0 for
/// an empty slice), as Python's `statistics.median` computes it.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles of `xs` by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method),
/// with the rank clamped into the sample for fewer than three values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let at = |i: usize| {
        let m = (n + 1) * i;
        let (j, delta) = (m / 4, (m % 4) as f64);
        let lo = s[j.clamp(1, n) - 1];
        let hi = s[j.clamp(0, n - 1)];
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank quantile `q` of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
