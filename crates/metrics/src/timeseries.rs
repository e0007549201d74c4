//! Time-series recording for runtime traces (Figure 8's prediction-error
//! trend, access-rate traces, utilisation traces).

use crate::stats::Summary;

/// A named `(time, value)` series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Name for reports.
    pub name: String,
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// Sample values.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append a sample. Times must be non-decreasing.
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded time.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "time went backwards: {t} < {last}");
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Summary statistics of the values.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.values)
    }

    /// Down-sample to at most `max_points` by averaging fixed-size buckets
    /// (for rendering long traces).
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        assert!(max_points > 0, "max_points must be positive");
        if self.len() <= max_points {
            return self.clone();
        }
        let bucket = self.len().div_ceil(max_points);
        let mut out = TimeSeries::new(self.name.clone());
        for chunk_start in (0..self.len()).step_by(bucket) {
            let end = (chunk_start + bucket).min(self.len());
            let t = self.times[chunk_start..end].iter().sum::<f64>() / (end - chunk_start) as f64;
            let v = self.values[chunk_start..end].iter().sum::<f64>() / (end - chunk_start) as f64;
            out.push(t, v);
        }
        out
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut s = TimeSeries::new("err");
        s.push(0.0, 1.0);
        s.push(1.0, 2.0);
        s.push(1.0, 3.0); // equal time allowed
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let pairs: Vec<(f64, f64)> = s.iter().collect();
        assert_eq!(pairs, vec![(0.0, 1.0), (1.0, 2.0), (1.0, 3.0)]);
        assert_eq!(s.summary().max, 3.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new("x");
        s.push(2.0, 0.0);
        s.push(1.0, 0.0);
    }

    #[test]
    fn downsample_averages_buckets() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(i as f64, i as f64);
        }
        let d = s.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.values[0], 0.5); // mean of 0,1
        assert_eq!(d.values[4], 8.5); // mean of 8,9
                                      // No-op when already small enough.
        assert_eq!(s.downsample(100), s);
    }
}
