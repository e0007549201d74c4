//! Fairness over time for open-system runs.
//!
//! The paper's fairness (Eqn 4) is a whole-run scalar: it assumes every
//! thread starts at time zero and the interesting quantity is the spread
//! of total execution times. In an open system threads arrive and leave
//! continuously, so a single end-of-run number hides transients (a burst
//! of arrivals starving one app for ten seconds can average out). The
//! windowed variant here slides a fixed-length interval over the run and
//! scores, per window, the sojourn times of the threads that *departed*
//! inside it — the open-system analogue of "execution time" — with the
//! same 1 − mean CV reduction, grouped by application instance.

use crate::fairness::RuntimeMatrix;
use crate::stats::mean;
use dike_util::json_struct;
use std::collections::BTreeMap;

/// One thread's lifetime, as reported by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSpan {
    /// Owning application instance.
    pub app: u32,
    /// Arrival time in seconds.
    pub spawned_at: f64,
    /// Completion time in seconds; `None` if still running at the end.
    pub finished_at: Option<f64>,
}

impl ThreadSpan {
    /// Sojourn (residence) time: completion − arrival, charging unfinished
    /// threads up to `wall`.
    pub fn sojourn(&self, wall: f64) -> f64 {
        self.finished_at.unwrap_or(wall) - self.spawned_at
    }
}

/// Fairness and throughput inside one sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window end, in seconds (the window is `[end − length, end)`).
    pub end_s: f64,
    /// Eqn-4 fairness over the sojourn times of threads departing in the
    /// window, grouped by app. 1.0 when no thread departed (nothing was
    /// unfair in an empty window).
    pub fairness: f64,
    /// Mean sojourn time of the departures in the window; 0 when none.
    pub mean_sojourn_s: f64,
    /// Number of threads that departed inside the window.
    pub departures: u64,
}

json_struct!(WindowPoint {
    end_s,
    fairness,
    mean_sojourn_s,
    departures,
});

/// Sliding-window length of every reported window series, in seconds.
const WINDOW_S: f64 = 5.0;

/// Window step of every reported window series (half-overlapping
/// windows), in seconds.
const WINDOW_STEP_S: f64 = 2.5;

/// The window series every open-system, robustness, cache-partitioning
/// and fleet result reports: 5 s windows every 2.5 s over a run of
/// `wall` seconds, with the mean and the minimum of their fairness. A run
/// shorter than one window still gets the one window `[0, 5)`, so the
/// series is never empty.
///
/// `spans` is any span sequence that can be walked more than once: a
/// slice, or a fleet's per-machine records chained in machine order,
/// which scores exactly as the same spans merged into one slice.
pub fn window_series<'a, S>(spans: S, wall: f64) -> (Vec<WindowPoint>, f64, f64)
where
    S: IntoIterator<Item = &'a ThreadSpan> + Clone,
{
    let windows = windowed_fairness(spans, WINDOW_S, WINDOW_STEP_S, wall.max(WINDOW_S));
    let fair: Vec<f64> = windows.iter().map(|w| w.fairness).collect();
    let min = fair.iter().copied().fold(f64::INFINITY, f64::min);
    (windows, mean(&fair), min)
}

/// Slide a `window_s`-long interval in steps of `step_s` across `[0,
/// horizon_s]` and score each position over `spans`.
///
/// Windows are anchored at their *end*: the first point is the window
/// ending at `window_s`, the last the first window ending at or beyond
/// `horizon_s`, so every departure inside the horizon lands in at least
/// one window.
///
/// # Panics
/// Panics if `window_s` or `step_s` is not positive.
fn windowed_fairness<'a, S>(
    spans: S,
    window_s: f64,
    step_s: f64,
    horizon_s: f64,
) -> Vec<WindowPoint>
where
    S: IntoIterator<Item = &'a ThreadSpan> + Clone,
{
    assert!(window_s > 0.0, "window length must be > 0");
    assert!(step_s > 0.0, "window step must be > 0");
    // Sized at its final count before the loop: a fleet result keeps the
    // series, and one grown by doubling in between the windows' grouping
    // scratch raised `failover_deep`'s peak RSS by 6.7%. Rounding in
    // `end += step_s` may still push one point past the count.
    let count = ((horizon_s - window_s) / step_s).ceil().max(0.0) as usize + 1;
    let mut points = Vec::with_capacity(count);
    let mut end = window_s;
    loop {
        let start = end - window_s;
        // Group the window's departures by app. BTreeMap keeps app order
        // deterministic regardless of span order.
        let mut per_app: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in spans.clone() {
            if let Some(f) = s.finished_at {
                if f >= start && f < end {
                    per_app.entry(s.app).or_default().push(f - s.spawned_at);
                }
            }
        }
        // The mean folds the departures in app order, as `mean` would over
        // their copy; a fleet's one window can hold every departure of
        // the run, so no copy is made.
        let departures = per_app.values().map(Vec::len).sum::<usize>();
        let mean_sojourn_s = if departures == 0 {
            0.0
        } else {
            per_app.values().flatten().sum::<f64>() / departures as f64
        };
        points.push(WindowPoint {
            end_s: end,
            fairness: RuntimeMatrix::new(per_app.into_values().collect()).fairness(),
            mean_sojourn_s,
            departures: departures as u64,
        });
        if end >= horizon_s {
            break;
        }
        end += step_s;
    }
    points
}

/// Mean sojourn time over all spans, charging unfinished threads up to
/// `wall` — the open-system headline performance number (lower is
/// better). Returns 0 for an empty span set. `spans` as in
/// [`window_series`].
pub fn mean_sojourn<'a, S>(spans: S, wall: f64) -> f64
where
    S: IntoIterator<Item = &'a ThreadSpan> + Clone,
{
    let n = spans.clone().into_iter().count();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = spans.into_iter().map(|s| s.sojourn(wall)).sum();
    total / n as f64
}

/// One app's share of a span set: threads, departures, and the sum of
/// their sojourns with unfinished threads charged up to the wall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SojournTotals {
    /// Spans of the app.
    pub threads: u64,
    /// Spans that finished.
    pub departures: u64,
    /// Sojourns summed in span order from −0.0, exactly as
    /// `Iterator::sum` folds an `f64` sequence.
    pub sojourn_sum: f64,
}

impl SojournTotals {
    const EMPTY: SojournTotals = SojournTotals {
        threads: 0,
        departures: 0,
        sojourn_sum: -0.0,
    };

    /// Mean sojourn over the app's spans; 0 when it has none.
    pub fn mean_sojourn_s(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.sojourn_sum / self.threads as f64
        }
    }
}

/// [`SojournTotals`] for apps `0..n_apps` in one pass over `spans`.
///
/// Each app's sojourns are added in span order, so its mean is
/// bit-identical to [`mean_sojourn`] over that app's spans alone, at
/// O(spans + apps) rather than a pass over the whole set per app. Spans
/// of apps at or beyond `n_apps` are ignored. `spans` is any span
/// sequence, walked once.
pub fn sojourn_by_app<'a>(
    spans: impl IntoIterator<Item = &'a ThreadSpan>,
    n_apps: usize,
    wall: f64,
) -> Vec<SojournTotals> {
    let mut totals = vec![SojournTotals::EMPTY; n_apps];
    for s in spans {
        if let Some(t) = totals.get_mut(s.app as usize) {
            t.threads += 1;
            t.departures += u64::from(s.finished_at.is_some());
            t.sojourn_sum += s.sojourn(wall);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(app: u32, spawned: f64, finished: f64) -> ThreadSpan {
        ThreadSpan {
            app,
            spawned_at: spawned,
            finished_at: Some(finished),
        }
    }

    #[test]
    fn equal_sojourns_per_app_score_perfect_fairness() {
        // Two apps, each with two threads of identical sojourn time.
        let spans = vec![
            span(0, 0.0, 2.0),
            span(0, 1.0, 3.0),
            span(1, 0.5, 1.5),
            span(1, 2.5, 3.5),
        ];
        let pts = windowed_fairness(&spans, 4.0, 4.0, 4.0);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].departures, 4);
        assert!((pts[0].fairness - 1.0).abs() < 1e-12);
        assert!((pts[0].mean_sojourn_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn skewed_sojourns_lower_windowed_fairness() {
        let fair = vec![span(0, 0.0, 1.0), span(0, 0.0, 1.0)];
        let skew = vec![span(0, 0.0, 1.0), span(0, 0.0, 3.9)];
        let f = windowed_fairness(&fair, 4.0, 4.0, 4.0)[0].fairness;
        let s = windowed_fairness(&skew, 4.0, 4.0, 4.0)[0].fairness;
        assert!(s < f, "skewed {s} should be below fair {f}");
    }

    #[test]
    fn departures_land_in_their_window_only() {
        let spans = vec![span(0, 0.0, 0.5), span(1, 0.0, 2.5)];
        let pts = windowed_fairness(&spans, 1.0, 1.0, 3.0);
        assert_eq!(pts.len(), 3);
        assert_eq!(
            pts.iter().map(|p| p.departures).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
        // An empty window is vacuously fair and has zero sojourn.
        assert_eq!(pts[1].fairness, 1.0);
        assert_eq!(pts[1].mean_sojourn_s, 0.0);
    }

    #[test]
    fn sliding_step_overlaps_windows() {
        let spans = vec![span(0, 0.0, 1.5)];
        let pts = windowed_fairness(&spans, 2.0, 1.0, 4.0);
        // Windows [0,2) [1,3) [2,4): the departure at 1.5 is in the first
        // two.
        assert_eq!(
            pts.iter().map(|p| p.departures).collect::<Vec<_>>(),
            vec![1, 1, 0]
        );
    }

    #[test]
    fn window_series_is_never_empty() {
        let spans = vec![span(0, 0.0, 1.0), span(0, 0.0, 3.9), span(1, 2.0, 9.0)];
        // A run shorter than one window still gets the window [0, 5).
        let (short, mean_f, min_f) = window_series(&spans[..2], 1.0);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].end_s, WINDOW_S);
        assert_eq!((mean_f, min_f), (short[0].fairness, short[0].fairness));
        let (long, _, _) = window_series(&spans, 9.0);
        assert_eq!(
            long,
            windowed_fairness(&spans, WINDOW_S, WINDOW_STEP_S, 9.0)
        );
    }

    #[test]
    fn window_series_reduces_mean_and_min() {
        // Windows [0,5) [2.5,7.5) [5,10): a skewed pair, then one lone
        // departure each, so only the first window is below 1.0.
        let spans = vec![span(0, 0.0, 1.0), span(0, 0.0, 3.9), span(1, 2.0, 9.0)];
        let (windows, mean_f, min_f) = window_series(&spans, 9.0);
        assert_eq!(
            windows.iter().map(|w| w.departures).collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
        let skewed = windows[0].fairness;
        assert!(skewed < 1.0);
        assert_eq!(min_f, skewed);
        assert!((mean_f - (skewed + 2.0) / 3.0).abs() < 1e-12);
        assert!(min_f < mean_f && mean_f < 1.0);
    }

    #[test]
    fn mean_sojourn_charges_unfinished_to_wall() {
        let spans = vec![
            span(0, 0.0, 2.0),
            ThreadSpan {
                app: 1,
                spawned_at: 4.0,
                finished_at: None,
            },
        ];
        // Finished: 2.0; unfinished: 10 − 4 = 6.0.
        assert!((mean_sojourn(&spans, 10.0) - 4.0).abs() < 1e-12);
        assert_eq!(mean_sojourn(&[], 10.0), 0.0);
    }
}
