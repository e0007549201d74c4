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

json_struct!(ThreadSpan {
    app,
    spawned_at,
    finished_at,
});
json_struct!(WindowPoint {
    end_s,
    fairness,
    mean_sojourn_s,
    departures,
});

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
pub fn windowed_fairness(
    spans: &[ThreadSpan],
    window_s: f64,
    step_s: f64,
    horizon_s: f64,
) -> Vec<WindowPoint> {
    assert!(window_s > 0.0, "window length must be > 0");
    assert!(step_s > 0.0, "window step must be > 0");
    let mut points = Vec::new();
    let mut end = window_s;
    loop {
        let start = end - window_s;
        // Group the window's departures by app. BTreeMap keeps app order
        // deterministic regardless of span order.
        let mut per_app: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in spans {
            if let Some(f) = s.finished_at {
                if f >= start && f < end {
                    per_app.entry(s.app).or_default().push(f - s.spawned_at);
                }
            }
        }
        let sojourns: Vec<f64> = per_app.values().flatten().copied().collect();
        let departures = sojourns.len() as u64;
        points.push(WindowPoint {
            end_s: end,
            fairness: RuntimeMatrix::new(per_app.into_values().collect()).fairness(),
            mean_sojourn_s: if sojourns.is_empty() {
                0.0
            } else {
                mean(&sojourns)
            },
            departures,
        });
        if end >= horizon_s {
            break;
        }
        end += step_s;
    }
    points
}

/// Deterministically flatten per-machine span lists into one fleet-wide
/// set: machine order first, span order within a machine second. This is
/// the roll-up input order for fleet-level [`windowed_fairness`] — a pure
/// function of the per-machine results, so the fleet metric is as
/// thread-count-invariant as the runs that produced it. With one machine
/// the merge is the identity, which is what makes the M=1 fleet roll-up
/// equal the single-machine value exactly.
pub fn merge_spans(per_machine: &[Vec<ThreadSpan>]) -> Vec<ThreadSpan> {
    let total = per_machine.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for spans in per_machine {
        merged.extend_from_slice(spans);
    }
    merged
}

/// `(mean, min)` fairness over a window series — the two scalars every
/// open-system table reports. An empty series is vacuously fair:
/// `(1.0, 1.0)`.
pub fn fairness_summary(windows: &[WindowPoint]) -> (f64, f64) {
    if windows.is_empty() {
        return (1.0, 1.0);
    }
    let fair: Vec<f64> = windows.iter().map(|w| w.fairness).collect();
    let min = fair.iter().copied().fold(f64::INFINITY, f64::min);
    (mean(&fair), min)
}

/// Mean sojourn time over all spans, charging unfinished threads up to
/// `wall` — the open-system headline performance number (lower is
/// better). Returns 0 for an empty span set.
pub fn mean_sojourn(spans: &[ThreadSpan], wall: f64) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    let total: f64 = spans.iter().map(|s| s.sojourn(wall)).sum();
    total / spans.len() as f64
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
/// of apps at or beyond `n_apps` are ignored.
pub fn sojourn_by_app(spans: &[ThreadSpan], n_apps: usize, wall: f64) -> Vec<SojournTotals> {
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
    fn merge_spans_keeps_machine_then_span_order_and_m1_is_identity() {
        let m0 = vec![span(0, 0.0, 1.0), span(1, 0.5, 2.0)];
        let m1 = vec![span(0, 0.2, 1.4)];
        let merged = merge_spans(&[m0.clone(), m1.clone()]);
        assert_eq!(merged, vec![m0[0], m0[1], m1[0]]);
        // One machine: the roll-up input is exactly the machine's spans,
        // so every downstream metric matches the single-machine value.
        assert_eq!(merge_spans(std::slice::from_ref(&m0)), m0);
        assert_eq!(merge_spans(&[]), Vec::<ThreadSpan>::new());
    }

    #[test]
    fn fairness_summary_reduces_mean_and_min() {
        let spans = vec![span(0, 0.0, 1.0), span(0, 0.0, 3.9)];
        let windows = windowed_fairness(&spans, 2.0, 2.0, 4.0);
        let (mean_f, min_f) = fairness_summary(&windows);
        assert!(min_f <= mean_f);
        assert!(mean_f <= 1.0);
        assert_eq!(fairness_summary(&[]), (1.0, 1.0));
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
