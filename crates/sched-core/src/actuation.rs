//! Swap actuation verification: confirm, retry with backoff, fall back.
//!
//! A policy that calls `sched_setaffinity` has no guarantee the move
//! happens — the syscall can race with the balancer, the runqueue hop can
//! be deferred, or (in this simulator's fault model) the migration is
//! silently dropped or lands quanta late. [`SwapPlanner`] closes that
//! loop: every requested swap is tracked, the next quantum's view is
//! checked against the intended placement, and an unconfirmed swap is
//! re-issued with exponential backoff up to a retry budget. A swap that
//! exhausts its budget is abandoned and both members enter a *fallback*
//! window during which the policy should leave them to the substrate's
//! CFS-like placement instead of issuing further pair swaps.
//!
//! [`SwapPlanner::verify`] returns an [`ActuationReport`] marked
//! `#[must_use]`: a scheduler that requests swaps but ignores whether they
//! landed is exactly the failure mode this module exists to prevent, so
//! dropping the report on the floor fails `cargo clippy -D warnings`.
//!
//! [`PartitionPlanner`] is the same closed loop for the second actuator:
//! an LLC way-partitioning request (`resctrl` writes fail and race too)
//! is verified against [`SystemView::partition_epoch`], re-issued with
//! the same exponential backoff, and after the budget is exhausted the
//! policy holds off partitioning for a fallback window.

use crate::view::{Actions, SystemView};
use dike_machine::{PartitionPlan, ThreadId, VCoreId};

/// A swap whose landing has not been confirmed yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingSwap {
    /// First member: (thread, core it must end up on).
    a: (ThreadId, VCoreId),
    /// Second member.
    b: (ThreadId, VCoreId),
    /// Re-issues so far (0 = the original request).
    attempts: u32,
    /// Quantum counter at which the next verification acts; between
    /// checks the swap is left alone to let a late landing arrive.
    next_check: u64,
}

/// What [`SwapPlanner::verify`] did this quantum.
///
/// Ignoring this report means ignoring actuation failures — the swap the
/// policy reasoned about may never have happened — hence `#[must_use]`.
#[must_use = "ignoring the report means ignoring failed swap actuations; check or fold it into policy stats"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActuationReport {
    /// Swaps confirmed landed since the last call.
    pub confirmed: u32,
    /// Swaps re-issued (a retry consumes one attempt and re-requests only
    /// the members not yet in place).
    pub retried: u32,
    /// Swaps that exhausted the retry budget; their members are now in
    /// the fallback window.
    pub abandoned: u32,
}

/// Tracks requested swaps until they are confirmed, retried out, or
/// abandoned. All bookkeeping is in quantum-counter units, so the planner
/// is agnostic to quantum-length changes mid-run.
#[derive(Debug, Clone)]
pub struct SwapPlanner {
    /// Re-issues allowed per swap before abandoning it.
    retry_budget: u32,
    /// Quanta a member of an abandoned swap stays in fallback.
    fallback_quanta: u64,
    pending: Vec<PendingSwap>,
    /// Threads under fallback: (thread, quantum counter the window ends).
    fallback: Vec<(ThreadId, u64)>,
}

impl SwapPlanner {
    /// A planner with the given retry budget and fallback window.
    pub fn new(retry_budget: u32, fallback_quanta: u64) -> Self {
        SwapPlanner {
            retry_budget,
            fallback_quanta,
            pending: Vec::new(),
            fallback: Vec::new(),
        }
    }

    /// Record a swap requested at quantum `now_q`: `a.0` must land on
    /// `b.1` and `b.0` on `a.1` (mirroring [`Actions::swap`]). Verified
    /// from the next quantum on.
    pub fn track(&mut self, a: (ThreadId, VCoreId), b: (ThreadId, VCoreId), now_q: u64) {
        self.pending.push(PendingSwap {
            a: (a.0, b.1),
            b: (b.0, a.1),
            attempts: 0,
            next_check: now_q + 1,
        });
    }

    /// True while `thread` is inside a fallback window: the policy should
    /// not propose new swaps involving it and leave placement to the
    /// substrate.
    pub fn in_fallback(&self, thread: ThreadId, now_q: u64) -> bool {
        self.fallback
            .iter()
            .any(|&(t, until)| t == thread && now_q < until)
    }

    /// Check every tracked swap against the current view, re-issuing
    /// unconfirmed ones (into `actions`) with exponential backoff and
    /// abandoning those past the retry budget. Call once per quantum,
    /// before deciding new swaps.
    pub fn verify(
        &mut self,
        view: &SystemView,
        actions: &mut Actions,
        now_q: u64,
    ) -> ActuationReport {
        self.fallback.retain(|&(_, until)| now_q < until);
        let mut report = ActuationReport::default();
        let retry_budget = self.retry_budget;
        let fallback_quanta = self.fallback_quanta;
        let fallback = &mut self.fallback;
        self.pending.retain_mut(|p| {
            // A departed member makes the swap moot; drop it silently
            // (finishing is success, not an actuation failure).
            if view.departed.contains(&p.a.0) || view.departed.contains(&p.b.0) {
                return false;
            }
            let placed =
                |(t, target): (ThreadId, VCoreId)| view.thread(t).map(|o| o.vcore == target);
            match (placed(p.a), placed(p.b)) {
                (Some(true), Some(true)) => {
                    report.confirmed += 1;
                    false
                }
                // A member absent from the view without having departed is
                // a telemetry dropout: its placement is unobservable this
                // quantum, so hold the swap without consuming an attempt.
                (None, _) | (_, None) => true,
                _ => {
                    if now_q < p.next_check {
                        return true;
                    }
                    if p.attempts >= retry_budget {
                        report.abandoned += 1;
                        let until = now_q + fallback_quanta;
                        fallback.push((p.a.0, until));
                        fallback.push((p.b.0, until));
                        return false;
                    }
                    p.attempts += 1;
                    // Exponential backoff: re-check 2^attempts quanta out,
                    // leaving room for a delayed landing to arrive.
                    p.next_check = now_q + (1u64 << p.attempts.min(16));
                    for m in [p.a, p.b] {
                        if placed(m) == Some(false) {
                            actions.migrate(m.0, m.1);
                        }
                    }
                    report.retried += 1;
                    true
                }
            }
        });
        report
    }
}

/// A partition request whose application has not been confirmed yet.
#[derive(Debug, Clone, PartialEq)]
struct PendingPartition {
    plan: PartitionPlan,
    /// The machine's partition epoch when the request was issued; the
    /// request is confirmed once a view reports a later epoch.
    epoch_at_issue: u64,
    attempts: u32,
    next_check: u64,
}

/// Tracks the outstanding LLC way-partitioning request until it is
/// confirmed, retried out, or abandoned — [`SwapPlanner`]'s counterpart
/// for the second actuator. The machine holds exactly one plan at a time
/// (a new application replaces the old wholesale), so the planner tracks
/// at most one request: tracking a new plan supersedes the old pending
/// one. Verification is epoch-based — a request is confirmed when
/// [`SystemView::partition_epoch`] advances past the value observed at
/// issue time — because a plan's *effect* (per-cluster contention) is not
/// directly observable the way a migration's placement is.
#[derive(Debug, Clone)]
pub struct PartitionPlanner {
    /// Re-issues allowed before abandoning a request.
    retry_budget: u32,
    /// Quanta the policy should refrain from partitioning after an
    /// abandoned request.
    fallback_quanta: u64,
    pending: Option<PendingPartition>,
    /// Quantum counter at which the current fallback window ends.
    fallback_until: u64,
}

impl PartitionPlanner {
    /// A planner with the given retry budget and fallback window.
    pub fn new(retry_budget: u32, fallback_quanta: u64) -> Self {
        PartitionPlanner {
            retry_budget,
            fallback_quanta,
            pending: None,
            fallback_until: 0,
        }
    }

    /// Record a plan requested at quantum `now_q`, with the partition
    /// epoch the issuing view reported. Supersedes any pending request
    /// (the machine would apply only the newest plan anyway). Verified
    /// from the next quantum on.
    pub fn track(&mut self, plan: PartitionPlan, epoch_at_issue: u64, now_q: u64) {
        self.pending = Some(PendingPartition {
            plan,
            epoch_at_issue,
            attempts: 0,
            next_check: now_q + 1,
        });
    }

    /// True while the policy should not issue new partition plans and
    /// leave the cache to its current (possibly substrate) configuration.
    pub fn in_fallback(&self, now_q: u64) -> bool {
        now_q < self.fallback_until
    }

    /// Check the outstanding request against the current view's partition
    /// epoch, re-issuing an unconfirmed one (into `actions`) with
    /// exponential backoff and abandoning it past the retry budget. Call
    /// once per quantum, before deciding a new plan.
    pub fn verify(
        &mut self,
        view: &SystemView,
        actions: &mut Actions,
        now_q: u64,
    ) -> ActuationReport {
        let mut report = ActuationReport::default();
        let Some(p) = &mut self.pending else {
            return report;
        };
        if view.partition_epoch > p.epoch_at_issue {
            report.confirmed += 1;
            self.pending = None;
        } else if now_q >= p.next_check {
            if p.attempts >= self.retry_budget {
                report.abandoned += 1;
                self.fallback_until = now_q + self.fallback_quanta;
                self.pending = None;
            } else {
                p.attempts += 1;
                // Exponential backoff, like swap retries: leave room for a
                // delayed application to land before re-issuing again.
                p.next_check = now_q + (1u64 << p.attempts.min(16));
                p.epoch_at_issue = view.partition_epoch;
                actions.partition = Some(p.plan.clone());
                report.retried += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ThreadObservation;
    use dike_counters::RateSample;
    use dike_machine::{AppId, SimTime, ThreadCounters};

    /// A view with the given (thread, vcore) placements and departures.
    fn view(placements: &[(u32, u32)], departed: &[u32], q: u64) -> SystemView {
        SystemView {
            now: SimTime::from_ms(q * 100),
            quantum: SimTime::from_ms(100),
            quantum_index: q,
            threads: placements
                .iter()
                .map(|&(t, v)| ThreadObservation {
                    id: ThreadId(t),
                    app: AppId(0),
                    vcore: VCoreId(v),
                    rates: RateSample::default(),
                    cumulative: ThreadCounters::default(),
                    migrated_last_quantum: false,
                    llc_occupancy_mib: 0.0,
                })
                .collect(),
            departed: departed.iter().map(|&t| ThreadId(t)).collect(),
            ..SystemView::default()
        }
    }

    fn track_swap(p: &mut SwapPlanner, q: u64) {
        // Thread 0 on core 0 and thread 1 on core 4 swap places.
        p.track((ThreadId(0), VCoreId(0)), (ThreadId(1), VCoreId(4)), q);
    }

    #[test]
    fn landed_swap_is_confirmed_and_dropped() {
        let mut p = SwapPlanner::new(3, 8);
        track_swap(&mut p, 0);
        assert_eq!(p.pending.len(), 1);
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 4), (1, 0)], &[], 1), &mut a, 1);
        assert_eq!(r.confirmed, 1);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert!(a.is_empty());
        assert_eq!(p.pending.len(), 0);
    }

    #[test]
    fn unconfirmed_swap_retries_with_exponential_backoff() {
        let mut p = SwapPlanner::new(3, 8);
        track_swap(&mut p, 0);
        // Neither member moved: retry #1 re-issues both migrations.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 0), (1, 4)], &[], 1), &mut a, 1);
        assert_eq!((r.confirmed, r.retried, r.abandoned), (0, 1, 0));
        assert_eq!(
            a.migrations,
            vec![(ThreadId(0), VCoreId(4)), (ThreadId(1), VCoreId(0))]
        );
        // Backoff: quanta 2 (= 1 + 2^1 - 1) is inside the wait window, so
        // nothing is re-issued even though the swap is still not placed.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 0), (1, 4)], &[], 2), &mut a, 2);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert!(a.is_empty());
        // At quanta 3 the window has elapsed: retry #2 fires, and only the
        // member still out of place is re-issued.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 4), (1, 4)], &[], 3), &mut a, 3);
        assert_eq!(r.retried, 1);
        assert_eq!(a.migrations, vec![(ThreadId(1), VCoreId(0))]);
    }

    #[test]
    fn exhausted_budget_abandons_and_enters_fallback() {
        let mut p = SwapPlanner::new(1, 8);
        track_swap(&mut p, 0);
        let stuck = |q| view(&[(0, 0), (1, 4)], &[], q);
        let mut a = Actions::default();
        let r = p.verify(&stuck(1), &mut a, 1);
        assert_eq!(r.retried, 1);
        // Next acting check is at 1 + 2^1 = 3; budget (1) is now spent.
        let mut a = Actions::default();
        let r = p.verify(&stuck(3), &mut a, 3);
        assert_eq!((r.retried, r.abandoned), (0, 1));
        assert!(a.is_empty(), "an abandoned swap must not re-issue");
        assert_eq!(p.pending.len(), 0);
        // Both members are in fallback for `fallback_quanta` quanta.
        assert!(p.in_fallback(ThreadId(0), 3));
        assert!(p.in_fallback(ThreadId(1), 10));
        assert!(!p.in_fallback(ThreadId(1), 11));
        assert!(!p.in_fallback(ThreadId(2), 3));
        // The window expires on the next verify past its end.
        let mut a = Actions::default();
        let _ = p.verify(&stuck(12), &mut a, 12);
        assert!(!p.in_fallback(ThreadId(0), 12));
    }

    #[test]
    fn departed_member_drops_the_swap_without_fallback() {
        let mut p = SwapPlanner::new(3, 8);
        track_swap(&mut p, 0);
        let mut a = Actions::default();
        let r = p.verify(&view(&[(1, 4)], &[0], 1), &mut a, 1);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert_eq!(r.confirmed, 0);
        assert_eq!(p.pending.len(), 0);
        assert!(!p.in_fallback(ThreadId(1), 1));
    }

    #[test]
    fn dropout_member_holds_the_swap_without_consuming_attempts() {
        let mut p = SwapPlanner::new(3, 8);
        track_swap(&mut p, 0);
        // Thread 0 is absent from the view but not departed (telemetry
        // dropout): the swap is held, no retry is issued.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(1, 4)], &[], 1), &mut a, 1);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert!(a.is_empty());
        assert_eq!(p.pending.len(), 1);
        // Once observable and landed, it confirms normally.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 4), (1, 0)], &[], 2), &mut a, 2);
        assert_eq!(r.confirmed, 1);
    }

    /// A view that only carries a partition epoch (all the partition
    /// planner reads).
    fn epoch_view(epoch: u64, q: u64) -> SystemView {
        SystemView {
            quantum_index: q,
            partition_epoch: epoch,
            ..SystemView::default()
        }
    }

    fn small_plan() -> PartitionPlan {
        PartitionPlan {
            cluster_ways: vec![2],
            assignments: vec![(ThreadId(0), 0)],
        }
    }

    #[test]
    fn partition_confirmed_on_epoch_advance() {
        let mut p = PartitionPlanner::new(3, 8);
        p.track(small_plan(), 0, 0);
        assert!(p.pending.is_some());
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(1, 1), &mut a, 1);
        assert_eq!(r.confirmed, 1);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert!(a.is_empty());
        assert!(p.pending.is_none());
    }

    #[test]
    fn stuck_partition_retries_with_backoff_then_abandons() {
        let mut p = PartitionPlanner::new(1, 8);
        p.track(small_plan(), 0, 0);
        // Epoch never advances: retry #1 re-issues the plan.
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(0, 1), &mut a, 1);
        assert_eq!((r.confirmed, r.retried, r.abandoned), (0, 1, 0));
        assert_eq!(a.partition.as_ref(), Some(&small_plan()));
        // Inside the backoff window nothing happens.
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(0, 2), &mut a, 2);
        assert_eq!((r.retried, r.abandoned), (0, 0));
        assert!(a.is_empty());
        // Past the window with the budget spent: abandoned + fallback.
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(0, 3), &mut a, 3);
        assert_eq!((r.retried, r.abandoned), (0, 1));
        assert!(a.is_empty(), "an abandoned request must not re-issue");
        assert!(p.pending.is_none());
        assert!(p.in_fallback(3));
        assert!(p.in_fallback(10));
        assert!(!p.in_fallback(11));
    }

    #[test]
    fn late_partition_application_confirms_instead_of_reissuing() {
        let mut p = PartitionPlanner::new(3, 8);
        p.track(small_plan(), 4, 0);
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(4, 1), &mut a, 1);
        assert_eq!(r.retried, 1);
        // The delayed application lands during the backoff window.
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(5, 2), &mut a, 2);
        assert_eq!(r.confirmed, 1);
        assert!(a.is_empty());
    }

    #[test]
    fn newer_plan_supersedes_pending_request() {
        let mut p = PartitionPlanner::new(3, 8);
        p.track(small_plan(), 0, 0);
        let newer = PartitionPlan {
            cluster_ways: vec![8],
            assignments: vec![],
        };
        p.track(newer.clone(), 0, 1);
        let mut a = Actions::default();
        let r = p.verify(&epoch_view(0, 2), &mut a, 2);
        assert_eq!(r.retried, 1);
        assert_eq!(a.partition.as_ref(), Some(&newer));
    }

    #[test]
    fn late_landing_is_confirmed_not_reissued() {
        // A delayed migration lands during the backoff window; the next
        // verify confirms instead of re-issuing — the no-double-apply
        // property at the planner level.
        let mut p = SwapPlanner::new(3, 8);
        track_swap(&mut p, 0);
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 0), (1, 4)], &[], 1), &mut a, 1);
        assert_eq!(r.retried, 1);
        // The swap lands late, inside the backoff window.
        let mut a = Actions::default();
        let r = p.verify(&view(&[(0, 4), (1, 0)], &[], 2), &mut a, 2);
        assert_eq!(r.confirmed, 1);
        assert!(a.is_empty());
        assert_eq!(p.pending.len(), 0);
    }
}
