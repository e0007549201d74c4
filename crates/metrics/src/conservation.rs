//! Arrival-conservation accounting for fault-tolerant fleets.
//!
//! A dispatcher that survives machine loss must never *silently* drop
//! work: every dispatched thread is either drained (finished on some
//! machine), still in flight (admitted-but-unfinished, queued on a
//! machine, or awaiting re-dispatch), or explicitly counted as lost
//! (retry budget exhausted, or routed into a dead machine by a
//! health-blind dispatcher). [`ConservationLedger`] is that balance
//! sheet; `dispatched = drained + in_flight + lost` is the invariant the
//! fleet tests assert at every swept fault level.

use dike_util::json_struct;

/// The thread-count balance sheet of one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationLedger {
    /// Threads routed by the dispatcher (every offered arrival is routed
    /// exactly once; re-dispatch after a crash does not double-count).
    pub dispatched: u64,
    /// Threads that finished on some machine.
    pub drained: u64,
    /// Threads admitted but unfinished at run end, still queued on a
    /// machine, or orphaned and awaiting re-dispatch.
    pub in_flight: u64,
    /// Threads explicitly given up on — never silently dropped.
    pub lost: u64,
}

json_struct!(ConservationLedger {
    dispatched,
    drained,
    in_flight,
    lost,
});

impl ConservationLedger {
    /// Whether the books balance: `dispatched = drained + in_flight + lost`.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.dispatched == self.drained + self.in_flight + self.lost
    }

    /// Panic with the full ledger when the books do not balance (the
    /// assertion form the fleet's tests and the soak gate use).
    pub fn assert_holds(&self, context: &str) {
        assert!(
            self.holds(),
            "conservation violated ({context}): dispatched {} != drained {} + in_flight {} + lost {}",
            self.dispatched,
            self.drained,
            self.in_flight,
            self.lost
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::json::{self, ToJson};

    #[test]
    fn ledger_balance_and_round_trip() {
        let ok = ConservationLedger {
            dispatched: 10,
            drained: 6,
            in_flight: 3,
            lost: 1,
        };
        assert!(ok.holds());
        ok.assert_holds("test");
        let bad = ConservationLedger { drained: 5, ..ok };
        assert!(!bad.holds());
        let s = json::to_string(&ok);
        assert_eq!(json::parse(&s).expect("parse"), ok.to_json_value());
    }

    #[test]
    #[should_panic(expected = "conservation violated")]
    fn assert_holds_panics_on_imbalance() {
        ConservationLedger {
            dispatched: 2,
            ..ConservationLedger::default()
        }
        .assert_holds("unit");
    }
}
