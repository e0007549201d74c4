//! Strongly-typed identifiers for the simulated machine.
//!
//! All entities in the simulator are addressed by small integer handles. The
//! newtypes here prevent the classic off-by-one-kind bug (indexing the thread
//! table with a core id and vice versa) at zero runtime cost.

use std::fmt;

/// Identifier of a *virtual* core (an SMT hardware thread context).
///
/// Virtual cores are numbered densely from `0..topology.num_vcores()`.
/// Two virtual cores may share one physical core; see
/// [`crate::topology::Topology::physical_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VCoreId(pub u32);

/// Identifier of a *physical* core (a pipeline shared by its SMT siblings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PCoreId(pub u32);

/// Identifier of a simulated software thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Identifier of an application (a group of threads whose mutual finish-time
/// dispersion defines the fairness metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// Identifier of a barrier group (threads that synchronise with each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// Identifier of a NUMA domain: one memory controller plus the physical cores
/// it is local to. The paper machine has a single domain; the scaled machines
/// have 4 or 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u32);

impl VCoreId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PCoreId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ThreadId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AppId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DomainId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VCoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcore{}", self.0)
    }
}

impl fmt::Display for PCoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcore{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// The longest span, in milliseconds, that any bounded duration a run is
/// configured with may name: a fleet's deadline, epoch and arrival
/// horizon, a brownout stall, a per-thread stall. Two such spans end
/// before `2 · MAX_SPAN_MS` milliseconds, which in microseconds still fits
/// the `u64` of a [`SimTime`] (about 292,000 years): an epoch that starts
/// inside the deadline ends inside a `SimTime`, and so does a stall that
/// starts inside it.
pub const MAX_SPAN_MS: u64 = u64::MAX / 2_000;

/// Simulated time, kept in integer microseconds for exact quantum arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from seconds (rounded down to the microsecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1e6) as u64)
    }

    /// The value in microseconds.
    #[inline]
    pub fn as_us(self) -> u64 {
        self.0
    }

    /// The value in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The value in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_round_trip() {
        assert_eq!(SimTime::from_ms(5).as_us(), 5_000);
        assert_eq!(SimTime::from_us(1_500).as_ms_f64(), 1.5);
        assert_eq!(SimTime::from_secs_f64(0.25).as_us(), 250_000);
        assert!((SimTime::from_ms(2_000).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ms(10);
        let b = SimTime::from_ms(3);
        assert_eq!((a + b).as_us(), 13_000);
        assert_eq!((a - b).as_us(), 7_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_us(), 13_000);
    }

    #[test]
    fn ids_display_and_index() {
        assert_eq!(VCoreId(3).to_string(), "vcore3");
        assert_eq!(PCoreId(1).to_string(), "pcore1");
        assert_eq!(ThreadId(9).to_string(), "t9");
        assert_eq!(AppId(2).to_string(), "app2");
        assert_eq!(DomainId(7).to_string(), "dom7");
        assert_eq!(ThreadId(9).index(), 9);
        assert_eq!(VCoreId(4).index(), 4);
        assert_eq!(PCoreId(4).index(), 4);
        assert_eq!(AppId(4).index(), 4);
        assert_eq!(DomainId(4).index(), 4);
    }

    #[test]
    fn ids_order_by_numeric_value() {
        assert!(ThreadId(2) < ThreadId(10));
        assert!(VCoreId(0) < VCoreId(1));
    }
}
