//! Simulation time, measured in host clock cycles.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, in host cycles since simulation start.
///
/// Stored as `f64` because offload costs (`Cb·g/A`) are fractional;
/// ordering uses total ordering and construction rejects NaN.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is NaN or negative.
    #[must_use]
    pub fn new(cycles: f64) -> Self {
        assert!(
            !cycles.is_nan() && cycles >= 0.0,
            "invalid sim time {cycles}"
        );
        Self(cycles)
    }

    /// Constructs a time point from a value already known to be valid
    /// (non-NaN, non-negative), checking only in debug builds.
    ///
    /// The engine's event loop performs millions of time constructions
    /// per run from values whose invariants are established once — at
    /// configuration validation and at heap-key packing — so the release
    /// build skips the per-operation assert.
    #[inline]
    #[must_use]
    pub(crate) fn from_valid(cycles: f64) -> Self {
        debug_assert!(
            !cycles.is_nan() && cycles >= 0.0,
            "invalid sim time {cycles}"
        );
        Self(cycles)
    }

    /// The raw cycle count.
    #[must_use]
    pub fn cycles(self) -> f64 {
        self.0
    }

    /// The later of two time points.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    /// Advances the time point by `rhs` cycles.
    ///
    /// All engine-side durations are validated non-negative up front
    /// (`SimConfig::validate`), so the sum cannot leave the valid range;
    /// the check runs in debug builds only. [`SimTime::new`] remains the
    /// asserting entry point for unvalidated values.
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_valid(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    /// Elapsed cycles between two time points.
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::new(100.0);
        let b = a + 50.0;
        assert!(b > a);
        assert_eq!(b - a, 50.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::ZERO.cycles(), 0.0);
        let mut c = a;
        c += 1.0;
        assert_eq!(c.cycles(), 101.0);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn rejects_nan() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn rejects_negative() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::new(42.4).to_string(), "42 cyc");
    }
}
