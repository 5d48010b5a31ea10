//! Simulation clock types.
//!
//! The engine measures time in seconds stored as `f64`. Two newtypes keep
//! instants and durations from being mixed up and provide the total ordering
//! the event queue needs (`NaN` is rejected at construction).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in seconds since simulation start.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always finite and non-negative.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds. Panics on NaN or negative values.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The event-queue key of this instant: its bit pattern, with `-0.0`
    /// folded onto `+0.0`. For the finite non-negative values a `SimTime`
    /// holds, integer order on these bits is numeric order.
    pub(crate) fn to_key(self) -> u64 {
        (self.0 + 0.0).to_bits()
    }

    /// The instant whose [`to_key`](Self::to_key) is `key`.
    pub(crate) fn from_key(key: u64) -> Self {
        SimTime(f64::from_bits(key))
    }

    /// The duration elapsed since `earlier`. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// Saturating difference: zero when `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds. Panics on NaN, infinity, or negatives.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration: {secs}"
        );
        SimDuration(secs)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Difference clamped at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration((self.0 - other.0).max(0.0))
    }
}

impl Eq for SimTime {}
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Constructors reject NaN, so a total order exists.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}
impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}
impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!((t - SimTime::from_secs(10.0)).as_secs(), 5.0);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_secs(1.0);
        let late = SimTime::from_secs(4.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_secs(), 3.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid SimDuration")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_secs(1.0);
        let b = SimDuration::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        let ta = SimTime::from_secs(1.0);
        let tb = SimTime::from_secs(2.0);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
