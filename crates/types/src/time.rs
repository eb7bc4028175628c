//! Simulated time.
//!
//! The whole platform runs against a discrete-event clock, so control-loop
//! cadences (30 s sync rounds, 60 s heartbeats, 30 min rebalances) are
//! expressed in [`Duration`] and instants in [`SimTime`]. Millisecond
//! resolution is enough for every cadence in the paper while keeping
//! arithmetic in plain `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time with millisecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

crate::snap_struct!(Duration(millis));

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        Duration(h * 3_600_000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        Duration(d * 86_400_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1_000.0).round() as u64)
    }

    /// Length in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in whole minutes, rounded down.
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, factor: u64) -> Self {
        Duration(self.0 * factor)
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= 3_600_000 {
            write!(f, "{:.2}h", ms as f64 / 3_600_000.0)
        } else if ms >= 60_000 {
            write!(f, "{:.2}m", ms as f64 / 60_000.0)
        } else if ms >= 1_000 {
            write!(f, "{:.2}s", ms as f64 / 1_000.0)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

/// An instant on the simulated clock (milliseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

crate::snap_struct!(SimTime(millis));

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Fractional days since the epoch.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400_000.0
    }

    /// Span elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Position within the simulated day, as a duration since midnight.
    /// Used by the Pattern Analyzer to align per-minute workload history
    /// across days.
    pub fn time_of_day(self) -> Duration {
        Duration(self.0 % 86_400_000)
    }

    /// Minute-of-day index in `0..1440`, the granularity at which the
    /// paper's historical workload patterns are recorded.
    pub fn minute_of_day(self) -> usize {
        ((self.0 / 60_000) % 1_440) as usize
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(60), Duration::from_mins(1));
        assert_eq!(Duration::from_mins(60), Duration::from_hours(1));
        assert_eq!(Duration::from_hours(24), Duration::from_days(1));
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1500));
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::ZERO + Duration::from_mins(5);
        assert_eq!(t.as_millis(), 300_000);
        assert_eq!(t.since(SimTime::ZERO), Duration::from_mins(5));
        // `since` saturates rather than underflowing.
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO);
        assert_eq!(t - Duration::from_mins(10), SimTime::ZERO);
    }

    #[test]
    fn minute_of_day_wraps_across_days() {
        let t = SimTime::ZERO + Duration::from_days(2) + Duration::from_mins(61);
        assert_eq!(t.minute_of_day(), 61);
        assert_eq!(t.time_of_day(), Duration::from_mins(61));
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(Duration::from_millis(5).to_string(), "5ms");
        assert_eq!(Duration::from_secs(30).to_string(), "30.00s");
        assert_eq!(Duration::from_mins(90).to_string(), "1.50h");
        assert_eq!(
            (SimTime::ZERO + Duration::from_secs(2)).to_string(),
            "t+2.00s"
        );
    }
}
