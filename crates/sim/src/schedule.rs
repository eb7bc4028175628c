//! Periodic schedules for control-loop cadences.
//!
//! Each Turbine component runs on its own cadence (State Syncer every 30 s,
//! Task Manager refresh every 60 s, load report every 10 min, rebalance
//! every 30 min). [`Periodic`] tracks one such cadence: given "now", it
//! reports whether the component is due and computes the next firing time.

use turbine_types::{Duration, SimTime};

/// A fixed-interval schedule with an optional phase offset.
///
/// Phase offsets stagger components that share a cadence so that, like in
/// production, they do not all fire on the same instant.
#[derive(Debug, Clone, Copy)]
pub struct Periodic {
    interval: Duration,
    next_due: SimTime,
}

impl Periodic {
    /// A schedule firing every `interval`, first at `phase`.
    pub fn with_phase(interval: Duration, phase: Duration) -> Self {
        assert!(!interval.is_zero(), "periodic interval must be positive");
        Periodic {
            interval,
            next_due: SimTime::ZERO + phase,
        }
    }

    /// A schedule firing every `interval`, first at one full interval.
    pub fn every(interval: Duration) -> Self {
        Periodic::with_phase(interval, interval)
    }

    /// The cadence.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Next time this schedule fires.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// If due at `now`, advance to the next slot and return true. Skips
    /// missed slots rather than firing repeatedly to catch up — a control
    /// loop that was stalled should run once, not N times (this mirrors how
    /// the State Syncer reschedules failed rounds rather than replaying
    /// them).
    pub fn fire_if_due(&mut self, now: SimTime) -> bool {
        if now < self.next_due {
            return false;
        }
        // Advance past `now` in whole intervals.
        let behind = now.since(self.next_due).as_millis();
        let intervals = behind / self.interval.as_millis() + 1;
        self.next_due += Duration::from_millis(intervals * self.interval.as_millis());
        true
    }

    /// Reset the schedule to fire next at `now + interval`.
    pub fn reset(&mut self, now: SimTime) {
        self.next_due = now + self.interval;
    }
}

turbine_types::snap_struct!(Periodic { interval, next_due }
    check |p| !p.interval.is_zero() => "Periodic.interval zero");

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn fires_once_per_interval() {
        let mut p = Periodic::every(Duration::from_secs(30));
        assert!(!p.fire_if_due(t(29)));
        assert!(p.fire_if_due(t(30)));
        assert!(!p.fire_if_due(t(31)));
        assert!(p.fire_if_due(t(60)));
    }

    #[test]
    fn missed_slots_collapse_into_one_firing() {
        let mut p = Periodic::every(Duration::from_secs(30));
        // Stall for five intervals: one firing, then the schedule resumes.
        assert!(p.fire_if_due(t(170)));
        assert!(!p.fire_if_due(t(179)));
        assert_eq!(p.next_due(), t(180));
    }

    #[test]
    fn phase_offsets_stagger_start() {
        let mut p = Periodic::with_phase(Duration::from_secs(60), Duration::from_secs(15));
        assert!(p.fire_if_due(t(15)));
        assert_eq!(p.next_due(), t(75));
    }

    #[test]
    fn zero_phase_fires_at_time_zero() {
        let mut p = Periodic::with_phase(Duration::from_secs(10), Duration::ZERO);
        assert!(p.fire_if_due(SimTime::ZERO));
        assert_eq!(p.next_due(), t(10));
    }

    #[test]
    fn reset_pushes_next_firing_out() {
        let mut p = Periodic::every(Duration::from_secs(30));
        p.reset(t(100));
        assert!(!p.fire_if_due(t(120)));
        assert!(p.fire_if_due(t(130)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_is_rejected() {
        let _ = Periodic::every(Duration::ZERO);
    }
}
