//! Deterministic traffic models.
//!
//! A [`TrafficModel`] maps simulated time to an input rate (bytes/sec).
//! The function is *pure* — noise is derived by hashing the time bucket
//! with the model's seed — so that any component can query the rate at any
//! time and always observe the same workload, and whole experiments replay
//! bit-for-bit.

use turbine_sim::SimRng;
use turbine_types::{Duration, SimTime};

/// A time-bounded traffic event layered on the base pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEvent {
    /// Event start (inclusive).
    pub start: SimTime,
    /// Event end (exclusive).
    pub end: SimTime,
    /// What happens during the window.
    pub kind: TrafficEventKind,
}

/// Kinds of traffic events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficEventKind {
    /// Multiply traffic by this factor (spikes, storm redirects — e.g.
    /// 1.16 for the paper's +16 % storm).
    Multiplier(f64),
    /// Multiplier that ramps linearly from 1 to `peak` over `ramp_mins`
    /// after the window opens and back down over `ramp_mins` before it
    /// closes — how a datacenter drain actually shifts traffic.
    RampedMultiplier {
        /// Peak multiplication factor.
        peak: f64,
        /// Ramp-up/down time in minutes.
        ramp_mins: u64,
    },
    /// No traffic is *consumed* (application disabled, §VI-B1): input
    /// keeps arriving and accrues as backlog. The platform models this by
    /// stopping the job's processing, not its input.
    ConsumerDisabled,
    /// No traffic arrives (upstream outage).
    InputOutage,
}

/// The last per-minute noise factor drawn for a model (see
/// [`TrafficModel::arrival_rate_memo`]). Derived from the model and the
/// time alone, so it is never state: an empty memo only costs a draw.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseMemo {
    /// `(seed, noise sigma bits, minute)` the factor was drawn for.
    drawn_for: Option<(u64, u64, u64)>,
    factor: f64,
}

/// A deterministic traffic model for one job.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    /// Mean rate at simulation start, bytes/sec.
    pub base_rate: f64,
    /// Fraction of the base rate that swings diurnally (0 = flat,
    /// 0.5 ⇒ ±50 % swing around the base).
    pub diurnal_fraction: f64,
    /// Time of day at which traffic peaks.
    pub peak_time_of_day: Duration,
    /// Log-normal noise sigma applied per minute bucket (0 = none).
    pub noise_sigma: f64,
    /// Exponential growth rate per day (0.0019 ≈ doubling in a year).
    pub growth_per_day: f64,
    /// Scheduled events.
    pub events: Vec<TrafficEvent>,
    /// Seed for the deterministic noise stream.
    pub seed: u64,
}

impl TrafficModel {
    /// A flat, noiseless model — the simplest building block.
    pub fn flat(base_rate: f64) -> Self {
        TrafficModel {
            base_rate,
            diurnal_fraction: 0.0,
            peak_time_of_day: Duration::from_hours(18),
            noise_sigma: 0.0,
            growth_per_day: 0.0,
            events: Vec::new(),
            seed: 0,
        }
    }

    /// A typical production-like diurnal model: ±`diurnal_fraction` swing,
    /// mild noise, given seed.
    pub fn diurnal(base_rate: f64, diurnal_fraction: f64, seed: u64) -> Self {
        TrafficModel {
            base_rate,
            diurnal_fraction,
            peak_time_of_day: Duration::from_hours(18),
            noise_sigma: 0.03,
            growth_per_day: 0.0,
            events: Vec::new(),
            seed,
        }
    }

    /// Add an event window.
    pub fn with_event(mut self, event: TrafficEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Add exponential growth (e.g. `0.0019` doubles over ~365 days).
    pub fn with_growth(mut self, growth_per_day: f64) -> Self {
        self.growth_per_day = growth_per_day;
        self
    }

    /// The *arrival* rate at `at`, bytes/sec. Zero during input outages;
    /// unaffected by `ConsumerDisabled` (data still arrives and backs up).
    pub fn arrival_rate(&self, at: SimTime) -> f64 {
        self.arrival_rate_memo(at, &mut NoiseMemo::default())
    }

    /// [`arrival_rate`](Self::arrival_rate) for a caller that evaluates one
    /// model many times a minute: the minute's noise factor (a seeded
    /// generator and a log-normal draw, most of an evaluation) is kept in
    /// `memo` and drawn again only when the minute or the model's noise
    /// parameters differ from the ones it was drawn for. The value returned
    /// is bit-for-bit the unmemoised one.
    pub fn arrival_rate_memo(&self, at: SimTime, memo: &mut NoiseMemo) -> f64 {
        if self
            .events
            .iter()
            .any(|e| e.start <= at && at < e.end && e.kind == TrafficEventKind::InputOutage)
        {
            return 0.0;
        }
        let mut rate = self.base_rate;
        // Diurnal: cosine peaking at `peak_time_of_day`.
        if self.diurnal_fraction > 0.0 {
            let day_ms = Duration::from_days(1).as_millis() as f64;
            let phase = (at.time_of_day().as_millis() as f64
                - self.peak_time_of_day.as_millis() as f64)
                / day_ms;
            rate *= 1.0 + self.diurnal_fraction * (2.0 * std::f64::consts::PI * phase).cos();
        }
        // Growth trend.
        if self.growth_per_day != 0.0 {
            rate *= (self.growth_per_day * at.as_days_f64()).exp();
        }
        // Deterministic per-minute noise.
        if self.noise_sigma > 0.0 {
            let drawn_for = (
                self.seed,
                self.noise_sigma.to_bits(),
                at.as_millis() / 60_000,
            );
            if memo.drawn_for != Some(drawn_for) {
                let (seed, _, minute) = drawn_for;
                let mut rng = SimRng::seeded(seed ^ minute.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                memo.factor = rng.log_normal(0.0, self.noise_sigma);
                memo.drawn_for = Some(drawn_for);
            }
            rate *= memo.factor;
        }
        // Multiplier events (storms, spikes) stack multiplicatively.
        for e in &self.events {
            if e.start <= at && at < e.end {
                match e.kind {
                    TrafficEventKind::Multiplier(m) => rate *= m,
                    TrafficEventKind::RampedMultiplier { peak, ramp_mins } => {
                        let ramp = Duration::from_mins(ramp_mins).as_millis() as f64;
                        let since_start = at.since(e.start).as_millis() as f64;
                        let until_end = e.end.since(at).as_millis() as f64;
                        let frac = if ramp <= 0.0 {
                            1.0
                        } else {
                            (since_start / ramp).min(until_end / ramp).clamp(0.0, 1.0)
                        };
                        rate *= 1.0 + (peak - 1.0) * frac;
                    }
                    _ => {}
                }
            }
        }
        rate.max(0.0)
    }

    /// True if the model provably delivers zero arrivals at *every*
    /// instant in `(after, through]` — either the base rate is zero (all
    /// modifiers are multiplicative, so nothing can resurrect it) or a
    /// single [`TrafficEventKind::InputOutage`] window covers the whole
    /// interval. Conservative: windows that only jointly cover the
    /// interval report `false`. The platform's event-driven scheduler
    /// uses this to decide whether the clock may jump over the interval.
    pub fn idle_through(&self, after: SimTime, through: SimTime) -> bool {
        if self.base_rate == 0.0 {
            return true;
        }
        // The earliest instant that must be covered is `after + 1 ms`
        // (SimTime has millisecond resolution and the window is open at
        // `after`); the latest is `through`, which needs `through < end`
        // because outage windows are end-exclusive.
        let first = after + Duration::from_millis(1);
        self.events
            .iter()
            .any(|e| e.kind == TrafficEventKind::InputOutage && e.start <= first && through < e.end)
    }

    /// True if neither the arrival rate nor the consumer's status can
    /// differ from their values at `at` before the next event edge after
    /// it: the base rate is zero (nothing can resurrect it), an input
    /// outage is open (it holds the rate at zero until it closes), or the
    /// rate has no diurnal swing, noise or growth and no ramp is open.
    pub fn steady_at(&self, at: SimTime) -> bool {
        let open = |e: &&TrafficEvent| e.start <= at && at < e.end;
        self.base_rate == 0.0
            || self
                .events
                .iter()
                .filter(open)
                .any(|e| e.kind == TrafficEventKind::InputOutage)
            || (self.diurnal_fraction <= 0.0
                && self.noise_sigma <= 0.0
                && self.growth_per_day == 0.0
                && !self
                    .events
                    .iter()
                    .filter(open)
                    .any(|e| matches!(e.kind, TrafficEventKind::RampedMultiplier { .. })))
    }

    /// The first event edge (an event's start or its end) after `at`, if
    /// any: the set of open events holds from `at` until then.
    pub fn next_edge(&self, at: SimTime) -> Option<SimTime> {
        self.events
            .iter()
            .flat_map(|e| [e.start, e.end])
            .filter(|&edge| edge > at)
            .min()
    }

    /// True if the job's consumer is disabled at `at` (the application
    /// outage of Fig. 8: input accrues, nothing processes).
    pub fn consumer_disabled(&self, at: SimTime) -> bool {
        self.events
            .iter()
            .any(|e| e.start <= at && at < e.end && e.kind == TrafficEventKind::ConsumerDisabled)
    }
}

turbine_types::snap_enum!(TrafficEventKind {
    0 => Multiplier(factor),
    1 => RampedMultiplier { peak, ramp_mins },
    2 => ConsumerDisabled,
    3 => InputOutage,
});

turbine_types::snap_struct!(TrafficEvent { start, end, kind });

turbine_types::snap_struct!(TrafficModel {
    base_rate,
    diurnal_fraction,
    peak_time_of_day,
    noise_sigma,
    growth_per_day,
    events,
    seed
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(hours: u64) -> SimTime {
        SimTime::ZERO + Duration::from_hours(hours)
    }

    #[test]
    fn flat_model_is_constant() {
        let m = TrafficModel::flat(1000.0);
        assert_eq!(m.arrival_rate(t(0)), 1000.0);
        assert_eq!(m.arrival_rate(t(100)), 1000.0);
    }

    #[test]
    fn rate_is_a_pure_function_of_time() {
        let m = TrafficModel::diurnal(1000.0, 0.4, 42);
        for h in [0, 5, 13, 23] {
            assert_eq!(m.arrival_rate(t(h)), m.arrival_rate(t(h)));
        }
    }

    #[test]
    fn memoised_rate_equals_the_pure_one_across_minutes_and_model_edits() {
        let mut model = TrafficModel::diurnal(1000.0, 0.4, 42).with_growth(0.002);
        let mut memo = NoiseMemo::default();
        let mut at = SimTime::ZERO;
        for step in 0..600 {
            at += Duration::from_secs(7);
            // Edits the memo's key must catch: another seed, another sigma
            // (0 switches noise off), and back.
            match step % 50 {
                10 => model.seed += 1,
                20 => model.noise_sigma = 0.0,
                30 => model.noise_sigma = 0.05,
                40 => model.base_rate *= 1.1,
                _ => {}
            }
            let pure = model.arrival_rate(at);
            assert_eq!(
                model.arrival_rate_memo(at, &mut memo).to_bits(),
                pure.to_bits(),
                "step {step}"
            );
        }
    }

    #[test]
    fn diurnal_peaks_at_the_configured_hour() {
        let mut m = TrafficModel::diurnal(1000.0, 0.5, 1);
        m.noise_sigma = 0.0;
        let peak = m.arrival_rate(t(18));
        let trough = m.arrival_rate(t(6));
        assert!((peak - 1500.0).abs() < 1.0, "peak {peak}");
        assert!((trough - 500.0).abs() < 1.0, "trough {trough}");
        // Day-over-day at the same hour is identical without noise
        // (the paper's ~1 % day-over-day stability, idealized).
        assert!((m.arrival_rate(t(18)) - m.arrival_rate(t(18 + 24))).abs() < 1e-9);
    }

    #[test]
    fn growth_doubles_in_a_year() {
        let m = TrafficModel::flat(1000.0).with_growth(2f64.ln() / 365.0);
        let after_year = m.arrival_rate(SimTime::ZERO + Duration::from_days(365));
        assert!((after_year / 1000.0 - 2.0).abs() < 0.01, "{after_year}");
    }

    #[test]
    fn multiplier_event_applies_only_in_window() {
        let m = TrafficModel::flat(1000.0).with_event(TrafficEvent {
            start: t(10),
            end: t(12),
            kind: TrafficEventKind::Multiplier(1.16),
        });
        assert_eq!(m.arrival_rate(t(9)), 1000.0);
        assert!((m.arrival_rate(t(10)) - 1160.0).abs() < 1e-9);
        assert!((m.arrival_rate(t(11)) - 1160.0).abs() < 1e-9);
        assert_eq!(m.arrival_rate(t(12)), 1000.0);
    }

    #[test]
    fn outage_zeroes_arrivals_but_disabled_consumer_does_not() {
        let m = TrafficModel::flat(1000.0)
            .with_event(TrafficEvent {
                start: t(1),
                end: t(2),
                kind: TrafficEventKind::InputOutage,
            })
            .with_event(TrafficEvent {
                start: t(3),
                end: t(4),
                kind: TrafficEventKind::ConsumerDisabled,
            });
        assert_eq!(m.arrival_rate(t(1)), 0.0);
        assert_eq!(m.arrival_rate(t(3)), 1000.0, "input keeps flowing");
        assert!(m.consumer_disabled(t(3)));
        assert!(!m.consumer_disabled(t(4)));
    }

    #[test]
    fn idle_through_tracks_outage_coverage() {
        // Zero base rate is idle over any window, even with storm events
        // layered on top (multipliers cannot resurrect a zero rate).
        let silent = TrafficModel::flat(0.0).with_event(TrafficEvent {
            start: t(1),
            end: t(2),
            kind: TrafficEventKind::Multiplier(5.0),
        });
        assert!(silent.idle_through(t(0), t(100)));

        let m = TrafficModel::flat(1000.0).with_event(TrafficEvent {
            start: t(10),
            end: t(20),
            kind: TrafficEventKind::InputOutage,
        });
        // Fully inside the outage: idle.
        assert!(m.idle_through(t(11), t(19)));
        // Window open at `after`: an outage starting exactly at `after`
        // still covers every later instant.
        assert!(m.idle_through(t(10), t(19)));
        // Ends exactly at the (exclusive) outage end: instant t(20) has
        // traffic again.
        assert!(!m.idle_through(t(11), t(20)));
        // Starts before the outage: not covered.
        assert!(!m.idle_through(t(9), t(19)));
        // No outage at all.
        assert!(!m.idle_through(t(0), t(5)));
    }

    #[test]
    fn a_steady_model_holds_its_rate_until_the_next_edge() {
        let storm = TrafficEvent {
            start: t(10),
            end: t(12),
            kind: TrafficEventKind::Multiplier(1.16),
        };
        let m = TrafficModel::flat(1000.0).with_event(storm);
        assert!(m.steady_at(t(1)) && m.steady_at(t(11)));
        assert_eq!(m.next_edge(t(1)), Some(t(10)));
        assert_eq!(m.next_edge(t(10)), Some(t(12)));
        assert_eq!(m.next_edge(t(12)), None);
        // Between two edges the rate is the one at the first.
        for (from, to) in [(t(1), t(10)), (t(10), t(12)), (t(12), t(40))] {
            let rate = m.arrival_rate(from);
            let mut at = from;
            while at < to {
                assert_eq!(m.arrival_rate(at).to_bits(), rate.to_bits());
                at += Duration::from_mins(7);
            }
        }
        // A swinging rate is steady only where it is held at zero.
        let outage = TrafficEvent {
            start: t(3),
            end: t(5),
            kind: TrafficEventKind::InputOutage,
        };
        let swing = TrafficModel::diurnal(1000.0, 0.4, 1).with_event(outage);
        assert!(!swing.steady_at(t(1)));
        assert!(swing.steady_at(t(4)));
        assert!(TrafficModel::diurnal(0.0, 0.4, 1).steady_at(t(1)));
        assert!(!TrafficModel::flat(1000.0)
            .with_growth(0.001)
            .steady_at(t(1)));
        let ramp = TrafficModel::flat(1000.0).with_event(TrafficEvent {
            start: t(3),
            end: t(5),
            kind: TrafficEventKind::RampedMultiplier {
                peak: 2.0,
                ramp_mins: 30,
            },
        });
        assert!(ramp.steady_at(t(1)) && !ramp.steady_at(t(4)) && ramp.steady_at(t(5)));
    }

    #[test]
    fn ramped_multiplier_rises_holds_and_falls() {
        let m = TrafficModel::flat(1000.0).with_event(TrafficEvent {
            start: t(10),
            end: t(20),
            kind: TrafficEventKind::RampedMultiplier {
                peak: 1.16,
                ramp_mins: 60,
            },
        });
        assert_eq!(m.arrival_rate(t(9)), 1000.0);
        // Half-way up the 1 h ramp.
        let half_up = m.arrival_rate(t(10) + Duration::from_mins(30));
        assert!((half_up - 1080.0).abs() < 1.0, "{half_up}");
        // Plateau.
        assert!((m.arrival_rate(t(15)) - 1160.0).abs() < 1e-9);
        // Half-way down before the end.
        let half_down = m.arrival_rate(t(20) - Duration::from_mins(30));
        assert!((half_down - 1080.0).abs() < 1.0, "{half_down}");
        assert_eq!(m.arrival_rate(t(20)), 1000.0);
    }

    #[test]
    fn noise_is_bounded_and_seed_dependent() {
        let a = TrafficModel::diurnal(1000.0, 0.0, 7);
        let b = TrafficModel::diurnal(1000.0, 0.0, 8);
        let mut diverged = false;
        for h in 0..24 {
            let ra = a.arrival_rate(t(h));
            let rb = b.arrival_rate(t(h));
            assert!(ra > 800.0 && ra < 1250.0, "noise too large: {ra}");
            if (ra - rb).abs() > 1e-9 {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must differ");
    }
}
