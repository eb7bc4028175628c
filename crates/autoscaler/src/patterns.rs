//! The Pattern Analyzer (paper §V-C): the "preactive" layer that prunes
//! destabilizing scaling decisions.
//!
//! Two knowledge sources are maintained:
//!
//! * **Resource adjustment data** — outcomes of past scaling actions,
//!   folded into the per-thread max-throughput estimate `P` via
//!   [`ThroughputModel`];
//! * **Historical workload patterns** — per-minute workload metrics over
//!   the last 14 days, used to verify that a planned downscale could have
//!   sustained the traffic observed at the same time-of-day in prior days
//!   (most Facebook streaming workloads are diurnal within ~1 % on
//!   aggregate), and to detect anomalies (storms, incidents) during which
//!   pattern-based decisions are disabled.
//!
//! A job's history behaves as a ring of 14 days × 144 ten-minute buckets
//! indexed by `bucket mod slots`, but `JobHistory` stores only the
//! slots that were written: nothing before the first sample, sixteen bytes
//! per ten recorded minutes after it. A run of a few simulated hours
//! holds a few dozen entries per job where the ring it replaces held
//! 2 016 slots from the first round on, resident and in every snapshot.

use std::collections::VecDeque;
use turbine_types::{Duration, IdMap, JobId, SimTime};

/// Adaptive estimate of `P`, the maximum stable processing rate of a
/// single thread (bytes/sec). Bootstrapped during the job's staging period
/// and adjusted at runtime from observed outcomes (§V-C item 1).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputModel {
    p: f64,
}

impl ThroughputModel {
    /// Start from the staging-period bootstrap value.
    pub fn new(bootstrap_p: f64) -> Self {
        assert!(bootstrap_p > 0.0, "bootstrap P must be positive");
        ThroughputModel { p: bootstrap_p }
    }

    /// Current estimate.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The planned downscale target exceeded the current task count
    /// (`n' > n`): `P` must be *smaller* than the actual max throughput.
    /// Adjust `P` up to the observed average per-thread throughput and
    /// skip the action this round.
    pub fn record_underestimate(&mut self, observed_per_thread: f64) {
        if observed_per_thread > self.p {
            self.p = observed_per_thread;
        }
    }

    /// An SLO violation followed a downscale: `P` must be *greater* than
    /// the actual max throughput. Move `P` to a value between the observed
    /// per-thread throughput (`X/n/k`) and the old `P`.
    pub fn record_overestimate(&mut self, observed_per_thread: f64) {
        if observed_per_thread < self.p {
            self.p = (self.p + observed_per_thread) / 2.0;
        }
    }
}

/// Outcome of the Pattern Analyzer's downscale check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternVerdict {
    /// History confirms the reduced capacity sustains upcoming traffic.
    Safe,
    /// History shows upcoming traffic would exceed the reduced capacity.
    Unsafe,
    /// Not enough recorded days to judge; the scaler may fall back to
    /// estimate-only guards (with extra margin).
    InsufficientHistory,
    /// The recent workload differs significantly from the same time of
    /// day in prior days (storm/incident): pattern-based decisions are
    /// disabled (§V-C).
    Anomalous,
}

/// Days of history kept (paper: 14).
const HISTORY_DAYS: u64 = 14;

/// Bucket width for the per-minute workload record. The paper records per
/// minute; 10-minute buckets keep memory modest with the same decision
/// quality at our horizons.
const BUCKET: Duration = Duration::from_mins(10);

/// Recent window compared against the same window in prior days for
/// anomaly detection (paper: last 30 minutes).
const RECENT_WINDOW: Duration = Duration::from_mins(30);

/// Relative difference beyond which the recent workload counts as
/// "significantly different" and pattern decisions are disabled.
const ANOMALY_THRESHOLD: f64 = 0.5;

/// Buckets per day of history.
const BUCKETS_PER_DAY: u64 = Duration::from_days(1).as_millis() / BUCKET.as_millis();

/// Slots of every job's ring: `HISTORY_DAYS × BUCKETS_PER_DAY`.
const TOTAL_SLOTS: u64 = HISTORY_DAYS * BUCKETS_PER_DAY;

/// Pattern Analyzer tunables.
#[derive(Debug, Clone, Copy)]
pub struct PatternConfig {
    /// How far ahead a downscale must be historically sustainable
    /// ("the next x hours", configurable).
    pub lookahead: Duration,
    /// Minimum full days of history before pattern checks activate.
    pub min_history_days: usize,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            lookahead: Duration::from_hours(4),
            min_history_days: 2,
        }
    }
}

/// Workload buckets recorded for one job: what a ring of `TOTAL_SLOTS`
/// slots indexed by `bucket % TOTAL_SLOTS` would hold, stored as its
/// occupied slots only. Entries ascend strictly by absolute bucket and no
/// two share a slot, so `entries.len()` is the number of occupied slots.
#[derive(Debug, Clone, Default)]
struct JobHistory {
    entries: VecDeque<(u64, f64)>,
}

impl JobHistory {
    /// Where bucket `abs` is stored (`Ok`) or would be inserted (`Err`).
    /// A history without gaps is indexed directly.
    fn position(&self, abs: u64) -> Result<usize, usize> {
        let (Some(&(first, _)), Some(&(last, _))) = (self.entries.front(), self.entries.back())
        else {
            return Err(0);
        };
        if abs > last {
            return Err(self.entries.len());
        }
        if abs < first {
            return Err(0);
        }
        if last - first == self.entries.len() as u64 - 1 {
            return Ok((abs - first) as usize);
        }
        self.entries
            .binary_search_by_key(&abs, |&(bucket, _)| bucket)
    }

    /// The value of bucket `abs`, if it was written and no later write
    /// landed on its slot.
    fn value_at_abs(&self, abs: u64) -> Option<f64> {
        self.position(abs).ok().map(|i| self.entries[i].1)
    }

    /// The entry occupying the slot bucket `abs` maps to, whichever cycle
    /// wrote it.
    fn slot_holder(&self, abs: u64) -> Option<usize> {
        let (first, last) = (self.entries.front()?.0, self.entries.back()?.0);
        let slot = abs % TOTAL_SLOTS;
        // More cycles between the ends than entries: look at the entries.
        if (last - first) / TOTAL_SLOTS >= self.entries.len() as u64 {
            return self
                .entries
                .iter()
                .position(|&(b, _)| b % TOTAL_SLOTS == slot);
        }
        // Otherwise at the few buckets in range that share the slot.
        let mut bucket =
            first.checked_add((slot + TOTAL_SLOTS - first % TOTAL_SLOTS) % TOTAL_SLOTS)?;
        while bucket <= last {
            if let Ok(i) = self.position(bucket) {
                return Some(i);
            }
            bucket = bucket.checked_add(TOTAL_SLOTS)?;
        }
        None
    }

    /// Write `value` to bucket `abs`: the maximum wins within a bucket, and
    /// a write evicts whatever bucket held its slot, earlier or later,
    /// however many cycles away.
    fn record(&mut self, abs: u64, value: f64) {
        let mut at = match self.position(abs) {
            Ok(i) => {
                let held = &mut self.entries[i].1;
                *held = held.max(value);
                return;
            }
            Err(at) => at,
        };
        if let Some(evicted) = self.slot_holder(abs) {
            self.entries.remove(evicted);
            at -= (evicted < at) as usize;
        }
        self.entries.insert(at, (abs, value));
    }

    /// No two entries on one slot of the ring.
    fn one_entry_per_slot(&self) -> bool {
        let mut slots: Vec<u64> = self.entries.iter().map(|&(b, _)| b % TOTAL_SLOTS).collect();
        slots.sort_unstable();
        slots.windows(2).all(|pair| pair[0] != pair[1])
    }
}

/// The Pattern Analyzer.
#[derive(Debug)]
pub struct PatternAnalyzer {
    config: PatternConfig,
    history: IdMap<JobId, JobHistory>,
}

fn abs_bucket(at: SimTime) -> u64 {
    at.as_millis() / BUCKET.as_millis()
}

impl PatternAnalyzer {
    /// An analyzer with the given tunables.
    pub fn new(config: PatternConfig) -> Self {
        PatternAnalyzer {
            config,
            history: IdMap::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PatternConfig {
        &self.config
    }

    /// Record a workload sample (input rate) for `job` at `at`. Within a
    /// bucket the maximum is kept — sustainability must hold at peak, not
    /// on average.
    pub fn record(&mut self, job: JobId, at: SimTime, input_rate: f64) {
        self.history
            .entry(job)
            .or_default()
            .record(abs_bucket(at), input_rate);
    }

    /// Drop everything recorded for `job`.
    pub fn forget(&mut self, job: JobId) {
        self.history.remove(&job);
    }

    /// Days of history available for `job` (approximate: written slots
    /// divided by slots per day, capped by elapsed simulation time).
    fn days_recorded(&self, job: JobId, now: SimTime) -> usize {
        match self.history.get(&job) {
            None => 0,
            Some(h) => {
                let written = h.entries.len() as u64;
                ((written / BUCKETS_PER_DAY) as usize).min(now.as_days_f64() as usize)
            }
        }
    }

    /// Would a capacity of `sustainable_rate` (bytes/sec) have kept up
    /// with the traffic observed during `[now, now + lookahead)` on prior
    /// recorded days?
    pub fn check_downscale(
        &self,
        job: JobId,
        now: SimTime,
        sustainable_rate: f64,
    ) -> PatternVerdict {
        if self.days_recorded(job, now) < self.config.min_history_days {
            return PatternVerdict::InsufficientHistory;
        }
        match self.is_anomalous(job, now) {
            None => return PatternVerdict::InsufficientHistory,
            Some(true) => return PatternVerdict::Anomalous,
            Some(false) => {}
        }
        match self.prior_days_fit(job, now, sustainable_rate) {
            None => PatternVerdict::InsufficientHistory,
            Some(true) => PatternVerdict::Safe,
            Some(false) => PatternVerdict::Unsafe,
        }
    }

    fn prior_days_fit(&self, job: JobId, now: SimTime, sustainable_rate: f64) -> Option<bool> {
        let history = self.history.get(&job)?;
        let start = abs_bucket(now);
        let horizon = (self.config.lookahead.as_millis() / BUCKET.as_millis()).max(1);
        // For each prior day, scan the same time-of-day window.
        for day in 1..HISTORY_DAYS {
            let day_offset = day * BUCKETS_PER_DAY;
            if day_offset > start {
                break; // before the simulation began
            }
            for b in 0..horizon {
                let abs = start + b - day_offset;
                if let Some(observed) = history.value_at_abs(abs) {
                    if observed > sustainable_rate {
                        return Some(false);
                    }
                }
            }
        }
        Some(true)
    }

    /// Is the recent workload significantly different from the same
    /// time-of-day in prior days? `None` with insufficient history.
    fn is_anomalous(&self, job: JobId, now: SimTime) -> Option<bool> {
        if self.days_recorded(job, now) < self.config.min_history_days {
            return None;
        }
        let history = self.history.get(&job)?;
        let window = (RECENT_WINDOW.as_millis() / BUCKET.as_millis()).max(1);
        let end = abs_bucket(now);
        let start = end.saturating_sub(window - 1);

        let mut recent_sum = 0.0;
        let mut recent_n = 0usize;
        for abs in start..=end {
            if let Some(v) = history.value_at_abs(abs) {
                recent_sum += v;
                recent_n += 1;
            }
        }
        let mut hist_sum = 0.0;
        let mut hist_n = 0usize;
        for day in 1..HISTORY_DAYS {
            let day_offset = day * BUCKETS_PER_DAY;
            if day_offset > start {
                break;
            }
            for abs in start..=end {
                if let Some(v) = history.value_at_abs(abs - day_offset) {
                    hist_sum += v;
                    hist_n += 1;
                }
            }
        }
        if recent_n == 0 || hist_n == 0 {
            return None;
        }
        let recent = recent_sum / recent_n as f64;
        let historical = hist_sum / hist_n as f64;
        if historical <= 0.0 {
            return Some(recent > 0.0);
        }
        // Written as two comparisons, not a range: a NaN ratio is not
        // anomalous.
        let (ratio, band) = (recent / historical, 1.0 + ANOMALY_THRESHOLD);
        Some(ratio > band || ratio < 1.0 / band)
    }
}

turbine_types::snap_struct!(ThroughputModel { p }
    check |m| m.p.is_finite() && m.p > 0.0 => "ThroughputModel.p not positive");

turbine_types::snap_struct!(PatternConfig {
    lookahead,
    min_history_days
});

// The checks are what the ring layout relies on: at most one entry per
// slot, ascending buckets.
turbine_types::snap_struct!(JobHistory { entries }
    check |h| h.entries.len() as u64 <= TOTAL_SLOTS => "JobHistory holds more entries than slots"
    check |h| h.entries.iter().zip(h.entries.iter().skip(1)).all(|(a, b)| a.0 < b.0)
        => "JobHistory buckets not ascending"
    check |h| h.one_entry_per_slot() => "JobHistory has two entries on one slot");

turbine_types::snap_struct!(PatternAnalyzer { config, history });

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: JobId = JobId(1);

    fn t(days: u64, hours: u64, mins: u64) -> SimTime {
        SimTime::ZERO
            + Duration::from_days(days)
            + Duration::from_hours(hours)
            + Duration::from_mins(mins)
    }

    /// Record a perfect diurnal pattern: rate = 100 + 50·sin(time-of-day).
    fn diurnal_rate(at: SimTime) -> f64 {
        let frac = at.time_of_day().as_millis() as f64 / Duration::from_days(1).as_millis() as f64;
        100.0 + 50.0 * (2.0 * std::f64::consts::PI * frac).sin()
    }

    fn analyzer_with_days(days: u64) -> PatternAnalyzer {
        let mut pa = PatternAnalyzer::new(PatternConfig::default());
        let step = Duration::from_mins(10);
        let mut at = SimTime::ZERO;
        let end = SimTime::ZERO + Duration::from_days(days);
        while at < end {
            pa.record(JOB, at, diurnal_rate(at));
            at += step;
        }
        pa
    }

    #[test]
    fn throughput_model_adjusts_both_ways() {
        let mut model = ThroughputModel::new(100.0);
        // Underestimate discovered: jump to observed.
        model.record_underestimate(150.0);
        assert_eq!(model.p(), 150.0);
        // Observed below current: no change on the underestimate path.
        model.record_underestimate(120.0);
        assert_eq!(model.p(), 150.0);
        // Overestimate discovered: move halfway down.
        model.record_overestimate(100.0);
        assert_eq!(model.p(), 125.0);
        // Observed above current: no change on the overestimate path.
        model.record_overestimate(200.0);
        assert_eq!(model.p(), 125.0);
    }

    #[test]
    fn insufficient_history_returns_none() {
        let pa = analyzer_with_days(1);
        assert_eq!(
            pa.check_downscale(JOB, t(1, 0, 0), 1000.0),
            PatternVerdict::InsufficientHistory
        );
        let empty = PatternAnalyzer::new(PatternConfig::default());
        assert_eq!(
            empty.check_downscale(JobId(9), t(5, 0, 0), 1000.0),
            PatternVerdict::InsufficientHistory
        );
    }

    #[test]
    fn generous_capacity_is_safe_tight_capacity_is_not() {
        let pa = analyzer_with_days(5);
        let now = t(5, 0, 0);
        // Peak of the diurnal curve is 150: capacity 200 clears it.
        assert_eq!(pa.check_downscale(JOB, now, 200.0), PatternVerdict::Safe);
        // Capacity 60 is below even the trough at some hours.
        assert_eq!(pa.check_downscale(JOB, now, 60.0), PatternVerdict::Unsafe);
    }

    #[test]
    fn lookahead_catches_upcoming_peaks() {
        let pa = analyzer_with_days(5);
        // 4 hours before the historical daily peak (sin peaks at 6h):
        // capacity of 120 holds now (rate 100 at midnight) but not at the
        // peak (150) within the 4h lookahead window reaching 04:00 where
        // rate = 100+50·sin(2π·4/24) ≈ 143.3.
        let now = t(5, 0, 0);
        assert_eq!(pa.check_downscale(JOB, now, 120.0), PatternVerdict::Unsafe);
    }

    #[test]
    fn anomaly_disables_pattern_decisions() {
        let mut pa = analyzer_with_days(5);
        // Storm: traffic doubles for the last 30 minutes.
        let now = t(5, 2, 0);
        for m in 0..3 {
            pa.record(JOB, t(5, 1, 30 + m * 10), diurnal_rate(now) * 2.5);
        }
        assert_eq!(pa.is_anomalous(JOB, now), Some(true));
        assert_eq!(
            pa.check_downscale(JOB, now, 1.0e9),
            PatternVerdict::Anomalous
        );
    }

    #[test]
    fn normal_traffic_is_not_anomalous() {
        let pa = analyzer_with_days(5);
        assert_eq!(pa.is_anomalous(JOB, t(5, 0, 0)), Some(false));
    }

    #[test]
    fn ring_overwrites_after_full_cycle() {
        // With 14-day history, day 14's data lands on day 0's slots.
        let mut pa = PatternAnalyzer::new(PatternConfig::default());
        // Days 0-13: constant 100. Days 14-27 overwrite the 14-day ring
        // with a sustained 500 — after which 100-era data must be gone.
        let step = Duration::from_mins(10);
        let mut at = SimTime::ZERO;
        while at < t(HISTORY_DAYS, 0, 0) {
            pa.record(JOB, at, 100.0);
            at += step;
        }
        while at < t(2 * HISTORY_DAYS, 0, 0) {
            pa.record(JOB, at, 500.0);
            at += step;
        }
        let history = &pa.history[&JOB];
        assert_eq!(history.entries.len() as u64, TOTAL_SLOTS);
        assert!(history.entries.iter().all(|&(_, rate)| rate == 500.0));
        assert_eq!(history.value_at_abs(0), None);
        assert_eq!(history.value_at_abs(TOTAL_SLOTS), Some(500.0));
        // At day 28 the recent traffic (500) matches history (500): not
        // anomalous, and capacity 200 is unsafe because the ring now holds
        // the 500-rate days, not the stale 100-rate ones.
        let now = t(2 * HISTORY_DAYS, 0, 0);
        assert_eq!(pa.is_anomalous(JOB, now), Some(false));
        assert_eq!(pa.check_downscale(JOB, now, 200.0), PatternVerdict::Unsafe);
        assert_eq!(pa.check_downscale(JOB, now, 600.0), PatternVerdict::Safe);
    }

    #[test]
    fn nothing_is_held_before_the_first_record() {
        let mut pa = PatternAnalyzer::new(PatternConfig::default());
        assert!(pa.history.is_empty());
        pa.record(JOB, t(0, 0, 0), 1.0);
        pa.record(JOB, t(0, 0, 2), 3.0);
        pa.record(JOB, t(0, 0, 4), 2.0);
        // Three samples in one ten-minute bucket: one entry, the maximum.
        assert_eq!(pa.history[&JOB].entries, [(0, 3.0)]);
        pa.forget(JOB);
        assert!(pa.history.is_empty());
    }

    fn encoded<T: turbine_types::Snap>(v: &T) -> Vec<u8> {
        let mut w = turbine_types::SnapWriter::new();
        w.put(v);
        w.into_bytes()
    }

    fn decoded<T: turbine_types::Snap>(bytes: &[u8]) -> Result<T, turbine_types::SnapError> {
        let mut r = turbine_types::SnapReader::new(bytes);
        let v = r.get()?;
        r.expect_end()?;
        Ok(v)
    }

    /// An analyzer over the 14-day ring whose one job holds `entries`, as
    /// a blob.
    fn blob_with_entries(entries: &[(u64, f64)]) -> Vec<u8> {
        let mut w = turbine_types::SnapWriter::new();
        w.put(&PatternConfig::default());
        w.u64(1);
        w.put(&JOB);
        w.put(&entries.to_vec());
        w.into_bytes()
    }

    #[test]
    fn hostile_history_entries_are_typed_errors() {
        use turbine_types::SnapError;
        let decode =
            |entries: &[(u64, f64)]| decoded::<PatternAnalyzer>(&blob_with_entries(entries));
        let pa = decode(&[(3, 1.0), (4, 2.0), (8, 3.0)]).expect("a valid history decodes");
        assert_eq!(pa.history[&JOB].value_at_abs(8), Some(3.0));
        let one_too_many: Vec<(u64, f64)> = (0..=TOTAL_SLOTS).map(|b| (b, 1.0)).collect();
        for (entries, why) in [
            (&[(4, 1.0), (3, 2.0)][..], "unsorted"),
            (&[(3, 1.0), (3, 2.0)][..], "a bucket twice"),
            (
                &[(1, 1.0), (1 + TOTAL_SLOTS, 2.0)][..],
                "two buckets on slot 1",
            ),
            (&one_too_many[..], "one more entry than slots"),
        ] {
            assert!(matches!(decode(entries), Err(SnapError::Value(_))), "{why}");
        }
        // A length no blob of this size can hold is refused before anything
        // is allocated for it, and a cut anywhere is an error, not a panic.
        let mut huge = blob_with_entries(&[]);
        let at = huge.len() - 8;
        huge[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decoded::<PatternAnalyzer>(&huge),
            Err(SnapError::Eof(_))
        ));
        let whole = blob_with_entries(&[(3, 1.0), (4, 2.0)]);
        for cut in 0..whole.len() {
            assert!(
                decoded::<PatternAnalyzer>(&whole[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// The dense ring the sparse history replaces, kept as the model:
    /// two eagerly allocated vectors and the read paths as they were.
    mod dense {
        use super::super::{
            PatternConfig, PatternVerdict, ANOMALY_THRESHOLD, BUCKET, BUCKETS_PER_DAY,
            HISTORY_DAYS, RECENT_WINDOW, TOTAL_SLOTS,
        };
        use turbine_types::SimTime;

        pub struct DenseAnalyzer {
            config: PatternConfig,
            buckets: Vec<f64>,
            slot_bucket: Vec<u64>,
        }

        impl DenseAnalyzer {
            pub fn new(config: PatternConfig) -> Self {
                DenseAnalyzer {
                    config,
                    buckets: vec![0.0; TOTAL_SLOTS as usize],
                    slot_bucket: vec![u64::MAX; TOTAL_SLOTS as usize],
                }
            }

            fn abs_bucket(&self, at: SimTime) -> u64 {
                at.as_millis() / BUCKET.as_millis()
            }

            pub fn value_at_abs(&self, abs: u64) -> Option<f64> {
                let slot = (abs % self.buckets.len() as u64) as usize;
                (self.slot_bucket[slot] == abs).then(|| self.buckets[slot])
            }

            /// Every written bucket with its value, ascending.
            pub fn written(&self) -> Vec<(u64, f64)> {
                let mut written: Vec<(u64, f64)> = self
                    .slot_bucket
                    .iter()
                    .zip(&self.buckets)
                    .filter(|&(&b, _)| b != u64::MAX)
                    .map(|(&b, &v)| (b, v))
                    .collect();
                written.sort_unstable_by_key(|&(b, _)| b);
                written
            }

            pub fn record(&mut self, at: SimTime, input_rate: f64) {
                let abs = self.abs_bucket(at);
                let slot = (abs % self.buckets.len() as u64) as usize;
                if self.slot_bucket[slot] == abs {
                    self.buckets[slot] = self.buckets[slot].max(input_rate);
                } else {
                    self.buckets[slot] = input_rate;
                    self.slot_bucket[slot] = abs;
                }
            }

            pub fn days_recorded(&self, now: SimTime) -> usize {
                let written = self.slot_bucket.iter().filter(|&&b| b != u64::MAX).count() as u64;
                ((written / BUCKETS_PER_DAY) as usize).min(now.as_days_f64() as usize)
            }

            pub fn check_downscale(&self, now: SimTime, sustainable_rate: f64) -> PatternVerdict {
                if self.days_recorded(now) < self.config.min_history_days {
                    return PatternVerdict::InsufficientHistory;
                }
                match self.is_anomalous(now) {
                    None => return PatternVerdict::InsufficientHistory,
                    Some(true) => return PatternVerdict::Anomalous,
                    Some(false) => {}
                }
                let start = self.abs_bucket(now);
                let horizon = (self.config.lookahead.as_millis() / BUCKET.as_millis()).max(1);
                for day in 1..HISTORY_DAYS {
                    let day_offset = day * BUCKETS_PER_DAY;
                    if day_offset > start {
                        break;
                    }
                    for b in 0..horizon {
                        if let Some(observed) = self.value_at_abs(start + b - day_offset) {
                            if observed > sustainable_rate {
                                return PatternVerdict::Unsafe;
                            }
                        }
                    }
                }
                PatternVerdict::Safe
            }

            pub fn is_anomalous(&self, now: SimTime) -> Option<bool> {
                if self.days_recorded(now) < self.config.min_history_days {
                    return None;
                }
                let window = (RECENT_WINDOW.as_millis() / BUCKET.as_millis()).max(1);
                let end = self.abs_bucket(now);
                let start = end.saturating_sub(window - 1);
                let (mut recent_sum, mut recent_n) = (0.0, 0usize);
                for abs in start..=end {
                    if let Some(v) = self.value_at_abs(abs) {
                        recent_sum += v;
                        recent_n += 1;
                    }
                }
                let (mut hist_sum, mut hist_n) = (0.0, 0usize);
                for day in 1..HISTORY_DAYS {
                    let day_offset = day * BUCKETS_PER_DAY;
                    if day_offset > start {
                        break;
                    }
                    for abs in start..=end {
                        if let Some(v) = self.value_at_abs(abs - day_offset) {
                            hist_sum += v;
                            hist_n += 1;
                        }
                    }
                }
                if recent_n == 0 || hist_n == 0 {
                    return None;
                }
                let recent = recent_sum / recent_n as f64;
                let historical = hist_sum / hist_n as f64;
                if historical <= 0.0 {
                    return Some(recent > 0.0);
                }
                let (ratio, band) = (recent / historical, 1.0 + ANOMALY_THRESHOLD);
                Some(ratio > band || ratio < 1.0 / band)
            }
        }
    }

    mod against_the_dense_ring {
        use super::dense::DenseAnalyzer;
        use super::*;
        use proptest::prelude::*;

        /// One `record`: how the clock moves (in buckets, from the last
        /// recorded time) and the sample. Moves repeat the bucket, step
        /// on, leave a gap, skip days, land just short of, on or past one
        /// whole cycle, leap several cycles, or go back in time, a little
        /// or about a cycle (onto a slot a later bucket holds).
        fn arb_step() -> impl Strategy<Value = (i64, f64)> {
            let (day, cycle) = (BUCKETS_PER_DAY as i64, TOTAL_SLOTS as i64);
            let movement = prop_oneof![
                Just(0i64),
                Just(1i64),
                1i64..4,
                4i64..30,
                30i64..2 * day,
                cycle - 3..cycle + 3,
                cycle + 3..4 * cycle,
                -20i64..0,
                -cycle - 3..-cycle + 3,
            ];
            (movement, 0.0f64..400.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn sparse_history_is_the_ring(
                min_history_days in 0usize..3,
                lookahead_buckets in 1u64..8,
                prefill_days in 0u64..4,
                prefill_seed in 0u64..400,
                start_bucket in 0u64..40,
                steps in prop::collection::vec(arb_step(), 1..60),
                probes in prop::collection::vec((-30i64..30, 0.0f64..400.0), 60..61),
            ) {
                let config = PatternConfig {
                    lookahead: Duration::from_millis(BUCKET.as_millis() * lookahead_buckets),
                    min_history_days,
                };
                let mut sparse = PatternAnalyzer::new(config);
                let mut dense = DenseAnalyzer::new(config);
                let at_bucket = |b: i64| SimTime::from_millis(b.max(0) as u64 * BUCKET.as_millis() + 7);
                // Whole days without a gap first, so the verdicts have
                // history to work on.
                let mut clock = start_bucket as i64;
                for b in 0..prefill_days * BUCKETS_PER_DAY {
                    let rate = ((b * 37 + prefill_seed) % 400) as f64;
                    sparse.record(JOB, at_bucket(clock), rate);
                    dense.record(at_bucket(clock), rate);
                    clock += 1;
                }
                for (step, &(movement, rate)) in steps.iter().enumerate() {
                    clock = (clock + movement).max(0);
                    sparse.record(JOB, at_bucket(clock), rate);
                    dense.record(at_bucket(clock), rate);

                    // The same buckets are held, with the same values...
                    let history = &sparse.history[&JOB];
                    let held: Vec<(u64, u64)> =
                        history.entries.iter().map(|&(b, v)| (b, v.to_bits())).collect();
                    let written: Vec<(u64, u64)> =
                        dense.written().into_iter().map(|(b, v)| (b, v.to_bits())).collect();
                    prop_assert_eq!(&held, &written, "after step {}", step);
                    // ...and found by lookup: the clock's bucket, the last
                    // and a spread of held ones, each with its neighbours and the
                    // buckets sharing its slot one cycle either side.
                    let spread = held.iter().step_by(held.len() / 16 + 1).map(|&(b, _)| b);
                    let around = spread
                        .chain(held.last().map(|&(b, _)| b))
                        .chain([clock as u64])
                        .flat_map(|b| [b.saturating_sub(TOTAL_SLOTS), b, b + TOTAL_SLOTS])
                        .flat_map(|b| [b.saturating_sub(1), b, b + 1]);
                    for abs in around {
                        prop_assert_eq!(
                            history.value_at_abs(abs).map(f64::to_bits),
                            dense.value_at_abs(abs).map(f64::to_bits),
                            "bucket {} after step {}", abs, step
                        );
                    }
                    let (offset, sustainable) = probes[step];
                    let now = at_bucket(clock + offset);
                    prop_assert_eq!(sparse.days_recorded(JOB, now), dense.days_recorded(now));
                    prop_assert_eq!(sparse.is_anomalous(JOB, now), dense.is_anomalous(now));
                    prop_assert_eq!(
                        sparse.check_downscale(JOB, now, sustainable),
                        dense.check_downscale(now, sustainable)
                    );
                }
                let blob = encoded(&sparse);
                let back: PatternAnalyzer = decoded(&blob).expect("own encoding decodes");
                prop_assert_eq!(encoded(&back), blob);
            }
        }
    }
}
