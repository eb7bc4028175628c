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
//! A job's history behaves as a ring of `history_days × buckets_per_day`
//! slots indexed by `bucket mod slots`, but `JobHistory` stores only the
//! slots that were written: nothing before the first sample, sixteen bytes
//! per ten recorded minutes after it. A run of a few simulated hours
//! holds a few dozen entries per job where the ring it replaces held
//! 2 016 slots from the first round on, resident and in every snapshot.

use std::collections::{HashMap, VecDeque};
use turbine_types::{Duration, JobId, SimTime};

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

/// Pattern Analyzer tunables.
#[derive(Debug, Clone, Copy)]
pub struct PatternConfig {
    /// Days of history kept (paper: 14).
    pub history_days: usize,
    /// Bucket width for the per-minute workload record. The paper records
    /// per minute; 10-minute buckets keep memory modest with the same
    /// decision quality at our horizons.
    pub bucket: Duration,
    /// How far ahead a downscale must be historically sustainable
    /// ("the next x hours", configurable).
    pub lookahead: Duration,
    /// Recent window compared against the same window in prior days for
    /// anomaly detection (paper: last 30 minutes).
    pub recent_window: Duration,
    /// Relative difference beyond which the recent workload counts as
    /// "significantly different" and pattern decisions are disabled.
    pub anomaly_threshold: f64,
    /// Minimum full days of history before pattern checks activate.
    pub min_history_days: usize,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            history_days: 14,
            bucket: Duration::from_mins(10),
            lookahead: Duration::from_hours(4),
            recent_window: Duration::from_mins(30),
            anomaly_threshold: 0.5,
            min_history_days: 2,
        }
    }
}

/// Workload buckets recorded for one job: what a ring of `total` slots
/// indexed by `bucket % total` would hold, stored as its occupied slots
/// only. Entries ascend strictly by absolute bucket and no two share a
/// slot, so `entries.len()` is the number of occupied slots.
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
    fn slot_holder(&self, abs: u64, total: u64) -> Option<usize> {
        let (first, last) = (self.entries.front()?.0, self.entries.back()?.0);
        let slot = abs % total;
        // More cycles between the ends than entries: look at the entries.
        if (last - first) / total >= self.entries.len() as u64 {
            return self.entries.iter().position(|&(b, _)| b % total == slot);
        }
        // Otherwise at the few buckets in range that share the slot.
        let mut bucket = first.checked_add((slot + total - first % total) % total)?;
        while bucket <= last {
            if let Ok(i) = self.position(bucket) {
                return Some(i);
            }
            bucket = bucket.checked_add(total)?;
        }
        None
    }

    /// Write `value` to bucket `abs` of a ring of `total` slots: the
    /// maximum wins within a bucket, and a write evicts whatever bucket
    /// held its slot, earlier or later, however many cycles away.
    fn record(&mut self, abs: u64, value: f64, total: u64) {
        let mut at = match self.position(abs) {
            Ok(i) => {
                let held = &mut self.entries[i].1;
                *held = held.max(value);
                return;
            }
            Err(at) => at,
        };
        if let Some(evicted) = self.slot_holder(abs, total) {
            self.entries.remove(evicted);
            at -= (evicted < at) as usize;
        }
        self.entries.insert(at, (abs, value));
    }

    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.entries);
    }

    /// Decode the entries of a ring of `total` slots, checking what the
    /// layout relies on: ascending buckets, one entry per slot.
    fn unsnap(
        r: &mut turbine_types::SnapReader<'_>,
        total: u64,
    ) -> Result<Self, turbine_types::SnapError> {
        let entries: VecDeque<(u64, f64)> = r.get()?;
        if entries.len() as u64 > total {
            return Err(turbine_types::SnapError::Value(
                "JobHistory holds more entries than slots",
            ));
        }
        if entries
            .iter()
            .zip(entries.iter().skip(1))
            .any(|(a, b)| a.0 >= b.0)
        {
            return Err(turbine_types::SnapError::Value(
                "JobHistory buckets not ascending",
            ));
        }
        let mut slots: Vec<u64> = entries.iter().map(|&(b, _)| b % total).collect();
        slots.sort_unstable();
        if slots.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(turbine_types::SnapError::Value(
                "JobHistory has two entries on one slot",
            ));
        }
        Ok(JobHistory { entries })
    }
}

/// Buckets per day and ring slots of `config`, or `None` when it describes
/// no ring: a bucket longer than a day, no days of history, or a slot
/// count that overflows.
fn ring_shape(config: &PatternConfig) -> Option<(u64, u64)> {
    let buckets_per_day = Duration::from_days(1)
        .as_millis()
        .checked_div(config.bucket.as_millis())?;
    let total = buckets_per_day.checked_mul(u64::try_from(config.history_days).ok()?)?;
    (total > 0 && usize::try_from(total).is_ok()).then_some((buckets_per_day, total))
}

/// The Pattern Analyzer.
#[derive(Debug)]
pub struct PatternAnalyzer {
    config: PatternConfig,
    buckets_per_day: u64,
    /// Slots of every job's ring: `history_days × buckets_per_day`.
    total_slots: u64,
    history: HashMap<JobId, JobHistory>,
}

impl PatternAnalyzer {
    /// An analyzer with the given tunables.
    pub fn new(config: PatternConfig) -> Self {
        let (buckets_per_day, total_slots) = ring_shape(&config)
            .expect("bucket must divide a day and history_days must be positive");
        PatternAnalyzer {
            config,
            buckets_per_day,
            total_slots,
            history: HashMap::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PatternConfig {
        &self.config
    }

    fn abs_bucket(&self, at: SimTime) -> u64 {
        at.as_millis() / self.config.bucket.as_millis()
    }

    /// Record a workload sample (input rate) for `job` at `at`. Within a
    /// bucket the maximum is kept — sustainability must hold at peak, not
    /// on average.
    pub fn record(&mut self, job: JobId, at: SimTime, input_rate: f64) {
        let abs = self.abs_bucket(at);
        self.history
            .entry(job)
            .or_default()
            .record(abs, input_rate, self.total_slots);
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
                ((written / self.buckets_per_day) as usize).min(now.as_days_f64() as usize)
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
        match self.downscale_is_safe_inner(job, now, sustainable_rate) {
            None => PatternVerdict::InsufficientHistory,
            Some(true) => PatternVerdict::Safe,
            Some(false) => PatternVerdict::Unsafe,
        }
    }

    /// Backwards-compatible boolean view of [`Self::check_downscale`]:
    /// `None` when history is insufficient or the workload anomalous.
    pub fn downscale_is_safe(
        &self,
        job: JobId,
        now: SimTime,
        sustainable_rate: f64,
    ) -> Option<bool> {
        match self.check_downscale(job, now, sustainable_rate) {
            PatternVerdict::Safe => Some(true),
            PatternVerdict::Unsafe => Some(false),
            PatternVerdict::InsufficientHistory | PatternVerdict::Anomalous => None,
        }
    }

    fn downscale_is_safe_inner(
        &self,
        job: JobId,
        now: SimTime,
        sustainable_rate: f64,
    ) -> Option<bool> {
        let history = self.history.get(&job)?;
        let start = self.abs_bucket(now);
        let horizon = (self.config.lookahead.as_millis() / self.config.bucket.as_millis()).max(1);
        // For each prior day, scan the same time-of-day window.
        for day in 1..self.config.history_days as u64 {
            let day_offset = day * self.buckets_per_day;
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
    pub fn is_anomalous(&self, job: JobId, now: SimTime) -> Option<bool> {
        if self.days_recorded(job, now) < self.config.min_history_days {
            return None;
        }
        let history = self.history.get(&job)?;
        let window =
            (self.config.recent_window.as_millis() / self.config.bucket.as_millis()).max(1);
        let end = self.abs_bucket(now);
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
        for day in 1..self.config.history_days as u64 {
            let day_offset = day * self.buckets_per_day;
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
        let ratio = recent / historical;
        Some(
            ratio > 1.0 + self.config.anomaly_threshold
                || ratio < 1.0 / (1.0 + self.config.anomaly_threshold),
        )
    }
}

turbine_types::snap_struct!(ThroughputModel { p }
    check |m| m.p.is_finite() && m.p > 0.0 => "ThroughputModel.p not positive");

turbine_types::snap_struct!(PatternConfig {
    history_days, bucket, lookahead, recent_window, anomaly_threshold, min_history_days
} check |c| ring_shape(c).is_some() => "PatternConfig describes no history ring");

// By hand: a job's history is validated against the ring shape its
// analyzer's config describes, so its decoder takes that as context.
impl turbine_types::Snap for PatternAnalyzer {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.config);
        let sorted: std::collections::BTreeMap<JobId, &JobHistory> =
            self.history.iter().map(|(j, h)| (*j, h)).collect();
        w.u64(sorted.len() as u64);
        for (job, history) in sorted {
            w.put(&job);
            history.snap(w);
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let config: PatternConfig = r.get()?;
        let (buckets_per_day, total_slots) = ring_shape(&config).ok_or(
            turbine_types::SnapError::Value("PatternConfig describes no history ring"),
        )?;
        let len = r.len_prefix("PatternAnalyzer.history")?;
        let mut history = HashMap::with_capacity(r.prealloc::<(JobId, JobHistory)>(len));
        for _ in 0..len {
            let job: JobId = r.get()?;
            history.insert(job, JobHistory::unsnap(r, total_slots)?);
        }
        Ok(PatternAnalyzer {
            config,
            buckets_per_day,
            total_slots,
            history,
        })
    }
}

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
        assert_eq!(pa.downscale_is_safe(JOB, t(1, 0, 0), 1000.0), None);
        let empty = PatternAnalyzer::new(PatternConfig::default());
        assert_eq!(empty.downscale_is_safe(JobId(9), t(5, 0, 0), 1000.0), None);
    }

    #[test]
    fn generous_capacity_is_safe_tight_capacity_is_not() {
        let pa = analyzer_with_days(5);
        let now = t(5, 0, 0);
        // Peak of the diurnal curve is 150: capacity 200 clears it.
        assert_eq!(pa.downscale_is_safe(JOB, now, 200.0), Some(true));
        // Capacity 60 is below even the trough at some hours.
        assert_eq!(pa.downscale_is_safe(JOB, now, 60.0), Some(false));
    }

    #[test]
    fn lookahead_catches_upcoming_peaks() {
        let pa = analyzer_with_days(5);
        // 4 hours before the historical daily peak (sin peaks at 6h):
        // capacity of 120 holds now (rate 100 at midnight) but not at the
        // peak (150) within the 4h lookahead window reaching 04:00 where
        // rate = 100+50·sin(2π·4/24) ≈ 143.3.
        let now = t(5, 0, 0);
        assert_eq!(pa.downscale_is_safe(JOB, now, 120.0), Some(false));
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
        assert_eq!(pa.downscale_is_safe(JOB, now, 1.0e9), None);
    }

    #[test]
    fn normal_traffic_is_not_anomalous() {
        let pa = analyzer_with_days(5);
        assert_eq!(pa.is_anomalous(JOB, t(5, 0, 0)), Some(false));
    }

    #[test]
    fn ring_overwrites_after_full_cycle() {
        // With 14-day history, day 15's data lands on day 1's slots.
        let mut pa = PatternAnalyzer::new(PatternConfig {
            history_days: 2,
            min_history_days: 1,
            ..PatternConfig::default()
        });
        // Days 0-1: constant 100. Days 2-3 overwrite the 2-day ring with
        // a sustained 500 — after which 100-era data must be gone.
        let step = Duration::from_mins(10);
        let mut at = SimTime::ZERO;
        while at < t(2, 0, 0) {
            pa.record(JOB, at, 100.0);
            at += step;
        }
        while at < t(4, 0, 0) {
            pa.record(JOB, at, 500.0);
            at += step;
        }
        // At day 4 the recent traffic (500) matches history (500): not
        // anomalous, and capacity 200 is unsafe because the ring now holds
        // the 500-rate days, not the stale 100-rate ones.
        assert_eq!(pa.is_anomalous(JOB, t(4, 0, 0)), Some(false));
        assert_eq!(pa.downscale_is_safe(JOB, t(4, 0, 0), 200.0), Some(false));
        assert_eq!(pa.downscale_is_safe(JOB, t(4, 0, 0), 600.0), Some(true));
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

    #[test]
    #[should_panic(expected = "history_days must be positive")]
    fn an_analyzer_without_history_days_is_refused() {
        PatternAnalyzer::new(PatternConfig {
            history_days: 0,
            ..PatternConfig::default()
        });
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

    #[test]
    fn a_config_that_describes_no_ring_does_not_decode() {
        use turbine_types::SnapError;
        let bad = |config: PatternConfig| decoded::<PatternConfig>(&encoded(&config));
        let ok = PatternConfig::default();
        assert!(bad(ok).is_ok());
        for config in [
            // `record` would compute `bucket % 0`.
            PatternConfig {
                history_days: 0,
                ..ok
            },
            // days x buckets per day overflows.
            PatternConfig {
                history_days: usize::MAX,
                ..ok
            },
            PatternConfig {
                bucket: Duration::ZERO,
                ..ok
            },
            PatternConfig {
                bucket: Duration::from_days(2),
                ..ok
            },
        ] {
            assert!(
                matches!(bad(config), Err(SnapError::Value(_))),
                "{config:?}"
            );
        }
    }

    /// An analyzer over a three-slot ring (one day of eight-hour buckets)
    /// whose one job holds `entries`, as a blob.
    fn blob_with_entries(entries: &[(u64, f64)]) -> Vec<u8> {
        let mut w = turbine_types::SnapWriter::new();
        w.put(&PatternConfig {
            history_days: 1,
            bucket: Duration::from_hours(8),
            ..PatternConfig::default()
        });
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
        for (entries, why) in [
            (&[(4, 1.0), (3, 2.0)][..], "unsorted"),
            (&[(3, 1.0), (3, 2.0)][..], "a bucket twice"),
            (&[(1, 1.0), (4, 2.0)][..], "two buckets on slot 1"),
            (
                &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)][..],
                "four entries, three slots",
            ),
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
        use super::super::{PatternConfig, PatternVerdict};
        use turbine_types::{Duration, SimTime};

        pub struct DenseAnalyzer {
            config: PatternConfig,
            buckets_per_day: u64,
            buckets: Vec<f64>,
            slot_bucket: Vec<u64>,
        }

        impl DenseAnalyzer {
            pub fn new(config: PatternConfig) -> Self {
                let buckets_per_day =
                    Duration::from_days(1).as_millis() / config.bucket.as_millis();
                let total = (buckets_per_day * config.history_days as u64) as usize;
                DenseAnalyzer {
                    config,
                    buckets_per_day,
                    buckets: vec![0.0; total],
                    slot_bucket: vec![u64::MAX; total],
                }
            }

            fn abs_bucket(&self, at: SimTime) -> u64 {
                at.as_millis() / self.config.bucket.as_millis()
            }

            pub fn value_at_abs(&self, abs: u64) -> Option<f64> {
                let slot = (abs % self.buckets.len() as u64) as usize;
                (self.slot_bucket[slot] == abs).then(|| self.buckets[slot])
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
                ((written / self.buckets_per_day) as usize).min(now.as_days_f64() as usize)
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
                let horizon =
                    (self.config.lookahead.as_millis() / self.config.bucket.as_millis()).max(1);
                for day in 1..self.config.history_days as u64 {
                    let day_offset = day * self.buckets_per_day;
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
                let window =
                    (self.config.recent_window.as_millis() / self.config.bucket.as_millis()).max(1);
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
                for day in 1..self.config.history_days as u64 {
                    let day_offset = day * self.buckets_per_day;
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
                let ratio = recent / historical;
                Some(
                    ratio > 1.0 + self.config.anomaly_threshold
                        || ratio < 1.0 / (1.0 + self.config.anomaly_threshold),
                )
            }
        }
    }

    mod against_the_dense_ring {
        use super::dense::DenseAnalyzer;
        use super::*;
        use proptest::prelude::*;

        /// One `record`: how the clock moves (in buckets, from the last
        /// recorded time) and the sample. Moves repeat the bucket, step
        /// on, leave a gap, leap past one or several whole cycles, or go
        /// back in time.
        fn arb_step() -> impl Strategy<Value = (i64, f64)> {
            let movement = prop_oneof![
                Just(0i64),
                Just(1i64),
                1i64..4,
                4i64..30,
                30i64..120,
                -20i64..0,
            ];
            (movement, 0.0f64..400.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn sparse_history_is_the_ring(
                history_days in 1usize..=3,
                bucket_hours in prop::sample::select(vec![4u64, 6, 8, 12]),
                min_history_days in 0usize..3,
                lookahead_buckets in 1u64..8,
                window_buckets in 1u64..4,
                start_bucket in 0u64..40,
                steps in prop::collection::vec(arb_step(), 1..60),
                probes in prop::collection::vec((-30i64..30, 0.0f64..400.0), 60..61),
            ) {
                let bucket = Duration::from_hours(bucket_hours);
                let config = PatternConfig {
                    history_days,
                    bucket,
                    lookahead: Duration::from_millis(bucket.as_millis() * lookahead_buckets),
                    recent_window: Duration::from_millis(bucket.as_millis() * window_buckets),
                    anomaly_threshold: 0.5,
                    min_history_days,
                };
                let mut sparse = PatternAnalyzer::new(config);
                let mut dense = DenseAnalyzer::new(config);
                let total = sparse.total_slots;
                let at_bucket = |b: i64| SimTime::from_millis(b.max(0) as u64 * bucket.as_millis() + 7);
                let mut clock = start_bucket as i64;
                for (step, &(movement, rate)) in steps.iter().enumerate() {
                    clock = (clock + movement).max(0);
                    sparse.record(JOB, at_bucket(clock), rate);
                    dense.record(at_bucket(clock), rate);

                    let history = &sparse.history[&JOB];
                    let (first, last) = (history.entries[0].0, history.entries[history.entries.len() - 1].0);
                    for abs in first.saturating_sub(total + 1)..=last + total + 1 {
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
