//! Metric primitives: time series, percentile summaries, CDFs.
//!
//! The paper's evaluation reports p5/p50/p95 utilization bands (Fig. 6, 7),
//! CDFs of per-task footprints (Fig. 5), and long-horizon series of traffic
//! and task counts (Fig. 1, 8, 9). These light-weight recorders back all of
//! those without any external dependency.
//!
//! [`TimeSeries`] is **bounded**: it keeps an exact tail of recent samples
//! and deterministically downsamples older history into aggregate
//! [`SeriesBucket`]s, so a multi-day soak (or the ODS registry, which keeps
//! one series per metric per job) cannot grow memory without bound.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::snap_struct;
use crate::time::SimTime;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// One compacted span of downsampled history: the aggregate of a run of
/// consecutive samples that have been evicted from the exact tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesBucket {
    /// Time of the first sample folded into this bucket.
    pub start: SimTime,
    /// Time of the last sample folded into this bucket.
    pub end: SimTime,
    /// Sum of the folded sample values.
    pub sum: f64,
    /// Number of folded samples.
    pub count: u64,
    /// Smallest folded sample value.
    pub min: f64,
    /// Largest folded sample value.
    pub max: f64,
    /// Value of the last folded sample.
    pub last: f64,
}

impl SeriesBucket {
    fn from_point(at: SimTime, v: f64) -> Self {
        SeriesBucket {
            start: at,
            end: at,
            sum: v,
            count: 1,
            min: v,
            max: v,
            last: v,
        }
    }

    fn absorb_point(&mut self, at: SimTime, v: f64) {
        self.end = at;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    fn merge(&mut self, other: &SeriesBucket) {
        self.end = other.end;
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
    }
}

/// Default exact-tail capacity: a 48-hour soak at the default 1-minute
/// metric cadence (2 880 samples) fits entirely in the tail, so existing
/// figure/bench consumers see identical data, while indefinitely long runs
/// stay bounded.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Smallest accepted exact-tail capacity (the compaction step drains the
/// older half in pairs, which needs a few points to be meaningful).
const MIN_SERIES_CAPACITY: usize = 8;

/// A regular stretch of the exact tail's time axis: `count` samples, the
/// `i`-th at `start + step_ms * i`. A one-sample stretch has step 0 and
/// takes whatever step its second sample gives it.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    start: SimTime,
    step_ms: u64,
    count: u32,
}

impl Stretch {
    const EMPTY: Stretch = Stretch {
        start: SimTime::ZERO,
        step_ms: 0,
        count: 0,
    };

    fn single(at: SimTime) -> Self {
        Stretch {
            start: at,
            step_ms: 0,
            count: 1,
        }
    }

    /// Instant of sample `i`.
    fn at(&self, i: u32) -> SimTime {
        SimTime::from_millis(self.start.as_millis() + self.step_ms * u64::from(i))
    }

    /// Take `at` as the next sample if it falls on the stretch's cadence.
    fn try_extend(&mut self, at: SimTime) -> bool {
        let Some(gap) = at.as_millis().checked_sub(self.start.as_millis()) else {
            return false;
        };
        if self.count == 1 {
            self.step_ms = gap;
        } else if self.step_ms.checked_mul(u64::from(self.count)) != Some(gap) {
            return false;
        }
        self.count += 1;
        true
    }

    /// Drop the oldest `n <= count` samples. What is left of a stretch cut
    /// down to one sample has no step again.
    fn trim_front(&mut self, n: u32) {
        *self = match self.count - n {
            0 => Stretch::EMPTY,
            1 => Stretch::single(self.at(n)),
            count => Stretch {
                start: self.at(n),
                count,
                ..*self
            },
        };
    }

    /// Number of samples at or before `t`.
    fn samples_through(&self, t: SimTime) -> u32 {
        match t.as_millis().checked_sub(self.start.as_millis()) {
            None => 0,
            Some(_) if self.step_ms == 0 => self.count,
            Some(span) => (span / self.step_ms)
                .saturating_add(1)
                .min(u64::from(self.count)) as u32,
        }
    }
}

/// A run of bit-equal consecutive samples of the exact tail: the value's
/// bit pattern, in two halves so that a run is 12 B and not 16, and the
/// run's end as a sample index into the tail (exclusive, cumulative).
#[derive(Debug, Clone, Copy)]
struct Run {
    bits: [u32; 2],
    end: u32,
}

impl Run {
    fn new(bits: u64, end: u32) -> Self {
        Run {
            bits: [bits as u32, (bits >> 32) as u32],
            end,
        }
    }

    fn bits(&self) -> u64 {
        u64::from(self.bits[1]) << 32 | u64::from(self.bits[0])
    }

    fn value(&self) -> f64 {
        f64::from_bits(self.bits())
    }
}

/// A bounded series of timestamped samples: an exact recent tail plus a
/// deterministically downsampled head.
///
/// Samples are appended in non-decreasing time order. While fewer than the
/// configured capacity have been recorded, the series is exact. Once the
/// tail fills, its older half is folded pairwise into [`SeriesBucket`]
/// aggregates; when the bucket head itself fills, adjacent buckets are
/// pair-merged (doubling their span). The compaction schedule depends only
/// on the sample sequence, so two identical runs produce identical series.
///
/// The exact tail is run-encoded, so a series costs what changed in it:
/// its time axis is a list of regular stretches (one per unbroken cadence,
/// 24 B each however many samples they span) and its values are runs of
/// bit-equal samples (12 B a run). The capacity still counts samples, so
/// the encoding changes what a series costs and nothing it answers.
///
/// Window queries are exact over the tail; over compacted history they
/// count a bucket iff it lies entirely inside the window (bucket
/// granularity, conservative). Full-range queries are exact for mean and
/// max because sums/counts/maxima are preserved under merging.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// The tail's first stretch, inline (`count` 0 while the tail is
    /// empty): a series sampled by one cadence never allocates for time.
    first: Stretch,
    /// The stretches after a skipped round, a cadence change or a restore.
    more: Vec<Stretch>,
    /// The tail's values, one entry per run of bit-equal consecutive
    /// samples; the last run's end is the tail's length.
    runs: Vec<Run>,
    head: Vec<SeriesBucket>,
    raw_capacity: u32,
    total: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SERIES_CAPACITY)
    }
}

impl TimeSeries {
    /// Empty series with the default bounded capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty series retaining at most `capacity` exact samples (clamped to
    /// a small minimum); older history is downsampled into at most
    /// `capacity / 2` aggregate buckets. Memory stays proportional to
    /// `capacity` no matter how many samples are recorded.
    pub fn with_capacity(capacity: usize) -> Self {
        TimeSeries {
            first: Stretch::EMPTY,
            more: Vec::new(),
            runs: Vec::new(),
            head: Vec::new(),
            raw_capacity: capacity.clamp(MIN_SERIES_CAPACITY, u32::MAX as usize) as u32,
            total: 0,
        }
    }

    /// Retain at least `capacity` exact samples from now on. Nothing
    /// recorded moves: the tail compacts only once it is full, and a larger
    /// capacity only postpones that.
    pub fn raise_capacity(&mut self, capacity: usize) {
        let capacity = capacity.clamp(MIN_SERIES_CAPACITY, u32::MAX as usize) as u32;
        self.raw_capacity = self.raw_capacity.max(capacity);
    }

    /// Most buckets the head may hold before it pair-merges.
    fn head_capacity(&self) -> usize {
        (self.raw_capacity as usize / 2).max(1)
    }

    /// Number of samples in the exact tail.
    fn tail_len(&self) -> u32 {
        self.runs.last().map_or(0, |run| run.end)
    }

    /// The tail's stretches in time order. Only the inline first one can
    /// be empty (an empty tail), and then there are none.
    fn stretches(&self) -> impl Iterator<Item = &Stretch> {
        let first = (self.first.count > 0).then_some(&self.first);
        first.into_iter().chain(&self.more)
    }

    /// Number of tail samples at or before `t`.
    fn tail_through(&self, t: SimTime) -> u32 {
        self.stretches().map(|s| s.samples_through(t)).sum()
    }

    /// Number of tail samples strictly before `t`.
    fn tail_before(&self, t: SimTime) -> u32 {
        t.as_millis()
            .checked_sub(1)
            .map_or(0, |ms| self.tail_through(SimTime::from_millis(ms)))
    }

    /// Append a sample. Samples should arrive in non-decreasing time order
    /// (the simulator guarantees this); queries assume it.
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.tail_len() == 0 || self.last_at().is_some_and(|t| t <= at),
            "samples must be appended in time order"
        );
        if self.tail_len() >= self.raw_capacity {
            self.compact();
        }
        let len = self.tail_len();
        let newest = self.more.last_mut().unwrap_or(&mut self.first);
        if len == 0 {
            self.first = Stretch::single(at);
        } else if !newest.try_extend(at) {
            self.more.push(Stretch::single(at));
        }
        // Bit equality, not `==`: `-0.0` and `0.0` stay distinct samples.
        match self.runs.last_mut() {
            Some(run) if run.bits() == value.to_bits() => run.end += 1,
            _ => self.runs.push(Run::new(value.to_bits(), len + 1)),
        }
        self.total += 1;
    }

    /// Fold the older half of the exact tail into pairwise buckets, then
    /// pair-merge the bucket head (doubling bucket spans) until it fits.
    fn compact(&mut self) {
        let drain_n = (self.raw_capacity / 2).max(2) & !1;
        let mut head = std::mem::take(&mut self.head);
        let mut oldest = self.points().take(drain_n as usize);
        while let Some((at, v)) = oldest.next() {
            let mut bucket = SeriesBucket::from_point(at, v);
            if let Some((t, v)) = oldest.next() {
                bucket.absorb_point(t, v);
            }
            head.push(bucket);
        }
        drop(oldest);
        self.drop_oldest(drain_n);
        while head.len() > self.head_capacity() {
            head = head
                .chunks(2)
                .map(|pair| {
                    let mut b = pair[0];
                    if let Some(next) = pair.get(1) {
                        b.merge(next);
                    }
                    b
                })
                .collect();
        }
        self.head = head;
    }

    /// Drop the oldest `n <= tail_len` samples from the stretches and the
    /// runs, rebasing the run ends onto the new first sample.
    fn drop_oldest(&mut self, n: u32) {
        let mut left = n;
        loop {
            let cut = self.first.count.min(left);
            self.first.trim_front(cut);
            left -= cut;
            if self.first.count > 0 || self.more.is_empty() {
                break;
            }
            self.first = self.more.remove(0);
        }
        let gone = self.runs.partition_point(|run| run.end <= n);
        self.runs.drain(..gone);
        for run in &mut self.runs {
            run.end -= n;
        }
    }

    /// The exact recent samples still retained, in time order. Until the
    /// series exceeds its capacity this is every sample ever recorded;
    /// afterwards older history lives in [`Self::buckets`].
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let mut run = 0;
        self.stretches()
            .flat_map(|s| (0..s.count).map(move |i| s.at(i)))
            .zip(0u32..)
            .map(move |(at, i)| {
                while self.runs[run].end <= i {
                    run += 1;
                }
                (at, self.runs[run].value())
            })
    }

    /// The value runs of the tail samples with `start <= t < end`, newest
    /// first, each with how many of its samples fall in the window.
    fn runs_in_window(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> impl Iterator<Item = (f64, u32)> + '_ {
        // Times ascend, so the window is the sample-index range `lo..hi`.
        let (lo, hi) = (self.tail_before(start), self.tail_before(end));
        let runs = if lo < hi {
            // From the run holding sample `lo` to the one holding `hi - 1`.
            self.runs.partition_point(|run| run.end <= lo)
                ..self.runs.partition_point(|run| run.end < hi) + 1
        } else {
            0..0
        };
        runs.rev().map(move |r| {
            let from = if r == 0 { 0 } else { self.runs[r - 1].end };
            (
                self.runs[r].value(),
                self.runs[r].end.min(hi) - from.max(lo),
            )
        })
    }

    /// The downsampled aggregate buckets covering history older than the
    /// exact tail, in time order (empty until compaction first runs).
    pub fn buckets(&self) -> &[SeriesBucket] {
        &self.head
    }

    /// Number of samples ever recorded (including downsampled ones).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Most recent sample value, if any.
    pub fn last(&self) -> Option<f64> {
        self.runs
            .last()
            .map(Run::value)
            .or_else(|| self.head.last().map(|b| b.last))
    }

    /// Time of the most recent sample, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        let newest = self.more.last().unwrap_or(&self.first);
        match newest.count {
            0 => self.head.last().map(|b| b.end),
            n => Some(newest.at(n - 1)),
        }
    }

    /// Mean of samples with `start <= t < end`; `None` if the window is
    /// empty. Exact over the retained tail; compacted buckets contribute
    /// their sum/count iff they lie entirely inside the window. Used e.g.
    /// for "average input rate in the last 30 minutes" (paper §V-C).
    pub fn mean_in_window(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (v, repeats) in self.runs_in_window(start, end) {
            // One addition per sample, newest first: the sum is the one a
            // sample-by-sample walk gives, bit for bit.
            for _ in 0..repeats {
                sum += v;
            }
            n += u64::from(repeats);
        }
        for b in self.head.iter().rev() {
            if b.end >= end {
                continue;
            }
            if b.start < start {
                break;
            }
            sum += b.sum;
            n += b.count;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Maximum sample value in `start <= t < end`. Exact over the retained
    /// tail; compacted buckets contribute their max iff entirely inside
    /// the window.
    pub fn max_in_window(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let mut max: Option<f64> = None;
        for (v, _) in self.runs_in_window(start, end) {
            max = Some(max.map_or(v, |m: f64| m.max(v)));
        }
        for b in self.head.iter().rev() {
            if b.end >= end {
                continue;
            }
            if b.start < start {
                break;
            }
            max = Some(max.map_or(b.max, |m: f64| m.max(b.max)));
        }
        max
    }

    /// Value of the latest sample at or before `at`. Exact within the
    /// retained tail; in compacted history the resolution degrades to
    /// bucket granularity (the containing bucket's last value).
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        let through = self.tail_through(at);
        if through > 0 {
            let run = self.runs.partition_point(|run| run.end < through);
            return Some(self.runs[run].value());
        }
        let i = self.head.partition_point(|b| b.start <= at);
        (i > 0).then(|| self.head[i - 1].last)
    }
}

/// Percentile summary of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Snapshot size above which [`Percentiles::from_samples`] switches from a
/// full sort to O(n) selection. Below it the sort path is kept verbatim so
/// small-fleet runs stay bit-for-bit identical (the sorted-order mean sum
/// rounds differently from an input-order sum).
const SELECT_THRESHOLD: usize = 1024;

impl Percentiles {
    /// Compute p5/p50/p95/mean from `samples`. Returns the zero summary for
    /// an empty input. Uses the nearest-rank method: a sorted copy for
    /// small snapshots, and O(n) selection of the three order statistics
    /// for snapshots past `SELECT_THRESHOLD` — at 100k-host scale a full
    /// O(n log n) sort per dashboard render dominates the sample pass. The
    /// selected ranks are exactly the sort path's (the nearest-rank value
    /// is a unique order statistic); only the mean's summation order
    /// differs at large n.
    pub fn from_samples(samples: &[f64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        if samples.len() <= SELECT_THRESHOLD {
            let mut sorted: Vec<f64> = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric samples must not be NaN"));
            let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
            return Percentiles {
                p5: nearest_rank(&sorted, 0.05),
                p50: nearest_rank(&sorted, 0.50),
                p95: nearest_rank(&sorted, 0.95),
                mean,
            };
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let [p5, p50, p95] = Percentiles::ranks(&mut samples.to_vec());
        Percentiles { p5, p50, p95, mean }
    }

    /// The nearest-rank p5, p50 and p95 of `samples`, selected in place:
    /// the slice is reordered and nothing is allocated, for a caller that
    /// keeps its sample buffer between rounds. Each is the unique order
    /// statistic [`Percentiles::from_samples`] reports. Panics on an empty
    /// slice.
    pub fn ranks(samples: &mut [f64]) -> [f64; 3] {
        let n = samples.len();
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("metric samples must not be NaN");
        // Select the highest rank first; each later selection works on the
        // "everything <= previous pivot" prefix the partition left behind.
        let i95 = nearest_rank_index(n, 0.95);
        let i50 = nearest_rank_index(n, 0.50);
        let i5 = nearest_rank_index(n, 0.05);
        let (_, &mut p95, _) = samples.select_nth_unstable_by(i95, cmp);
        let (_, &mut p50, _) = samples[..=i95].select_nth_unstable_by(i50, cmp);
        let (_, &mut p5, _) = samples[..=i50].select_nth_unstable_by(i5, cmp);
        [p5, p50, p95]
    }
}

/// 0-based index of the nearest-rank percentile in a sorted collection of
/// `n` samples. This is **the** quantile rank used everywhere in the
/// workspace — [`Percentiles`], [`Cdf`], and the dashboard's per-tier
/// recovery quantiles all share it, so their answers agree bit for bit.
pub fn nearest_rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an already-sorted slice (must be non-empty).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    sorted[nearest_rank_index(sorted.len(), q)]
}

/// Nearest-rank percentile of an already-sorted `u64` slice (must be
/// non-empty) — the integer twin of [`nearest_rank`], for millisecond
/// durations kept sorted incrementally (per-tier recovery vectors).
pub fn nearest_rank_u64(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    sorted[nearest_rank_index(sorted.len(), q)]
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs are rejected with a panic since they
    /// indicate a modelling bug upstream).
    pub fn from_samples(samples: &[f64]) -> Cdf {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("CDF samples must not be NaN"));
        Cdf { sorted }
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value v such that a fraction `q` of
    /// samples are `<= v`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(nearest_rank(&self.sorted, q.clamp(0.0, 1.0)))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

snap_struct!(Counter(count));

snap_struct!(SeriesBucket {
    start,
    end,
    sum,
    count,
    min,
    max,
    last
});

snap_struct!(Stretch { start, step_ms, count }
    // Not empty, a lone sample without a step (the form `record` and
    // `trim_front` keep), and a last instant that exists.
    check |s| match s.count {
        0 => false,
        1 => s.step_ms == 0,
        n => s.step_ms.checked_mul(u64::from(n - 1))
            .is_some_and(|span| s.start.as_millis().checked_add(span).is_some()),
    } => "Stretch");

/// The stream holds what memory holds: the tail's stretches, its runs as
/// (value bits, run length), the head buckets, the capacity and the total.
/// Decoding checks every bound `record` and `compact` rely on, so a blob
/// with valid chunk hashes cannot restore a series that hangs or panics.
///
/// By hand: the first stretch lives inline and the runs are stored as
/// cumulative ends, so neither is a field written as it is held.
impl Snap for TimeSeries {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.stretches().count() as u64);
        for stretch in self.stretches() {
            w.put(stretch);
        }
        w.u64(self.runs.len() as u64);
        let mut from = 0;
        for run in &self.runs {
            w.u64(run.bits());
            w.u32(run.end - from);
            from = run.end;
        }
        w.put(&self.head);
        w.u32(self.raw_capacity);
        w.u64(self.total);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let stretches = r.len_prefix("TimeSeries.stretches")?;
        let first = match stretches {
            0 => Stretch::EMPTY,
            _ => r.get()?,
        };
        let more = (1..stretches)
            .map(|_| r.get())
            .collect::<Result<Vec<Stretch>, _>>()?;
        let run_count = r.len_prefix("TimeSeries.runs")?;
        let mut runs = Vec::with_capacity(r.prealloc::<Run>(run_count));
        let mut tail_len = 0u32;
        for _ in 0..run_count {
            let bits = r.u64("TimeSeries.run value")?;
            let repeats = r.u32("TimeSeries.run length")?;
            tail_len = match tail_len.checked_add(repeats) {
                Some(end) if repeats > 0 => end,
                _ => return Err(SnapError::Value("TimeSeries run length")),
            };
            runs.push(Run::new(bits, tail_len));
        }
        let head: Vec<SeriesBucket> = r.get()?;
        let raw_capacity = r.u32("TimeSeries.raw_capacity")?;
        let total = r.u64("TimeSeries.total")?;
        let series = TimeSeries {
            first,
            more,
            runs,
            head,
            raw_capacity,
            total,
        };
        let timed = series
            .stretches()
            .try_fold(0u32, |sum, s| sum.checked_add(s.count));
        let recorded = series
            .head
            .iter()
            .try_fold(u64::from(tail_len), |sum, b| sum.checked_add(b.count));
        if (raw_capacity as usize) < MIN_SERIES_CAPACITY {
            Err(SnapError::Value("TimeSeries.raw_capacity"))
        } else if series.head.len() > series.head_capacity() {
            Err(SnapError::Value("TimeSeries head over capacity"))
        } else if timed != Some(tail_len) || tail_len > raw_capacity {
            Err(SnapError::Value("TimeSeries tail length"))
        } else if recorded.is_none_or(|n| n > total) {
            Err(SnapError::Value("TimeSeries.total"))
        } else {
            Ok(series)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn empty_samples_yield_the_finite_zero_summary() {
        // Regression: an empty snapshot must not produce NaN (a naive
        // mean would be 0/0). Callers that want "no sample" semantics
        // must skip recording instead.
        let p = Percentiles::from_samples(&[]);
        assert_eq!(p, Percentiles::default());
        for v in [p.p5, p.p50, p.p95, p.mean] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timeseries_window_queries() {
        let mut ts = TimeSeries::new();
        for (sec, v) in [(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)] {
            ts.record(t(sec), v);
        }
        assert_eq!(ts.last(), Some(4.0));
        assert_eq!(ts.mean_in_window(t(10), t(30)), Some(2.5));
        assert_eq!(ts.max_in_window(t(0), t(31)), Some(4.0));
        assert_eq!(ts.mean_in_window(t(100), t(200)), None);
    }

    #[test]
    fn timeseries_value_at_finds_latest_before() {
        let mut ts = TimeSeries::new();
        ts.record(t(10), 1.0);
        ts.record(t(20), 2.0);
        assert_eq!(ts.value_at(t(5)), None);
        assert_eq!(ts.value_at(t(10)), Some(1.0));
        assert_eq!(ts.value_at(t(15)), Some(1.0));
        assert_eq!(ts.value_at(t(25)), Some(2.0));
    }

    #[test]
    fn timeseries_compacts_past_capacity() {
        let mut ts = TimeSeries::with_capacity(16);
        for i in 0..100u64 {
            ts.record(t(i * 10), i as f64);
        }
        // Bounded storage, full logical length.
        assert!(ts.points().count() <= 16);
        assert!(ts.buckets().len() <= 8);
        assert_eq!(ts.len(), 100);
        assert_eq!(ts.last(), Some(99.0));
        assert_eq!(ts.last_at(), Some(t(990)));
        // Full-range aggregates survive compaction exactly.
        let mean = ts.mean_in_window(SimTime::ZERO, t(10_000)).expect("mean");
        assert!((mean - 49.5).abs() < 1e-9);
        assert_eq!(ts.max_in_window(SimTime::ZERO, t(10_000)), Some(99.0));
        // Recent-window queries stay exact.
        assert_eq!(ts.mean_in_window(t(970), t(1000)), Some(98.0));
        assert_eq!(ts.value_at(t(985)), Some(98.0));
        // Old lookups degrade to bucket granularity but stay in range.
        let old = ts.value_at(t(100)).expect("covered by compacted history");
        assert!((0.0..=99.0).contains(&old));
    }

    #[test]
    fn timeseries_total_counts_are_preserved_under_merging() {
        let mut ts = TimeSeries::with_capacity(8);
        for i in 0..10_000u64 {
            ts.record(t(i), 1.0);
        }
        assert_eq!(ts.len(), 10_000);
        let retained_raw = ts.points().count() as u64;
        let bucketed: u64 = ts.buckets().iter().map(|b| b.count).sum();
        assert_eq!(retained_raw + bucketed, 10_000);
        assert!(ts.buckets().len() <= 4);
    }

    /// A `TimeSeries` stream written by hand: stretches as `(start_ms,
    /// step_ms, count)`, runs as `(value, length)`.
    fn series_stream(
        stretches: &[(u64, u64, u32)],
        runs: &[(f64, u32)],
        head: &[SeriesBucket],
        raw_capacity: u32,
        total: u64,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(stretches.len() as u64);
        for &(start, step_ms, count) in stretches {
            w.u64(start);
            w.u64(step_ms);
            w.u32(count);
        }
        w.u64(runs.len() as u64);
        for &(v, len) in runs {
            w.put(&v);
            w.u32(len);
        }
        w.put(&head.to_vec());
        w.u32(raw_capacity);
        w.u64(total);
        w.into_bytes()
    }

    fn decode_series(bytes: &[u8]) -> Result<TimeSeries, SnapError> {
        let mut r = SnapReader::new(bytes);
        let series = TimeSeries::unsnap(&mut r)?;
        r.expect_end()?;
        Ok(series)
    }

    #[test]
    fn hostile_series_streams_are_typed_errors() {
        let bucket = |count| SeriesBucket {
            count,
            ..SeriesBucket::from_point(t(0), 1.0)
        };
        // Two stretches, three runs, a full tail under the smallest
        // capacity: the next `record` compacts.
        let stretches = [(60_000, 60_000, 5), (400_000, 0, 1), (400_000, 1_000, 2)];
        let runs = [(1.0, 4), (-0.0, 1), (0.0, 3)];
        let whole = series_stream(&stretches, &runs, &[bucket(2)], 8, 10);
        let mut series = decode_series(&whole).expect("a valid series decodes");
        assert_eq!(series.points().count(), 8);
        assert_eq!(
            series.value_at(t(400)).map(f64::to_bits),
            Some(0f64.to_bits())
        );
        assert_eq!(
            series.value_at(t(399)).map(f64::to_bits),
            Some((-0f64).to_bits())
        );
        series.record(t(500), 2.0);
        assert_eq!((series.points().count(), series.buckets().len()), (5, 3));
        assert_eq!(series.len(), 11);

        let many = [bucket(1); 5];
        for (stream, why) in [
            (
                series_stream(&stretches, &runs, &[], 7, 8),
                "capacity under the minimum",
            ),
            (series_stream(&[], &[], &[], 0, 0), "capacity 0"),
            (
                series_stream(&[], &[], &many, 8, 5),
                "head longer than capacity / 2",
            ),
            (
                series_stream(&[(0, 0, 0)], &[], &[], 8, 0),
                "an empty stretch",
            ),
            (
                series_stream(&[(0, 60_000, 1)], &[(1.0, 1)], &[], 8, 1),
                "a lone sample with a step",
            ),
            (
                series_stream(&[(u64::MAX - 5, 3, 3)], &[(1.0, 3)], &[], 8, 3),
                "a stretch past the end of time",
            ),
            (
                series_stream(&[(0, u64::MAX, 3)], &[(1.0, 3)], &[], 8, 3),
                "a step that overflows",
            ),
            (
                series_stream(&[(0, 1, 3)], &[(1.0, 3), (2.0, 0)], &[], 8, 3),
                "an empty run",
            ),
            (
                series_stream(&[(0, 1, 3)], &[(1.0, u32::MAX), (2.0, 4)], &[], 8, 3),
                "run lengths that overflow",
            ),
            (
                series_stream(&[(0, 1, 3)], &[(1.0, 2)], &[], 8, 3),
                "fewer values than instants",
            ),
            (
                series_stream(&[(0, 1, 3)], &[(1.0, 4)], &[], 8, 4),
                "more values than instants",
            ),
            (
                series_stream(&[(0, 1, 9)], &[(1.0, 9)], &[], 8, 9),
                "a tail over capacity",
            ),
            (
                series_stream(&stretches, &runs, &[bucket(2)], 8, 9),
                "a total under what is held",
            ),
            (
                series_stream(&stretches, &runs, &[bucket(u64::MAX), bucket(9)], 8, 20),
                "bucket counts that overflow",
            ),
        ] {
            assert!(
                matches!(decode_series(&stream), Err(SnapError::Value(_))),
                "{why}: {:?}",
                decode_series(&stream).map(|s| s.len())
            );
        }
        // A length no stream of this size can hold is refused before
        // anything is allocated for it, and a cut anywhere is an error.
        for at in [0, 8 + 3 * 20] {
            let mut huge = whole.clone();
            huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                matches!(decode_series(&huge), Err(SnapError::Eof(_))),
                "length at {at}"
            );
        }
        for cut in 0..whole.len() {
            assert!(decode_series(&whole[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn a_series_sampled_by_one_cadence_is_one_stretch() {
        let mut ts = TimeSeries::with_capacity(16);
        for i in 0..100u64 {
            ts.record(t(i * 60), (i / 10) as f64);
        }
        // Through eleven compactions: still the inline stretch, a run per
        // distinct value.
        assert!(ts.more.is_empty());
        assert_eq!(ts.first.count, ts.tail_len());
        assert_eq!(ts.runs.len(), 2);
        assert_eq!(std::mem::size_of::<Run>(), 12);
        // A skipped round opens a second stretch; a repeated instant is a
        // step of zero, not a third.
        ts.record(t(100 * 60 + 60), 9.0);
        ts.record(t(100 * 60 + 60), 9.0);
        assert_eq!(ts.more.len(), 1);
        assert_eq!((ts.more[0].step_ms, ts.more[0].count), (0, 2));
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&samples);
        assert_eq!(p.p5, 5.0);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert!((p.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_of_empty_and_singleton() {
        assert_eq!(Percentiles::from_samples(&[]), Percentiles::default());
        let p = Percentiles::from_samples(&[7.0]);
        assert_eq!((p.p5, p.p50, p.p95), (7.0, 7.0, 7.0));
    }

    #[test]
    fn nearest_rank_variants_agree() {
        let as_u64 = [1u64, 5, 7, 7, 33, 90, 120];
        let as_f64: Vec<f64> = as_u64.iter().map(|&v| v as f64).collect();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                nearest_rank_u64(&as_u64, q),
                nearest_rank(&as_f64, q) as u64,
                "u64 and f64 nearest-rank must agree at q={q}"
            );
        }
        assert_eq!(nearest_rank_index(1, 0.0), 0);
        assert_eq!(nearest_rank_index(1, 1.0), 0);
        assert_eq!(nearest_rank_index(100, 0.95), 94);
    }

    #[test]
    fn selection_path_matches_the_sort_path() {
        // Reference implementation: the pre-selection full-sort path.
        fn reference(samples: &[f64]) -> Percentiles {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            Percentiles {
                p5: nearest_rank(&sorted, 0.05),
                p50: nearest_rank(&sorted, 0.50),
                p95: nearest_rank(&sorted, 0.95),
                mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            }
        }
        // Deterministic pseudo-random snapshot well past SELECT_THRESHOLD,
        // with duplicates, plus a couple of boundary sizes.
        for n in [
            1,
            2,
            3,
            20,
            SELECT_THRESHOLD - 1,
            SELECT_THRESHOLD,
            SELECT_THRESHOLD + 1,
            10_000,
        ] {
            let mut x = 0x9E3779B97F4A7C15u64;
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) % 1000) as f64 / 10.0
                })
                .collect();
            let fast = Percentiles::from_samples(&samples);
            let slow = reference(&samples);
            // In place, at every size: the same three order statistics.
            assert_eq!(
                Percentiles::ranks(&mut samples.clone()),
                [slow.p5, slow.p50, slow.p95],
                "ranks at n={n}"
            );
            // The percentile ranks are unique order statistics: exact.
            assert_eq!(fast.p5, slow.p5, "p5 at n={n}");
            assert_eq!(fast.p50, slow.p50, "p50 at n={n}");
            assert_eq!(fast.p95, slow.p95, "p95 at n={n}");
            // The mean may differ only by summation order.
            assert!((fast.mean - slow.mean).abs() < 1e-9 * slow.mean.abs().max(1.0));
            // At or below the threshold the whole summary is bit-identical.
            if n <= SELECT_THRESHOLD {
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn cdf_fraction_and_quantile_agree() {
        let samples: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.fraction_at_or_below(5.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
        assert_eq!(cdf.quantile(0.5), Some(5.0));
    }

    #[test]
    fn cdf_empty_is_well_behaved() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
    }
}
