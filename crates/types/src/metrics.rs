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
/// Window queries are exact over the tail; over compacted history they
/// count a bucket iff it lies entirely inside the window (bucket
/// granularity, conservative). Full-range queries are exact for mean and
/// max because sums/counts/maxima are preserved under merging.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    raw: Vec<(SimTime, f64)>,
    head: Vec<SeriesBucket>,
    raw_capacity: usize,
    head_capacity: usize,
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
        let raw_capacity = capacity.max(MIN_SERIES_CAPACITY);
        TimeSeries {
            raw: Vec::new(),
            head: Vec::new(),
            raw_capacity,
            head_capacity: (raw_capacity / 2).max(1),
            total: 0,
        }
    }

    /// Append a sample. Samples should arrive in non-decreasing time order
    /// (the simulator guarantees this); queries assume it.
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.raw.last().is_none_or(|&(t, _)| t <= at),
            "samples must be appended in time order"
        );
        if self.raw.len() >= self.raw_capacity {
            self.compact();
        }
        self.raw.push((at, value));
        self.total += 1;
    }

    /// Fold the older half of the exact tail into pairwise buckets, then
    /// pair-merge the bucket head (doubling bucket spans) until it fits.
    fn compact(&mut self) {
        let drain_n = (self.raw_capacity / 2).max(2) & !1;
        for pair in self.raw[..drain_n].chunks(2) {
            let mut bucket = SeriesBucket::from_point(pair[0].0, pair[0].1);
            if let Some(&(t, v)) = pair.get(1) {
                bucket.absorb_point(t, v);
            }
            self.head.push(bucket);
        }
        self.raw.drain(..drain_n);
        while self.head.len() > self.head_capacity {
            let merged: Vec<SeriesBucket> = self
                .head
                .chunks(2)
                .map(|pair| {
                    let mut b = pair[0];
                    if let Some(next) = pair.get(1) {
                        b.merge(next);
                    }
                    b
                })
                .collect();
            self.head = merged;
        }
    }

    /// The exact recent samples still retained, in time order. Until the
    /// series exceeds its capacity this is every sample ever recorded;
    /// afterwards older history lives in [`Self::buckets`].
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.raw
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
        self.raw
            .last()
            .map(|&(_, v)| v)
            .or_else(|| self.head.last().map(|b| b.last))
    }

    /// Time of the most recent sample, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        self.raw
            .last()
            .map(|&(t, _)| t)
            .or_else(|| self.head.last().map(|b| b.end))
    }

    /// Mean of samples with `start <= t < end`; `None` if the window is
    /// empty. Exact over the retained tail; compacted buckets contribute
    /// their sum/count iff they lie entirely inside the window. Used e.g.
    /// for "average input rate in the last 30 minutes" (paper §V-C).
    pub fn mean_in_window(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(t, v) in self.raw.iter().rev() {
            if t >= end {
                continue;
            }
            if t < start {
                break;
            }
            sum += v;
            n += 1;
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
        for &(t, v) in self.raw.iter().rev() {
            if t >= end {
                continue;
            }
            if t < start {
                break;
            }
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
        if let Some(&(t0, _)) = self.raw.first() {
            if at >= t0 {
                return match self.raw.binary_search_by_key(&at, |&(t, _)| t) {
                    Ok(i) => Some(self.raw[i].1),
                    Err(0) => None,
                    Err(i) => Some(self.raw[i - 1].1),
                };
            }
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
        let mut scratch: Vec<f64> = samples.to_vec();
        let n = scratch.len();
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("metric samples must not be NaN");
        // Select the highest rank first; each later selection works on the
        // "everything <= previous pivot" prefix the partition left behind.
        let i95 = nearest_rank_index(n, 0.95);
        let i50 = nearest_rank_index(n, 0.50);
        let i5 = nearest_rank_index(n, 0.05);
        let (_, &mut p95, _) = scratch.select_nth_unstable_by(i95, cmp);
        let (_, &mut p50, _) = scratch[..i95].select_nth_unstable_by(i50, cmp);
        let (_, &mut p5, _) = scratch[..i50.max(1)].select_nth_unstable_by(i5, cmp);
        Percentiles { p5, p50, p95, mean }
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

impl Snap for Counter {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Counter(r.u64("Counter")?))
    }
}

impl Snap for SeriesBucket {
    fn snap(&self, w: &mut SnapWriter) {
        w.put(&self.start);
        w.put(&self.end);
        w.put(&self.sum);
        w.u64(self.count);
        w.put(&self.min);
        w.put(&self.max);
        w.put(&self.last);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SeriesBucket {
            start: r.get()?,
            end: r.get()?,
            sum: r.get()?,
            count: r.u64("SeriesBucket.count")?,
            min: r.get()?,
            max: r.get()?,
            last: r.get()?,
        })
    }
}

impl Snap for TimeSeries {
    fn snap(&self, w: &mut SnapWriter) {
        w.put(&self.raw);
        w.put(&self.head);
        w.put(&self.raw_capacity);
        w.put(&self.head_capacity);
        w.u64(self.total);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TimeSeries {
            raw: r.get()?,
            head: r.get()?,
            raw_capacity: r.get()?,
            head_capacity: r.get()?,
            total: r.u64("TimeSeries.total")?,
        })
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
        assert!(ts.points().len() <= 16);
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
        let retained_raw = ts.points().len() as u64;
        let bucketed: u64 = ts.buckets().iter().map(|b| b.count).sum();
        assert_eq!(retained_raw + bucketed, 10_000);
        assert!(ts.buckets().len() <= 4);
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
