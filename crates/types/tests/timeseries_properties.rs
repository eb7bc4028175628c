//! Property tests for the bounded [`TimeSeries`]: its window queries
//! checked against an unbounded oracle that keeps every sample.

use proptest::prelude::*;
use turbine_types::{Duration, SimTime, TimeSeries};

/// The oracle: every sample, forever, queried with the original exact
/// (pre-compaction) semantics.
struct Oracle {
    points: Vec<(SimTime, f64)>,
}

impl Oracle {
    fn mean_in_window(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let in_window: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= start && t < end)
            .map(|&(_, v)| v)
            .collect();
        (!in_window.is_empty()).then(|| in_window.iter().sum::<f64>() / in_window.len() as f64)
    }

    fn max_in_window(&self, start: SimTime, end: SimTime) -> Option<f64> {
        self.points
            .iter()
            .filter(|&&(t, _)| t >= start && t < end)
            .map(|&(_, v)| v)
            .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
    }

    fn value_at(&self, at: SimTime) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|&&(t, _)| t <= at)
            .map(|&(_, v)| v)
    }

    fn min(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + Duration::from_secs(secs)
}

/// A sample stream: (gap seconds, value) pairs, appended in time order.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((0u64..120, -1000.0f64..1000.0), 1..600)
}

fn build(stream: &[(u64, f64)], capacity: usize) -> (TimeSeries, Oracle) {
    let mut series = TimeSeries::with_capacity(capacity);
    let mut points = Vec::new();
    let mut now = 0u64;
    for &(gap, v) in stream {
        now += gap;
        series.record(t(now), v);
        points.push((t(now), v));
    }
    (series, Oracle { points })
}

proptest! {
    /// Storage is bounded by the configured capacity no matter how many
    /// samples arrive, while the logical length counts everything.
    #[test]
    fn storage_is_bounded(stream in arb_stream(), cap in 8usize..64) {
        let (series, oracle) = build(&stream, cap);
        prop_assert!(series.points().count() <= cap.max(8));
        prop_assert!(series.buckets().len() <= (cap.max(8) / 2).max(1));
        prop_assert_eq!(series.len(), oracle.points.len());
        let retained = series.points().count() as u64
            + series.buckets().iter().map(|b| b.count).sum::<u64>();
        prop_assert_eq!(retained, oracle.points.len() as u64);
    }

    /// Full-range queries are exact vs the unbounded oracle: sums, counts,
    /// and maxima are preserved under pairwise merging.
    #[test]
    fn full_range_queries_match_the_oracle(stream in arb_stream(), cap in 8usize..64) {
        let (series, oracle) = build(&stream, cap);
        let horizon = t(1_000_000);
        let mean = series.mean_in_window(SimTime::ZERO, horizon).expect("non-empty");
        let oracle_mean = oracle.mean_in_window(SimTime::ZERO, horizon).expect("non-empty");
        prop_assert!((mean - oracle_mean).abs() < 1e-9 * oracle_mean.abs().max(1.0));
        prop_assert_eq!(
            series.max_in_window(SimTime::ZERO, horizon),
            oracle.max_in_window(SimTime::ZERO, horizon)
        );
        prop_assert_eq!(series.last(), oracle.points.last().map(|&(_, v)| v));
    }

    /// Queries confined to the retained exact tail match the oracle
    /// sample for sample.
    #[test]
    fn tail_window_queries_are_exact(stream in arb_stream(), cap in 8usize..64) {
        let (series, oracle) = build(&stream, cap);
        let Some((tail_start, _)) = series.points().next() else {
            return Ok(());
        };
        let end = t(1_000_000);
        prop_assert_eq!(
            series.max_in_window(tail_start, end),
            oracle.max_in_window(tail_start, end)
        );
        if let Some(mean) = series.mean_in_window(tail_start, end) {
            let oracle_mean = oracle.mean_in_window(tail_start, end).expect("non-empty");
            prop_assert!((mean - oracle_mean).abs() < 1e-9 * oracle_mean.abs().max(1.0));
        }
        // Point lookups inside the tail are exact.
        for (at, _) in series.points() {
            prop_assert_eq!(series.value_at(at), oracle.value_at(at));
        }
    }

    /// Arbitrary windows: the bounded series answers from samples the
    /// oracle also saw, so results stay inside the oracle's value range;
    /// compacted buckets are only counted when fully inside the window, so
    /// the mean never includes out-of-window history.
    #[test]
    fn arbitrary_windows_stay_within_oracle_bounds(
        stream in arb_stream(),
        cap in 8usize..64,
        start_secs in 0u64..40_000,
        span_secs in 1u64..40_000,
    ) {
        let (series, oracle) = build(&stream, cap);
        let (start, end) = (t(start_secs), t(start_secs + span_secs));
        if let Some(mean) = series.mean_in_window(start, end) {
            prop_assert!(mean >= oracle.min() - 1e-9 && mean <= oracle.max() + 1e-9);
        }
        if let Some(max) = series.max_in_window(start, end) {
            // A bucket-granular max can skip partially-covered buckets but
            // can never invent a value the oracle did not record.
            prop_assert!(max <= oracle.max() + 1e-9);
            prop_assert!(max >= oracle.min() - 1e-9);
        }
        if let Some(v) = series.value_at(start) {
            prop_assert!(v >= oracle.min() - 1e-9 && v <= oracle.max() + 1e-9);
        }
    }

    /// A series whose capacity exceeds the stream length never compacts:
    /// every query is bit-identical to the oracle.
    #[test]
    fn uncompacted_series_is_bit_exact(stream in arb_stream()) {
        let (series, oracle) = build(&stream, 1024);
        prop_assert_eq!(series.points().count(), oracle.points.len());
        prop_assert!(series.buckets().is_empty());
        for probe in [0u64, 17, 500, 5_000, 50_000] {
            prop_assert_eq!(series.value_at(t(probe)), oracle.value_at(t(probe)));
            prop_assert_eq!(
                series.max_in_window(t(probe), t(probe + 1000)),
                oracle.max_in_window(t(probe), t(probe + 1000))
            );
        }
    }
}
