//! The run-encoded [`TimeSeries`] held to the representation it replaced:
//! one `(SimTime, f64)` per sample. The old type is kept here as the
//! model, and after every append every query of the two must agree bit for
//! bit — through compaction, head pair-merging and an encode/decode.

use proptest::prelude::*;
use turbine_types::{SeriesBucket, SimTime, Snap, SnapReader, SnapWriter, TimeSeries};

/// `TimeSeries` as it was before the run encoding, verbatim except that
/// `SeriesBucket`'s private folds are free functions here and `value_at`
/// says which of several samples at one instant it means (see there).
mod model {
    use turbine_types::{SeriesBucket, SimTime};

    fn from_point(at: SimTime, v: f64) -> SeriesBucket {
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

    fn absorb_point(b: &mut SeriesBucket, at: SimTime, v: f64) {
        b.end = at;
        b.sum += v;
        b.count += 1;
        b.min = b.min.min(v);
        b.max = b.max.max(v);
        b.last = v;
    }

    fn merge(b: &mut SeriesBucket, other: &SeriesBucket) {
        b.end = other.end;
        b.sum += other.sum;
        b.count += other.count;
        b.min = b.min.min(other.min);
        b.max = b.max.max(other.max);
        b.last = other.last;
    }

    const MIN_SERIES_CAPACITY: usize = 8;

    #[derive(Debug, Clone)]
    pub struct TimeSeries {
        raw: Vec<(SimTime, f64)>,
        head: Vec<SeriesBucket>,
        raw_capacity: usize,
        head_capacity: usize,
        total: u64,
    }

    impl TimeSeries {
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

        fn compact(&mut self) {
            let drain_n = (self.raw_capacity / 2).max(2) & !1;
            for pair in self.raw[..drain_n].chunks(2) {
                let mut bucket = from_point(pair[0].0, pair[0].1);
                if let Some(&(t, v)) = pair.get(1) {
                    absorb_point(&mut bucket, t, v);
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
                            merge(&mut b, next);
                        }
                        b
                    })
                    .collect();
                self.head = merged;
            }
        }

        pub fn points(&self) -> &[(SimTime, f64)] {
            &self.raw
        }

        pub fn buckets(&self) -> &[SeriesBucket] {
            &self.head
        }

        pub fn len(&self) -> usize {
            self.total as usize
        }

        pub fn last(&self) -> Option<f64> {
            self.raw
                .last()
                .map(|&(_, v)| v)
                .or_else(|| self.head.last().map(|b| b.last))
        }

        pub fn last_at(&self) -> Option<SimTime> {
            self.raw
                .last()
                .map(|&(t, _)| t)
                .or_else(|| self.head.last().map(|b| b.end))
        }

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

        /// The old body ran `binary_search_by_key` over the tail, which
        /// returns *any* of several samples recorded at one instant. No
        /// product caller publishes one series twice at one instant, so
        /// that was never observable; the stream below does it on purpose,
        /// and "the latest sample at or before `at`" is then the last one
        /// recorded at that instant: `partition_point`.
        pub fn value_at(&self, at: SimTime) -> Option<f64> {
            if let Some(&(t0, _)) = self.raw.first() {
                if at >= t0 {
                    let i = self.raw.partition_point(|&(t, _)| t <= at);
                    return Some(self.raw[i - 1].1);
                }
            }
            let i = self.head.partition_point(|b| b.start <= at);
            (i > 0).then(|| self.head[i - 1].last)
        }
    }
}

fn encoded(series: &TimeSeries) -> Vec<u8> {
    let mut w = SnapWriter::new();
    series.snap(&mut w);
    w.into_bytes()
}

fn decoded(bytes: &[u8]) -> TimeSeries {
    let mut r = SnapReader::new(bytes);
    let series = TimeSeries::unsnap(&mut r).expect("own encoding decodes");
    r.expect_end().expect("and is read to its end");
    series
}

/// Every field of a bucket, floats by bit pattern.
fn bucket_bits(b: &SeriesBucket) -> (SimTime, SimTime, u64, u64, u64, u64, u64) {
    (
        b.start,
        b.end,
        b.sum.to_bits(),
        b.count,
        b.min.to_bits(),
        b.max.to_bits(),
        b.last.to_bits(),
    )
}

/// What a phase of the stream does to the clock before its first sample.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Nothing: the next round of the same cadence.
    Steady,
    /// This many rounds are skipped.
    Gap(u64),
    /// The cadence changes to this many milliseconds.
    Cadence(u64),
    /// The phase's first sample lands on the previous sample's instant.
    RepeatInstant,
}

/// Which values a phase publishes.
#[derive(Debug, Clone, Copy)]
enum Values {
    Constant(f64),
    Alternating(f64, f64),
    /// `0.0` and `-0.0`, equal under `==` and distinct samples.
    SignedZeros,
    /// No two samples equal.
    Distinct,
}

fn arb_phase() -> impl Strategy<Value = (Clock, Values, usize)> {
    let clock = prop_oneof![
        Just(Clock::Steady),
        Just(Clock::Steady),
        (1u64..5).prop_map(Clock::Gap),
        prop::sample::select(vec![7u64, 1_000, 30_000, 60_000, 600_000]).prop_map(Clock::Cadence),
        Just(Clock::RepeatInstant),
    ];
    let level = || prop::sample::select(vec![0.0, -0.0, 1.0, 12.0, 1.0e9, -3.5]);
    let values = prop_oneof![
        level().prop_map(Values::Constant),
        level().prop_map(Values::Constant),
        (level(), level()).prop_map(|(a, b)| Values::Alternating(a, b)),
        Just(Values::SignedZeros),
        Just(Values::Distinct),
    ];
    (clock, values, 1usize..40)
}

/// The sample stream the phases describe, in time order.
fn stream(phases: &[(Clock, Values, usize)]) -> Vec<(SimTime, f64)> {
    let (mut now, mut cadence, mut fresh) = (0u64, 60_000u64, 0.5f64);
    let mut out = Vec::new();
    for &(clock, values, len) in phases {
        for i in 0..len {
            now += match (i, clock) {
                (0, Clock::Gap(rounds)) => cadence * (rounds + 1),
                (0, Clock::RepeatInstant) => 0,
                (0, Clock::Cadence(ms)) => {
                    cadence = ms;
                    cadence
                }
                _ => cadence,
            };
            let value = match values {
                Values::Constant(v) => v,
                Values::Alternating(a, b) => [a, b][i % 2],
                Values::SignedZeros => [0.0, -0.0, -0.0, 0.0][i % 4],
                Values::Distinct => {
                    fresh += 1.25;
                    fresh
                }
            };
            out.push((SimTime::from_millis(now), value));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_encoded_series_is_the_sample_vector(
        capacity in 8usize..=64,
        phases in prop::collection::vec(arb_phase(), 4..24),
        probes in prop::collection::vec((0usize..1 << 20, 0u64..3, 0usize..1 << 20, 0u64..3), 1000..1001),
    ) {
        let mut series = TimeSeries::with_capacity(capacity);
        let mut model = model::TimeSeries::with_capacity(capacity);
        for (step, &(at, value)) in stream(&phases).iter().enumerate() {
            series.record(at, value);
            model.record(at, value);

            let points: Vec<(SimTime, u64)> = series.points().map(|(t, v)| (t, v.to_bits())).collect();
            let model_points: Vec<(SimTime, u64)> =
                model.points().iter().map(|&(t, v)| (t, v.to_bits())).collect();
            prop_assert_eq!(&points, &model_points, "points after step {}", step);
            prop_assert_eq!(
                series.buckets().iter().map(bucket_bits).collect::<Vec<_>>(),
                model.buckets().iter().map(bucket_bits).collect::<Vec<_>>(),
                "buckets after step {}", step
            );
            prop_assert_eq!(series.len(), model.len());
            prop_assert_eq!(series.last().map(f64::to_bits), model.last().map(f64::to_bits));
            prop_assert_eq!(series.last_at(), model.last_at());

            // Probe on, just before and just after an instant the series
            // holds (a sample's, a bucket's start or end), so ties with a
            // repeated instant and both window edges are hit.
            let instants: Vec<u64> = model
                .points()
                .iter()
                .map(|&(t, _)| t)
                .chain(model.buckets().iter().flat_map(|b| [b.start, b.end]))
                .map(SimTime::as_millis)
                .collect();
            let probe = |which: usize, nudge: u64| {
                SimTime::from_millis((instants[which % instants.len()] + nudge).saturating_sub(1))
            };
            let (a, a_nudge, b, b_nudge) = probes[step % probes.len()];
            let (from, to) = (probe(a, a_nudge), probe(b, b_nudge));
            for at in [from, to] {
                prop_assert_eq!(
                    series.value_at(at).map(f64::to_bits),
                    model.value_at(at).map(f64::to_bits),
                    "value_at {} after step {}", at, step
                );
            }
            for (start, end) in [(from, to), (to, from), (SimTime::ZERO, to), (from, SimTime::from_millis(u64::MAX))] {
                prop_assert_eq!(
                    series.mean_in_window(start, end).map(f64::to_bits),
                    model.mean_in_window(start, end).map(f64::to_bits),
                    "mean in {}..{} after step {}", start, end, step
                );
                prop_assert_eq!(
                    series.max_in_window(start, end).map(f64::to_bits),
                    model.max_in_window(start, end).map(f64::to_bits),
                    "max in {}..{} after step {}", start, end, step
                );
            }

            // The stream holds what memory holds: a decoded copy re-encodes
            // to the same bytes and carries on as the original does (the
            // next iteration's comparisons run on it).
            let blob = encoded(&series);
            series = decoded(&blob);
            prop_assert_eq!(encoded(&series), blob, "re-encode after step {}", step);
        }
    }
}

/// A series costs what changed in it, read off the encoded length (the
/// stream holds what memory holds, so no size accessor is needed).
#[test]
fn encoded_size_follows_runs_not_samples() {
    let minute = |i: u64| SimTime::from_millis(i * 60_000);
    let mut settled = TimeSeries::with_capacity(512);
    let mut busy = TimeSeries::with_capacity(512);
    for i in 0..500 {
        settled.record(minute(i), 42.0);
        busy.record(minute(i), i as f64);
    }
    assert!(encoded(&settled).len() < 100, "{}", encoded(&settled).len());
    assert!(
        encoded(&busy).len() <= 500 * 12 + 100,
        "{}",
        encoded(&busy).len()
    );
}
