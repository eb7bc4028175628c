//! The time-series registry: interned metric identities over bounded
//! series.
//!
//! Registration (a `BTreeMap` lookup plus a string key) happens once per
//! series; publishers cache the returned [`MetricId`] and every subsequent
//! publish is a dense `Vec` index plus an append to a run-encoded
//! [`TimeSeries`]: a count bumped when the cadence and the value repeat,
//! 12 B when the value moved. Each key is stored once, in the index.

use std::collections::BTreeMap;
use std::fmt;
use turbine_types::{SimTime, TimeSeries, DEFAULT_SERIES_CAPACITY};

/// The entity a metric is about — the "component/job/host" axis of the
/// ODS identity tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Fleet-wide platform aggregates.
    Platform,
    /// One control-plane component (scheduler table / trace component
    /// names).
    Component(String),
    /// One job, by raw id.
    Job(u64),
    /// One host, by raw id.
    Host(u64),
    /// One resiliency tier, by name.
    Tier(String),
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Platform => write!(f, "platform"),
            Scope::Component(name) => write!(f, "component/{name}"),
            Scope::Job(id) => write!(f, "job/{id}"),
            Scope::Host(id) => write!(f, "host/{id}"),
            Scope::Tier(name) => write!(f, "tier/{name}"),
        }
    }
}

/// Identity of one series: an entity scope plus a metric name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// What the metric is about.
    pub scope: Scope,
    /// The metric name, e.g. `lag_secs` or `backlog_bytes`.
    pub name: String,
}

impl MetricKey {
    /// Convenience constructor.
    pub fn new(scope: Scope, name: impl Into<String>) -> Self {
        MetricKey {
            scope,
            name: name.into(),
        }
    }

    /// A platform-scoped key.
    pub fn platform(name: impl Into<String>) -> Self {
        Self::new(Scope::Platform, name)
    }

    /// A job-scoped key.
    pub fn job(job: u64, name: impl Into<String>) -> Self {
        Self::new(Scope::Job(job), name)
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.scope, self.name)
    }
}

/// Dense handle of a registered series — cache it; publishing through it
/// is O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(u32);

impl MetricId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Exact-tail capacity of each registry series outside the platform scope,
/// in samples. Alert windows span minutes, so they always hit the exact
/// tail; older history downsamples deterministically into at most 256
/// buckets of 56 B.
///
/// The scope decides the capacity. Job, host, tier and component series
/// grow with the fleet (component scope too: the Scribe append rates are
/// one `component/scribe/<category>_…` series per category), so they keep
/// this many. Platform series are a fixed set of about sixteen whatever
/// the fleet, and the figures plot them over days, so they keep
/// `DEFAULT_SERIES_CAPACITY` (4 096, 68 simulated hours at a one-minute
/// cadence). [`Registry::keep_history`] raises one job's series to that.
///
/// What a series costs follows what changed in it. Measured (struct plus
/// `Vec` capacities): a settled job's series is 160 B at any length of
/// exact tail, one whose value moves every round 1.6 KB at 110 samples
/// and 6.3 KB at 512 (16 B a sample before: 2.1 KB and 8.3 KB for
/// either). From the first compaction on (sample 513, ≈ 8.5 simulated
/// hours at a one-minute cadence) the bucket head adds 7–14 KB to both,
/// and is then the whole cost of a settled series: 7.3–14.5 KB settled,
/// 13.4–20.6 KB busy, against 15.4–22.6 KB before. A 12k-job fleet at
/// seven series a job saturates near 1.2 GB settled and 1.7 GB busy
/// (1.9 GB before), so the head is what a long run pays for (ROADMAP
/// item 4).
pub const REGISTRY_SERIES_CAPACITY: usize = 512;

/// The uniform time-series registry every layer publishes into.
#[derive(Debug, Default)]
pub struct Registry {
    index: BTreeMap<MetricKey, MetricId>,
    series: Vec<TimeSeries>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a key, returning its dense id (registering an empty series
    /// on first sight). Publishers should call this once and cache the id.
    pub fn series_id(&mut self, key: MetricKey) -> MetricId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let capacity = match key.scope {
            Scope::Platform => DEFAULT_SERIES_CAPACITY,
            _ => REGISTRY_SERIES_CAPACITY,
        };
        let id = MetricId(self.series.len() as u32);
        self.index.insert(key, id);
        self.series.push(TimeSeries::with_capacity(capacity));
        id
    }

    /// Intern a key (see [`Self::series_id`]) and keep its series at
    /// `DEFAULT_SERIES_CAPACITY` exact samples, as platform series are —
    /// for a series a figure reads over days. Raising an already-published
    /// series keeps what it holds: it compacts only at a full tail.
    pub fn keep_history(&mut self, key: MetricKey) -> MetricId {
        let id = self.series_id(key);
        self.series[id.index()].raise_capacity(DEFAULT_SERIES_CAPACITY);
        id
    }

    /// Append a sample to a registered series — the hot path: a `Vec`
    /// index plus a run-encoded append.
    pub fn publish(&mut self, id: MetricId, at: SimTime, value: f64) {
        self.series[id.index()].record(at, value);
    }

    /// Look up a series id without registering.
    pub fn lookup(&self, key: &MetricKey) -> Option<MetricId> {
        self.index.get(key).copied()
    }

    /// A registered series by id.
    pub fn series(&self, id: MetricId) -> &TimeSeries {
        &self.series[id.index()]
    }

    /// A series by key, if registered.
    pub fn series_by_key(&self, key: &MetricKey) -> Option<&TimeSeries> {
        self.lookup(key).map(|id| self.series(id))
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Iterate every registered series in key order (deterministic,
    /// export-friendly).
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &TimeSeries)> {
        self.index.iter().map(|(key, &id)| (key, self.series(id)))
    }
}

turbine_types::snap_enum!(Scope { 0 => Platform, 1 => Component(name), 2 => Job(id), 3 => Host(id), 4 => Tier(name) });

turbine_types::snap_struct!(MetricKey { scope, name });

turbine_types::snap_struct!(MetricId(index));

// By hand: the key index is written inverted (keys in dense-id order) and
// rebuilt by re-interning, which also checks the keys are distinct.
impl turbine_types::Snap for Registry {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        // Keys in dense-id order carry the full identity map; the index is
        // rebuilt by re-interning them in the same order on restore. The
        // index is the only holder of the keys, so invert it here.
        let mut by_id: Vec<(&MetricKey, MetricId)> =
            self.index.iter().map(|(key, &id)| (key, id)).collect();
        by_id.sort_unstable_by_key(|&(_, id)| id);
        w.u64(by_id.len() as u64);
        for (key, _) in by_id {
            w.put(key);
        }
        w.put(&self.series);
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let keys: Vec<MetricKey> = r.get()?;
        let series: Vec<TimeSeries> = r.get()?;
        if keys.len() != series.len() {
            return Err(turbine_types::SnapError::Value(
                "Registry key/series length mismatch",
            ));
        }
        let mut registry = Registry::new();
        for key in keys {
            registry.series_id(key);
        }
        if registry.len() != series.len() {
            return Err(turbine_types::SnapError::Value(
                "Registry keys not distinct",
            ));
        }
        registry.series = series;
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut r = Registry::new();
        let a = r.series_id(MetricKey::platform("cluster_traffic_bps"));
        let b = r.series_id(MetricKey::job(7, "lag_secs"));
        let a2 = r.series_id(MetricKey::platform("cluster_traffic_bps"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn publish_and_query_roundtrip() {
        let mut r = Registry::new();
        let id = r.series_id(MetricKey::job(1, "backlog_bytes"));
        r.publish(id, t(60), 1024.0);
        r.publish(id, t(120), 2048.0);
        assert_eq!(r.series(id).last(), Some(2048.0));
        assert_eq!(
            r.series_by_key(&MetricKey::job(1, "backlog_bytes"))
                .and_then(|s| s.last()),
            Some(2048.0)
        );
        assert!(r
            .series_by_key(&MetricKey::job(2, "backlog_bytes"))
            .is_none());
        // The f64 round-trips bit for bit — callers may read their own
        // published value back without behavioural drift.
        let v = 0.1 + 0.2;
        r.publish(id, t(180), v);
        assert_eq!(r.series(id).last().map(f64::to_bits), Some(v.to_bits()));
    }

    #[test]
    fn watch_registers_series() {
        // Platform series keep the figures' history; every scope that
        // grows with the fleet compacts at the registry capacity, and a
        // watched job's series keep as much as platform series do.
        let mut r = Registry::new();
        let platform = r.series_id(MetricKey::platform("task_count"));
        let job = r.series_id(MetricKey::job(1, "lag_secs"));
        let scribe = r.series_id(MetricKey::new(
            Scope::Component("scribe".into()),
            "events_appends_per_sec",
        ));
        let watched = r.series_id(MetricKey::job(2, "lag_secs"));
        let samples = REGISTRY_SERIES_CAPACITY as u64 + 100;
        for i in 0..samples {
            if i == 100 {
                // Raised after it has published: nothing it holds moves.
                let held: Vec<_> = r.series(watched).points().collect();
                assert_eq!(r.keep_history(MetricKey::job(2, "lag_secs")), watched);
                assert!(r.series(watched).points().eq(held));
            }
            for id in [platform, job, scribe, watched] {
                r.publish(id, t(60 * i), i as f64);
            }
        }
        let compacted = |id| !r.series(id).buckets().is_empty();
        assert!(compacted(job) && compacted(scribe));
        assert!(!compacted(platform) && !compacted(watched));
        assert_eq!(r.series(watched).points().count() as u64, samples);

        // A watch before the first publish registers the series.
        let fresh = r.keep_history(MetricKey::job(3, "running_tasks"));
        assert_eq!((fresh.index(), r.len()), (4, 5));
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut r = Registry::new();
        r.series_id(MetricKey::job(2, "b"));
        r.series_id(MetricKey::job(1, "z"));
        r.series_id(MetricKey::platform("a"));
        // Key order (scope variant, then payload, then name) is independent
        // of registration order — registering in a different order yields
        // the same iteration sequence.
        let order: Vec<String> = r.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(order, ["platform/a", "job/1/z", "job/2/b"]);
        let mut r2 = Registry::new();
        r2.series_id(MetricKey::platform("a"));
        r2.series_id(MetricKey::job(1, "z"));
        r2.series_id(MetricKey::job(2, "b"));
        let order2: Vec<String> = r2.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn a_round_trip_restores_the_dense_ids() {
        use turbine_types::{Snap, SnapError, SnapReader, SnapWriter};
        // Interned in non-key order: id order and key order disagree, and
        // the stream is the only carrier of the former.
        let mut r = Registry::new();
        let keys = [
            MetricKey::job(9, "lag_secs"),
            MetricKey::platform("task_count"),
            MetricKey::job(2, "lag_secs"),
            MetricKey::new(Scope::Tier("critical".into()), "downtime_ms"),
        ];
        for (i, key) in keys.iter().enumerate() {
            let id = r.series_id(key.clone());
            r.publish(id, t(60), i as f64);
        }
        let mut w = SnapWriter::new();
        r.snap(&mut w);
        let blob = w.into_bytes();
        let back = Registry::unsnap(&mut SnapReader::new(&blob)).expect("own encoding decodes");
        for (i, key) in keys.iter().enumerate() {
            let id = back.lookup(key).expect("restored");
            assert_eq!(id.index(), i, "{key}");
            assert_eq!(back.series(id).last(), Some(i as f64));
        }
        let mut again = SnapWriter::new();
        back.snap(&mut again);
        assert_eq!(again.into_bytes(), blob);

        // The same key twice, or fewer series than keys: typed errors.
        let key = MetricKey::job(1, "lag_secs");
        let stream = |keys: &[&MetricKey], series: usize| {
            let mut w = SnapWriter::new();
            w.u64(keys.len() as u64);
            for key in keys {
                w.put(*key);
            }
            w.put(&vec![
                TimeSeries::with_capacity(REGISTRY_SERIES_CAPACITY);
                series
            ]);
            w.into_bytes()
        };
        for (blob, why) in [
            (stream(&[&key, &key], 2), "duplicate key"),
            (stream(&[&key, &keys[0]], 1), "length mismatch"),
        ] {
            assert!(
                matches!(
                    Registry::unsnap(&mut SnapReader::new(&blob)),
                    Err(SnapError::Value(_))
                ),
                "{why}"
            );
        }
    }

    #[test]
    fn keys_render_the_ods_identity() {
        assert_eq!(
            MetricKey::new(Scope::Tier("critical".into()), "recovery_p99_ms").to_string(),
            "tier/critical/recovery_p99_ms"
        );
        assert_eq!(MetricKey::job(3, "lag_secs").to_string(), "job/3/lag_secs");
        assert_eq!(
            MetricKey::new(Scope::Component("scaler".into()), "round_p99_us").to_string(),
            "component/scaler/round_p99_us"
        );
        assert_eq!(
            MetricKey::platform("task_count").to_string(),
            "platform/task_count"
        );
        assert_eq!(
            MetricKey::new(Scope::Host(4), "cpu_fraction").to_string(),
            "host/4/cpu_fraction"
        );
    }
}
