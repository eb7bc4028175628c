//! Cluster- and job-level metric recording for experiments.
//!
//! Every figure in the paper's evaluation is a time series of something:
//! traffic volume and task count (Fig. 1, 9), host utilization percentile
//! bands (Fig. 6, 7), job lag (Fig. 8), fleet footprints (Fig. 5, 10).
//! [`PlatformMetrics`] records all of them on a fixed sampling cadence.

use std::collections::BTreeMap;
use turbine_autoscaler::{Mitigation, RootCause};
use turbine_config::ResiliencyClass;
use turbine_trace::TraceId;
use turbine_types::{Counter, Duration, JobId, Percentiles, SimTime, TimeSeries};

/// One percentile band series (p5/p50/p95 + mean over hosts).
#[derive(Debug, Default, Clone)]
pub struct BandSeries {
    /// 5th percentile over hosts at each sample.
    pub p5: TimeSeries,
    /// Median over hosts.
    pub p50: TimeSeries,
    /// 95th percentile over hosts.
    pub p95: TimeSeries,
    /// Mean over hosts.
    pub mean: TimeSeries,
}

impl BandSeries {
    /// Record one snapshot of per-host samples. An empty snapshot (no
    /// healthy hosts this instant) records nothing: there is no meaningful
    /// percentile of zero samples, and a placeholder would fabricate a
    /// zero-utilization dip in the band.
    pub fn record(&mut self, at: SimTime, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let p = Percentiles::from_samples(samples);
        self.p5.record(at, p.p5);
        self.p50.record(at, p.p50);
        self.p95.record(at, p.p95);
        self.mean.record(at, p.mean);
    }
}

/// One root-cause diagnosis, as recorded by the platform: the typed
/// cause and mitigation from the root-causer, plus the link into the
/// decision trace so the rationale joins the causal chain behind the
/// mitigation it triggered.
#[derive(Debug, Clone)]
pub struct DiagnosisRecord {
    /// When the diagnosis was made.
    pub at: SimTime,
    /// The diagnosed job.
    pub job: JobId,
    /// The classified root cause.
    pub cause: RootCause,
    /// The recommended (or automated) mitigation.
    pub mitigation: Mitigation,
    /// One-line rationale for the runbook.
    pub rationale: String,
    /// The diagnosis record in the decision trace.
    pub trace: TraceId,
}

/// The recovery-time budget a resiliency tier promises (the per-tier SLO
/// the soak gate holds p99 recovery against). Critical jobs ride the
/// warm-standby fast path and promise an order of magnitude less downtime
/// than the full state-sync fail-over path behind the other tiers.
pub fn recovery_budget(tier: ResiliencyClass) -> Duration {
    match tier {
        ResiliencyClass::Critical => Duration::from_secs(30),
        ResiliencyClass::Standard => Duration::from_secs(150),
        ResiliencyClass::BestEffort => Duration::from_secs(300),
    }
}

/// One fault-attributed outage that ended: how long the job was below its
/// running-config task count, and which recovery path closed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// When the job recovered (outage end).
    pub at: SimTime,
    /// The recovered job.
    pub job: JobId,
    /// The job's resiliency tier at recovery time.
    pub tier: ResiliencyClass,
    /// Outage duration in milliseconds, measured from fault onset.
    pub ms: u64,
    /// True when a warm-standby promotion (fast path) ended the outage.
    pub fast: bool,
}

/// All platform metrics captured during a run.
#[derive(Debug, Default)]
pub struct PlatformMetrics {
    /// Total input traffic across jobs, bytes/sec.
    pub cluster_traffic: TimeSeries,
    /// Total running task count.
    pub task_count: TimeSeries,
    /// Host CPU utilization band (fraction of capacity).
    pub host_cpu: BandSeries,
    /// Host memory utilization band (fraction of capacity).
    pub host_memory: BandSeries,
    /// Fraction of jobs within their lag SLO.
    pub slo_ok_fraction: TimeSeries,
    /// Total backlog across all jobs, bytes.
    pub total_backlog: TimeSeries,
    /// Per-job lag (seconds) for explicitly watched jobs.
    pub watched_job_lag: BTreeMap<JobId, TimeSeries>,
    /// Per-job task count for explicitly watched jobs.
    pub watched_job_tasks: BTreeMap<JobId, TimeSeries>,
    /// Total reserved CPU across running tasks (cores).
    pub reserved_cpu: TimeSeries,
    /// Total reserved memory across running tasks (MB).
    pub reserved_memory_mb: TimeSeries,

    /// Lifecycle counters.
    pub task_starts: Counter,
    /// Tasks stopped.
    pub task_stops: Counter,
    /// Tasks restarted (spec change, crash, reboot).
    pub task_restarts: Counter,
    /// Shard movements executed.
    pub shard_moves: Counter,
    /// Container fail-overs performed.
    pub failovers: Counter,
    /// OOM kills.
    pub oom_kills: Counter,
    /// Scaling actions applied.
    pub scaling_actions: Counter,
    /// Operator alerts raised (untriaged problems, quarantines).
    pub alerts: Counter,
    /// Data-plane ticks actually executed by the drive loop (the
    /// event-driven scheduler skips quiescent grid instants, so this is
    /// the direct measure of sparse-jump savings vs the dense stepper).
    pub ticks_executed: Counter,
    /// Warm-standby promotions (fast-path fail-overs).
    pub standby_promotions: Counter,
    /// Containers that came back after being declared dead and failed over.
    pub container_revivals: Counter,
    /// Root-cause diagnoses produced for untriaged problems.
    pub diagnoses: Vec<DiagnosisRecord>,
    /// Every fault-attributed outage that closed, in recovery order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Accumulated fault-attributed downtime per resiliency tier, ms.
    pub tier_downtime_ms: BTreeMap<ResiliencyClass, u64>,
    /// Per-tier recovery durations kept sorted ascending, maintained
    /// incrementally by [`Self::record_recovery`] so dashboard percentile
    /// reads cost a rank lookup instead of a per-render sort.
    tier_recovery_sorted: BTreeMap<ResiliencyClass, Vec<u64>>,

    /// Alerting incidents opened by the ODS pipeline. Deliberately *not*
    /// part of the platform fingerprint: the alerting layer only observes,
    /// and a platform with no rules installed must fingerprint like one
    /// with rules. Gates that care compare the incident log itself.
    pub incidents: Counter,

    /// Jobs examined across State Syncer rounds. Sparse rounds examine
    /// only the attention set plus the changelog delta, so on a quiescent
    /// fleet this grows far slower than rounds × jobs — the scale gate's
    /// per-round work measure.
    pub sync_jobs_examined: Counter,
    /// Containers that produced a load report (sparse load reporting
    /// skips containers whose loads cannot have moved).
    pub load_reports_sent: Counter,
}

impl PlatformMetrics {
    /// Start watching a job's lag/task series.
    pub fn watch_job(&mut self, job: JobId) {
        self.watched_job_lag.entry(job).or_default();
        self.watched_job_tasks.entry(job).or_default();
    }

    /// True if the job is being watched.
    pub fn is_watched(&self, job: JobId) -> bool {
        self.watched_job_lag.contains_key(&job)
    }

    /// Close one fault-attributed outage: append the recovery sample and
    /// charge the downtime to the job's tier.
    pub fn record_recovery(
        &mut self,
        at: SimTime,
        job: JobId,
        tier: ResiliencyClass,
        ms: u64,
        fast: bool,
    ) {
        *self.tier_downtime_ms.entry(tier).or_insert(0) += ms;
        let sorted = self.tier_recovery_sorted.entry(tier).or_default();
        let at_rank = sorted.partition_point(|&v| v <= ms);
        sorted.insert(at_rank, ms);
        self.recoveries.push(RecoveryRecord {
            at,
            job,
            tier,
            ms,
            fast,
        });
    }

    /// Recovery durations (ms) sampled for one tier, in recovery order.
    pub fn tier_recovery_ms(&self, tier: ResiliencyClass) -> Vec<u64> {
        self.recoveries
            .iter()
            .filter(|r| r.tier == tier)
            .map(|r| r.ms)
            .collect()
    }

    /// A tier's recovery durations sorted ascending (no per-call work —
    /// the vector is maintained on insert).
    pub fn tier_recovery_sorted(&self, tier: ResiliencyClass) -> &[u64] {
        self.tier_recovery_sorted
            .get(&tier)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Nearest-rank quantile of a tier's recovery durations, identical to
    /// `Cdf::from_samples(...).quantile(q)` over the same samples but
    /// without rebuilding and re-sorting the sample set (both paths share
    /// [`turbine_types::nearest_rank_index`]).
    pub fn tier_recovery_quantile(&self, tier: ResiliencyClass, q: f64) -> Option<u64> {
        let sorted = self.tier_recovery_sorted(tier);
        if sorted.is_empty() {
            return None;
        }
        Some(turbine_types::nearest_rank_u64(sorted, q.clamp(0.0, 1.0)))
    }
}

use turbine_types::snap_struct;

snap_struct!(BandSeries { p5, p50, p95, mean });

snap_struct!(DiagnosisRecord {
    at,
    job,
    cause,
    mitigation,
    rationale,
    trace
});

snap_struct!(RecoveryRecord {
    at,
    job,
    tier,
    ms,
    fast
});

/// The sorted-per-tier index is a pure function of the recovery log:
/// rebuilding it from the log reproduces the insert-maintained state.
fn sorted_by_tier(recoveries: &[RecoveryRecord]) -> BTreeMap<ResiliencyClass, Vec<u64>> {
    let mut by_tier: BTreeMap<ResiliencyClass, Vec<u64>> = BTreeMap::new();
    for record in recoveries {
        by_tier.entry(record.tier).or_default().push(record.ms);
    }
    by_tier.values_mut().for_each(|ms| ms.sort_unstable());
    by_tier
}

snap_struct!(PlatformMetrics {
    cluster_traffic, task_count, host_cpu, host_memory, slo_ok_fraction, total_backlog,
    watched_job_lag, watched_job_tasks, reserved_cpu, reserved_memory_mb, task_starts,
    task_stops, task_restarts, shard_moves, failovers, oom_kills, scaling_actions, alerts,
    ticks_executed, standby_promotions, container_revivals, diagnoses,
    recoveries: Vec<RecoveryRecord>, tier_downtime_ms, incidents, sync_jobs_examined,
    load_reports_sent
} derived { tier_recovery_sorted: sorted_by_tier(&recoveries) });

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

    #[test]
    fn band_series_tracks_percentiles() {
        let mut band = BandSeries::default();
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        band.record(SimTime::ZERO, &samples);
        band.record(SimTime::ZERO + Duration::from_mins(1), &samples);
        assert_eq!(band.p5.last(), Some(0.05));
        assert_eq!(band.p50.last(), Some(0.5));
        assert_eq!(band.p95.last(), Some(0.95));
        assert_eq!(band.p5.len(), 2);
    }

    #[test]
    fn empty_snapshot_records_nothing() {
        let mut band = BandSeries::default();
        band.record(SimTime::ZERO, &[0.5]);
        // No healthy hosts this instant: the bands must not grow, and in
        // particular must not record a fabricated zero or NaN sample.
        band.record(SimTime::ZERO + Duration::from_mins(1), &[]);
        assert_eq!(band.p50.len(), 1);
        assert_eq!(band.mean.len(), 1);
        band.record(SimTime::ZERO + Duration::from_mins(2), &[0.7]);
        assert_eq!(band.p50.len(), 2);
        assert!(
            band.p50.points().all(|(_, v)| v.is_finite()),
            "no NaN in the series"
        );
    }

    #[test]
    fn recoveries_accumulate_per_tier() {
        let mut m = PlatformMetrics::default();
        m.record_recovery(
            SimTime::ZERO,
            JobId(1),
            ResiliencyClass::Critical,
            20_000,
            true,
        );
        m.record_recovery(
            SimTime::ZERO,
            JobId(2),
            ResiliencyClass::Standard,
            70_000,
            false,
        );
        m.record_recovery(
            SimTime::ZERO,
            JobId(1),
            ResiliencyClass::Critical,
            10_000,
            true,
        );
        assert_eq!(
            m.tier_recovery_ms(ResiliencyClass::Critical),
            vec![20_000, 10_000]
        );
        assert_eq!(m.tier_downtime_ms[&ResiliencyClass::Critical], 30_000);
        assert_eq!(m.tier_downtime_ms[&ResiliencyClass::Standard], 70_000);
        assert!(m.tier_recovery_ms(ResiliencyClass::BestEffort).is_empty());
        assert!(
            recovery_budget(ResiliencyClass::Critical) < recovery_budget(ResiliencyClass::Standard)
        );
    }

    #[test]
    fn sorted_recovery_quantiles_match_cdf() {
        use turbine_types::Cdf;
        let mut m = PlatformMetrics::default();
        let samples = [5_000u64, 120_000, 7_000, 7_000, 90_000, 33_000, 1];
        for (i, &ms) in samples.iter().enumerate() {
            m.record_recovery(
                SimTime::ZERO,
                JobId(i as u64),
                ResiliencyClass::Standard,
                ms,
                false,
            );
        }
        let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        let cdf = Cdf::from_samples(&as_f64);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                m.tier_recovery_quantile(ResiliencyClass::Standard, q),
                cdf.quantile(q).map(|v| v as u64),
                "quantile {q} must match the Cdf path bit for bit",
            );
        }
        assert_eq!(
            m.tier_recovery_quantile(ResiliencyClass::Critical, 0.5),
            None
        );
        assert_eq!(
            m.tier_recovery_sorted(ResiliencyClass::Standard),
            &[1, 5_000, 7_000, 7_000, 33_000, 90_000, 120_000]
        );
    }

    #[test]
    fn watch_registers_series() {
        let mut m = PlatformMetrics::default();
        assert!(!m.is_watched(JobId(1)));
        m.watch_job(JobId(1));
        assert!(m.is_watched(JobId(1)));
        m.watched_job_lag
            .get_mut(&JobId(1))
            .expect("series")
            .record(SimTime::ZERO, 12.0);
        assert_eq!(m.watched_job_lag[&JobId(1)].last(), Some(12.0));
    }
}
