//! Platform counters, the recovery and diagnosis logs, and two series.
//!
//! Every time series the platform samples (fleet traffic, host utilization
//! bands, backlog, reserved footprint, per-job lag and tasks) lives in the
//! ODS registry ([`crate::Turbine::ods_registry`]); the figures read it
//! there. [`PlatformMetrics`] keeps what is not a series: lifecycle and
//! cost counters, the diagnosis log and the recovery log with its per-tier
//! index. Its two series, `task_count` and `slo_ok_fraction`, are copies
//! of registry series kept only because the benchmark adapter reads them.

use std::collections::BTreeMap;
use turbine_autoscaler::{Mitigation, RootCause};
use turbine_config::ResiliencyClass;
use turbine_trace::TraceId;
use turbine_types::{Counter, Duration, JobId, SimTime, TimeSeries};

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
    /// Total running task count: the registry's `platform/task_count`,
    /// kept here only for the benchmark adapter until ROADMAP item 1 has
    /// it read the registry. No other code reads it.
    pub task_count: TimeSeries,
    /// Fraction of jobs within their lag SLO: the registry's
    /// `platform/slo_ok_fraction`, kept here only for the benchmark adapter
    /// until ROADMAP item 1 has it read the registry. No other code reads it.
    pub slo_ok_fraction: TimeSeries,

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
    /// Close one fault-attributed outage: append the recovery sample and
    /// file its duration under the job's tier.
    pub fn record_recovery(
        &mut self,
        at: SimTime,
        job: JobId,
        tier: ResiliencyClass,
        ms: u64,
        fast: bool,
    ) {
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

    /// A tier's accumulated fault-attributed downtime, ms; `None` until the
    /// tier has its first recovery.
    pub fn tier_downtime_ms(&self, tier: ResiliencyClass) -> Option<u64> {
        self.tier_recovery_sorted
            .get(&tier)
            .map(|sorted| sorted.iter().sum())
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
    task_count, slo_ok_fraction, task_starts, task_stops, task_restarts, shard_moves,
    failovers, oom_kills, scaling_actions, alerts, ticks_executed, standby_promotions,
    container_revivals, diagnoses, recoveries: Vec<RecoveryRecord>, incidents,
    sync_jobs_examined, load_reports_sent
} derived { tier_recovery_sorted: sorted_by_tier(&recoveries) });

#[cfg(test)]
mod tests {
    use super::*;

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
            m.tier_recovery_sorted(ResiliencyClass::Critical),
            &[10_000, 20_000]
        );
        assert_eq!(m.tier_downtime_ms(ResiliencyClass::Critical), Some(30_000));
        assert_eq!(m.tier_downtime_ms(ResiliencyClass::Standard), Some(70_000));
        assert!(m
            .tier_recovery_sorted(ResiliencyClass::BestEffort)
            .is_empty());
        assert_eq!(m.tier_downtime_ms(ResiliencyClass::BestEffort), None);
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
}
