//! The ODS bridge: per-round publication of platform state into the
//! [`turbine_ods::Registry`], alert evaluation, and incident emission.
//!
//! Everything here is observational. Publication reads platform state and
//! writes only into the registry; alert evaluation reads the registry and
//! writes only the incident log, the (unfingerprinted) `incidents`
//! counter, and deterministic trace records. The scaler's read-back path
//! ([`Turbine::ods_scaler_roundtrip`]) is the one place registry values
//! flow toward a control decision, and it is bit-exact by construction:
//! an `f64` stored and re-read from a series is the identical value.

use super::Turbine;
use crate::engine::ContainerMap;
use std::collections::BTreeMap;
use turbine_config::ResiliencyClass;
use turbine_jobstore::{JobService, MemWal, StoreReader};
use turbine_ods::{
    AlertEngine, AlertRule, MetricId, MetricKey, Registry, RuleKind, Scope, Severity, ThresholdOp,
};
use turbine_scribe::CategoryId;
use turbine_trace::TraceData;
use turbine_types::{Duration, JobId, Percentiles, Resources, SimTime};

/// Per-job series ids of the metrics round (lag/backlog/tasks).
#[derive(Debug, Clone, Copy)]
struct JobSeries {
    lag: MetricId,
    backlog: MetricId,
    tasks: MetricId,
}

impl JobSeries {
    fn intern(registry: &mut Registry, job: JobId) -> Self {
        JobSeries {
            lag: registry.series_id(MetricKey::job(job.raw(), "lag_secs")),
            backlog: registry.series_id(MetricKey::job(job.raw(), "backlog_bytes")),
            tasks: registry.series_id(MetricKey::job(job.raw(), "running_tasks")),
        }
    }
}

/// Per-job series ids of the scaler round.
#[derive(Debug, Clone, Copy)]
struct ScalerSeries {
    input_rate: MetricId,
    processing_rate: MetricId,
    backlog: MetricId,
}

impl ScalerSeries {
    fn intern(registry: &mut Registry, job: JobId) -> Self {
        ScalerSeries {
            input_rate: registry.series_id(MetricKey::job(job.raw(), "input_rate_bps")),
            processing_rate: registry.series_id(MetricKey::job(job.raw(), "processing_rate_bps")),
            backlog: registry.series_id(MetricKey::job(job.raw(), "scaler_backlog_bytes")),
        }
    }
}

/// Cached per-tier series ids (SLO accounting).
#[derive(Debug, Clone, Copy)]
struct TierSeries {
    downtime: MetricId,
    p50: MetricId,
    p99: MetricId,
}

/// One category's append-rate series and the cumulative append count it
/// last observed (for rate deltas).
#[derive(Debug, Clone, Copy)]
struct ScribeSeries {
    id: MetricId,
    last: u64,
}

turbine_types::snap_struct!(ScribeSeries { id, last });

/// One engine job's row of the metrics plane: what the metrics and scaler
/// rounds read of the job besides the engine. The rows ascend by job like
/// the engine's runtimes, and the rounds walk them in step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRow {
    pub(crate) job: JobId,
    /// The expected config's lag SLO (`None`: no decodable expected
    /// config).
    pub(crate) slo_lag_secs: Option<f64>,
    /// The running config's reserved footprint (`None`: no decodable
    /// running config).
    pub(crate) footprint: Option<Resources>,
    /// The job's running tasks, as the metrics round's task walk counted
    /// them.
    pub(crate) running_tasks: usize,
    /// Series ids, interned at the job's first publication in each round.
    series: Option<JobSeries>,
    scaler: Option<ScalerSeries>,
}

impl JobRow {
    /// A fresh row for `job`, its configs read from the Job Service.
    fn read(jobs: &JobService<MemWal>, job: JobId) -> Self {
        let mut row = JobRow {
            job,
            slo_lag_secs: None,
            footprint: None,
            running_tasks: 0,
            series: None,
            scaler: None,
        };
        row.reread(jobs);
        row
    }

    /// Re-read the job's configs: its store rows changed.
    fn reread(&mut self, jobs: &JobService<MemWal>) {
        self.slo_lag_secs = jobs.expected_typed(self.job).ok().map(|c| c.slo_lag_secs);
        self.footprint = jobs
            .running_typed(self.job)
            .map(|c| c.task_resources.scale(c.task_count as f64));
    }
}

/// The platform-scope series the metrics round publishes, in publication
/// order: the fleet gauges, the SLO fraction, then each host band's three
/// ranks. A series is interned when first published, so ids follow this
/// order as they did when every name was interned at each publication.
const PLATFORM_SERIES: [&str; 15] = [
    "cluster_traffic_bps",
    "task_count",
    "engine_active_jobs",
    "total_backlog_bytes",
    "control_queue_depth",
    "sync_jobs_examined",
    "reserved_cpu_cores",
    "reserved_memory_mb",
    "slo_ok_fraction",
    "host_cpu_p5",
    "host_cpu_p50",
    "host_cpu_p95",
    "host_memory_p5",
    "host_memory_p50",
    "host_memory_p95",
];

/// Where the SLO fraction and the two host bands sit in
/// [`PLATFORM_SERIES`].
const SLO_OK_FRACTION: usize = 8;
const HOST_CPU: usize = 9;
const HOST_MEMORY: usize = 12;

/// What the metrics round fills and empties every round, kept between
/// rounds so a steady round allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MetricsScratch {
    /// Each engine job's arrival rate, in job order.
    pub(crate) rates: Vec<f64>,
    /// Each container's summed task usage, read by key.
    pub(crate) per_container: ContainerMap<Resources>,
    pub(crate) cpu_samples: Vec<f64>,
    pub(crate) mem_samples: Vec<f64>,
    /// The jobs published this round.
    pub(crate) jobs: Vec<JobSample>,
}

/// Per-platform ODS state: the registry, the alert engine, the per-job
/// rows and the id caches that keep steady-state publication free of
/// string formatting and searches. Only the registry, the alerts and the
/// Scribe watermarks are stored; the rest is rebuilt.
#[derive(Debug, Default)]
pub(crate) struct OdsState {
    pub(crate) registry: Registry,
    pub(crate) alerts: AlertEngine,
    /// One row per engine job, ascending; see [`Turbine::align_job_rows`].
    pub(crate) rows: Vec<JobRow>,
    /// [`PLATFORM_SERIES`]' ids, by place.
    platform_series: [Option<MetricId>; PLATFORM_SERIES.len()],
    tier_series: BTreeMap<ResiliencyClass, TierSeries>,
    /// Per category, by [`CategoryId`].
    scribe_series: Vec<Option<ScribeSeries>>,
    pub(crate) scratch: MetricsScratch,
}

impl OdsState {
    /// Publish `value` to the `slot`-th of [`PLATFORM_SERIES`].
    fn publish_platform(&mut self, slot: usize, now: SimTime, value: f64) {
        let registry = &mut self.registry;
        let id = *self.platform_series[slot]
            .get_or_insert_with(|| registry.series_id(MetricKey::platform(PLATFORM_SERIES[slot])));
        registry.publish(id, now, value);
    }

    /// File `series` under `category`'s id.
    fn file_scribe_series(&mut self, category: CategoryId, series: ScribeSeries) {
        let at = category.index();
        if self.scribe_series.len() <= at {
            self.scribe_series.resize(at + 1, None);
        }
        self.scribe_series[at] = Some(series);
    }

    fn tier_series(&mut self, tier: ResiliencyClass) -> TierSeries {
        if let Some(&ids) = self.tier_series.get(&tier) {
            return ids;
        }
        let scope = Scope::Tier(tier.as_str().to_string());
        let ids = TierSeries {
            downtime: self
                .registry
                .series_id(MetricKey::new(scope.clone(), "downtime_ms")),
            p50: self
                .registry
                .series_id(MetricKey::new(scope.clone(), "recovery_p50_ms")),
            p99: self
                .registry
                .series_id(MetricKey::new(scope, "recovery_p99_ms")),
        };
        self.tier_series.insert(tier, ids);
        ids
    }
}

/// The key of a category's append-rate series.
fn scribe_series_key(category: &str) -> MetricKey {
    MetricKey::new(
        Scope::Component("scribe".to_string()),
        format!("{category}_appends_per_sec"),
    )
}

/// One job's sample for the metrics-round publication.
#[derive(Debug)]
pub(crate) struct JobSample {
    /// The job's place in [`OdsState::rows`].
    pub(crate) row: usize,
    pub(crate) lag_secs: f64,
    pub(crate) backlog_bytes: f64,
}

/// The metrics round's fleet aggregates; the host bands and the job
/// samples are in [`OdsState::scratch`].
pub(crate) struct MetricsRoundSample {
    pub(crate) traffic: f64,
    pub(crate) total_backlog: f64,
    pub(crate) slo_ok_fraction: Option<f64>,
    pub(crate) reserved: Resources,
}

impl Turbine {
    /// Put [`OdsState::rows`] in step with the engine's jobs: a job the
    /// engine gained gets a fresh row, and a job it lost loses its row.
    /// Costs one walk of the ids while the jobs stay the same.
    pub(crate) fn align_job_rows(&mut self) {
        let ods = &mut self.ods;
        let engine_jobs = || self.engine.jobs().map(|(job, _)| job);
        if ods.rows.iter().map(|row| row.job).eq(engine_jobs()) {
            return;
        }
        let mut old = std::mem::take(&mut ods.rows).into_iter().peekable();
        ods.rows = engine_jobs()
            .map(|job| {
                while old.next_if(|row| row.job < job).is_some() {}
                old.next_if(|row| row.job == job)
                    .unwrap_or_else(|| JobRow::read(&self.jobs, job))
            })
            .collect();
    }

    /// [`Turbine::align_job_rows`], then re-read the configs of every job
    /// whose store rows changed since the last metrics round.
    pub(crate) fn refresh_job_rows(&mut self) {
        self.align_job_rows();
        let rows = &mut self.ods.rows;
        for job in self.jobs.store_mut().drain_changes(StoreReader::Metrics) {
            if let Ok(at) = rows.binary_search_by_key(&job, |row| row.job) {
                rows[at].reread(&self.jobs);
            }
        }
    }

    /// Publish the metrics round's observations into the registry, the
    /// platform's one store of series: fleet aggregates, host utilization
    /// percentiles, the reserved footprint, per-job series, per-tier SLO
    /// accounting and Scribe append rates. Called at the end of
    /// [`Turbine::metrics_round`]. Everything published is simulated state:
    /// the registry is snapshotted, so host time (the control rounds'
    /// wall-clock latencies, which live in [`Turbine::trace`]'s histograms)
    /// stays out of it.
    pub(crate) fn ods_metrics_publish(&mut self, now: SimTime, sample: MetricsRoundSample) {
        let MetricsRoundSample {
            traffic,
            total_backlog,
            slo_ok_fraction,
            reserved,
        } = sample;
        let ods = &mut self.ods;
        // Fleet gauges. `engine_active_jobs` is how many jobs the data-plane
        // tick still walks (the rest are settled), sampled after this
        // instant's tick, so a restored run (which restarts with every job
        // active) has re-settled by now.
        let gauges = [
            traffic,
            self.engine.total_tasks() as f64,
            self.engine.active_jobs() as f64,
            total_backlog,
            self.sched.queue_depth() as f64,
            self.metrics.sync_jobs_examined.get() as f64,
            reserved.cpu,
            reserved.memory_mb,
        ];
        for (slot, value) in gauges.into_iter().enumerate() {
            ods.publish_platform(slot, now, value);
        }
        if let Some(frac) = slo_ok_fraction {
            ods.publish_platform(SLO_OK_FRACTION, now, frac);
        }
        // Each band from its own samples: there is no percentile of zero
        // hosts, and a placeholder would record a dip no host reported.
        let bands = [
            (HOST_CPU, &mut ods.scratch.cpu_samples),
            (HOST_MEMORY, &mut ods.scratch.mem_samples),
        ]
        .map(|(band, samples)| {
            (
                band,
                (!samples.is_empty()).then(|| Percentiles::ranks(samples)),
            )
        });
        for (band, ranks) in bands {
            for (rank, value) in ranks.into_iter().flatten().enumerate() {
                ods.publish_platform(band + rank, now, value);
            }
        }
        for sample in &ods.scratch.jobs {
            let row = &mut ods.rows[sample.row];
            let registry = &mut ods.registry;
            let ids = *row
                .series
                .get_or_insert_with(|| JobSeries::intern(registry, row.job));
            registry.publish(ids.lag, now, sample.lag_secs);
            registry.publish(ids.backlog, now, sample.backlog_bytes);
            registry.publish(ids.tasks, now, row.running_tasks as f64);
        }
        for tier in [
            ResiliencyClass::BestEffort,
            ResiliencyClass::Standard,
            ResiliencyClass::Critical,
        ] {
            // All three exist from the tier's first recovery on.
            let (Some(downtime), Some(p50), Some(p99)) = (
                self.metrics.tier_downtime_ms(tier),
                self.metrics.tier_recovery_quantile(tier, 0.50),
                self.metrics.tier_recovery_quantile(tier, 0.99),
            ) else {
                continue;
            };
            let ids = ods.tier_series(tier);
            ods.registry.publish(ids.downtime, now, downtime as f64);
            ods.registry.publish(ids.p50, now, p50 as f64);
            ods.registry.publish(ids.p99, now, p99 as f64);
        }
        // Scribe append rates: delta of each category's cumulative append
        // count over the sampling interval, its series found by category
        // id. The bus is walked in name order; a category seen for the
        // first time gets its series after the walk, still in name order
        // (series ids follow registration order).
        let interval_secs = self.config.metrics_interval.as_secs_f64().max(1.0);
        let mut fresh: Vec<(CategoryId, &str, u64)> = Vec::new();
        for (category, name, stats) in self.scribe.categories() {
            match ods
                .scribe_series
                .get_mut(category.index())
                .and_then(Option::as_mut)
            {
                Some(series) => {
                    let delta = stats.total_appended.saturating_sub(series.last);
                    series.last = stats.total_appended;
                    ods.registry
                        .publish(series.id, now, delta as f64 / interval_secs);
                }
                None => fresh.push((category, name, stats.total_appended)),
            }
        }
        for (category, name, total_appended) in fresh {
            let id = ods.registry.series_id(scribe_series_key(name));
            ods.file_scribe_series(
                category,
                ScribeSeries {
                    id,
                    last: total_appended,
                },
            );
            ods.registry
                .publish(id, now, total_appended as f64 / interval_secs);
        }
    }

    /// Publish one job's scaler-round observations and read them back from
    /// the registry — the Auto Scaler's symptom inputs flow through the
    /// uniform metrics plane like every other consumer's. The round-trip
    /// is bit-exact (`f64` in, identical `f64` out), so scaling decisions
    /// are unchanged from reading the engine directly. `at` is the job's
    /// place among the engine's jobs, and so in [`OdsState::rows`].
    pub(crate) fn ods_scaler_roundtrip(
        &mut self,
        at: usize,
        now: SimTime,
        input_rate: f64,
        processing_rate: f64,
        backlog: f64,
    ) -> (f64, f64, f64) {
        let ods = &mut self.ods;
        let row = &mut ods.rows[at];
        let registry = &mut ods.registry;
        let ids = *row
            .scaler
            .get_or_insert_with(|| ScalerSeries::intern(registry, row.job));
        registry.publish(ids.input_rate, now, input_rate);
        registry.publish(ids.processing_rate, now, processing_rate);
        registry.publish(ids.backlog, now, backlog);
        (
            registry
                .series(ids.input_rate)
                .last()
                .expect("just published"),
            registry
                .series(ids.processing_rate)
                .last()
                .expect("just published"),
            registry.series(ids.backlog).last().expect("just published"),
        )
    }

    /// Evaluate every installed alert rule against the registry, then emit
    /// each newly opened incident: bump the (unfingerprinted) incident
    /// counter and record a cause-linked trace event. For job-scoped
    /// incidents whose input category has an active Scribe stall, the
    /// cause link points at the stall's activation edge, so `--explain`
    /// walks from the page to the fault that produced it.
    pub(crate) fn ods_evaluate_alerts(&mut self, now: SimTime) {
        let opened = self.ods.alerts.evaluate(&self.ods.registry, now);
        for idx in opened {
            self.metrics.incidents.incr();
            let incident = &self.ods.alerts.incidents()[idx];
            let job = match &incident.metric.scope {
                Scope::Job(id) => Some(JobId(*id)),
                _ => None,
            };
            let data = TraceData::Incident {
                rule: incident.rule.clone(),
                severity: incident.severity.as_str(),
                job,
                message: incident.message.clone(),
            };
            let cause = job
                .and_then(|j| self.job_category(j))
                .and_then(|cat| self.trace.fault_cause(&format!("scribe_stall({cat})")));
            match cause {
                Some(root) => {
                    self.trace.emit_caused(now, data, Some(root));
                }
                None => {
                    self.trace.emit(now, data);
                }
            }
        }
    }

    /// Install alerting rules (parsed from a scenario's `alerts` section,
    /// or built programmatically).
    pub fn install_alert_rules(&mut self, rules: impl IntoIterator<Item = AlertRule>) {
        self.ods.alerts.install_all(rules);
    }

    /// Install the default paging rules: for every provisioned critical
    /// job, a critical-severity threshold on its lag against its
    /// configured SLO, debounced 2 minutes and suppressed 30 minutes after
    /// firing. Idempotent — jobs that already have their default rule are
    /// skipped.
    pub fn install_default_alert_rules(&mut self) {
        for job in self.engine.job_ids() {
            if self.job_resiliency(job) != ResiliencyClass::Critical {
                continue;
            }
            let Some(slo) = self.job_slo_secs(job) else {
                continue;
            };
            let name = format!("lag-slo-{}", job.raw());
            if self.ods.alerts.rules().iter().any(|r| r.name == name) {
                continue;
            }
            self.ods.alerts.install(AlertRule {
                name,
                metric: MetricKey::job(job.raw(), "lag_secs"),
                kind: RuleKind::Threshold {
                    op: ThresholdOp::Above,
                    value: slo,
                },
                for_duration: Duration::from_mins(2),
                severity: Severity::Critical,
                suppress_for: Duration::from_mins(30),
            });
        }
    }

    /// Keep a job's whole `lag_secs` and `running_tasks` history exact, as
    /// platform series are, for a figure that plots the job over days (a
    /// job series otherwise compacts after `REGISTRY_SERIES_CAPACITY`
    /// samples).
    pub fn watch_job(&mut self, job: JobId) {
        for name in ["lag_secs", "running_tasks"] {
            self.ods
                .registry
                .keep_history(MetricKey::job(job.raw(), name));
        }
    }

    /// The uniform time-series registry every layer publishes into.
    pub fn ods_registry(&self) -> &Registry {
        &self.ods.registry
    }

    /// The alerting engine (rules and incident log).
    pub fn alert_engine(&self) -> &AlertEngine {
        &self.ods.alerts
    }

    /// Every incident the alerting engine has opened, in open order.
    pub fn incidents(&self) -> &[turbine_ods::Incident] {
        self.ods.alerts.incidents()
    }
}

// By hand: of the id caches only the Scribe watermarks are stored, by
// category id, each with its series id in the registry decoded before them.
impl turbine_types::Snap for OdsState {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.registry);
        w.put(&self.alerts);
        w.put(&self.scribe_series);
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let registry: Registry = r.get()?;
        let alerts = r.get()?;
        let scribe_series: Vec<Option<ScribeSeries>> = r.get()?;
        if scribe_series
            .iter()
            .flatten()
            .any(|s| s.id.index() >= registry.len())
        {
            return Err(turbine_types::SnapError::Value(
                "OdsState watermark series unknown",
            ));
        }
        Ok(OdsState {
            registry,
            alerts,
            scribe_series,
            ..OdsState::default()
        })
    }
}
