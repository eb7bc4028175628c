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
use std::collections::BTreeMap;
use turbine_config::ResiliencyClass;
use turbine_ods::{
    AlertEngine, AlertRule, MetricId, MetricKey, Registry, RuleKind, Scope, Severity, ThresholdOp,
};
use turbine_trace::TraceData;
use turbine_types::{Duration, IdMap, JobId, Percentiles, Resources, SimTime};

/// Cached per-job series ids for the metrics round (lag/backlog/tasks).
#[derive(Debug, Clone, Copy)]
struct JobSeries {
    lag: MetricId,
    backlog: MetricId,
    tasks: MetricId,
}

/// Cached per-job series ids for the scaler round.
#[derive(Debug, Clone, Copy)]
struct ScalerSeries {
    input_rate: MetricId,
    processing_rate: MetricId,
    backlog: MetricId,
}

/// Cached per-tier series ids (SLO accounting).
#[derive(Debug, Clone, Copy)]
struct TierSeries {
    downtime: MetricId,
    p50: MetricId,
    p99: MetricId,
}

/// Per-platform ODS state: the registry, the alert engine, and the id
/// caches that keep steady-state publication free of string formatting.
#[derive(Debug, Default)]
pub(crate) struct OdsState {
    pub(crate) registry: Registry,
    pub(crate) alerts: AlertEngine,
    job_series: IdMap<JobId, JobSeries>,
    scaler_series: IdMap<JobId, ScalerSeries>,
    tier_series: BTreeMap<ResiliencyClass, TierSeries>,
    /// Per category: append-rate series id and the last observed
    /// cumulative append count (for rate deltas).
    scribe_series: BTreeMap<String, (MetricId, u64)>,
}

impl OdsState {
    fn job_series(&mut self, job: JobId) -> JobSeries {
        if let Some(&ids) = self.job_series.get(&job) {
            return ids;
        }
        let ids = JobSeries {
            lag: self
                .registry
                .series_id(MetricKey::job(job.raw(), "lag_secs")),
            backlog: self
                .registry
                .series_id(MetricKey::job(job.raw(), "backlog_bytes")),
            tasks: self
                .registry
                .series_id(MetricKey::job(job.raw(), "running_tasks")),
        };
        self.job_series.insert(job, ids);
        ids
    }

    fn scaler_series(&mut self, job: JobId) -> ScalerSeries {
        if let Some(&ids) = self.scaler_series.get(&job) {
            return ids;
        }
        let ids = ScalerSeries {
            input_rate: self
                .registry
                .series_id(MetricKey::job(job.raw(), "input_rate_bps")),
            processing_rate: self
                .registry
                .series_id(MetricKey::job(job.raw(), "processing_rate_bps")),
            backlog: self
                .registry
                .series_id(MetricKey::job(job.raw(), "scaler_backlog_bytes")),
        };
        self.scaler_series.insert(job, ids);
        ids
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
pub(crate) struct JobSample {
    pub(crate) job: JobId,
    pub(crate) lag_secs: f64,
    pub(crate) backlog_bytes: f64,
    pub(crate) running_tasks: usize,
}

/// Everything one metrics round hands the registry in a single publish.
pub(crate) struct MetricsRoundSample<'a> {
    pub(crate) traffic: f64,
    pub(crate) cpu_samples: &'a [f64],
    pub(crate) mem_samples: &'a [f64],
    pub(crate) jobs: &'a [JobSample],
    pub(crate) total_backlog: f64,
    pub(crate) slo_ok_fraction: Option<f64>,
    pub(crate) reserved: Resources,
}

impl Turbine {
    /// Publish the metrics round's observations into the registry, the
    /// platform's one store of series: fleet aggregates, host utilization
    /// percentiles, the reserved footprint, per-job series, per-tier SLO
    /// accounting and Scribe append rates. Called at the end of
    /// [`Turbine::metrics_round`]. Everything published is simulated state:
    /// the registry is snapshotted, so host time (the control rounds'
    /// wall-clock latencies, which live in [`Turbine::trace`]'s histograms)
    /// stays out of it.
    pub(crate) fn ods_metrics_publish(&mut self, now: SimTime, sample: MetricsRoundSample<'_>) {
        let MetricsRoundSample {
            traffic,
            cpu_samples,
            mem_samples,
            jobs,
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
            ("cluster_traffic_bps", traffic),
            ("task_count", self.engine.total_tasks() as f64),
            ("engine_active_jobs", self.engine.active_jobs() as f64),
            ("total_backlog_bytes", total_backlog),
            ("control_queue_depth", self.sched.queue_depth() as f64),
            (
                "sync_jobs_examined",
                self.metrics.sync_jobs_examined.get() as f64,
            ),
            ("reserved_cpu_cores", reserved.cpu),
            ("reserved_memory_mb", reserved.memory_mb),
        ];
        let slo = slo_ok_fraction.map(|frac| ("slo_ok_fraction", frac));
        for (name, value) in gauges.into_iter().chain(slo) {
            ods.registry
                .publish_key(MetricKey::platform(name), now, value);
        }
        // Each band from its own samples: there is no percentile of zero
        // hosts, and a placeholder would record a dip no host reported.
        for (band, samples) in [("host_cpu", cpu_samples), ("host_memory", mem_samples)] {
            if samples.is_empty() {
                continue;
            }
            let p = Percentiles::from_samples(samples);
            for (rank, value) in [("p5", p.p5), ("p50", p.p50), ("p95", p.p95)] {
                ods.registry
                    .publish_key(MetricKey::platform(format!("{band}_{rank}")), now, value);
            }
        }
        for sample in jobs {
            let ids = ods.job_series(sample.job);
            ods.registry.publish(ids.lag, now, sample.lag_secs);
            ods.registry.publish(ids.backlog, now, sample.backlog_bytes);
            ods.registry
                .publish(ids.tasks, now, sample.running_tasks as f64);
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
        // count over the sampling interval. The bus and the series cache
        // are both in name order, so they are walked in step; a category
        // seen for the first time gets its series after the walk, still in
        // name order (series ids follow registration order).
        let interval_secs = self.config.metrics_interval.as_secs_f64().max(1.0);
        let mut known = ods.scribe_series.iter_mut().peekable();
        let mut fresh: Vec<(&str, u64)> = Vec::new();
        for (category, stats) in self.scribe.categories() {
            while known
                .next_if(|(name, _)| name.as_str() < category)
                .is_some()
            {}
            match known.next_if(|(name, _)| name.as_str() == category) {
                Some((_, (id, last))) => {
                    let delta = stats.total_appended.saturating_sub(*last);
                    *last = stats.total_appended;
                    ods.registry.publish(*id, now, delta as f64 / interval_secs);
                }
                None => fresh.push((category, stats.total_appended)),
            }
        }
        for (category, total_appended) in fresh {
            let id = ods.registry.series_id(scribe_series_key(category));
            ods.scribe_series
                .insert(category.to_string(), (id, total_appended));
            ods.registry
                .publish(id, now, total_appended as f64 / interval_secs);
        }
    }

    /// Publish one job's scaler-round observations and read them back from
    /// the registry — the Auto Scaler's symptom inputs flow through the
    /// uniform metrics plane like every other consumer's. The round-trip
    /// is bit-exact (`f64` in, identical `f64` out), so scaling decisions
    /// are unchanged from reading the engine directly.
    pub(crate) fn ods_scaler_roundtrip(
        &mut self,
        job: JobId,
        now: SimTime,
        input_rate: f64,
        processing_rate: f64,
        backlog: f64,
    ) -> (f64, f64, f64) {
        let ods = &mut self.ods;
        let ids = ods.scaler_series(job);
        ods.registry.publish(ids.input_rate, now, input_rate);
        ods.registry
            .publish(ids.processing_rate, now, processing_rate);
        ods.registry.publish(ids.backlog, now, backlog);
        (
            ods.registry
                .series(ids.input_rate)
                .last()
                .expect("just published"),
            ods.registry
                .series(ids.processing_rate)
                .last()
                .expect("just published"),
            ods.registry
                .series(ids.backlog)
                .last()
                .expect("just published"),
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
                .and_then(|j| self.categories.get(&j))
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

// By hand: only the Scribe watermarks of the id caches are stored, and
// their series ids are re-interned from the registry decoded before them.
impl turbine_types::Snap for OdsState {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.registry);
        w.put(&self.alerts);
        // Scribe watermarks are real state (rate deltas); the id halves are
        // re-interned from the restored registry. The per-job/per-tier id
        // caches refill lazily to the same dense ids, so they are omitted.
        let watermarks: BTreeMap<&String, u64> = self
            .scribe_series
            .iter()
            .map(|(category, &(_, last))| (category, last))
            .collect();
        w.put(&watermarks.len());
        for (category, last) in watermarks {
            w.put(category);
            w.u64(last);
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let mut registry: Registry = r.get()?;
        let alerts = r.get()?;
        let count: usize = r.get()?;
        let mut scribe_series = BTreeMap::new();
        for _ in 0..count {
            let category: String = r.get()?;
            let last = r.u64("OdsState.scribe_watermark")?;
            let id = registry.series_id(scribe_series_key(&category));
            scribe_series.insert(category, (id, last));
        }
        Ok(OdsState {
            registry,
            alerts,
            job_series: IdMap::default(),
            scaler_series: IdMap::default(),
            tier_series: BTreeMap::new(),
            scribe_series,
        })
    }
}
