//! The one module through which every product call goes.
//!
//! The rest of the harness speaks plain data ([`crate::plan`]) and plain
//! numbers; this module turns them into `Turbine` calls and back. A later
//! change to the product's API is a change here and nowhere else. It
//! deliberately never sets `sparse_data_plane`, `ods_enabled`,
//! `trace_enabled` or a `DriveMode`: end-to-end numbers are taken at
//! platform defaults, and those switches are slated for deletion.
//!
//! `scuba_host` and the provision loop are copied from `crates/bench`
//! rather than imported, so that crate can change or go without moving
//! the benchmark.

pub mod probes;

use crate::plan::{Action, Cadences, FaultKind, FaultWindow, FleetPlan, JobSpec, Tier, Traffic};
use std::time::Instant;
use turbine::{Fault, FaultPlan, InvariantConfig, Turbine, TurbineConfig};
use turbine_config::{ConfigLevel, ConfigValue, JobConfig, ResiliencyClass};
use turbine_fuzz::FuzzScenario;
use turbine_snap::Snapshot;
use turbine_types::{Duration, HostId, JobId, Resources, SimTime, TaskId};
use turbine_workloads::{FleetConfig, TrafficEvent, TrafficEventKind, TrafficModel};

/// The host shape of the paper's Scuba Tailer evaluation: 56 cores,
/// 256 GB.
fn scuba_host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 2.0e6, 1000.0)
}

fn job_id(index: usize) -> JobId {
    JobId(index as u64 + 1)
}

fn platform_config(plan: &FleetPlan) -> TurbineConfig {
    let mut config = TurbineConfig::default();
    config.shard_count = plan.shard_count;
    config.scaler_enabled = plan.scaler;
    // The paper's 24 h window would freeze the scaler for a whole run.
    config.scaler.downscale_stability = Duration::from_hours(4);
    if plan.cadences == Cadences::Fleet {
        config.sync_interval = Duration::from_mins(1);
        config.heartbeat_interval = Duration::from_mins(1);
        config.tm_refresh_interval = Duration::from_mins(15);
        config.load_report_interval = Duration::from_mins(5);
        config.metrics_interval = Duration::from_mins(10);
        config.checkpoint_interval = Duration::from_mins(15);
        config.capacity_interval = Duration::from_hours(1);
        config.rebalance_interval = Duration::from_hours(1);
    }
    config
}

fn traffic_model(traffic: &Traffic) -> TrafficModel {
    match *traffic {
        Traffic::Flat(rate) => TrafficModel::flat(rate),
        Traffic::Diurnal {
            rate,
            fraction,
            seed,
            storm,
        } => {
            let model = TrafficModel::diurnal(rate, fraction, seed);
            match storm {
                None => model,
                Some(s) => model.with_event(TrafficEvent {
                    start: SimTime::ZERO + Duration::from_mins(s.start_min),
                    end: SimTime::ZERO + Duration::from_mins(s.end_min),
                    kind: TrafficEventKind::RampedMultiplier {
                        peak: s.peak,
                        ramp_mins: s.ramp_mins,
                    },
                }),
            }
        }
    }
}

fn job_config(spec: &JobSpec) -> JobConfig {
    let mut config = JobConfig::stateless(&spec.name, spec.tasks, spec.partitions);
    if let Some((cpu, memory_mb)) = spec.resources {
        config.task_resources = Resources::cpu_mem(cpu, memory_mb);
    }
    config.resiliency = match spec.tier {
        Tier::BestEffort => ResiliencyClass::BestEffort,
        Tier::Standard => ResiliencyClass::Standard,
        Tier::Critical => ResiliencyClass::Critical,
    };
    config
}

/// A Fig.-5-calibrated fleet from `turbine_workloads::synthesize_fleet`:
/// heavy-tailed per-job traffic, every job diurnal, reservations at 1.3×
/// the expected usage with a quarter-core floor.
pub fn fig5_fleet(jobs: usize, seed: u64) -> Vec<JobSpec> {
    let fleet = turbine_workloads::synthesize_fleet(&FleetConfig {
        jobs,
        seed,
        ..FleetConfig::default()
    });
    fleet
        .into_iter()
        .map(|job| {
            let reserved = job.expected_task_usage.scale(1.3);
            JobSpec {
                name: job.name,
                tasks: job.initial_task_count,
                partitions: job.input_partitions,
                resources: Some((reserved.cpu.max(0.25), reserved.memory_mb)),
                traffic: Traffic::Diurnal {
                    rate: job.traffic.base_rate,
                    fraction: job.traffic.diurnal_fraction,
                    seed: job.traffic.seed,
                    storm: None,
                },
                message_bytes: job.avg_message_bytes,
                stateful_keys: None,
                tier: Tier::Standard,
            }
        })
        .collect()
}

/// Lifecycle and work counters of a platform, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Data-plane ticks executed by the drive loop.
    pub ticks_executed: u64,
    /// Shard movements executed.
    pub shard_moves: u64,
    /// Container fail-overs.
    pub failovers: u64,
    /// Scaling actions applied.
    pub scaling_actions: u64,
    /// Jobs examined across State Syncer rounds.
    pub sync_jobs_examined: u64,
    /// Containers that produced a load report.
    pub load_reports_sent: u64,
    /// Fault activations and clearances.
    pub fault_transitions: u64,
    /// Fault-attributed outages that closed.
    pub recoveries: u64,
}

/// Host time one control component (or the data-plane tick) has spent,
/// read from the decision trace's latency histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Busy {
    /// The component's stable name (`data_plane`, `tm_refresh`, ...).
    pub component: &'static str,
    /// Rounds recorded.
    pub rounds: u64,
    /// Sum over rounds, nanoseconds.
    pub total_ns: u64,
    /// Slowest round, nanoseconds.
    pub max_ns: u64,
}

/// Wall time and size of one capture → encode → decode → restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapTimings {
    /// `Snapshot::capture`.
    pub capture_s: f64,
    /// `Snapshot::to_bytes`.
    pub encode_s: f64,
    /// `Snapshot::from_bytes` + `Snapshot::restore`.
    pub decode_restore_s: f64,
    /// Blob size.
    pub bytes: u64,
    /// Unique chunks ÷ chunks in the manifest.
    pub unique_chunk_ratio: f64,
}

impl SnapTimings {
    /// The whole round trip.
    pub fn roundtrip_s(&self) -> f64 {
        self.capture_s + self.encode_s + self.decode_restore_s
    }
}

/// The outcome of a batch of product calls that are all expected to
/// succeed.
#[derive(Debug, Default)]
pub struct Calls {
    /// Calls made.
    pub made: usize,
    /// Calls that returned an error.
    pub failed: usize,
    /// The first error, for the report.
    pub first_error: Option<String>,
}

impl Calls {
    fn note<E: ToString>(&mut self, result: Result<(), E>) {
        self.made += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.to_string());
        }
    }
}

/// A platform under test plus the host handles the plan's indexes name.
pub struct Platform {
    turbine: Turbine,
    hosts: Vec<HostId>,
}

impl Platform {
    /// Construct the platform, add the hosts, switch the invariant
    /// checker on (from t = 0, when the plan asks), provision every job
    /// and install the default alert rules. Returns the platform and how
    /// the provisioning calls went.
    pub fn build(plan: &FleetPlan) -> (Platform, Calls) {
        let mut turbine = Turbine::new(platform_config(plan));
        let hosts = turbine.add_hosts(plan.hosts, scuba_host());
        if plan.invariants {
            turbine.enable_invariant_checks(InvariantConfig::default());
        }
        let mut calls = Calls::default();
        for (i, spec) in plan.jobs.iter().enumerate() {
            let config = job_config(spec);
            let traffic = traffic_model(&spec.traffic);
            calls.note(match spec.stateful_keys {
                None => {
                    turbine.provision_job(job_id(i), config, traffic, 1.0e6, spec.message_bytes)
                }
                Some(keys) => turbine.provision_stateful_job(
                    job_id(i),
                    config,
                    traffic,
                    1.0e6,
                    spec.message_bytes,
                    keys,
                ),
            });
        }
        if plan.alert_rules {
            turbine.install_default_alert_rules();
        }
        (Platform { turbine, hosts }, calls)
    }

    /// Advance simulated time on the platform's default drive path.
    pub fn run_for_mins(&mut self, mins: u64) {
        self.turbine.run_for(Duration::from_mins(mins));
    }

    /// Simulated milliseconds since t = 0.
    pub fn now_ms(&self) -> u64 {
        self.turbine.now().as_millis()
    }

    /// The data-plane tick, seconds.
    pub fn tick_secs(&self) -> f64 {
        self.turbine.config().tick.as_secs_f64()
    }

    /// Whether the Job Store currently refuses writes (`JobStoreDown`).
    pub fn job_store_down(&self) -> bool {
        self.turbine
            .fault_injector()
            .is_active(&Fault::JobStoreDown)
    }

    /// Apply one intervention.
    pub fn apply(&mut self, plan: &FleetPlan, action: &Action) -> Calls {
        let mut calls = Calls::default();
        match action {
            Action::PackageBump { jobs, version } => {
                for &i in jobs {
                    calls.note(self.turbine.job_service_mut().set_level_field(
                        job_id(i),
                        ConfigLevel::Provisioner,
                        "package.version",
                        ConfigValue::Int(*version),
                    ));
                }
            }
            Action::OncallPin { jobs, extra } => {
                let ceiling = JobConfig::stateless("", 1, 1).max_task_count;
                for &i in jobs {
                    let tasks = (plan.jobs[i].tasks + extra).min(ceiling) as i64;
                    calls.note(self.turbine.oncall_set(
                        job_id(i),
                        "task_count",
                        ConfigValue::Int(tasks),
                    ));
                }
            }
            Action::FailHost(h) => calls.note(self.turbine.fail_host(self.hosts[*h])),
            Action::RecoverHost(h) => calls.note(self.turbine.recover_host(self.hosts[*h])),
        }
        calls
    }

    /// Schedule a fault window `window.from_secs` after now. Victims are
    /// resolved against the live placement, so call this after warm-up.
    pub fn schedule_fault(&mut self, window: &FaultWindow) -> Result<(), String> {
        let fault = match window.kind {
            FaultKind::TaskServiceDown => Fault::TaskServiceDown,
            FaultKind::JobStoreDown => Fault::JobStoreDown,
            FaultKind::SyncerCrash => Fault::SyncerCrash,
            FaultKind::HeartbeatLossOfHost(h) => {
                let containers = self
                    .turbine
                    .cluster
                    .containers_on(self.hosts[h])
                    .map_err(|e| e.to_string())?;
                Fault::HeartbeatLoss(*containers.first().ok_or("host has no container")?)
            }
            FaultKind::HeartbeatLossOfJob(j) => Fault::HeartbeatLoss(
                self.turbine
                    .task_container(TaskId::new(job_id(j), 0))
                    .ok_or_else(|| format!("job {j} task 0 is not placed"))?,
            ),
            FaultKind::ScribeStallOfJob(j) => Fault::ScribeStall(
                self.turbine
                    .job_category(job_id(j))
                    .ok_or_else(|| format!("job {j} has no category"))?
                    .to_string(),
            ),
        };
        let from = self.turbine.now() + Duration::from_secs(window.from_secs);
        self.turbine.schedule_fault(FaultPlan {
            fault,
            from,
            until: Some(from + Duration::from_secs(window.len_secs)),
        });
        Ok(())
    }

    /// Digest of `Turbine::fingerprint()` (FNV-1a over its `Debug` text):
    /// two runs match iff their counters, per-job running tasks and
    /// backlog bits, fault timeline and recovery log all match.
    pub fn fingerprint_digest(&self) -> u64 {
        crate::stats::fnv1a(format!("{:?}", self.turbine.fingerprint()).as_bytes())
    }

    /// Digest of the decision trace (covers evicted records too).
    pub fn trace_digest(&self) -> u64 {
        self.turbine.trace().digest()
    }

    /// `(records ever recorded, records evicted from the ring)`.
    pub fn trace_records(&self) -> (u64, u64) {
        let trace = self.turbine.trace();
        (trace.total_recorded(), trace.evicted())
    }

    /// Per-component host time so far.
    pub fn busy(&self) -> Vec<Busy> {
        self.turbine
            .trace()
            .latencies()
            .map(|(component, hist)| Busy {
                component: component.name(),
                rounds: hist.count,
                total_ns: hist.total_ns,
                max_ns: hist.max_ns,
            })
            .collect()
    }

    /// Work counters so far.
    pub fn counters(&self) -> Counters {
        let m = &self.turbine.metrics;
        Counters {
            ticks_executed: m.ticks_executed.get(),
            shard_moves: m.shard_moves.get(),
            failovers: m.failovers.get(),
            scaling_actions: m.scaling_actions.get(),
            sync_jobs_examined: m.sync_jobs_examined.get(),
            load_reports_sent: m.load_reports_sent.get(),
            fault_transitions: self.turbine.fault_injector().log().len() as u64,
            recoveries: m.recoveries.len() as u64,
        }
    }

    /// Tasks running right now.
    pub fn running_tasks(&self) -> usize {
        self.turbine.engine().total_tasks()
    }

    /// Mean of the `slo_ok_fraction` samples taken in `(from_ms, to_ms]`.
    pub fn slo_ok_mean(&self, from_ms: u64, to_ms: u64) -> Option<f64> {
        window_mean(&self.turbine.metrics.slo_ok_fraction, from_ms, to_ms)
    }

    /// Mean of the running-task-count samples taken in `(from_ms, to_ms]`.
    pub fn task_count_mean(&self, from_ms: u64, to_ms: u64) -> Option<f64> {
        window_mean(&self.turbine.metrics.task_count, from_ms, to_ms)
    }

    /// Outage durations (ms) of recoveries that closed after `from_ms`.
    pub fn recovery_ms_since(&self, from_ms: u64) -> Vec<u64> {
        self.turbine
            .metrics
            .recoveries
            .iter()
            .filter(|r| r.at.as_millis() > from_ms)
            .map(|r| r.ms)
            .collect()
    }

    /// `(violations, sparse checks run, audit mismatches)` of the
    /// invariant checker; `None` when it is off.
    pub fn invariants(&self) -> Option<(u64, u64, u64)> {
        self.turbine.invariant_checker().map(|c| {
            (
                c.total_violations(),
                c.ticks_checked(),
                c.audit_mismatches(),
            )
        })
    }

    /// The first recorded invariant violation, for the failure report.
    pub fn first_violation(&self) -> Option<String> {
        self.turbine
            .invariant_violations()
            .first()
            .map(|v| format!("{v:?}"))
    }

    /// `(series, retained samples, incidents opened)` of the ODS plane.
    pub fn ods(&self) -> (u64, u64, u64) {
        let registry = self.turbine.ods_registry();
        let samples: usize = registry.iter().map(|(_, series)| series.len()).sum();
        (
            registry.len() as u64,
            samples as u64,
            self.turbine.incidents().len() as u64,
        )
    }

    /// Entries in the Job Store changelog. (`&mut`: the platform's only
    /// public handle on the Job Service is `job_service_mut`.)
    pub fn jobstore_changelog_len(&mut self) -> u64 {
        self.turbine.job_service_mut().store().changelog_len()
    }

    /// Capture → encode → decode → restore; the restored platform comes
    /// back with the same host handles.
    pub fn snapshot_roundtrip(&self) -> Result<(Platform, SnapTimings), String> {
        let started = Instant::now();
        let snapshot = Snapshot::capture(&self.turbine);
        let capture_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let bytes = snapshot.to_bytes();
        let encode_s = started.elapsed().as_secs_f64();
        let unique_chunk_ratio =
            snapshot.unique_chunk_count() as f64 / snapshot.chunk_count().max(1) as f64;
        drop(snapshot);
        let started = Instant::now();
        let turbine = Snapshot::from_bytes(&bytes)
            .and_then(|s| s.restore())
            .map_err(|e| format!("snapshot restore: {e:?}"))?;
        let decode_restore_s = started.elapsed().as_secs_f64();
        Ok((
            Platform {
                turbine,
                hosts: self.hosts.clone(),
            },
            SnapTimings {
                capture_s,
                encode_s,
                decode_restore_s,
                bytes: bytes.len() as u64,
                unique_chunk_ratio,
            },
        ))
    }
}

fn window_mean(series: &turbine_types::TimeSeries, from_ms: u64, to_ms: u64) -> Option<f64> {
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    series.mean_in_window(at(from_ms + 1), at(to_ms + 1))
}

/// Drives of one fuzz case: dense tick, event-driven, event-driven replay.
pub const FUZZ_DRIVES_PER_CASE: u64 = 3;

/// One generated fuzz scenario.
pub struct FuzzCase(FuzzScenario);

impl FuzzCase {
    /// `turbine_fuzz::generate(seed)`.
    pub fn generate(seed: u64) -> FuzzCase {
        FuzzCase(turbine_fuzz::generate(seed))
    }

    /// Simulated minutes each drive covers.
    pub fn horizon_mins(&self) -> u64 {
        self.0.horizon_mins as u64
    }

    /// The scenario's canonical JSON (the generated input, for digests).
    pub fn input_text(&self) -> String {
        self.0.to_json()
    }

    /// `turbine_fuzz::run_case`: three drives with auto-snapshots, four
    /// oracles. Returns the oracle failures, empty when the case passes.
    pub fn run(&self) -> Vec<String> {
        turbine_fuzz::run_case(&self.0)
            .failures
            .iter()
            .map(|f| format!("{f:?}"))
            .collect()
    }
}

/// Parse JSON with the product's own parser (harness self-tests only).
#[cfg(test)]
pub fn parse_json(text: &str) -> Result<ConfigValue, String> {
    turbine_config::text::parse(text).map_err(|e| e.to_string())
}
