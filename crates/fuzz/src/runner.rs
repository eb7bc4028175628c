//! Drive one scenario through the platform and evaluate the oracles.
//!
//! Each case runs the same scenario three times — dense-tick, event-driven,
//! and an event-driven replay — inside `catch_unwind`, so a panic anywhere
//! in the platform becomes an oracle failure instead of killing the
//! campaign. Four oracles judge the runs:
//!
//! 1. **Invariant checker** — the per-tick safety/convergence invariants
//!    must record zero violations in every mode, and every full-scan
//!    audit of the sparse checks must agree with them.
//! 2. **Mode equivalence** — dense-tick and event-driven fingerprints must
//!    match bit-for-bit (the PR 3 equivalence contract).
//! 3. **Replay determinism** — re-running event-driven must reproduce both
//!    the fingerprint and the full-history trace digest exactly.
//! 4. **Durable readability** — at the end of the run every job's
//!    checkpoints must be readable against the Scribe tails
//!    (`durable_backlog` returns `Ok`).

use crate::bisect::{bisect_recorded, DivergenceReport};
use crate::scenario::{FuzzScenario, FuzzTrafficEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use turbine::{
    DriveMode, Fault, FaultPlan, InvariantConfig, PlatformFingerprint, Turbine, TurbineConfig,
};
use turbine_config::JobConfig;
use turbine_snap::Snapshot;
use turbine_types::{Duration, HostId, JobId, Resources, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

/// What one mode's run produced.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Bit-exact platform fingerprint at the horizon.
    pub fingerprint: PlatformFingerprint,
    /// Full-history trace digest.
    pub trace_digest: u64,
    /// Rendered invariant violations (empty on a clean run).
    pub invariant_violations: Vec<String>,
    /// Disagreements between the sparse checks and their full-scan audits.
    pub audit_mismatches: u64,
    /// Jobs whose checkpoints were unreadable at the end.
    pub durable_errors: Vec<String>,
}

/// One oracle failure. `Display` gives the one-line campaign log form.
#[derive(Debug, Clone)]
pub enum OracleFailure {
    /// The platform panicked while driving a mode.
    Panic {
        /// Which run panicked (`dense`, `event`, `replay`).
        mode: &'static str,
        /// The panic payload, stringified.
        message: String,
    },
    /// The invariant checker recorded violations.
    Invariant {
        /// Which run.
        mode: &'static str,
        /// Rendered violations (capped upstream).
        violations: Vec<String>,
    },
    /// A full-scan audit disagreed with the sparse invariant checks.
    Audit {
        /// Which run.
        mode: &'static str,
        /// Disagreements counted.
        mismatches: u64,
    },
    /// Dense-tick and event-driven fingerprints differ.
    ModeDivergence,
    /// An event-driven replay did not reproduce the first event run.
    ReplayDivergence,
    /// `durable_backlog` errored for some job at the end of a run.
    DurableBacklog {
        /// Which run.
        mode: &'static str,
        /// Per-job error strings.
        errors: Vec<String>,
    },
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleFailure::Panic { mode, message } => write!(f, "panic[{mode}]: {message}"),
            OracleFailure::Invariant { mode, violations } => {
                write!(f, "invariant[{mode}]: {}", violations.join("; "))
            }
            OracleFailure::Audit { mode, mismatches } => {
                write!(f, "audit[{mode}]: {mismatches} sparse-vs-full mismatches")
            }
            OracleFailure::ModeDivergence => write!(f, "dense/event fingerprint divergence"),
            OracleFailure::ReplayDivergence => write!(f, "event replay divergence"),
            OracleFailure::DurableBacklog { mode, errors } => {
                write!(f, "durable_backlog[{mode}]: {}", errors.join("; "))
            }
        }
    }
}

/// The oracle verdicts for one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Every oracle failure observed (empty = case passed).
    pub failures: Vec<OracleFailure>,
    /// The event-mode artifacts, when that run completed without
    /// panicking (repro verification wants the reference digests).
    pub event_artifacts: Option<RunArtifacts>,
    /// Bisection results for each fingerprint-divergence failure: the
    /// first divergent round, localized by binary-searching the runs'
    /// auto-snapshots instead of replaying from minute zero.
    pub divergences: Vec<DivergenceReport>,
}

impl CaseReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Build the platform a scenario describes. Public so regression tests can
/// poke at intermediate state; campaign code goes through [`run_case`].
pub fn build_platform(s: &FuzzScenario) -> Result<(Turbine, Vec<HostId>), String> {
    let mut config = TurbineConfig::default();
    config.tick = Duration::from_secs(s.tick_secs as u64);
    config.scaler_enabled = s.scaler_enabled;
    config.shardmgr.placement.headroom = s.headroom;
    config.shardmgr.placement.band = s.band;
    let mut turbine = Turbine::try_new(config)?;
    let hosts = turbine.add_hosts(
        s.hosts as usize,
        Resources::new(s.host_cpu, s.host_memory_mb, 1.0e6, 1000.0),
    );
    for (i, job) in s.jobs.iter().enumerate() {
        let id = JobId(i as u64 + 1);
        let mut jc = JobConfig::stateless(&job.name, job.tasks, job.partitions);
        jc.threads_per_task = job.threads;
        jc.max_task_count = job.max_tasks;
        jc.resiliency = job.resiliency;
        let mut traffic = if job.diurnal > 0.0 {
            TrafficModel::diurnal(job.rate, job.diurnal, job.traffic_seed)
        } else {
            TrafficModel::flat(job.rate)
        };
        for event in &job.events {
            traffic = traffic.with_event(to_traffic_event(event));
        }
        if job.stateful {
            turbine.provision_stateful_job(
                id,
                jc,
                traffic,
                job.per_thread_rate,
                job.message_bytes,
                job.key_cardinality,
            )?;
        } else {
            turbine.provision_job(id, jc, traffic, job.per_thread_rate, job.message_bytes)?;
        }
    }
    Ok((turbine, hosts))
}

fn to_traffic_event(event: &FuzzTrafficEvent) -> TrafficEvent {
    let kind = match event.kind.as_str() {
        "multiplier" => TrafficEventKind::Multiplier(event.magnitude),
        "ramp" => TrafficEventKind::RampedMultiplier {
            peak: event.magnitude,
            ramp_mins: event.ramp_mins as u64,
        },
        "consumer_disabled" => TrafficEventKind::ConsumerDisabled,
        "input_outage" => TrafficEventKind::InputOutage,
        other => unreachable!("validated event kind, got '{other}'"),
    };
    TrafficEvent {
        start: at_min(event.start_min),
        end: at_min(event.end_min),
        kind,
    }
}

fn at_min(min: u32) -> SimTime {
    SimTime::ZERO + Duration::from_mins(min as u64)
}

/// Schedule the scenario's fault windows onto a freshly built platform.
fn schedule_faults(turbine: &mut Turbine, s: &FuzzScenario, hosts: &[HostId]) {
    for fault in &s.faults {
        let kind = match fault.kind.as_str() {
            "task_service_down" => Fault::TaskServiceDown,
            "job_store_down" => Fault::JobStoreDown,
            "syncer_crash" => Fault::SyncerCrash,
            "heartbeat_loss" => {
                let host = hosts[fault.target as usize % hosts.len()];
                let containers = turbine.cluster.containers_on(host).unwrap_or_default();
                let Some(&container) = containers.first() else {
                    continue;
                };
                Fault::HeartbeatLoss(container)
            }
            "scribe_stall" => {
                let job = JobId(fault.target as u64 % s.jobs.len() as u64 + 1);
                let Some(category) = turbine.job_category(job) else {
                    continue;
                };
                Fault::ScribeStall(category.to_string())
            }
            other => unreachable!("validated fault kind, got '{other}'"),
        };
        turbine.schedule_fault(FaultPlan {
            fault: kind,
            from: at_min(fault.from_min),
            until: Some(at_min(fault.from_min + fault.len_min.max(1))),
        });
    }
}

/// Seeded divergence injection: fail one extra host at a minute edge in
/// one run but not its counterpart. This is not a scenario feature — it
/// exists so the bisector (and its CI gate) can be exercised against a
/// divergence whose first round is known in advance, without waiting for
/// a real platform bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation {
    /// Index into the scenario's host list (taken modulo the host count).
    pub host: usize,
    /// Minute edge at which the extra `fail_host` fires.
    pub at_min: u32,
}

/// One auto-snapshot taken during a recorded drive: the platform digests
/// at a minute edge plus the full serialized state to resume from.
pub struct Checkpoint {
    /// Minute the checkpoint was taken at (after that minute's host-flap
    /// edges fired, before the next minute was driven).
    pub minute: u32,
    /// Bit-exact platform fingerprint at the edge.
    pub fingerprint: PlatformFingerprint,
    /// Full-history trace digest at the edge.
    pub trace_digest: u64,
    /// Whole-platform snapshot to restore the run from this edge.
    pub snapshot: Snapshot<'static>,
}

/// A drive plus the periodic auto-snapshots recorded along the way.
pub struct RecordedRun {
    /// The mode this run was driven in.
    pub mode: DriveMode,
    /// The seeded divergence applied, if any.
    pub perturb: Option<Perturbation>,
    /// End-of-run oracle artifacts.
    pub artifacts: RunArtifacts,
    /// Auto-snapshots, in minute order (always includes minute 0 and the
    /// horizon minute when recording is on).
    pub checkpoints: Vec<Checkpoint>,
}

/// Host-flap (and seeded-perturbation) edges pending against the minute
/// loop. Factored out so a run resumed from a [`Checkpoint`] replays the
/// exact edge schedule the recording run used.
pub(crate) struct EdgeSet {
    fails: Vec<(SimTime, usize)>,
    recovers: Vec<(SimTime, usize)>,
    perturb: Option<(SimTime, usize)>,
}

impl EdgeSet {
    pub(crate) fn new(s: &FuzzScenario, perturb: Option<Perturbation>) -> EdgeSet {
        EdgeSet {
            fails: s
                .flaps
                .iter()
                .map(|f| (at_min(f.fail_min), f.host as usize))
                .collect(),
            recovers: s
                .flaps
                .iter()
                .map(|f| (at_min(f.recover_min), f.host as usize))
                .collect(),
            perturb: perturb.map(|p| (at_min(p.at_min), p.host)),
        }
    }

    /// Drop edges that had already fired when a checkpoint at `now` was
    /// captured (checkpoints are taken after the edges of their minute).
    pub(crate) fn resume_at(mut self, now: SimTime) -> EdgeSet {
        self.fails.retain(|&(at, _)| at > now);
        self.recovers.retain(|&(at, _)| at > now);
        if let Some((at, _)) = self.perturb {
            if at <= now {
                self.perturb = None;
            }
        }
        self
    }

    /// Fire every edge due at `now`, exactly once.
    pub(crate) fn fire(&mut self, turbine: &mut Turbine, hosts: &[HostId]) {
        let now = turbine.now();
        // Recoveries before failures: a host flapped twice in one scenario
        // must come back up before it can go down again.
        self.recovers.retain(|&(at, h)| {
            if at <= now {
                let _ = turbine.recover_host(hosts[h]);
                false
            } else {
                true
            }
        });
        self.fails.retain(|&(at, h)| {
            if at <= now {
                let _ = turbine.fail_host(hosts[h]);
                false
            } else {
                true
            }
        });
        if let Some((at, h)) = self.perturb {
            if at <= now {
                let _ = turbine.fail_host(hosts[h % hosts.len()]);
                self.perturb = None;
            }
        }
    }
}

fn end_of_run_artifacts(turbine: &Turbine, s: &FuzzScenario) -> RunArtifacts {
    let invariant_violations = turbine
        .invariant_violations()
        .iter()
        .map(|v| format!("{} at {}: {}", v.invariant, v.at, v.detail))
        .collect();
    let durable_errors = (1..=s.jobs.len() as u64)
        .filter_map(|id| turbine.durable_backlog(JobId(id)).err())
        .collect();
    RunArtifacts {
        fingerprint: turbine.fingerprint(),
        trace_digest: turbine.trace().digest(),
        invariant_violations,
        audit_mismatches: turbine
            .invariant_checker()
            .map_or(0, |c| c.audit_mismatches()),
        durable_errors,
    }
}

/// Checkpoint cadence for auto-snapshots: aim for ~8 checkpoints per run,
/// at least one per minute, at most one every 30 minutes.
pub fn auto_snap_interval(horizon_mins: u32) -> u32 {
    (horizon_mins / 8).clamp(1, 30)
}

/// Drive one mode to the horizon, applying host flaps on minute edges.
/// With `snap_every`, record a [`Checkpoint`] at minute 0, every
/// `snap_every` minutes, and at the horizon; with `perturb`, apply the
/// seeded divergence at its minute edge.
pub fn drive_recorded(
    s: &FuzzScenario,
    mode: DriveMode,
    snap_every: Option<u32>,
    perturb: Option<Perturbation>,
) -> RecordedRun {
    let (mut turbine, hosts) =
        build_platform(s).expect("generated/validated scenarios always build");
    turbine.enable_invariant_checks(InvariantConfig::default());
    schedule_faults(&mut turbine, s, &hosts);

    let end = at_min(s.horizon_mins);
    let mut edges = EdgeSet::new(s, perturb);
    let mut checkpoints = Vec::new();
    loop {
        let now = turbine.now();
        if now < end {
            edges.fire(&mut turbine, &hosts);
        }
        if let Some(every) = snap_every {
            let minute = (now.as_millis() / 60_000) as u32;
            if minute.is_multiple_of(every) || now >= end {
                checkpoints.push(Checkpoint {
                    minute,
                    fingerprint: turbine.fingerprint(),
                    trace_digest: turbine.trace().digest(),
                    snapshot: Snapshot::capture(&turbine),
                });
            }
        }
        if now >= end {
            break;
        }
        turbine.drive_for(Duration::from_mins(1).min(end.since(now)), mode);
    }

    RecordedRun {
        mode,
        perturb,
        artifacts: end_of_run_artifacts(&turbine, s),
        checkpoints,
    }
}

/// A run resumed from a [`Checkpoint`]: the restored platform plus the
/// edge schedule still ahead of it. Used by the bisector to replay the
/// divergent span one minute at a time.
pub(crate) struct ResumedRun {
    turbine: Turbine,
    hosts: Vec<HostId>,
    edges: EdgeSet,
    mode: DriveMode,
    end: SimTime,
}

impl ResumedRun {
    /// Restore a checkpoint of `run` and rebuild the pending edge set.
    /// Host ids are recovered from the restored cluster — `hosts()`
    /// returns them in creation order, matching [`build_platform`].
    pub(crate) fn from_checkpoint(
        s: &FuzzScenario,
        run: &RecordedRun,
        checkpoint: &Checkpoint,
    ) -> Result<ResumedRun, String> {
        let turbine = checkpoint
            .snapshot
            .restore()
            .map_err(|e| format!("checkpoint at minute {} unreadable: {e}", checkpoint.minute))?;
        let hosts = turbine.cluster.hosts();
        let edges = EdgeSet::new(s, run.perturb).resume_at(turbine.now());
        Ok(ResumedRun {
            turbine,
            hosts,
            edges,
            mode: run.mode,
            end: at_min(s.horizon_mins),
        })
    }

    /// Fire the current minute's edges and drive one minute, mirroring
    /// the recording loop exactly. No-op at the horizon.
    pub(crate) fn step_minute(&mut self) {
        let now = self.turbine.now();
        if now >= self.end {
            return;
        }
        self.edges.fire(&mut self.turbine, &self.hosts);
        self.turbine
            .drive_for(Duration::from_mins(1).min(self.end.since(now)), self.mode);
    }

    pub(crate) fn fingerprint(&self) -> PlatformFingerprint {
        self.turbine.fingerprint()
    }

    pub(crate) fn trace_digest(&self) -> u64 {
        self.turbine.trace().digest()
    }

    /// Trace events recorded in the window `(from_min, to_min]`, rendered
    /// as JSONL lines (the trace export format).
    pub(crate) fn trace_window(&self, from_min: u32, to_min: u32) -> Vec<String> {
        let (from, to) = (at_min(from_min), at_min(to_min));
        self.turbine
            .trace()
            .events()
            .filter(|e| e.at > from && e.at <= to)
            .map(|e| e.to_json())
            .collect()
    }
}

/// Restore one of `run`'s auto-snapshots and drive it to the horizon,
/// replaying the recorded edge schedule. The returned artifacts must match
/// `run.artifacts` bit-for-bit — any mismatch means some platform state
/// escaped serialization (the restore-divergence CI gate).
pub fn resume_to_horizon(
    s: &FuzzScenario,
    run: &RecordedRun,
    checkpoint_index: usize,
) -> Result<RunArtifacts, String> {
    let checkpoint = run
        .checkpoints
        .get(checkpoint_index)
        .ok_or_else(|| format!("run has no checkpoint {checkpoint_index}"))?;
    let mut resumed = ResumedRun::from_checkpoint(s, run, checkpoint)?;
    for _ in checkpoint.minute..s.horizon_mins {
        resumed.step_minute();
    }
    Ok(end_of_run_artifacts(&resumed.turbine, s))
}

fn drive_caught(
    s: &FuzzScenario,
    mode: DriveMode,
    snap_every: Option<u32>,
) -> Result<RecordedRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        drive_recorded(s, mode, snap_every, None)
    }))
    .map_err(|payload| {
        if let Some(msg) = payload.downcast_ref::<&str>() {
            (*msg).to_string()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

/// Run one case: three drives, four oracles. Each drive auto-snapshots on
/// a horizon-scaled cadence; when the mode-equivalence or replay oracle
/// trips, the snapshots are bisected to localize the first divergent
/// round (reported in [`CaseReport::divergences`]).
pub fn run_case(s: &FuzzScenario) -> CaseReport {
    let mut failures = Vec::new();
    let mut check = |mode: &'static str, run: &Result<RecordedRun, String>| match run {
        Ok(recorded) => {
            if !recorded.artifacts.invariant_violations.is_empty() {
                failures.push(OracleFailure::Invariant {
                    mode,
                    violations: recorded.artifacts.invariant_violations.clone(),
                });
            }
            if recorded.artifacts.audit_mismatches > 0 {
                failures.push(OracleFailure::Audit {
                    mode,
                    mismatches: recorded.artifacts.audit_mismatches,
                });
            }
            if !recorded.artifacts.durable_errors.is_empty() {
                failures.push(OracleFailure::DurableBacklog {
                    mode,
                    errors: recorded.artifacts.durable_errors.clone(),
                });
            }
        }
        Err(message) => failures.push(OracleFailure::Panic {
            mode,
            message: message.clone(),
        }),
    };

    let every = Some(auto_snap_interval(s.horizon_mins));
    let dense = drive_caught(s, DriveMode::DenseTick, every);
    check("dense", &dense);
    let event = drive_caught(s, DriveMode::EventDriven, every);
    check("event", &event);
    let replay = drive_caught(s, DriveMode::EventDriven, every);
    check("replay", &replay);

    let mut divergences = Vec::new();
    if let (Ok(d), Ok(e)) = (&dense, &event) {
        if d.artifacts.fingerprint != e.artifacts.fingerprint {
            failures.push(OracleFailure::ModeDivergence);
            divergences.extend(bisect_recorded(s, d, e, "mode", "dense", "event"));
        }
    }
    if let (Ok(e), Ok(r)) = (&event, &replay) {
        if e.artifacts.fingerprint != r.artifacts.fingerprint
            || e.artifacts.trace_digest != r.artifacts.trace_digest
        {
            failures.push(OracleFailure::ReplayDivergence);
            divergences.extend(bisect_recorded(s, e, r, "replay", "event", "replay"));
        }
    }

    CaseReport {
        failures,
        event_artifacts: event.ok().map(|r| r.artifacts),
        divergences,
    }
}
