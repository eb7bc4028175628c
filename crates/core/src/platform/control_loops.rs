//! The per-event control-loop handlers: one method per
//! [`ControlEvent`](super::ControlEvent) round, plus the shared plumbing
//! (shard-movement application, task-event bookkeeping) they all feed
//! into. Cadences, gates, and dispatch order live in the scheduler's
//! component table — these bodies only do the round's work at the instant
//! they are invoked.

use super::{
    set_halt, Halt, OutageState, ScalerScratch, Turbine, CONNECTION_TIMEOUT, RESTART_DELAY,
};
use crate::engine::{Engine, EngineReader};
use crate::invariants::{Inbox, InvariantChecker};
use crate::metrics::DiagnosisRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use turbine_autoscaler::{capacity, Diagnosis, JobMetrics, Mitigation, ScalingAction};
use turbine_config::{ConfigLevel, JobConfig, ResiliencyClass};
use turbine_jobstore::{JobService, MemWal, StoreReader};
use turbine_shardmgr::ShardMovement;
use turbine_statesyncer::{Redistribute, SyncEnvironment};
use turbine_taskmgr::{LocalTaskManager, RunningJobs, TaskEvent, TaskService};
use turbine_trace::TraceData;
use turbine_types::{ContainerId, Duration, HostId, JobId, Resources, SimTime, TaskId};

impl Turbine {
    /// Heartbeats + proactive reboot of disconnected containers. Every
    /// container beats but the lost ones, which the Shard Manager records
    /// as silent: the round visits the lost containers and those that were
    /// silent, never the whole fleet.
    pub(crate) fn heartbeat_round(&mut self) {
        let now = self.now;
        // Proactive reboots first, in container order.
        let mut due_reboot: Vec<(ContainerId, SimTime)> = Vec::new();
        for (&container, loss) in &mut self.lost {
            if let Some(severance) = loss.severed.as_mut() {
                if !severance.rebooted && now.since(severance.at) >= CONNECTION_TIMEOUT {
                    severance.rebooted = true;
                    due_reboot.push((container, loss.since));
                }
            }
        }
        // A reboot takes the container's tasks down: a fault-attributed
        // outage for every affected job, measured from the connectivity
        // loss (not the reboot) — the earliest one among this beat's
        // reboots that hit the job.
        let mut affected: BTreeMap<JobId, SimTime> = BTreeMap::new();
        for (container, since) in due_reboot {
            let all_events = self.drop_owned_shards(container);
            for event in &all_events {
                if let TaskEvent::Stopped(id) = event {
                    let onset = affected.entry(id.job).or_insert(since);
                    *onset = (*onset).min(since);
                }
            }
            // The reboot dropped every owned shard regardless of whether
            // tasks were running on them.
            self.container_changed(container);
            self.handle_task_events(container, &all_events);
        }
        for (job, since) in affected {
            self.open_outage(job, since);
        }
        for container in self.shard_manager.beat(now, self.lost.keys().copied()) {
            // A container we declared dead (and failed over) came back.
            // Its shards must already live elsewhere — the revival is
            // surfaced rather than silently absorbed. A beat moves no
            // shard, so surfacing the revivals after the whole round sees
            // what surfacing each after its own beat would.
            let stale_shards = self.shard_manager.shards_of(container).len();
            self.metrics.container_revivals.incr();
            self.trace.emit(
                now,
                TraceData::ContainerRevived {
                    container,
                    stale_shards,
                },
            );
            self.tell_checker(|inbox| inbox.revivals.push((container, stale_shards)));
        }
    }

    /// Shard Manager fail-over check (piggybacks the heartbeat cadence).
    /// The warm-standby fast path runs first: a critical job whose primary
    /// went suspect is promoted without waiting for the full fail-over
    /// interval. Then the standard path declares dead containers and moves
    /// their shards, standbys are (re)placed, and the SLO check closes any
    /// outage whose job is back at full strength.
    pub(crate) fn failover_check(&mut self) {
        let now = self.now;
        self.promote_suspect_primaries();
        let (newly_dead, failover_moves) = self.shard_manager.check_failover(now);
        if !failover_moves.is_empty() {
            // Outages are attributed before the movements execute: every
            // job with a task on a newly dead container went down when
            // that container lost connectivity, not when we noticed.
            let mut affected: BTreeMap<JobId, SimTime> = BTreeMap::new();
            for (id, task) in self.engine.tasks() {
                if newly_dead.binary_search(&task.container).is_ok() {
                    let since = self.lost.get(&task.container).map_or(now, |l| l.since);
                    let onset = affected.entry(id.job).or_insert(since);
                    *onset = (*onset).min(since);
                }
            }
            for (job, since) in affected {
                self.open_outage(job, since);
            }
            self.metrics.failovers.incr();
            self.trace.emit(
                now,
                TraceData::Failover {
                    moves: failover_moves.len(),
                },
            );
            self.apply_movements(&failover_moves);
        }
        self.ensure_standbys();
        self.slo_check();
    }

    /// Open a fault-attributed outage for a job (idempotent: an already
    /// open outage keeps its original onset).
    fn open_outage(&mut self, job: JobId, since: SimTime) {
        self.outages
            .entry(job)
            .or_insert(OutageState { since, fast: false });
    }

    /// The fast fail-over path: promote the warm standby of any critical
    /// job whose primary container has gone suspect (missed heartbeats for
    /// the standby grace period, but not yet long enough for the standard
    /// path to declare it dead). The promotion hands the suspect shards to
    /// the standby, which starts their tasks without the cold restart
    /// delay — it was already shadow-consuming the input. An unreachable
    /// standby (severed or on a dead host: a suspect standby is one of
    /// these, since the check runs at the beat's own instant) is dropped
    /// instead of promoted: the job then degrades to the standard
    /// fail-over path (double fault).
    fn promote_suspect_primaries(&mut self) {
        let now = self.now;
        let registrations: Vec<(JobId, ContainerId)> = self.shard_manager.standbys().collect();
        for (job, standby) in registrations {
            if !self.reachable(standby) {
                self.drop_standby(job);
                continue;
            }
            let mut suspect_shards = Vec::new();
            let mut since = now;
            for (&id, task) in self.engine.tasks_of_job(job) {
                if !self.shard_manager.is_suspect(task.container, now) {
                    continue;
                }
                suspect_shards.push(turbine_taskmgr::shard_of_task(id, self.config.shard_count));
                since = since.min(self.lost.get(&task.container).map_or(now, |l| l.since));
            }
            if suspect_shards.is_empty() {
                continue;
            }
            suspect_shards.sort_unstable();
            suspect_shards.dedup();
            let Some((to, moves)) = self.shard_manager.promote_standby(job, &suspect_shards) else {
                continue;
            };
            self.metrics.standby_promotions.incr();
            self.trace.emit(
                now,
                TraceData::StandbyPromoted {
                    job,
                    to,
                    moves: moves.len(),
                },
            );
            if self.engine.job(job).is_some_and(|rt| rt.stateful) {
                // The standby's shadow state makes the next checkpoint
                // redistribution free: no state move, no pause.
                self.syncer.grant_warm_handoff(job);
            }
            self.tell_checker(|inbox| {
                inbox.standby = true;
                inbox.promotions.push((job, to));
            });
            self.outages
                .entry(job)
                .and_modify(|o| o.fast = true)
                .or_insert(OutageState { since, fast: true });
            self.apply_movements_delayed(&moves, Duration::ZERO);
        }
    }

    /// Keep every critical running job covered by a valid warm standby:
    /// follow the Job Store's tier changes into the Shard Manager's
    /// critical table, drop registrations that are no longer valid (job
    /// not running, standby unhealthy, or busy while an idle container is
    /// free), then place a standby for any critical job lacking one. The
    /// Shard Manager ranks the containers once for the whole round.
    fn ensure_standbys(&mut self) {
        let now = self.now;
        for job in self.jobs.store_mut().drain_changes(StoreReader::Standbys) {
            let critical = self.job_resiliency(job) == ResiliencyClass::Critical;
            if self.shard_manager.set_critical(job, critical).is_some() {
                self.standbys_examined += 1;
                self.tell_checker(|inbox| inbox.standby = true);
            }
        }
        let critical: Vec<(JobId, Option<ContainerId>, bool)> = self
            .shard_manager
            .critical()
            .map(|(job, standby)| {
                let running =
                    self.jobs.store().running(job).is_some() && self.engine.job(job).is_some();
                (job, standby, running)
            })
            .filter(|&(_, standby, running)| running || standby.is_some())
            .collect();
        if critical.is_empty() {
            return;
        }
        // Neither the engine's tasks nor the shard map move inside this
        // round (it only edits standby registrations), so one order serves
        // every job examined below.
        let mut primaries: BTreeMap<ContainerId, usize> = BTreeMap::new();
        for (_, task) in self.engine.tasks() {
            *primaries.entry(task.container).or_default() += 1;
        }
        let order = self
            .shard_manager
            .standby_order(self.task_managers.keys().map(|&c| {
                let tasks = primaries.get(&c).copied().unwrap_or(0);
                (c, self.cluster.host_of(c).ok(), tasks, self.reachable(c))
            }));
        for (job, standby, running) in critical {
            if let Some(standby) = standby {
                self.standbys_examined += 1;
                if running && order.keeps(standby, || self.primary_hosts(job)) {
                    continue;
                }
                self.drop_standby(job);
            }
            // Never place a standby while the job is mid-fault: a replica
            // registered this instant has shadow-consumed nothing, so
            // promoting it would be a cold start masquerading as the fast
            // path. The job rides the standard fail-over and gets a fresh
            // standby once its outage closes.
            if !running
                || self.outages.contains_key(&job)
                || self
                    .engine
                    .tasks_of_job(job)
                    .any(|(_, t)| !self.reachable(t.container))
            {
                continue;
            }
            self.standbys_examined += 1;
            if let Some(container) = order.pick(&self.primary_hosts(job)) {
                self.shard_manager.set_standby(job, container);
                self.tell_checker(|inbox| inbox.standby = true);
                self.trace
                    .emit(now, TraceData::StandbyPlaced { job, container });
            }
        }
    }

    /// The hosts that run a primary task of `job`.
    fn primary_hosts(&self, job: JobId) -> BTreeSet<HostId> {
        self.engine
            .tasks_of_job(job)
            .filter_map(|(_, task)| self.cluster.host_of(task.container).ok())
            .collect()
    }

    /// Close every open outage whose job is back at full strength: all
    /// running-config tasks effectively running (not in restart downtime,
    /// on cluster-healthy, connected containers). Closing records the
    /// per-tier recovery sample and emits the SLO trace event.
    fn slo_check(&mut self) {
        if self.outages.is_empty() {
            return;
        }
        let now = self.now;
        let open: Vec<JobId> = self.outages.keys().copied().collect();
        for job in open {
            if self.engine.job(job).is_none() {
                // Deleted mid-outage: nothing left to recover.
                self.outages.remove(&job);
                continue;
            }
            if self.halts.get(&job).is_some_and(Halt::stops_tasks) {
                continue;
            }
            let Some(config) = self.jobs.running_typed(job) else {
                continue;
            };
            let want = config.task_count as usize;
            let up = self
                .engine
                .tasks_of_job(job)
                .filter(|(_, t)| {
                    self.reachable(t.container) && t.down_until.is_none_or(|u| now >= u)
                })
                .count();
            if want == 0 || up < want {
                continue;
            }
            let outage = self.outages.remove(&job).expect("listed");
            let ms = now.since(outage.since).as_millis();
            let tier = self.job_resiliency(job);
            self.metrics
                .record_recovery(now, job, tier, ms, outage.fast);
            self.trace.emit(
                now,
                TraceData::SloRecovery {
                    job,
                    tier: tier.as_str(),
                    ms,
                    fast: outage.fast,
                },
            );
        }
    }

    /// Task Manager snapshot refresh from the Task Service. The service
    /// follows the Job Store's changes, so an expiry that finds nothing
    /// changed hands back the snapshot the managers already hold, and a
    /// manager holding it has nothing to reconcile: the round then costs
    /// one identity test per container.
    pub(crate) fn tm_refresh_round(&mut self) {
        /// The Job Store's running table as the Task Service reads it.
        struct Running<'a> {
            jobs: &'a mut JobService<MemWal>,
            halts: &'a BTreeMap<JobId, Halt>,
        }
        impl RunningJobs for Running<'_> {
            fn take_changed(&mut self) -> BTreeSet<JobId> {
                self.jobs
                    .store_mut()
                    .drain_changes(StoreReader::TaskService)
            }
            fn running_jobs(&self) -> Vec<JobId> {
                self.jobs.store().running_jobs().collect()
            }
            fn running_token(&self, job: JobId) -> u64 {
                self.jobs.store().running_token(job)
            }
            fn running_config(&self, job: JobId) -> Option<Arc<JobConfig>> {
                self.jobs.running_typed(job)
            }
            fn excluded(&self) -> BTreeSet<JobId> {
                let stops = |(&job, h): (&JobId, &Halt)| h.stops_tasks().then_some(job);
                self.halts.iter().filter_map(stops).collect()
            }
        }
        // Snapshot (cached and indexed inside the Task Service for its
        // TTL; Task Managers share it by reference).
        let snapshot = self.task_service.snapshot(
            self.now,
            &mut Running {
                jobs: &mut self.jobs,
                halts: &self.halts,
            },
        );
        // In container-id order, as ever: the order of the task events.
        let due: Vec<ContainerId> = self
            .task_managers
            .iter()
            .filter(|(&c, tm)| !tm.holds(&snapshot) && self.cluster.is_container_healthy(c))
            .map(|(&c, _)| c)
            .collect();
        self.tm_managers_reconciled += due.len() as u64;
        for container in due {
            let events = self
                .task_managers
                .get_mut(&container)
                .expect("iterating keys")
                .refresh(snapshot.clone());
            self.handle_task_events(container, &events);
        }
    }

    /// One State Syncer reconciliation round.
    pub(crate) fn syncer_round(&mut self) {
        struct Env<'a> {
            halts: &'a mut BTreeMap<JobId, Halt>,
            task_service: &'a mut TaskService,
            task_managers: &'a BTreeMap<ContainerId, LocalTaskManager>,
            engine: &'a mut Engine,
            inbox: Option<&'a mut Inbox>,
            now: SimTime,
            state_move_bandwidth: f64,
        }
        impl SyncEnvironment for Env<'_> {
            fn request_stop(&mut self, job: JobId) {
                if !set_halt(self.halts, self.engine, job, |h| h.paused = true).paused {
                    self.task_service.invalidate();
                    if let Some(inbox) = &mut self.inbox {
                        inbox.jobs.insert(job);
                    }
                }
            }
            fn all_stopped(&mut self, job: JobId) -> bool {
                self.task_managers.values().all(|tm| !tm.runs_job(job))
            }
            fn redistribute_checkpoints(
                &mut self,
                job: JobId,
                _old: u32,
                _new: u32,
            ) -> Result<Redistribute, String> {
                // Checkpoints are keyed by (job, partition), so a
                // parallelism change re-maps ownership without moving
                // offsets; the barrier above guarantees no two tasks ever
                // own a partition concurrently. Stateful jobs additionally
                // move their state (≈1 KB per key) at the configured
                // bandwidth — real time during which the job stays paused.
                let stateful_bytes = self
                    .engine
                    .job(job)
                    .filter(|rt| rt.stateful)
                    .map(|rt| rt.key_cardinality * 1.0e3)
                    .unwrap_or(0.0);
                if stateful_bytes <= 0.0 {
                    return Ok(Redistribute::Done);
                }
                let now = self.now;
                let moving = Duration::from_secs_f64(stateful_bytes / self.state_move_bandwidth);
                let mut done = false;
                set_halt(self.halts, self.engine, job, |h| {
                    done = now >= *h.state_move.get_or_insert(now + moving);
                    h.state_move = h.state_move.filter(|_| !done);
                });
                if !done {
                    return Ok(Redistribute::InProgress);
                }
                Ok(Redistribute::Done)
            }
        }
        let mut env = Env {
            halts: &mut self.halts,
            task_service: &mut self.task_service,
            task_managers: &self.task_managers,
            engine: &mut self.engine,
            inbox: self.invariants.as_mut().map(InvariantChecker::inbox),
            now: self.now,
            state_move_bandwidth: self.config.state_move_bandwidth,
        };
        let report = self.syncer.run_round_sparse(&mut self.jobs, &mut env);
        self.metrics
            .sync_jobs_examined
            .add(report.jobs_examined as u64);
        // Everything the round touched is dirty for the next invariant
        // check: pause marks moved, quarantine membership or failure
        // counts changed, store rows advanced.
        self.tell_checker(|inbox| {
            inbox.jobs.extend(
                report
                    .started
                    .iter()
                    .chain(&report.simple)
                    .chain(&report.complex_completed)
                    .chain(&report.deleted)
                    .chain(&report.quarantined)
                    .chain(report.failed.iter().map(|(job, _)| job)),
            );
            inbox.quarantine |= !report.quarantined.is_empty() || !report.failed.is_empty();
        });
        let now = self.now;
        for (jobs, outcome) in [
            (&report.started, "started"),
            (&report.simple, "simple"),
            (&report.complex_completed, "complex_completed"),
            (&report.deleted, "deleted"),
        ] {
            for &job in jobs {
                self.trace
                    .emit(now, TraceData::SyncOutcome { job, outcome });
            }
        }
        for &job in &report.quarantined {
            self.trace.emit(now, TraceData::Quarantine { job });
        }
        let mut invalidate = report.total_changed() > 0;
        for &job in &report.deleted {
            self.engine.remove_job(job);
            set_halt(&mut self.halts, &mut self.engine, job, |h| {
                *h = Halt::default()
            });
            self.checkpoints.remove_job(job);
            self.drop_standby(job);
            self.outages.remove(&job);
            self.scaler.forget(job);
        }
        // A pause lasts while expected differs from running: it ends at the
        // commit, or when the sync is reverted mid-move and nothing commits.
        let store = self.jobs.store();
        let in_sync = |job| store.expected_merged_ref(job).ok() == store.running(job);
        let halts = self.halts.iter();
        let lifted: Vec<JobId> = halts
            .filter_map(|(&job, h)| (h.paused && in_sync(job)).then_some(job))
            .collect();
        for &job in &lifted {
            set_halt(&mut self.halts, &mut self.engine, job, |h| h.paused = false);
            invalidate = true;
        }
        self.tell_checker(|inbox| inbox.jobs.extend(lifted));
        if invalidate {
            self.task_service.invalidate();
        }
        self.metrics.alerts.add(report.alerts.len() as u64);
    }

    /// One Auto Scaler evaluation round. Every round drains the engine's
    /// scaler reader. A disabled scaler only discards windows, so that a
    /// later enable starts fresh, and only the jobs the reader marked and
    /// the jobs the tick still walks or skips as lazy can have one. An
    /// enabled scaler visits
    /// every engine job: a settled job's Pattern Analyzer history is
    /// written too.
    pub(crate) fn scaler_round(&mut self) {
        let now = self.now;
        let window = now.since(self.last_scaler_drain).as_secs_f64().max(1.0);
        self.last_scaler_drain = now;
        let marked = self.engine.drain_changes(EngineReader::Scaler);
        let mut scratch = std::mem::take(&mut self.scaler_scratch);
        if self.config.scaler_enabled {
            self.align_job_rows();
            for (at, job) in self.engine.job_ids().into_iter().enumerate() {
                self.scale_job(at, job, now, window, &mut scratch);
            }
        } else {
            scratch.jobs.clear();
            scratch.jobs.extend(self.engine.walked_jobs());
            scratch.jobs.extend(marked);
            scratch.jobs.sort_unstable();
            scratch.jobs.dedup();
            for &job in &scratch.jobs {
                if self
                    .engine
                    .drain_window(job, &mut scratch.drained)
                    .is_some()
                {
                    self.scaler_windows_drained += 1;
                }
            }
        }
        self.scaler_scratch = scratch;
    }

    /// The scaler round's body for the `at`-th engine job, over `window`
    /// seconds since the last round: drain, gate, evaluate, triage, apply.
    /// The job's window is drained into `scratch`, whose buffers every job
    /// of every round reuses, whether or not it passes the gates.
    fn scale_job(
        &mut self,
        at: usize,
        job: JobId,
        now: SimTime,
        window: f64,
        scratch: &mut ScalerScratch,
    ) {
        let ScalerScratch {
            drained, metrics, ..
        } = scratch;
        let Some(runtime) = self.engine.drain_window(job, drained) else {
            return;
        };
        self.scaler_windows_drained += 1;
        if self.halts.get(&job).is_some_and(Halt::stops_tasks) || self.syncer.is_quarantined(job) {
            return;
        }
        let Ok(config) = self.jobs.expected_typed(job) else {
            return;
        };
        if self.jobs.running_typed(job).is_none() {
            return; // not started yet
        }
        let backlog = runtime.backlog();
        let key_cardinality = runtime.stateful.then_some(runtime.key_cardinality);
        let mut per_task_rates = std::mem::take(&mut metrics.per_task_rates);
        let mut per_task_memory_mb = std::mem::take(&mut metrics.per_task_memory_mb);
        per_task_rates.clear();
        per_task_memory_mb.clear();
        for task in &drained.running {
            per_task_rates.push(task.processed / window);
            per_task_memory_mb.push(task.memory_mb);
        }
        // Symptom inputs flow through the ODS registry: publish, then
        // read the identical `f64`s back — every scaler decision is
        // driven by the same uniform metrics plane the operator
        // console reads.
        let (input_rate, processing_rate, total_bytes_lagged) = self.ods_scaler_roundtrip(
            at,
            now,
            drained.arrived / window,
            drained.processed / window,
            backlog,
        );
        *metrics = JobMetrics {
            input_rate,
            processing_rate,
            total_bytes_lagged,
            per_task_rates,
            per_task_memory_mb,
            oom_events: drained.ooms,
            task_count: config.task_count,
            threads_per_task: config.threads_per_task,
            reserved: config.task_resources,
            key_cardinality,
        };
        let decision = self.scaler.evaluate(job, metrics, &config, now);
        let triage = self.scaler.triage(
            job,
            &decision,
            metrics,
            &drained.running,
            self.config.scaler_interval,
            now,
        );
        let action = decision.action.filter(|_| !triage.suppress_action);
        // Trace the symptom hop only when it is consequential (an
        // action or diagnosis follows): its cause is the activation
        // edge of a stall on the job's input category if one is
        // active, the scaler round's span otherwise.
        let symptom_id =
            if (action.is_some() || triage.diagnosis.is_some()) && !decision.symptoms.is_empty() {
                let description = decision.symptoms[0].describe();
                let data = TraceData::Symptom { job, description };
                Some(
                    match self
                        .job_category(job)
                        .and_then(|cat| self.trace.fault_cause(&format!("scribe_stall({cat})")))
                    {
                        Some(root) => self.trace.emit_caused(now, data, Some(root)),
                        None => self.trace.emit(now, data),
                    },
                )
            } else {
                None
            };
        if let Some(id) = symptom_id {
            self.trace.push_cause(id);
        }
        if let Some(diagnosis) = triage.diagnosis {
            self.apply_diagnosis(job, diagnosis, now);
        }
        if decision.untriaged.is_some() {
            self.metrics.alerts.incr();
        }
        if let Some(action) = action {
            self.apply_scaling_action(job, &config, action);
        }
        if symptom_id.is_some() {
            self.trace.pop_cause();
        }
    }

    /// Record the root-causer's diagnosis of an untriaged problem and
    /// apply the safe automated mitigation (task moves for hardware
    /// issues; everything else stays a recommendation).
    fn apply_diagnosis(&mut self, job: JobId, diagnosis: Diagnosis, now: SimTime) {
        let trace_id = self.trace.emit(
            now,
            TraceData::Diagnosis {
                job,
                cause: diagnosis.cause.label().to_string(),
                mitigation: diagnosis.mitigation.describe(),
                rationale: diagnosis.rationale.clone(),
            },
        );
        if let Mitigation::MoveTask(task) = diagnosis.mitigation {
            // The move's cause is the diagnosis that mandated it.
            self.trace.push_cause(trace_id);
            self.move_task_shard(task);
            self.trace.pop_cause();
        }
        self.metrics.diagnoses.push(DiagnosisRecord {
            at: now,
            job,
            cause: diagnosis.cause,
            mitigation: diagnosis.mitigation,
            rationale: diagnosis.rationale,
            trace: trace_id,
        });
    }

    /// Move one task's shard to a different alive container (root-causer
    /// mitigation for hardware issues).
    fn move_task_shard(&mut self, task: TaskId) {
        let shard = turbine_taskmgr::shard_of_task(task, self.config.shard_count);
        let from = self.shard_manager.container_of(shard);
        let target = self
            .shard_manager
            .alive_containers()
            .find(|&c| Some(c) != from);
        if let Some(to) = target {
            if let Some(movement) = self.shard_manager.move_shard(shard, to) {
                self.trace
                    .emit(self.now, TraceData::ShardMove { shard, to });
                self.apply_movements(&[movement]);
            }
        }
    }

    /// Write one scaler decision to the Job Store's scaler config level.
    fn apply_scaling_action(&mut self, job: JobId, config: &JobConfig, action: ScalingAction) {
        self.metrics.scaling_actions.incr();
        self.trace.emit(
            self.now,
            TraceData::ScalingAction {
                job,
                action: action.describe(),
            },
        );
        let partitions = config.input_partitions;
        let (field, value, per_task) = match action {
            ScalingAction::RebalanceInput => {
                let n = self.engine.job(job).map_or(0, |rt| rt.partition_count());
                self.engine
                    .set_partition_weights(job, &vec![1.0 / n as f64; n]);
                return;
            }
            ScalingAction::Vertical {
                threads_per_task,
                per_task,
            } => ("threads_per_task", threads_per_task, per_task),
            // Parallelism can never exceed the input partition count.
            ScalingAction::Horizontal {
                task_count,
                per_task,
            } => ("task_count", task_count.clamp(1, partitions), per_task),
        };
        let result = self
            .jobs
            .update_level(job, ConfigLevel::Scaler, move |cfg| {
                cfg.insert(field, value.into());
                cfg.insert_path("resources.cpu", per_task.cpu.into());
                cfg.insert_path("resources.memory_mb", per_task.memory_mb.into());
                cfg.insert_path("resources.disk_mb", per_task.disk_mb.into());
                cfg.insert_path("resources.network_mbps", per_task.network_mbps.into());
            });
        debug_assert!(result.is_ok());
    }

    /// Task Manager load reports to the Shard Manager. Only containers
    /// whose reports could have moved re-report: those whose ownership or
    /// task set changed, plus every container hosting a task of a job the
    /// engine marked for load reports — a job whose task set changed or one
    /// of whose tasks' `cpu_usage` or `memory_usage_mb` moved, the only
    /// engine state a report reads. A job whose backlog alone moved is not
    /// marked. A skipped container's previous report is still current
    /// (`report_load` is a pure overwrite), so the Shard Manager sees the
    /// same load map as when every container reports, which is what the
    /// `DriveMode::FullScan` reference has them do.
    pub(crate) fn load_report_round(&mut self) {
        let jobs = self.engine.drain_changes(EngineReader::LoadReport);
        let engine = &self.engine;
        let usage = |id| {
            engine
                .task(id)
                .map(|t| Resources::cpu_mem(t.cpu_usage, t.memory_usage_mb))
        };
        let mut containers = std::mem::take(&mut self.load_dirty_containers);
        for job in jobs {
            for (_, task) in engine.tasks_of_job(job) {
                containers.insert(task.container);
            }
        }
        self.metrics.load_reports_sent.add(containers.len() as u64);
        for container in containers {
            let Some(tm) = self.task_managers.get(&container) else {
                continue;
            };
            for (shard, load) in tm.aggregate_shard_loads(usage) {
                self.shard_manager.report_load(shard, load);
            }
        }
    }

    /// Cluster-wide load-balancing rebalance.
    pub(crate) fn rebalance_round(&mut self) {
        let result = self.shard_manager.rebalance();
        if !result.moves.is_empty() {
            self.trace.emit(
                self.now,
                TraceData::RebalancePlan {
                    moves: result.moves.len(),
                },
            );
        }
        self.apply_movements(&result.moves);
    }

    /// One Capacity Manager evaluation round.
    pub(crate) fn capacity_round(&mut self) {
        let job_list: Vec<(JobId, turbine_types::Priority, Resources)> = self
            .jobs
            .running_typed_jobs()
            .map(|(j, c)| (j, c.priority, c.task_resources.scale(c.task_count as f64)))
            .collect();
        let total_reserved: Resources = job_list.iter().map(|&(_, _, reserved)| reserved).sum();
        let total = self.cluster.total_healthy_capacity();
        let directive = capacity::evaluate(total, total_reserved, &job_list);
        self.scaler.set_priority_floor(directive.priority_floor);
        if !directive.jobs_to_stop.is_empty() {
            for &job in &directive.jobs_to_stop {
                if !set_halt(&mut self.halts, &mut self.engine, job, |h| h.stopped = true).stopped {
                    self.metrics.alerts.incr();
                }
            }
            self.tell_checker(|inbox| inbox.jobs.extend(directive.jobs_to_stop));
            self.task_service.invalidate();
        } else if directive.priority_floor.is_none() && self.halts.values().any(|h| h.stopped) {
            // Pressure cleared: resume capacity-stopped jobs.
            let halts = self.halts.iter();
            let resumed: Vec<JobId> = halts.filter_map(|(&j, h)| h.stopped.then_some(j)).collect();
            for &job in &resumed {
                set_halt(&mut self.halts, &mut self.engine, job, |h| {
                    h.stopped = false
                });
            }
            self.tell_checker(|inbox| inbox.jobs.extend(resumed));
            self.task_service.invalidate();
        }
    }

    /// Durability sync: flush processed offsets to the checkpoint store.
    /// Warm standbys tail their job's input alongside the primary but
    /// never write the checkpoint store.
    pub(crate) fn checkpoint_round(&mut self) {
        self.engine
            .sync_durable(&mut self.scribe, &mut self.checkpoints);
    }

    /// One metric-sampling round. Each engine job is found by position:
    /// its row of [`OdsState::rows`](super::ods::OdsState) (lag SLO,
    /// reserved footprint, series ids) is walked in step with the engine's
    /// jobs, and only the rows of jobs whose store rows changed are re-read.
    /// Every buffer the round fills is kept between rounds.
    pub(crate) fn metrics_round(&mut self) {
        let now = self.now;
        self.refresh_job_rows();
        let Turbine {
            engine,
            cluster,
            metrics,
            ods,
            ..
        } = self;
        let rows = &mut ods.rows;
        let scratch = &mut ods.scratch;
        // Each job's arrival rate, evaluated once: summed here into the
        // cluster traffic, and the denominator of the job's lag below.
        scratch.rates.clear();
        scratch
            .rates
            .extend(engine.jobs().map(|(_, rt)| rt.arrival_rate(now)));
        let traffic: f64 = scratch.rates.iter().sum();
        metrics.task_count.record(now, engine.total_tasks() as f64);

        // One walk of the tasks, in `TaskId` order and so in step with the
        // rows: each container's usage for the host bands (read by key,
        // never in table order), and each job's running tasks.
        scratch.per_container.clear();
        for row in rows.iter_mut() {
            row.running_tasks = 0;
        }
        let mut at = 0;
        for (id, task) in engine.tasks() {
            *scratch
                .per_container
                .entry(task.container)
                .or_insert(Resources::ZERO) +=
                Resources::cpu_mem(task.cpu_usage, task.memory_usage_mb);
            while rows.get(at).is_some_and(|row| row.job < id.job) {
                at += 1;
            }
            if let Some(row) = rows.get_mut(at).filter(|row| row.job == id.job) {
                row.running_tasks += 1;
            }
        }
        scratch.cpu_samples.clear();
        scratch.mem_samples.clear();
        for (container, cap) in cluster.healthy_container_capacities() {
            let used = scratch
                .per_container
                .get(&container)
                .copied()
                .unwrap_or(Resources::ZERO);
            if cap.cpu > 0.0 {
                scratch.cpu_samples.push((used.cpu / cap.cpu).min(1.0));
            }
            if cap.memory_mb > 0.0 {
                scratch
                    .mem_samples
                    .push((used.memory_mb / cap.memory_mb).min(1.0));
            }
        }

        // Per-job lag + SLO compliance.
        let mut ok = 0usize;
        let mut total = 0usize;
        let mut total_backlog = 0.0;
        scratch.jobs.clear();
        for (at, ((_, rt), row)) in engine.jobs().zip(rows.iter()).enumerate() {
            let backlog = rt.backlog();
            total_backlog += backlog;
            let Some(slo_lag_secs) = row.slo_lag_secs else {
                continue;
            };
            // Lag relative to sustained processing capability: use the
            // arrival rate as the denominator when the job keeps up.
            let lag_secs = backlog / scratch.rates[at].max(1.0);
            total += 1;
            if lag_secs <= slo_lag_secs {
                ok += 1;
            }
            scratch.jobs.push(super::ods::JobSample {
                row: at,
                lag_secs,
                backlog_bytes: backlog,
            });
        }
        let slo_frac = (total > 0).then(|| ok as f64 / total as f64);
        if let Some(frac) = slo_frac {
            metrics.slo_ok_fraction.record(now, frac);
        }

        // Reserved footprint (Fig. 10), summed in job order over the jobs
        // with a running config.
        let reserved: Resources = rows.iter().filter_map(|row| row.footprint).sum();

        // ODS publication + alert evaluation last: the registry sees this
        // round's observations, then rules are evaluated against them on
        // the same grid instant in every drive mode.
        self.ods_metrics_publish(
            now,
            super::ods::MetricsRoundSample {
                traffic,
                total_backlog,
                slo_ok_fraction: slo_frac,
                reserved,
            },
        );
        self.ods_evaluate_alerts(now);
    }

    /// Apply shard movements: DROP_SHARD on the source before ADD_SHARD on
    /// the destination — a shard must never run in two containers at once.
    pub(crate) fn apply_movements(&mut self, moves: &[ShardMovement]) {
        self.apply_movements_delayed(moves, RESTART_DELAY);
    }

    /// [`Self::apply_movements`] with the downtime of the tasks that start
    /// on the destination given. A promotion passes zero: the standby was
    /// already shadow-consuming the job's input, so its tasks resume warm.
    fn apply_movements_delayed(&mut self, moves: &[ShardMovement], restart_delay: Duration) {
        for m in moves {
            self.metrics.shard_moves.incr();
            // Ownership changes even when no tasks move (empty shards):
            // both endpoints must re-report loads, and the distributed
            // invariant scope must re-scan.
            self.container_changed(m.to);
            if let Some(from) = m.from {
                self.container_changed(from);
                let events = self
                    .task_managers
                    .get_mut(&from)
                    .map(|tm| tm.drop_shard(m.shard))
                    .unwrap_or_default();
                self.handle_task_events(from, &events);
            }
            let events = self
                .task_managers
                .get_mut(&m.to)
                .map(|tm| tm.add_shard(m.shard))
                .unwrap_or_default();
            self.handle_task_events_delayed(m.to, &events, restart_delay);
        }
    }

    /// Drop every shard `container`'s Task Manager owns; returns the task events.
    pub(crate) fn drop_owned_shards(&mut self, container: ContainerId) -> Vec<TaskEvent> {
        let Some(tm) = self.task_managers.get_mut(&container) else {
            return Vec::new();
        };
        let owned: Vec<_> = tm.owned_shards().collect();
        owned.into_iter().flat_map(|s| tm.drop_shard(s)).collect()
    }

    /// Record task lifecycle events from a Task Manager into the engine
    /// and the platform counters.
    pub(crate) fn handle_task_events(&mut self, container: ContainerId, events: &[TaskEvent]) {
        self.handle_task_events_delayed(container, events, RESTART_DELAY);
    }

    fn handle_task_events_delayed(
        &mut self,
        container: ContainerId,
        events: &[TaskEvent],
        restart_delay: Duration,
    ) {
        if !events.is_empty() {
            // Task starts/stops move the distributed-state picture and
            // this container's shard loads (the engine marks the affected
            // jobs itself).
            self.container_changed(container);
        }
        for event in events {
            match event {
                TaskEvent::Started(spec) => {
                    self.metrics.task_starts.incr();
                    self.engine
                        .task_started(spec, container, self.now, restart_delay);
                    self.evict_conflicting_standby(spec.id.job, container);
                }
                TaskEvent::Restarted(spec) => {
                    self.metrics.task_restarts.incr();
                    self.engine
                        .task_started(spec, container, self.now, restart_delay);
                    self.evict_conflicting_standby(spec.id.job, container);
                }
                TaskEvent::Stopped(id) => {
                    self.metrics.task_stops.incr();
                    self.engine.task_stopped(*id, container);
                }
            }
        }
    }

    /// A primary task just landed on `container`: if the job's standby
    /// lives on the same host (e.g. a scale-up placed a shard there), the
    /// registration is no longer isolated and is dropped eagerly — the
    /// next fail-over check places a fresh standby elsewhere. A promotion
    /// consumes its registration itself, so its tasks find none here.
    fn evict_conflicting_standby(&mut self, job: JobId, container: ContainerId) {
        let Some(standby) = self.shard_manager.standby_of(job) else {
            return;
        };
        let same_host = matches!(
            (self.cluster.host_of(standby), self.cluster.host_of(container)),
            (Ok(a), Ok(b)) if a == b
        );
        if same_host {
            self.drop_standby(job);
        }
    }

    /// Drop `job`'s warm-standby registration.
    fn drop_standby(&mut self, job: JobId) {
        self.shard_manager.clear_standby(job);
        self.tell_checker(|inbox| inbox.standby = true);
    }
}
