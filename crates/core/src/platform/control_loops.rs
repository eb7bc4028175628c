//! The per-event control-loop handlers: one method per
//! [`ControlEvent`](super::ControlEvent) round, plus the shared plumbing
//! (shard-movement application, task-event bookkeeping) they all feed
//! into. Cadences, gates, and dispatch order live in the scheduler's
//! component table — these bodies only do the round's work at the instant
//! they are invoked.

use super::{OutageState, Turbine, CONNECTION_TIMEOUT, RESTART_DELAY};
use crate::engine::{ActiveTask, Engine, EngineReader};
use crate::metrics::DiagnosisRecord;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use turbine_autoscaler::{DiagnosisInput, JobMetrics, Mitigation, ScalingAction};
use turbine_config::{ConfigLevel, JobConfig, ResiliencyClass};
use turbine_jobstore::{JobService, MemWal, StoreReader};
use turbine_shardmgr::{ContainerStatus, ShardMovement};
use turbine_statesyncer::{Redistribute, SyncEnvironment};
use turbine_taskmgr::{LocalTaskManager, RunningJobs, TaskEvent, TaskService};
use turbine_trace::TraceData;
use turbine_types::{ContainerId, Duration, JobId, PartitionId, Resources, SimTime, TaskId};

/// The running tasks of `job` in `TaskId` order, each with the bytes it
/// processed over a drained scaler window (zero for a task the window does
/// not list). `per_task_window` ascends by `TaskId` as well
/// ([`Engine::drain_window`]), so the two are walked in step.
fn tasks_with_window<'a>(
    engine: &'a Engine,
    job: JobId,
    per_task_window: &'a [(TaskId, f64)],
) -> impl Iterator<Item = (TaskId, &'a ActiveTask, f64)> {
    let mut window = per_task_window.iter().peekable();
    engine.tasks_of_job(job).map(move |(&id, task)| {
        while window.next_if(|(listed, _)| *listed < id).is_some() {}
        let processed = window
            .next_if(|(listed, _)| *listed == id)
            .map_or(0.0, |&(_, bytes)| bytes);
        (id, task, processed)
    })
}

impl Turbine {
    /// Heartbeats + proactive reboot of disconnected containers. The live
    /// containers beat in one ordered walk of the Shard Manager's table;
    /// the list itself is re-derived only when the cluster or a connection
    /// changed.
    pub(crate) fn heartbeat_round(&mut self) {
        let now = self.now;
        // Proactive reboots first.
        let due_reboot: Vec<ContainerId> = self
            .severed
            .iter()
            .filter(|(_, s)| !s.rebooted && now.since(s.at) >= CONNECTION_TIMEOUT)
            .map(|(&c, _)| c)
            .collect();
        for container in due_reboot {
            self.severed.get_mut(&container).expect("present").rebooted = true;
            let mut all_events = Vec::new();
            if let Some(tm) = self.task_managers.get_mut(&container) {
                let owned: Vec<_> = tm.owned_shards().collect();
                for shard in owned {
                    all_events.extend(tm.drop_shard(shard));
                }
            }
            // The reboot takes the container's tasks down: this is a
            // fault-attributed outage for every affected job, measured
            // from the connectivity loss (not the reboot).
            let since = self
                .container_down_since
                .get(&container)
                .copied()
                .unwrap_or(now);
            let affected: BTreeSet<JobId> = all_events
                .iter()
                .filter_map(|e| match e {
                    TaskEvent::Stopped(id) => Some(id.job),
                    _ => None,
                })
                .collect();
            for job in affected {
                self.open_outage(job, since);
            }
            // The reboot dropped every owned shard regardless of whether
            // tasks were running on them.
            self.pending_dirty.distributed = true;
            self.load_dirty_containers.insert(container);
            self.handle_task_events(container, &all_events);
        }
        self.refresh_live_containers();
        let live = &self.live_containers.as_ref().expect("refreshed").1;
        for container in self.shard_manager.heartbeat_all(live, now) {
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
            if self.invariants.is_some() {
                self.fresh_revivals.push((container, stale_shards));
            }
        }
    }

    /// Bring `live_containers` up to date: re-derived only when the
    /// cluster's generation moved or a connection was severed or restored
    /// since it was built.
    pub(crate) fn refresh_live_containers(&mut self) {
        let generation = self.cluster.generation();
        if self
            .live_containers
            .as_ref()
            .is_some_and(|&(built_at, _)| built_at == generation)
        {
            return;
        }
        self.heartbeat_filtered += self.task_managers.len() as u64;
        let live = self
            .task_managers
            .keys()
            .copied()
            .filter(|&c| self.cluster.is_container_healthy(c) && !self.severed.contains_key(&c))
            .collect();
        self.live_containers = Some((generation, live));
    }

    /// Shard Manager fail-over check (piggybacks the heartbeat cadence).
    /// The warm-standby fast path runs first: a critical job whose primary
    /// went suspect is promoted without waiting for the full fail-over
    /// interval. Then the standard path declares dead containers and moves
    /// their shards, standbys are (re)placed, and the SLO check closes any
    /// outage whose job is back at full strength.
    pub(crate) fn failover_check(&mut self) {
        self.promote_suspect_primaries();
        let alive_before = self.shard_manager.alive_containers();
        let failover_moves = self.shard_manager.check_failover(self.now);
        if !failover_moves.is_empty() {
            // Outages are attributed before the movements execute: every
            // job with a task on a newly dead container went down when
            // that container lost connectivity, not when we noticed.
            let newly_dead: BTreeSet<ContainerId> = alive_before
                .into_iter()
                .filter(|&c| self.shard_manager.status(c) == Some(ContainerStatus::Dead))
                .collect();
            let mut affected: BTreeMap<JobId, SimTime> = BTreeMap::new();
            for (id, task) in self.engine.tasks() {
                if !newly_dead.contains(&task.container) {
                    continue;
                }
                let since = self
                    .container_down_since
                    .get(&task.container)
                    .copied()
                    .unwrap_or(self.now);
                let slot = affected.entry(id.job).or_insert(since);
                if since < *slot {
                    *slot = since;
                }
            }
            for (job, since) in affected {
                self.open_outage(job, since);
            }
            self.metrics.failovers.incr();
            self.trace.emit(
                self.now,
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
    /// delay — it was already shadow-consuming the input. A suspect,
    /// severed, or host-dead standby is dropped instead of promoted: the
    /// job then degrades to the standard fail-over path (double fault).
    fn promote_suspect_primaries(&mut self) {
        let now = self.now;
        let registrations: Vec<(JobId, ContainerId)> = self.shard_manager.standbys().collect();
        for (job, standby) in registrations {
            if self.shard_manager.is_suspect(standby, now)
                || self.severed.contains_key(&standby)
                || !self.cluster.is_container_healthy(standby)
            {
                self.shard_manager.clear_standby(job);
                self.shadow.remove_job(job);
                self.pending_dirty.standby = true;
                continue;
            }
            let mut suspect_shards = Vec::new();
            let mut onset: Option<SimTime> = None;
            for (&id, task) in self.engine.tasks_of_job(job) {
                if !self.shard_manager.is_suspect(task.container, now) {
                    continue;
                }
                suspect_shards.push(turbine_taskmgr::shard_of_task(id, self.config.shard_count));
                let since = self
                    .container_down_since
                    .get(&task.container)
                    .copied()
                    .unwrap_or(now);
                if onset.is_none_or(|o| since < o) {
                    onset = Some(since);
                }
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
            self.shadow.remove_job(job);
            self.pending_dirty.standby = true;
            if self.invariants.is_some() {
                self.fresh_promotions.push((job, to));
            }
            let since = onset.unwrap_or(now);
            self.outages
                .entry(job)
                .and_modify(|o| o.fast = true)
                .or_insert(OutageState { since, fast: true });
            self.apply_movements_delayed(&moves, Duration::ZERO);
        }
    }

    /// Keep every critical running job covered by a valid warm standby:
    /// drop registrations that are no longer valid (job deleted or
    /// demoted, standby unhealthy or co-hosted with a primary), then place
    /// a standby for any critical job lacking one.
    fn ensure_standbys(&mut self) {
        let now = self.now;
        // Critical jobs come from the feed-maintained resiliency cache:
        // the round costs O(critical + jobs changed), not a re-decode of
        // every job config in the fleet.
        self.refresh_resiliency_cache();
        let critical: Vec<JobId> = self
            .resiliency_cache
            .iter()
            .filter(|&(&j, &tier)| {
                tier == ResiliencyClass::Critical
                    && self.jobs.store().running(j).is_some()
                    && self.engine.job(j).is_some()
            })
            .map(|(&j, _)| j)
            .collect();
        let registrations: Vec<(JobId, ContainerId)> = self.shard_manager.standbys().collect();
        if registrations.is_empty() && critical.is_empty() {
            return;
        }
        // Primary tasks and owned shards per container. Neither the
        // engine's tasks nor the shard map move inside this round (it only
        // edits standby registrations), so one walk of each serves every
        // job examined below.
        let mut load_on: BTreeMap<ContainerId, (usize, usize)> = BTreeMap::new();
        for (_, task) in self.engine.tasks() {
            load_on.entry(task.container).or_default().0 += 1;
        }
        for &container in self.shard_manager.assignment().values() {
            load_on.entry(container).or_default().1 += 1;
        }
        let tasks_on = |c: ContainerId| load_on.get(&c).map_or(0, |&(tasks, _)| tasks);
        for (job, standby) in registrations {
            self.standbys_examined += 1;
            // `critical` is in job order (it was read off an ordered map).
            let mut valid = critical.binary_search(&job).is_ok()
                && self.shard_manager.status(standby) == Some(ContainerStatus::Alive)
                && self.cluster.is_container_healthy(standby)
                && !self.severed.contains_key(&standby)
                && !self.standby_conflicts(job, standby);
            // Migrate a standby off a container that runs primary tasks
            // once an idle container is available: co-residency couples
            // the standby's fate to other jobs' faults. With no idle
            // candidate the busy placement stands — better than none.
            if valid && tasks_on(standby) > 0 {
                if let Some(better) = self.pick_standby(job, &load_on) {
                    if tasks_on(better) == 0 {
                        valid = false;
                    }
                }
            }
            if !valid {
                self.shard_manager.clear_standby(job);
                self.shadow.remove_job(job);
                self.pending_dirty.standby = true;
            }
        }
        for job in critical {
            if self.shard_manager.standby_of(job).is_some() {
                continue;
            }
            // Never place a standby while the job is mid-fault: a replica
            // registered this instant has shadow-consumed nothing, so
            // promoting it would be a cold start masquerading as the fast
            // path. The job rides the standard fail-over and gets a fresh
            // standby once its outage closes.
            if self.outages.contains_key(&job)
                || self.engine.tasks_of_job(job).any(|(_, t)| {
                    self.shard_manager.is_suspect(t.container, now)
                        || self.severed.contains_key(&t.container)
                        || !self.cluster.is_container_healthy(t.container)
                })
            {
                continue;
            }
            self.standbys_examined += 1;
            if let Some(container) = self.pick_standby(job, &load_on) {
                self.shard_manager.set_standby(job, container);
                self.pending_dirty.standby = true;
                self.trace
                    .emit(now, TraceData::StandbyPlaced { job, container });
            }
        }
    }

    /// True when a standby shares a host with one of the job's primary
    /// tasks (a single host failure would take out both).
    fn standby_conflicts(&self, job: JobId, standby: ContainerId) -> bool {
        let Ok(standby_host) = self.cluster.host_of(standby) else {
            return true;
        };
        self.engine.tasks_of_job(job).any(|(_, t)| {
            t.container == standby || self.cluster.host_of(t.container) == Ok(standby_host)
        })
    }

    /// Choose a standby container for a critical job: healthy, alive, not
    /// severed, on a host running none of the job's primaries. Containers
    /// running the fewest primary tasks (across all jobs) win — an idle
    /// container keeps the standby's failure domain decoupled from other
    /// jobs' faults — then fewest owned shards, then the lowest id.
    /// `load_on` holds both counts per container.
    fn pick_standby(
        &self,
        job: JobId,
        load_on: &BTreeMap<ContainerId, (usize, usize)>,
    ) -> Option<ContainerId> {
        let mut primary_hosts = BTreeSet::new();
        for (_, task) in self.engine.tasks_of_job(job) {
            if let Ok(host) = self.cluster.host_of(task.container) {
                primary_hosts.insert(host);
            }
        }
        let mut best: Option<((usize, usize), ContainerId)> = None;
        for &container in self.task_managers.keys() {
            if !self.cluster.is_container_healthy(container)
                || self.severed.contains_key(&container)
                || self.shard_manager.status(container) != Some(ContainerStatus::Alive)
            {
                continue;
            }
            let Ok(host) = self.cluster.host_of(container) else {
                continue;
            };
            if primary_hosts.contains(&host) {
                continue;
            }
            let load = load_on.get(&container).copied().unwrap_or_default();
            let better = match best {
                None => true,
                Some((best_load, best_id)) => {
                    load < best_load || (load == best_load && container < best_id)
                }
            };
            if better {
                best = Some((load, container));
            }
        }
        best.map(|(_, container)| container)
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
            if self.paused.contains(&job) || self.capacity_stopped.contains(&job) {
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
                    self.cluster.is_container_healthy(t.container)
                        && !self.severed.contains_key(&t.container)
                        && t.down_until.is_none_or(|u| now >= u)
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
            paused: &'a BTreeSet<JobId>,
            stopped: &'a BTreeSet<JobId>,
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
                self.paused.union(self.stopped).copied().collect()
            }
        }
        // Snapshot (cached and indexed inside the Task Service for its
        // TTL; Task Managers share it by reference).
        let snapshot = self.task_service.snapshot(
            self.now,
            &mut Running {
                jobs: &mut self.jobs,
                paused: &self.paused,
                stopped: &self.capacity_stopped,
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
            paused: &'a mut BTreeSet<JobId>,
            task_service: &'a mut TaskService,
            task_managers: &'a BTreeMap<ContainerId, LocalTaskManager>,
            engine: &'a Engine,
            state_moves: &'a mut HashMap<JobId, SimTime>,
            dirty_jobs: &'a mut BTreeSet<JobId>,
            now: SimTime,
            state_move_bandwidth: f64,
        }
        impl SyncEnvironment for Env<'_> {
            fn request_stop(&mut self, job: JobId) {
                if self.paused.insert(job) {
                    self.task_service.invalidate();
                    self.dirty_jobs.insert(job);
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
                let done_at = *self.state_moves.entry(job).or_insert_with(|| {
                    self.now + Duration::from_secs_f64(stateful_bytes / self.state_move_bandwidth)
                });
                if self.now >= done_at {
                    self.state_moves.remove(&job);
                    Ok(Redistribute::Done)
                } else {
                    Ok(Redistribute::InProgress)
                }
            }
        }
        let mut env = Env {
            paused: &mut self.paused,
            task_service: &mut self.task_service,
            task_managers: &self.task_managers,
            engine: &self.engine,
            state_moves: &mut self.state_moves,
            dirty_jobs: &mut self.pending_dirty.jobs,
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
        for &job in report
            .started
            .iter()
            .chain(&report.simple)
            .chain(&report.complex_completed)
            .chain(&report.deleted)
            .chain(&report.quarantined)
            .chain(report.failed.iter().map(|(job, _)| job))
        {
            self.pending_dirty.jobs.insert(job);
        }
        if !report.quarantined.is_empty() || !report.failed.is_empty() {
            self.pending_dirty.quarantine = true;
        }
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
        for &job in report
            .started
            .iter()
            .chain(&report.simple)
            .chain(&report.complex_completed)
        {
            self.paused.remove(&job);
            invalidate = true;
        }
        for &job in &report.deleted {
            self.paused.remove(&job);
            self.capacity_stopped.remove(&job);
            self.engine.remove_job(job);
            self.checkpoints.remove_job(job);
            self.categories.remove(&job);
            self.shard_manager.clear_standby(job);
            self.shadow.remove_job(job);
            self.outages.remove(&job);
            self.scaler.forget(job);
            self.pending_dirty.standby = true;
            invalidate = true;
        }
        if invalidate {
            self.task_service.invalidate();
        }
        self.metrics.alerts.add(report.alerts.len() as u64);
    }

    /// One Auto Scaler evaluation round.
    pub(crate) fn scaler_round(&mut self) {
        let now = self.now;
        let window = now.since(self.last_scaler_drain).as_secs_f64().max(1.0);
        self.last_scaler_drain = now;
        if !self.config.scaler_enabled {
            // Still drain windows so a later enable starts fresh.
            for job in self.engine.job_ids() {
                let _ = self.engine.drain_window(job);
            }
            return;
        }
        for job in self.engine.job_ids() {
            if self.paused.contains(&job)
                || self.capacity_stopped.contains(&job)
                || self.syncer.is_quarantined(job)
            {
                let _ = self.engine.drain_window(job);
                continue;
            }
            let Ok(config) = self.jobs.expected_typed(job) else {
                continue;
            };
            if self.jobs.running_typed(job).is_none() {
                let _ = self.engine.drain_window(job);
                continue; // not started yet
            }
            let stats = self.engine.drain_window(job);
            let runtime = self.engine.job(job).expect("registered");
            let backlog = runtime.backlog();
            let key_cardinality = runtime.stateful.then_some(runtime.key_cardinality);
            let mut per_task_rates = Vec::new();
            let mut per_task_memory = Vec::new();
            for (_, task, processed) in tasks_with_window(&self.engine, job, &stats.per_task) {
                per_task_rates.push(processed / window);
                per_task_memory.push(task.memory_usage_mb);
            }
            // Symptom inputs flow through the ODS registry: publish, then
            // read the identical `f64`s back — every scaler decision is
            // driven by the same uniform metrics plane the operator
            // console reads.
            let (input_rate, processing_rate, total_bytes_lagged) = self.ods_scaler_roundtrip(
                job,
                now,
                stats.arrived / window,
                stats.processed / window,
                backlog,
            );
            let metrics = JobMetrics {
                input_rate,
                processing_rate,
                total_bytes_lagged,
                per_task_rates,
                per_task_memory_mb: per_task_memory,
                oom_events: stats.ooms,
                task_count: config.task_count,
                threads_per_task: config.threads_per_task,
                reserved: config.task_resources,
                key_cardinality,
            };
            // Track releases (for the root-causer's bad-update rule).
            match self.releases.get(&job) {
                Some(&(current, _, _)) if current != config.package.version => {
                    self.releases
                        .insert(job, (config.package.version, current, now));
                }
                None => {
                    self.releases
                        .insert(job, (config.package.version, config.package.version, now));
                }
                _ => {}
            }
            let decision = self.scaler.evaluate(job, &metrics, &config, now);
            // Track lag episodes.
            let lagging = decision
                .symptoms
                .iter()
                .any(|s| matches!(s, turbine_autoscaler::Symptom::Lagging { .. }));
            if lagging {
                self.lag_since.entry(job).or_insert(now);
            } else {
                self.lag_since.remove(&job);
            }
            // The root-causer watches every lagging job independently of
            // the scaler: a single-task hardware anomaly must be moved,
            // not scaled around — scaling would both waste capacity and
            // accidentally mask the sick host.
            let mut action = decision.action;
            let mut diagnose = false;
            if lagging {
                // Hardware diagnosis needs a *stable* measurement window:
                // a task (re)started mid-window shows a near-zero rate and
                // would be misdiagnosed as a sick host.
                let window_start = now - self.config.scaler_interval;
                let stable_window = self
                    .engine
                    .tasks_of_job(job)
                    .all(|(_, t)| t.started_at <= window_start);
                let hardware = if stable_window {
                    let per_task_rates = self.per_task_rates(job, &stats.per_task);
                    turbine_autoscaler::hardware_anomaly(&metrics, &per_task_rates)
                } else {
                    None
                };
                let recently_diagnosed = self
                    .last_diagnosis
                    .get(&job)
                    .is_some_and(|&at| now.since(at) < Duration::from_mins(10));
                if (hardware.is_some() || decision.untriaged.is_some()) && !recently_diagnosed {
                    self.last_diagnosis.insert(job, now);
                    diagnose = true;
                    if hardware.is_some() {
                        // The move is the mitigation; do not also scale.
                        action = None;
                    }
                }
            }
            // Trace the symptom hop only when it is consequential (an
            // action or diagnosis follows): its cause is the activation
            // edge of a stall on the job's input category if one is
            // active, the scaler round's span otherwise.
            let symptom_id = if (action.is_some() || diagnose) && !decision.symptoms.is_empty() {
                let description = decision.symptoms[0].describe();
                let data = TraceData::Symptom { job, description };
                Some(
                    match self
                        .categories
                        .get(&job)
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
            if diagnose {
                self.diagnose_untriaged(job, &metrics, &stats.per_task, now);
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
    }

    /// Per-task processing rates over the last scaler window.
    fn per_task_rates(&self, job: JobId, per_task_window: &[(TaskId, f64)]) -> Vec<(TaskId, f64)> {
        let window = self.config.scaler_interval.as_secs_f64();
        tasks_with_window(&self.engine, job, per_task_window)
            .map(|(id, _, processed)| (id, processed / window))
            .collect()
    }

    /// Run the auto root-causer on an untriaged problem, record the
    /// diagnosis, and apply the safe automated mitigation (task moves for
    /// hardware issues; everything else stays a recommendation).
    fn diagnose_untriaged(
        &mut self,
        job: JobId,
        metrics: &JobMetrics,
        per_task_window: &[(TaskId, f64)],
        now: SimTime,
    ) {
        let per_task_rates = self.per_task_rates(job, per_task_window);
        let diagnosis = turbine_autoscaler::diagnose(&DiagnosisInput {
            metrics,
            per_task_rates: &per_task_rates,
            expected_per_thread: self.scaler.throughput_estimate(job).unwrap_or(0.0),
            last_release: self.releases.get(&job).copied(),
            lag_since: self.lag_since.get(&job).copied(),
            now,
        });
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
            .into_iter()
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
        match action {
            ScalingAction::RebalanceInput => {
                let n = self.engine.job(job).map_or(0, |rt| rt.partition_count());
                self.engine
                    .set_partition_weights(job, &vec![1.0 / n as f64; n]);
            }
            ScalingAction::Vertical {
                threads_per_task,
                per_task,
            } => {
                let result = self
                    .jobs
                    .update_level(job, ConfigLevel::Scaler, move |cfg| {
                        cfg.insert("threads_per_task", threads_per_task.into());
                        cfg.insert_path("resources.cpu", per_task.cpu.into());
                        cfg.insert_path("resources.memory_mb", per_task.memory_mb.into());
                        cfg.insert_path("resources.disk_mb", per_task.disk_mb.into());
                        cfg.insert_path("resources.network_mbps", per_task.network_mbps.into());
                    });
                debug_assert!(result.is_ok());
            }
            ScalingAction::Horizontal {
                task_count,
                per_task,
            } => {
                // Parallelism can never exceed the input partition count.
                let count = task_count.clamp(1, config.input_partitions);
                let result = self
                    .jobs
                    .update_level(job, ConfigLevel::Scaler, move |cfg| {
                        cfg.insert("task_count", count.into());
                        cfg.insert_path("resources.cpu", per_task.cpu.into());
                        cfg.insert_path("resources.memory_mb", per_task.memory_mb.into());
                        cfg.insert_path("resources.disk_mb", per_task.disk_mb.into());
                        cfg.insert_path("resources.network_mbps", per_task.network_mbps.into());
                    });
                debug_assert!(result.is_ok());
            }
        }
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
        self.capacity
            .register_cluster("primary", self.cluster.total_healthy_capacity());
        let directive = self.capacity.evaluate("primary", total_reserved, &job_list);
        self.scaler.set_priority_floor(directive.priority_floor);
        if !directive.jobs_to_stop.is_empty() {
            for job in directive.jobs_to_stop {
                if self.capacity_stopped.insert(job) {
                    self.metrics.alerts.incr();
                }
                self.pending_dirty.jobs.insert(job);
            }
            self.task_service.invalidate();
        } else if directive.priority_floor.is_none() && !self.capacity_stopped.is_empty() {
            // Pressure cleared: resume capacity-stopped jobs.
            self.pending_dirty
                .jobs
                .extend(self.capacity_stopped.iter().copied());
            self.capacity_stopped.clear();
            self.task_service.invalidate();
        }
    }

    /// Durability sync: flush processed offsets to the checkpoint store,
    /// then advance the shadow cursors of warm standbys — they tail their
    /// job's input alongside the primary but never write the checkpoint
    /// store.
    pub(crate) fn checkpoint_round(&mut self) {
        // Destructure so the category lookup borrows the names in place.
        let Turbine {
            engine,
            scribe,
            checkpoints,
            categories,
            now,
            ..
        } = self;
        let lookup = |job: JobId| categories.get(&job).map_or("", String::as_str);
        engine.sync_durable(*now, scribe, checkpoints, &lookup);
        let shadowed: Vec<JobId> = self.shard_manager.standbys().map(|(job, _)| job).collect();
        for job in shadowed {
            let Some(category) = self.categories.get(&job) else {
                continue;
            };
            let partitions = self
                .engine
                .job(job)
                .map(|rt| rt.partition_count())
                .unwrap_or(0);
            for i in 0..partitions {
                let partition = PartitionId(i as u64);
                if let Ok(tail) = self.scribe.tail_offset(category, partition) {
                    self.shadow.observe(job, partition, tail);
                }
            }
        }
    }

    /// One metric-sampling round.
    pub(crate) fn metrics_round(&mut self) {
        let now = self.now;
        // Each job's arrival rate, evaluated once: summed here into the
        // cluster traffic, and the denominator of the job's lag below.
        let rates: Vec<f64> = self
            .engine
            .jobs()
            .map(|(_, rt)| rt.arrival_rate(now))
            .collect();
        let traffic: f64 = rates.iter().sum();
        self.metrics
            .task_count
            .record(now, self.engine.total_tasks() as f64);

        // Host utilization bands. Each container's sum is read by key, never
        // in table order.
        let mut per_container = crate::engine::container_map(self.cluster.container_count());
        for (_, task) in self.engine.tasks() {
            *per_container
                .entry(task.container)
                .or_insert(Resources::ZERO) +=
                Resources::cpu_mem(task.cpu_usage, task.memory_usage_mb);
        }
        let mut cpu_samples = Vec::new();
        let mut mem_samples = Vec::new();
        for container in self.cluster.healthy_containers() {
            let cap = self
                .cluster
                .container_capacity(container)
                .expect("healthy container");
            let used = per_container
                .get(&container)
                .copied()
                .unwrap_or(Resources::ZERO);
            if cap.cpu > 0.0 {
                cpu_samples.push((used.cpu / cap.cpu).min(1.0));
            }
            if cap.memory_mb > 0.0 {
                mem_samples.push((used.memory_mb / cap.memory_mb).min(1.0));
            }
        }

        // Per-job lag + SLO compliance.
        let mut ok = 0usize;
        let mut total = 0usize;
        let mut total_backlog = 0.0;
        let mut ods_jobs: Vec<super::ods::JobSample> = Vec::new();
        for ((job, rt), rate) in self.engine.jobs().zip(rates) {
            let backlog = rt.backlog();
            total_backlog += backlog;
            let Ok(config) = self.jobs.expected_typed(job) else {
                continue;
            };
            // Lag relative to sustained processing capability: use the
            // arrival rate as the denominator when the job keeps up.
            let lag_secs = backlog / rate.max(1.0);
            total += 1;
            if lag_secs <= config.slo_lag_secs {
                ok += 1;
            }
            ods_jobs.push(super::ods::JobSample {
                job,
                lag_secs,
                backlog_bytes: backlog,
                running_tasks: self.engine.running_tasks_of(job),
            });
        }
        let slo_frac = (total > 0).then(|| ok as f64 / total as f64);
        if let Some(frac) = slo_frac {
            self.metrics.slo_ok_fraction.record(now, frac);
        }

        // Reserved footprint (Fig. 10).
        let reserved: Resources = self
            .jobs
            .running_typed_jobs()
            .map(|(_, c)| c.task_resources.scale(c.task_count as f64))
            .sum();

        // ODS publication + alert evaluation last: the registry sees this
        // round's observations, then rules are evaluated against them on
        // the same grid instant in every drive mode.
        self.ods_metrics_publish(
            now,
            super::ods::MetricsRoundSample {
                traffic,
                cpu_samples: &cpu_samples,
                mem_samples: &mem_samples,
                jobs: &ods_jobs,
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
            self.pending_dirty.distributed = true;
            if let Some(from) = m.from {
                self.load_dirty_containers.insert(from);
            }
            self.load_dirty_containers.insert(m.to);
            if let Some(from) = m.from {
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
            self.pending_dirty.distributed = true;
            self.load_dirty_containers.insert(container);
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
    /// next fail-over check places a fresh standby elsewhere.
    fn evict_conflicting_standby(&mut self, job: JobId, container: ContainerId) {
        let Some(standby) = self.shard_manager.standby_of(job) else {
            return;
        };
        let same_host = standby == container
            || matches!(
                (self.cluster.host_of(standby), self.cluster.host_of(container)),
                (Ok(a), Ok(b)) if a == b
            );
        if same_host {
            self.shard_manager.clear_standby(job);
            self.shadow.remove_job(job);
            self.pending_dirty.standby = true;
        }
    }
}
