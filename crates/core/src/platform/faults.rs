//! Fault-injection entry points and fault-edge side effects: severed
//! Shard Manager connections, chaos-engine windows, and whole-host
//! failures. Scheduled windows additionally enqueue
//! [`FaultEdge`](super::ControlEvent::FaultEdge) wake events so the
//! event-driven loop executes the grid instants where the edges land.

use super::{set_halt, Loss, Severance, Turbine};
use turbine_jobstore::StoreReader;
use turbine_sim::{Fault, FaultInjector, FaultPlan, FaultTransition};
use turbine_statesyncer::StateSyncer;
use turbine_types::{ContainerId, Duration, HostId, JobId};

impl Turbine {
    /// Sever a container's connection to the Shard Manager (network
    /// failure injection). Heartbeats stop; after the proactive timeout
    /// the container reboots itself (§IV-C).
    pub fn sever_connection(&mut self, container: ContainerId) {
        // The container stops heart-beating, and the distributed invariant
        // scope stops trusting its local state.
        self.tell_checker(|inbox| inbox.distributed = true);
        let now = self.now;
        let loss = self.lost.entry(container).or_insert(Loss {
            since: now,
            severed: None,
        });
        loss.severed.get_or_insert(Severance {
            at: now,
            rebooted: false,
        });
    }

    /// Restore a severed connection. If the Shard Manager already failed
    /// the container over, it rejoins as an empty container; otherwise its
    /// shards resume where they were. A container whose host is still
    /// down stays lost, and keeps its onset.
    pub fn restore_connection(&mut self, container: ContainerId) {
        let severed = self.lost.get_mut(&container).and_then(|l| l.severed.take());
        if self.cluster.is_container_healthy(container) {
            self.lost.remove(&container);
        }
        let Some(severance) = severed else {
            return;
        };
        self.container_changed(container);
        if severance.rebooted {
            use turbine_shardmgr::ContainerStatus;
            let status = self.shard_manager.status(container);
            if status == Some(ContainerStatus::Alive) {
                // Re-connected before fail-over: re-own assigned shards.
                let shards = self.shard_manager.shards_of(container);
                let mut all_events = Vec::new();
                if let Some(tm) = self.task_managers.get_mut(&container) {
                    for shard in shards {
                        all_events.extend(tm.add_shard(shard));
                    }
                }
                self.handle_task_events(container, &all_events);
            }
            // If failed over: stays empty until the next rebalance.
        }
    }

    /// Activate a fault now, optionally auto-clearing after `duration`.
    /// Side effects (severed connections, syncer restarts) are applied
    /// immediately; the expiry edge gets a wake event so the event loop
    /// lands on it.
    pub fn inject_fault(&mut self, fault: Fault, duration: Option<Duration>) {
        let until = duration.map(|d| self.now + d);
        let transitions = self.faults.inject(self.now, fault, until);
        for t in transitions {
            self.apply_fault_transition(t);
        }
        if let Some(until) = until {
            self.schedule_fault_edges(until, None);
        }
    }

    /// Clear an active fault now (no-op if it is not active).
    pub fn clear_fault(&mut self, fault: &Fault) {
        let transitions = self.faults.clear(self.now, fault);
        for t in transitions {
            self.apply_fault_transition(t);
        }
    }

    /// Schedule a fault window for future simulated time; the injector
    /// activates and expires it as the clock passes the window edges (each
    /// edge gets a wake event pinning it to the execution grid).
    pub fn schedule_fault(&mut self, plan: FaultPlan) {
        self.schedule_fault_edges(plan.from, plan.until);
        self.faults.schedule(plan);
    }

    /// Read access to the chaos engine (active faults, event log, digest).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Apply the side effects of a fault edge. Activation side effects
    /// model the outage starting; clearance side effects model the
    /// component coming back (reconnect, restart, cache invalidation).
    pub(crate) fn apply_fault_transition(&mut self, transition: FaultTransition) {
        // Trace the edge first: it is the chain root every downstream
        // symptom and decision links back to (clearances link to their own
        // activation).
        let (label, activated) = match &transition {
            FaultTransition::Activated(f) => (f.label(), true),
            FaultTransition::Cleared(f) => (f.label(), false),
        };
        self.trace.note_fault_edge(self.now, &label, activated);
        match transition {
            FaultTransition::Activated(Fault::HeartbeatLoss(container)) => {
                self.sever_connection(container);
            }
            FaultTransition::Cleared(Fault::HeartbeatLoss(container)) => {
                self.restore_connection(container);
            }
            FaultTransition::Cleared(Fault::SyncerCrash) => {
                // Restart: a fresh syncer with empty in-memory state. The
                // expected-vs-running difference persisted in the Job Store
                // is the recovery log — the next round resumes exactly the
                // syncs that were in flight (§III-B fault tolerance). The
                // restart also empties the quarantine set, so every
                // formerly quarantined job must be re-examined, and the
                // fresh syncer knows nothing: its first sparse round visits
                // every job in the store.
                let crashed =
                    std::mem::replace(&mut self.syncer, StateSyncer::new(self.config.syncer));
                self.tell_checker(|inbox| {
                    inbox.quarantine = true;
                    inbox.jobs.extend(crashed.quarantined_jobs());
                });
                self.jobs.store_mut().refeed(StoreReader::Syncer);
                self.clamp_recovered_checkpoints();
            }
            FaultTransition::Activated(Fault::ScribeStall(category))
            | FaultTransition::Cleared(Fault::ScribeStall(category)) => {
                // The category's job is halted while the stall lasts.
                if let Some(id) = self.scribe.category_id(&category) {
                    let owner = self.engine.jobs().find(|(_, rt)| rt.category() == Some(id));
                    if let Some((job, _)) = owner {
                        set_halt(&mut self.halts, &mut self.engine, job, |h| {
                            h.stalled = activated
                        });
                    }
                }
            }
            FaultTransition::Cleared(Fault::TaskServiceDown)
            | FaultTransition::Cleared(Fault::JobStoreDown) => {
                // The service comes back having kept nothing: the next
                // refresh builds a fresh snapshot in full instead of
                // serving (or patching) the stale cached one.
                self.task_service.restart();
            }
            _ => {}
        }
    }

    /// Whether a `ScribeStall` of `job`'s input category is active.
    pub(crate) fn input_stalled(&self, job: JobId) -> bool {
        let name = self.job_category(job);
        let stall = |f: &Fault| matches!(f, Fault::ScribeStall(c) if Some(c.as_str()) == name);
        self.faults.active().any(stall)
    }

    /// True while the Job Store is unavailable to writers.
    pub(crate) fn job_store_down(&self) -> bool {
        self.faults.is_active(&Fault::JobStoreDown)
    }

    /// Re-validate persisted checkpoints against the Scribe tails after a
    /// State Syncer restart. While the syncer was down the Scribe WAL may
    /// have salvaged a torn tail, legitimately moving a partition's tail
    /// *backwards* past an already-persisted checkpoint; left alone, such
    /// a checkpoint makes every `bytes_available` read error forever. Each
    /// clamp is surfaced as a `checkpoint_clamp` trace event.
    pub(crate) fn clamp_recovered_checkpoints(&mut self) {
        use turbine_trace::TraceData;
        use turbine_types::PartitionId;
        for (job, rt) in self.engine.jobs() {
            let Some(category) = rt.category() else {
                continue;
            };
            // Partitions past the category's are skipped.
            let tails = self.scribe.tails(category).take(rt.partition_count());
            for (i, tail) in tails.enumerate() {
                let partition = PartitionId(i as u64);
                if let Some((from, to)) = self.checkpoints.clamp_to(job, partition, tail) {
                    self.trace.emit(
                        self.now,
                        TraceData::CheckpointClamp {
                            job,
                            partition: partition.raw(),
                            from,
                            to,
                        },
                    );
                }
            }
        }
    }

    /// Fail a host (crash / maintenance). Tasks on it stop processing
    /// immediately; the Shard Manager fails its shards over after the
    /// fail-over interval.
    pub fn fail_host(&mut self, host: HostId) -> Result<(), String> {
        if let Ok(containers) = self.cluster.containers_on(host) {
            for container in containers {
                self.lost.entry(container).or_insert(Loss {
                    since: self.now,
                    severed: None,
                });
            }
        }
        self.cluster_changed();
        self.cluster.fail_host(host).map_err(|e| e.to_string())
    }

    /// Recover a failed host. Containers the Shard Manager already failed
    /// over rejoin empty (stale local state is discarded) and receive
    /// shards at the next rebalance; containers that recovered before the
    /// fail-over interval elapsed keep their shards and their tasks simply
    /// resume (§IV-C). A container whose connection is still severed
    /// stays lost, and keeps its onset.
    pub fn recover_host(&mut self, host: HostId) -> Result<(), String> {
        use turbine_shardmgr::ContainerStatus;
        let containers = self
            .cluster
            .containers_on(host)
            .map_err(|e| e.to_string())?;
        self.cluster.recover_host(host).map_err(|e| e.to_string())?;
        self.cluster_changed();
        for container in containers {
            if self
                .lost
                .get(&container)
                .is_some_and(|l| l.severed.is_none())
            {
                self.lost.remove(&container);
            }
            self.container_changed(container);
            if self.shard_manager.status(container) == Some(ContainerStatus::Alive) {
                // Recovered before fail-over: ownership is unchanged and
                // the local state is still valid.
                continue;
            }
            // Failed over while down: clear stale local state. The stop
            // events only affect tasks the engine still places here —
            // tasks that already moved belong to their new containers.
            let all_events = self.drop_owned_shards(container);
            self.handle_task_events(container, &all_events);
        }
        Ok(())
    }
}
