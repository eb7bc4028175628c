//! Continuous invariant checking for chaos runs.
//!
//! During fault injection the platform's safety properties must hold at
//! *every* tick, not just at the end of a scenario — a checkpoint partition
//! briefly owned by two tasks corrupts state even if the system later
//! converges. The [`InvariantChecker`] evaluates a fixed set of
//! cross-component invariants against a read-only [`InvariantView`] the
//! platform assembles each tick:
//!
//! 1. **Single partition ownership** — no input partition of a job is
//!    claimed by two active tasks (checkpoint safety, §III-B).
//! 2. **Single task ownership** — no task runs in two live Task Managers
//!    at once (two-level scheduling safety, §IV).
//! 3. **Single shard ownership** — no shard is owned by two live Task
//!    Managers at once.
//! 4. **No host overcommit** — the containers allocated on a host never
//!    exceed its capacity.
//! 5. **Convergence** — once the last fault has cleared, every job's
//!    running configuration catches up with its expected configuration
//!    (and its tasks actually run) within a bounded window (ACIDF's
//!    fault-tolerance property, §III).
//! 6. **Justified quarantine** — a job is quarantined only after the
//!    configured number of consecutive sync failures.
//!
//! 7. **Standby isolation** — a critical job's warm standby never shares
//!    a host with one of the job's primary tasks (a single host failure
//!    must not take out both).
//! 8. **Standby never commits** — the shadow-consumption path never
//!    writes the checkpoint store (single-writer checkpoint safety).
//! 9. **Single owner after promotion** — a promoted job's tasks run only
//!    on the promoted container, never also on another live Task Manager.
//! 10. **Clean revival** — a container revived after being declared dead
//!     rejoins with zero shards still mapped to it (fail-over already
//!     reassigned them).
//!
//! Safety violations (1–4, 6–10) are recorded on their rising edge; the
//! convergence liveness check (5) tracks per-job divergence episodes so
//! legitimate in-flight syncs (scaler updates, complex syncs moving state)
//! never count against the window.
//!
//! # Sparse checking
//!
//! [`InvariantChecker::check`] scopes each scan to the inputs that
//! actually changed since the last tick, described by a [`DirtyInput`]
//! the platform assembles: one job set — the jobs the control loops
//! marked plus what the engine's and the Job Store's change feeds hold
//! for the checker — and change flags for
//! the cluster / distributed / quarantine / standby state. A tick that
//! only moves a job's backlog and usage changes nothing the checker reads,
//! so a busy job costs no per-job work
//! ([`InvariantChecker::jobs_examined`]). A scope whose inputs did not
//! change keeps its previous violating-key set — since the scans are pure
//! functions of those inputs, the skipped result is exactly what a full
//! scan would have produced, and scanning a job that did not change costs
//! work, never correctness. The convergence universe (expected ∪ running
//! jobs) is maintained incrementally off the same job set. A full scan is
//! this check handed every job and every scope, which is what the
//! platform's `DriveMode::FullScan` reference does. Every
//! `audit_interval` checks a full recomputation cross-checks the
//! incrementally maintained state and counts any disagreement in
//! [`InvariantChecker::audit_mismatches`] — the equivalence oracle for the
//! sparse path.

use crate::engine::Engine;
use std::collections::{BTreeMap, BTreeSet};
use turbine_cluster::Cluster;
use turbine_jobstore::{JobService, MemWal};
use turbine_scribe::ShadowCursor;
use turbine_shardmgr::ShardManager;
use turbine_statesyncer::StateSyncer;
use turbine_taskmgr::LocalTaskManager;
use turbine_types::{ContainerId, Duration, JobId, PartitionId, ShardId, SimTime, TaskId};

/// How long a job may stay diverged (expected ≠ running, or configured
/// tasks not all running) after the later of: the last fault clearing and
/// the divergence starting. Must comfortably exceed the sync cadence times
/// the syncer's in-flight budget.
const CONVERGENCE_WINDOW: Duration = Duration::from_mins(30);

/// Cap on stored violations (a counter keeps the true total).
const MAX_RECORDED: usize = 64;

/// Invariant-checker tunables.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Every this many checks, a full-scan audit cross-checks the
    /// incrementally maintained state (0 disables the audit).
    pub audit_interval: u64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            audit_interval: 256,
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When the violation was detected.
    pub at: SimTime,
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// What changed since the last check — the platform assembles this from
/// the change feeds, component change flags, and set diffs. Every
/// flag must be *conservatively* complete: claiming something unchanged
/// when it changed breaks the sparse/full equivalence (the audit exists
/// to catch exactly that).
pub struct DirtyInput<'a> {
    /// Jobs whose engine task set, pause/quarantine/capacity membership,
    /// or store rows changed since the last check.
    pub jobs: &'a BTreeSet<JobId>,
    /// Task-manager ownership or the live-container set changed.
    pub distributed_changed: bool,
    /// Cluster topology or capacity changed.
    pub cluster_changed: bool,
    /// The syncer's quarantine state changed.
    pub quarantine_changed: bool,
    /// Standby registrations changed.
    pub standby_changed: bool,
}

/// The read-only world the checker evaluates, assembled by the platform.
pub struct InvariantView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The cluster substrate.
    pub cluster: &'a Cluster,
    /// The data-plane engine.
    pub engine: &'a Engine,
    /// Every local Task Manager.
    pub task_managers: &'a BTreeMap<ContainerId, LocalTaskManager>,
    /// The Shard Manager.
    pub shard_manager: &'a ShardManager,
    /// The Job Service (expected/running tables).
    pub jobs: &'a JobService<MemWal>,
    /// The State Syncer (quarantine state).
    pub syncer: &'a StateSyncer,
    /// Jobs paused for a complex synchronization.
    pub paused: &'a BTreeSet<JobId>,
    /// Jobs stopped by the Capacity Manager.
    pub capacity_stopped: &'a BTreeSet<JobId>,
    /// Containers whose local state is authoritative, ascending: a Task
    /// Manager on a healthy host, not severed from the Shard Manager — the
    /// containers that heartbeat. Distributed-state invariants (2, 3) only
    /// consider these — a crashed host's Task Manager legitimately holds
    /// stale state until it rejoins.
    pub live_containers: &'a [ContainerId],
    /// When the system last became fault-free (`None` while any fault is
    /// active). `Some(SimTime::ZERO)` if no fault was ever injected.
    pub quiet_since: Option<SimTime>,
    /// The shadow cursors of warm standbys (illegal-commit counter).
    pub shadow: &'a ShadowCursor,
    /// Standby promotions since the last check: (job, promoted container).
    pub fresh_promotions: &'a [(JobId, ContainerId)],
    /// Container revivals since the last check: (container, shards still
    /// mapped to it at revival time).
    pub fresh_revivals: &'a [(ContainerId, usize)],
}

/// Rising-edge key sets, partitioned by scope so a scope whose inputs did
/// not change can keep its previous result untouched.
#[derive(Debug, Default)]
struct ScopedKeys {
    /// Invariant 1, per job.
    partition: BTreeMap<JobId, BTreeSet<String>>,
    /// Invariants 2 + 3.
    distributed: BTreeSet<String>,
    /// Invariant 4.
    overcommit: BTreeSet<String>,
    /// Invariant 6.
    quarantine: BTreeSet<String>,
    /// Invariant 7.
    standby: BTreeSet<String>,
    /// Invariant 8.
    shadow: BTreeSet<String>,
    /// Invariant 9.
    promotion: BTreeSet<String>,
    /// Invariant 10.
    revival: BTreeSet<String>,
}

/// Retain-and-insert bookkeeping for one scope: keys whose condition
/// cleared are forgotten, keys newly in violation are queued for
/// recording.
fn settle_scope(
    active: &mut BTreeSet<String>,
    seen: &BTreeSet<String>,
    fresh: Vec<(String, &'static str, String)>,
    rising: &mut Vec<(&'static str, String)>,
) {
    active.retain(|k| seen.contains(k));
    for (key, invariant, detail) in fresh {
        if active.insert(key) {
            rising.push((invariant, detail));
        }
    }
}

/// Continuous invariant checker.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    config: InvariantConfig,
    violations: Vec<Violation>,
    total: u64,
    /// Rising-edge tracking for safety invariants: keys currently in
    /// violation (so a persisting condition records once, not per tick).
    active: ScopedKeys,
    /// The expected ∪ running job universe, maintained incrementally off
    /// the check's job set.
    convergence_jobs: BTreeSet<JobId>,
    /// Start of each job's current divergence episode.
    diverged_since: BTreeMap<JobId, SimTime>,
    /// Jobs already reported for their current divergence episode.
    convergence_flagged: BTreeSet<JobId>,
    ticks_checked: u64,
    audit_rounds: u64,
    audit_mismatches: u64,
    /// Per-job partition scans plus divergence updates, audits aside. A
    /// cost counter, not state: a restored checker starts from zero.
    /// Derived — not part of the snapshot.
    jobs_examined: u64,
    /// Fleet-wide scope scans (invariants 2–4, 6, 7), audits aside. A
    /// cost counter like `jobs_examined`.
    scopes_scanned: u64,
}

impl InvariantChecker {
    /// A checker with the given tunables.
    pub fn new(config: InvariantConfig) -> Self {
        InvariantChecker {
            config,
            ..Default::default()
        }
    }

    /// Recorded violations (capped at 64).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any beyond the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Number of ticks evaluated.
    pub fn ticks_checked(&self) -> u64 {
        self.ticks_checked
    }

    /// Full-scan audits performed.
    pub fn audit_rounds(&self) -> u64 {
        self.audit_rounds
    }

    /// Disagreements between the incrementally maintained state and a full
    /// recomputation — any non-zero value means the sparse path diverged
    /// from the full-scan oracle.
    pub fn audit_mismatches(&self) -> u64 {
        self.audit_mismatches
    }

    /// Jobs examined since construction or restore: one per job whose
    /// partition ownership was scanned, one per job whose divergence was
    /// re-evaluated. The periodic audit is not counted. On a fleet that no
    /// mutation or write touches this grows with what changed, not with
    /// jobs × checks.
    pub fn jobs_examined(&self) -> u64 {
        self.jobs_examined
    }

    /// Fleet-wide scans of the four flagged scopes — task and shard
    /// ownership, host overcommit, quarantine, standby isolation — since
    /// construction or restore; the audit is not counted. A check scans a
    /// scope only when its change flag says its inputs may have moved.
    pub fn scopes_scanned(&self) -> u64 {
        self.scopes_scanned
    }

    /// Start of `job`'s current divergence episode, if it is in one.
    #[cfg(test)]
    pub(crate) fn diverged_since(&self, job: JobId) -> Option<SimTime> {
        self.diverged_since.get(&job).copied()
    }

    /// Evaluate the invariants touching only what `dirty` says changed.
    /// Scopes with unchanged inputs keep their previous violating-key
    /// sets — the scans are pure, so the result is identical to a full
    /// scan, which is this check handed every job and every scope.
    /// Periodically runs the full-scan audit.
    pub fn check(&mut self, view: &InvariantView<'_>, dirty: &DirtyInput<'_>) {
        self.ticks_checked += 1;
        let mut rising: Vec<(&'static str, String)> = Vec::new();

        // Invariant 1: only jobs whose task/partition state may have
        // changed. A removed job is marked by the engine, scans to an
        // empty key set, and drops its entry.
        for &job in dirty.jobs {
            self.settle_partition_scope(view, job, &mut rising);
        }
        if dirty.distributed_changed {
            self.settle_distributed_scope(view, &mut rising);
        }
        if dirty.cluster_changed {
            self.settle_overcommit_scope(view, &mut rising);
        }
        if dirty.quarantine_changed {
            self.settle_quarantine_scope(view, &mut rising);
        }
        // Standby isolation reads standby registrations, the engine tasks
        // of standby jobs, and host placement: rescan when any of those
        // moved.
        let standby_inputs_changed = dirty.standby_changed
            || dirty.cluster_changed
            || view
                .shard_manager
                .standbys()
                .any(|(job, _)| dirty.jobs.contains(&job));
        if standby_inputs_changed {
            self.settle_standby_scope(view, &mut rising);
        }
        // Shadow-commit counter and the fresh promotion/revival edge lists
        // are O(changes) already: always evaluated.
        self.settle_edge_scopes(view, &mut rising);

        let now = view.now;
        for (invariant, detail) in rising {
            self.record(now, invariant, detail);
        }

        self.check_convergence(view, dirty.jobs);

        if self.config.audit_interval > 0
            && self
                .ticks_checked
                .is_multiple_of(self.config.audit_interval)
        {
            self.audit(view);
        }
    }

    fn settle_partition_scope(
        &mut self,
        view: &InvariantView<'_>,
        job: JobId,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        self.jobs_examined += 1;
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_partition_ownership(view, job, &mut fresh, &mut seen);
        if seen.is_empty() {
            self.active.partition.remove(&job);
            return;
        }
        let active = self.active.partition.entry(job).or_default();
        settle_scope(active, &seen, fresh, rising);
    }

    fn settle_distributed_scope(
        &mut self,
        view: &InvariantView<'_>,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        self.scopes_scanned += 1;
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_task_and_shard_ownership(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.distributed, &seen, fresh, rising);
    }

    fn settle_overcommit_scope(
        &mut self,
        view: &InvariantView<'_>,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        self.scopes_scanned += 1;
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_host_overcommit(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.overcommit, &seen, fresh, rising);
    }

    fn settle_quarantine_scope(
        &mut self,
        view: &InvariantView<'_>,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        self.scopes_scanned += 1;
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_quarantine_justified(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.quarantine, &seen, fresh, rising);
    }

    fn settle_standby_scope(
        &mut self,
        view: &InvariantView<'_>,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        self.scopes_scanned += 1;
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_standby_isolation(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.standby, &seen, fresh, rising);
    }

    /// Invariants 8–10: cheap counter + edge-list driven, always scanned.
    fn settle_edge_scopes(
        &mut self,
        view: &InvariantView<'_>,
        rising: &mut Vec<(&'static str, String)>,
    ) {
        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_standby_never_commits(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.shadow, &seen, fresh, rising);

        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_promotion_single_owner(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.promotion, &seen, fresh, rising);

        let mut seen = BTreeSet::new();
        let mut fresh = Vec::new();
        scan_revival_clean(view, &mut fresh, &mut seen);
        settle_scope(&mut self.active.revival, &seen, fresh, rising);
    }

    /// Invariant 5: bounded post-fault convergence. A job is *diverged*
    /// when its merged expected configuration differs from its running
    /// configuration, when it is paused mid-sync, or when fewer tasks run
    /// than the running configuration calls for. Divergence is fine while
    /// faults are active or a sync is under way — it violates the
    /// invariant only when it outlives the convergence window after both
    /// the divergence started and the last fault cleared.
    ///
    /// Only `candidates` are re-evaluated: every input of the divergence
    /// predicate (store rows, pause/quarantine/capacity membership, engine
    /// task counts) marks the job in that set, so untouched jobs keep
    /// their status and their place in the universe. The window-expiry
    /// pass always walks the (small) diverged set: it is time-dependent.
    fn check_convergence(&mut self, view: &InvariantView<'_>, candidates: &BTreeSet<JobId>) {
        let now = view.now;
        let store = view.jobs.store();
        for &job in candidates {
            if store.running(job).is_some() || store.has_job(job) {
                self.convergence_jobs.insert(job);
            } else {
                self.convergence_jobs.remove(&job);
            }
            self.update_divergence(view, job, now);
        }

        let Some(quiet_since) = view.quiet_since else {
            return; // faults active: liveness clock not running
        };
        let flagged: Vec<JobId> = self
            .diverged_since
            .iter()
            .filter(|(job, _)| !self.convergence_flagged.contains(job))
            .filter(|&(_, &start)| now.since(start.max(quiet_since)) > CONVERGENCE_WINDOW)
            .map(|(&job, _)| job)
            .collect();
        for job in flagged {
            self.convergence_flagged.insert(job);
            let detail = describe_divergence(view, job);
            self.record(now, "post-fault-convergence", detail);
        }
    }

    /// Bring one job's divergence-episode bookkeeping up to date.
    fn update_divergence(&mut self, view: &InvariantView<'_>, job: JobId, now: SimTime) {
        self.jobs_examined += 1;
        let eligible = self.convergence_jobs.contains(&job)
            && !view.syncer.is_quarantined(job)
            && !view.capacity_stopped.contains(&job);
        if eligible && is_diverged(view, job) {
            self.diverged_since.entry(job).or_insert(now);
        } else {
            self.diverged_since.remove(&job);
            self.convergence_flagged.remove(&job);
        }
    }

    /// The equivalence oracle: recompute every scope's violating-key set
    /// and the convergence state from scratch, and count disagreements
    /// with the incrementally maintained state. Pure — performs no
    /// state updates, records no violations.
    fn audit(&mut self, view: &InvariantView<'_>) {
        self.audit_rounds += 1;
        let mut mismatches = 0u64;

        let mut partition: BTreeMap<JobId, BTreeSet<String>> = BTreeMap::new();
        for job in view.engine.job_ids() {
            let mut seen = BTreeSet::new();
            let mut fresh = Vec::new();
            scan_partition_ownership(view, job, &mut fresh, &mut seen);
            if !seen.is_empty() {
                partition.insert(job, seen);
            }
        }
        if partition != self.active.partition {
            mismatches += 1;
        }

        for (scan, active) in [
            (
                scan_task_and_shard_ownership as fn(&InvariantView<'_>, &mut _, &mut _),
                &self.active.distributed,
            ),
            (scan_host_overcommit, &self.active.overcommit),
            (scan_quarantine_justified, &self.active.quarantine),
            (scan_standby_isolation, &self.active.standby),
            (scan_standby_never_commits, &self.active.shadow),
        ] {
            let mut seen = BTreeSet::new();
            let mut fresh = Vec::new();
            scan(view, &mut fresh, &mut seen);
            if &seen != active {
                mismatches += 1;
            }
        }

        let store = view.jobs.store();
        let mut universe: BTreeSet<JobId> = store.expected_jobs().into_iter().collect();
        universe.extend(store.running_jobs());
        if universe != self.convergence_jobs {
            mismatches += 1;
        }
        let diverged: BTreeSet<JobId> = universe
            .iter()
            .copied()
            .filter(|&job| {
                !view.syncer.is_quarantined(job) && !view.capacity_stopped.contains(&job)
            })
            .filter(|&job| is_diverged(view, job))
            .collect();
        let tracked: BTreeSet<JobId> = self.diverged_since.keys().copied().collect();
        if diverged != tracked {
            mismatches += 1;
        }

        self.audit_mismatches += mismatches;
    }

    fn record(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                at,
                invariant,
                detail,
            });
        }
    }
}

/// Invariant 1: each input partition of `job` is owned by at most one
/// active task.
fn scan_partition_ownership(
    view: &InvariantView<'_>,
    job: JobId,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    let mut owner: BTreeMap<PartitionId, TaskId> = BTreeMap::new();
    for (&task, active) in view.engine.tasks_of_job(job) {
        for &p in view.engine.partitions_of(active) {
            if let Some(&other) = owner.get(&p) {
                let key = format!("partition:{job:?}:{p:?}");
                seen.insert(key.clone());
                fresh.push((
                    key,
                    "single-partition-ownership",
                    format!("{job} partition {p:?} owned by both {other:?} and {task:?}"),
                ));
            } else {
                owner.insert(p, task);
            }
        }
    }
}

/// Invariants 2 + 3: across live Task Managers, every task and every
/// shard has at most one owner.
fn scan_task_and_shard_ownership(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    let mut task_owner: BTreeMap<TaskId, ContainerId> = BTreeMap::new();
    let mut shard_owner: BTreeMap<ShardId, ContainerId> = BTreeMap::new();
    for (&container, tm) in view.task_managers {
        if view.live_containers.binary_search(&container).is_err() {
            continue;
        }
        for (&task, _) in tm.running_tasks() {
            if let Some(&other) = task_owner.get(&task) {
                let key = format!("task:{task:?}");
                seen.insert(key.clone());
                fresh.push((
                    key,
                    "single-task-ownership",
                    format!("{task:?} running in both {other} and {container}"),
                ));
            } else {
                task_owner.insert(task, container);
            }
        }
        for shard in tm.owned_shards() {
            if let Some(&other) = shard_owner.get(&shard) {
                let key = format!("shard:{shard:?}");
                seen.insert(key.clone());
                fresh.push((
                    key,
                    "single-shard-ownership",
                    format!("{shard} owned by both {other} and {container}"),
                ));
            } else {
                shard_owner.insert(shard, container);
            }
        }
    }
}

/// Invariant 4: per host, allocated container capacity never exceeds
/// the host's capacity.
fn scan_host_overcommit(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    for host in view.cluster.hosts() {
        let (Ok(capacity), Ok(containers)) = (
            view.cluster.host_capacity(host),
            view.cluster.containers_on(host),
        ) else {
            continue;
        };
        let allocated: turbine_types::Resources = containers
            .iter()
            .filter_map(|&c| view.cluster.container_capacity(c).ok())
            .sum();
        // Tiny epsilon: the capacities are f64 sums.
        let over = allocated.cpu > capacity.cpu * (1.0 + 1e-9)
            || allocated.memory_mb > capacity.memory_mb * (1.0 + 1e-9)
            || allocated.disk_mb > capacity.disk_mb * (1.0 + 1e-9)
            || allocated.network_mbps > capacity.network_mbps * (1.0 + 1e-9);
        if over {
            let key = format!("overcommit:{host:?}");
            seen.insert(key.clone());
            fresh.push((
                key,
                "no-host-overcommit",
                format!("{host} allocated {allocated:?} exceeds capacity {capacity:?}"),
            ));
        }
    }
}

/// Invariant 6: quarantine only after `max_failures` sync failures.
fn scan_quarantine_justified(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    let max = view.syncer.config().max_failures;
    for job in view.syncer.quarantined_jobs() {
        let count = view.syncer.failure_count(job);
        if count < max {
            let key = format!("quarantine:{job:?}");
            seen.insert(key.clone());
            fresh.push((
                key,
                "quarantine-after-max-failures",
                format!("{job} quarantined after only {count}/{max} failures"),
            ));
        }
    }
}

/// Invariant 7: a warm standby never shares a host with one of its
/// job's primary tasks, and never runs the job's tasks itself before
/// promotion.
fn scan_standby_isolation(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    for (job, standby) in view.shard_manager.standbys() {
        let standby_host = view.cluster.host_of(standby).ok();
        for (&task, active) in view.engine.tasks_of_job(job) {
            let conflict = active.container == standby
                || (standby_host.is_some()
                    && view.cluster.host_of(active.container).ok() == standby_host);
            if conflict {
                let key = format!("standby:{job:?}");
                seen.insert(key.clone());
                fresh.push((
                    key,
                    "standby-isolated",
                    format!(
                        "{job} standby {standby} shares a host with primary {task:?} on {}",
                        active.container
                    ),
                ));
                break;
            }
        }
    }
}

/// Invariant 8: the shadow-consumption path never commits checkpoints.
fn scan_standby_never_commits(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    let illegal = view.shadow.illegal_commits();
    if illegal > 0 {
        let key = "shadow-commit".to_string();
        seen.insert(key.clone());
        fresh.push((
            key,
            "standby-never-commits",
            format!("{illegal} checkpoint commit(s) attempted through the shadow path"),
        ));
    }
}

/// Invariant 9: right after a promotion, the promoted job's tasks run
/// only on the promoted container — no other live Task Manager still
/// claims them.
fn scan_promotion_single_owner(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    for &(job, to) in view.fresh_promotions {
        let Some(tm) = view.task_managers.get(&to) else {
            continue;
        };
        let promoted: BTreeSet<TaskId> = tm
            .running_tasks()
            .map(|(&t, _)| t)
            .filter(|t| t.job == job)
            .collect();
        for (&container, other) in view.task_managers {
            if container == to || view.live_containers.binary_search(&container).is_err() {
                continue;
            }
            for (&task, _) in other.running_tasks() {
                if promoted.contains(&task) {
                    let key = format!("promotion:{task:?}");
                    seen.insert(key.clone());
                    fresh.push((
                        key,
                        "promotion-single-owner",
                        format!("{job} promoted to {to} but {task:?} still runs in {container}"),
                    ));
                }
            }
        }
    }
}

/// Invariant 10: a revived container's shards were already reassigned
/// by the fail-over — it must rejoin empty.
fn scan_revival_clean(
    view: &InvariantView<'_>,
    fresh: &mut Vec<(String, &'static str, String)>,
    seen: &mut BTreeSet<String>,
) {
    for &(container, stale_shards) in view.fresh_revivals {
        if stale_shards > 0 {
            let key = format!("revival:{container:?}:{}", view.now.as_millis());
            seen.insert(key.clone());
            fresh.push((
                key,
                "container-revival-clean",
                format!("{container} revived with {stale_shards} shard(s) still mapped to it"),
            ));
        }
    }
}

fn is_diverged(view: &InvariantView<'_>, job: JobId) -> bool {
    if view.paused.contains(&job) {
        return true;
    }
    let store = view.jobs.store();
    match (store.expected_merged_ref(job).ok(), store.running(job)) {
        (Some(expected), Some(running)) if expected != running => return true,
        (Some(_), None) | (None, Some(_)) => return true,
        (None, None) => return false,
        _ => {}
    }
    // Config tables agree: do the tasks actually run?
    let configured = view
        .jobs
        .running_typed(job)
        .map(|c| c.task_count as usize)
        .unwrap_or(0);
    view.engine.running_tasks_of(job) < configured
}

fn describe_divergence(view: &InvariantView<'_>, job: JobId) -> String {
    let store = view.jobs.store();
    if view.paused.contains(&job) {
        return format!("{job} still paused mid-sync after the convergence window");
    }
    if store.expected_merged_ref(job).ok() != store.running(job) {
        return format!("{job} expected/running configs still differ after the convergence window");
    }
    let configured = view
        .jobs
        .running_typed(job)
        .map(|c| c.task_count as usize)
        .unwrap_or(0);
    format!(
        "{job} running {}/{configured} configured tasks after the convergence window",
        view.engine.running_tasks_of(job)
    )
}

use turbine_types::snap_struct;

/// Every invariant name a [`Violation`] can carry; decode re-interns the
/// stored string into this table so the restored record keeps the same
/// `&'static str` identity the checker emits.
const INVARIANT_NAMES: [&str; 10] = [
    "single-partition-ownership",
    "single-task-ownership",
    "single-shard-ownership",
    "no-host-overcommit",
    "quarantine-after-max-failures",
    "standby-isolated",
    "standby-never-commits",
    "promotion-single-owner",
    "container-revival-clean",
    "post-fault-convergence",
];

snap_struct!(InvariantConfig { audit_interval });

snap_struct!(Violation {
    at,
    invariant in INVARIANT_NAMES,
    detail
});

snap_struct!(ScopedKeys {
    partition,
    distributed,
    overcommit,
    quarantine,
    standby,
    shadow,
    promotion,
    revival
});

snap_struct!(InvariantChecker {
    config,
    violations,
    total,
    active,
    convergence_jobs,
    diverged_since,
    convergence_flagged,
    ticks_checked,
    audit_rounds,
    audit_mismatches
} derived {
    jobs_examined: 0,
    scopes_scanned: 0,
});
