//! Continuous invariant checking for chaos runs.
//!
//! During fault injection the platform's safety properties must hold at
//! *every* tick, not just at the end of a scenario — a checkpoint partition
//! briefly owned by two tasks corrupts state even if the system later
//! converges. The [`InvariantChecker`] evaluates a fixed set of
//! cross-component invariants against a read-only view the platform
//! assembles each tick:
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
//! 8. **Standby never commits** — a registered standby's Task Manager
//!    runs no task of its own job. Only running tasks commit checkpoints,
//!    so the shadow-consuming standby never writes the checkpoint store
//!    (single-writer checkpoint safety). Invariant 7's scan checks it,
//!    and reports it as `standby-isolated`: a standby running its job's
//!    task shares a host with that primary.
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
//! The checker owns its inbox: one record of what changed since the last
//! check, marked by the control loops through the platform's
//! `tell_checker` (a no-op while checking is off) — a job set, four scope
//! flags (distributed / cluster / quarantine / standby) and the promotion
//! and revival edge lists. At each check the platform adds what the
//! engine's and the Job Store's change feeds hold for the checker, and
//! the checker's `check` drains the record. A tick that only moves a
//! job's backlog and usage changes nothing the checker reads, so a busy
//! job costs no per-job work ([`InvariantChecker::jobs_examined`]). The
//! partition scope is scanned per marked job; the fleet-wide scopes are
//! one table, each row naming its scan, where its violating keys live,
//! the trigger that rescans it and whether the audit recomputes it. A
//! scope whose trigger did not fire keeps its previous violating-key set —
//! since the scans are pure functions of their inputs, the skipped result
//! is exactly what a full scan would have produced, and scanning a job
//! that did not change costs work, never correctness. The convergence
//! universe (expected ∪ running jobs) is maintained incrementally off the
//! same job set. A new checker starts with every scope pending; a full
//! scan is this check handed every job and every scope, which is what the
//! platform's `DriveMode::FullScan` reference does. Every `audit_interval`
//! checks a full recomputation cross-checks the incrementally maintained
//! state and counts any disagreement in
//! [`InvariantChecker::audit_mismatches`] — the equivalence oracle for the
//! sparse path.

use crate::engine::Engine;
use crate::platform::{Halt, Loss};
use std::collections::{BTreeMap, BTreeSet};
use turbine_cluster::Cluster;
use turbine_jobstore::{JobService, MemWal};
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

/// What changed since the last check: the checker's inbox, marked by the
/// control loops and drained by [`InvariantChecker::check`]. Every mark
/// must be *conservatively* complete: a set flag only means "may have
/// changed", and claiming something unchanged when it changed breaks the
/// sparse/full equivalence (the audit exists to catch exactly that).
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Jobs whose engine task set, pause/quarantine/capacity membership,
    /// or store rows may have changed.
    pub(crate) jobs: BTreeSet<JobId>,
    /// Task-manager ownership or the live-container set may have changed.
    pub(crate) distributed: bool,
    /// Cluster hosts or capacities may have changed.
    pub(crate) cluster: bool,
    /// The quarantine set or its failure counts may have changed.
    pub(crate) quarantine: bool,
    /// Standby registrations may have changed.
    pub(crate) standby: bool,
    /// Standby promotions: (job, promoted container).
    pub(crate) promotions: Vec<(JobId, ContainerId)>,
    /// Container revivals: (container, shards still mapped to it at
    /// revival time).
    pub(crate) revivals: Vec<(ContainerId, usize)>,
}

impl Inbox {
    /// Every fleet-wide scope pending: where a new checker starts, and what
    /// the full-scan reference hands the check at every instant.
    pub(crate) fn mark_all_scopes(&mut self) {
        self.distributed = true;
        self.cluster = true;
        self.quarantine = true;
        self.standby = true;
    }
}

/// The read-only world the checker evaluates, assembled by the platform.
pub(crate) struct InvariantView<'a> {
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
    /// Every halted job, with why: paused mid-sync, stopped by the
    /// Capacity Manager, or stalled.
    pub halts: &'a BTreeMap<JobId, Halt>,
    /// The containers lost to a severed connection or a failed host: the
    /// ones that do not heartbeat. Every other Task Manager's local state
    /// is authoritative; the distributed-state invariants (2, 3, 9) skip
    /// the lost ones, since a crashed host's Task Manager legitimately
    /// holds stale state until it rejoins.
    pub lost: &'a BTreeMap<ContainerId, Loss>,
    /// When the system last became fault-free (`None` while any fault is
    /// active). `Some(SimTime::ZERO)` if no fault was ever injected.
    pub quiet_since: Option<SimTime>,
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
    /// Invariants 7 + 8.
    standby: BTreeSet<String>,
    /// Invariant 9.
    promotion: BTreeSet<String>,
    /// Invariant 10.
    revival: BTreeSet<String>,
}

/// One violation a scan found: its rising-edge key, the invariant, and
/// the human-readable specifics.
type Finding = (String, &'static str, String);

/// One fleet-wide scope of the check.
struct Scope {
    /// Every violation the scope's inputs show now.
    scan: fn(&InvariantView<'_>, &Inbox, &mut Vec<Finding>),
    /// Where the scope's violating keys live between checks.
    slot: fn(&mut ScopedKeys) -> &mut BTreeSet<String>,
    /// When a check rescans the scope (each rescan counts in
    /// `scopes_scanned`). `None`: at every check, uncounted — its inputs
    /// are O(changes) already.
    trigger: Option<fn(&Inbox, &InvariantView<'_>) -> bool>,
    /// Whether the audit recomputes the scope. The audit reads the world,
    /// not the inbox, so it cannot recompute a scope that reads the edge
    /// lists.
    audited: bool,
}

/// The fleet-wide scopes, in the order a check records their violations.
const SCOPES: [Scope; 6] = [
    Scope {
        scan: scan_task_and_shard_ownership,
        slot: |keys| &mut keys.distributed,
        trigger: Some(|inbox, _| inbox.distributed),
        audited: true,
    },
    Scope {
        scan: scan_host_overcommit,
        slot: |keys| &mut keys.overcommit,
        trigger: Some(|inbox, _| inbox.cluster),
        audited: true,
    },
    Scope {
        scan: scan_quarantine_justified,
        slot: |keys| &mut keys.quarantine,
        trigger: Some(|inbox, _| inbox.quarantine),
        audited: true,
    },
    Scope {
        scan: scan_standby_isolation,
        slot: |keys| &mut keys.standby,
        trigger: Some(standby_moved),
        audited: true,
    },
    Scope {
        scan: scan_promotion_single_owner,
        slot: |keys| &mut keys.promotion,
        trigger: None,
        audited: false,
    },
    Scope {
        scan: scan_revival_clean,
        slot: |keys| &mut keys.revival,
        trigger: None,
        audited: false,
    },
];

/// The trigger of the standby scope (7, 8). It reads standby
/// registrations, the tasks of standby jobs, and host placement: rescan
/// when a registration or a standby job's tasks moved. Placement never
/// does: a container keeps its host for life.
fn standby_moved(inbox: &Inbox, view: &InvariantView<'_>) -> bool {
    inbox.standby
        || view
            .shard_manager
            .standbys()
            .any(|(job, _)| inbox.jobs.contains(&job))
}

/// The violating keys of `found`.
fn keys_of(found: &[Finding]) -> BTreeSet<String> {
    found.iter().map(|(key, ..)| key.clone()).collect()
}

/// Retain-and-insert bookkeeping for one scope: keys whose condition
/// cleared are forgotten, keys newly in violation are queued for
/// recording.
fn settle_scope(
    active: &mut BTreeSet<String>,
    found: Vec<Finding>,
    rising: &mut Vec<(&'static str, String)>,
) {
    let seen = keys_of(&found);
    active.retain(|k| seen.contains(k));
    for (key, invariant, detail) in found {
        if active.insert(key) {
            rising.push((invariant, detail));
        }
    }
}

/// Continuous invariant checker.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    config: InvariantConfig,
    /// What changed since the last check.
    inbox: Inbox,
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
    /// Fleet-wide scope scans (invariants 2–4, 6–8), audits aside. A
    /// cost counter like `jobs_examined`.
    scopes_scanned: u64,
}

impl InvariantChecker {
    /// A checker with the given tunables. It has seen nothing, so every
    /// scope starts pending.
    pub fn new(config: InvariantConfig) -> Self {
        let mut checker = InvariantChecker {
            config,
            ..Default::default()
        };
        checker.inbox.mark_all_scopes();
        checker
    }

    /// The record of what changed since the last check.
    pub(crate) fn inbox(&mut self) -> &mut Inbox {
        &mut self.inbox
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

    /// Evaluate the invariants touching only what the inbox says changed,
    /// and empty it. Scopes with unchanged inputs keep their previous
    /// violating-key sets — the scans are pure, so the result is identical
    /// to a full scan, which is this check handed every job and every
    /// scope. Periodically runs the full-scan audit.
    pub(crate) fn check(&mut self, view: &InvariantView<'_>) {
        self.ticks_checked += 1;
        let inbox = std::mem::take(&mut self.inbox);
        let mut rising: Vec<(&'static str, String)> = Vec::new();

        // Invariant 1: only jobs whose task/partition state may have
        // changed. A removed job is marked by the engine, scans to an
        // empty key set, and drops its entry.
        for &job in &inbox.jobs {
            self.jobs_examined += 1;
            let mut found = Vec::new();
            scan_partition_ownership(view, job, &mut found);
            if found.is_empty() {
                self.active.partition.remove(&job);
            } else {
                let active = self.active.partition.entry(job).or_default();
                settle_scope(active, found, &mut rising);
            }
        }
        for scope in &SCOPES {
            if let Some(trigger) = scope.trigger {
                if !trigger(&inbox, view) {
                    continue;
                }
                self.scopes_scanned += 1;
            }
            let mut found = Vec::new();
            (scope.scan)(view, &inbox, &mut found);
            settle_scope((scope.slot)(&mut self.active), found, &mut rising);
        }

        let now = view.now;
        for (invariant, detail) in rising {
            self.record(now, invariant, detail);
        }

        self.check_convergence(view, &inbox.jobs);

        if self.config.audit_interval > 0
            && self
                .ticks_checked
                .is_multiple_of(self.config.audit_interval)
        {
            self.audit(view);
        }
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
    /// predicate (store rows, halt records, quarantine membership, engine
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
        if self.convergence_jobs.contains(&job) && is_diverged(view, job) {
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
            let mut found = Vec::new();
            scan_partition_ownership(view, job, &mut found);
            if !found.is_empty() {
                partition.insert(job, keys_of(&found));
            }
        }
        if partition != self.active.partition {
            mismatches += 1;
        }

        for scope in SCOPES.iter().filter(|scope| scope.audited) {
            let mut found = Vec::new();
            (scope.scan)(view, &Inbox::default(), &mut found);
            if keys_of(&found) != *(scope.slot)(&mut self.active) {
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
fn scan_partition_ownership(view: &InvariantView<'_>, job: JobId, found: &mut Vec<Finding>) {
    let mut owner: BTreeMap<PartitionId, TaskId> = BTreeMap::new();
    for (&task, active) in view.engine.tasks_of_job(job) {
        for &p in view.engine.partitions_of(active) {
            if let Some(&other) = owner.get(&p) {
                found.push((
                    format!("partition:{job:?}:{p:?}"),
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
fn scan_task_and_shard_ownership(view: &InvariantView<'_>, _: &Inbox, found: &mut Vec<Finding>) {
    let mut task_owner: BTreeMap<TaskId, ContainerId> = BTreeMap::new();
    let mut shard_owner: BTreeMap<ShardId, ContainerId> = BTreeMap::new();
    for (&container, tm) in view.task_managers {
        if view.lost.contains_key(&container) {
            continue;
        }
        for (&task, _) in tm.running_tasks() {
            if let Some(&other) = task_owner.get(&task) {
                found.push((
                    format!("task:{task:?}"),
                    "single-task-ownership",
                    format!("{task:?} running in both {other} and {container}"),
                ));
            } else {
                task_owner.insert(task, container);
            }
        }
        for shard in tm.owned_shards() {
            if let Some(&other) = shard_owner.get(&shard) {
                found.push((
                    format!("shard:{shard:?}"),
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
fn scan_host_overcommit(view: &InvariantView<'_>, _: &Inbox, found: &mut Vec<Finding>) {
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
            found.push((
                format!("overcommit:{host:?}"),
                "no-host-overcommit",
                format!("{host} allocated {allocated:?} exceeds capacity {capacity:?}"),
            ));
        }
    }
}

/// Invariant 6: quarantine only after `max_failures` sync failures.
fn scan_quarantine_justified(view: &InvariantView<'_>, _: &Inbox, found: &mut Vec<Finding>) {
    let max = view.syncer.config().max_failures;
    for job in view.syncer.quarantined_jobs() {
        let count = view.syncer.failure_count(job);
        if count < max {
            found.push((
                format!("quarantine:{job:?}"),
                "quarantine-after-max-failures",
                format!("{job} quarantined after only {count}/{max} failures"),
            ));
        }
    }
}

/// Invariants 7 and 8: a warm standby never shares a host with one of
/// its job's primary tasks, as the engine places them, and its own Task
/// Manager runs none of the job's tasks, so it commits none of the job's
/// checkpoints.
fn scan_standby_isolation(view: &InvariantView<'_>, _: &Inbox, found: &mut Vec<Finding>) {
    for (job, standby) in view.shard_manager.standbys() {
        let standby_host = view.cluster.host_of(standby).ok();
        let placed = view.engine.tasks_of_job(job).find(|(_, active)| {
            active.container == standby
                || (standby_host.is_some()
                    && view.cluster.host_of(active.container).ok() == standby_host)
        });
        let run = (view.task_managers.get(&standby))
            .and_then(|tm| tm.running_tasks().find(|(task, _)| task.job == job));
        let primary = match (placed, run) {
            (Some((task, active)), _) => format!("{task:?} on {}", active.container),
            (None, Some((task, _))) => format!("{task:?} in its own Task Manager"),
            (None, None) => continue,
        };
        found.push((
            format!("standby:{job:?}"),
            "standby-isolated",
            format!("{job} standby {standby} shares a host with primary {primary}"),
        ));
    }
}

/// Invariant 9: right after a promotion, the promoted job's tasks run
/// only on the promoted container — no other live Task Manager still
/// claims them.
fn scan_promotion_single_owner(view: &InvariantView<'_>, inbox: &Inbox, found: &mut Vec<Finding>) {
    for &(job, to) in &inbox.promotions {
        let Some(tm) = view.task_managers.get(&to) else {
            continue;
        };
        let promoted: BTreeSet<TaskId> = tm
            .running_tasks()
            .map(|(&t, _)| t)
            .filter(|t| t.job == job)
            .collect();
        for (&container, other) in view.task_managers {
            if container == to || view.lost.contains_key(&container) {
                continue;
            }
            for (&task, _) in other.running_tasks() {
                if promoted.contains(&task) {
                    found.push((
                        format!("promotion:{task:?}"),
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
fn scan_revival_clean(view: &InvariantView<'_>, inbox: &Inbox, found: &mut Vec<Finding>) {
    for &(container, stale_shards) in &inbox.revivals {
        if stale_shards > 0 {
            found.push((
                format!("revival:{container:?}:{}", view.now.as_millis()),
                "container-revival-clean",
                format!("{container} revived with {stale_shards} shard(s) still mapped to it"),
            ));
        }
    }
}

/// Whether `job` is diverged (invariant 5); a quarantined or
/// capacity-stopped job never is.
fn is_diverged(view: &InvariantView<'_>, job: JobId) -> bool {
    let halt = view.halts.get(&job);
    if view.syncer.is_quarantined(job) || halt.is_some_and(|h| h.stopped) {
        return false;
    }
    if halt.is_some_and(|h| h.paused) {
        return true;
    }
    let store = view.jobs.store();
    match (store.expected_merged_ref(job).ok(), store.running(job)) {
        (None, None) => return false,
        (expected, running) if expected != running => return true,
        _ => {}
    }
    // Config tables agree: do the tasks actually run?
    view.engine.running_tasks_of(job) < configured_tasks(view, job)
}

/// The task count of `job`'s running configuration (0 without one).
fn configured_tasks(view: &InvariantView<'_>, job: JobId) -> usize {
    let config = view.jobs.running_typed(job);
    config.map_or(0, |c| c.task_count as usize)
}

fn describe_divergence(view: &InvariantView<'_>, job: JobId) -> String {
    let store = view.jobs.store();
    let what = if view.halts.get(&job).is_some_and(|h| h.paused) {
        "still paused mid-sync".to_string()
    } else if store.expected_merged_ref(job).ok() != store.running(job) {
        "expected/running configs still differ".to_string()
    } else {
        let running = view.engine.running_tasks_of(job);
        format!(
            "running {running}/{} configured tasks",
            configured_tasks(view, job)
        )
    };
    format!("{job} {what} after the convergence window")
}

use turbine_types::snap_struct;

/// Every invariant name a [`Violation`] can carry; decode re-interns the
/// stored string into this table so the restored record keeps the same
/// `&'static str` identity the checker emits.
const INVARIANT_NAMES: [&str; 9] = [
    "single-partition-ownership",
    "single-task-ownership",
    "single-shard-ownership",
    "no-host-overcommit",
    "quarantine-after-max-failures",
    "standby-isolated",
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
    promotion,
    revival
});

snap_struct!(Inbox {
    jobs,
    distributed,
    cluster,
    quarantine,
    standby,
    promotions,
    revivals
});

snap_struct!(InvariantChecker {
    config,
    inbox,
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
