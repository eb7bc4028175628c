//! The Task Service (paper §IV): expands running job configurations into
//! task specs and serves cached, indexed snapshots of the full list.
//!
//! A fetch (cache expiry or [`TaskService::invalidate`]) does work in
//! proportion to what changed since the fetch before it. The service takes
//! the jobs the Job Store fed it since that fetch, and remembers the
//! exclusion set and the per-job running tokens its cached snapshot was
//! built from; it renders again only the jobs that differ, and every other
//! job keeps its `Arc<TaskSpec>`s. When nothing differs it hands out the
//! *same* `Arc<TaskSnapshot>`, which is what lets a Task Manager skip its
//! reconcile by identity. One full build remains: the first fetch, and a
//! fetch after a restore or [`TaskService::restart`].

use crate::snapshot::{SnapshotTable, TaskSnapshot};
use crate::spec::TaskSpec;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, ShardId, SimTime, TaskId};

/// What a fetch reads of the running job table. The Task Service holds no
/// job state of its own and does not know the Job Store: the caller
/// presents the store's *running* table through this view (keeping the
/// dependency direction clean), together with the jobs that must not run
/// although they have a running configuration.
pub trait RunningJobs {
    /// Take the jobs whose rows changed since the last call, each once. A
    /// job whose running row did not move may be among them.
    fn take_changed(&mut self) -> BTreeSet<JobId>;
    /// Every job with a running configuration, ascending.
    fn running_jobs(&self) -> Vec<JobId>;
    /// Change token of a job's running row: moves on every commit or
    /// clear of that row and on nothing else.
    fn running_token(&self, job: JobId) -> u64;
    /// The running (not expected!) configuration of a job — tasks always
    /// run what the State Syncer committed. `None` if the row is absent or
    /// does not decode. Shared, not copied: the table keeps its decode.
    fn running_config(&self, job: JobId) -> Option<Arc<JobConfig>>;
    /// Jobs whose tasks must be absent from the snapshot for now (paused
    /// for a complex synchronization, stopped for capacity).
    fn excluded(&self) -> BTreeSet<JobId>;
}

/// What the cached snapshot was built from. Derived, never snapshotted:
/// without it the next fetch is a full build.
#[derive(Debug)]
struct Basis {
    /// The exclusion set it was built with.
    excluded: BTreeSet<JobId>,
    /// Per job with specs in it: the running token they were rendered
    /// from, and how many there are.
    rendered: HashMap<JobId, (u64, u32)>,
}

/// The Task Service. Holds no job state of its own — it reads the running
/// job table through [`RunningJobs`] and caches the generated snapshot for
/// its TTL (production: 90 s). The cache TTL is one term of the paper's
/// end-to-end scheduling latency: cache expiry (≤90 s) + State Syncer round
/// (≤30 s) + Task Manager refresh (≤60 s) ⇒ 1–2 minutes on average for a
/// cluster-wide update.
#[derive(Debug)]
pub struct TaskService {
    ttl: Duration,
    shard_count: u64,
    cached: Arc<TaskSnapshot>,
    cached_at: Option<SimTime>,
    /// Permanent MD5 task→shard memo (task identity never changes).
    shard_cache: HashMap<TaskId, ShardId>,
    basis: Option<Basis>,
    /// Jobs rendered since construction or restore. A cost counter, not
    /// state: it differs between a restored and an uninterrupted run (the
    /// first fetch after a restore is a full build), so it is not
    /// snapshotted.
    jobs_rendered: u64,
}

impl TaskService {
    /// A service with the production cache TTL of 90 seconds.
    pub fn new(shard_count: u64) -> Self {
        Self::with_ttl(Duration::from_secs(90), shard_count)
    }

    /// A service with an explicit cache TTL.
    pub fn with_ttl(ttl: Duration, shard_count: u64) -> Self {
        TaskService {
            ttl,
            shard_count,
            cached: Arc::new(TaskSnapshot::default()),
            cached_at: None,
            shard_cache: HashMap::new(),
            basis: None,
            jobs_rendered: 0,
        }
    }

    /// The full indexed snapshot at `now`. `jobs` is read only when the
    /// cache has expired, so a change made between two fetches stays
    /// invisible until the next one. A fetch that finds nothing changed
    /// returns the `Arc` it returned before.
    pub fn snapshot(&mut self, now: SimTime, jobs: &mut impl RunningJobs) -> Arc<TaskSnapshot> {
        let stale = match self.cached_at {
            None => true,
            Some(at) => now.since(at) >= self.ttl,
        };
        if stale {
            self.refetch(jobs);
            self.cached_at = Some(now);
        }
        self.cached.clone()
    }

    /// Drop the cache so the next snapshot refetches (used after State
    /// Syncer commits and capacity decisions). The refetch itself still
    /// follows the changes.
    pub fn invalidate(&mut self) {
        self.cached_at = None;
    }

    /// The service process came back (degraded-mode recovery): refetch at
    /// the next call, and with a full build, as a process that kept
    /// nothing would.
    pub fn restart(&mut self) {
        self.cached_at = None;
        self.basis = None;
    }

    /// Jobs rendered since construction or restore.
    pub fn jobs_rendered(&self) -> u64 {
        self.jobs_rendered
    }

    /// Forget what the cached snapshot was built from, leaving the TTL
    /// phase alone: the twin of the equivalence test calls this before
    /// every fetch, so every one of its fetches is a full build.
    #[cfg(test)]
    pub(crate) fn forget_basis(&mut self) {
        self.basis = None;
    }

    fn refetch(&mut self, jobs: &mut impl RunningJobs) {
        // Taken on a full build too, which covers it.
        let changed = jobs.take_changed();
        let excluded = jobs.excluded();
        let rendered = match self.basis.take() {
            Some(basis) => self.follow(&*jobs, basis, changed, &excluded),
            None => self.build_full(&*jobs, &excluded),
        };
        self.basis = Some(Basis { excluded, rendered });
    }

    /// Render every running job that is not excluded and index the lot.
    fn build_full(
        &mut self,
        jobs: &impl RunningJobs,
        excluded: &BTreeSet<JobId>,
    ) -> HashMap<JobId, (u64, u32)> {
        let mut rendered = HashMap::new();
        let mut specs = Vec::new();
        for job in jobs.running_jobs() {
            if excluded.contains(&job) {
                continue;
            }
            let Some(config) = jobs.running_config(job) else {
                continue;
            };
            rendered.insert(job, (jobs.running_token(job), config.task_count));
            specs.extend(Self::generate_specs(job, &config));
        }
        self.jobs_rendered += rendered.len() as u64;
        self.cached = Arc::new(TaskSnapshot::build(
            specs,
            self.shard_count,
            &mut self.shard_cache,
        ));
        rendered
    }

    /// Bring the cached snapshot up to date from `basis`: only the
    /// `changed` jobs, and those that entered or left the exclusion set,
    /// are looked at, and only those whose running token moved (or that
    /// appear or disappear) are rendered. `cached` is replaced only if some
    /// task changed.
    fn follow(
        &mut self,
        jobs: &impl RunningJobs,
        basis: Basis,
        mut candidates: BTreeSet<JobId>,
        excluded: &BTreeSet<JobId>,
    ) -> HashMap<JobId, (u64, u32)> {
        let mut rendered = basis.rendered;
        candidates.extend(excluded.symmetric_difference(&basis.excluded));
        let mut dropped = Vec::new();
        let mut specs = Vec::new();
        for job in candidates {
            let shown = !excluded.contains(&job);
            let token = jobs.running_token(job);
            let held = rendered.get(&job).copied();
            // An expected-level write feeds the job without touching its
            // running row: same token, same specs.
            if shown && held.is_some_and(|(t, _)| t == token) {
                continue;
            }
            if let Some((_, count)) = held {
                rendered.remove(&job);
                dropped.extend((0..count).map(|index| TaskId::new(job, index)));
            }
            let config = if shown {
                jobs.running_config(job)
            } else {
                None
            };
            if let Some(config) = config {
                rendered.insert(job, (token, config.task_count));
                specs.extend(Self::generate_specs(job, &config));
                self.jobs_rendered += 1;
            }
        }
        if !dropped.is_empty() || !specs.is_empty() {
            self.cached = Arc::new(self.cached.patched(dropped, specs, &mut self.shard_cache));
        }
        rendered
    }

    /// Expand one job into its task specs: one spec per task index, with
    /// the partition slice and argument template substituted.
    pub fn generate_specs(job: JobId, config: &JobConfig) -> Vec<TaskSpec> {
        (0..config.task_count)
            .map(|index| {
                let args = config
                    .args
                    .iter()
                    .map(|template| {
                        template
                            .replace("{index}", &index.to_string())
                            .replace("{count}", &config.task_count.to_string())
                            .replace("{category}", &config.input_category)
                            .replace("{checkpoint_dir}", &config.checkpoint_dir)
                    })
                    .collect();
                TaskSpec {
                    id: TaskId::new(job, index),
                    package_name: config.package.name.clone(),
                    package_version: config.package.version,
                    args,
                    threads: config.threads_per_task,
                    reserved: config.task_resources,
                    checkpoint_dir: config.checkpoint_dir.clone(),
                    input_category: config.input_category.clone(),
                    partitions: crate::mapping::task_partitions(
                        index,
                        config.task_count,
                        config.input_partitions,
                    ),
                    stateful: config.stateful,
                    memory_enforcement: config.memory_enforcement,
                }
            })
            .collect()
    }
}

// The service is encoded against the blob's `SnapshotTable`, like the
// managers it serves: the cached snapshot is an index, and the managers
// that hold the same allocation hold it again after a restore.
impl TaskService {
    /// Add the cached snapshot to `table`.
    pub fn offer_snapshot(&self, table: &mut SnapshotTable) {
        table.offer(&self.cached);
    }

    /// Encode, with the cached snapshot as its index in `table`.
    pub fn snap_shared(&self, w: &mut turbine_types::SnapWriter, table: &SnapshotTable) {
        w.put(&self.ttl);
        w.u64(self.shard_count);
        table.put_index(w, &self.cached);
        w.put(&self.cached_at);
        // shard_cache is a pure memo of the MD5 task→shard map; it refills
        // on demand after restore.
    }

    /// Decode, taking the cached snapshot from `table`.
    pub fn unsnap_shared(
        r: &mut turbine_types::SnapReader<'_>,
        table: &SnapshotTable,
    ) -> Result<Self, turbine_types::SnapError> {
        Ok(TaskService {
            ttl: r.get()?,
            shard_count: r.u64("TaskService.shard_count")?,
            cached: table.get_indexed(r, "TaskService.cached index")?,
            cached_at: r.get()?,
            shard_cache: HashMap::new(),
            // Everything below is derived: the first fetch after a
            // restore is a full build.
            basis: None,
            jobs_rendered: 0,
        })
    }
}

#[cfg(test)]
mod follow_tests;

#[cfg(test)]
mod tests {
    use super::follow_tests::FakeTable;
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn specs_cover_every_task_with_substituted_args() {
        let config = JobConfig::stateless("tailer", 4, 16);
        let specs = TaskService::generate_specs(JobId(1), &config);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[2].args[0], "--task-index=2");
        assert_eq!(specs[2].args[1], "--task-count=4");
        assert_eq!(specs[2].args[2], "--category=tailer_input");
        assert_eq!(specs[2].partitions.len(), 4);
        // Disjoint cover across specs.
        let all: Vec<_> = specs.iter().flat_map(|s| s.partitions.clone()).collect();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn snapshot_caches_until_ttl() {
        let mut svc = TaskService::with_ttl(Duration::from_secs(90), 16);
        let mut table = FakeTable::default();
        table.commit(JobId(1), JobConfig::stateless("tailer", 2, 8));

        for (now, expect_fetch) in [
            (0u64, true),
            (30, false),
            (89, false),
            (90, true),
            (150, false),
        ] {
            let before = table.fetches.get();
            let snap = svc.snapshot(t(now), &mut table);
            assert_eq!(snap.len(), 2);
            assert_eq!(
                table.fetches.get() > before,
                expect_fetch,
                "unexpected fetch behaviour at t={now}"
            );
        }
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut svc = TaskService::new(16);
        let mut table = FakeTable::default();
        table.commit(JobId(1), JobConfig::stateless("tailer", 1, 2));
        assert_eq!(svc.snapshot(t(0), &mut table).len(), 1);
        table.clear(JobId(1));
        assert_eq!(
            svc.snapshot(t(1), &mut table).len(),
            1,
            "cached until expiry"
        );
        svc.invalidate();
        assert!(svc.snapshot(t(2), &mut table).is_empty());
    }

    #[test]
    fn a_fetch_that_finds_nothing_changed_returns_the_same_snapshot() {
        let mut svc = TaskService::with_ttl(Duration::from_secs(90), 16);
        let mut table = FakeTable::default();
        for j in 1..=3 {
            table.commit(JobId(j), JobConfig::stateless("tailer", 2, 8));
        }
        let first = svc.snapshot(t(0), &mut table);
        assert_eq!(svc.jobs_rendered(), 3);
        // An expected-level write feeds the job; its running row is as it was.
        table.touch(JobId(2));
        let second = svc.snapshot(t(90), &mut table);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(svc.jobs_rendered(), 3);

        // One job released: that job is rendered, the others keep their specs.
        let mut released = JobConfig::stateless("tailer", 2, 8);
        released.package.version = 2;
        table.commit(JobId(2), released);
        let third = svc.snapshot(t(180), &mut table);
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(svc.jobs_rendered(), 4);
        let kept = TaskId::new(JobId(1), 0);
        assert!(Arc::ptr_eq(
            second.spec(kept).expect("spec"),
            third.spec(kept).expect("spec")
        ));
        assert_eq!(
            third
                .spec(TaskId::new(JobId(2), 1))
                .expect("spec")
                .package_version,
            2
        );

        // The process restarts: one full build, then deltas again.
        svc.restart();
        let fourth = svc.snapshot(t(181), &mut table);
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(svc.jobs_rendered(), 7);
        assert!(Arc::ptr_eq(&fourth, &svc.snapshot(t(271), &mut table)));
    }

    #[test]
    fn version_bump_changes_specs() {
        let mut config = JobConfig::stateless("tailer", 1, 2);
        let v1 = TaskService::generate_specs(JobId(1), &config);
        config.package.version = 2;
        let v2 = TaskService::generate_specs(JobId(1), &config);
        assert!(v2[0].requires_restart(&v1[0]));
    }
}
