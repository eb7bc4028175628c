//! The State Syncer service loop.

use crate::plan::{build_delete_plan, build_plan, classify, SyncAction, SyncKind};
use std::collections::{BTreeMap, BTreeSet};
use turbine_config::JobConfig;
use turbine_jobstore::{JobService, StoreReader, WalStorage};
use turbine_sim::SimRng;
use turbine_types::JobId;

/// State Syncer tunables.
#[derive(Debug, Clone, Copy)]
pub struct SyncerConfig {
    /// Consecutive plan *failures* after which a job is quarantined and an
    /// operator alert fired (paper: "if it fails for multiple times").
    /// Must be at least 1 — see [`SyncerConfig::validate`].
    pub max_failures: u32,
    /// Consecutive rounds a complex sync may sit waiting (e.g. for tasks
    /// to stop) before it is treated as a failure. At the 30 s round
    /// cadence the default of 20 rounds ≈ 10 minutes.
    pub max_inflight_rounds: u32,
}

/// Seed for the backoff jitter, so retry spacing is deterministic per
/// syncer instance yet decorrelated across failing jobs.
const BACKOFF_SEED: u64 = 0x5EED_BACC;

impl SyncerConfig {
    /// Validate the configuration. `max_failures == 0` would quarantine a
    /// job before its first sync ever ran.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_failures < 1 {
            return Err("syncer max_failures must be >= 1".to_string());
        }
        Ok(())
    }
}

impl Default for SyncerConfig {
    fn default() -> Self {
        SyncerConfig {
            max_failures: 3,
            max_inflight_rounds: 20,
        }
    }
}

/// Progress of a (possibly long-running) redistribution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redistribute {
    /// Checkpoints/state fully re-mapped; the plan may commit.
    Done,
    /// Still moving state (stateful jobs move real bytes — "may take a
    /// fairly long time", §III-B); the syncer re-enters the plan next
    /// round without counting a failure.
    InProgress,
}

/// The world the syncer acts on. The platform implements this against the
/// real Task Managers; tests use mocks to inject failures.
pub trait SyncEnvironment {
    /// Ask every Task Manager to stop the job's tasks. Must be idempotent.
    fn request_stop(&mut self, job: JobId);

    /// True once no task of the job is running anywhere in the cluster.
    fn all_stopped(&mut self, job: JobId) -> bool;

    /// Re-map checkpoints (and state for stateful jobs) from the old to
    /// the new task layout. Must be idempotent; may fail transiently or
    /// report [`Redistribute::InProgress`] while state is still moving.
    fn redistribute_checkpoints(
        &mut self,
        job: JobId,
        old_task_count: u32,
        new_task_count: u32,
    ) -> Result<Redistribute, String>;
}

/// Outcome of one synchronization round.
#[derive(Debug, Default, Clone)]
pub struct SyncReport {
    /// Jobs whose first running configuration was committed.
    pub started: Vec<JobId>,
    /// Jobs synchronized with a simple (batched) copy.
    pub simple: Vec<JobId>,
    /// Jobs whose complex synchronization fully completed this round.
    pub complex_completed: Vec<JobId>,
    /// Jobs whose complex synchronization is mid-flight (e.g. waiting for
    /// old tasks to stop); they will be resumed next round.
    pub in_progress: Vec<JobId>,
    /// Jobs fully wound down and removed from the running table.
    pub deleted: Vec<JobId>,
    /// Jobs whose plan failed this round, with the reason.
    pub failed: Vec<(JobId, String)>,
    /// Jobs skipped this round because they are backing off after a
    /// failure (retry spacing grows 1/2/4 rounds, plus seeded jitter).
    pub backed_off: Vec<JobId>,
    /// Jobs quarantined this round (alerts fired).
    pub quarantined: Vec<JobId>,
    /// Operator alerts raised this round.
    pub alerts: Vec<String>,
    /// Jobs whose redistribution was satisfied by a consumed warm-handoff
    /// grant this round (fast-path fail-over: the promoted standby already
    /// holds warm state, so nothing moved).
    pub warm_handoffs: Vec<JobId>,
    /// How many jobs this round actually examined. Full rounds examine the
    /// whole expected∪running universe; sparse rounds only the candidates,
    /// so this is the control-plane work measure the scale gate watches.
    pub jobs_examined: usize,
}

impl SyncReport {
    /// Total jobs that changed state this round.
    pub fn total_changed(&self) -> usize {
        self.started.len() + self.simple.len() + self.complex_completed.len() + self.deleted.len()
    }
}

/// The State Syncer.
#[derive(Debug)]
pub struct StateSyncer {
    config: SyncerConfig,
    failure_counts: BTreeMap<JobId, u32>,
    inflight_rounds: BTreeMap<JobId, u32>,
    quarantined: BTreeSet<JobId>,
    /// Monotone round counter driving the retry backoff.
    round: u64,
    /// Earliest round at which a previously-failed job may retry.
    resume_round: BTreeMap<JobId, u64>,
    /// Jitter source for backoff spacing, seeded from `BACKOFF_SEED` so
    /// two syncers produce the same retry schedule.
    rng: SimRng,
    /// One-shot warm-handoff grants from fast-path promotions: the
    /// promoted standby shadow-consumed the input, so the job's next
    /// checkpoint/state redistribution is already satisfied and must not
    /// pause the job for a state move. Grants are in-memory only — a
    /// syncer crash drops them and the job degrades to the full path.
    warm_handoffs: BTreeSet<JobId>,
    /// Jobs that must be revisited next round regardless of store
    /// changes: mid-flight plans, failures awaiting retry, backoffs.
    attention: BTreeSet<JobId>,
}

impl StateSyncer {
    /// A syncer with the given tunables. Panics on an invalid
    /// configuration — see [`SyncerConfig::validate`].
    pub fn new(config: SyncerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid syncer config: {e}");
        }
        StateSyncer {
            config,
            failure_counts: BTreeMap::new(),
            inflight_rounds: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            round: 0,
            resume_round: BTreeMap::new(),
            rng: SimRng::seeded(BACKOFF_SEED),
            warm_handoffs: BTreeSet::new(),
            attention: BTreeSet::new(),
        }
    }

    /// Grant a one-shot warm handoff: the job's next redistribution
    /// completes instantly because its promoted standby already holds warm
    /// state. Issued by the platform when a critical job's standby is
    /// promoted on the fast path.
    pub fn grant_warm_handoff(&mut self, job: JobId) {
        self.warm_handoffs.insert(job);
        // Make sure the sparse round revisits the job even if its store
        // rows have not changed, so the grant is consumed promptly.
        self.attention.insert(job);
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SyncerConfig {
        &self.config
    }

    /// True if the job is quarantined (skipped by sync rounds).
    pub fn is_quarantined(&self, job: JobId) -> bool {
        self.quarantined.contains(&job)
    }

    /// Jobs currently quarantined, in id order.
    pub fn quarantined_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.quarantined.iter().copied()
    }

    /// Consecutive sync failures recorded for a job.
    pub fn failure_count(&self, job: JobId) -> u32 {
        self.failure_counts.get(&job).copied().unwrap_or(0)
    }

    /// Run one synchronization round (production cadence: every 30 s) over
    /// every job in the union of the expected and running tables: the
    /// paper's full comparison, which the benchmark times beside
    /// [`Self::run_round_sparse`]. What the sparse round would have
    /// visited is consumed unread; unfinished business re-enters attention
    /// from the round's report.
    pub fn run_round<W: WalStorage>(
        &mut self,
        service: &mut JobService<W>,
        env: &mut dyn SyncEnvironment,
    ) -> SyncReport {
        self.take_candidates(service);
        let mut jobs: BTreeSet<JobId> = service.store().expected_jobs().into_iter().collect();
        jobs.extend(service.store().running_jobs());
        self.round(jobs, service, env)
    }

    /// Run one synchronization round over only the jobs that can have
    /// changed: the Job Store's changes since the last round plus the
    /// syncer's own attention set (mid-flight plans, retry backoffs, fresh
    /// warm-handoff grants).
    ///
    /// Equivalence with [`Self::run_round`]: a job outside both sets has had no
    /// expected/running row change since it was last seen in sync, so the
    /// full round would take the hot no-op path for it (or `continue` past
    /// it while quarantined) — no report entry, no store write, no RNG
    /// draw. Both rounds visit their jobs in ascending order, so the
    /// backoff jitter stream is drawn identically either way.
    pub fn run_round_sparse<W: WalStorage>(
        &mut self,
        service: &mut JobService<W>,
        env: &mut dyn SyncEnvironment,
    ) -> SyncReport {
        let candidates = self.take_candidates(service);
        self.round(candidates, service, env)
    }

    /// The one round loop: compare expected and running for each of
    /// `jobs`, in ascending order.
    fn round<W: WalStorage>(
        &mut self,
        jobs: BTreeSet<JobId>,
        service: &mut JobService<W>,
        env: &mut dyn SyncEnvironment,
    ) -> SyncReport {
        let mut report = SyncReport {
            jobs_examined: jobs.len(),
            ..SyncReport::default()
        };
        self.round += 1;
        for job in jobs {
            if self.quarantined.contains(&job) {
                continue;
            }
            // Repeatedly-failing jobs back off (1/2/4 rounds plus jitter)
            // so a flapping dependency isn't hammered every 30 s, and the
            // failure counter climbs toward quarantine more slowly than
            // the round cadence.
            if let Some(&resume) = self.resume_round.get(&job) {
                if self.round < resume {
                    report.backed_off.push(job);
                    continue;
                }
                self.resume_round.remove(&job);
            }
            if service.store().has_job(job) {
                self.sync_existing(job, service, env, &mut report);
            } else if service.store().running(job).is_some() {
                // Deleted job still running: wind it down.
                self.run_actions(
                    job,
                    &build_delete_plan(job),
                    None,
                    service,
                    env,
                    &mut report,
                );
            }
            // Neither expected nor running: fully gone.
        }
        self.refresh_attention(&report);
        report
    }

    /// Take the attention set and the store's changes since the last round.
    /// A round's own commits are fed to the next, which re-verifies those
    /// jobs on the hot no-op path, exactly as a full round would.
    fn take_candidates<W: WalStorage>(&mut self, service: &mut JobService<W>) -> BTreeSet<JobId> {
        let mut candidates = std::mem::take(&mut self.attention);
        candidates.extend(service.store_mut().drain_changes(StoreReader::Syncer));
        candidates
    }

    /// Re-arm the attention set from a round's outcome: jobs with
    /// unfinished business must be revisited next round even if the Job
    /// Store stays quiet. (Quarantined jobs appear in `failed` on the
    /// round that quarantines them; they re-enter attention once, get
    /// skipped next round, and drop out — matching the full round's
    /// per-round `continue`.)
    fn refresh_attention(&mut self, report: &SyncReport) {
        self.attention.extend(report.backed_off.iter().copied());
        self.attention.extend(report.in_progress.iter().copied());
        self.attention
            .extend(report.failed.iter().map(|(job, _)| *job));
    }

    fn sync_existing<W: WalStorage>(
        &mut self,
        job: JobId,
        service: &mut JobService<W>,
        env: &mut dyn SyncEnvironment,
        report: &mut SyncReport,
    ) {
        // Compare the (cached) merged expected view to running — the hot
        // no-op path for tens of thousands of in-sync jobs per round.
        match service.store().expected_merged_ref(job) {
            Ok(merged) if Some(merged) == service.store().running(job) => {
                self.inflight_rounds.remove(&job);
                return; // no difference detected
            }
            Ok(_) => {}
            Err(e) => {
                self.record_failure(job, format!("merge failed: {e}"), report);
                return;
            }
        }
        let merged_value = service.store().expected_merged(job).expect("checked above");
        let expected = match JobConfig::from_value(&merged_value) {
            Ok(c) => c,
            Err(e) => {
                // A layer wrote a malformed value (bad user update): this
                // never self-heals, so it counts as a plan failure.
                self.record_failure(job, format!("expected config invalid: {e}"), report);
                return;
            }
        };
        let running = service.running_typed(job);
        let kind = classify(running.as_deref(), &expected);
        let plan = build_plan(job, kind, running.as_deref(), &expected);
        let done = self.run_actions(job, &plan, Some(&merged_value), service, env, report);
        if done {
            match kind {
                SyncKind::Start => report.started.push(job),
                SyncKind::Simple => report.simple.push(job),
                SyncKind::Complex => report.complex_completed.push(job),
                SyncKind::NoChange => {}
            }
        }
    }

    /// Execute a plan's actions in order. Returns true if the plan ran to
    /// completion this round. A waiting barrier leaves the plan
    /// uncommitted; the diff persists, so the next round resumes it (all
    /// actions are idempotent).
    fn run_actions<W: WalStorage>(
        &mut self,
        job: JobId,
        plan: &[SyncAction],
        merged_value: Option<&turbine_config::ConfigValue>,
        service: &mut JobService<W>,
        env: &mut dyn SyncEnvironment,
        report: &mut SyncReport,
    ) -> bool {
        for action in plan {
            match action {
                SyncAction::StopAllTasks { job } => env.request_stop(*job),
                SyncAction::AwaitAllStopped { job } => {
                    if !env.all_stopped(*job) {
                        let waited = self.inflight_rounds.entry(*job).or_insert(0);
                        *waited += 1;
                        if *waited > self.config.max_inflight_rounds {
                            self.inflight_rounds.remove(job);
                            self.record_failure(
                                *job,
                                "tasks did not stop within the in-flight budget".to_string(),
                                report,
                            );
                        } else {
                            report.in_progress.push(*job);
                        }
                        return false;
                    }
                    self.inflight_rounds.remove(job);
                }
                SyncAction::RedistributeCheckpoints { job, .. }
                    if self.warm_handoffs.remove(job) =>
                {
                    // Fast path: the promoted standby shadow-consumed the
                    // input, so the redistribution is already satisfied —
                    // no state move, no pause, grant consumed.
                    report.warm_handoffs.push(*job);
                }
                SyncAction::RedistributeCheckpoints {
                    job,
                    old_task_count,
                    new_task_count,
                } => match env.redistribute_checkpoints(*job, *old_task_count, *new_task_count) {
                    Ok(Redistribute::Done) => {}
                    Ok(Redistribute::InProgress) => {
                        // Same bookkeeping as the stop barrier: progress,
                        // not failure — but bounded by the in-flight
                        // budget so a wedged move still alerts.
                        let waited = self.inflight_rounds.entry(*job).or_insert(0);
                        *waited += 1;
                        if *waited > self.config.max_inflight_rounds {
                            self.inflight_rounds.remove(job);
                            self.record_failure(
                                *job,
                                "state redistribution did not finish within the in-flight budget"
                                    .to_string(),
                                report,
                            );
                        } else {
                            report.in_progress.push(*job);
                        }
                        return false;
                    }
                    Err(e) => {
                        self.record_failure(*job, format!("redistribution failed: {e}"), report);
                        return false;
                    }
                },
                SyncAction::CommitRunning { job } => {
                    let value = merged_value.expect("commit always follows a merge").clone();
                    if let Err(e) = service.store_mut().commit_running(*job, value) {
                        self.record_failure(*job, format!("commit failed: {e}"), report);
                        return false;
                    }
                }
                SyncAction::ClearRunning { job } => {
                    if let Err(e) = service.store_mut().clear_running(*job) {
                        self.record_failure(*job, format!("clear failed: {e}"), report);
                        return false;
                    }
                    report.deleted.push(*job);
                }
            }
        }
        self.failure_counts.remove(&job);
        true
    }

    fn record_failure(&mut self, job: JobId, reason: String, report: &mut SyncReport) {
        let count = self.failure_counts.entry(job).or_insert(0);
        *count += 1;
        if *count >= self.config.max_failures {
            self.quarantined.insert(job);
            report.quarantined.push(job);
            report.alerts.push(format!(
                "{job} quarantined after {count} failed syncs: {reason}"
            ));
        } else {
            // Exponential backoff before the next attempt: skip 1, 2, then
            // 4 rounds (capped), plus 0-1 rounds of seeded jitter so
            // simultaneous failures don't retry in lockstep.
            let skip = 1u64 << (*count - 1).min(2);
            let jitter = self.rng.next_u64() % 2;
            self.resume_round
                .insert(job, self.round + skip + jitter + 1);
        }
        report.failed.push((job, reason));
    }
}

impl Default for StateSyncer {
    fn default() -> Self {
        Self::new(SyncerConfig::default())
    }
}

turbine_types::snap_struct!(SyncerConfig { max_failures, max_inflight_rounds }
    check |c| c.validate().is_ok() => "SyncerConfig invalid");

turbine_types::snap_struct!(StateSyncer {
    config,
    failure_counts,
    inflight_rounds,
    quarantined,
    round,
    resume_round,
    rng,
    warm_handoffs,
    attention
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use turbine_config::ConfigLevel;
    use turbine_jobstore::{JobStore, MemWal};

    const JOB: JobId = JobId(1);

    /// Scriptable environment: tasks stop after `stop_delay_rounds` calls
    /// to `all_stopped`; redistribution fails `redistribute_failures`
    /// times before succeeding.
    #[derive(Default)]
    struct MockEnv {
        stop_requests: Vec<JobId>,
        stop_delay_rounds: u32,
        stopped_polls: u32,
        redistribute_failures: u32,
        redistribute_slow_rounds: u32,
        redistributions: Vec<(JobId, u32, u32)>,
        stopped_jobs: HashSet<JobId>,
    }

    impl SyncEnvironment for MockEnv {
        fn request_stop(&mut self, job: JobId) {
            self.stop_requests.push(job);
        }
        fn all_stopped(&mut self, job: JobId) -> bool {
            if self.stopped_jobs.contains(&job) {
                return true;
            }
            self.stopped_polls += 1;
            if self.stopped_polls > self.stop_delay_rounds {
                self.stopped_jobs.insert(job);
                true
            } else {
                false
            }
        }
        fn redistribute_checkpoints(
            &mut self,
            job: JobId,
            old: u32,
            new: u32,
        ) -> Result<Redistribute, String> {
            if self.redistribute_failures > 0 {
                self.redistribute_failures -= 1;
                return Err("injected storage error".into());
            }
            if self.redistribute_slow_rounds > 0 {
                self.redistribute_slow_rounds -= 1;
                return Ok(Redistribute::InProgress);
            }
            self.redistributions.push((job, old, new));
            Ok(Redistribute::Done)
        }
    }

    fn service_with_job() -> JobService<MemWal> {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        svc.provision(JOB, &JobConfig::stateless("tailer", 4, 64))
            .expect("provision");
        svc
    }

    #[test]
    fn first_round_starts_the_job() {
        let mut svc = service_with_job();
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::default();
        let report = syncer.run_round(&mut svc, &mut env);
        assert_eq!(report.started, vec![JOB]);
        assert!(svc.store().running(JOB).is_some());
        // Second round: nothing to do.
        let report = syncer.run_round(&mut svc, &mut env);
        assert_eq!(report.total_changed(), 0);
    }

    #[test]
    fn package_release_syncs_simply_without_stop() {
        let mut svc = service_with_job();
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(
            JOB,
            ConfigLevel::Provisioner,
            "package.version",
            2i64.into(),
        )
        .expect("release");
        let report = syncer.run_round(&mut svc, &mut env);
        assert_eq!(report.simple, vec![JOB]);
        assert!(
            env.stop_requests.is_empty(),
            "simple sync must not stop tasks"
        );
        assert_eq!(svc.running_typed(JOB).expect("running").package.version, 2);
    }

    #[test]
    fn parallelism_change_runs_the_complex_protocol() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            stop_delay_rounds: 2,
            ..Default::default()
        };
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");

        // Rounds 1-2: stop requested, tasks still draining.
        let r1 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r1.in_progress, vec![JOB]);
        assert_eq!(env.stop_requests, vec![JOB]);
        assert_eq!(
            svc.running_typed(JOB).expect("running").task_count,
            4,
            "not committed yet"
        );
        let r2 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r2.in_progress, vec![JOB]);

        // Round 3: tasks stopped -> redistribute -> commit.
        let r3 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r3.complex_completed, vec![JOB]);
        assert_eq!(env.redistributions, vec![(JOB, 4, 8)]);
        assert_eq!(svc.running_typed(JOB).expect("running").task_count, 8);
    }

    #[test]
    fn failed_redistribution_backs_off_then_retries() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            redistribute_failures: 1,
            ..Default::default()
        };
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        let r1 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r1.failed.len(), 1);
        assert_eq!(
            svc.running_typed(JOB).expect("running").task_count,
            4,
            "aborted plan must not commit"
        );
        // After one failure the job backs off 1 round plus up to 1 round
        // of jitter, then retries; the injected failure is gone so the
        // retry completes.
        let mut backed_off = 0;
        loop {
            let r = syncer.run_round(&mut svc, &mut env);
            if r.complex_completed == vec![JOB] {
                break;
            }
            assert_eq!(r.backed_off, vec![JOB]);
            backed_off += 1;
            assert!(backed_off <= 2, "first backoff must be at most 2 rounds");
        }
        assert!(backed_off >= 1, "a failed job must not retry immediately");
        assert_eq!(svc.running_typed(JOB).expect("running").task_count, 8);
    }

    #[test]
    fn repeated_failures_quarantine_with_alert() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            redistribute_failures: 99,
            ..Default::default()
        };
        let mut syncer = StateSyncer::new(SyncerConfig {
            max_failures: 3,
            ..Default::default()
        });
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        // Three failures quarantine the job; backoff stretches them over
        // several rounds (1 + ≤2 + ≤3 skipped rounds between attempts).
        let mut failures = 0;
        for _ in 0..12 {
            let r = syncer.run_round(&mut svc, &mut env);
            failures += r.failed.len();
            if !r.quarantined.is_empty() {
                assert_eq!(r.quarantined, vec![JOB]);
                assert_eq!(r.alerts.len(), 1);
                break;
            }
        }
        assert_eq!(
            failures, 3,
            "exactly max_failures attempts before quarantine"
        );
        assert!(syncer.is_quarantined(JOB));
        // Quarantined jobs are skipped entirely.
        let r = syncer.run_round(&mut svc, &mut env);
        assert!(r.failed.is_empty());
    }

    #[test]
    fn invalid_expected_config_fails_and_eventually_quarantines() {
        let mut svc = service_with_job();
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::new(SyncerConfig {
            max_failures: 2,
            ..Default::default()
        });
        syncer.run_round(&mut svc, &mut env);
        // A bad oncall update writes a string where an int belongs.
        svc.set_level_field(JOB, ConfigLevel::Oncall, "task_count", "lots".into())
            .expect("bad write");
        let r1 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r1.failed.len(), 1);
        let mut quarantined = false;
        for _ in 0..4 {
            let r = syncer.run_round(&mut svc, &mut env);
            if r.quarantined == vec![JOB] {
                quarantined = true;
                break;
            }
            assert_eq!(
                r.backed_off,
                vec![JOB],
                "failed job must back off before retrying"
            );
        }
        assert!(quarantined, "second failure must quarantine");
    }

    #[test]
    fn slow_state_move_counts_as_progress_not_failure() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            redistribute_slow_rounds: 3,
            ..Default::default()
        };
        let mut syncer = StateSyncer::new(SyncerConfig {
            max_failures: 2, // would quarantine after 2 failures
            ..Default::default()
        });
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        // Three slow rounds: in-progress, never failed, never quarantined.
        for _ in 0..3 {
            let r = syncer.run_round(&mut svc, &mut env);
            assert_eq!(r.in_progress, vec![JOB]);
            assert!(r.failed.is_empty());
        }
        let r = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r.complex_completed, vec![JOB]);
        assert!(!syncer.is_quarantined(JOB));
    }

    #[test]
    fn warm_handoff_skips_redistribution_once() {
        let mut svc = service_with_job();
        // A redistribution that would otherwise crawl for 3 rounds.
        let mut env = MockEnv {
            redistribute_slow_rounds: 3,
            ..Default::default()
        };
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        syncer.grant_warm_handoff(JOB);
        assert!(syncer.warm_handoffs.contains(&JOB));
        // One round: the grant satisfies the redistribution instantly.
        let r = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r.complex_completed, vec![JOB]);
        assert_eq!(r.warm_handoffs, vec![JOB]);
        assert!(
            env.redistributions.is_empty(),
            "warm handoff must not move state"
        );
        assert!(!syncer.warm_handoffs.contains(&JOB), "grant is one-shot");
        // The next redistribution takes the full path again.
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 4u32.into())
            .expect("scale");
        let mut slow = 0;
        for _ in 0..8 {
            let r = syncer.run_round(&mut svc, &mut env);
            if r.complex_completed == vec![JOB] {
                break;
            }
            slow += 1;
        }
        assert!(slow >= 1, "second sync must pay the slow rounds");
    }

    #[test]
    fn deleted_job_is_wound_down() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            stop_delay_rounds: 1,
            ..Default::default()
        };
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut env);
        svc.store_mut().delete_job(JOB).expect("delete");
        let r1 = syncer.run_round(&mut svc, &mut env);
        assert!(r1.deleted.is_empty(), "still draining");
        assert_eq!(env.stop_requests, vec![JOB]);
        let r2 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r2.deleted, vec![JOB]);
        assert!(svc.store().running(JOB).is_none());
        // Fully gone: later rounds see nothing.
        let r3 = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r3.total_changed(), 0);
    }

    #[test]
    fn stuck_stop_exhausts_inflight_budget_and_fails() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            stop_delay_rounds: u32::MAX,
            ..Default::default()
        };
        let mut syncer = StateSyncer::new(SyncerConfig {
            max_failures: 2,
            max_inflight_rounds: 3,
        });
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        let mut quarantined = false;
        for _ in 0..40 {
            let r = syncer.run_round(&mut svc, &mut env);
            if !r.quarantined.is_empty() {
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "stuck job must eventually quarantine");
    }

    #[test]
    fn backoff_spacing_grows_exponentially_with_jitter() {
        let mut svc = service_with_job();
        let mut env = MockEnv {
            redistribute_failures: 99,
            ..Default::default()
        };
        let mut syncer = StateSyncer::new(SyncerConfig {
            max_failures: 4,
            ..Default::default()
        });
        syncer.run_round(&mut svc, &mut env);
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
            .expect("scale");
        // Record the round index of every failed attempt until quarantine.
        let mut attempt_rounds = Vec::new();
        for round in 1..=30u64 {
            let r = syncer.run_round(&mut svc, &mut env);
            if !r.failed.is_empty() {
                attempt_rounds.push(round);
            }
            if !r.quarantined.is_empty() {
                break;
            }
        }
        assert_eq!(attempt_rounds.len(), 4);
        // Gap after failure N is skip(N) + jitter + 1 rounds, where
        // skip = 2^(N-1) capped at 4 and jitter ∈ {0, 1}.
        let gaps: Vec<u64> = attempt_rounds.windows(2).map(|w| w[1] - w[0]).collect();
        assert!((2..=3).contains(&gaps[0]), "gaps {gaps:?}");
        assert!((3..=4).contains(&gaps[1]), "gaps {gaps:?}");
        assert!((5..=6).contains(&gaps[2]), "gaps {gaps:?}");
        // Non-decreasing: later retries always wait at least as long.
        assert!(gaps[0] <= gaps[1] && gaps[1] <= gaps[2], "gaps {gaps:?}");
    }

    #[test]
    fn same_backoff_seed_reproduces_the_retry_schedule() {
        let run = || {
            let mut svc = service_with_job();
            let mut env = MockEnv {
                redistribute_failures: 99,
                ..Default::default()
            };
            let mut syncer = StateSyncer::new(SyncerConfig {
                max_failures: 4,
                ..Default::default()
            });
            syncer.run_round(&mut svc, &mut env);
            svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 8u32.into())
                .expect("scale");
            let mut schedule = Vec::new();
            for round in 1..=30u64 {
                let r = syncer.run_round(&mut svc, &mut env);
                if !r.failed.is_empty() {
                    schedule.push(round);
                }
            }
            schedule
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_validation_rejects_zero_max_failures() {
        let config = SyncerConfig {
            max_failures: 0,
            ..Default::default()
        };
        assert!(config.validate().is_err());
        assert!(SyncerConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "max_failures must be >= 1")]
    fn syncer_refuses_zero_max_failures() {
        let _ = StateSyncer::new(SyncerConfig {
            max_failures: 0,
            ..Default::default()
        });
    }

    #[test]
    fn batch_of_simple_syncs_completes_in_one_round() {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        let n = 500;
        for i in 0..n {
            svc.provision(JobId(i), &JobConfig::stateless(&format!("job{i}"), 2, 8))
                .expect("provision");
        }
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::default();
        let r = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r.started.len(), n as usize);
        // Global package release: all simple, one round.
        for i in 0..n {
            svc.set_level_field(
                JobId(i),
                ConfigLevel::Provisioner,
                "package.version",
                2i64.into(),
            )
            .expect("release");
        }
        let r = syncer.run_round(&mut svc, &mut env);
        assert_eq!(r.simple.len(), n as usize);
    }

    /// Everything observable about a round except the work counter, which
    /// legitimately differs between full and sparse rounds.
    fn assert_rounds_equal(round: usize, full: &SyncReport, sparse: &SyncReport) {
        assert_eq!(full.started, sparse.started, "round {round}: started");
        assert_eq!(full.simple, sparse.simple, "round {round}: simple");
        assert_eq!(
            full.complex_completed, sparse.complex_completed,
            "round {round}: complex_completed"
        );
        assert_eq!(
            full.in_progress, sparse.in_progress,
            "round {round}: in_progress"
        );
        assert_eq!(full.deleted, sparse.deleted, "round {round}: deleted");
        assert_eq!(full.failed, sparse.failed, "round {round}: failed");
        assert_eq!(
            full.backed_off, sparse.backed_off,
            "round {round}: backed_off"
        );
        assert_eq!(
            full.quarantined, sparse.quarantined,
            "round {round}: quarantined"
        );
        assert_eq!(full.alerts, sparse.alerts, "round {round}: alerts");
        assert_eq!(
            full.warm_handoffs, sparse.warm_handoffs,
            "round {round}: warm_handoffs"
        );
    }

    fn step(
        round: &mut usize,
        full: &mut StateSyncer,
        sparse: &mut StateSyncer,
        svc_f: &mut JobService<MemWal>,
        svc_s: &mut JobService<MemWal>,
        env_f: &mut MockEnv,
        env_s: &mut MockEnv,
    ) -> (SyncReport, SyncReport) {
        *round += 1;
        let rf = full.run_round(svc_f, env_f);
        let rs = sparse.run_round_sparse(svc_s, env_s);
        assert_rounds_equal(*round, &rf, &rs);
        (rf, rs)
    }

    /// Two identical worlds, one driven by full rounds and one by sparse
    /// rounds, stay observably identical through starts, releases, complex
    /// syncs, injected failures (exercising the backoff RNG), quarantine,
    /// un-quarantine, warm handoffs, and deletion — while the sparse side
    /// examines only the jobs that could have changed.
    #[test]
    fn sparse_rounds_are_observably_identical_to_full_rounds() {
        let mut svc_f = JobService::new(JobStore::new(MemWal::new()));
        let mut svc_s = JobService::new(JobStore::new(MemWal::new()));
        let mut env_f = MockEnv {
            redistribute_failures: 2,
            ..Default::default()
        };
        let mut env_s = MockEnv {
            redistribute_failures: 2,
            ..Default::default()
        };
        let mut full = StateSyncer::default();
        let mut sparse = StateSyncer::default();
        let mut round = 0usize;

        for i in 1..=6u64 {
            let cfg = JobConfig::stateless(&format!("job{i}"), 4, 64);
            svc_f.provision(JobId(i), &cfg).expect("provision");
            svc_s.provision(JobId(i), &cfg).expect("provision");
        }
        let (rf, _) = step(
            &mut round,
            &mut full,
            &mut sparse,
            &mut svc_f,
            &mut svc_s,
            &mut env_f,
            &mut env_s,
        );
        assert_eq!(rf.started.len(), 6);
        // The commits from round 1 feed the jobs the sparse side
        // re-verifies on the hot path next round; after that it is quiet.
        let (_, rs) = step(
            &mut round,
            &mut full,
            &mut sparse,
            &mut svc_f,
            &mut svc_s,
            &mut env_f,
            &mut env_s,
        );
        assert_eq!(rs.jobs_examined, 6);
        let (rf, rs) = step(
            &mut round,
            &mut full,
            &mut sparse,
            &mut svc_f,
            &mut svc_s,
            &mut env_f,
            &mut env_s,
        );
        assert_eq!(
            rs.jobs_examined, 0,
            "quiescent sparse round examines nothing"
        );
        assert_eq!(rf.jobs_examined, 6, "full round always scans the universe");

        // Complex sync with two injected redistribution failures: the
        // backoff jitter stream must line up between the two modes.
        for svc in [&mut svc_f, &mut svc_s] {
            svc.set_level_field(JobId(3), ConfigLevel::Scaler, "task_count", 8u32.into())
                .expect("scale");
        }
        let mut completed = false;
        for _ in 0..10 {
            let (rf, _) = step(
                &mut round,
                &mut full,
                &mut sparse,
                &mut svc_f,
                &mut svc_s,
                &mut env_f,
                &mut env_s,
            );
            completed |= rf.complex_completed.contains(&JobId(3));
        }
        assert!(completed, "job 3 recovers after the injected failures");
        assert_eq!(env_f.redistributions, env_s.redistributions);

        // A poisoned config never self-heals: the job fails its way into
        // quarantine in both modes.
        for svc in [&mut svc_f, &mut svc_s] {
            svc.set_level_field(JobId(4), ConfigLevel::Oncall, "task_count", "lots".into())
                .expect("poison");
        }
        for _ in 0..12 {
            step(
                &mut round,
                &mut full,
                &mut sparse,
                &mut svc_f,
                &mut svc_s,
                &mut env_f,
                &mut env_s,
            );
        }
        assert!(full.is_quarantined(JobId(4)));
        assert!(sparse.is_quarantined(JobId(4)));

        // A warm-handoff grant satisfies job 5's redistribution in both
        // modes, and a deletion winds job 2 down.
        full.grant_warm_handoff(JobId(5));
        sparse.grant_warm_handoff(JobId(5));
        for svc in [&mut svc_f, &mut svc_s] {
            svc.set_level_field(JobId(5), ConfigLevel::Scaler, "task_count", 2u32.into())
                .expect("scale");
            svc.store_mut().delete_job(JobId(2)).expect("delete");
        }
        let mut deleted = false;
        let mut warm = false;
        for _ in 0..6 {
            let (rf, _) = step(
                &mut round,
                &mut full,
                &mut sparse,
                &mut svc_f,
                &mut svc_s,
                &mut env_f,
                &mut env_s,
            );
            deleted |= rf.deleted.contains(&JobId(2));
            warm |= rf.warm_handoffs.contains(&JobId(5));
        }
        assert!(deleted, "job 2 wound down");
        assert!(warm, "job 5 consumed its warm-handoff grant");

        for i in 1..=6u64 {
            assert_eq!(
                full.failure_count(JobId(i)),
                sparse.failure_count(JobId(i)),
                "job {i} failure count"
            );
            assert_eq!(
                full.is_quarantined(JobId(i)),
                sparse.is_quarantined(JobId(i)),
                "job {i} quarantine"
            );
        }
        let (_, rs) = step(
            &mut round,
            &mut full,
            &mut sparse,
            &mut svc_f,
            &mut svc_s,
            &mut env_f,
            &mut env_s,
        );
        let (_, rs2) = step(
            &mut round,
            &mut full,
            &mut sparse,
            &mut svc_f,
            &mut svc_s,
            &mut env_f,
            &mut env_s,
        );
        assert!(rs.jobs_examined <= 6);
        assert_eq!(rs2.jobs_examined, 0, "the fleet settles back to quiet");
    }

    #[test]
    fn quiescent_sparse_rounds_examine_no_jobs_at_scale() {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        let n = 500u64;
        for i in 0..n {
            svc.provision(JobId(i), &JobConfig::stateless(&format!("job{i}"), 2, 8))
                .expect("provision");
        }
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::default();
        let r = syncer.run_round_sparse(&mut svc, &mut env);
        assert_eq!(r.started.len(), n as usize);
        // Round 2 re-verifies the round-1 commits on the hot path; round 3
        // touches nothing at all.
        let r = syncer.run_round_sparse(&mut svc, &mut env);
        assert_eq!(r.jobs_examined, n as usize);
        assert_eq!(r.total_changed(), 0);
        let r = syncer.run_round_sparse(&mut svc, &mut env);
        assert_eq!(r.jobs_examined, 0);
        assert_eq!(r.total_changed(), 0);
    }

    #[test]
    fn a_fresh_store_feeds_the_syncer_only_its_own_jobs() {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        for i in 0..4u64 {
            svc.provision(JobId(i), &JobConfig::stateless(&format!("job{i}"), 2, 8))
                .expect("provision");
        }
        let mut env = MockEnv::default();
        let mut syncer = StateSyncer::default();
        assert_eq!(syncer.run_round_sparse(&mut svc, &mut env).started.len(), 4);
        // The syncer is pointed at a freshly built Job Store: its syncer
        // reader holds that store's jobs and nothing of the old one's.
        let mut fresh = JobService::new(JobStore::new(MemWal::new()));
        fresh
            .provision(JobId(9), &JobConfig::stateless("late", 2, 8))
            .expect("provision");
        let r = syncer.run_round_sparse(&mut fresh, &mut env);
        assert_eq!(r.started, vec![JobId(9)]);
        assert_eq!(r.jobs_examined, 1);
    }
}
