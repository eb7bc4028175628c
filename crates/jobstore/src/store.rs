//! The Job Store tables (paper Table I) with WAL-backed durability.

use crate::wal::{WalError, WalStorage};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use turbine_config::{layer_all, parse, to_text, ConfigLevel, ConfigValue};
use turbine_types::JobId;

/// Error raised by Job Store operations.
#[derive(Debug)]
pub enum JobStoreError {
    /// No job with this id in the expected table.
    UnknownJob(JobId),
    /// A job with this id already exists.
    JobExists(JobId),
    /// Optimistic concurrency control rejected a stale write: the level was
    /// modified since the writer read it.
    VersionConflict {
        /// Job being written.
        job: JobId,
        /// Level being written.
        level: ConfigLevel,
        /// Version the writer based its update on.
        expected: u64,
        /// Version actually in the store.
        actual: u64,
    },
    /// The write-ahead log failed.
    Wal(WalError),
}

impl fmt::Display for JobStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStoreError::UnknownJob(j) => write!(f, "unknown {j}"),
            JobStoreError::JobExists(j) => write!(f, "{j} already exists"),
            JobStoreError::VersionConflict {
                job,
                level,
                expected,
                actual,
            } => write!(
                f,
                "version conflict on {job} level {level}: write based on v{expected}, store at v{actual}"
            ),
            JobStoreError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobStoreError {}

impl From<WalError> for JobStoreError {
    fn from(e: WalError) -> Self {
        JobStoreError::Wal(e)
    }
}

/// One job's row in the Expected Job Table: four configuration levels, each
/// independently versioned. The merged view is cached eagerly — reads (the
/// State Syncer compares it every 30 s for every job) vastly outnumber
/// writes.
#[derive(Debug, Clone, Default)]
struct ExpectedRow {
    levels: [Option<ConfigValue>; 4],
    versions: [u64; 4],
    /// `layer_all` of the present levels, maintained on every write.
    merged: ConfigValue,
    /// Monotonic token bumped on every write to any level; callers use it
    /// to invalidate their own derived caches (e.g. typed decodes).
    token: u64,
}

impl ExpectedRow {
    fn recompute_merged(&mut self) {
        let layers: Vec<&ConfigValue> = self.levels.iter().flatten().collect();
        self.merged = layer_all(&layers);
        self.token += 1;
    }
}

/// Report of a torn-write salvage performed during [`JobStore::recover`]:
/// the valid record prefix was kept, the first corrupt record and
/// everything after it were discarded, and the WAL was truncated to match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSalvage {
    /// Records kept (the valid prefix).
    pub kept: usize,
    /// Records discarded (the corrupt record and its tail).
    pub discarded: usize,
    /// 0-based index of the first corrupt record.
    pub first_bad: usize,
    /// What was wrong with it.
    pub message: String,
}

/// The Job Store: Expected Job Table + Running Job Table over a WAL.
#[derive(Debug)]
pub struct JobStore<W: WalStorage> {
    expected: BTreeMap<JobId, ExpectedRow>,
    running: BTreeMap<JobId, ConfigValue>,
    /// Change counters for running rows (bumped on commit/clear), letting
    /// callers cache derived views of the running config.
    running_tokens: BTreeMap<JobId, u64>,
    /// What each reader visits instead of rescanning both tables.
    changes: StoreFeed,
    /// Row changes since the store was created or recovered.
    row_changes: u64,
    wal: W,
    /// Set when the last recovery had to discard a corrupt tail.
    salvage: Option<WalSalvage>,
}

impl<W: WalStorage> JobStore<W> {
    /// Create an empty store over `wal` (which must be empty; use
    /// [`JobStore::recover`] for a non-empty log).
    pub fn new(wal: W) -> Self {
        debug_assert!(
            wal.is_empty().unwrap_or(true),
            "use recover() for a non-empty WAL"
        );
        JobStore {
            expected: BTreeMap::new(),
            running: BTreeMap::new(),
            running_tokens: BTreeMap::new(),
            changes: StoreFeed::default(),
            row_changes: 0,
            wal,
            salvage: None,
        }
    }

    /// Rebuild the tables by replaying `wal`.
    ///
    /// A torn write (truncated final record) or corrupt record does not
    /// abort recovery: the valid record prefix is replayed, the corrupt
    /// record and everything after it are discarded, the WAL file is
    /// truncated back to the valid prefix, and the damage is reported via
    /// [`JobStore::salvage_report`]. Only I/O failures are errors.
    pub fn recover(wal: W) -> Result<Self, WalError> {
        let records = wal.read_all()?;
        let mut store = JobStore {
            expected: BTreeMap::new(),
            running: BTreeMap::new(),
            running_tokens: BTreeMap::new(),
            changes: StoreFeed::default(),
            row_changes: 0,
            wal,
            salvage: None,
        };
        for (i, record) in records.iter().enumerate() {
            if let Err(message) = store.replay(record) {
                // Records after a corrupt one cannot be trusted to apply in
                // a consistent order; keep the prefix, drop the tail.
                store.wal.replace_all(&records[..i])?;
                store.salvage = Some(WalSalvage {
                    kept: i,
                    discarded: records.len() - i,
                    first_bad: i,
                    message,
                });
                break;
            }
        }
        Ok(store)
    }

    /// The salvage performed by the last [`JobStore::recover`], if any
    /// corrupt tail had to be discarded.
    pub fn salvage_report(&self) -> Option<&WalSalvage> {
        self.salvage.as_ref()
    }

    fn replay(&mut self, record: &str) -> Result<(), String> {
        let fields: Vec<&str> = record.split('\t').collect();
        let op = *fields.first().ok_or("empty record")?;
        let parse_job = |s: &str| -> Result<JobId, String> {
            s.parse::<u64>()
                .map(JobId)
                .map_err(|_| format!("bad job id '{s}'"))
        };
        match op {
            "create" => {
                let [_, job, base] = fields[..] else {
                    return Err("create needs 2 fields".into());
                };
                let job = parse_job(job)?;
                let base = parse(base).map_err(|e| e.to_string())?;
                let mut row = ExpectedRow::default();
                row.levels[0] = Some(base);
                row.versions[0] = 1;
                row.recompute_merged();
                self.expected.insert(job, row);
                self.changed(job);
            }
            "level" => {
                let [_, job, level, version, payload] = fields[..] else {
                    return Err("level needs 4 fields".into());
                };
                let job = parse_job(job)?;
                let level = level_from_str(level)?;
                let version: u64 = version.parse().map_err(|_| "bad version")?;
                let config = if payload == "-" {
                    None
                } else {
                    Some(parse(payload).map_err(|e| e.to_string())?)
                };
                let row = self
                    .expected
                    .get_mut(&job)
                    .ok_or_else(|| format!("level write for unknown {job}"))?;
                row.levels[level.index()] = config;
                row.versions[level.index()] = version;
                row.recompute_merged();
                self.changed(job);
            }
            "running" => {
                let [_, job, payload] = fields[..] else {
                    return Err("running needs 2 fields".into());
                };
                let job = parse_job(job)?;
                self.running
                    .insert(job, parse(payload).map_err(|e| e.to_string())?);
                *self.running_tokens.entry(job).or_insert(0) += 1;
                self.changed(job);
            }
            "clear_running" => {
                let [_, job] = fields[..] else {
                    return Err("clear_running needs 1 field".into());
                };
                let job = parse_job(job)?;
                self.running.remove(&job);
                *self.running_tokens.entry(job).or_insert(0) += 1;
                self.changed(job);
            }
            "delete" => {
                let [_, job] = fields[..] else {
                    return Err("delete needs 1 field".into());
                };
                let job = parse_job(job)?;
                self.expected.remove(&job);
                self.changed(job);
            }
            other => return Err(format!("unknown op '{other}'")),
        }
        Ok(())
    }

    /// Register a new job with its Base configuration.
    pub fn create_job(&mut self, job: JobId, base: ConfigValue) -> Result<(), JobStoreError> {
        if self.expected.contains_key(&job) {
            return Err(JobStoreError::JobExists(job));
        }
        self.wal
            .append(&format!("create\t{}\t{}", job.raw(), to_text(&base)))?;
        let mut row = ExpectedRow::default();
        row.levels[0] = Some(base);
        row.versions[0] = 1;
        row.recompute_merged();
        self.expected.insert(job, row);
        self.changed(job);
        Ok(())
    }

    /// Read one level of a job's expected configuration along with its
    /// version — the read half of read-modify-write.
    pub fn read_level(
        &self,
        job: JobId,
        level: ConfigLevel,
    ) -> Result<(Option<&ConfigValue>, u64), JobStoreError> {
        let row = self
            .expected
            .get(&job)
            .ok_or(JobStoreError::UnknownJob(job))?;
        Ok((
            row.levels[level.index()].as_ref(),
            row.versions[level.index()],
        ))
    }

    /// Write (or clear, with `None`) one level, conditioned on the version
    /// the writer read. Returns the new version on success.
    ///
    /// This is the isolation mechanism of §III-A: two oncalls writing the
    /// Oncall level concurrently cannot silently overwrite each other — the
    /// second write fails with [`JobStoreError::VersionConflict`] and must
    /// re-read and re-apply.
    pub fn write_level(
        &mut self,
        job: JobId,
        level: ConfigLevel,
        config: Option<ConfigValue>,
        based_on_version: u64,
    ) -> Result<u64, JobStoreError> {
        let row = self
            .expected
            .get(&job)
            .ok_or(JobStoreError::UnknownJob(job))?;
        let actual = row.versions[level.index()];
        if actual != based_on_version {
            return Err(JobStoreError::VersionConflict {
                job,
                level,
                expected: based_on_version,
                actual,
            });
        }
        let new_version = actual + 1;
        let payload = config.as_ref().map_or_else(|| "-".to_string(), to_text);
        self.wal.append(&format!(
            "level\t{}\t{}\t{}\t{}",
            job.raw(),
            level,
            new_version,
            payload
        ))?;
        let row = self.expected.get_mut(&job).expect("checked above");
        row.levels[level.index()] = config;
        row.versions[level.index()] = new_version;
        row.recompute_merged();
        self.changed(job);
        Ok(new_version)
    }

    /// The merged expected configuration: all present levels layered in
    /// precedence order (Base < Provisioner < Scaler < Oncall).
    pub fn expected_merged(&self, job: JobId) -> Result<ConfigValue, JobStoreError> {
        self.expected_merged_ref(job).cloned()
    }

    /// Borrowed view of the cached merged configuration — the hot path for
    /// the per-round expected-vs-running comparison.
    pub fn expected_merged_ref(&self, job: JobId) -> Result<&ConfigValue, JobStoreError> {
        let row = self
            .expected
            .get(&job)
            .ok_or(JobStoreError::UnknownJob(job))?;
        Ok(&row.merged)
    }

    /// Monotonic change token for a job's expected configuration; bumps on
    /// every level write. Lets callers cache derived values (e.g. typed
    /// decodes) without re-merging each read.
    pub fn expected_token(&self, job: JobId) -> Result<u64, JobStoreError> {
        let row = self
            .expected
            .get(&job)
            .ok_or(JobStoreError::UnknownJob(job))?;
        Ok(row.token)
    }

    /// Monotonic change token for a job's running configuration; bumps on
    /// every commit/clear. Zero if never written.
    pub fn running_token(&self, job: JobId) -> u64 {
        self.running_tokens.get(&job).copied().unwrap_or(0)
    }

    /// All jobs present in the expected table.
    pub fn expected_jobs(&self) -> Vec<JobId> {
        self.expected.keys().copied().collect()
    }

    /// True if the job exists in the expected table.
    pub fn has_job(&self, job: JobId) -> bool {
        self.expected.contains_key(&job)
    }

    /// The running configuration of a job, if any tasks were ever started
    /// for it.
    pub fn running(&self, job: JobId) -> Option<&ConfigValue> {
        self.running.get(&job)
    }

    /// All jobs present in the running table, ascending.
    pub fn running_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.running.keys().copied()
    }

    /// Commit a running configuration. Only the State Syncer calls this,
    /// and only after the corresponding execution plan fully succeeded —
    /// this ordering is what makes job updates atomic.
    pub fn commit_running(&mut self, job: JobId, config: ConfigValue) -> Result<(), JobStoreError> {
        self.wal
            .append(&format!("running\t{}\t{}", job.raw(), to_text(&config)))?;
        self.running.insert(job, config);
        *self.running_tokens.entry(job).or_insert(0) += 1;
        self.changed(job);
        Ok(())
    }

    /// Remove a job's running entry (after its tasks were stopped).
    pub fn clear_running(&mut self, job: JobId) -> Result<(), JobStoreError> {
        self.wal.append(&format!("clear_running\t{}", job.raw()))?;
        self.running.remove(&job);
        *self.running_tokens.entry(job).or_insert(0) += 1;
        self.changed(job);
        Ok(())
    }

    /// Delete a job from the expected table. The State Syncer notices the
    /// expected-vs-running difference and winds the tasks down.
    pub fn delete_job(&mut self, job: JobId) -> Result<(), JobStoreError> {
        if !self.expected.contains_key(&job) {
            return Err(JobStoreError::UnknownJob(job));
        }
        self.wal.append(&format!("delete\t{}", job.raw()))?;
        self.expected.remove(&job);
        self.changed(job);
        Ok(())
    }

    /// Rewrite the WAL as a minimal snapshot of current state. Bounds log
    /// growth for long-running stores.
    pub fn compact(&mut self) -> Result<(), JobStoreError> {
        let mut records = Vec::new();
        for (&job, row) in &self.expected {
            let base = row.levels[0].clone().unwrap_or_else(ConfigValue::empty_map);
            records.push(format!("create\t{}\t{}", job.raw(), to_text(&base)));
            for level in ConfigLevel::PRECEDENCE {
                let idx = level.index();
                // `create` replay sets base v1; rewrite any level whose
                // state differs from that baseline.
                let needs_record = if idx == 0 {
                    row.versions[0] != 1
                } else {
                    row.levels[idx].is_some() || row.versions[idx] != 0
                };
                if needs_record {
                    let payload = row.levels[idx]
                        .as_ref()
                        .map_or_else(|| "-".to_string(), to_text);
                    records.push(format!(
                        "level\t{}\t{}\t{}\t{}",
                        job.raw(),
                        level,
                        row.versions[idx],
                        payload
                    ));
                }
            }
        }
        for (&job, config) in &self.running {
            records.push(format!("running\t{}\t{}", job.raw(), to_text(config)));
        }
        self.wal.replace_all(&records)?;
        Ok(())
    }

    /// A table mutation touched `job`'s rows.
    fn changed(&mut self, job: JobId) {
        self.changes.mark(job);
        self.row_changes += 1;
    }

    /// Row changes (creates, level writes, commits, clears, deletes) since
    /// the store was created or recovered. A failed write counts nothing.
    pub fn changelog_len(&self) -> u64 {
        self.row_changes
    }

    /// Feed every job in either table to `reader` alone, as if each had
    /// just changed: for a reader that knows nothing yet or lost what it
    /// knew (a fresh invariant checker, a restarted State Syncer).
    pub fn refeed(&mut self, reader: StoreReader) {
        for &job in self.expected.keys().chain(self.running.keys()) {
            self.changes.mark_for(reader, job);
        }
    }

    /// Feed every job in either table to every reader, as if each had
    /// just changed: what the full-scan reference hands the readers.
    pub fn refeed_all(&mut self) {
        for &job in self.expected.keys().chain(self.running.keys()) {
            self.changes.mark(job);
        }
    }

    /// Take the jobs whose expected or running row changed since
    /// `reader`'s last drain, each once. Each reader drains at one place.
    pub fn drain_changes(&mut self, reader: StoreReader) -> BTreeSet<JobId> {
        self.changes.drain(reader)
    }

    /// Number of records currently in the WAL.
    pub fn wal_len(&self) -> Result<usize, JobStoreError> {
        Ok(self.wal.len()?)
    }

    /// Borrow the underlying WAL storage (e.g. to snapshot an in-memory
    /// log for recovery tests and benches).
    pub fn wal(&self) -> &W {
        &self.wal
    }
}

fn level_from_str(s: &str) -> Result<ConfigLevel, String> {
    match s {
        "base" => Ok(ConfigLevel::Base),
        "provisioner" => Ok(ConfigLevel::Provisioner),
        "scaler" => Ok(ConfigLevel::Scaler),
        "oncall" => Ok(ConfigLevel::Oncall),
        other => Err(format!("unknown config level '{other}'")),
    }
}

turbine_types::snap_struct!(ExpectedRow {
    levels,
    versions,
    merged,
    token
});

turbine_types::snap_struct!(WalSalvage {
    kept,
    discarded,
    first_bad,
    message
});

turbine_types::change_feed! {
    /// The jobs whose expected or running row changed, per reader.
    pub struct StoreFeed<JobId> for StoreReader {
        /// The State Syncer's rounds.
        Syncer => syncer,
        /// The Task Service's change-following fetch.
        TaskService => task_service,
        /// The invariant checker.
        Checker => checker,
        /// The resiliency-tier cache behind standby upkeep.
        Standbys => standbys,
    }
}

turbine_types::snap_struct!(JobStore<W: WalStorage> {
    expected, running, running_tokens, changes, row_changes, wal, salvage
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;
    use turbine_config::JobConfig;

    const JOB: JobId = JobId(1);

    fn store_with_job() -> JobStore<MemWal> {
        let mut store = JobStore::new(MemWal::new());
        store
            .create_job(JOB, JobConfig::stateless("tailer", 4, 64).to_value())
            .expect("create");
        store
    }

    #[test]
    fn create_sets_base_level_at_v1() {
        let store = store_with_job();
        let (cfg, version) = store.read_level(JOB, ConfigLevel::Base).expect("read");
        assert!(cfg.is_some());
        assert_eq!(version, 1);
        let (cfg, version) = store.read_level(JOB, ConfigLevel::Scaler).expect("read");
        assert!(cfg.is_none());
        assert_eq!(version, 0);
    }

    #[test]
    fn duplicate_create_is_rejected() {
        let mut store = store_with_job();
        let err = store
            .create_job(JOB, ConfigValue::empty_map())
            .expect_err("dup");
        assert!(matches!(err, JobStoreError::JobExists(j) if j == JOB));
    }

    #[test]
    fn version_conflict_on_stale_write() {
        let mut store = store_with_job();
        let (_, v) = store.read_level(JOB, ConfigLevel::Oncall).expect("read");
        // Oncall 1 wins the race.
        let mut cfg1 = ConfigValue::empty_map();
        cfg1.insert("task_count", 20u32.into());
        store
            .write_level(JOB, ConfigLevel::Oncall, Some(cfg1), v)
            .expect("first write");
        // Oncall 2 based its decision on the same version: rejected.
        let mut cfg2 = ConfigValue::empty_map();
        cfg2.insert("task_count", 30u32.into());
        let err = store
            .write_level(JOB, ConfigLevel::Oncall, Some(cfg2.clone()), v)
            .expect_err("stale");
        assert!(matches!(
            err,
            JobStoreError::VersionConflict { actual: 1, .. }
        ));
        // After re-reading, the write succeeds.
        let (_, v2) = store.read_level(JOB, ConfigLevel::Oncall).expect("read");
        store
            .write_level(JOB, ConfigLevel::Oncall, Some(cfg2), v2)
            .expect("retry");
    }

    #[test]
    fn merged_view_respects_precedence() {
        let mut store = store_with_job();
        let mut scaler = ConfigValue::empty_map();
        scaler.insert("task_count", 15u32.into());
        store
            .write_level(JOB, ConfigLevel::Scaler, Some(scaler), 0)
            .expect("scaler write");
        let mut oncall = ConfigValue::empty_map();
        oncall.insert("task_count", 30u32.into());
        store
            .write_level(JOB, ConfigLevel::Oncall, Some(oncall), 0)
            .expect("oncall write");
        let merged = store.expected_merged(JOB).expect("merge");
        assert_eq!(
            merged.get_path("task_count").and_then(|v| v.as_int()),
            Some(30)
        );
        // Clearing the oncall override exposes the scaler value again.
        store
            .write_level(JOB, ConfigLevel::Oncall, None, 1)
            .expect("clear oncall");
        let merged = store.expected_merged(JOB).expect("merge");
        assert_eq!(
            merged.get_path("task_count").and_then(|v| v.as_int()),
            Some(15)
        );
    }

    #[test]
    fn running_table_is_independent() {
        let mut store = store_with_job();
        assert!(store.running(JOB).is_none());
        let cfg = store.expected_merged(JOB).expect("merge");
        store.commit_running(JOB, cfg.clone()).expect("commit");
        assert_eq!(store.running(JOB), Some(&cfg));
        store.clear_running(JOB).expect("clear");
        assert!(store.running(JOB).is_none());
    }

    #[test]
    fn delete_removes_expected_but_not_running() {
        let mut store = store_with_job();
        store
            .commit_running(JOB, ConfigValue::empty_map())
            .expect("commit");
        store.delete_job(JOB).expect("delete");
        assert!(!store.has_job(JOB));
        // Running entry survives: the syncer must still wind tasks down.
        assert!(store.running(JOB).is_some());
        assert!(store.delete_job(JOB).is_err());
    }

    #[test]
    fn recovery_rebuilds_exact_state() {
        let mut store = store_with_job();
        let mut scaler = ConfigValue::empty_map();
        scaler.insert("task_count", 8u32.into());
        store
            .write_level(JOB, ConfigLevel::Scaler, Some(scaler), 0)
            .expect("write");
        store
            .commit_running(JOB, store.expected_merged(JOB).expect("merge"))
            .expect("commit");
        let job2 = JobId(2);
        store
            .create_job(job2, JobConfig::stateless("other", 1, 4).to_value())
            .expect("create");
        store.delete_job(job2).expect("delete");

        // Steal the WAL and recover a fresh store from it.
        let wal = store.wal.clone();
        let recovered = JobStore::recover(wal).expect("recover");
        assert_eq!(recovered.expected_jobs(), vec![JOB]);
        assert_eq!(
            recovered.expected_merged(JOB).expect("merge"),
            store.expected_merged(JOB).expect("merge")
        );
        assert_eq!(recovered.running(JOB), store.running(JOB));
        let (_, v) = recovered
            .read_level(JOB, ConfigLevel::Scaler)
            .expect("read");
        assert_eq!(v, 1);
    }

    #[test]
    fn recovery_after_compaction_matches() {
        let mut store = store_with_job();
        for i in 0..10u32 {
            let (_, v) = store.read_level(JOB, ConfigLevel::Scaler).expect("read");
            let mut cfg = ConfigValue::empty_map();
            cfg.insert("task_count", (4 + i).into());
            store
                .write_level(JOB, ConfigLevel::Scaler, Some(cfg), v)
                .expect("write");
        }
        store
            .commit_running(JOB, store.expected_merged(JOB).expect("merge"))
            .expect("commit");
        let before = store.wal_len().expect("len");
        store.compact().expect("compact");
        let after = store.wal_len().expect("len");
        assert!(
            after < before,
            "compaction must shrink the log ({before} -> {after})"
        );

        let recovered = JobStore::recover(store.wal.clone()).expect("recover");
        assert_eq!(
            recovered.expected_merged(JOB).expect("merge"),
            store.expected_merged(JOB).expect("merge")
        );
        // Versions survive compaction, so OCC keeps working across it.
        let (_, v) = recovered
            .read_level(JOB, ConfigLevel::Scaler)
            .expect("read");
        assert_eq!(v, 10);
    }

    #[test]
    fn corrupt_record_is_salvaged_with_record_index() {
        let mut wal = MemWal::new();
        wal.append("create\t1\t{}").expect("append");
        wal.append("garbage record").expect("append");
        let store = JobStore::recover(wal).expect("salvage, not error");
        let salvage = store.salvage_report().expect("salvage reported");
        assert_eq!(salvage.first_bad, 1);
        assert_eq!(salvage.kept, 1);
        assert_eq!(salvage.discarded, 1);
        // The valid prefix was applied and the WAL truncated to it.
        assert!(store.has_job(JobId(1)));
        assert_eq!(store.wal_len().expect("len"), 1);
    }

    #[test]
    fn truncated_final_record_is_salvaged_and_store_serves() {
        let mut store = store_with_job();
        let mut scaler = ConfigValue::empty_map();
        scaler.insert("task_count", 8u32.into());
        store
            .write_level(JOB, ConfigLevel::Scaler, Some(scaler), 0)
            .expect("write");
        store
            .commit_running(JOB, store.expected_merged(JOB).expect("merge"))
            .expect("commit");
        let expected_merged = store.expected_merged(JOB).expect("merge");

        // A crash mid-append leaves a torn final record: the op and job id
        // made it to disk but the payload did not.
        let mut wal = store.wal.clone();
        let intact = wal.len().expect("len");
        wal.append("running\t1\t{\"truncat").expect("append");

        let recovered = JobStore::recover(wal).expect("salvage, not error");
        let salvage = recovered.salvage_report().expect("salvage reported");
        assert_eq!(salvage.first_bad, intact);
        assert_eq!(salvage.kept, intact);
        assert_eq!(salvage.discarded, 1);
        // Everything before the torn record survived...
        assert_eq!(
            recovered.expected_merged(JOB).expect("merge"),
            expected_merged
        );
        assert_eq!(recovered.running(JOB), store.running(JOB));
        // ...the WAL was truncated back to the valid prefix...
        assert_eq!(recovered.wal_len().expect("len"), intact);
        // ...and the store still serves reads and writes.
        let mut recovered = recovered;
        recovered
            .create_job(JobId(2), JobConfig::stateless("new", 1, 4).to_value())
            .expect("store accepts writes after salvage");
    }

    #[test]
    fn corrupt_mid_file_record_drops_the_tail() {
        let mut wal = MemWal::new();
        wal.append("create\t1\t{}").expect("append");
        wal.append("level\t1\tscaler\tnot-a-version\t{}")
            .expect("append");
        // Valid-looking records after the corruption are untrustworthy and
        // must be discarded with it.
        wal.append("create\t2\t{}").expect("append");
        let store = JobStore::recover(wal).expect("salvage, not error");
        let salvage = store.salvage_report().expect("salvage reported");
        assert_eq!(salvage.first_bad, 1);
        assert_eq!(salvage.kept, 1);
        assert_eq!(salvage.discarded, 2);
        assert!(store.has_job(JobId(1)));
        assert!(
            !store.has_job(JobId(2)),
            "tail after corruption must be dropped"
        );
        assert_eq!(store.wal_len().expect("len"), 1);
    }

    #[test]
    fn clean_recovery_reports_no_salvage() {
        let store = store_with_job();
        let recovered = JobStore::recover(store.wal.clone()).expect("recover");
        assert!(recovered.salvage_report().is_none());
    }

    #[test]
    fn changelog_records_every_table_mutation() {
        let mut store = store_with_job();
        let drain = |store: &mut JobStore<MemWal>, reader| {
            store.drain_changes(reader).into_iter().collect::<Vec<_>>()
        };
        assert_eq!(store.changelog_len(), 1);
        assert_eq!(
            drain(&mut store, StoreReader::Syncer),
            [JOB],
            "create is fed"
        );
        assert!(drain(&mut store, StoreReader::Syncer).is_empty());

        let mut cfg = ConfigValue::empty_map();
        cfg.insert("task_count", 8u32.into());
        store
            .write_level(JOB, ConfigLevel::Scaler, Some(cfg), 0)
            .expect("write");
        store
            .commit_running(JOB, store.expected_merged(JOB).expect("merge"))
            .expect("commit");
        let job2 = JobId(2);
        store
            .create_job(job2, JobConfig::stateless("other", 1, 4).to_value())
            .expect("create");
        store.delete_job(job2).expect("delete");
        store.clear_running(JOB).expect("clear");
        assert_eq!(store.changelog_len(), 6, "every row change counts");
        assert_eq!(drain(&mut store, StoreReader::Syncer), [JOB, job2]);
        // A reader that has not drained yet still holds the create.
        assert_eq!(drain(&mut store, StoreReader::Checker), [JOB, job2]);

        // A failed write feeds nothing.
        assert!(store
            .write_level(JOB, ConfigLevel::Scaler, None, 99)
            .is_err());
        assert_eq!(store.changelog_len(), 6);
        assert!(drain(&mut store, StoreReader::Syncer).is_empty());

        // Recovery replays the same mutations, so every job a reader could
        // be stale on is pending for every reader.
        let mut recovered = JobStore::recover(store.wal.clone()).expect("recover");
        assert_eq!(recovered.changelog_len(), store.changelog_len());
        for reader in [StoreReader::Syncer, StoreReader::Standbys] {
            assert_eq!(drain(&mut recovered, reader), [JOB, job2]);
        }
    }

    #[test]
    fn unknown_job_errors() {
        let store: JobStore<MemWal> = JobStore::new(MemWal::new());
        assert!(matches!(
            store.read_level(JobId(9), ConfigLevel::Base),
            Err(JobStoreError::UnknownJob(_))
        ));
        assert!(store.expected_merged(JobId(9)).is_err());
    }
}
