//! The Job Service: the API layer over the Job Store (paper §III-A).
//!
//! The Job Service guarantees job changes are committed to the Job Store
//! atomically and with read-modify-write consistency. Components never
//! touch store rows directly: the Provision Service writes the Provisioner
//! level, the Auto Scaler the Scaler level, operators the Oncall level —
//! each through [`JobService::update_level`], which re-reads and retries on
//! version conflicts.

use crate::store::{JobStore, JobStoreError};
use crate::wal::WalStorage;
use std::cell::RefCell;
use std::sync::Arc;
use turbine_config::{ConfigLevel, ConfigValue, JobConfig};
use turbine_types::{IdMap, JobId};

/// Maximum read-modify-write retries before giving up. Conflicts are rare
/// (two writers to the *same* level in the same instant), so a handful of
/// retries is plenty; exceeding it indicates a livelocked writer and is
/// surfaced as the final conflict error.
const MAX_RMW_RETRIES: usize = 8;

/// Per job: the change token a typed view was decoded at, and the view.
type TypedCache<T> = RefCell<IdMap<JobId, (u64, T)>>;

/// The Job Service, owning the Job Store.
pub struct JobService<W: WalStorage> {
    store: JobStore<W>,
    /// Typed-decode cache keyed by the store's per-job change token. The
    /// scaler and metrics loops read the typed view of every job every
    /// round; decoding only on change and handing out the shared decode
    /// (never a clone of it) keeps those loops cheap at fleet scale.
    typed_cache: TypedCache<Arc<JobConfig>>,
    /// Same caching for the running table's typed view.
    running_cache: TypedCache<Option<Arc<JobConfig>>>,
}

impl<W: WalStorage> JobService<W> {
    /// Wrap a store.
    pub fn new(store: JobStore<W>) -> Self {
        JobService {
            store,
            typed_cache: RefCell::default(),
            running_cache: RefCell::default(),
        }
    }

    /// Provision a new job: validate the typed config, then create the job
    /// with it as the Base level.
    pub fn provision(&mut self, job: JobId, config: &JobConfig) -> Result<(), ProvisionError> {
        config.validate().map_err(ProvisionError::Invalid)?;
        self.store
            .create_job(job, config.to_value())
            .map_err(ProvisionError::Store)
    }

    /// Atomically update one level with a read-modify-write loop. `mutate`
    /// receives the current level content (empty map if the level is
    /// unset) and edits it in place.
    pub fn update_level(
        &mut self,
        job: JobId,
        level: ConfigLevel,
        mutate: impl Fn(&mut ConfigValue),
    ) -> Result<(), JobStoreError> {
        let mut attempts = 0;
        loop {
            let (current, version) = self.store.read_level(job, level)?;
            let mut config = current.cloned().unwrap_or_else(ConfigValue::empty_map);
            mutate(&mut config);
            match self.store.write_level(job, level, Some(config), version) {
                Ok(_) => return Ok(()),
                Err(JobStoreError::VersionConflict { .. }) if attempts < MAX_RMW_RETRIES => {
                    attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Set a single `.`-separated path on a level (the common shape of
    /// scaler and oncall updates).
    pub fn set_level_field(
        &mut self,
        job: JobId,
        level: ConfigLevel,
        path: &str,
        value: ConfigValue,
    ) -> Result<(), JobStoreError> {
        self.update_level(job, level, move |cfg| cfg.insert_path(path, value.clone()))
    }

    /// Clear an entire level (e.g. removing an oncall override once the
    /// incident is resolved).
    pub fn clear_level(&mut self, job: JobId, level: ConfigLevel) -> Result<(), JobStoreError> {
        let mut attempts = 0;
        loop {
            let (current, version) = self.store.read_level(job, level)?;
            if current.is_none() {
                return Ok(());
            }
            match self.store.write_level(job, level, None, version) {
                Ok(_) => return Ok(()),
                Err(JobStoreError::VersionConflict { .. }) if attempts < MAX_RMW_RETRIES => {
                    attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The merged expected configuration decoded into the typed schema.
    /// Cached per job until the next level write: reads in between share
    /// one decode.
    pub fn expected_typed(&self, job: JobId) -> Result<Arc<JobConfig>, ExpectedConfigError> {
        let token = self
            .store
            .expected_token(job)
            .map_err(ExpectedConfigError::Store)?;
        if let Some((cached_token, config)) = self.typed_cache.borrow().get(&job) {
            if *cached_token == token {
                return Ok(config.clone());
            }
        }
        let merged = self
            .store
            .expected_merged_ref(job)
            .map_err(ExpectedConfigError::Store)?;
        let config = Arc::new(JobConfig::from_value(merged).map_err(ExpectedConfigError::Invalid)?);
        self.typed_cache
            .borrow_mut()
            .insert(job, (token, config.clone()));
        Ok(config)
    }

    /// The running configuration decoded into the typed schema, if present
    /// and well-formed. Cached per job until the next commit/clear.
    pub fn running_typed(&self, job: JobId) -> Option<Arc<JobConfig>> {
        let token = self.store.running_token(job);
        if let Some((cached_token, config)) = self.running_cache.borrow().get(&job) {
            if *cached_token == token {
                return config.clone();
            }
        }
        let config = self
            .store
            .running(job)
            .and_then(|v| JobConfig::from_value(v).ok())
            .map(Arc::new);
        self.running_cache
            .borrow_mut()
            .insert(job, (token, config.clone()));
        config
    }

    /// Every job whose running configuration is present and well-formed,
    /// ascending, with its typed view.
    pub fn running_typed_jobs(&self) -> impl Iterator<Item = (JobId, Arc<JobConfig>)> + '_ {
        self.store
            .running_jobs()
            .filter_map(|job| Some((job, self.running_typed(job)?)))
    }

    /// Borrow the underlying store (State Syncer reads both tables).
    pub fn store(&self) -> &JobStore<W> {
        &self.store
    }

    /// Mutably borrow the underlying store (State Syncer commits running
    /// configurations).
    pub fn store_mut(&mut self) -> &mut JobStore<W> {
        &mut self.store
    }
}

/// Error provisioning a job.
#[derive(Debug)]
pub enum ProvisionError {
    /// The typed config failed validation checks.
    Invalid(turbine_config::ValidationError),
    /// The store rejected the creation.
    Store(JobStoreError),
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Invalid(e) => write!(f, "provision rejected: {e}"),
            ProvisionError::Store(e) => write!(f, "provision failed: {e}"),
        }
    }
}

impl std::error::Error for ProvisionError {}

/// Error reading a job's merged expected configuration.
#[derive(Debug)]
pub enum ExpectedConfigError {
    /// The store could not serve the read.
    Store(JobStoreError),
    /// The merged JSON did not decode into the typed schema (e.g. a layer
    /// wrote a field with the wrong type).
    Invalid(turbine_config::ValidationError),
}

impl std::fmt::Display for ExpectedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpectedConfigError::Store(e) => write!(f, "{e}"),
            ExpectedConfigError::Invalid(e) => write!(f, "merged config invalid: {e}"),
        }
    }
}

impl std::error::Error for ExpectedConfigError {}

turbine_types::snap_struct!(JobService<W: WalStorage> { store }
    // The typed-decode caches are pure derivations of store rows keyed by
    // change tokens; they refill lazily after restore.
    derived { typed_cache: RefCell::default(), running_cache: RefCell::default() });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;

    const JOB: JobId = JobId(1);

    fn service_with_job() -> JobService<MemWal> {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        svc.provision(JOB, &JobConfig::stateless("tailer", 4, 64))
            .expect("provision");
        svc
    }

    #[test]
    fn provision_validates_config() {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        let mut bad = JobConfig::stateless("tailer", 4, 64);
        bad.task_count = 0;
        assert!(matches!(
            svc.provision(JOB, &bad),
            Err(ProvisionError::Invalid(_))
        ));
        // Valid config provisions fine.
        svc.provision(JOB, &JobConfig::stateless("tailer", 4, 64))
            .expect("provision");
        // Re-provisioning the same id is a store error.
        assert!(matches!(
            svc.provision(JOB, &JobConfig::stateless("tailer", 4, 64)),
            Err(ProvisionError::Store(JobStoreError::JobExists(_)))
        ));
    }

    #[test]
    fn scaler_update_changes_typed_view() {
        let mut svc = service_with_job();
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 12u32.into())
            .expect("update");
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 12);
        // Base is untouched.
        let (base, _) = svc
            .store()
            .read_level(JOB, ConfigLevel::Base)
            .expect("read");
        assert_eq!(
            base.expect("base")
                .get_path("task_count")
                .and_then(|v| v.as_int()),
            Some(4)
        );
    }

    #[test]
    fn oncall_override_beats_scaler_and_clears_cleanly() {
        let mut svc = service_with_job();
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 12u32.into())
            .expect("scaler");
        svc.set_level_field(JOB, ConfigLevel::Oncall, "task_count", 20u32.into())
            .expect("oncall");
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 20);
        svc.clear_level(JOB, ConfigLevel::Oncall).expect("clear");
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 12);
        // Clearing an already-empty level is a no-op.
        svc.clear_level(JOB, ConfigLevel::Oncall)
            .expect("clear again");
    }

    #[test]
    fn update_level_mutator_sees_previous_content() {
        let mut svc = service_with_job();
        svc.update_level(JOB, ConfigLevel::Scaler, |cfg| {
            cfg.insert("task_count", 6u32.into());
        })
        .expect("first");
        svc.update_level(JOB, ConfigLevel::Scaler, |cfg| {
            let prev = cfg
                .get("task_count")
                .and_then(|v| v.as_int())
                .expect("prev");
            cfg.insert("task_count", ConfigValue::Int(prev * 2));
        })
        .expect("second");
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 12);
    }

    #[test]
    fn typed_decode_error_surfaces() {
        let mut svc = service_with_job();
        svc.set_level_field(JOB, ConfigLevel::Oncall, "task_count", "many".into())
            .expect("write");
        assert!(matches!(
            svc.expected_typed(JOB),
            Err(ExpectedConfigError::Invalid(_))
        ));
    }

    #[test]
    fn running_typed_roundtrips() {
        let mut svc = service_with_job();
        assert!(svc.running_typed(JOB).is_none());
        let merged = svc.store().expected_merged(JOB).expect("merge");
        svc.store_mut().commit_running(JOB, merged).expect("commit");
        assert_eq!(svc.running_typed(JOB).expect("typed").task_count, 4);
    }

    #[test]
    fn typed_reads_share_one_decode_until_the_row_changes() {
        let mut svc = service_with_job();
        let first = svc.expected_typed(JOB).expect("typed");
        assert!(Arc::ptr_eq(
            &first,
            &svc.expected_typed(JOB).expect("typed")
        ));
        // Any level write or clear: a new decode with the new content, and
        // the old handle keeps what it saw.
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 12u32.into())
            .expect("scaler");
        let scaled = svc.expected_typed(JOB).expect("typed");
        assert!(!Arc::ptr_eq(&first, &scaled));
        assert_eq!((first.task_count, scaled.task_count), (4, 12));
        svc.set_level_field(JOB, ConfigLevel::Oncall, "task_count", 20u32.into())
            .expect("oncall");
        let pinned = svc.expected_typed(JOB).expect("typed");
        assert!(!Arc::ptr_eq(&scaled, &pinned));
        assert_eq!(pinned.task_count, 20);
        svc.clear_level(JOB, ConfigLevel::Oncall).expect("clear");
        let cleared = svc.expected_typed(JOB).expect("typed");
        assert!(!Arc::ptr_eq(&pinned, &cleared));
        assert_eq!(cleared.task_count, 12);
        assert!(Arc::ptr_eq(
            &cleared,
            &svc.expected_typed(JOB).expect("typed")
        ));

        // The running view likewise: shared between commits, new after one,
        // gone after a clear. Expected-level writes do not touch it.
        let merged = svc.store().expected_merged(JOB).expect("merge");
        svc.store_mut().commit_running(JOB, merged).expect("commit");
        let running = svc.running_typed(JOB).expect("running");
        assert!(Arc::ptr_eq(
            &running,
            &svc.running_typed(JOB).expect("running")
        ));
        svc.set_level_field(JOB, ConfigLevel::Scaler, "task_count", 16u32.into())
            .expect("scaler");
        assert!(Arc::ptr_eq(
            &running,
            &svc.running_typed(JOB).expect("running")
        ));
        let merged = svc.store().expected_merged(JOB).expect("merge");
        svc.store_mut().commit_running(JOB, merged).expect("commit");
        let recommitted = svc.running_typed(JOB).expect("running");
        assert!(!Arc::ptr_eq(&running, &recommitted));
        assert_eq!((running.task_count, recommitted.task_count), (12, 16));
        assert_eq!(
            svc.running_typed_jobs()
                .map(|(job, config)| (job, config.task_count))
                .collect::<Vec<_>>(),
            [(JOB, 16)]
        );
        svc.store_mut().clear_running(JOB).expect("clear");
        assert!(svc.running_typed(JOB).is_none());
        assert_eq!(svc.running_typed_jobs().count(), 0);
    }

    /// A job deleted and provisioned again under its id reads its new
    /// config, not the decode cached for the deleted one: the new row's
    /// token is not one the old row had.
    #[test]
    fn a_reprovisioned_id_reads_its_new_config() {
        let mut svc = service_with_job();
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 4);
        svc.store_mut().delete_job(JOB).expect("delete");
        assert!(svc.expected_typed(JOB).is_err());
        svc.provision(JOB, &JobConfig::stateless("tailer", 9, 64))
            .expect("provision again");
        assert_eq!(svc.expected_typed(JOB).expect("typed").task_count, 9);
    }
}
