//! ACIDF properties of the job-update pipeline, exercised across crates
//! (Job Store + Job Service + State Syncer), including durability through
//! a real file-backed WAL.

use turbine_config::{ConfigLevel, ConfigValue, JobConfig};
use turbine_jobstore::{FileWal, JobService, JobStore, MemWal, WalStorage};
use turbine_statesyncer::{Redistribute, StateSyncer, SyncEnvironment, SyncerConfig};
use turbine_types::JobId;

struct InstantEnv;
impl SyncEnvironment for InstantEnv {
    fn request_stop(&mut self, _job: JobId) {}
    fn all_stopped(&mut self, _job: JobId) -> bool {
        true
    }
    fn redistribute_checkpoints(
        &mut self,
        _j: JobId,
        _o: u32,
        _n: u32,
    ) -> Result<Redistribute, String> {
        Ok(Redistribute::Done)
    }
}

/// Atomicity: a plan that fails mid-way leaves the running configuration
/// untouched; the retry next round commits exactly once.
#[test]
fn failed_plan_leaves_running_config_untouched() {
    struct FlakyEnv {
        failures_left: u32,
    }
    impl SyncEnvironment for FlakyEnv {
        fn request_stop(&mut self, _job: JobId) {}
        fn all_stopped(&mut self, _job: JobId) -> bool {
            true
        }
        fn redistribute_checkpoints(
            &mut self,
            _j: JobId,
            _o: u32,
            _n: u32,
        ) -> Result<Redistribute, String> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                Err("transient".into())
            } else {
                Ok(Redistribute::Done)
            }
        }
    }

    let job = JobId(1);
    let mut svc = JobService::new(JobStore::new(MemWal::new()));
    svc.provision(job, &JobConfig::stateless("t", 4, 64))
        .expect("provision");
    let mut syncer = StateSyncer::default();
    let mut env = FlakyEnv { failures_left: 2 };
    syncer.run_round(&mut svc, &mut env);
    assert_eq!(svc.running_typed(job).expect("running").task_count, 4);

    svc.set_level_field(job, ConfigLevel::Scaler, "task_count", ConfigValue::Int(16))
        .expect("scale");
    // Two failed attempts (spaced by the syncer's exponential backoff):
    // running config must still read 4 after every round.
    let mut failures_seen = 0;
    for round in 0.. {
        assert!(round < 12, "failures never surfaced");
        let report = syncer.run_round(&mut svc, &mut env);
        failures_seen += report.failed.len();
        assert_eq!(svc.running_typed(job).expect("running").task_count, 4);
        if failures_seen == 2 {
            break;
        }
    }
    // The next attempt succeeds and commits exactly once.
    for round in 0.. {
        assert!(round < 12, "retry never committed");
        let report = syncer.run_round(&mut svc, &mut env);
        if report.complex_completed == vec![job] {
            break;
        }
        assert!(report.backed_off.contains(&job), "{report:?}");
    }
    assert_eq!(svc.running_typed(job).expect("running").task_count, 16);
}

/// Durability: the entire expected + running state — including an update
/// that was mid-flight — survives a process restart via the file WAL.
#[test]
fn state_survives_restart_via_file_wal() {
    let dir = std::env::temp_dir().join(format!("turbine-acidf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("jobstore.wal");
    let _ = std::fs::remove_file(&path);
    let job = JobId(7);

    {
        let wal = FileWal::open(&path).expect("open");
        let mut svc = JobService::new(JobStore::new(wal));
        svc.provision(job, &JobConfig::stateless("durable", 4, 64))
            .expect("provision");
        let mut syncer = StateSyncer::default();
        syncer.run_round(&mut svc, &mut InstantEnv);
        // An update arrives... and the process dies before the next sync
        // round.
        svc.set_level_field(job, ConfigLevel::Oncall, "task_count", ConfigValue::Int(20))
            .expect("oncall");
    }

    // "Restart": recover from the WAL.
    let wal = FileWal::open(&path).expect("reopen");
    let store = JobStore::recover(wal).expect("recover");
    let mut svc = JobService::new(store);
    // Running still shows the old state; expected shows the new one.
    assert_eq!(svc.running_typed(job).expect("running").task_count, 4);
    assert_eq!(svc.expected_typed(job).expect("expected").task_count, 20);
    // The first sync round after recovery completes the interrupted update.
    let mut syncer = StateSyncer::default();
    let report = syncer.run_round(&mut svc, &mut InstantEnv);
    assert_eq!(report.complex_completed, vec![job]);
    assert_eq!(svc.running_typed(job).expect("running").task_count, 20);
    std::fs::remove_file(&path).expect("cleanup");
}

/// Isolation + consistency: concurrent writers at different levels never
/// clobber each other; writers at the same level are serialized by
/// version checks; precedence decides the outcome deterministically.
#[test]
fn concurrent_writers_resolve_by_precedence_not_timing() {
    let job = JobId(1);
    let mut svc = JobService::new(JobStore::new(MemWal::new()));
    svc.provision(job, &JobConfig::stateless("t", 10, 64))
        .expect("provision");

    // The auto scaler and two oncalls race. Apply in two different orders
    // and observe identical outcomes.
    let apply = |order: &[(&str, ConfigLevel, i64)]| {
        let mut svc = JobService::new(JobStore::new(MemWal::new()));
        svc.provision(job, &JobConfig::stateless("t", 10, 64))
            .expect("provision");
        for (_, level, count) in order {
            svc.set_level_field(job, *level, "task_count", ConfigValue::Int(*count))
                .expect("write");
        }
        svc.expected_typed(job).expect("typed").task_count
    };
    let a = apply(&[
        ("scaler", ConfigLevel::Scaler, 15),
        ("oncall1", ConfigLevel::Oncall, 20),
        ("oncall2", ConfigLevel::Oncall, 30),
    ]);
    let b = apply(&[
        ("oncall2", ConfigLevel::Oncall, 30),
        ("oncall1", ConfigLevel::Oncall, 20),
        ("scaler", ConfigLevel::Scaler, 15),
    ]);
    // Same-level writes serialize (last write to Oncall differs between
    // orders), but the *level* always wins over the scaler regardless of
    // wall-clock order.
    assert_eq!(a, 30);
    assert_eq!(b, 20);
    for outcome in [a, b] {
        assert_ne!(outcome, 15, "a broken scaler can never override oncall");
    }
}

/// Stale read-modify-write at the same level is rejected, not lost.
#[test]
fn stale_same_level_write_is_rejected() {
    let job = JobId(1);
    let mut svc = JobService::new(JobStore::new(MemWal::new()));
    svc.provision(job, &JobConfig::stateless("t", 4, 64))
        .expect("provision");
    let store = svc.store_mut();
    let (_, v) = store.read_level(job, ConfigLevel::Oncall).expect("read");
    let mut cfg1 = ConfigValue::empty_map();
    cfg1.insert("task_count", ConfigValue::Int(20));
    store
        .write_level(job, ConfigLevel::Oncall, Some(cfg1), v)
        .expect("first");
    let mut cfg2 = ConfigValue::empty_map();
    cfg2.insert("task_count", ConfigValue::Int(30));
    let err = store
        .write_level(job, ConfigLevel::Oncall, Some(cfg2), v)
        .expect_err("stale write must fail");
    assert!(err.to_string().contains("version conflict"), "{err}");
}

/// WAL compaction preserves every ACID property across recovery.
#[test]
fn compaction_preserves_recovery_semantics() {
    let job = JobId(1);
    let mut store = JobStore::new(MemWal::new());
    store
        .create_job(job, JobConfig::stateless("t", 2, 8).to_value())
        .expect("create");
    for i in 0..50u32 {
        let (_, v) = store.read_level(job, ConfigLevel::Scaler).expect("read");
        let mut cfg = ConfigValue::empty_map();
        cfg.insert("task_count", ConfigValue::Int((i % 8 + 1) as i64));
        store
            .write_level(job, ConfigLevel::Scaler, Some(cfg), v)
            .expect("write");
    }
    store
        .commit_running(job, store.expected_merged(job).expect("merged"))
        .expect("commit");
    store.compact().expect("compact");
    assert!(store.wal_len().expect("len") < 10);

    let recovered = JobStore::recover(store.wal().clone()).expect("recover");
    assert_eq!(
        recovered.expected_merged(job).expect("merged"),
        store.expected_merged(job).expect("merged")
    );
    assert_eq!(recovered.running(job), store.running(job));
    // OCC versions survive: a write based on the pre-compaction version
    // still succeeds exactly once.
    let (_, v) = recovered
        .read_level(job, ConfigLevel::Scaler)
        .expect("read");
    assert_eq!(v, 50);
}

/// Fault tolerance: a quarantined job stops consuming sync rounds but its
/// healthy neighbours keep being synchronized.
#[test]
fn quarantine_is_per_job_not_global() {
    let mut svc = JobService::new(JobStore::new(MemWal::new()));
    let poisoned = JobId(1);
    let healthy = JobId(2);
    svc.provision(poisoned, &JobConfig::stateless("bad", 2, 8))
        .expect("provision");
    svc.provision(healthy, &JobConfig::stateless("good", 2, 8))
        .expect("provision");
    let mut syncer = StateSyncer::new(SyncerConfig {
        max_failures: 2,
        max_inflight_rounds: 5,
    });
    syncer.run_round(&mut svc, &mut InstantEnv);
    // Poison: a type-broken oncall write that can never decode.
    svc.set_level_field(poisoned, ConfigLevel::Oncall, "task_count", "many".into())
        .expect("poison");
    // Failures back off exponentially between retries, so allow a few
    // rounds for the second failure to land and trip the quarantine.
    for _ in 0..8 {
        syncer.run_round(&mut svc, &mut InstantEnv);
        if syncer.is_quarantined(poisoned) {
            break;
        }
    }
    assert!(syncer.is_quarantined(poisoned));
    // The healthy job still syncs normally.
    svc.set_level_field(
        healthy,
        ConfigLevel::Provisioner,
        "package.version",
        ConfigValue::Int(2),
    )
    .expect("release");
    let report = syncer.run_round(&mut svc, &mut InstantEnv);
    assert_eq!(report.simple, vec![healthy]);
    assert!(report.failed.is_empty(), "quarantined job must be skipped");
}

/// The WAL of a store under churn stays replayable at every prefix-point
/// where the implementation appends (simulates crash at arbitrary record
/// boundaries).
#[test]
fn every_wal_prefix_recovers_cleanly() {
    let job = JobId(1);
    let mut store = JobStore::new(MemWal::new());
    store
        .create_job(job, JobConfig::stateless("t", 2, 8).to_value())
        .expect("create");
    for i in 0..10u32 {
        let (_, v) = store.read_level(job, ConfigLevel::Scaler).expect("read");
        let mut cfg = ConfigValue::empty_map();
        cfg.insert("task_count", ConfigValue::Int((i % 8 + 1) as i64));
        store
            .write_level(job, ConfigLevel::Scaler, Some(cfg), v)
            .expect("write");
        if i % 3 == 0 {
            store
                .commit_running(job, store.expected_merged(job).expect("merged"))
                .expect("commit");
        }
    }
    let records = store.wal().read_all().expect("read");
    for cut in 1..=records.len() {
        let mut partial = MemWal::new();
        for r in &records[..cut] {
            partial.append(r).expect("append");
        }
        let recovered = JobStore::recover(partial)
            .unwrap_or_else(|e| panic!("prefix of {cut} records must recover: {e}"));
        assert!(recovered.has_job(job));
    }
}
