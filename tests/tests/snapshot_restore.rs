//! Snapshot/restore equivalence: restoring a mid-run capture and driving
//! to the horizon must be bit-for-bit identical — platform fingerprint,
//! trace digest, and ODS incident log — to the uninterrupted run, in both
//! drive modes, under chaos faults and host flaps. Anything a component
//! forgets to serialize shows up here as a restore-divergence.

use proptest::prelude::*;
use turbine::{DriveMode, Fault, FaultPlan, InvariantConfig, Turbine, TurbineConfig};
use turbine_config::JobConfig;
use turbine_snap::{Snapshot, SnapshotMeta};
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::TrafficModel;

fn host_shape() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// A busy little platform: two stateless pipelines (one diurnal), one
/// stateful job, default alert rules, invariant checking on.
fn build() -> Turbine {
    let mut config = TurbineConfig::default();
    config.shard_count = 256;
    let mut t = Turbine::new(config);
    t.add_hosts(5, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    t.provision_job(
        JobId(1),
        JobConfig::stateless("snap_diurnal", 4, 16),
        TrafficModel::diurnal(3.0e6, 0.3, 11),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.provision_job(
        JobId(2),
        JobConfig::stateless("snap_flat", 2, 16),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.provision_stateful_job(
        JobId(3),
        JobConfig::stateless("snap_agg", 2, 8),
        TrafficModel::flat(8.0e5),
        1.0e6,
        256.0,
        1.0e5,
    )
    .expect("provision");
    t.install_default_alert_rules();
    t
}

fn schedule_chaos(t: &mut Turbine) {
    let hosts = t.cluster.hosts();
    let container = t.cluster.containers_on(hosts[1]).expect("containers")[0];
    t.schedule_fault(FaultPlan {
        fault: Fault::HeartbeatLoss(container),
        from: SimTime::ZERO + Duration::from_mins(25),
        until: Some(SimTime::ZERO + Duration::from_mins(45)),
    });
    t.schedule_fault(FaultPlan {
        fault: Fault::SyncerCrash,
        from: SimTime::ZERO + Duration::from_mins(70),
        until: Some(SimTime::ZERO + Duration::from_mins(80)),
    });
    t.schedule_fault(FaultPlan {
        fault: Fault::TaskServiceDown,
        from: SimTime::ZERO + Duration::from_mins(100),
        until: Some(SimTime::ZERO + Duration::from_mins(110)),
    });
}

/// Everything the equivalence contract covers, in one comparable bundle.
fn observe(
    t: &Turbine,
) -> (
    turbine::PlatformFingerprint,
    u64,
    Vec<turbine_ods::Incident>,
) {
    (t.fingerprint(), t.trace().digest(), t.incidents().to_vec())
}

/// Drive minute-by-minute to `horizon_mins`, mirroring the CLI runner.
fn drive_to(t: &mut Turbine, horizon_mins: u64, mode: DriveMode) {
    let end = SimTime::ZERO + Duration::from_mins(horizon_mins);
    while t.now() < end {
        t.drive_for(Duration::from_mins(1), mode);
    }
}

/// The core check: capture at `at_mins`, restore, drive both the original
/// and the restored platform to the horizon, and demand identical
/// observables at capture time and at the horizon.
fn assert_restore_equivalence(at_mins: u64, horizon_mins: u64, mode: DriveMode) {
    let mut original = build();
    schedule_chaos(&mut original);
    drive_to(&mut original, at_mins, mode);

    let snapshot = Snapshot::capture(&original);
    let mut restored = snapshot.restore().expect("restore");
    assert_eq!(
        observe(&original),
        observe(&restored),
        "restore diverged at capture time (mode {mode:?}, minute {at_mins})"
    );

    drive_to(&mut original, horizon_mins, mode);
    drive_to(&mut restored, horizon_mins, mode);
    assert_eq!(
        observe(&original),
        observe(&restored),
        "restore-then-drive diverged (mode {mode:?}, captured at {at_mins}, horizon {horizon_mins})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Capture at a random minute — before, inside, and after the chaos
    /// windows — and drive past every fault edge; restored and
    /// uninterrupted runs must match bit for bit in both drive modes.
    #[test]
    fn restore_then_drive_matches_uninterrupted(at_mins in 5u64..115, event_mode in any::<bool>()) {
        let mode = if event_mode { DriveMode::EventDriven } else { DriveMode::DenseTick };
        assert_restore_equivalence(at_mins, 130, mode);
    }
}

/// Deterministic anchor for the same property at a fault-window boundary
/// (cheap enough to run every time even when the property shrinks).
#[test]
fn restore_mid_fault_window_matches_uninterrupted() {
    assert_restore_equivalence(30, 130, DriveMode::EventDriven);
    assert_restore_equivalence(30, 130, DriveMode::DenseTick);
}

/// Settled jobs are a derived cache the snapshot leaves out: a restore
/// taken while a job is settled re-walks it once, settles it again, and
/// from then on skips it exactly where the uninterrupted run does — across
/// a host flap and the traffic edit that finally wakes the job.
#[test]
fn restore_mid_quiescence_then_wake_matches_uninterrupted() {
    let quiet = JobId(4);
    let series = turbine::MetricKey::platform("engine_active_jobs");
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        original
            .provision_job(
                quiet,
                JobConfig::stateless("snap_quiet", 3, 8),
                TrafficModel::flat(0.0),
                1.0e6,
                256.0,
            )
            .expect("provision");
        drive_to(&mut original, 20, mode);
        assert_eq!(
            original.engine().active_jobs(),
            3,
            "the drained job settled, the three busy ones never do"
        );
        let sick = original.cluster.hosts()[2];
        original.fail_host(sick).expect("fail");
        drive_to(&mut original, 25, mode);

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(
            restored.engine().active_jobs(),
            4,
            "restore forgets settlements"
        );
        for t in [&mut original, &mut restored] {
            drive_to(t, 35, mode);
            t.recover_host(sick).expect("recover");
            drive_to(t, 45, mode);
            t.with_job_traffic(quiet, |traffic| *traffic = TrafficModel::flat(2.0e6));
            drive_to(t, 60, mode);
            assert!(t.engine().job(quiet).expect("job").total_arrived() > 0.0);
        }
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        let gauge = |t: &Turbine| {
            t.ods_registry()
                .series_by_key(&series)
                .expect("published every metrics round")
                .points()
                .collect::<Vec<_>>()
        };
        assert_eq!(gauge(&original), gauge(&restored), "mode {mode:?}");
        assert!(gauge(&original).iter().any(|&(_, active)| active == 3.0));
    }
}

/// A lazy span is derived state too: a capture taken 40 minutes in, while
/// the flat jobs are skipped and their counters are derived from their
/// anchors, encodes what a walk of every tick would hold. The restore walks
/// every job once, leaves the steady ones lazy again, and from then on
/// follows the uninterrupted run through a traffic edit that ends one span
/// and starts another.
#[test]
fn restore_mid_lazy_span_matches_uninterrupted() {
    let flat = JobId(2);
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        drive_to(&mut original, 40, mode);
        let work = original.engine().last_tick_work();
        assert!(
            work.runtimes < original.engine().job_ids().len(),
            "a lazy job is skipped: {work:?}"
        );
        let snapshot = Snapshot::capture(&original);
        let mut restored = snapshot.restore().expect("restore");
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        assert!(
            Snapshot::capture(&restored).to_bytes() == snapshot.to_bytes(),
            "a restored engine encodes as the lazy one did (mode {mode:?})"
        );
        for t in [&mut original, &mut restored] {
            drive_to(t, 60, mode);
            t.with_job_traffic(flat, |traffic| *traffic = TrafficModel::flat(1.5e6));
            drive_to(t, 90, mode);
        }
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        assert_eq!(
            original.engine().job(flat).expect("job").total_arrived(),
            restored.engine().job(flat).expect("job").total_arrived()
        );
    }
}

/// What the Task Service's cached snapshot was built from is derived and
/// left out of the capture: a restore taken between two refresh rounds
/// builds in full and reconciles every manager once, to no effect, and
/// from then on follows the store's changes exactly as the uninterrupted run
/// does — through a release and a host flap.
#[test]
fn restore_between_refresh_rounds_then_release_and_flap_matches_uninterrupted() {
    let task_events = |t: &Turbine| {
        (
            t.metrics.task_starts.get(),
            t.metrics.task_stops.get(),
            t.metrics.task_restarts.get(),
        )
    };
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        drive_to(&mut original, 20, mode);
        // Refresh rounds fire on the minute.
        original.drive_for(Duration::from_secs(30), mode);
        let (rendered, reconciled) = (
            original.tm_jobs_rendered(),
            original.tm_managers_reconciled(),
        );

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(restored.tm_jobs_rendered(), 0, "cost counters restart");
        let sick = original.cluster.hosts()[3];
        for t in [&mut original, &mut restored] {
            t.drive_for(Duration::from_secs(90), mode);
            t.job_service_mut()
                .set_level_field(
                    JobId(2),
                    turbine_config::ConfigLevel::Provisioner,
                    "package.version",
                    turbine_config::ConfigValue::Int(2),
                )
                .expect("release");
            drive_to(t, 30, mode);
            t.fail_host(sick).expect("fail");
            drive_to(t, 40, mode);
            t.recover_host(sick).expect("recover");
            drive_to(t, 55, mode);
        }
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        assert_eq!(
            task_events(&original),
            task_events(&restored),
            "mode {mode:?}"
        );
        // The restored run paid for one full round more than the other
        // paid after the capture; that is all the counters may differ by.
        assert!(
            original.tm_jobs_rendered() > rendered,
            "the release rendered"
        );
        assert_eq!(
            restored.tm_jobs_rendered(),
            original.tm_jobs_rendered() - rendered + 3,
            "mode {mode:?}: one full build of three jobs, then the same deltas"
        );
        assert_eq!(
            restored.tm_managers_reconciled(),
            original.tm_managers_reconciled() - reconciled + 5,
            "mode {mode:?}: every manager once more"
        );
    }
}

/// The change feeds are stored, so a restored platform owes each of their
/// readers what the uninterrupted one does: over the window after the
/// capture, with an oncall write in it, the invariant checker, the State
/// Syncer and the load reports do the same work in both runs — neither
/// rescans a job the uninterrupted run would have left alone.
#[test]
fn a_restored_run_does_the_uninterrupted_runs_work() {
    let work = |t: &Turbine| {
        (
            t.invariant_checker().expect("enabled").jobs_examined(),
            t.metrics.sync_jobs_examined.get(),
            t.metrics.load_reports_sent.get(),
        )
    };
    let mut original = build();
    drive_to(&mut original, 20, DriveMode::EventDriven);
    let mut restored = Snapshot::capture(&original).restore().expect("restore");
    let (_, synced, reported) = work(&restored);
    let from = [work(&original), (0, synced, reported)];
    for t in [&mut original, &mut restored] {
        drive_to(t, 22, DriveMode::EventDriven);
        t.oncall_set(JobId(1), "task_count", turbine_config::ConfigValue::Int(6))
            .expect("store up");
        drive_to(t, 30, DriveMode::EventDriven);
    }
    let grew = |t: &Turbine, (checked, synced, reported): (u64, u64, u64)| {
        let (c, s, r) = work(t);
        (c - checked, s - synced, r - reported)
    };
    let (uninterrupted, resumed) = (grew(&original, from[0]), grew(&restored, from[1]));
    assert!(
        uninterrupted.0 > 0 && uninterrupted.1 > 0,
        "the write is work"
    );
    assert_eq!(
        uninterrupted, resumed,
        "(checker jobs, syncer jobs, load reports) after the capture"
    );
    assert_eq!(observe(&original), observe(&restored));
}

/// Distinct task snapshots held across the fleet's Task Managers.
fn snapshots_held(t: &Turbine) -> usize {
    let mut table = turbine_taskmgr::SnapshotTable::default();
    for manager in t.task_managers().values() {
        manager.offer_snapshot(&mut table);
    }
    table.len()
}

/// A blob holds each task snapshot once and every holder's index: managers
/// that shared one before the capture share one after the restore, and a
/// manager on a failed host, which missed a release and still holds the
/// snapshot from before it, gets that older one back — then picks up where
/// the uninterrupted run does when its host returns.
#[test]
fn restore_while_a_down_container_holds_an_older_snapshot_matches_uninterrupted() {
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        drive_to(&mut original, 20, mode);
        assert_eq!(snapshots_held(&original), 1, "a converged fleet shares one");
        let converged = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(snapshots_held(&converged), 1, "and shares one again");

        let sick = original.cluster.hosts()[2];
        original.fail_host(sick).expect("fail");
        original
            .job_service_mut()
            .set_level_field(
                JobId(2),
                turbine_config::ConfigLevel::Provisioner,
                "package.version",
                turbine_config::ConfigValue::Int(2),
            )
            .expect("release");
        drive_to(&mut original, 25, mode);
        assert_eq!(
            snapshots_held(&original),
            2,
            "the failed host missed the release"
        );

        let snapshot = Snapshot::capture(&original);
        let mut restored = snapshot.restore().expect("restore");
        assert_eq!(snapshots_held(&restored), 2, "mode {mode:?}");
        assert_eq!(
            Snapshot::capture(&restored).to_bytes(),
            snapshot.to_bytes(),
            "re-capture is byte-identical"
        );
        for t in [&mut original, &mut restored] {
            drive_to(t, 32, mode);
            t.recover_host(sick).expect("recover");
            drive_to(t, 50, mode);
            assert_eq!(snapshots_held(t), 1, "the returned host caught up");
        }
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
    }
}

/// A deleted job leaves the Auto Scaler with the rest of its state: its
/// throughput estimate, workload history and root-cause record (release
/// row, lag episode, last diagnosis) are neither resident nor in any later
/// snapshot.
#[test]
fn a_deleted_job_leaves_the_scaler_and_the_next_capture() {
    let bytes_of = |t: &Turbine, field: &str| {
        let fields = turbine_snap::field_bytes(t);
        fields.iter().find(|f| f.0 == field).expect("field").1
    };
    let mut t = build();
    drive_to(&mut t, 15, DriveMode::EventDriven);
    assert!(t.auto_scaler().throughput_estimate(JobId(2)).is_some());
    let before = bytes_of(&t, "scaler");
    t.delete_job(JobId(2)).expect("delete");
    drive_to(&mut t, 25, DriveMode::EventDriven);
    assert!(t.engine().job(JobId(2)).is_none(), "wound down");
    assert_eq!(t.auto_scaler().throughput_estimate(JobId(2)), None);
    assert!(t.auto_scaler().throughput_estimate(JobId(1)).is_some());
    let after = bytes_of(&t, "scaler");
    assert!(
        after < before,
        "scaler state {before} B -> {after} B: ten more minutes of history for \
         two jobs weigh less than all of the third's"
    );
    let restored = Snapshot::capture(&t).restore().expect("restore");
    assert_eq!(restored.auto_scaler().throughput_estimate(JobId(2)), None);
}

/// The checkpoint store's per-job rows are a layout the blob does not show,
/// and the engine's dirty hints and noise memos are derived and left out of
/// it: a restore taken between a checkpoint round and the next tick, with
/// every job busy, holds the same offsets and from then on commits, dirties
/// and draws exactly as the uninterrupted run does.
#[test]
fn restore_between_checkpoint_round_and_next_tick_matches_uninterrupted() {
    let durable = |t: &Turbine| {
        (1..=3)
            .map(|job| {
                let job = JobId(job);
                (t.checkpoints().job_checkpoints(job), t.durable_backlog(job))
            })
            .collect::<Vec<_>>()
    };
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        // Checkpoint rounds fire on the minute, after that instant's tick:
        // the platform stops right behind one.
        drive_to(&mut original, 20, mode);
        let committed = original.checkpoints().len();
        assert_eq!(committed, 16 + 16 + 8, "every partition has its offset");
        assert!(original.checkpoints().job_total_ingested(JobId(1)) > 0);

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(durable(&original), durable(&restored), "mode {mode:?}");
        for t in [&mut original, &mut restored] {
            // The next tick, then on through twenty more rounds.
            t.drive_for(Duration::from_secs(10), mode);
            drive_to(t, 40, mode);
        }
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        assert_eq!(durable(&original), durable(&restored), "mode {mode:?}");
        assert_eq!(original.checkpoints().len(), committed);
        assert!(
            durable(&original)
                .iter()
                .all(|(_, backlog)| backlog.is_ok()),
            "every checkpoint is readable"
        );
    }
}

/// A snapshot round-trips through its on-disk blob form unchanged, and
/// the blob carries its scenario context.
#[test]
fn blob_meta_carries_scenario_context() {
    let mut t = build();
    drive_to(&mut t, 10, DriveMode::EventDriven);
    let snap = Snapshot::capture_with_meta(
        &t,
        SnapshotMeta {
            captured_at_ms: t.now().as_millis(),
            scenario: Some("{\"hosts\": 5}".to_string()),
            at_mins: Some(10),
        },
    );
    let blob = snap.to_bytes();
    let back = Snapshot::from_bytes(&blob).expect("parse");
    assert_eq!(back.meta.at_mins, Some(10));
    assert_eq!(back.meta.scenario.as_deref(), Some("{\"hosts\": 5}"));
    assert_eq!(observe(&back.restore().expect("restore")), observe(&t));
}

/// The blob encoding is pinned: `tests/golden/snap_format.txt` holds
/// `SNAP_VERSION` and the FNV-1a of the blob of one fixed small platform.
/// Any change to what a blob's bytes are — a field added, reordered or
/// encoded differently — lands here, so it cannot go out under the old
/// version number. A blob is a function of the run (no host time reaches
/// snapshotted state), so two identically driven platforms must first
/// agree byte for byte with each other.
#[test]
fn blob_bytes_match_the_golden_for_this_format_version() {
    let blob = || {
        let mut t = build();
        schedule_chaos(&mut t);
        drive_to(&mut t, 30, DriveMode::EventDriven);
        Snapshot::capture(&t).to_bytes()
    };
    let (first, second) = (blob(), blob());
    assert!(
        first == second,
        "two identically driven platforms captured different blobs: something that is \
         not a function of the run (host time, map iteration order) is in the snapshot"
    );
    let current = format!(
        "version {}\nfnv1a default {:#018x}\n",
        turbine_snap::SNAP_VERSION,
        turbine_snap::fnv1a(&first),
    );
    let golden: String = include_str!("../golden/snap_format.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(
        golden, current,
        "the blob of the fixed platform changed. If the encoding changed: bump \
         `SNAP_VERSION` and regenerate tests/golden/snap_format.txt with the lines on the \
         right. If only behaviour moved (the same encoding of a different state), \
         regenerate without a bump and say in CHANGES.md what moved."
    );
}

/// The bus numbers its categories in creation order, and a decoded bus
/// keeps it: `job_9_input` (created first) keeps the lower id though its
/// name sorts after `job_10_input`, and each engine row keeps the id it
/// was bound to. Both runs go on to commit the same offsets against the
/// same tails.
#[test]
fn categories_created_out_of_name_order_restore_to_the_same_checkpoints() {
    let build = || {
        let mut t = Turbine::new(TurbineConfig::default());
        t.add_hosts(4, host_shape());
        t.provision_job(
            JobId(9),
            JobConfig::stateless("job_9", 2, 8),
            TrafficModel::flat(2.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t.provision_job(
            JobId(10),
            JobConfig::stateless("job_10", 2, 16),
            TrafficModel::flat(5.0e5),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t
    };
    let durable = |t: &Turbine| {
        [(JobId(9), 8), (JobId(10), 16)].map(|(job, partitions)| {
            let name = t.job_category(job).expect("provisioned");
            let tails: Vec<u64> = (0..partitions)
                .map(|p| {
                    t.scribe
                        .tail_offset(name, turbine_types::PartitionId(p))
                        .expect("tail")
                })
                .collect();
            (t.checkpoints().job_checkpoints(job), tails)
        })
    };
    let mut original = build();
    original.run_for(Duration::from_mins(30));
    let mut restored = Snapshot::capture(&original).restore().expect("restore");
    assert_eq!(durable(&original), durable(&restored));
    let ids = |t: &Turbine| {
        [JobId(9), JobId(10)].map(|job| {
            let bound = t.engine().job(job).expect("registered").category();
            let named = t
                .scribe
                .category_id(t.job_category(job).expect("provisioned"));
            assert_eq!(bound, named, "{job}: the row's id names its category");
            bound.expect("bound").index()
        })
    };
    assert_eq!(ids(&original), [0, 1]);
    assert_eq!(ids(&restored), [0, 1]);
    for t in [&mut original, &mut restored] {
        t.run_for(Duration::from_mins(30));
    }
    assert_eq!(durable(&original), durable(&restored));
    assert_eq!(original.fingerprint(), restored.fingerprint());
    let ingested = |t: &Turbine, job| t.checkpoints().job_total_ingested(job);
    assert!(ingested(&restored, JobId(9)) > ingested(&restored, JobId(10)));
}

/// A Scribe stall on a critical job's input is active across the capture,
/// with the default alert rules installed. The stalled-job set, the
/// symptom's cause and the incident's cause each find the job's category
/// through its engine row's id, so the restored run stalls the same job and
/// links the same causes as the uninterrupted one, in both drive modes.
#[test]
fn restore_mid_scribe_stall_matches_uninterrupted() {
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = Turbine::new(TurbineConfig::default());
        original.add_hosts(4, host_shape());
        for (id, name) in [(1, "stalled_crit"), (2, "flowing_crit")] {
            let mut jc = JobConfig::stateless(name, 4, 64);
            jc.max_task_count = 64;
            jc.resiliency = turbine_config::ResiliencyClass::Critical;
            original
                .provision_job(
                    JobId(id),
                    jc,
                    TrafficModel::diurnal(3.0e6, 0.2, id),
                    1.0e6,
                    256.0,
                )
                .expect("provision");
        }
        original.install_default_alert_rules();
        let category = original.job_category(JobId(1)).expect("provisioned");
        original.schedule_fault(FaultPlan {
            fault: Fault::ScribeStall(category.to_string()),
            from: SimTime::ZERO + Duration::from_mins(10),
            until: Some(SimTime::ZERO + Duration::from_mins(18)),
        });
        drive_to(&mut original, 14, mode);
        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at capture"
        );
        drive_to(&mut original, 60, mode);
        drive_to(&mut restored, 60, mode);
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at the horizon"
        );
        let incidents = restored.incidents();
        assert!(
            incidents
                .iter()
                .any(|i| i.metric.scope == turbine_ods::Scope::Job(1)),
            "{mode:?}: the stall pages: {incidents:?}"
        );
        let caused = restored
            .trace()
            .events()
            .any(|e| e.data.kind() == "incident" && e.cause.is_some());
        assert!(caused, "{mode:?}: an incident links to the stall");
    }
}

/// The root-causer's record travels inside the Auto Scaler's state: a
/// restore taken mid-lag-episode, four minutes after a diagnosis (inside
/// its 10-minute debounce), starts no new episode, re-diagnoses on the
/// uninterrupted run's schedule and matches it bit for bit.
#[test]
fn restore_mid_lag_episode_inside_the_debounce_matches_uninterrupted() {
    let diagnoses = |t: &Turbine| {
        t.diagnoses()
            .iter()
            .map(|d| (d.at, d.job, d.cause.label(), d.rationale.clone()))
            .collect::<Vec<_>>()
    };
    let minute = |m| SimTime::ZERO + Duration::from_mins(m);
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        drive_to(&mut original, 15, mode);
        // A dependency slows job 2 to a tenth: lag with capacity to spare.
        original.with_job_true_rate(JobId(2), 0.1e6);
        drive_to(&mut original, 26, mode);
        let episode = original
            .auto_scaler()
            .lag_episode(JobId(2))
            .expect("mid lag episode");
        assert!(episode.rounds >= 3, "{episode:?}");
        let last = original.diagnoses().last().expect("diagnosed").at;
        assert!(
            minute(26).since(last) < Duration::from_mins(10),
            "inside the debounce"
        );

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(restored.auto_scaler().lag_episode(JobId(2)), Some(episode));
        for t in [&mut original, &mut restored] {
            drive_to(t, 50, mode);
        }
        assert!(
            diagnoses(&original).len() >= 3,
            "re-diagnosed after the debounce: {:?}",
            diagnoses(&original)
        );
        assert_eq!(diagnoses(&original), diagnoses(&restored), "mode {mode:?}");
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
    }
}

/// A disabled scaler drains only the windows the engine marked for it, so
/// what a capture holds of the others must be nothing, and what it holds
/// of a marked job must be all of it. Job 1 is scaled down at minute 16
/// and its tasks stop at minute 17's refresh, mid-window: their bytes wait
/// in the job's window for the next scaler round. A capture there and a
/// restore: half a minute on, in which the restored engine re-settles the
/// idle job 4, both blobs are the same; then the scaler switched on: the
/// next two scaler rounds read the same windows (the scaler's registry
/// series are equal) and decide the same, and the blob's every field is
/// the same size, as in the uninterrupted run.
#[test]
fn a_restored_disabled_scaler_switched_on_reads_the_uninterrupted_windows() {
    let scaler_series = |t: &Turbine| {
        let registry = t.ods_registry();
        (1..=3u64)
            .flat_map(|job| {
                [
                    "input_rate_bps",
                    "processing_rate_bps",
                    "scaler_backlog_bytes",
                ]
                .map(|name| {
                    registry
                        .series_by_key(&turbine::MetricKey::job(job, name))
                        .map(|series| series.points().collect::<Vec<_>>())
                })
            })
            .collect::<Vec<_>>()
    };
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = build();
        original.set_scaler_enabled(false);
        original
            .provision_job(
                JobId(4),
                JobConfig::stateless("snap_idle", 1, 4),
                TrafficModel::flat(0.0),
                1.0e6,
                256.0,
            )
            .expect("provision");
        drive_to(&mut original, 16, mode);
        original
            .oncall_set(JobId(1), "task_count", turbine_config::ConfigValue::Int(2))
            .expect("store up");
        drive_to(&mut original, 17, mode);
        let status = original.job_status(JobId(1)).expect("provisioned");
        assert_eq!(status.running_tasks, 0, "stopped mid-window: {status:?}");

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        for t in [&mut original, &mut restored] {
            t.drive_for(Duration::from_secs(30), mode);
        }
        assert_eq!(
            Snapshot::capture(&original).to_bytes(),
            Snapshot::capture(&restored).to_bytes(),
            "mode {mode:?}"
        );
        for t in [&mut original, &mut restored] {
            t.set_scaler_enabled(true);
            drive_to(t, 21, mode);
        }
        assert!(
            scaler_series(&original).iter().all(Option::is_some),
            "two enabled scaler rounds published every job's inputs"
        );
        assert_eq!(
            scaler_series(&original),
            scaler_series(&restored),
            "mode {mode:?}"
        );
        assert_eq!(observe(&original), observe(&restored), "mode {mode:?}");
        assert_eq!(
            original.snap_field_bytes(),
            restored.snap_field_bytes(),
            "mode {mode:?}"
        );
    }
}

/// A container lost for two causes at once: its connection is severed at
/// 300 s and its host fails at 310 s. The capture at 350 s falls after the
/// proactive reboot (40 s after the severance), so the blob holds one lost
/// container, dated 300 s, whose severance has rebooted. Both platforms
/// then restore the connection and later the host: the restored run
/// matches the uninterrupted one, and the outage is dated from the first
/// cause.
#[test]
fn restore_mid_two_cause_loss_matches_uninterrupted() {
    let secs = |s| SimTime::ZERO + Duration::from_secs(s);
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut original = Turbine::new(TurbineConfig::default());
        original.add_hosts(3, host_shape());
        original
            .provision_job(
                JobId(1),
                JobConfig::stateless("two_causes", 2, 32),
                TrafficModel::flat(1.0e6),
                1.0e6,
                256.0,
            )
            .expect("provision");
        drive_to(&mut original, 5, mode);
        let c = original
            .task_container(turbine_types::TaskId::new(JobId(1), 0))
            .expect("task placed");
        let host = original.cluster.host_of(c).expect("container has a host");
        original.sever_connection(c);
        original.drive_for(Duration::from_secs(10), mode);
        original.fail_host(host).expect("fail host");
        original.drive_for(Duration::from_secs(40), mode);
        assert_eq!(original.now(), secs(350));

        let snapshot = Snapshot::capture(&original);
        // The `lost` field is one record (a host runs one container): its
        // onset, then `Some` severance, its time and its reboot flag.
        let fields = original.snap_field_bytes();
        let end: usize = fields
            .iter()
            .take_while(|f| f.0 != "outages")
            .map(|f| f.1)
            .sum();
        let stream = &snapshot.to_bytes()[..];
        let stream = &stream[stream.len() - snapshot.stream_len() as usize..];
        let record = &stream[end - 18..end];
        assert_eq!(record[..8], 300_000u64.to_le_bytes(), "{mode:?}: onset");
        assert_eq!(
            (record[8], record[17]),
            (1, 1),
            "{mode:?}: severed, rebooted"
        );

        let mut restored = snapshot.restore().expect("restore");
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at capture"
        );
        for t in [&mut original, &mut restored] {
            t.drive_for(Duration::from_secs(30), mode);
            t.restore_connection(c);
            t.drive_for(Duration::from_secs(40), mode);
            t.recover_host(host).expect("recover host");
            drive_to(t, 20, mode);
        }
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at the horizon"
        );
        let first = restored
            .metrics
            .recoveries
            .iter()
            .find(|r| r.job == JobId(1))
            .expect("job recovered");
        assert_eq!(first.at.as_millis() - first.ms, 300_000, "{mode:?}: onset");
    }
}

/// A capture while a container is suspect but not yet dead: its connection
/// is severed at 305 s, so it misses the beats from 310 s on and the Shard
/// Manager records it as silent, last heard at 300 s. The capture at 335 s
/// falls after the standby grace and before the reboot (345 s) and the
/// fail-over (360 s), so the blob holds the one silent entry. Both
/// platforms then ride the reboot and the fail-over, get the connection
/// back and reach the horizon alike, and date the outage from the
/// severance.
#[test]
fn restore_mid_silence_matches_uninterrupted() {
    let secs = |s| SimTime::ZERO + Duration::from_secs(s);
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        // A 5 s tick puts the severance between two beats.
        let mut original = Turbine::new(TurbineConfig {
            tick: Duration::from_secs(5),
            ..TurbineConfig::default()
        });
        original.add_hosts(3, host_shape());
        original
            .provision_job(
                JobId(1),
                JobConfig::stateless("silence", 2, 32),
                TrafficModel::flat(1.0e6),
                1.0e6,
                256.0,
            )
            .expect("provision");
        drive_to(&mut original, 5, mode);
        original.drive_for(Duration::from_secs(5), mode);
        let c = original
            .task_container(turbine_types::TaskId::new(JobId(1), 0))
            .expect("task placed");
        original.sever_connection(c);
        original.drive_for(Duration::from_secs(30), mode);
        assert_eq!(original.now(), secs(335));
        let manager = original.shard_manager();
        assert_eq!(
            manager.silent().collect::<Vec<_>>(),
            [(c, secs(300))],
            "{mode:?}: the one silent container"
        );
        assert!(manager.is_suspect(c, secs(335)), "{mode:?}: suspect");

        let mut restored = Snapshot::capture(&original).restore().expect("restore");
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at capture"
        );
        for t in [&mut original, &mut restored] {
            t.drive_for(Duration::from_secs(45), mode);
            assert_eq!(
                t.shard_manager().status(c),
                Some(turbine_shardmgr::ContainerStatus::Dead),
                "{mode:?}: failed over at 360 s"
            );
            t.restore_connection(c);
            drive_to(t, 20, mode);
            assert_eq!(
                t.shard_manager().silent().count(),
                0,
                "{mode:?}: heard again"
            );
        }
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{mode:?}: at the horizon"
        );
        let onsets = |t: &Turbine| {
            t.metrics
                .recoveries
                .iter()
                .map(|r| (r.job, r.at.as_millis() - r.ms))
                .collect::<Vec<_>>()
        };
        assert_eq!(onsets(&original), onsets(&restored), "{mode:?}: onsets");
        assert_eq!(
            onsets(&original).first(),
            Some(&(JobId(1), 305_000)),
            "{mode:?}: dated from the severance"
        );
    }
}
