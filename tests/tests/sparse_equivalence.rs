//! Sparse-data-plane equivalence: on the production path syncer rounds
//! walk only the attention set plus the jobs the Job Store fed the
//! syncer, invariant checks walk only dirty scopes (per job: the jobs the
//! engine's and the store's change feeds hold for the checker plus those
//! the control loops marked, never those a tick only moved backlog or
//! usage in), and load reports skip unchanged
//! containers — yet every observable outcome (fingerprints, violations,
//! SLO records) must match `DriveMode::FullScan`, which hands the same
//! round bodies every job, scope and container at each instant, bit for
//! bit. The checker's built-in audit re-runs a full scan every N checks
//! and counts disagreements; any mismatch means a dirty-marking site is
//! missing. Work counters, not clocks, show the sparse paths' cost
//! follows change, and that the reference really scans everything.

use proptest::prelude::*;
use turbine::engine::TickWork;
use turbine::{DriveMode, Fault, FaultPlan, InvariantConfig, Turbine, TurbineConfig, Violation};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{ContainerId, Duration, JobId, Resources, SimTime, SnapWriter};
use turbine_workloads::TrafficModel;

fn host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// A platform with enough variety to exercise every sparse path: a
/// diurnal stateless job, a flat stateless job, and a stateful critical
/// job (warm standby + complex syncs + shadow cursors).
fn build() -> Turbine {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(5, host());
    t.provision_job(
        JobId(1),
        JobConfig::stateless("sparse_eq_diurnal", 4, 16),
        TrafficModel::diurnal(3.0e6, 0.3, 7),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.provision_job(
        JobId(2),
        JobConfig::stateless("sparse_eq_flat", 2, 16),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    let mut critical = JobConfig::stateless("sparse_eq_state", 3, 16);
    critical.resiliency = turbine_config::ResiliencyClass::Critical;
    t.provision_stateful_job(
        JobId(3),
        critical,
        TrafficModel::flat(2.0e6),
        1.0e6,
        256.0,
        1.0e5,
    )
    .expect("provision");
    t.enable_invariant_checks(InvariantConfig::default());
    t
}

/// Everything the sparse/full comparison must agree on. The shard loads
/// the load reports write are not in it: a rebalance reads them, but one
/// that moves nothing either way hides a wrong load. They are compared
/// directly in
/// `sparse_and_full_load_reports_leave_byte_equal_shard_managers`.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: turbine::PlatformFingerprint,
    violations: Vec<Violation>,
}

fn drive(mode: DriveMode, plan: &[FaultPlan], flap_minute: Option<u64>, scale_to: u32) -> Observed {
    let mut t = build();
    for p in plan {
        t.schedule_fault(p.clone());
    }
    t.drive_for(Duration::from_mins(20), mode);
    // Mid-run interventions: an oncall scale (drives a redistribution and
    // a burst of store changes) and optionally a host flap (fail-over + standby
    // churn + cluster-scope dirt).
    // May land inside a JobStoreDown window — both modes hit the same
    // deterministic refusal, so the outcome stays comparable either way.
    let _ = t.oncall_set(JobId(1), "task_count", ConfigValue::Int(scale_to as i64));
    if let Some(minute) = flap_minute {
        t.drive_for(Duration::from_mins(minute), mode);
        let victim = t.cluster.hosts()[4];
        t.fail_host(victim).expect("fail");
        t.drive_for(Duration::from_mins(25), mode);
        t.recover_host(victim).expect("recover");
    }
    let end = SimTime::ZERO + Duration::from_hours(3);
    while t.now() < end {
        t.drive_for(Duration::from_mins(9), mode);
    }
    let checker = t.invariant_checker().expect("enabled");
    if mode == DriveMode::EventDriven {
        assert!(
            checker.audit_rounds() > 0,
            "the soak must be long enough for at least one full-scan audit"
        );
        assert_eq!(
            checker.audit_mismatches(),
            0,
            "sparse invariant checks disagreed with a full-scan audit"
        );
    }
    Observed {
        fingerprint: t.fingerprint(),
        violations: t.invariant_violations().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any small fault plan, oncall scale, and optional host flap,
    /// the sparse data plane is observably identical to the full-scan
    /// one: same fingerprint bits, same violations, and zero audit
    /// mismatches inside the sparse checker.
    #[test]
    fn sparse_and_full_data_planes_are_observably_identical(
        fault_kind in 0usize..4,
        fault_from_mins in 5u64..80,
        fault_len_mins in 1u64..25,
        flap_raw in 0u64..60,
        scale_to in 1u32..8,
    ) {
        let flap_minute = (flap_raw >= 10).then_some(flap_raw);
        let fault = match fault_kind {
            0 => Fault::TaskServiceDown,
            1 => Fault::JobStoreDown,
            2 => Fault::SyncerCrash,
            _ => Fault::HeartbeatLoss(ContainerId(2)),
        };
        let from = SimTime::ZERO + Duration::from_mins(fault_from_mins);
        let plan = vec![FaultPlan {
            fault,
            from,
            until: Some(from + Duration::from_mins(fault_len_mins)),
        }];
        let full = drive(DriveMode::FullScan, &plan, flap_minute, scale_to);
        let sparse = drive(DriveMode::EventDriven, &plan, flap_minute, scale_to);
        prop_assert_eq!(full, sparse);
    }
}

/// The Shard Manager's bytes — shard loads, assignment, liveness, standby
/// registrations — after every load report, with the sparse report (only
/// containers whose ownership or task usage moved) against the full one
/// (every container), through an oncall scale, a host flap and a severed
/// connection.
#[test]
fn sparse_and_full_load_reports_leave_byte_equal_shard_managers() {
    let mut twins = [
        (build(), DriveMode::FullScan),
        (build(), DriveMode::EventDriven),
    ];
    let from = SimTime::ZERO + Duration::from_mins(65);
    for (t, _) in &mut twins {
        t.schedule_fault(FaultPlan {
            fault: Fault::HeartbeatLoss(ContainerId(2)),
            from,
            until: Some(from + Duration::from_mins(15)),
        });
    }
    let encoded = |t: &Turbine| {
        let mut w = SnapWriter::new();
        w.put(t.shard_manager());
        w.into_bytes()
    };
    let victim = twins[0].0.cluster.hosts()[4];
    // Ten-minute steps land on every load report (cadence 10 minutes).
    for step in 1..=18u64 {
        for (t, mode) in &mut twins {
            match step {
                3 => t
                    .oncall_set(JobId(1), "task_count", ConfigValue::Int(6))
                    .expect("store up"),
                5 => t.fail_host(victim).expect("fail"),
                8 => t.recover_host(victim).expect("recover"),
                _ => {}
            }
            t.drive_for(Duration::from_mins(10), *mode);
        }
        assert!(
            encoded(&twins[0].0) == encoded(&twins[1].0),
            "shard managers diverged at minute {}",
            step * 10
        );
    }
    let [(full, _), (sparse, _)] = &twins;
    assert_eq!(full.fingerprint(), sparse.fingerprint());
    let sent = |t: &Turbine| t.metrics.load_reports_sent.get();
    assert!(
        sent(sparse) < sent(full),
        "the sparse round must skip something: {} vs {}",
        sent(sparse),
        sent(full)
    );
}

/// A quiescent fleet settles: after convergence, sparse syncer rounds
/// examine no jobs at all while full rounds keep walking every job —
/// the work reduction the scale gate measures, asserted at test scale.
#[test]
fn quiescent_sparse_rounds_do_no_per_job_work() {
    let mut sparse = build();
    let mut full = build();
    sparse.run_for(Duration::from_hours(1));
    full.drive_for(Duration::from_hours(1), DriveMode::FullScan);
    let s0 = sparse.metrics.sync_jobs_examined.get();
    let f0 = full.metrics.sync_jobs_examined.get();
    // Second hour: all jobs converged, traffic flat-ish — the sparse
    // syncer should examine almost nothing while full re-walks 3 jobs
    // every 30 s round.
    sparse.run_for(Duration::from_hours(1));
    full.drive_for(Duration::from_hours(1), DriveMode::FullScan);
    let s_delta = sparse.metrics.sync_jobs_examined.get() - s0;
    let f_delta = full.metrics.sync_jobs_examined.get() - f0;
    assert!(
        s_delta * 5 <= f_delta,
        "sparse rounds must do at least 5x less per-job syncer work once \
         converged: sparse examined {s_delta}, full examined {f_delta}"
    );
    assert_eq!(full.fingerprint(), sparse.fingerprint());
}

/// Work counters over a quiet window; see [`busy_window`].
struct WindowWork {
    /// Jobs the invariant checker examined.
    checker_jobs: u64,
    /// Invariant checks run.
    checks: u64,
    /// Containers that sent a load report.
    load_reports: u64,
    /// Containers in the Shard Manager's silent table after the window.
    silent: usize,
    /// The same after severing one container and beating twice more.
    silent_after_sever: usize,
}

/// `jobs` flat-traffic jobs, each busy at every tick, on one host per
/// job, the scaler off; converged. Returns the work counters' growth over
/// the next 30 minutes, in which nothing intervenes, and the size of the
/// Shard Manager's silent table then and after one container is severed.
fn busy_window(jobs: u64) -> WindowWork {
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    t.add_hosts(jobs as usize, host());
    for j in 1..=jobs {
        t.provision_job(
            JobId(j),
            JobConfig::stateless(&format!("busy_{j}"), 2, 8),
            TrafficModel::flat(1.5e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
    }
    t.enable_invariant_checks(InvariantConfig::default());
    t.run_for(Duration::from_mins(30));
    for j in 1..=jobs {
        let status = t.job_status(JobId(j)).expect("provisioned");
        assert_eq!(status.running_tasks, 2, "converged");
    }
    assert_eq!(t.engine().active_jobs(), jobs as usize, "every job busy");
    let counters = |t: &Turbine| {
        let checker = t.invariant_checker().expect("enabled");
        WindowWork {
            checker_jobs: checker.jobs_examined(),
            checks: checker.ticks_checked(),
            load_reports: t.metrics.load_reports_sent.get(),
            silent: t.shard_manager().silent().count(),
            silent_after_sever: 0,
        }
    };
    let before = counters(&t);
    t.run_for(Duration::from_mins(30));
    assert_eq!(
        t.invariant_checker().expect("enabled").audit_mismatches(),
        0
    );
    let after = counters(&t);
    let severed = *t.task_managers().keys().next().expect("a container");
    t.sever_connection(severed);
    t.run_for(Duration::from_secs(20));
    WindowWork {
        checker_jobs: after.checker_jobs - before.checker_jobs,
        checks: after.checks - before.checks,
        load_reports: after.load_reports - before.load_reports,
        silent: after.silent,
        silent_after_sever: t.shard_manager().silent().count(),
    }
}

/// The checker's work is a function of what changed, not of fleet size:
/// on a converged fleet whose every job moves backlog at every tick but
/// no mutation touches, four times the jobs cost at most 10 % more checker
/// work, and less than one job per check. A checker fed the tick's dirt
/// would examine every busy job at every check (4×).
#[test]
fn invariant_work_grows_with_change_not_with_the_fleet() {
    let (small, large) = (busy_window(4), busy_window(16));
    assert_eq!(small.checks, large.checks, "both spans check every instant");
    let (small, large, checks) = (small.checker_jobs, large.checker_jobs, large.checks);
    assert!(
        large * 10 <= small * 11,
        "4x the jobs cost {large} examined vs {small}: work grew with the fleet"
    );
    assert!(
        large < checks,
        "{large} jobs examined over {checks} checks: not below one per check"
    );
}

/// The per-container rounds cost what changed, not the fleet: on the same
/// converged busy fleet, whose tasks' usage holds while their backlog
/// moves, four times the containers send no more load reports — none at
/// either size — and leave nothing in the Shard Manager's silent table,
/// which is all a beat walks. Load reports that followed backlog would
/// grow 4× (every busy job's containers at every round). One severed
/// container is one silent entry at either size.
#[test]
fn per_container_rounds_grow_with_change_not_with_the_fleet() {
    let (small, large) = (busy_window(4), busy_window(16));
    assert_eq!(
        (small.load_reports, large.load_reports),
        (0, 0),
        "load reports: a quiet window costs nothing"
    );
    assert_eq!(
        (small.silent, large.silent),
        (0, 0),
        "a converged fleet is heard"
    );
    assert_eq!(
        (small.silent_after_sever, large.silent_after_sever),
        (1, 1),
        "one severed container is the one silent entry"
    );
}

/// The work gate of the data plane on `quiet_fleet`'s mix: one job at a
/// flat 1 MB/s for every 19 idle ones, ten tasks and 32 partitions each.
/// Once the fleet has converged, the live jobs are lazy and the idle ones
/// settled, so a tick visits no runtime and walks no task, at `jobs` = 20
/// and at four times that. Counted exactly by the engine, not timed.
fn quiet_fleet_tick_work(jobs: u64) -> Vec<TickWork> {
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    // Twenty tasks to a host on average: room to spare, as on
    // `quiet_fleet`'s one host per job.
    t.add_hosts((jobs / 2) as usize, host());
    for j in 1..=jobs {
        let rate = if j % 20 == 0 { 1.0e6 } else { 0.0 };
        t.provision_job(
            JobId(j),
            JobConfig::stateless(&format!("quiet_mix_{j}"), 10, 32),
            TrafficModel::flat(rate),
            1.0e6,
            256.0,
        )
        .expect("provision");
    }
    t.run_for(Duration::from_mins(30));
    assert_eq!(
        t.engine().active_jobs() as u64,
        jobs / 20,
        "the live jobs lazy, the idle ones settled"
    );
    let tick = t.config().tick;
    (0..30)
        .map(|_| {
            t.run_for(tick);
            t.engine().last_tick_work()
        })
        .collect()
}

#[test]
fn a_converged_quiet_fleet_tick_visits_no_job_at_any_size() {
    for jobs in [20, 80] {
        let work = quiet_fleet_tick_work(jobs);
        assert_eq!(work, vec![TickWork::default(); 30], "{jobs} jobs");
    }
}

/// Scaler windows a disabled scaler drains over 30 quiet minutes, and the
/// scaler rounds in them, on a converged fleet of two busy jobs beside
/// `idle` jobs that receive nothing.
fn quiet_scaler_windows(idle: u64) -> (u64, u64) {
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    t.add_hosts(4, host());
    for j in 1..=2 + idle {
        let rate = if j <= 2 { 1.5e6 } else { 0.0 };
        t.provision_job(
            JobId(j),
            JobConfig::stateless(&format!("quiet_{j}"), 1, 4),
            TrafficModel::flat(rate),
            1.0e6,
            256.0,
        )
        .expect("provision");
    }
    t.run_for(Duration::from_mins(30));
    assert_eq!(t.engine().active_jobs(), 2, "the idle jobs settled");
    let before = t.scaler_windows_drained();
    t.run_for(Duration::from_mins(30));
    let rounds = Duration::from_mins(30).as_millis() / t.config().scaler_interval.as_millis();
    (t.scaler_windows_drained() - before, rounds)
}

/// A disabled scaler's round costs the jobs whose windows can hold
/// something, not the fleet: with four times the idle jobs it drains the
/// same windows, exactly the two busy jobs' at each round. A round that
/// drained every job's window would grow with the idle jobs.
#[test]
fn a_disabled_scaler_drains_the_busy_jobs_windows_alone() {
    let (small, rounds) = quiet_scaler_windows(8);
    let (large, _) = quiet_scaler_windows(32);
    assert_eq!(rounds, 15);
    assert_eq!((small, large), (2 * rounds, 2 * rounds));
}

/// A job that settles between two rounds of a disabled scaler leaves its
/// window behind: earlier ticks wrote it, and the round no longer finds the
/// job among those the tick walks. Its input stops at minute 20:30, it
/// settles, and the scaler is switched on at minute 23. The first enabled
/// rounds must read the windows the full-scan reference, which drains
/// every job's window at every round, reads.
#[test]
fn a_disabled_scaler_discards_the_window_of_a_job_that_settled() {
    let run = |mode: DriveMode| {
        let mut t = Turbine::new(TurbineConfig {
            scaler_enabled: false,
            ..TurbineConfig::default()
        });
        t.add_hosts(2, host());
        let outage = turbine_workloads::TrafficEvent {
            start: SimTime::ZERO + Duration::from_secs(20 * 60 + 30),
            end: SimTime::ZERO + Duration::from_hours(2),
            kind: turbine_workloads::TrafficEventKind::InputOutage,
        };
        for (j, traffic) in [
            (1, TrafficModel::flat(1.5e6).with_event(outage)),
            (2, TrafficModel::flat(1.5e6)),
        ] {
            t.provision_job(
                JobId(j),
                JobConfig::stateless(&format!("settling_{j}"), 2, 8),
                traffic,
                1.0e6,
                256.0,
            )
            .expect("provision");
        }
        t.drive_for(Duration::from_mins(23), mode);
        assert_eq!(t.engine().active_jobs(), 1, "job 1 settled");
        t.set_scaler_enabled(true);
        t.drive_for(Duration::from_mins(5), mode);
        let rates = ["input_rate_bps", "processing_rate_bps"].map(|name| {
            t.ods_registry()
                .series_by_key(&turbine::MetricKey::job(1, name))
                .expect("published")
                .points()
                .collect::<Vec<_>>()
        });
        (t.fingerprint(), rates)
    };
    assert_eq!(run(DriveMode::EventDriven), run(DriveMode::FullScan));
}

/// The reference is not vacuous: under `DriveMode::FullScan` every sync
/// round examines every job in the expected ∪ running tables (here the
/// three provisioned jobs, none of which is deleted), every load-report
/// round sends one report per Task Manager, and every invariant check
/// examines every engine job and scans every flagged scope, and every
/// scaler round drains every engine job's window, the scaler enabled or
/// not — through an oncall scale and a host flap as well as the quiet
/// spans in between.
/// Were the reference to stop handing the rounds everything, it would do
/// the production path's work and every equivalence test above would
/// pass without comparing anything.
#[test]
fn the_full_scan_reference_hands_every_round_everything() {
    let mut t = build();
    let step = t.config().sync_interval;
    let report_every = t.config().load_report_interval;
    let scale_every = t.config().scaler_interval;
    let victim = t.cluster.hosts()[4];
    let jobs = t.job_ids().len() as u64;
    let containers = t.task_managers().len() as u64;
    assert_eq!((jobs, containers), (3, 5));
    let work = |t: &Turbine| {
        let checker = t.invariant_checker().expect("enabled");
        [
            t.metrics.sync_jobs_examined.get(),
            t.metrics.load_reports_sent.get(),
            checker.ticks_checked(),
            checker.jobs_examined(),
            checker.scopes_scanned(),
            t.scaler_windows_drained(),
        ]
    };
    let mut reports_due = 0;
    for i in 1..=240u64 {
        match i {
            40 => t
                .oncall_set(JobId(1), "task_count", ConfigValue::Int(6))
                .expect("store up"),
            120 => t.fail_host(victim).expect("fail"),
            170 => t.recover_host(victim).expect("recover"),
            200 => t.set_scaler_enabled(false),
            _ => {}
        }
        let before = work(&t);
        t.drive_for(step, DriveMode::FullScan);
        let after = work(&t);
        let [synced, reported, checks, examined, scopes, drained] =
            std::array::from_fn(|k| after[k] - before[k]);
        let at = t.now();
        assert_eq!(synced, jobs, "{at}: one sync round over every job");
        let scaler_round = at.as_millis().is_multiple_of(scale_every.as_millis());
        assert_eq!(
            drained,
            if scaler_round { jobs } else { 0 },
            "{at}: every job's window at a scaler round"
        );
        let report_round = at.as_millis().is_multiple_of(report_every.as_millis());
        reports_due += u64::from(report_round);
        assert_eq!(
            reported,
            if report_round { containers } else { 0 },
            "{at}: one report per Task Manager at a load-report round"
        );
        assert!(checks > 0, "{at}: checked");
        assert!(
            examined >= checks * t.engine().job_ids().len() as u64,
            "{at}: {examined} jobs examined over {checks} checks"
        );
        assert_eq!(scopes, 4 * checks, "{at}: every scope at every check");
    }
    assert_eq!(reports_due, 12, "two hours of ten-minute load reports");
    let checker = t.invariant_checker().expect("enabled");
    assert_eq!(checker.audit_mismatches(), 0);
}
