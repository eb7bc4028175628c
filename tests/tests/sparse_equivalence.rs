//! Sparse-data-plane equivalence: with `sparse_data_plane` on, syncer
//! rounds walk only the attention set plus the Job Store changelog delta,
//! invariant checks walk only dirty scopes (per job: the jobs the engine
//! reshaped plus those the control loops marked, never those a tick only
//! moved backlog or usage in), and load reports skip unchanged
//! containers — yet every observable outcome (fingerprints, violations,
//! SLO records) must match the full-scan paths bit for bit. The checker's
//! built-in audit re-runs a full scan every N sparse checks and counts
//! disagreements; any mismatch means a dirty-marking site is missing.
//! Work counters, not clocks, show the sparse paths' cost follows change.

use proptest::prelude::*;
use turbine::{Fault, FaultPlan, InvariantConfig, Turbine, TurbineConfig, Violation};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::TrafficModel;

fn host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// A platform with enough variety to exercise every sparse path: a
/// diurnal stateless job, a flat stateless job, and a stateful critical
/// job (warm standby + complex syncs + shadow cursors).
fn build(sparse: bool) -> Turbine {
    let config = TurbineConfig {
        sparse_data_plane: sparse,
        ..TurbineConfig::default()
    };
    let mut t = Turbine::new(config);
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

/// Everything the sparse/full comparison must agree on. Shard-load-map
/// equivalence is covered transitively: rebalance decisions read the
/// loads, and their moves land in the fingerprint's counters and
/// placements.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: turbine::PlatformFingerprint,
    violations: Vec<Violation>,
}

fn drive(sparse: bool, plan: &[FaultPlan], flap_minute: Option<u64>, scale_to: u32) -> Observed {
    let mut t = build(sparse);
    for p in plan {
        t.schedule_fault(p.clone());
    }
    t.run_for(Duration::from_mins(20));
    // Mid-run interventions: an oncall scale (drives a redistribution and
    // a changelog burst) and optionally a host flap (fail-over + standby
    // churn + cluster-scope dirt).
    // May land inside a JobStoreDown window — both modes hit the same
    // deterministic refusal, so the outcome stays comparable either way.
    let _ = t.oncall_set(JobId(1), "task_count", ConfigValue::Int(scale_to as i64));
    if let Some(minute) = flap_minute {
        t.run_for(Duration::from_mins(minute));
        let victim = t.cluster.hosts()[4];
        t.fail_host(victim).expect("fail");
        t.run_for(Duration::from_mins(25));
        t.recover_host(victim).expect("recover");
    }
    let end = SimTime::ZERO + Duration::from_hours(3);
    while t.now() < end {
        t.run_for(Duration::from_mins(9));
    }
    let checker = t.invariant_checker().expect("enabled");
    if sparse {
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
            _ => Fault::HeartbeatLoss(turbine_types::ContainerId(2)),
        };
        let from = SimTime::ZERO + Duration::from_mins(fault_from_mins);
        let plan = vec![FaultPlan {
            fault,
            from,
            until: Some(from + Duration::from_mins(fault_len_mins)),
        }];
        let full = drive(false, &plan, flap_minute, scale_to);
        let sparse = drive(true, &plan, flap_minute, scale_to);
        prop_assert_eq!(full, sparse);
    }
}

/// A quiescent fleet settles: after convergence, sparse syncer rounds
/// examine no jobs at all while full rounds keep walking every job —
/// the work reduction the scale gate measures, asserted at test scale.
#[test]
fn quiescent_sparse_rounds_do_no_per_job_work() {
    let mut sparse = build(true);
    let mut full = build(false);
    sparse.run_for(Duration::from_hours(1));
    full.run_for(Duration::from_hours(1));
    let s0 = sparse.metrics.sync_jobs_examined.get();
    let f0 = full.metrics.sync_jobs_examined.get();
    // Second hour: all jobs converged, traffic flat-ish — the sparse
    // syncer should examine almost nothing while full re-walks 3 jobs
    // every 30 s round.
    sparse.run_for(Duration::from_hours(1));
    full.run_for(Duration::from_hours(1));
    let s_delta = sparse.metrics.sync_jobs_examined.get() - s0;
    let f_delta = full.metrics.sync_jobs_examined.get() - f0;
    assert!(
        s_delta * 5 <= f_delta,
        "sparse rounds must do at least 5x less per-job syncer work once \
         converged: sparse examined {s_delta}, full examined {f_delta}"
    );
    assert_eq!(full.fingerprint(), sparse.fingerprint());
}

/// `jobs` flat-traffic jobs, each busy at every tick, on one host per
/// job, the scaler off; converged. Returns the checker's work and its
/// check count over the next 30 minutes, in which nothing intervenes.
fn busy_window(jobs: u64) -> (u64, u64) {
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
    let checker = t.invariant_checker().expect("enabled");
    let (work, checks) = (checker.jobs_examined(), checker.ticks_checked());
    t.run_for(Duration::from_mins(30));
    let checker = t.invariant_checker().expect("enabled");
    assert_eq!(checker.audit_mismatches(), 0);
    (
        checker.jobs_examined() - work,
        checker.ticks_checked() - checks,
    )
}

/// The checker's work is a function of what changed, not of fleet size:
/// on a converged fleet whose every job moves backlog and usage at every
/// tick but none is reshaped, four times the jobs cost at most 10 % more
/// checker work, and less than one job per check. A checker fed the
/// tick's dirt would examine every busy job at every check (4×).
#[test]
fn invariant_work_grows_with_change_not_with_the_fleet() {
    let (small, small_checks) = busy_window(4);
    let (large, large_checks) = busy_window(16);
    assert_eq!(small_checks, large_checks, "both spans check every instant");
    assert!(
        large * 10 <= small * 11,
        "4x the jobs cost {large} examined vs {small}: work grew with the fleet"
    );
    assert!(
        large < large_checks,
        "{large} jobs examined over {large_checks} checks: not below one per check"
    );
}
