//! Scheduler-equivalence properties: the event-driven control plane must
//! reproduce the dense-tick reference stepper bit-for-bit under
//! randomized control cadences, fault plans, and host flaps — plus
//! deterministic checks of the tick-vs-cadence validation and the
//! sparse-jump path.

use proptest::prelude::*;
use turbine::{DriveMode, Fault, FaultPlan, Turbine, TurbineConfig};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

fn host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// A platform under the given config with two pipelines: one diurnal
/// stateless job and one flat job, enough activity to exercise every
/// control loop.
fn build(config: TurbineConfig) -> Turbine {
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(4, host());
    turbine
        .provision_job(
            JobId(1),
            JobConfig::stateless("sched_eq_diurnal", 4, 16),
            TrafficModel::diurnal(3.0e6, 0.3, 11),
            1.0e6,
            256.0,
        )
        .expect("provision");
    turbine
        .provision_job(
            JobId(2),
            JobConfig::stateless("sched_eq_flat", 2, 16),
            TrafficModel::flat(1.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
    turbine
}

/// Drive `hours` of simulated time in uneven chunks (mirroring how the
/// CLI runner drives minute-by-minute) and return the fingerprint.
fn drive(
    config: TurbineConfig,
    plan: &[FaultPlan],
    flap_at: Option<u64>,
    hours: u64,
    mode: DriveMode,
) -> turbine::PlatformFingerprint {
    let mut turbine = build(config);
    for p in plan {
        turbine.schedule_fault(p.clone());
    }
    if let Some(minute) = flap_at {
        let host = turbine.cluster.hosts()[3];
        turbine.drive_for(Duration::from_mins(minute), mode);
        turbine.fail_host(host).expect("fail");
        turbine.drive_for(Duration::from_mins(20), mode);
        turbine.recover_host(host).expect("recover");
    }
    let end = SimTime::ZERO + Duration::from_hours(hours);
    while turbine.now() < end {
        turbine.drive_for(Duration::from_mins(7), mode);
    }
    turbine.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any cadence configuration on the tick grid and any small fault
    /// plan, the event-driven scheduler's observable state equals the
    /// dense-tick reference bit-for-bit.
    #[test]
    fn event_driven_matches_dense_reference(
        sync_ticks in 1u64..8,
        tm_ticks in 2u64..10,
        heartbeat_ticks in 1u64..4,
        scaler_mins in 1u64..6,
        checkpoint_ticks in 3u64..12,
        fault_kind in 0usize..4,
        fault_from_mins in 10u64..60,
        fault_len_mins in 1u64..30,
        flap_at_raw in 0u64..40,
    ) {
        // Values below 5 mean "no host flap"; the rest flap at that minute.
        let flap_at = (flap_at_raw >= 5).then_some(flap_at_raw);
        let tick = Duration::from_secs(10);
        let mut config = TurbineConfig::default();
        config.sync_interval = tick.mul(sync_ticks);
        config.tm_refresh_interval = tick.mul(tm_ticks);
        config.heartbeat_interval = tick.mul(heartbeat_ticks);
        config.scaler_interval = Duration::from_mins(scaler_mins);
        config.checkpoint_interval = tick.mul(checkpoint_ticks);
        let fault = match fault_kind {
            0 => Fault::TaskServiceDown,
            1 => Fault::JobStoreDown,
            2 => Fault::SyncerCrash,
            _ => Fault::ScribeStall("sched_eq_flat_input".to_string()),
        };
        let from = SimTime::ZERO + Duration::from_mins(fault_from_mins);
        let plan = vec![FaultPlan {
            fault,
            from,
            until: Some(from + Duration::from_mins(fault_len_mins)),
        }];
        let dense = drive(config.clone(), &plan, flap_at, 3, DriveMode::DenseTick);
        let event = drive(config, &plan, flap_at, 3, DriveMode::EventDriven);
        prop_assert_eq!(dense, event);
    }

    /// With no traffic and no faults the event-driven run sparse-jumps
    /// most of the grid, yet still matches the dense reference exactly.
    #[test]
    fn quiescent_sparse_jumps_preserve_state(
        quiet_hours in 2u64..12,
        rate_mb in 1.0f64..4.0,
    ) {
        // Cadences sparser than the tick, so the grid has idle instants
        // the event-driven mode can actually jump over (with the default
        // 10 s heartbeat every instant hosts a control event).
        let mut config = TurbineConfig::default();
        config.heartbeat_interval = Duration::from_secs(60);
        config.sync_interval = Duration::from_secs(60);
        config.tm_refresh_interval = Duration::from_secs(120);
        config.checkpoint_interval = Duration::from_secs(120);
        let fingerprints: Vec<_> = [DriveMode::DenseTick, DriveMode::EventDriven]
            .into_iter()
            .map(|mode| {
                let mut turbine = Turbine::new(config.clone());
                turbine.add_hosts(2, host());
                // Live for the first 30 min, then an outage covers the
                // whole remainder: the fleet drains and goes quiescent.
                let outage_from = SimTime::ZERO + Duration::from_mins(30);
                let outage_until = SimTime::ZERO + Duration::from_hours(quiet_hours + 2);
                turbine
                    .provision_job(
                        JobId(1),
                        JobConfig::stateless("sched_eq_quiet", 2, 8),
                        TrafficModel::flat(rate_mb * 1.0e6).with_event(TrafficEvent {
                            start: outage_from,
                            end: outage_until,
                            kind: TrafficEventKind::InputOutage,
                        }),
                        1.0e6,
                        256.0,
                    )
                    .expect("provision");
                turbine.drive_for(Duration::from_hours(quiet_hours), mode);
                (turbine.fingerprint(), turbine.metrics.ticks_executed.get())
            })
            .collect();
        prop_assert_eq!(&fingerprints[0].0, &fingerprints[1].0);
        // The event-driven run must actually have skipped grid instants.
        prop_assert!(fingerprints[1].1 < fingerprints[0].1,
            "event mode executed {} ticks, dense {}", fingerprints[1].1, fingerprints[0].1);
    }
}

#[test]
fn tick_exceeding_a_cadence_is_rejected_with_a_clear_error() {
    let mut config = TurbineConfig::default();
    config.tick = Duration::from_secs(60);
    config.sync_interval = Duration::from_secs(30);
    // Keep every other cadence legal so the error names the sync loop.
    config.heartbeat_interval = Duration::from_secs(120);
    let Err(err) = Turbine::try_new(config) else {
        panic!("tick > sync cadence must be rejected");
    };
    assert!(
        err.contains("sync_interval") && err.contains("state syncer"),
        "error must name the offending cadence: {err}"
    );
}

#[test]
fn zero_tick_is_rejected() {
    let mut config = TurbineConfig::default();
    config.tick = Duration::ZERO;
    assert!(Turbine::try_new(config).is_err());
}

#[test]
fn zero_syncer_max_failures_is_rejected_not_a_panic() {
    let mut config = TurbineConfig::default();
    config.syncer.max_failures = 0;
    let Err(err) = Turbine::try_new(config) else {
        panic!("a syncer that quarantines before its first sync must be rejected");
    };
    assert!(
        err.contains("max_failures"),
        "error must name the field: {err}"
    );
}

#[test]
#[should_panic(expected = "invalid TurbineConfig")]
fn new_panics_on_invalid_config() {
    let mut config = TurbineConfig::default();
    config.tick = Duration::from_mins(5);
    config.heartbeat_interval = Duration::from_secs(10);
    let _ = Turbine::new(config);
}

#[test]
fn default_config_is_valid() {
    assert!(TurbineConfig::default().validate().is_ok());
}
