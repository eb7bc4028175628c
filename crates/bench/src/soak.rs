//! The chaos-soak scenario: a seeded multi-fault timeline against the
//! whole platform, with the default alert rules installed and the
//! invariant checker on every tick. `chaos_soak` is its gate.

use crate::{experiment_config, scuba_host};
use turbine::{DriveMode, Fault, FaultPlan, InvariantConfig, Turbine};
use turbine_config::{JobConfig, ResiliencyClass};
use turbine_sim::SimRng;
use turbine_types::{Duration, HostId, JobId, SimTime, TaskId};
use turbine_workloads::TrafficModel;

/// One host flap derived from the seed: fail at `fail_at`, recover at
/// `recover_at`.
pub struct HostFlap {
    /// Index into the soak platform's host list.
    pub host: usize,
    /// When the host fails.
    pub fail_at: SimTime,
    /// When the host recovers.
    pub recover_at: SimTime,
}

/// Sparse checks between two full-scan audits: a 30-minute smoke checks
/// 180 instants, so it audits 11 times. The audit is pure, so its cadence
/// moves no digest.
const AUDIT_INTERVAL: u64 = 16;

/// How a soak run is driven.
pub struct SoakParams {
    /// Total simulated time.
    pub total: Duration,
    /// Seed for the host-flap schedule.
    pub seed: u64,
    /// Drive mode (dense reference or event-driven).
    pub mode: DriveMode,
}

/// Build the soak platform: eight hosts, three stateless pipelines, and
/// one stateful job with a modest key space (~1 GB of state, a few
/// seconds per state move) so complex syncs complete well inside the
/// convergence window. The fleet spans all three resiliency tiers so the
/// soak exercises the warm-standby fast path next to the standard one:
/// `soak_counters` and the stateful `soak_sessions` are critical,
/// `soak_events` standard, `soak_metrics` best-effort.
pub fn build_platform() -> (Turbine, Vec<HostId>) {
    let mut turbine = Turbine::new(experiment_config());
    let hosts = turbine.add_hosts(8, scuba_host());
    for (i, &(name, tasks, rate, swing, seed, tier)) in [
        (
            "soak_events",
            8u32,
            6.0e6,
            0.3,
            101u64,
            ResiliencyClass::Standard,
        ),
        (
            "soak_metrics",
            4,
            3.0e6,
            0.25,
            102,
            ResiliencyClass::BestEffort,
        ),
        (
            "soak_counters",
            4,
            2.0e6,
            0.2,
            103,
            ResiliencyClass::Critical,
        ),
    ]
    .iter()
    .enumerate()
    {
        let mut jc = JobConfig::stateless(name, tasks, 64);
        jc.max_task_count = 64;
        jc.resiliency = tier;
        turbine
            .provision_job(
                JobId(i as u64 + 1),
                jc,
                TrafficModel::diurnal(rate, swing, seed),
                1.0e6,
                256.0,
            )
            .expect("provision");
    }
    let mut jc = JobConfig::stateless("soak_sessions", 4, 64);
    jc.max_task_count = 64;
    jc.resiliency = ResiliencyClass::Critical;
    turbine
        .provision_stateful_job(
            JobId(4),
            jc,
            TrafficModel::diurnal(2.0e6, 0.2, 104),
            1.0e6,
            256.0,
            1.0e6,
        )
        .expect("provision");
    (turbine, hosts)
}

/// Schedule the fault timeline. Positions are fractions of the total run
/// so the same shape works for a 30-minute smoke run and a 72-hour soak;
/// every window ends by 88 % of the run.
pub fn schedule_faults(turbine: &mut Turbine, total: Duration) {
    let frac = |f: f64| SimTime::ZERO + Duration::from_secs_f64(total.as_secs_f64() * f);
    let span = |f: f64| Duration::from_secs_f64(total.as_secs_f64() * f);
    let plan = |fault: Fault, from: SimTime, len: Duration| FaultPlan {
        fault,
        from,
        until: Some(from + len),
    };

    turbine.schedule_fault(plan(Fault::TaskServiceDown, frac(0.10), span(0.05)));
    turbine.schedule_fault(plan(Fault::JobStoreDown, frac(0.25), span(0.05)));

    // Heartbeat loss: one transient single-beat drop (must not trigger
    // fail-over) and one sustained loss (must). Victims come from the
    // first two hosts; host flaps only touch the rest.
    let transient = turbine
        .cluster
        .containers_on(turbine.cluster.hosts()[0])
        .expect("containers")[0];
    turbine.schedule_fault(plan(
        Fault::HeartbeatLoss(transient),
        frac(0.40),
        Duration::from_secs(15),
    ));
    // The sustained loss targets wherever the critical `soak_counters`
    // job's first task landed, so every soak exercises the warm-standby
    // promotion path on top of the standard fail-over.
    let sustained = turbine
        .task_container(TaskId::new(JobId(3), 0))
        .expect("soak_counters task 0 placed");
    turbine.schedule_fault(plan(
        Fault::HeartbeatLoss(sustained),
        frac(0.50),
        span(0.04),
    ));

    turbine.schedule_fault(plan(Fault::SyncerCrash, frac(0.65), span(0.04)));

    let category = turbine
        .job_category(JobId(3))
        .expect("category")
        .to_string();
    turbine.schedule_fault(plan(Fault::ScribeStall(category), frac(0.78), span(0.05)));
}

/// Derive the host-flap schedule from the seed: one flap roughly every
/// 6 hours (at least one per run), each 10–30 minutes, all on hosts 2+,
/// all recovered by 85 % of the run.
pub fn flap_schedule(total: Duration, hosts: usize, rng: &mut SimRng) -> Vec<HostFlap> {
    let flaps = ((total.as_secs_f64() / 21_600.0).ceil() as usize).max(1);
    (0..flaps)
        .map(|i| {
            let slot =
                total.as_secs_f64() * 0.80 * (i as f64 + rng.uniform(0.2, 0.8)) / flaps as f64;
            let fail_at = SimTime::ZERO + Duration::from_secs_f64(slot);
            let len = rng.uniform(600.0, 1800.0).min(total.as_secs_f64() * 0.05);
            HostFlap {
                host: 2 + rng.uniform_usize(0, hosts - 2),
                fail_at,
                recover_at: fail_at + Duration::from_secs_f64(len),
            }
        })
        .collect()
}

/// Run the full soak scenario and return the driven platform; callers
/// pull whatever they assert on (fingerprint, fault log, trace digest,
/// incident log, invariant checker) from it.
pub fn run_soak(params: &SoakParams) -> Turbine {
    let mut rng = SimRng::seeded(params.seed);
    let (mut turbine, hosts) = build_platform();
    turbine.install_default_alert_rules();
    turbine.enable_invariant_checks(InvariantConfig {
        audit_interval: AUDIT_INTERVAL,
    });
    // Settle before chaos.
    turbine.drive_for(Duration::from_mins(5).min(params.total), params.mode);
    schedule_faults(&mut turbine, params.total);
    let flaps = flap_schedule(params.total, hosts.len(), &mut rng);

    let end = SimTime::ZERO + params.total;
    let mut fail_queue: Vec<(SimTime, usize)> = flaps.iter().map(|f| (f.fail_at, f.host)).collect();
    let mut recover_queue: Vec<(SimTime, usize)> =
        flaps.iter().map(|f| (f.recover_at, f.host)).collect();
    while turbine.now() < end {
        let now = turbine.now();
        // Recoveries first so a host is never failed while already down.
        recover_queue.retain(|&(at, h)| {
            if at <= now {
                turbine.recover_host(hosts[h]).expect("recover host");
                false
            } else {
                true
            }
        });
        fail_queue.retain(|&(at, h)| {
            if at <= now {
                turbine.fail_host(hosts[h]).expect("fail host");
                false
            } else {
                true
            }
        });
        turbine.drive_for(Duration::from_mins(1).min(end.since(now)), params.mode);
    }
    turbine
}
