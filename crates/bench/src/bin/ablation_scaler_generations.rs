//! Ablation: generation-1 (reactive, Dhalion-like) vs generation-2
//! (proactive + preactive) Auto Scaler — the paper's §V-A list of reactive
//! flaws, quantified:
//!
//! 1. slow convergence to a stable state (no resource estimates);
//! 2. incorrect downscaling of healthy jobs (no lower-bound estimates);
//! 3. harmful scaling on untriaged problems (no root-cause guard).
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin ablation_scaler_generations
//! ```

use std::process::ExitCode;
use turbine::{Turbine, TurbineConfig};
use turbine_autoscaler::ScalerMode;
use turbine_bench::{exit_code, scuba_host, verdict};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId};
use turbine_workloads::TrafficModel;

fn platform(mode: ScalerMode) -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler.mode = mode;
    config.scaler.min_action_gap = Duration::from_mins(2);
    config.scaler.downscale_stability = Duration::from_mins(30);
    config.scaler.vertical_limit.cpu = 1.0;
    let mut t = Turbine::new(config);
    t.add_hosts(16, scuba_host());
    t
}

fn main() -> ExitCode {
    let mut holds = true;
    // --- Flaw 1: convergence speed on an undersized job.
    let mut times = Vec::new();
    for mode in [ScalerMode::Reactive, ScalerMode::Full] {
        let mut t = platform(mode);
        let job = JobId(1);
        let mut jc = JobConfig::stateless("undersized", 2, 256);
        jc.max_task_count = 256;
        t.provision_job(job, jc, TrafficModel::flat(24.0e6), 1.0e6, 256.0)
            .expect("provision");
        let mut converged = None;
        for m in 1..=240u64 {
            t.run_for(Duration::from_mins(1));
            let s = t.job_status(job).expect("status");
            if s.backlog_bytes < 24.0e6 * 90.0 && s.running_tasks >= 24 && !s.paused {
                converged = Some(m);
                break;
            }
        }
        times.push((mode, converged, t.metrics.scaling_actions.get()));
    }
    let (_, reactive_time, reactive_actions) = times[0];
    let (_, full_time, full_actions) = times[1];
    holds &= verdict(
        "gen-2 converges an undersized job faster",
        "reactive doubling takes many rounds; estimates size it at once",
        &format!(
            "reactive: {:?} min / {reactive_actions} actions, full: {:?} min / {full_actions} actions",
            reactive_time, full_time
        ),
        full_time.unwrap_or(999) <= reactive_time.unwrap_or(999)
            && full_actions < reactive_actions,
    );

    // --- Flaw 2: blind downscale of a healthy-but-needed job.
    let mut violations = Vec::new();
    for mode in [ScalerMode::Reactive, ScalerMode::Full] {
        let mut t = platform(mode);
        let job = JobId(1);
        let mut jc = JobConfig::stateless("steady", 12, 256);
        jc.max_task_count = 256;
        // 10 MB/s against 12 tasks: correctly sized with a little headroom.
        t.provision_job(job, jc, TrafficModel::flat(10.0e6), 1.0e6, 256.0)
            .expect("provision");
        let mut slo_violation_minutes = 0u64;
        for _ in 0..360u64 {
            t.run_for(Duration::from_mins(1));
            let s = t.job_status(job).expect("status");
            if s.backlog_bytes > 10.0e6 * 90.0 {
                slo_violation_minutes += 1;
            }
        }
        violations.push((mode, slo_violation_minutes));
    }
    holds &= verdict(
        "gen-2 never downscales a healthy job into unhealthiness",
        "reactive blind shrink causes backlog on a previously healthy job",
        &format!(
            "SLO-violation minutes over 6h — reactive: {}, full: {}",
            violations[0].1, violations[1].1
        ),
        violations[1].1 == 0,
    );

    // --- Flaw 3: untriaged problems (dependency failure stalls the sink:
    // processing drops regardless of capacity).
    let mut grew = Vec::new();
    for mode in [ScalerMode::Reactive, ScalerMode::Full] {
        let mut t = platform(mode);
        let job = JobId(1);
        let mut jc = JobConfig::stateless("dependency_victim", 8, 256);
        jc.max_task_count = 256;
        t.provision_job(job, jc, TrafficModel::flat(4.0e6), 1.0e6, 256.0)
            .expect("provision");
        t.run_for(Duration::from_mins(10));
        // The dependency "fails": tasks can only process at 10% speed. The
        // engine models this as a collapsed true per-thread rate... which
        // the scaler cannot know; capacity estimates still say the job has
        // plenty. Scaling up cannot help (and amplifies downstream load).
        t.with_job_true_rate(job, 0.1e6);
        let before = t.job_status(job).expect("status").running_config_tasks;
        t.run_for(Duration::from_mins(40));
        let after = t.job_status(job).expect("status").running_config_tasks;
        grew.push((mode, before, after, t.metrics.alerts.get()));
    }
    let (_, _, reactive_after, _) = grew[0];
    let (_, full_before, full_after, full_alerts) = grew[1];
    holds &= verdict(
        "gen-2 alerts instead of scaling on untriaged problems",
        "no unnecessary and potentially harmful scaling; operator alert fired",
        &format!(
            "reactive grew to {reactive_after} tasks; full stayed at {full_after} (from {full_before}) with {full_alerts} alerts"
        ),
        full_alerts > 0 && reactive_after >= full_after * 3,
    );
    exit_code(holds)
}
