//! Snapshot soak — the restore-divergence and bisection-speedup gate for
//! `turbine-snap`.
//!
//! Three assertions, any miss is a non-zero exit:
//!
//! 1. **restore divergence == none**: every auto-snapshot taken during a
//!    chaos run (faults + host flaps + traffic storms) restores to a
//!    platform that, driven to the horizon, reproduces the uninterrupted
//!    run's fingerprint and trace digest bit-for-bit — in both dense-tick
//!    and event-driven modes. Any state that escaped serialization shows
//!    up here as a divergence naming the checkpoint minute.
//! 2. **bisection is exact**: on a seeded injected divergence (an extra
//!    `fail_host` at a known minute in one of two otherwise identical
//!    runs), the bisector names exactly the first divergent round.
//! 3. **bisection is >= 5x cheaper**: localizing that round simulates at
//!    least 5x fewer rounds than a from-zero lockstep replay would.
//!
//! Results go to stdout and `BENCH_snap.json`.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin snap_soak             # 120 min
//! cargo run --release -p turbine-bench --bin snap_soak -- --mins 90
//! ```

use turbine::DriveMode;
use turbine_bench::Args;
use turbine_fuzz::{
    auto_snap_interval, bisect_recorded, drive_recorded, resume_to_horizon, FuzzFault, FuzzFlap,
    FuzzJob, FuzzScenario, FuzzTrafficEvent, Perturbation,
};

/// The speedup the bisection must deliver over a full lockstep replay.
const SPEEDUP_GATE: f64 = 5.0;

/// The chaos workload: two jobs (one diurnal with a storm window), a
/// heartbeat-loss and a syncer-crash fault, and a flapping host — enough
/// churn to touch every serialized subsystem mid-run.
fn chaos_scenario(horizon_mins: u32, seed: u64) -> FuzzScenario {
    let storm_start = horizon_mins / 4;
    let s = FuzzScenario {
        seed,
        horizon_mins,
        tick_secs: 10,
        hosts: 5,
        host_cpu: 56.0,
        host_memory_mb: 256.0 * 1024.0,
        headroom: 0.1,
        band: 0.2,
        scaler_enabled: true,
        jobs: vec![
            FuzzJob {
                name: "ingest".into(),
                stateful: false,
                tasks: 4,
                threads: 2,
                partitions: 16,
                max_tasks: 8,
                rate: 6.0,
                diurnal: 0.3,
                traffic_seed: seed,
                per_thread_rate: 1.0,
                message_bytes: 256.0,
                key_cardinality: 0.0,
                resiliency: turbine_config::ResiliencyClass::Standard,
                events: vec![FuzzTrafficEvent {
                    kind: "multiplier".into(),
                    start_min: storm_start,
                    end_min: storm_start + horizon_mins / 8,
                    magnitude: 2.5,
                    ramp_mins: 1,
                }],
            },
            FuzzJob {
                name: "aggregate".into(),
                stateful: true,
                tasks: 2,
                threads: 2,
                partitions: 8,
                max_tasks: 6,
                rate: 2.0,
                diurnal: 0.0,
                traffic_seed: 0,
                per_thread_rate: 1.0,
                message_bytes: 512.0,
                key_cardinality: 1.0e4,
                resiliency: turbine_config::ResiliencyClass::Critical,
                events: vec![],
            },
        ],
        faults: vec![
            FuzzFault {
                kind: "heartbeat_loss".into(),
                target: 1,
                from_min: horizon_mins / 6,
                len_min: horizon_mins / 10,
            },
            FuzzFault {
                kind: "syncer_crash".into(),
                target: 0,
                from_min: horizon_mins / 2,
                len_min: horizon_mins / 12,
            },
        ],
        flaps: vec![FuzzFlap {
            host: 3,
            fail_min: horizon_mins / 3,
            recover_min: horizon_mins / 3 + horizon_mins / 10,
        }],
    };
    s.validate().expect("chaos scenario must be valid");
    s
}

fn main() {
    let args = Args::from_env(
        "usage: snap_soak [--mins M>=30] [--seed S]",
        &["--mins", "--seed"],
    );
    let mins = args.value("--mins", 30, u32::MAX).unwrap_or(120);
    let seed = args.value("--seed", 0, u64::MAX).unwrap_or(0x5AA9);
    let s = chaos_scenario(mins, seed);
    let every = auto_snap_interval(mins);
    eprintln!(
        "snap soak: {mins} simulated minutes of chaos, snapshot every {every} min, seed {seed:#x}"
    );
    let mut failed = false;

    // Gate 1: every checkpoint restore reproduces the uninterrupted run.
    let mut divergences: Vec<String> = Vec::new();
    let mut restores_checked = 0usize;
    let mut checkpoints = 0usize;
    for (mode, mode_name) in [
        (DriveMode::EventDriven, "event"),
        (DriveMode::DenseTick, "dense"),
    ] {
        let run = drive_recorded(&s, mode, Some(every), None);
        checkpoints = run.checkpoints.len();
        for index in 0..run.checkpoints.len() {
            let minute = run.checkpoints[index].minute;
            restores_checked += 1;
            match resume_to_horizon(&s, &run, index) {
                Ok(resumed) => {
                    if resumed.fingerprint != run.artifacts.fingerprint {
                        divergences
                            .push(format!("{mode_name}: fingerprint after restore @{minute}m"));
                    }
                    if resumed.trace_digest != run.artifacts.trace_digest {
                        divergences.push(format!(
                            "{mode_name}: trace digest after restore @{minute}m"
                        ));
                    }
                }
                Err(e) => divergences.push(format!("{mode_name}: restore @{minute}m failed: {e}")),
            }
        }
    }
    let restore_ok = divergences.is_empty();
    if restore_ok {
        println!(
            "[OK] restore divergence: none ({restores_checked} restores across both drive modes)"
        );
    } else {
        failed = true;
        for d in &divergences {
            eprintln!("RESTORE DIVERGENCE: {d}");
        }
    }

    // Gate 2 + 3: bisect a seeded divergence to its exact first round, at
    // >= 5x fewer simulated rounds than a full replay.
    let inject_min = mins * 2 / 3 + 1;
    let expected_min = inject_min + 1;
    let clean = drive_recorded(&s, DriveMode::EventDriven, Some(every), None);
    let perturbed = drive_recorded(
        &s,
        DriveMode::EventDriven,
        Some(every),
        Some(Perturbation {
            host: 2,
            at_min: inject_min,
        }),
    );
    let report = bisect_recorded(&s, &clean, &perturbed, "replay", "clean", "perturbed");
    let (exact_ok, speedup_ok, first_divergent, last_agree, bisect_rounds, full_rounds, speedup) =
        match &report {
            Some(r) => {
                let speedup = r.full_replay_rounds as f64 / r.bisect_rounds.max(1) as f64;
                (
                    r.first_divergent_min == expected_min,
                    speedup >= SPEEDUP_GATE,
                    r.first_divergent_min,
                    r.last_agree_min,
                    r.bisect_rounds,
                    r.full_replay_rounds,
                    speedup,
                )
            }
            None => (false, false, 0, 0, 0, 0, 0.0),
        };
    if exact_ok {
        println!(
            "[OK] bisection exact: seeded divergence at minute {inject_min} localized to \
             first divergent round {first_divergent} (agreed through {last_agree})"
        );
    } else {
        failed = true;
        eprintln!(
            "BISECTION MISSED: expected first divergent round {expected_min}, report: {:?}",
            report.as_ref().map(|r| r.first_divergent_min)
        );
    }
    if speedup_ok {
        println!(
            "[OK] bisection cheap: {bisect_rounds} rounds vs {full_rounds} for a full replay \
             ({speedup:.1}x, gate {SPEEDUP_GATE:.0}x)"
        );
    } else {
        failed = true;
        eprintln!(
            "BISECTION TOO EXPENSIVE: {bisect_rounds} rounds vs {full_rounds} full-replay \
             rounds is below the {SPEEDUP_GATE:.0}x gate"
        );
    }

    let divergence_field = if restore_ok {
        "\"none\"".to_string()
    } else {
        format!("{divergences:?}")
    };
    let json = format!(
        "{{\n  \"bench\": \"snap_soak\",\n  \"sim_mins\": {mins},\n  \
         \"snap_every_mins\": {every},\n  \"checkpoints_per_run\": {checkpoints},\n  \
         \"restores_checked\": {restores_checked},\n  \
         \"restore_divergence\": {divergence_field},\n  \
         \"inject_min\": {inject_min},\n  \"expected_first_divergent_min\": {expected_min},\n  \
         \"first_divergent_min\": {first_divergent},\n  \"last_agree_min\": {last_agree},\n  \
         \"bisect_rounds\": {bisect_rounds},\n  \"full_replay_rounds\": {full_rounds},\n  \
         \"bisect_speedup_x\": {speedup:.1},\n  \"speedup_gate_x\": {SPEEDUP_GATE:.1},\n  \
         \"restore_ok\": {restore_ok},\n  \"bisect_exact_ok\": {exact_ok},\n  \
         \"bisect_speedup_ok\": {speedup_ok}\n}}\n"
    );
    std::fs::write("BENCH_snap.json", &json).expect("write BENCH_snap.json");
    print!("{json}");

    if failed {
        std::process::exit(1);
    }
}
