//! ODS soak — the cost and determinism gate for the metrics registry and
//! alerting engine, on the exact chaos-soak workload (shared via
//! [`turbine_bench::soak`]).
//!
//! Three assertions, any miss is a non-zero exit:
//!
//! 1. **observational**: ODS on vs off leaves the platform fingerprint
//!    bit-for-bit unchanged;
//! 2. **drive-mode independent**: dense-tick and event-driven runs with
//!    ODS on produce the identical trace digest and fingerprint (so
//!    incident trace events are deterministic too);
//! 3. **replayable**: re-running the same seed reproduces the identical
//!    incident log.
//!
//! The wall-clock cost of ODS (min-of-repeats, on vs off) is reported but
//! not gated: the workload runs for milliseconds, where a ratio of two
//! wall clocks is timer noise, and every speed-up of the data plane
//! shrinks its denominator further. Overhead claims are made with the
//! paired protocol of `benchmark/README.md`.
//!
//! Results (plus a registry census and the incident log) go to stdout and
//! `BENCH_ods.json`.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin ods_soak             # 12 h
//! cargo run --release -p turbine-bench --bin ods_soak -- --mins 60
//! ```

use std::time::Instant;
use turbine::{DriveMode, Turbine};
use turbine_bench::soak::{run_soak, SoakParams};
use turbine_types::Duration;

fn run(total: Duration, seed: u64, mode: DriveMode, ods: bool) -> (Turbine, f64) {
    let started = Instant::now();
    let turbine = run_soak(&SoakParams {
        total,
        seed,
        mode,
        // Tracing stays on (its production default) so ODS cost is the
        // only variable between the two arms.
        trace_enabled: true,
        ods,
        // The invariant checker's per-tick sweep would drown the signal
        // this benchmark measures; correctness runs under chaos_soak.
        invariants: false,
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1.0e3;
    (turbine, wall_ms)
}

/// Render an incident log as comparable one-line summaries.
fn incident_lines(turbine: &Turbine) -> Vec<String> {
    turbine
        .incidents()
        .iter()
        .map(|i| {
            format!(
                "[{}] {} {} opened {} resolved {:?}: {}",
                i.severity, i.rule, i.metric, i.opened_at, i.resolved_at, i.message
            )
        })
        .collect()
}

fn main() {
    let mut hours = 12u64;
    let mut mins: Option<u64> = None;
    let mut seed = 0xC4A05u64;
    let mut repeats = 5usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).and_then(|v| v.parse::<u64>().ok());
        match (args[i].as_str(), value) {
            ("--hours", Some(v)) => hours = v,
            ("--mins", Some(v)) => mins = Some(v),
            ("--seed", Some(v)) => seed = v,
            ("--repeats", Some(v)) => repeats = (v as usize).max(1),
            _ => {
                eprintln!("usage: ods_soak [--hours H] [--mins M] [--seed S] [--repeats R]");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let total = mins.map_or_else(|| Duration::from_hours(hours), Duration::from_mins);
    let sim_hours = total.as_hours_f64();

    eprintln!("ods soak: {sim_hours:.1} simulated hours, seed {seed:#x}");
    let mut failed = false;

    // Correctness first: observational, drive-mode independent,
    // replayable. (These runs also warm the allocator for the timings.)
    let (with_ods, _) = run(total, seed, DriveMode::EventDriven, true);
    let (without_ods, _) = run(total, seed, DriveMode::EventDriven, false);
    let (dense, _) = run(total, seed, DriveMode::DenseTick, true);
    let (replay, _) = run(total, seed, DriveMode::EventDriven, true);

    let fingerprint_match = with_ods.fingerprint() == without_ods.fingerprint();
    if fingerprint_match {
        println!("[OK] ODS is observational: fingerprints match with ODS on and off");
    } else {
        failed = true;
        eprintln!(
            "ODS CHANGED PLATFORM STATE: on {:?} vs off {:?}",
            with_ods.fingerprint(),
            without_ods.fingerprint()
        );
    }
    let dense_event_match = dense.trace().digest() == with_ods.trace().digest()
        && dense.fingerprint() == with_ods.fingerprint()
        && incident_lines(&dense) == incident_lines(&with_ods);
    if dense_event_match {
        println!(
            "[OK] dense-tick and event-driven runs agree (trace digest {:#018x})",
            with_ods.trace().digest()
        );
    } else {
        failed = true;
        eprintln!(
            "ODS DIVERGENCE ACROSS DRIVE MODES: dense {:#018x} vs event {:#018x}",
            dense.trace().digest(),
            with_ods.trace().digest()
        );
    }
    let replay_match = incident_lines(&replay) == incident_lines(&with_ods)
        && replay.trace().digest() == with_ods.trace().digest();
    if replay_match {
        println!("[OK] identical incident log and trace digest on replay");
    } else {
        failed = true;
        eprintln!(
            "NON-DETERMINISTIC ODS: incident logs or digests differ on replay\n on: {:?}\n re: {:?}",
            incident_lines(&with_ods),
            incident_lines(&replay)
        );
    }

    // Overhead (reported only): interleaved min-of-repeats, ODS on vs off.
    let mut ods_ms = f64::INFINITY;
    let mut base_ms = f64::INFINITY;
    for r in 0..repeats {
        eprintln!("timing repeat {} of {repeats}...", r + 1);
        let (_, on) = run(total, seed, DriveMode::EventDriven, true);
        let (_, off) = run(total, seed, DriveMode::EventDriven, false);
        ods_ms = ods_ms.min(on);
        base_ms = base_ms.min(off);
    }
    let overhead = (ods_ms - base_ms) / base_ms;

    let registry = with_ods.ods_registry();
    let samples: u64 = registry.iter().map(|(_, s)| s.len() as u64).sum();
    let incidents = incident_lines(&with_ods);

    println!("## ods soak ({sim_hours:.1} h chaos workload, min of {repeats})");
    println!("  ods on    : {ods_ms:9.1} ms wall");
    println!("  ods off   : {base_ms:9.1} ms wall");
    println!(
        "  overhead  : {:9.2} % (reported, not gated)",
        overhead * 100.0
    );
    println!(
        "  registry  : {} series, {} retained samples",
        registry.len(),
        samples
    );
    println!("  incidents : {}", incidents.len());
    for line in &incidents {
        println!("    {line}");
    }

    let json = format!(
        "{{\n  \"bench\": \"ods_soak\",\n  \"sim_hours\": {sim_hours:.1},\n  \
         \"ods_wall_ms\": {ods_ms:.3},\n  \"base_wall_ms\": {base_ms:.3},\n  \
         \"overhead_pct\": {:.3},\n  \"registry_series\": {},\n  \
         \"registry_samples\": {samples},\n  \"incidents\": {},\n  \
         \"trace_digest\": \"{:#018x}\",\n  \"fingerprint_match\": {fingerprint_match},\n  \
         \"dense_event_match\": {dense_event_match},\n  \
         \"replay_match\": {replay_match}\n}}\n",
        overhead * 100.0,
        registry.len(),
        incidents.len(),
        with_ods.trace().digest(),
    );
    std::fs::write("BENCH_ods.json", &json).expect("write BENCH_ods.json");
    print!("{json}");

    if failed {
        std::process::exit(1);
    }
}
