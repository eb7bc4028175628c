//! Trace soak — the cost and determinism gate for the causal decision
//! trace, on the exact chaos-soak workload (shared via
//! [`turbine_bench::soak`]).
//!
//! Three assertions, any miss is a non-zero exit:
//!
//! 1. **observational**: tracing on vs off leaves the platform
//!    fingerprint bit-for-bit unchanged;
//! 2. **drive-mode independent**: dense-tick and event-driven runs
//!    produce the identical trace digest;
//! 3. **replayable**: re-running the same seed reproduces the identical
//!    trace digest.
//!
//! The wall-clock cost of tracing (min-of-repeats, on vs off) is reported
//! but not gated: the workload runs for milliseconds, where a ratio of two
//! wall clocks is timer noise, and every speed-up of the data plane
//! shrinks its denominator further. The repo benchmark's
//! `bench.trace_overhead_pct` and the paired protocol of
//! `benchmark/README.md` carry overhead claims.
//!
//! Results (plus per-component round-latency histogram summaries) go to
//! stdout and `BENCH_trace.json`.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin trace_soak             # 12 h
//! cargo run --release -p turbine-bench --bin trace_soak -- --mins 60
//! ```

use std::time::Instant;
use turbine::{DriveMode, Turbine};
use turbine_bench::soak::{run_soak, SoakParams};
use turbine_types::Duration;

fn run(total: Duration, seed: u64, mode: DriveMode, trace_enabled: bool) -> (Turbine, f64) {
    let started = Instant::now();
    let turbine = run_soak(&SoakParams {
        total,
        seed,
        mode,
        trace_enabled,
        // ODS stays on (its production default) so tracing cost is the
        // only variable between the two arms.
        ods: true,
        // The invariant checker's per-tick sweep would drown the signal
        // this benchmark measures; correctness runs under chaos_soak.
        invariants: false,
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1.0e3;
    (turbine, wall_ms)
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
                eprintln!("usage: trace_soak [--hours H] [--mins M] [--seed S] [--repeats R]");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let total = mins.map_or_else(|| Duration::from_hours(hours), Duration::from_mins);
    let sim_hours = total.as_hours_f64();

    eprintln!("trace soak: {sim_hours:.1} simulated hours, seed {seed:#x}");
    let mut failed = false;

    // Correctness first: observational, drive-mode independent,
    // replayable. (These runs also warm the allocator for the timings.)
    let (traced, _) = run(total, seed, DriveMode::EventDriven, true);
    let (untraced, _) = run(total, seed, DriveMode::EventDriven, false);
    let (dense, _) = run(total, seed, DriveMode::DenseTick, true);
    let (replay, _) = run(total, seed, DriveMode::EventDriven, true);

    let fingerprint_match = traced.fingerprint() == untraced.fingerprint();
    if fingerprint_match {
        println!("[OK] tracing is observational: fingerprints match with tracing on and off");
    } else {
        failed = true;
        eprintln!(
            "TRACING CHANGED PLATFORM STATE: traced {:?} vs untraced {:?}",
            traced.fingerprint(),
            untraced.fingerprint()
        );
    }
    let dense_event_match = dense.trace().digest() == traced.trace().digest()
        && dense.fingerprint() == traced.fingerprint();
    if dense_event_match {
        println!(
            "[OK] dense-tick and event-driven runs agree (trace digest {:#018x})",
            traced.trace().digest()
        );
    } else {
        failed = true;
        eprintln!(
            "TRACE DIVERGENCE ACROSS DRIVE MODES: dense {:#018x} vs event {:#018x}",
            dense.trace().digest(),
            traced.trace().digest()
        );
    }
    let replay_match = replay.trace().digest() == traced.trace().digest();
    if replay_match {
        println!("[OK] identical trace digest on replay");
    } else {
        failed = true;
        eprintln!(
            "NON-DETERMINISTIC TRACE: {:#018x} vs {:#018x} on replay",
            traced.trace().digest(),
            replay.trace().digest()
        );
    }

    // Overhead (reported only): interleaved min-of-repeats, tracing on vs
    // off.
    let mut traced_ms = f64::INFINITY;
    let mut untraced_ms = f64::INFINITY;
    for r in 0..repeats {
        eprintln!("timing repeat {} of {repeats}...", r + 1);
        let (_, on) = run(total, seed, DriveMode::EventDriven, true);
        let (_, off) = run(total, seed, DriveMode::EventDriven, false);
        traced_ms = traced_ms.min(on);
        untraced_ms = untraced_ms.min(off);
    }
    let overhead = (traced_ms - untraced_ms) / untraced_ms;

    println!("## trace soak ({sim_hours:.1} h chaos workload, min of {repeats})");
    println!("  traced    : {traced_ms:9.1} ms wall");
    println!("  untraced  : {untraced_ms:9.1} ms wall");
    println!(
        "  overhead  : {:9.2} % (reported, not gated)",
        overhead * 100.0
    );
    println!(
        "  records   : {} recorded, {} retained, {} evicted",
        traced.trace().total_recorded(),
        traced.trace().len(),
        traced.trace().evicted()
    );

    println!("## per-component round latency (wall clock, traced run)");
    println!(
        "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "component", "rounds", "mean_us", "p50_us", "p99_us", "max_us"
    );
    for (component, hist) in traced.trace().latencies() {
        if hist.count == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            component.name(),
            hist.count,
            hist.mean_ns() as f64 / 1.0e3,
            hist.quantile_ns(0.5).unwrap_or(0) as f64 / 1.0e3,
            hist.quantile_ns(0.99).unwrap_or(0) as f64 / 1.0e3,
            hist.max_ns as f64 / 1.0e3,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"trace_soak\",\n  \"sim_hours\": {sim_hours:.1},\n  \
         \"traced_wall_ms\": {traced_ms:.3},\n  \"untraced_wall_ms\": {untraced_ms:.3},\n  \
         \"overhead_pct\": {:.3},\n  \"trace_records\": {},\n  \
         \"trace_digest\": \"{:#018x}\",\n  \"fingerprint_match\": {fingerprint_match},\n  \
         \"dense_event_trace_match\": {dense_event_match},\n  \
         \"replay_match\": {replay_match}\n}}\n",
        overhead * 100.0,
        traced.trace().total_recorded(),
        traced.trace().digest(),
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    print!("{json}");

    if failed {
        std::process::exit(1);
    }
}
