//! Chaos soak — a seeded multi-fault timeline against the whole platform
//! with the invariant checker on every tick.
//!
//! The run schedules host flaps plus every chaos-engine fault class
//! (Task Service outage, Job Store outage, transient and sustained
//! heartbeat loss, a State Syncer crash, a Scribe read stall) across the
//! soak window, leaving at least the final 10 % of the run fault-free so
//! convergence can be asserted. The timeline is executed three times:
//! once under the dense-tick reference stepper, then twice under the
//! event-driven scheduler from the same seed. The event-driven platform
//! fingerprint, decision-trace digest AND incident log must match the
//! dense reference bit-for-bit, the replay must reproduce itself
//! bit-for-bit, zero invariants may fire, and each of the three runs must
//! have made at least one full-scan audit of its sparse checks and found
//! no mismatch — any miss is a non-zero exit. This is the determinism gate
//! for the trace and the metrics plane
//! too: both are always on, so there is no unobserved run to compare with.
//!
//! On top of the determinism gates the soak enforces the per-tier SLO
//! contract: every resiliency tier that recovered must land its p99
//! recovery time inside that tier's budget, the critical tier must have
//! recorded at least one recovery (the timeline aims a sustained
//! heartbeat loss at a critical job on purpose), and the warm-standby
//! fast path must beat the standard full-sync fail-over by at least 5×
//! on the median recovery (p99 carries one heartbeat interval of
//! detection-phase jitter, bounded by the absolute budgets instead).
//! Pass `--slo PATH` to emit the per-tier report as JSON
//! (`BENCH_slo.json` in CI).
//!
//! The scenario itself lives in [`turbine_bench::soak`].
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin chaos_soak            # 48 h soak
//! cargo run --release -p turbine-bench --bin chaos_soak -- --mins 30
//! cargo run --release -p turbine-bench --bin chaos_soak -- --hours 72 --seed 7
//! cargo run --release -p turbine-bench --bin chaos_soak -- --mins 30 --slo BENCH_slo.json
//! ```

use turbine::{tier_slo_table, DriveMode, Incident, PlatformFingerprint, TierSlo};
use turbine_bench::soak::{run_soak, SoakParams};
use turbine_bench::{Args, MAX_HOURS, MAX_MINS};
use turbine_config::ResiliencyClass;
use turbine_types::{Duration, SimTime};

struct SoakOutcome {
    fault_log: Vec<(SimTime, String)>,
    digest: u64,
    trace_digest: u64,
    trace_records: u64,
    /// The alerting engine's incident log.
    incidents: Vec<Incident>,
    violations: Vec<String>,
    total_violations: u64,
    ticks_checked: u64,
    audit_rounds: u64,
    audit_mismatches: u64,
    fingerprint: PlatformFingerprint,
    tier_slo: Vec<TierSlo>,
}

fn soak(total: Duration, seed: u64, mode: DriveMode) -> SoakOutcome {
    let turbine = run_soak(&SoakParams { total, seed, mode });
    let checker = turbine.invariant_checker().expect("checker enabled");
    SoakOutcome {
        fault_log: turbine.fault_injector().log().to_vec(),
        digest: turbine.fault_injector().log_digest(),
        trace_digest: turbine.trace().digest(),
        trace_records: turbine.trace().total_recorded(),
        incidents: turbine.incidents().to_vec(),
        violations: turbine
            .invariant_violations()
            .iter()
            .map(|v| {
                format!(
                    "[{:>9.2} h] {}: {}",
                    v.at.as_hours_f64(),
                    v.invariant,
                    v.detail
                )
            })
            .collect(),
        total_violations: checker.total_violations(),
        ticks_checked: checker.ticks_checked(),
        audit_rounds: checker.audit_rounds(),
        audit_mismatches: checker.audit_mismatches(),
        fingerprint: turbine.fingerprint(),
        tier_slo: tier_slo_table(&turbine),
    }
}

fn slo_json(total: Duration, seed: u64, tiers: &[TierSlo], slo_digest: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"simulated_hours\": {:.2},\n  \"seed\": \"{seed:#x}\",\n  \
         \"slo_digest\": \"{slo_digest:#018x}\",\n  \"tiers\": [\n",
        total.as_hours_f64()
    ));
    for (i, t) in tiers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tier\": \"{}\", \"jobs\": {}, \"recoveries\": {}, \
             \"fast_recoveries\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \
             \"budget_ms\": {}, \"downtime_ms\": {}, \"within_budget\": {}}}{}\n",
            t.tier.as_str(),
            t.jobs,
            t.recoveries,
            t.fast_recoveries,
            t.p50_ms,
            t.p99_ms,
            t.budget_ms,
            t.downtime_ms,
            t.within_budget(),
            if i + 1 < tiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = Args::from_env(
        "usage: chaos_soak [--hours H] [--mins M] [--seed S] [--slo PATH]",
        &["--hours", "--mins", "--seed", "--slo"],
    );
    let hours = args.value("--hours", 0, MAX_HOURS).unwrap_or(48);
    let mins = args.value("--mins", 0, MAX_MINS);
    let seed = args.value("--seed", 0, u64::MAX).unwrap_or(0xC4A05);
    let slo_path = args.text("--slo");
    let total = mins.map_or_else(|| Duration::from_hours(hours), Duration::from_mins);

    eprintln!(
        "chaos soak: {:.1} simulated hours, seed {seed:#x}, run 1 of 3 (dense reference)...",
        total.as_hours_f64()
    );
    let dense = soak(total, seed, DriveMode::DenseTick);
    eprintln!("run 2 of 3 (event-driven, must match the dense reference bit-for-bit)...");
    let first = soak(total, seed, DriveMode::EventDriven);
    eprintln!("run 3 of 3 (event-driven replay, must reproduce bit-for-bit)...");
    let second = soak(total, seed, DriveMode::EventDriven);

    println!(
        "## chaos soak fault timeline ({:.1} h, seed {seed:#x})",
        total.as_hours_f64()
    );
    for (at, entry) in &first.fault_log {
        println!("  [{:>9.2} h] {entry}", at.as_hours_f64());
    }
    println!(
        "## {} fault transitions, {} ticks checked, {} audit_rounds, {} audit_mismatches, \
         digest {:#018x}",
        first.fault_log.len(),
        first.ticks_checked,
        first.audit_rounds,
        first.audit_mismatches,
        first.digest
    );
    println!(
        "## {} trace records, trace digest {:#018x}",
        first.trace_records, first.trace_digest
    );
    println!("## fingerprint {:?}", first.fingerprint);

    let mut failed = false;
    if first.total_violations > 0 {
        failed = true;
        eprintln!("INVARIANT VIOLATIONS ({}):", first.total_violations);
        for v in &first.violations {
            eprintln!("  {v}");
        }
    } else {
        println!(
            "[OK] zero invariant violations across {} ticks",
            first.ticks_checked
        );
    }
    let mut audited = true;
    for (name, run) in [("dense", &dense), ("event", &first), ("replay", &second)] {
        if run.audit_rounds == 0 || run.audit_mismatches > 0 {
            audited = false;
            eprintln!(
                "AUDIT GATE: {name} run made {} full-scan audits with {} mismatches \
                 (need at least one audit and none)",
                run.audit_rounds, run.audit_mismatches
            );
        }
    }
    if !audited {
        failed = true;
    } else {
        println!(
            "[OK] sparse checks agree with every full-scan audit ({} per run, 0 mismatches)",
            first.audit_rounds
        );
    }
    if dense.fingerprint == first.fingerprint
        && dense.fault_log == first.fault_log
        && dense.incidents == first.incidents
    {
        println!("[OK] event-driven run matches the dense-tick reference bit-for-bit");
    } else {
        failed = true;
        eprintln!(
            "SCHEDULER DIVERGENCE: dense fingerprint {:?} incidents {:?} vs event {:?} incidents {:?}",
            dense.fingerprint, dense.incidents, first.fingerprint, first.incidents
        );
    }
    if dense.trace_digest == first.trace_digest {
        println!(
            "[OK] event-driven decision trace matches the dense reference \
             (digest {:#018x})",
            first.trace_digest
        );
    } else {
        failed = true;
        eprintln!(
            "TRACE DIVERGENCE: dense trace digest {:#018x} vs event {:#018x}",
            dense.trace_digest, first.trace_digest
        );
    }
    if first.fault_log == second.fault_log && first.digest == second.digest {
        println!(
            "[OK] identical fault log on replay (digest {:#018x})",
            second.digest
        );
    } else {
        failed = true;
        eprintln!(
            "NON-DETERMINISTIC REPLAY: digest {:#018x} vs {:#018x}, {} vs {} entries",
            first.digest,
            second.digest,
            first.fault_log.len(),
            second.fault_log.len()
        );
    }
    if first.fingerprint == second.fingerprint
        && first.trace_digest == second.trace_digest
        && first.incidents == second.incidents
    {
        println!("[OK] identical platform fingerprint and trace digest on replay");
    } else {
        failed = true;
        eprintln!(
            "NON-DETERMINISTIC REPLAY: fingerprint {:?} (trace {:#018x}) incidents {:?} vs \
             {:?} (trace {:#018x}) incidents {:?}",
            first.fingerprint,
            first.trace_digest,
            first.incidents,
            second.fingerprint,
            second.trace_digest,
            second.incidents
        );
    }

    println!(
        "## per-tier SLO report (slo digest {:#018x})",
        first.fingerprint.slo_digest
    );
    for t in &first.tier_slo {
        println!(
            "  tier {:>11}: {} job(s) | {} recover(ies), {} fast | p50 {}ms p99 {}ms \
             (budget {}ms, {}) | downtime {}ms",
            t.tier.as_str(),
            t.jobs,
            t.recoveries,
            t.fast_recoveries,
            t.p50_ms,
            t.p99_ms,
            t.budget_ms,
            if t.within_budget() {
                "ok"
            } else {
                "OVER BUDGET"
            },
            t.downtime_ms,
        );
    }
    let tier = |c: ResiliencyClass| first.tier_slo.iter().find(|t| t.tier == c);
    let critical = tier(ResiliencyClass::Critical);
    let standard = tier(ResiliencyClass::Standard);
    match critical {
        Some(c) if c.recoveries > 0 => {
            println!(
                "[OK] critical tier recorded {} recover(ies), {} via the fast path",
                c.recoveries, c.fast_recoveries
            );
        }
        _ => {
            failed = true;
            eprintln!("SLO GATE: critical tier recorded no recoveries (fast path never exercised)");
        }
    }
    for t in &first.tier_slo {
        if !t.within_budget() {
            failed = true;
            eprintln!(
                "SLO GATE: tier {} p99 recovery {}ms exceeds its {}ms budget",
                t.tier.as_str(),
                t.p99_ms,
                t.budget_ms
            );
        }
    }
    if first.tier_slo.iter().all(TierSlo::within_budget) {
        println!("[OK] every tier's p99 recovery is within its budget");
    }
    // The speedup gate compares medians: individual recoveries carry up
    // to one heartbeat interval of detection-phase jitter (a sever landing
    // right after a beat is noticed a round later), which a p99 over a
    // long soak always absorbs while the typical path stays put. The p99
    // absolute budgets above already bound the tail.
    if let (Some(c), Some(s)) = (critical, standard) {
        if c.recoveries > 0 && s.recoveries > 0 {
            if s.p50_ms >= 5 * c.p50_ms {
                println!(
                    "[OK] warm-standby fast path is {:.1}x faster than the standard \
                     full-sync path (critical p50 {}ms vs standard p50 {}ms, need 5x)",
                    s.p50_ms as f64 / c.p50_ms as f64,
                    c.p50_ms,
                    s.p50_ms
                );
            } else {
                failed = true;
                eprintln!(
                    "SLO GATE: fast path only {:.1}x faster (critical p50 {}ms vs \
                     standard p50 {}ms, need 5x)",
                    s.p50_ms as f64 / c.p50_ms as f64,
                    c.p50_ms,
                    s.p50_ms
                );
            }
        }
    }
    if let Some(path) = slo_path {
        let json = slo_json(total, seed, &first.tier_slo, first.fingerprint.slo_digest);
        if let Err(e) = std::fs::write(path, &json) {
            failed = true;
            eprintln!("SLO GATE: cannot write {path}: {e}");
        } else {
            println!("[OK] per-tier SLO report written to {path}");
        }
    }

    if failed {
        std::process::exit(1);
    }
}
