//! What the benchmark prints.
//!
//! A single run (`--workload`) prints one line per fact — `info`,
//! `metric`, `layer`, `checks`, `fail` — and, last, the one-line JSON
//! result the driver reads. Without `--workload` the harness runs every
//! workload in child processes (so peak RSS is per workload), reads those
//! lines back, and prints the medians; `--sets N` repeats that and holds
//! the sets against each other.

use crate::json::Json;
use crate::metrics::{Bound, EndToEnd, END_TO_END, PER_LAYER};
use crate::runner::Report;
use crate::stats::median;
use crate::workloads::{Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Untraced runs per workload when the harness runs everything; wall-clock
/// metrics are reported as their median with min, max and count.
const UNTRACED_RUNS: usize = 3;

fn bound_text(bound: Bound) -> String {
    match bound {
        Bound::Relative(share) => format!("{}%", share * 100.0),
        Bound::Absolute(distance) => format!("{distance}abs"),
        Bound::Exact => "exact".into(),
    }
}

fn value_text(value: Option<f64>) -> String {
    value.map_or("null".into(), |v| v.to_string())
}

/// Where the span file of a traced run goes: `out/` beside `Cargo.toml`.
fn span_file(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// Print one run: the fact lines, then the JSON result as the last line.
pub fn print_run(workload: &Workload, seed: u64, seconds: u64, traced: bool, run: &Report) {
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name, traced as u8
    );
    for (key, value) in &run.info {
        println!("info {key} {value}");
    }
    let value_of = |name: &str| run.metrics.get(name).copied();
    let mut result = Vec::new();
    for m in END_TO_END {
        // The traced run re-measures the host-time metrics under a
        // different regime (one set-up, two passes); only the untraced
        // run reports those.
        if traced && m.on_every_workload {
            continue;
        }
        println!(
            "metric {} {} {} {} {}",
            m.name,
            value_text(value_of(m.name)),
            m.unit,
            m.better.as_str(),
            bound_text(m.bound)
        );
        if m.on_every_workload {
            let value = value_of(m.name).expect("defined on every workload");
            result.push((m.name, m.unit, value));
        } else if traced {
            result.push((m.name, m.unit, value_of(m.name).unwrap_or(0.0)));
        }
    }
    if traced {
        for m in PER_LAYER {
            let value = value_of(m.name).unwrap_or(0.0);
            println!(
                "metric {} {value} {} {} -",
                m.name,
                m.unit,
                m.better.as_str()
            );
            result.push((m.name, m.unit, value));
        }
    }
    if let Some((wall_s, layers)) = &run.layers {
        let mut accounted = 0.0;
        for (component, busy_s) in layers {
            accounted += busy_s;
            println!(
                "layer {component} {busy_s:.4} s {:.2} % of the traced span",
                busy_s / wall_s * 100.0
            );
        }
        println!(
            "layer residual {:.4} s {:.2} % of the traced span ({wall_s:.3} s)",
            wall_s - accounted,
            (wall_s - accounted) / wall_s * 100.0
        );
    }
    if let Some(log) = &run.spans {
        let path = span_file(workload.name, seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, log.to_jsonl()));
        match written {
            Ok(()) => println!(
                "info span_file {} ({} spans)",
                path.display(),
                log.spans().len()
            ),
            Err(e) => eprintln!("span file {} not written: {e}", path.display()),
        }
    }
    for failure in &run.checks.failures {
        println!("fail {}", failure.replace('\n', " "));
    }
    println!(
        "checks attempted {} failed {}",
        run.checks.attempted, run.checks.failed
    );
    let metrics = Json::obj(result.into_iter().map(|(name, unit, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(run.checks.failed == 0)),
            ("attempted", Json::Int(run.checks.attempted.max(1))),
            ("failed", Json::Int(run.checks.failed)),
            ("metrics", metrics),
        ])
        .render()
    );
}

/// The fact lines of one child run, read back.
#[derive(Debug, Default, Clone, PartialEq)]
struct ParsedRun {
    /// Metrics printed as `null` are left out.
    metrics: BTreeMap<String, f64>,
    info: BTreeMap<String, String>,
    layers: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn parse_run(stdout: &str) -> Result<ParsedRun, String> {
    let mut run = ParsedRun::default();
    let mut saw_checks = false;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(value)) = (words.next(), words.next()) else {
                    return Err(format!("short metric line: {line}"));
                };
                if value != "null" {
                    let value = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad metric value: {line}"))?;
                    run.metrics.insert(name.to_string(), value);
                }
            }
            Some("info") => {
                if let Some(key) = words.next() {
                    run.info
                        .insert(key.to_string(), words.collect::<Vec<_>>().join(" "));
                }
            }
            Some("layer") => run.layers.push(line["layer ".len()..].to_string()),
            Some("fail") => run.failures.push(line["fail ".len()..].to_string()),
            Some("checks") => {
                let numbers: Vec<u64> = words.filter_map(|w| w.parse().ok()).collect();
                let [attempted, failed] = numbers[..] else {
                    return Err(format!("bad checks line: {line}"));
                };
                (run.attempted, run.failed, saw_checks) = (attempted, failed, true);
            }
            _ => {}
        }
    }
    if saw_checks {
        Ok(run)
    } else {
        Err("run printed no checks line".into())
    }
}

/// Run one workload once in a child process of this same binary.
fn run_child(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<ParsedRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    parse_run(&String::from_utf8_lossy(&output.stdout))
}

/// One end-to-end metric over the untraced runs of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    median: f64,
    min: f64,
    max: f64,
    runs: usize,
}

/// One workload's results within one set.
#[derive(Debug, Default, Clone)]
struct WorkloadResult {
    end_to_end: BTreeMap<&'static str, Summary>,
    digests: BTreeMap<String, String>,
    failed: u64,
}

fn run_workload(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult::default();
    let (mut attempted, mut failures) = (0, Vec::new());
    println!("== {} — {}", workload.name, workload.why);

    let untraced: Vec<ParsedRun> = if trace == Some(true) {
        Vec::new()
    } else {
        (0..UNTRACED_RUNS)
            .map(|_| run_child(workload, seed, seconds, false))
            .collect::<Result<_, _>>()?
    };
    let traced = match trace {
        Some(false) => None,
        _ => Some(run_child(workload, seed, seconds, true)?),
    };
    for run in untraced.iter().chain(&traced) {
        attempted += run.attempted;
        result.failed += run.failed;
        failures.extend(run.failures.iter().cloned());
        for key in ["input_digest", "fingerprint", "trace_digest"] {
            let Some(digest) = run.info.get(key) else {
                continue;
            };
            let first = result
                .digests
                .entry(key.into())
                .or_insert_with(|| digest.clone());
            attempted += 1;
            if first != digest {
                result.failed += 1;
                failures.push(format!("{key} differs between runs: {first} vs {digest}"));
            }
        }
    }
    if let Some(run) = untraced.first().or(traced.as_ref()) {
        for key in [
            "hosts",
            "jobs",
            "configured_tasks",
            "running_tasks",
            "span_sim_mins",
            "cases",
        ] {
            if let Some(value) = run.info.get(key) {
                print!("   {key} {value}");
            }
        }
        println!();
    }
    for (key, digest) in &result.digests {
        println!("   {key} {digest}");
    }

    println!("   end-to-end (median of {} untraced runs)", untraced.len());
    for m in END_TO_END {
        let source: Vec<&ParsedRun> = if untraced.is_empty() && !m.on_every_workload {
            traced.iter().collect()
        } else {
            untraced.iter().collect()
        };
        let values: Vec<f64> = source
            .iter()
            .filter_map(|run| run.metrics.get(m.name).copied())
            .collect();
        let summary = (!values.is_empty()).then(|| Summary {
            median: median(&values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            runs: values.len(),
        });
        if let (Some(s), false) = (summary, m.wall_clock) {
            attempted += 1;
            if s.min != s.max {
                result.failed += 1;
                failures.push(format!("{} differs between runs of one seed", m.name));
            }
        }
        match summary {
            None => println!("     {:<24} null", m.name),
            Some(s) => println!(
                "     {:<24} {:<12.6} {:<8} {} is better, bound {:<8} min {:.6} max {:.6} n={}",
                m.name,
                s.median,
                m.unit,
                m.better.as_str(),
                bound_text(m.bound),
                s.min,
                s.max,
                s.runs
            ),
        }
        result.end_to_end.extend(summary.map(|s| (m.name, s)));
    }
    if let Some(run) = &traced {
        println!("   per-layer (traced run)");
        for m in PER_LAYER {
            let value = run.metrics.get(m.name).copied().unwrap_or(0.0);
            println!("     {:<36} {:<14.6} {}", m.name, value, m.unit);
        }
        println!("   share of the traced span per layer");
        for line in &run.layers {
            println!("     {line}");
        }
    }
    for failure in &failures {
        println!("   FAIL {failure}");
    }
    println!(
        "   checks_failed {} of checks_attempted {attempted}",
        result.failed
    );
    Ok(result)
}

/// How far apart two sets' values of one metric may be, and whether they
/// are: `(spread, allowed, ok)`.
fn compare(metric: &EndToEnd, a: f64, b: f64) -> (f64, String, bool) {
    let distance = (a - b).abs();
    let mean = (a + b) / 2.0;
    let relative = if mean == 0.0 {
        0.0
    } else {
        distance / mean.abs()
    };
    match metric.bound {
        Bound::Relative(share) if metric.wall_clock => {
            (relative, bound_text(metric.bound), relative <= share)
        }
        Bound::Absolute(limit) if metric.wall_clock => {
            (distance, bound_text(metric.bound), distance <= limit)
        }
        // A simulated or encoded value repeats exactly for one seed,
        // whatever bound it carries against other commits.
        _ => (distance, "exact".into(), distance == 0.0),
    }
}

/// Hold every later set against the first. Returns whether all agree.
fn compare_sets(sets: &[Vec<WorkloadResult>]) -> bool {
    let mut ok = true;
    println!("== sets: each end-to-end metric of set 1 against the later sets");
    for (s, set) in sets.iter().enumerate().skip(1) {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let (first, later) = (&sets[0][w], &set[w]);
            for m in END_TO_END {
                let pair = (first.end_to_end.get(m.name), later.end_to_end.get(m.name));
                let (spread, allowed, agrees) = match pair {
                    (None, None) => continue,
                    (Some(a), Some(b)) => compare(m, a.median, b.median),
                    _ => (f64::INFINITY, "defined in both".into(), false),
                };
                ok &= agrees;
                println!(
                    "   set {} {:<14} {:<24} spread {:<10.5} allowed {:<8} {}",
                    s + 1,
                    workload.name,
                    m.name,
                    spread,
                    allowed,
                    if agrees { "ok" } else { "BREACH" }
                );
            }
            if first.digests != later.digests {
                ok = false;
                println!(
                    "   set {} {:<14} digests differ: {:?} vs {:?} BREACH",
                    s + 1,
                    workload.name,
                    first.digests,
                    later.digests
                );
            }
        }
    }
    ok
}

/// Run every workload (`sets` times). Returns whether every check passed
/// and every set agreed with the first.
pub fn run_all(seed: u64, seconds: u64, trace: Option<bool>, sets: usize) -> bool {
    println!(
        "turbine benchmark: seed {seed}, {seconds} s spans, {} logical cpus, {} set(s)",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sets
    );
    let mut ok = true;
    let mut results = Vec::new();
    for set in 0..sets {
        if sets > 1 {
            println!("==== set {} of {sets}", set + 1);
        }
        let mut set_results = Vec::new();
        for workload in WORKLOADS {
            match run_workload(workload, seed, seconds, trace) {
                Ok(result) => {
                    ok &= result.failed == 0;
                    set_results.push(result);
                }
                Err(e) => {
                    println!("   FAIL {}: {e}", workload.name);
                    ok = false;
                    set_results.push(WorkloadResult::default());
                }
            }
        }
        results.push(set_results);
    }
    if sets > 1 {
        ok &= compare_sets(&results);
    }
    println!(
        "{}",
        if ok {
            "benchmark ok"
        } else {
            "benchmark FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_lines_read_back() {
        let run = parse_run(
            "workload steady_fleet seed 1 seconds 10 trace 0\n\
             info fingerprint 0x00000000deadbeef\n\
             metric sim_hours_per_wall_s 0.1712 sim-h/s higher 10%\n\
             metric sim_recovery_p99_s null sim-s lower 10%\n\
             layer data_plane 4.1000 s 41.00 % of the traced span\n\
             fail something broke\n\
             checks attempted 4681 failed 1\n\
             {\"correct\": false}\n",
        )
        .expect("well-formed");
        assert_eq!(run.metrics["sim_hours_per_wall_s"], 0.1712);
        assert!(!run.metrics.contains_key("sim_recovery_p99_s"));
        assert_eq!(run.info["fingerprint"], "0x00000000deadbeef");
        assert_eq!(run.layers.len(), 1);
        assert_eq!(run.failures, ["something broke"]);
        assert_eq!((run.attempted, run.failed), (4681, 1));
        assert!(
            parse_run("metric x 1 s lower -\n").is_err(),
            "no checks line"
        );
    }

    #[test]
    fn sets_agree_within_the_bound_and_simulated_values_exactly() {
        let wall = &END_TO_END[0];
        assert!(wall.wall_clock && wall.bound == Bound::Relative(0.25));
        assert!(compare(wall, 1.00, 1.25).2);
        assert!(!compare(wall, 1.00, 1.30).2);
        let simulated = END_TO_END
            .iter()
            .find(|m| m.name == "sim_slo_ok_fraction")
            .expect("listed");
        assert!(compare(simulated, 0.9, 0.9).2);
        assert!(
            !compare(simulated, 0.9, 0.9001).2,
            "one seed repeats exactly"
        );
    }
}
