//! Runs one workload once: set-ups, the timed span, the correctness
//! checks, and (traced) the per-layer numbers.
//!
//! The load is a closed batch in one single-threaded process: work is
//! simulated time completed per wall-second at the workload's stated fleet
//! size. `--trace 0` sets up five times, three before the timed span and two
//! after it (reporting the median as `setup_s`), and times one untraced span
//! at platform defaults.
//! `--trace 1` times the same span twice on fresh platforms — untraced in
//! large `run_for` calls, then traced in one-simulated-minute calls with a
//! span around each — so the difference is the tracing overhead and the
//! two fingerprints must match.

use crate::adapter::FUZZ_DRIVES_PER_CASE;
use crate::adapter::{probes, Busy, Calls, Counters, FuzzCase, Platform, SnapTimings};
use crate::metrics::BUSY_METRIC_OF_COMPONENT;
use crate::plan::{Action, FleetPlan};
use crate::spans::SpanLog;
use crate::stats::{fnv1a, median, percentile, supports_percentile};
use crate::workloads::{Kind, Size, Workload, SETUPS_AFTER_SPAN, SETUPS_BEFORE_SPAN};
use std::collections::BTreeMap;
use std::time::Instant;

/// Cases each `fuzz_sweep` set-up runs untimed, so the timed sweep starts
/// with code paged in and the allocator warm. They come from a fixed seed,
/// not from `--seed`: a case costs anything from 10 to 300 ms, and eight
/// seeded ones would make `setup_s` measure the draw, not the set-up.
const FUZZ_WARMUP_CASES: usize = 8;
const FUZZ_WARMUP_SEED: u64 = 0xF022;

/// The benchmark's own pass/fail bookkeeping.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// One check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// A batch of product calls that must all succeed.
    fn calls(&mut self, calls: Calls) {
        self.attempted += calls.made as u64;
        if let Some(first_error) = calls.first_error {
            self.fail(calls.failed as u64, first_error);
        }
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// Everything one run reports.
pub struct Report {
    /// Metric values by name; a metric undefined on this workload is
    /// absent.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digests, sizes and sample counts, as information.
    pub info: Vec<(&'static str, String)>,
    /// The checks.
    pub checks: Checks,
    /// Traced run: wall seconds of the traced span and each component's
    /// busy seconds inside it.
    pub layers: Option<(f64, Vec<(&'static str, f64)>)>,
    /// Traced run: the spans.
    pub spans: Option<SpanLog>,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: BTreeMap::new(),
            info: Vec::new(),
            checks: Checks::default(),
            layers: None,
            spans: None,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }
}

/// Run `workload` once.
pub fn run(workload: &Workload, seed: u64, seconds: u64, traced: bool) -> Report {
    let size = workload.reference_size(seconds);
    let mut report = match workload.kind {
        Kind::Fleet(build) => run_fleet(workload.name, &build(seed, size), traced),
        Kind::Fuzz => run_fuzz(workload.name, seed, size, traced),
    };
    if !traced {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    report
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads its peak RSS from /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The p90 of the samples where they support one (ten samples beyond
/// it); below that only the median is worth reporting.
fn p90_or_median(samples: &[f64]) -> f64 {
    if supports_percentile(samples.len(), 0.9) {
        percentile(samples, 0.9)
    } else {
        median(samples)
    }
}

// ---------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------

/// Build the platform and warm it up: construction, fleet provisioning,
/// first placement, first sync, caches filled.
fn set_up(plan: &FleetPlan, checks: &mut Checks) -> Platform {
    let (mut platform, provisioned) = Platform::build(plan);
    checks.calls(provisioned);
    platform.run_for_mins(plan.warmup_mins);
    platform
}

/// One timed span and what it left behind.
struct Pass {
    wall_s: f64,
    platform: Platform,
    span_start_ms: u64,
    counters: Counters,
    /// Per-component host time inside the span. Traced pass only: a
    /// snapshot restore restarts the latency histograms, so the untraced
    /// pass cannot take a difference across one.
    busy: Vec<Busy>,
    snapshot: Option<SnapTimings>,
    write_refusals: u64,
    minute_walls_ms: Vec<f64>,
}

fn counters_since(end: Counters, start: Counters) -> Counters {
    Counters {
        ticks_executed: end.ticks_executed - start.ticks_executed,
        shard_moves: end.shard_moves - start.shard_moves,
        failovers: end.failovers - start.failovers,
        scaling_actions: end.scaling_actions - start.scaling_actions,
        sync_jobs_examined: end.sync_jobs_examined - start.sync_jobs_examined,
        load_reports_sent: end.load_reports_sent - start.load_reports_sent,
        fault_transitions: end.fault_transitions - start.fault_transitions,
        recoveries: end.recoveries - start.recoveries,
    }
}

fn busy_since(end: &[Busy], start: &[Busy]) -> Vec<Busy> {
    end.iter()
        .zip(start)
        .map(|(e, s)| Busy {
            component: e.component,
            rounds: e.rounds - s.rounds,
            total_ns: e.total_ns - s.total_ns,
            max_ns: e.max_ns,
        })
        .collect()
}

/// Snapshot round trip with the allocator warm. On the reference VM the
/// first touch of a fresh page costs 2–6 µs depending on what the host
/// last did with it, so one cold round trip takes 1.0–2.7 s for the same
/// work; the second reuses the first one's pages and repeats within a few
/// percent. The first is discarded, the second is the measurement and
/// the platform the run continues on.
fn warm_snapshot_roundtrip(platform: &Platform) -> Result<(Platform, SnapTimings), String> {
    drop(platform.snapshot_roundtrip()?);
    platform.snapshot_roundtrip()
}

/// Apply the interventions due at `minute`. An oncall pin made while the
/// Job Store is down must be refused; that is the fault working, so it is
/// counted as a refusal, not as a failed call.
fn intervene(
    platform: &mut Platform,
    plan: &FleetPlan,
    minute: u64,
    checks: &mut Checks,
    refusals: &mut u64,
    mut log: Option<(&mut SpanLog, usize)>,
) {
    for (_, action) in plan.actions.iter().filter(|&&(at, _)| at == minute) {
        let span = log
            .as_mut()
            .map(|(log, parent)| log.open(action.label(), Some(*parent)));
        let store_down = platform.job_store_down();
        let calls = platform.apply(plan, action);
        if store_down && matches!(action, Action::OncallPin { .. }) {
            checks.expect(calls.failed == calls.made, || {
                "oncall pin accepted while the Job Store is down".into()
            });
            *refusals += calls.failed as u64;
        } else {
            checks.calls(calls);
        }
        if let (Some((log, _)), Some(span)) = (log.as_mut(), span) {
            log.close(span, Vec::new());
        }
    }
}

/// Drive the timed span. Untraced (`log` is `None`): one `run_for` per
/// stretch between interventions, and the snapshot round trip where the
/// plan has one. Traced: one `run_for` per simulated minute, a span around
/// each call and each intervention, no snapshot (the traced pass is the
/// uninterrupted run the restored one is compared with).
fn timed_pass(
    mut platform: Platform,
    plan: &FleetPlan,
    checks: &mut Checks,
    mut log: Option<(&mut SpanLog, usize)>,
) -> Pass {
    for window in &plan.faults {
        let scheduled = platform.schedule_fault(window);
        checks.expect(scheduled.is_ok(), || {
            format!("schedule {:?}: {}", window.kind, scheduled.unwrap_err())
        });
    }
    let span_start_ms = platform.now_ms();
    let counters_start = platform.counters();
    let busy_start = platform.busy();
    let mut snapshot = None;
    let mut write_refusals = 0;
    let mut minute_walls_ms = Vec::new();
    let mut outside_span = 0.0;

    let started = Instant::now();
    match log.as_mut() {
        None => {
            let mut stops: Vec<u64> = plan.actions.iter().map(|&(at, _)| at).collect();
            stops.extend(plan.snapshot_at_min);
            stops.push(plan.span_mins);
            stops.sort_unstable();
            stops.dedup();
            let mut minute = 0;
            for stop in stops {
                platform.run_for_mins(stop - minute);
                minute = stop;
                if plan.snapshot_at_min == Some(minute) {
                    // Timed on its own, not charged to the span.
                    let paused = Instant::now();
                    match warm_snapshot_roundtrip(&platform) {
                        Ok((restored, timings)) => {
                            platform = restored;
                            snapshot = Some(timings);
                        }
                        Err(e) => checks.expect(false, || e),
                    }
                    outside_span += paused.elapsed().as_secs_f64();
                }
                intervene(
                    &mut platform,
                    plan,
                    minute,
                    checks,
                    &mut write_refusals,
                    None,
                );
            }
        }
        Some((log, parent)) => {
            let mut before = busy_start.clone();
            for minute in 0..plan.span_mins {
                intervene(
                    &mut platform,
                    plan,
                    minute,
                    checks,
                    &mut write_refusals,
                    Some((log, *parent)),
                );
                let span = log.open("run_for", Some(*parent));
                platform.run_for_mins(1);
                let after = platform.busy();
                let busy_ns = busy_since(&after, &before)
                    .iter()
                    .filter(|b| b.total_ns > 0)
                    .map(|b| (b.component, b.total_ns))
                    .collect();
                minute_walls_ms.push(log.close(span, busy_ns) * 1.0e3);
                before = after;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64() - outside_span;

    Pass {
        wall_s,
        span_start_ms,
        counters: counters_since(platform.counters(), counters_start),
        busy: match log {
            Some(_) => busy_since(&platform.busy(), &busy_start),
            None => Vec::new(),
        },
        platform,
        snapshot,
        write_refusals,
        minute_walls_ms,
    }
}

/// Where the invariant checker is on: no violation, no audit mismatch.
fn check_invariants(platform: &Platform, checks: &mut Checks) {
    if let Some((violations, _, mismatches)) = platform.invariants() {
        checks.expect(violations == 0, || {
            format!(
                "{violations} invariant violations, first: {}",
                platform.first_violation().unwrap_or_default()
            )
        });
        checks.expect(mismatches == 0, || {
            format!("{mismatches} sparse-vs-full audit mismatches")
        });
    }
}

/// End-to-end metrics of the untraced pass.
fn account_pass(pass: &Pass, plan: &FleetPlan, report: &mut Report) {
    let platform = &pass.platform;
    check_invariants(platform, &mut report.checks);
    report.set(
        "sim_hours_per_wall_s",
        plan.span_mins as f64 / 60.0 / pass.wall_s,
    );
    let end_ms = platform.now_ms();
    if let Some(mean) = platform.slo_ok_mean(pass.span_start_ms, end_ms) {
        report.set("sim_slo_ok_fraction", mean);
    }
    let recoveries: Vec<f64> = platform
        .recovery_ms_since(pass.span_start_ms)
        .iter()
        .map(|&ms| ms as f64 * 1.0e-3)
        .collect();
    if !recoveries.is_empty() {
        report.set("sim_recovery_p99_s", percentile(&recoveries, 0.99));
        report.set("sim_recoveries", recoveries.len() as f64);
    }
    if let Some(timings) = &pass.snapshot {
        report.set("snapshot_roundtrip_s", timings.roundtrip_s());
        report.set("snapshot_mb", timings.bytes as f64 / (1024.0 * 1024.0));
        report.set("snap.capture_ms", timings.capture_s * 1.0e3);
        report.set("snap.encode_ms", timings.encode_s * 1.0e3);
        report.set("snap.decode_restore_ms", timings.decode_restore_s * 1.0e3);
        report.set("snap.bytes", timings.bytes as f64);
        report.set("snap.unique_chunk_ratio", timings.unique_chunk_ratio);
    }
}

fn run_fleet(name: &'static str, plan: &FleetPlan, traced: bool) -> Report {
    let mut report = Report::new();
    report.note(
        "input_digest",
        format!("{:#018x}", fnv1a(format!("{plan:?}").as_bytes())),
    );
    report.note("hosts", plan.hosts);
    report.note("jobs", plan.jobs.len());
    report.note("configured_tasks", plan.configured_tasks());
    report.note("span_sim_mins", plan.span_mins);

    if !traced {
        let mut setups = Vec::new();
        let mut platform = None;
        for _ in 0..SETUPS_BEFORE_SPAN {
            // Drop the previous platform first, so peak RSS is one
            // platform's, not two.
            drop(platform.take());
            let started = Instant::now();
            platform = Some(set_up(plan, &mut report.checks));
            setups.push(started.elapsed().as_secs_f64());
        }
        let platform = platform.expect("at least one set-up");
        report.note("running_tasks", platform.running_tasks());
        let pass = timed_pass(platform, plan, &mut report.checks, None);
        account_pass(&pass, plan, &mut report);
        report.note("timed_span_wall_s", format!("{:.3}", pass.wall_s));
        report.note(
            "fingerprint",
            format!("{:#018x}", pass.platform.fingerprint_digest()),
        );
        report.note(
            "trace_digest",
            format!("{:#018x}", pass.platform.trace_digest()),
        );
        drop(pass);
        for _ in 0..SETUPS_AFTER_SPAN {
            let started = Instant::now();
            let platform = set_up(plan, &mut report.checks);
            setups.push(started.elapsed().as_secs_f64());
            drop(platform);
        }
        note_setups(&mut report, &setups);
        return report;
    }

    let mut log = SpanLog::new(name);
    let span = log.open("setup", None);
    let platform = set_up(plan, &mut report.checks);
    log.close(span, Vec::new());
    report.note("running_tasks", platform.running_tasks());
    let span = log.open("untraced_pass", None);
    let untraced = timed_pass(platform, plan, &mut report.checks, None);
    log.close(span, Vec::new());
    account_pass(&untraced, plan, &mut report);
    let (untraced_wall_s, untraced_ticks) = (untraced.wall_s, untraced.counters.ticks_executed);
    let untraced_digests = (
        untraced.platform.fingerprint_digest(),
        untraced.platform.trace_digest(),
    );
    drop(untraced);

    let span = log.open("setup", None);
    let platform = set_up(plan, &mut report.checks);
    log.close(span, Vec::new());
    let span = log.open("traced_pass", None);
    let mut pass = timed_pass(platform, plan, &mut report.checks, Some((&mut log, span)));
    log.close(span, Vec::new());
    check_invariants(&pass.platform, &mut report.checks);

    // Where the plan has a snapshot, the untraced pass continued on the
    // restored platform, so this also holds restore == uninterrupted.
    let digests = (
        pass.platform.fingerprint_digest(),
        pass.platform.trace_digest(),
    );
    report.checks.expect(digests.0 == untraced_digests.0, || {
        format!(
            "fingerprint: traced {:#018x} != untraced {:#018x}",
            digests.0, untraced_digests.0
        )
    });
    report.checks.expect(digests.1 == untraced_digests.1, || {
        format!(
            "trace digest: traced {:#018x} != untraced {:#018x}",
            digests.1, untraced_digests.1
        )
    });
    report.note("fingerprint", format!("{:#018x}", digests.0));
    report.note("trace_digest", format!("{:#018x}", digests.1));
    report.note("timed_span_wall_s", format!("{untraced_wall_s:.3}"));
    report.note("traced_span_wall_s", format!("{:.3}", pass.wall_s));
    report.note("sim_min_samples", pass.minute_walls_ms.len());

    report.set(
        "bench.trace_overhead_pct",
        (pass.wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
    );
    // One-minute calls cap sparse jumps, so the skip ratio is read from
    // the untraced pass.
    let grid_ticks = plan.span_mins as f64 * 60.0 / pass.platform.tick_secs();
    report.set(
        "core.platform.tick_skip_ratio",
        1.0 - untraced_ticks as f64 / grid_ticks,
    );
    layer_metrics(&mut pass, &mut report);
    probe_metrics(&mut pass.platform, plan, &mut report);
    report.spans = Some(log);
    report
}

fn note_setups(report: &mut Report, setups: &[f64]) {
    report.set("setup_s", median(setups));
    report.note(
        "setup_s_runs",
        format!(
            "n={} min={:.3} max={:.3}",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ),
    );
}

/// Counts and busy times of the traced pass, per layer.
fn layer_metrics(pass: &mut Pass, report: &mut Report) {
    let busy_of = |component: &str| {
        pass.busy
            .iter()
            .find(|b| b.component == component)
            .copied()
            .unwrap_or(Busy {
                component: "",
                rounds: 0,
                total_ns: 0,
                max_ns: 0,
            })
    };
    let mut layers = Vec::new();
    for &(component, metric) in BUSY_METRIC_OF_COMPONENT {
        let busy_s = busy_of(component).total_ns as f64 * 1.0e-9;
        report.set(metric, busy_s);
        layers.push((component, busy_s));
    }
    let accounted: f64 = pass.busy.iter().map(|b| b.total_ns as f64 * 1.0e-9).sum();
    report.set("core.residual_s", pass.wall_s - accounted);
    report.layers = Some((pass.wall_s, layers));

    let counters = pass.counters;
    let end_ms = pass.platform.now_ms();
    let mean_tasks = pass
        .platform
        .task_count_mean(pass.span_start_ms, end_ms)
        .unwrap_or(pass.platform.running_tasks() as f64);
    report.set("core.engine.ticks", counters.ticks_executed as f64);
    report.set(
        "core.engine.ns_per_task_tick",
        busy_of("data_plane").total_ns as f64
            / (counters.ticks_executed as f64 * mean_tasks).max(1.0),
    );
    report.set(
        "core.platform.sim_min_wall_ms_p50",
        median(&pass.minute_walls_ms),
    );
    report.set(
        "core.platform.sim_min_wall_ms_p90",
        p90_or_median(&pass.minute_walls_ms),
    );
    if let Some((_, checked, mismatches)) = pass.platform.invariants() {
        report.set("core.invariants.ticks_checked", checked as f64);
        report.set("core.invariants.audit_mismatches", mismatches as f64);
    }
    let refresh = busy_of("tm_refresh");
    report.set("taskmgr.refresh.rounds", refresh.rounds as f64);
    report.set("taskmgr.refresh.max_ms", refresh.max_ns as f64 * 1.0e-6);
    let (series, samples, incidents) = pass.platform.ods();
    report.set("ods.series", series as f64);
    report.set("ods.samples", samples as f64);
    report.set("ods.incidents", incidents as f64);
    report.set(
        "autoscaler.scaling_actions",
        counters.scaling_actions as f64,
    );
    report.set("autoscaler.mean_tasks", mean_tasks);
    let sync_rounds = busy_of("state_syncer").rounds;
    report.set("statesyncer.rounds", sync_rounds as f64);
    report.set(
        "statesyncer.jobs_examined",
        counters.sync_jobs_examined as f64,
    );
    report.set(
        "statesyncer.examined_per_round",
        counters.sync_jobs_examined as f64 / sync_rounds.max(1) as f64,
    );
    report.set(
        "jobstore.changelog_len",
        pass.platform.jobstore_changelog_len() as f64,
    );
    report.set("jobstore.write_refusals", pass.write_refusals as f64);
    report.set(
        "shardmgr.load_reports_sent",
        counters.load_reports_sent as f64,
    );
    report.set("shardmgr.shard_moves", counters.shard_moves as f64);
    report.set("shardmgr.failovers", counters.failovers as f64);
    report.set("sim.faults.transitions", counters.fault_transitions as f64);
    let (records, evicted) = pass.platform.trace_records();
    report.set("trace.records", records as f64);
    report.set("trace.evicted", evicted as f64);
}

/// Layer probes at the workload's own counts.
fn probe_metrics(platform: &mut Platform, plan: &FleetPlan, report: &mut Report) {
    report.set(
        "core.engine.tick_busy_ns_per_task",
        probes::engine_tick_ns_per_task(plan, true),
    );
    report.set(
        "core.engine.tick_idle_ns_per_task",
        probes::engine_tick_ns_per_task(plan, false),
    );
    report.set(
        "taskmgr.spec_gen_ns_per_job",
        probes::spec_gen_ns_per_job(plan),
    );
    report.set("taskmgr.snapshot_build_ms", probes::snapshot_build_ms(plan));
    report.set("ods.publish_ns", probes::ods_publish_ns(platform.ods().0));
    report.set("ods.alert_eval_us", probes::ods_alert_eval_us(platform));
    let (append, backlog) = probes::scribe_ns(plan);
    report.set("scribe.append_ns", append);
    report.set("scribe.category_backlog_ns", backlog);
    let (full, sparse, release) = probes::statesyncer_rounds(plan);
    report.set("statesyncer.noop_round_full_us", full);
    report.set("statesyncer.noop_round_sparse_us", sparse);
    report.set("statesyncer.release_round_ms", release);
    let (rmw, typed, recover) = probes::jobstore(plan, platform);
    report.set("jobstore.rmw_ns", rmw);
    report.set("jobstore.typed_read_ns", typed);
    report.set("jobstore.recover_ms", recover);
    report.set("config.layer_decode_ns", probes::config_layer_decode_ns());
    let (cold, warm) = probes::placement_ms(plan);
    report.set("shardmgr.placement_cold_ms", cold);
    report.set("shardmgr.placement_warm_ms", warm);
    report.set("sim.queue_op_ns", probes::sim_queue_op_ns());
}

/// Fingerprint of one untraced run of a (tiny) plan, for the determinism
/// self-tests.
#[cfg(test)]
pub fn tiny_fingerprint(plan: &FleetPlan) -> u64 {
    let mut checks = Checks::default();
    let platform = set_up(plan, &mut checks);
    let pass = timed_pass(platform, plan, &mut checks, None);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    pass.platform.fingerprint_digest()
}

// ---------------------------------------------------------------------
// fuzz_sweep
// ---------------------------------------------------------------------

/// `generate(seed + i)` for `n` consecutive seeds.
pub fn fuzz_cases(seed: u64, n: usize) -> Vec<FuzzCase> {
    (0..n as u64)
        .map(|i| FuzzCase::generate(seed.wrapping_add(i)))
        .collect()
}

/// Digest of the generated scenarios' canonical JSON.
pub fn fuzz_input_digest(cases: &[FuzzCase]) -> u64 {
    let text: String = cases.iter().map(FuzzCase::input_text).collect();
    fnv1a(text.as_bytes())
}

fn run_case(case: &FuzzCase, checks: &mut Checks) {
    let failures = case.run();
    checks.expect(failures.is_empty(), || failures.join("; "));
}

/// Generate the sweep's cases and run the warm-up cases untimed.
fn fuzz_set_up(seed: u64, n: usize, checks: &mut Checks) -> Vec<FuzzCase> {
    let cases = fuzz_cases(seed, n);
    for case in fuzz_cases(FUZZ_WARMUP_SEED, FUZZ_WARMUP_CASES) {
        run_case(&case, checks);
    }
    cases
}

fn run_fuzz(name: &'static str, seed: u64, size: Size, traced: bool) -> Report {
    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    let mut set_up = |report: &mut Report| {
        let started = Instant::now();
        let cases = fuzz_set_up(seed, size.jobs, &mut report.checks);
        setups.push(started.elapsed().as_secs_f64());
        cases
    };
    for _ in 0..if traced { 1 } else { SETUPS_BEFORE_SPAN } {
        cases = set_up(&mut report);
    }
    report.note(
        "input_digest",
        format!("{:#018x}", fuzz_input_digest(&cases)),
    );
    report.note("cases", cases.len());
    let sim_hours = cases.iter().map(FuzzCase::horizon_mins).sum::<u64>() as f64
        * FUZZ_DRIVES_PER_CASE as f64
        / 60.0;
    report.note("sim_hours", format!("{sim_hours:.2}"));

    let started = Instant::now();
    for case in &cases {
        run_case(case, &mut report.checks);
    }
    let wall_s = started.elapsed().as_secs_f64();
    report.set("sim_hours_per_wall_s", sim_hours / wall_s);
    report.note("timed_span_wall_s", format!("{wall_s:.3}"));
    if !traced {
        for _ in 0..SETUPS_AFTER_SPAN {
            set_up(&mut report);
        }
        note_setups(&mut report, &setups);
        return report;
    }

    let mut log = SpanLog::new(name);
    let pass = log.open("traced_pass", None);
    let mut case_walls_ms = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let span = log.open(
            format!("run_case {}", seed.wrapping_add(i as u64)),
            Some(pass),
        );
        run_case(case, &mut report.checks);
        case_walls_ms.push(log.close(span, Vec::new()) * 1.0e3);
    }
    let traced_wall_s = log.close(pass, Vec::new());
    report.note("traced_span_wall_s", format!("{traced_wall_s:.3}"));
    report.set(
        "bench.trace_overhead_pct",
        (traced_wall_s - wall_s) / wall_s * 100.0,
    );
    report.set("fuzz.cases", cases.len() as f64);
    report.set("fuzz.case_wall_ms_p50", median(&case_walls_ms));
    report.set("fuzz.case_wall_ms_p90", p90_or_median(&case_walls_ms));
    report.layers = Some((traced_wall_s, Vec::new()));
    report.spans = Some(log);
    report
}
