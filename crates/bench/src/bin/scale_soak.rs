//! Scale soak — the sparse-data-plane gate at fleet scale.
//!
//! The scenario models the paper's deployment shape: ~10k hosts and
//! 120k+ tasks (12k jobs x 10 tasks), where at any instant the
//! overwhelming majority of the fleet is converged and quiet. A dense
//! control plane pays O(fleet) every round regardless; the sparse data
//! plane (attention sets + change feeds + dirty-scope bookkeeping)
//! must pay only for what changed. Two bursts punctuate 24 quiet
//! simulated hours: an oncall scale-up wave at hour 6 and a host flap at
//! hour 12.
//!
//! The sparse leg drives `DriveMode::EventDriven`, the full-scan leg
//! `DriveMode::FullScan`: the same round bodies, handed every job and
//! every container at each executed instant. Both run the identical
//! scenario from the same seed and must produce bit-for-bit identical
//! platform fingerprints — the work reduction is only reported if the
//! sparse plane changed nothing observable. The sparse leg also goes
//! through a snapshot blob at hour 12, right before the flap, and finishes
//! on the restored platform; the full-scan leg does not, so gate 1 covers
//! restore == uninterrupted at fleet scale too. The round trip is timed on
//! its own, outside the sparse leg's wall clock. Gates:
//!   1. fingerprint(full) == fingerprint(sparse, restored at hour 12)
//!   2. the full-scan leg examined every job at every sync round and
//!      sent a report from every container at every load-report round
//!   3. full/sparse `sync_jobs_examined` ratio >= 5x
//!   4. sparse wall clock <= --max-wall-secs
//!
//! Results go to stdout and `BENCH_scale.json`; `ci.sh` bounds the blob
//! size and round-trip time it reads from there.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin scale_soak              # 10k hosts, 24 h
//! cargo run --release -p turbine-bench --bin scale_soak -- \
//!     --hosts 1000 --jobs 1000 --hours 13                            # smoke size
//! ```

use std::time::Instant;
use turbine::{DriveMode, PlatformFingerprint, Turbine, TurbineConfig};
use turbine_bench::{scuba_host, Args, MAX_HOURS};
use turbine_config::{ConfigValue, JobConfig};
use turbine_snap::Snapshot;
use turbine_types::{Duration, JobId};
use turbine_workloads::TrafficModel;

const TASKS_PER_JOB: u32 = 10;
/// One job in this many carries live traffic; the rest sit drained, the
/// way an off-peak tier does. The quiet majority is exactly what the
/// sparse plane must never re-walk.
const ACTIVE_EVERY: u64 = 20;

struct Params {
    hosts: u64,
    jobs: u64,
    hours: u64,
    seed: u64,
    max_wall_secs: f64,
}

/// One run's observables: the fingerprint the equivalence gate compares
/// and the per-round work the reduction gate measures.
struct RunResult {
    fingerprint: PlatformFingerprint,
    wall_secs: f64,
    sync_jobs_examined: u64,
    load_reports_sent: u64,
    /// What a full scan examines: jobs × sync rounds run.
    all_jobs_every_round: u64,
    /// What a full scan reports: containers × load-report rounds run.
    all_containers_every_round: u64,
    /// The hour-12 round trip (sparse leg).
    snapshot: Option<RoundTrip>,
}

#[derive(Clone, Copy)]
struct RoundTrip {
    blob_bytes: usize,
    wall_secs: f64,
    /// Peak RSS when the capture starts: what the running platform needs,
    /// before the blob and the second platform are resident beside it.
    steady_rss_mb: Option<f64>,
}

/// This process's peak resident set so far (`VmHWM`), in MB; `None` where
/// there is no `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn build_platform(p: &Params) -> Turbine {
    let mut config = TurbineConfig::default();
    // Fleet-shaped control cadences: shard space sized to the host count,
    // and the loops that are O(fleet) even when idle (heartbeat walks
    // containers, TM refresh rebuilds the task snapshot, metrics walks
    // tasks) spread out the way a real regional deployment staggers them.
    // The sync loop keeps a tight 1-minute cadence — that is the loop
    // whose work the sparse plane makes proportional to change.
    config.shard_count = (p.hosts * 2).max(1024);
    config.sync_interval = Duration::from_mins(1);
    config.heartbeat_interval = Duration::from_mins(1);
    config.tm_refresh_interval = Duration::from_mins(15);
    config.load_report_interval = Duration::from_mins(5);
    config.metrics_interval = Duration::from_mins(10);
    config.checkpoint_interval = Duration::from_mins(15);
    config.capacity_interval = Duration::from_hours(1);
    config.rebalance_interval = Duration::from_hours(1);
    // The scenario is about control-plane work on a quiet fleet, not
    // elasticity: pin parallelism so the quiet spans stay task-stable.
    config.scaler_enabled = false;
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(p.hosts as usize, scuba_host());
    for i in 0..p.jobs {
        let id = JobId(i + 1);
        let active = i % ACTIVE_EVERY == 0;
        let name = format!("scale_{}_{i}", if active { "live" } else { "idle" });
        let config = JobConfig::stateless(&name, TASKS_PER_JOB, 32);
        let traffic = if active {
            TrafficModel::flat(1.0e6)
        } else {
            TrafficModel::flat(0.0)
        };
        turbine
            .provision_job(id, config, traffic, 1.0e6, 256.0)
            .expect("scale fleet provisions");
    }
    turbine
}

fn run(p: &Params, mode: DriveMode) -> RunResult {
    let started = Instant::now();
    let mut t = build_platform(p);
    // Hours 0-6: converge, then sit quiet.
    t.drive_for(Duration::from_hours(6), mode);
    // Hour 6: an oncall scale-up wave across a handful of live jobs — a
    // burst of store changes the sparse syncer must pick up from its feed.
    for wave in 0..5u64 {
        let job = JobId(wave * ACTIVE_EVERY + 1);
        t.oncall_set(
            job,
            "task_count",
            ConfigValue::Int(TASKS_PER_JOB as i64 + 2),
        )
        .expect("oncall scale");
    }
    t.drive_for(Duration::from_hours(6), mode);
    // Hour 12, sparse leg: through a blob and back, then on with the copy.
    let mut snapshot = None;
    if mode == DriveMode::EventDriven {
        let steady_rss_mb = peak_rss_mb();
        let round_trip = Instant::now();
        let blob = Snapshot::capture(&t).to_bytes();
        t = Snapshot::from_bytes(&blob)
            .and_then(|s| s.restore())
            .expect("own blob restores");
        snapshot = Some(RoundTrip {
            blob_bytes: blob.len(),
            wall_secs: round_trip.elapsed().as_secs_f64(),
            steady_rss_mb,
        });
    }
    // Hour 12: a host flap — fail-over, standby churn, and cluster-scope
    // dirt, then 11.5 quiet hours of tail.
    let victim = t.cluster.hosts()[(p.seed % p.hosts) as usize];
    t.fail_host(victim).expect("fail host");
    t.drive_for(Duration::from_mins(30), mode);
    t.recover_host(victim).expect("recover host");
    t.drive_for(
        Duration::from_hours(p.hours.saturating_sub(12)) - Duration::from_mins(30),
        mode,
    );
    let round_trip_secs = snapshot.map_or(0.0, |trip| trip.wall_secs);
    // No fault gates a sync or load-report round here, so each ran at
    // every multiple of its cadence (phase = cadence).
    let now_ms = t.now().as_millis();
    let rounds = |cadence: Duration| now_ms / cadence.as_millis();
    RunResult {
        fingerprint: t.fingerprint(),
        wall_secs: started.elapsed().as_secs_f64() - round_trip_secs,
        sync_jobs_examined: t.metrics.sync_jobs_examined.get(),
        load_reports_sent: t.metrics.load_reports_sent.get(),
        all_jobs_every_round: p.jobs * rounds(t.config().sync_interval),
        all_containers_every_round: t.task_managers().len() as u64
            * rounds(t.config().load_report_interval),
        snapshot,
    }
}

fn main() {
    let mut p = Params {
        hosts: 10_000,
        jobs: 12_000,
        hours: 24,
        seed: 7,
        // A backstop, not the work measure (that is the sync ratio): the
        // sparse leg's wall time is dominated by the O(fleet) costs both
        // modes share (data-plane ticks, heartbeat walks, TM snapshot
        // rebuilds). Sized for a single-core CI box at the full default
        // scale; pass --max-wall-secs to tighten on faster hardware.
        max_wall_secs: 900.0,
    };
    let args = Args::from_env(
        "usage: scale_soak [--hosts N] [--jobs N] [--hours H>=13] [--seed S] [--max-wall-secs W]",
        &["--hosts", "--jobs", "--hours", "--seed", "--max-wall-secs"],
    );
    let count = |flag| args.value::<u32>(flag, 1, u32::MAX).map(u64::from);
    p.hosts = count("--hosts").unwrap_or(p.hosts);
    p.jobs = count("--jobs").unwrap_or(p.jobs);
    p.hours = args.value("--hours", 13, MAX_HOURS).unwrap_or(p.hours);
    p.seed = args.value("--seed", 0, u64::MAX).unwrap_or(p.seed);
    p.max_wall_secs = args
        .value("--max-wall-secs", f64::MIN_POSITIVE, f64::INFINITY)
        .unwrap_or(p.max_wall_secs);
    let tasks = p.jobs * TASKS_PER_JOB as u64;
    eprintln!(
        "scale soak: {} hosts, {} jobs ({tasks} tasks), {} simulated hours, seed {}",
        p.hosts, p.jobs, p.hours, p.seed
    );

    eprintln!("sparse data plane...");
    let sparse = run(&p, DriveMode::EventDriven);
    eprintln!(
        "  {:.1}s wall, {} jobs examined, {} load reports",
        sparse.wall_secs, sparse.sync_jobs_examined, sparse.load_reports_sent
    );
    let trip = sparse.snapshot.expect("the sparse leg round-trips");
    let snapshot_roundtrip_s = trip.wall_secs;
    let snapshot_mb = trip.blob_bytes as f64 / (1024.0 * 1024.0);
    eprintln!("full-scan reference...");
    let full = run(&p, DriveMode::FullScan);
    eprintln!(
        "  {:.1}s wall, {} jobs examined, {} load reports",
        full.wall_secs, full.sync_jobs_examined, full.load_reports_sent
    );

    let matches = full.fingerprint == sparse.fingerprint;
    let sync_ratio = full.sync_jobs_examined as f64 / sparse.sync_jobs_examined.max(1) as f64;
    let load_ratio = full.load_reports_sent as f64 / sparse.load_reports_sent.max(1) as f64;
    println!(
        "## scale soak ({} hosts, {tasks} tasks, {} h, two bursts)",
        p.hosts, p.hours
    );
    println!(
        "  syncer work : full {} vs sparse {} jobs examined ({sync_ratio:.1}x less)",
        full.sync_jobs_examined, sparse.sync_jobs_examined
    );
    println!(
        "  load reports: full {} vs sparse {} sent ({load_ratio:.1}x less)",
        full.load_reports_sent, sparse.load_reports_sent
    );
    println!(
        "  wall clock  : sparse {:.1}s, full {:.1}s (gate {:.0}s)",
        sparse.wall_secs, full.wall_secs, p.max_wall_secs
    );
    println!(
        "  snapshot    : {snapshot_mb:.2} MB blob at hour 12, {snapshot_roundtrip_s:.2}s through \
         bytes and back (not in the sparse wall clock)"
    );
    // Both legs are done: the process's peak is the round trip's (the blob
    // and two platforms at once). Omitted where the OS does not say.
    let rss_json = match (trip.steady_rss_mb, peak_rss_mb()) {
        (Some(steady), Some(peak)) => {
            println!("  memory      : {steady:.1} MB peak RSS before the round trip, {peak:.1} MB at exit");
            format!("  \"steady_rss_mb\": {steady:.1},\n  \"peak_rss_mb\": {peak:.1},\n")
        }
        _ => String::new(),
    };
    println!(
        "  fingerprint : now_ms {} counters {:?} fault 0x{:016x} slo 0x{:016x}",
        sparse.fingerprint.now_ms,
        sparse.fingerprint.counters,
        sparse.fingerprint.fault_digest,
        sparse.fingerprint.slo_digest
    );

    let json = format!(
        "{{\n  \"bench\": \"scale_soak\",\n  \"hosts\": {},\n  \"jobs\": {},\n  \
         \"tasks\": {tasks},\n  \"sim_hours\": {},\n  \"seed\": {},\n  \
         \"sparse_wall_secs\": {:.3},\n  \"full_wall_secs\": {:.3},\n  \
         \"snapshot_mb\": {snapshot_mb:.3},\n  \"snapshot_roundtrip_s\": {snapshot_roundtrip_s:.3},\n\
         {rss_json}  \
         \"sparse_sync_jobs_examined\": {},\n  \"full_sync_jobs_examined\": {},\n  \
         \"sync_work_ratio\": {sync_ratio:.3},\n  \
         \"sparse_load_reports\": {},\n  \"full_load_reports\": {},\n  \
         \"load_report_ratio\": {load_ratio:.3},\n  \
         \"fingerprint_match\": {matches},\n  \"counters\": {:?},\n  \"now_ms\": {}\n}}\n",
        p.hosts,
        p.jobs,
        p.hours,
        p.seed,
        sparse.wall_secs,
        full.wall_secs,
        sparse.sync_jobs_examined,
        full.sync_jobs_examined,
        sparse.load_reports_sent,
        full.load_reports_sent,
        sparse.fingerprint.counters,
        sparse.fingerprint.now_ms
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    print!("{json}");

    if !matches {
        eprintln!(
            "SPARSE DIVERGENCE: full fingerprint {:?} vs sparse {:?}",
            full.fingerprint, sparse.fingerprint
        );
        std::process::exit(1);
    }
    if full.sync_jobs_examined != full.all_jobs_every_round
        || full.load_reports_sent != full.all_containers_every_round
    {
        eprintln!(
            "FULL SCAN SHORT: the reference examined {} jobs (every job at every sync round \
             is {}) and sent {} load reports (every container at every round is {})",
            full.sync_jobs_examined,
            full.all_jobs_every_round,
            full.load_reports_sent,
            full.all_containers_every_round
        );
        std::process::exit(1);
    }
    if sync_ratio < 5.0 {
        eprintln!(
            "WORK REDUCTION BELOW TARGET: {sync_ratio:.2}x < 5x syncer work reduction on a \
             mostly-quiet fleet"
        );
        std::process::exit(1);
    }
    if sparse.wall_secs > p.max_wall_secs {
        eprintln!(
            "WALL CLOCK OVER BUDGET: sparse run took {:.1}s > {:.0}s",
            sparse.wall_secs, p.max_wall_secs
        );
        std::process::exit(1);
    }
}
