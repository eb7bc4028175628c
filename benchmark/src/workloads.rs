//! The five workloads: what each generates from `--seed`, and why.
//!
//! Sizes are constants here, not flags. Fleet sizes are the ones the issue
//! fixed; the simulated length of each timed span is
//! `SIM_MINS_PER_SECOND × --seconds`, calibrated so the span takes about
//! `--seconds` wall seconds on the 2-core reference box at the commit that
//! added the benchmark. The span is a function of the flag, never of the
//! clock, so one `(seed, seconds)` pair always simulates the same thing and
//! every simulated statistic repeats exactly.

use crate::adapter::fig5_fleet;
use crate::plan::{
    Action, Cadences, FaultKind, FaultWindow, FleetPlan, JobSpec, SeedStream, Storm, Tier, Traffic,
};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Set-ups per untraced run, before and after the timed span; `setup_s` is
/// the median of all of them. The machine's speed moves in phases of a few
/// seconds, so samples from both ends of the run give a steadier median
/// than the same number taken back to back.
pub const SETUPS_BEFORE_SPAN: usize = 3;
/// See [`SETUPS_BEFORE_SPAN`].
pub const SETUPS_AFTER_SPAN: usize = 2;

/// How large one run of a workload is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Hosts (fleet workloads).
    pub hosts: usize,
    /// Jobs (fleet workloads) or cases (`fuzz_sweep`).
    pub jobs: usize,
    /// Simulated minutes of the timed span (fleet workloads).
    pub span_mins: u64,
}

/// What a workload drives.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One big platform, driven through a [`FleetPlan`].
    Fleet(fn(u64, Size) -> FleetPlan),
    /// Many tiny platforms: `generate(seed + i)` → `run_case`.
    Fuzz,
}

/// One workload of the benchmark.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// Hosts at reference size.
    hosts: usize,
    /// Jobs at reference size (`fuzz_sweep`: 0, cases come from
    /// `per_second`).
    jobs: usize,
    /// Simulated minutes (`fuzz_sweep`: cases) per `--seconds` second.
    per_second: f64,
}

impl Workload {
    /// The reference size for a `--seconds` value.
    pub fn reference_size(&self, seconds: u64) -> Size {
        let amount = self.per_second * seconds as f64;
        match self.kind {
            // Whole tens of minutes, so interventions on the 10-minute
            // grid divide the span evenly.
            Kind::Fleet(_) => Size {
                hosts: self.hosts,
                jobs: self.jobs,
                span_mins: (((amount / 10.0).round() as u64) * 10).max(20),
            },
            Kind::Fuzz => Size {
                hosts: 0,
                jobs: (amount.round() as usize).max(4),
                span_mins: 0,
            },
        }
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady_fleet",
        why: "Every job busy, so no sparse jump fires and the five O(fleet) walks (tick, TM refresh, metrics, checkpoint, scaler) each show.",
        kind: Kind::Fleet(steady_fleet),
        hosts: 36,
        jobs: 4680,
        per_second: 10.0,
    },
    Workload {
        name: "quiet_fleet",
        why: "1000 hosts with 95 % of tasks idle on the sparse path: per-job quiescence and host-proportional walks should move this and nothing else.",
        kind: Kind::Fleet(quiet_fleet),
        hosts: 1000,
        jobs: 1000,
        per_second: 46.0,
    },
    Workload {
        name: "release_storm",
        why: "Rolling releases, oncall pins, host failures and a traffic storm: the write path beside the read path, so a cache that costs writes shows.",
        kind: Kind::Fleet(release_storm),
        hosts: 36,
        jobs: 2160,
        per_second: 23.0,
    },
    Workload {
        name: "chaos_audit",
        why: "Invariant checker, alert rules, the soak fault plan and a mid-run snapshot round trip: the verification and ops layers do the work.",
        kind: Kind::Fleet(chaos_audit),
        hosts: 24,
        jobs: 2400,
        per_second: 5.0,
    },
    Workload {
        name: "fuzz_sweep",
        why: "Hundreds of tiny platforms, three drive modes each with auto-snapshots: set-up-dominated, so work moved into construction shows as a loss.",
        kind: Kind::Fuzz,
        hosts: 0,
        jobs: 0,
        per_second: 13.0,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Jobs whose index falls on a seeded residue: `(i + offset) % every == 0`.
fn every_nth(jobs: usize, every: usize, offset: usize) -> impl Iterator<Item = usize> {
    (0..jobs).filter(move |i| (i + offset).is_multiple_of(every))
}

fn default_plan(seed: u64, size: Size) -> FleetPlan {
    FleetPlan {
        cadences: Cadences::Default,
        scaler: true,
        shard_count: 64 * size.hosts as u64,
        hosts: size.hosts,
        jobs: fig5_fleet(size.jobs, seed),
        invariants: false,
        alert_rules: false,
        // First placement, first sync and the caches settle within a few
        // simulated minutes; the issue's 30 would cost a third of a run
        // on the busy fleets (three set-ups per run).
        warmup_mins: 10,
        span_mins: size.span_mins,
        actions: Vec::new(),
        faults: Vec::new(),
        snapshot_at_min: None,
    }
}

/// 36 hosts, 4 680 Fig.-5 jobs, every one diurnal, platform defaults with
/// the scaler on. Nothing intervenes: the seed only shapes the fleet.
fn steady_fleet(seed: u64, size: Size) -> FleetPlan {
    default_plan(seed, size)
}

/// The `scale_soak` smoke shape on the default (sparse) path: 10 tasks per
/// job, one job in twenty at a flat 1 MB/s and the rest drained, fleet
/// cadences, scaler off; an oncall wave on five live jobs at 45 % of the
/// span and a host flap at 80 %. The seed picks which residue is live,
/// where the wave starts and which host flaps.
fn quiet_fleet(seed: u64, size: Size) -> FleetPlan {
    const LIVE_EVERY: usize = 20;
    let mut stream = SeedStream::new(seed, 2);
    let live_offset = stream.below(LIVE_EVERY as u64) as usize;
    let jobs: Vec<JobSpec> = (0..size.jobs)
        .map(|i| {
            let live = (i + live_offset).is_multiple_of(LIVE_EVERY);
            JobSpec {
                name: format!("scale_{}_{i}", if live { "live" } else { "idle" }),
                tasks: 10,
                partitions: 32,
                resources: None,
                traffic: Traffic::Flat(if live { 1.0e6 } else { 0.0 }),
                message_bytes: 256.0,
                stateful_keys: None,
                tier: Tier::Standard,
            }
        })
        .collect();
    let live: Vec<usize> = every_nth(size.jobs, LIVE_EVERY, live_offset).collect();
    let first = stream.below(live.len() as u64) as usize;
    let wave: Vec<usize> = (0..live.len().min(5))
        .map(|k| live[(first + k) % live.len()])
        .collect();
    let victim = stream.below(size.hosts as u64) as usize;
    let flap_at = size.span_mins * 4 / 5;
    let flap_len = (size.span_mins / 10).clamp(1, 30);
    FleetPlan {
        cadences: Cadences::Fleet,
        scaler: false,
        shard_count: (size.hosts as u64 * 2).max(1024),
        hosts: size.hosts,
        jobs,
        invariants: false,
        alert_rules: false,
        // The fleet cadences refresh Task Managers every 15 minutes, so
        // first placement needs the issue's full 30; it is cheap here.
        warmup_mins: 30,
        span_mins: size.span_mins,
        actions: vec![
            (
                size.span_mins * 9 / 20,
                Action::OncallPin {
                    jobs: wave,
                    extra: 2,
                },
            ),
            (flap_at, Action::FailHost(victim)),
            (flap_at + flap_len, Action::RecoverHost(victim)),
        ],
        faults: Vec::new(),
        snapshot_at_min: None,
    }
}

/// 36 hosts, 2 160 Fig.-5 jobs (5 % stateful), scaler on. Every 10 minutes
/// a `package.version` bump on a rotating tenth of the jobs and an oncall
/// `task_count` pin on a rotating hundredth; every 30 minutes a host fails
/// and recovers 10 minutes later; a third of the jobs ride a 1.5× ramped
/// storm from half to two thirds of the span. The seed shapes the fleet
/// and sets every rotation offset.
fn release_storm(seed: u64, size: Size) -> FleetPlan {
    let mut plan = default_plan(seed, size);
    let mut stream = SeedStream::new(seed, 3);
    let n = plan.jobs.len();
    let stateful_offset = stream.below(20) as usize;
    let storm_offset = stream.below(3) as usize;
    let bump_offset = stream.below(10) as usize;
    let pin_offset = stream.below(100) as usize;
    let host_offset = stream.below(size.hosts as u64) as usize;

    for i in every_nth(n, 20, stateful_offset) {
        const KEYS: f64 = 1.0e5;
        let job = &mut plan.jobs[i];
        job.stateful_keys = Some(KEYS);
        // The engine charges 1 KB per key, split over the tasks; reserve
        // it like the rest of the footprint so state never OOM-kills.
        if let Some((_, memory_mb)) = &mut job.resources {
            *memory_mb += 1.3 * KEYS * 1.0e-3 / job.tasks as f64;
        }
    }
    let storm = Storm {
        start_min: plan.warmup_mins + size.span_mins / 2,
        end_min: plan.warmup_mins + size.span_mins * 2 / 3,
        peak: 1.5,
        ramp_mins: (size.span_mins / 18).clamp(1, 10),
    };
    for i in every_nth(n, 3, storm_offset) {
        if let Traffic::Diurnal { storm: slot, .. } = &mut plan.jobs[i].traffic {
            *slot = Some(storm);
        }
    }
    for minute in (10..size.span_mins).step_by(10) {
        let wave = (minute / 10) as usize;
        plan.actions.push((
            minute,
            Action::PackageBump {
                jobs: every_nth(n, 10, bump_offset + wave).collect(),
                version: wave as i64 + 1,
            },
        ));
        plan.actions.push((
            minute,
            Action::OncallPin {
                jobs: every_nth(n, 100, pin_offset + wave).collect(),
                extra: 1,
            },
        ));
        if minute % 30 == 0 && minute + 10 < size.span_mins {
            let host = (host_offset + wave / 3) % size.hosts;
            plan.actions.push((minute, Action::FailHost(host)));
            plan.actions.push((minute + 10, Action::RecoverHost(host)));
        }
    }
    plan.actions.sort_by_key(|&(minute, _)| minute);
    plan
}

/// 24 hosts, 2 400 Fig.-5 jobs (10 % critical, 20 % best-effort), the
/// invariant checker on from t = 0, default alert rules, the soak-shaped
/// fault plan at the soak's fractional positions, two seeded host flaps,
/// an oncall pin on a rotating job every 2 minutes (refused while the Job
/// Store is down), and a snapshot round trip at half time. The seed
/// shapes the fleet, assigns the tiers and schedules flaps and pins.
fn chaos_audit(seed: u64, size: Size) -> FleetPlan {
    let mut plan = default_plan(seed, size);
    let mut stream = SeedStream::new(seed, 4);
    let n = plan.jobs.len();
    let tier_offset = stream.below(10) as usize;
    for (i, job) in plan.jobs.iter_mut().enumerate() {
        job.tier = match (i + tier_offset) % 10 {
            0 => Tier::Critical,
            1 | 2 => Tier::BestEffort,
            _ => Tier::Standard,
        };
    }
    let critical = every_nth(n, 10, tier_offset)
        .next()
        .expect("a fleet of ten or more jobs has a critical one");
    plan.invariants = true;
    plan.alert_rules = true;
    // With the checker on, a warm-up minute costs a quarter of a second;
    // placement and the first syncs are done well inside five.
    plan.warmup_mins = 5;
    plan.snapshot_at_min = Some(size.span_mins / 2);

    // Windows open 30 s past a whole minute, so no intervention (all on
    // whole minutes) ever lands on a window edge.
    let span_secs = size.span_mins * 60;
    let at = |fraction: f64| (span_secs as f64 * fraction) as u64 / 60 * 60 + 30;
    let len = |fraction: f64| ((span_secs as f64 * fraction) as u64).max(60);
    let window = |kind, from_secs, len_secs| FaultWindow {
        kind,
        from_secs,
        len_secs,
    };
    plan.faults = vec![
        window(FaultKind::TaskServiceDown, at(0.10), len(0.05)),
        window(FaultKind::JobStoreDown, at(0.25), len(0.05)),
        // One transient single-beat drop (must not fail over) and one
        // sustained loss on a critical job's container (must, through the
        // warm standby).
        window(FaultKind::HeartbeatLossOfHost(0), at(0.40), 15),
        window(FaultKind::HeartbeatLossOfJob(critical), at(0.50), len(0.04)),
        window(FaultKind::SyncerCrash, at(0.65), len(0.04)),
        window(FaultKind::ScribeStallOfJob(critical), at(0.78), len(0.05)),
    ];
    // Flaps stay off hosts 0 and 1 (the transient heartbeat victim lives
    // there), one in each half of the run, each recovered inside its half.
    for half in 0..2u64 {
        let slot = size.span_mins / 2;
        let fail = half * slot + slot / 5 + stream.below((slot / 3).max(1));
        let down = (size.span_mins / 12).clamp(1, 20);
        let host = 2 + stream.below(size.hosts as u64 - 2) as usize;
        plan.actions.push((fail, Action::FailHost(host)));
        plan.actions.push((fail + down, Action::RecoverHost(host)));
    }
    let pin_offset = stream.below(n as u64) as usize;
    for minute in (1..size.span_mins).step_by(2) {
        plan.actions.push((
            minute,
            Action::OncallPin {
                jobs: vec![(pin_offset + minute as usize) % n],
                extra: 1,
            },
        ));
    }
    plan.actions.sort_by_key(|&(minute, _)| minute);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    const TINY: Size = Size {
        hosts: 6,
        jobs: 40,
        span_mins: 40,
    };

    fn digest(plan: &FleetPlan) -> u64 {
        crate::stats::fnv1a(format!("{plan:?}").as_bytes())
    }

    /// Same seed → identical inputs and identical simulated outcome;
    /// another seed → other inputs. One test per fleet workload builder.
    fn assert_deterministic(build: fn(u64, Size) -> FleetPlan) {
        let (a, b, other) = (build(7, TINY), build(7, TINY), build(8, TINY));
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&other));
        assert!(a.actions.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.actions.iter().all(|&(minute, _)| minute < a.span_mins));
        let first = runner::tiny_fingerprint(&a);
        assert_eq!(first, runner::tiny_fingerprint(&b));
    }

    #[test]
    fn steady_fleet_is_deterministic() {
        assert_deterministic(steady_fleet);
    }

    #[test]
    fn quiet_fleet_is_deterministic() {
        assert_deterministic(quiet_fleet);
    }

    #[test]
    fn release_storm_is_deterministic() {
        assert_deterministic(release_storm);
    }

    #[test]
    fn chaos_audit_is_deterministic() {
        assert_deterministic(chaos_audit);
    }

    #[test]
    fn fuzz_sweep_is_deterministic() {
        let inputs = |seed| runner::fuzz_input_digest(&runner::fuzz_cases(seed, 4));
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn reference_sizes_follow_the_seconds_flag() {
        let steady = find("steady_fleet").expect("listed");
        assert_eq!(steady.reference_size(10).span_mins, 100);
        assert_eq!(steady.reference_size(1).span_mins, 20);
        assert_eq!(steady.reference_size(10).jobs, 4680);
        let fuzz = find("fuzz_sweep").expect("listed");
        assert_eq!(fuzz.reference_size(10).jobs, 130);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(crate::metrics::valid_name(w.name));
        }
    }
}
