//! Plain-data description of a fleet workload: what the harness generates
//! from `--seed` and hands to the [`crate::adapter`]. Nothing here names a
//! product type, so the digest of a plan (`Debug` text, FNV-1a) is the
//! digest of the generated inputs.

/// Control-loop cadences of the platform under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cadences {
    /// `TurbineConfig::default()`: the paper's production values.
    Default,
    /// `scale_soak`'s fleet cadences: 1-minute sync and heartbeat, the
    /// O(fleet) loops spread out the way a regional deployment staggers
    /// them.
    Fleet,
}

/// Resiliency tier of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// No standby, longest recovery budget.
    BestEffort,
    /// The default tier.
    Standard,
    /// Warm standby, fast-path fail-over.
    Critical,
}

/// A ramped traffic storm on one job, in simulated minutes since t = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Storm {
    /// Window start.
    pub start_min: u64,
    /// Window end.
    pub end_min: u64,
    /// Peak multiplier.
    pub peak: f64,
    /// Ramp-up and ramp-down time.
    pub ramp_mins: u64,
}

/// Input traffic of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Constant rate in bytes/sec (zero = drained).
    Flat(f64),
    /// Diurnal swing around a base rate with mild seeded noise.
    Diurnal {
        /// Base rate, bytes/sec.
        rate: f64,
        /// Swing fraction.
        fraction: f64,
        /// Noise seed.
        seed: u64,
        /// Optional storm window.
        storm: Option<Storm>,
    },
}

/// One job to provision. Job `i` of a plan gets id `i + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name.
    pub name: String,
    /// Configured task count.
    pub tasks: u32,
    /// Input partitions.
    pub partitions: u32,
    /// Per-task reservation `(cpu, memory_mb)`; `None` keeps the
    /// `JobConfig::stateless` default.
    pub resources: Option<(f64, f64)>,
    /// Input traffic.
    pub traffic: Traffic,
    /// Average message size in bytes.
    pub message_bytes: f64,
    /// State key cardinality; `Some` provisions a stateful job.
    pub stateful_keys: Option<f64>,
    /// Resiliency tier.
    pub tier: Tier,
}

/// A harness-side intervention, applied between two `run_for` calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Provisioner-level `package.version` bump on these job indexes.
    PackageBump {
        /// Job indexes.
        jobs: Vec<usize>,
        /// The new version.
        version: i64,
    },
    /// Oncall `task_count` pin on these job indexes, to `tasks + extra`.
    OncallPin {
        /// Job indexes.
        jobs: Vec<usize>,
        /// Tasks added to the configured count.
        extra: u32,
    },
    /// Fail the host with this index.
    FailHost(usize),
    /// Recover the host with this index.
    RecoverHost(usize),
}

impl Action {
    /// Short name, for span records.
    pub fn label(&self) -> &'static str {
        match self {
            Action::PackageBump { .. } => "package_bump",
            Action::OncallPin { .. } => "oncall_pin",
            Action::FailHost(_) => "fail_host",
            Action::RecoverHost(_) => "recover_host",
        }
    }
}

/// Which fault a window injects. Victims are named by plan index and
/// resolved against the live platform when the window is scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Task Service unreachable.
    TaskServiceDown,
    /// Job Store unavailable.
    JobStoreDown,
    /// Heartbeats dropped from the first container of this host.
    HeartbeatLossOfHost(usize),
    /// Heartbeats dropped from the container running task 0 of this job.
    HeartbeatLossOfJob(usize),
    /// State Syncer crashed.
    SyncerCrash,
    /// Reads of this job's input category stall.
    ScribeStallOfJob(usize),
}

/// One scheduled fault window, in simulated seconds from the start of the
/// timed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The fault.
    pub kind: FaultKind,
    /// Activation, seconds into the span.
    pub from_secs: u64,
    /// Window length in seconds.
    pub len_secs: u64,
}

/// Everything one fleet workload run needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Control-loop cadences.
    pub cadences: Cadences,
    /// Whether the Auto Scaler runs (with `downscale_stability = 4 h`).
    pub scaler: bool,
    /// Shards in the tier.
    pub shard_count: u64,
    /// `scuba_host`-shaped hosts.
    pub hosts: usize,
    /// The fleet.
    pub jobs: Vec<JobSpec>,
    /// Invariant checker on from t = 0.
    pub invariants: bool,
    /// Default alert rules installed after provisioning.
    pub alert_rules: bool,
    /// Untimed warm-up, simulated minutes (part of `setup_s`).
    pub warmup_mins: u64,
    /// Timed span, simulated minutes.
    pub span_mins: u64,
    /// Interventions as `(minute of the span, action)`, sorted by minute.
    pub actions: Vec<(u64, Action)>,
    /// Fault windows, scheduled at the start of the span.
    pub faults: Vec<FaultWindow>,
    /// Minute of the span at which the untraced pass round-trips a
    /// snapshot and continues on the restored platform.
    pub snapshot_at_min: Option<u64>,
}

impl FleetPlan {
    /// Configured tasks over all jobs.
    pub fn configured_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| j.tasks as u64).sum()
    }
}

/// SplitMix64: the harness's own seeded stream for rotation offsets, tier
/// assignment and flap schedules, independent of the product's RNG so a
/// change there cannot move the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for `seed`, salted per use so two streams of one run differ.
    pub fn new(seed: u64, salt: u64) -> Self {
        SeedStream(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a workload shape can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
