//! The fuzz scenario model: a flat, serializable description of one
//! whole-platform run, plus the seeded generator that composes them.
//!
//! A scenario is deliberately *feasible by construction*: the generator
//! budgets job task counts (including scaler headroom up to
//! `max_task_count`) against the cluster's container capacity and ends
//! every fault window and host flap well before the horizon, so the
//! convergence invariant — a liveness property that assumes feasibility —
//! only fires on genuine platform bugs, never on scenarios that were
//! impossible to satisfy in the first place.
//!
//! Everything is millisecond-free: times are whole minutes, the tick is
//! whole seconds, and every cadence in the platform config stays at its
//! (tick-divisible) default, which keeps the dense-vs-event equivalence
//! oracle applicable to every generated scenario.

use turbine_config::{config_record, parse, to_text, Bits, ConfigField, ResiliencyClass};
use turbine_sim::{Fault, SimRng};

/// Traffic-event kinds a scenario can attach to a job, mirroring
/// `turbine_workloads::TrafficEventKind` in serializable form.
pub const EVENT_KINDS: [&str; 4] = ["multiplier", "ramp", "consumer_disabled", "input_outage"];

/// One traffic event on one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzTrafficEvent {
    /// One of [`EVENT_KINDS`].
    pub kind: String,
    /// Window start, minutes from scenario start.
    pub start_min: u32,
    /// Window end (exclusive), minutes from scenario start.
    pub end_min: u32,
    /// Multiplier / ramp peak (unused for outage kinds).
    pub magnitude: f64,
    /// Ramp-up/down minutes (ramp kind only).
    pub ramp_mins: u32,
}

/// One job in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzJob {
    /// Package/category base name (unique within the scenario).
    pub name: String,
    /// Whether the job keeps state (changes sync protocol and estimators).
    pub stateful: bool,
    /// Initial task count.
    pub tasks: u32,
    /// Worker threads per task (`k` in Eq. 2).
    pub threads: u32,
    /// Input partitions (≥ tasks).
    pub partitions: u32,
    /// Scaling ceiling.
    pub max_tasks: u32,
    /// Base input rate, bytes/sec.
    pub rate: f64,
    /// Diurnal swing fraction (0 = flat).
    pub diurnal: f64,
    /// Traffic-noise seed.
    pub traffic_seed: u64,
    /// True per-thread processing capacity, bytes/sec (the ground truth
    /// the Pattern Analyzer's `P` estimate converges toward).
    pub per_thread_rate: f64,
    /// Mean message size, bytes.
    pub message_bytes: f64,
    /// State key cardinality (stateful jobs only).
    pub key_cardinality: f64,
    /// Resiliency class; critical jobs get warm standbys and the fast
    /// fail-over path.
    pub resiliency: ResiliencyClass,
    /// Traffic events in this job's input.
    pub events: Vec<FuzzTrafficEvent>,
}

/// One scheduled fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFault {
    /// One of [`Fault::KINDS`].
    pub kind: String,
    /// Host index (heartbeat_loss) or job index (scribe_stall); unused
    /// otherwise.
    pub target: u32,
    /// Window start, minutes from scenario start.
    pub from_min: u32,
    /// Window length, minutes.
    pub len_min: u32,
}

/// One host fail/recover cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFlap {
    /// Host index into the scenario's host list.
    pub host: u32,
    /// Failure time, minutes from scenario start.
    pub fail_min: u32,
    /// Recovery time, minutes from scenario start.
    pub recover_min: u32,
}

/// A complete generated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenario {
    /// The seed that generated this scenario (kept for provenance; the
    /// scenario replays from its fields, not from the seed).
    pub seed: u64,
    /// Simulated run length, minutes.
    pub horizon_mins: u32,
    /// Data-plane tick, seconds. Always divides every control cadence.
    pub tick_secs: u32,
    /// Number of hosts.
    pub hosts: u32,
    /// Host CPU capacity, cores.
    pub host_cpu: f64,
    /// Host memory capacity, MB.
    pub host_memory_mb: f64,
    /// Placement headroom fraction (corner values approach 1).
    pub headroom: f64,
    /// Placement utilization band half-width.
    pub band: f64,
    /// Whether the Auto Scaler runs.
    pub scaler_enabled: bool,
    /// The jobs.
    pub jobs: Vec<FuzzJob>,
    /// Scheduled fault windows (overlap freely).
    pub faults: Vec<FuzzFault>,
    /// Host flaps (disjoint per host; all recover before the horizon).
    pub flaps: Vec<FuzzFlap>,
}

/// Generate the scenario for one campaign case. The same `seed` always
/// yields the same scenario, bit for bit.
pub fn generate(seed: u64) -> FuzzScenario {
    let mut rng = SimRng::seeded(seed ^ 0x5eed_f0cc_a51a_b1ed);

    let horizon_mins = rng.uniform_usize(30, 120) as u32;
    let tick_secs = [1u32, 2, 5, 10][rng.uniform_usize(0, 4)];
    let hosts = rng.uniform_usize(2, 6) as u32;
    // Host shape: mostly commodity, sometimes tiny (placement corner).
    let host_cpu = if rng.chance(0.15) {
        rng.uniform(1.0, 4.0)
    } else {
        [8.0, 16.0, 56.0][rng.uniform_usize(0, 3)]
    };
    let host_memory_mb = host_cpu * 4096.0;
    // Headroom corners: occasionally 0 or near 1 (but below it).
    let headroom = if rng.chance(0.1) {
        0.0
    } else if rng.chance(0.1) {
        0.95
    } else {
        rng.uniform(0.1, 0.3)
    };
    let band = if rng.chance(0.1) {
        0.01
    } else {
        rng.uniform(0.05, 0.3)
    };
    let scaler_enabled = rng.chance(0.8);

    // Task budget: configured tasks plus scaler growth must fit the
    // containers (0.8 host fraction, 1 cpu/task) with slack, so that
    // convergence is always achievable once faults clear.
    let budget = (hosts as f64 * host_cpu * 0.8 * 0.5).floor().max(1.0) as u32;
    let n_jobs = rng.uniform_usize(1, 4) as u32;
    let mut remaining = budget;
    let mut jobs = Vec::new();
    for j in 0..n_jobs {
        if remaining == 0 {
            break;
        }
        let max_tasks = rng.uniform_usize(1, (remaining as usize + 1).min(9)) as u32;
        remaining -= max_tasks;
        let tasks = rng.uniform_usize(1, max_tasks as usize + 1) as u32;
        let partitions = rng.uniform_usize(max_tasks as usize, 33) as u32;
        let stateful = rng.chance(0.3);
        // Rate regimes: near-zero, moderate, hot.
        let rate = match rng.uniform_usize(0, 3) {
            0 => rng.uniform(10.0, 1.0e4),
            1 => rng.uniform(1.0e5, 2.0e6),
            _ => rng.uniform(2.0e6, 8.0e6),
        };
        let mut events = Vec::new();
        for _ in 0..rng.uniform_usize(0, 3) {
            let kind = EVENT_KINDS[rng.uniform_usize(0, EVENT_KINDS.len())].to_string();
            let start_min = rng.uniform_usize(5, horizon_mins as usize * 3 / 4) as u32;
            let len = rng.uniform_usize(1, (horizon_mins as usize / 4).max(2)) as u32;
            events.push(FuzzTrafficEvent {
                kind,
                start_min,
                end_min: (start_min + len).min(horizon_mins),
                magnitude: rng.uniform(1.2, 20.0),
                ramp_mins: rng.uniform_usize(1, (len as usize).max(2)) as u32,
            });
        }
        jobs.push(FuzzJob {
            name: format!("fuzz{j}"),
            stateful,
            tasks,
            threads: rng.uniform_usize(1, 5) as u32,
            partitions,
            max_tasks,
            rate,
            diurnal: if rng.chance(0.5) {
                rng.uniform(0.05, 0.4)
            } else {
                0.0
            },
            traffic_seed: rng.next_u64() % 1000,
            per_thread_rate: rng.uniform(2.0e5, 2.0e6),
            message_bytes: rng.uniform(64.0, 1024.0),
            key_cardinality: if stateful {
                rng.uniform(1.0e4, 5.0e6)
            } else {
                0.0
            },
            // Critical often enough that the standby machinery gets a real
            // workout across a campaign.
            resiliency: if rng.chance(0.35) {
                ResiliencyClass::Critical
            } else if rng.chance(0.25) {
                ResiliencyClass::BestEffort
            } else {
                ResiliencyClass::Standard
            },
            events,
        });
    }

    // Fault windows: every kind, overlap freely, all end by 80 % of the
    // horizon so the convergence clock gets a fair run.
    let mut faults = Vec::new();
    for _ in 0..rng.uniform_usize(0, 5) {
        let kind = Fault::KINDS[rng.uniform_usize(0, Fault::KINDS.len())].to_string();
        let from_min = rng.uniform_usize(2, (horizon_mins as usize * 7 / 10).max(3)) as u32;
        let len_min = rng.uniform_usize(1, (horizon_mins as usize / 8).max(2)) as u32;
        let target = match kind.as_str() {
            "heartbeat_loss" => rng.uniform_usize(0, hosts as usize) as u32,
            "scribe_stall" => rng.uniform_usize(0, jobs.len().max(1)) as u32,
            _ => 0,
        };
        faults.push(FuzzFault {
            kind,
            target,
            from_min,
            len_min: len_min.min(horizon_mins * 8 / 10 - from_min.min(horizon_mins * 8 / 10)),
        });
    }

    // A critical job makes a sustained heartbeat loss — the trigger for a
    // warm-standby promotion — much more likely, so campaigns hammer the
    // fast fail-over path instead of finding it by accident.
    let has_critical = jobs
        .iter()
        .any(|j| j.resiliency == ResiliencyClass::Critical);
    if has_critical && rng.chance(0.6) {
        let from_min = rng.uniform_usize(2, (horizon_mins as usize * 6 / 10).max(3)) as u32;
        faults.push(FuzzFault {
            kind: "heartbeat_loss".to_string(),
            target: rng.uniform_usize(0, hosts as usize) as u32,
            from_min,
            len_min: rng.uniform_usize(2, (horizon_mins as usize / 8).max(3)) as u32,
        });
    }

    // Host flaps: at most one per host, never host 0 (so the tier always
    // keeps capacity), all recovered by 85 % of the horizon. Critical jobs
    // raise the flap rate: a concurrently-flapping host is how a standby
    // replica dies mid-promotion, the corner the tiers must survive.
    let flap_chance = if has_critical { 0.5 } else { 0.25 };
    let mut flaps = Vec::new();
    if hosts > 1 {
        for h in 1..hosts {
            if !rng.chance(flap_chance) {
                continue;
            }
            let fail_min = rng.uniform_usize(5, (horizon_mins as usize * 7 / 10).max(6)) as u32;
            let len = rng.uniform_usize(1, (horizon_mins as usize / 8).max(2)) as u32;
            flaps.push(FuzzFlap {
                host: h,
                fail_min,
                recover_min: (fail_min + len).min(horizon_mins * 85 / 100),
            });
        }
    }
    // Drop degenerate flaps the clamps above may have produced.
    flaps.retain(|f| f.recover_min > f.fail_min);

    FuzzScenario {
        seed,
        horizon_mins,
        tick_secs,
        hosts,
        host_cpu,
        host_memory_mb,
        headroom,
        band,
        scaler_enabled,
        jobs,
        faults,
        flaps,
    }
}

impl FuzzScenario {
    /// Serialize to the compact-JSON repro format (deterministic: equal
    /// scenarios produce equal strings).
    pub fn to_json(&self) -> String {
        to_text(&self.encode())
    }

    /// Parse a repro file produced by [`FuzzScenario::to_json`].
    pub fn from_json(input: &str) -> Result<FuzzScenario, String> {
        let value = parse(input).map_err(|e| e.to_string())?;
        let scenario = Self::decode(&value).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Sanity checks on a parsed scenario (a repro file is user input).
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon_mins == 0 {
            return Err("horizon_mins must be positive".into());
        }
        if self.tick_secs == 0 || 60 % self.tick_secs != 0 {
            return Err("tick_secs must divide 60".into());
        }
        if self.hosts == 0 {
            return Err("at least one host required".into());
        }
        if !(self.host_cpu.is_finite() && self.host_cpu > 0.0) {
            return Err("host_cpu must be positive and finite".into());
        }
        if !(self.host_memory_mb.is_finite() && self.host_memory_mb > 0.0) {
            return Err("host_memory_mb must be positive and finite".into());
        }
        if !(0.0..1.0).contains(&self.headroom) {
            return Err("headroom must be in [0, 1)".into());
        }
        if !(self.band.is_finite() && self.band > 0.0) {
            return Err("band must be positive".into());
        }
        if self.jobs.is_empty() {
            return Err("at least one job required".into());
        }
        for job in &self.jobs {
            if job.tasks == 0 || job.tasks > job.max_tasks || job.max_tasks > job.partitions {
                return Err(format!(
                    "job '{}': need 1 <= tasks <= max_tasks <= partitions",
                    job.name
                ));
            }
            if job.threads == 0 {
                return Err(format!("job '{}': threads must be positive", job.name));
            }
            if !(job.rate.is_finite() && job.rate >= 0.0) {
                return Err(format!("job '{}': rate must be finite and >= 0", job.name));
            }
            if !(job.per_thread_rate.is_finite() && job.per_thread_rate > 0.0) {
                return Err(format!(
                    "job '{}': per_thread_rate must be positive",
                    job.name
                ));
            }
            for event in &job.events {
                if !EVENT_KINDS.contains(&event.kind.as_str()) {
                    return Err(format!("unknown traffic event kind '{}'", event.kind));
                }
            }
        }
        for fault in &self.faults {
            if !Fault::KINDS.contains(&fault.kind.as_str()) {
                return Err(format!("unknown fault kind '{}'", fault.kind));
            }
            if fault.kind == "heartbeat_loss" && fault.target >= self.hosts {
                return Err("heartbeat_loss target host out of range".into());
            }
            if fault.kind == "scribe_stall" && fault.target as usize >= self.jobs.len() {
                return Err("scribe_stall target job out of range".into());
            }
        }
        for flap in &self.flaps {
            if flap.host >= self.hosts {
                return Err("flap host out of range".into());
            }
            if flap.recover_min <= flap.fail_min {
                return Err("flap must recover after it fails".into());
            }
        }
        Ok(())
    }
}

// Repro files are hand-edited during shrinking and triage; a silently
// ignored misspelled key (`"len_mins"` for `"len_min"`) would change what
// the repro reproduces, so every record is closed. Numbers decode finite
// and integers in range, or the file is refused.
config_record!(FuzzScenario closed {
    seed via Bits,
    horizon_mins,
    tick_secs,
    hosts,
    host_cpu,
    host_memory_mb,
    headroom,
    band,
    scaler_enabled = true,
    jobs,
    faults = Vec::new(),
    flaps = Vec::new(),
});

config_record!(FuzzJob closed {
    name,
    stateful = false,
    tasks,
    threads,
    partitions,
    max_tasks,
    rate,
    diurnal = 0.0,
    traffic_seed via Bits = 0,
    per_thread_rate,
    message_bytes = 256.0,
    key_cardinality = 0.0,
    resiliency = ResiliencyClass::Standard,
    events = Vec::new(),
});

config_record!(FuzzTrafficEvent closed { kind, start_min, end_min, magnitude = 1.0, ramp_mins = 1 });

config_record!(FuzzFault closed { kind, target = 0, from_min, len_min });

config_record!(FuzzFlap closed { host, fail_min, recover_min });

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_config::ConfigValue;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn misspelled_repro_keys_are_rejected_loudly() {
        let canonical = generate(7).to_json();
        for (good, bad) in [
            ("\"horizon_mins\"", "\"horizon_min\""),
            ("\"len_min\"", "\"len_mins\""),
            ("\"recover_min\"", "\"recovermin\""),
            ("\"per_thread_rate\"", "\"per_thread_rates\""),
        ] {
            if !canonical.contains(good) {
                continue;
            }
            let broken = canonical.replacen(good, bad, 1);
            let err =
                FuzzScenario::from_json(&broken).expect_err("misspelled repro key must not parse");
            assert!(
                err.contains("unknown key"),
                "want unknown-key error for {bad}, got: {err}"
            );
        }
        // The canonical form itself still parses.
        FuzzScenario::from_json(&canonical).expect("canonical repro parses");
    }

    #[test]
    fn generated_scenarios_are_valid_and_roundtrip() {
        for seed in 0..100 {
            let scenario = generate(seed);
            scenario.validate().unwrap_or_else(|e| {
                panic!("seed {seed} generated an invalid scenario: {e}");
            });
            let json = scenario.to_json();
            let back = FuzzScenario::from_json(&json)
                .unwrap_or_else(|e| panic!("seed {seed} repro does not parse: {e}"));
            assert_eq!(back, scenario, "seed {seed} did not roundtrip");
            assert_eq!(back.to_json(), json, "seed {seed} json not canonical");
        }
    }

    #[test]
    fn corner_values_do_appear() {
        let mut tiny_hosts = false;
        let mut high_headroom = false;
        let mut near_zero_rate = false;
        let mut stateful = false;
        let mut critical = false;
        let mut best_effort = false;
        let mut critical_with_heartbeat_loss = false;
        for seed in 0..300 {
            let s = generate(seed);
            tiny_hosts |= s.host_cpu < 4.0;
            high_headroom |= s.headroom >= 0.9;
            near_zero_rate |= s.jobs.iter().any(|j| j.rate < 1.0e4);
            stateful |= s.jobs.iter().any(|j| j.stateful);
            let has_critical = s
                .jobs
                .iter()
                .any(|j| j.resiliency == ResiliencyClass::Critical);
            critical |= has_critical;
            best_effort |= s
                .jobs
                .iter()
                .any(|j| j.resiliency == ResiliencyClass::BestEffort);
            critical_with_heartbeat_loss |=
                has_critical && s.faults.iter().any(|f| f.kind == "heartbeat_loss");
        }
        assert!(tiny_hosts, "generator never produced tiny hosts");
        assert!(high_headroom, "generator never produced high headroom");
        assert!(near_zero_rate, "generator never produced near-zero rates");
        assert!(stateful, "generator never produced stateful jobs");
        assert!(critical, "generator never produced critical jobs");
        assert!(best_effort, "generator never produced best-effort jobs");
        assert!(
            critical_with_heartbeat_loss,
            "generator never paired a critical job with a heartbeat loss"
        );
    }

    #[test]
    fn invalid_repro_files_are_rejected() {
        assert!(FuzzScenario::from_json("not json").is_err());
        assert!(FuzzScenario::from_json("{}").is_err());
        let mut s = generate(1);
        s.tick_secs = 7; // does not divide 60
        assert!(FuzzScenario::from_json(&s.to_json()).is_err());
        let gold =
            generate(1)
                .to_json()
                .replacen("\"resiliency\":\"", "\"resiliency\":\"gold_plated_", 1);
        assert!(FuzzScenario::from_json(&gold).is_err());
    }

    #[test]
    fn negative_counts_are_refused_not_wrapped() {
        // `-1 as u32` is 4294967295: a repro that provisions four billion
        // partitions would still pass `validate`.
        let mut v = parse(&generate(1).to_json()).expect("parses");
        v.insert("horizon_mins", ConfigValue::Int(-1));
        let Some(ConfigValue::Array(jobs)) = v.as_map_mut().expect("map").get_mut("jobs") else {
            panic!("jobs not an array");
        };
        for key in ["tasks", "max_tasks", "partitions"] {
            jobs[0].insert(key, ConfigValue::Int(-1));
        }
        let err = FuzzScenario::from_json(&to_text(&v)).expect_err("negative counts");
        assert!(err.contains("out of range"), "{err}");
    }

    /// `json` with the number stored at `key` replaced by `number`.
    fn with_number(json: &str, key: &str, number: &str) -> String {
        let at = json.find(&format!("\"{key}\":")).expect("key") + key.len() + 3;
        let len = json[at..].find([',', '}']).expect("number ends");
        format!("{}{number}{}", &json[..at], &json[at + len..])
    }

    #[test]
    fn hostile_host_shapes_are_refused_not_provisioned() {
        // `turbinesim repro` panicked in `add_hosts` ("fresh host has
        // capacity") on a host with no memory; `validate` never looked.
        let canonical = generate(1).to_json();
        for (key, number) in [
            ("host_memory_mb", "-1.0"),
            ("host_memory_mb", "0.0"),
            ("host_memory_mb", "1e999"),
            ("host_cpu", "1e999"),
            ("band", "1e999"),
        ] {
            let hostile = with_number(&canonical, key, number);
            let err = FuzzScenario::from_json(&hostile).expect_err(&hostile);
            assert!(err.contains(key), "{key} = {number}: {err}");
        }
    }

    #[test]
    fn resiliency_defaults_to_standard_when_absent() {
        let mut v = parse(&generate(2).to_json()).expect("parses");
        let root = v.as_map_mut().expect("map");
        let Some(ConfigValue::Array(jobs)) = root.get_mut("jobs") else {
            panic!("jobs not an array");
        };
        for job in jobs {
            job.as_map_mut().expect("map").remove("resiliency");
        }
        let s = FuzzScenario::from_json(&to_text(&v)).expect("parses without resiliency");
        assert!(s
            .jobs
            .iter()
            .all(|j| j.resiliency == ResiliencyClass::Standard));
    }
}
