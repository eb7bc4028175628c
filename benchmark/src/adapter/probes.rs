//! Layer probes: direct calls to public layer functions, at the
//! workload's own job, task, shard and host counts. Each probe reports
//! the median of [`SAMPLES`] timings, so a layer's cost can be read
//! without the platform around it. The entry points are the ones the five
//! criterion benches in `crates/bench/benches` already use.

use super::{job_config, job_id, traffic_model, Platform};
use crate::plan::FleetPlan;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use turbine::engine::Engine;
use turbine::{AlertEngine, MetricKey, OdsRegistry};
use turbine_config::{layer_all, ConfigLevel, ConfigValue, JobConfig};
use turbine_jobstore::{JobService, JobStore, MemWal};
use turbine_scribe::Scribe;
use turbine_shardmgr::{compute_placement, PlacementConfig, PlacementInput};
use turbine_sim::EventQueue;
use turbine_statesyncer::{Redistribute, StateSyncer, SyncEnvironment};
use turbine_taskmgr::{TaskService, TaskSnapshot, TaskSpec};
use turbine_types::{ContainerId, Duration, JobId, PartitionId, Resources, ShardId, SimTime};
use turbine_workloads::TrafficModel;

/// Timings per probe; the median is reported.
pub const SAMPLES: usize = 5;

/// Median seconds of `SAMPLES` runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of `f`, each sample timing `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    median_secs(|| {
        for i in 0..iters {
            f(i);
        }
    }) * 1.0e9
        / iters as f64
}

fn task_specs(plan: &FleetPlan) -> Vec<TaskSpec> {
    plan.jobs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| TaskService::generate_specs(job_id(i), &job_config(spec)))
        .collect()
}

/// Standalone `Engine::tick` over the workload's fleet, nanoseconds per
/// task. `busy` gives every job traffic (its own model, 1 MB/s where the
/// plan has it drained); otherwise every job is at zero traffic.
pub fn engine_tick_ns_per_task(plan: &FleetPlan, busy: bool) -> f64 {
    let mut engine = Engine::new();
    let container_cpu: HashMap<ContainerId, f64> = (0..plan.hosts as u64)
        .map(|h| (ContainerId(h), 56.0 * 0.8))
        .collect();
    let mut tasks = 0u64;
    for (i, spec) in plan.jobs.iter().enumerate() {
        let traffic = if !busy {
            TrafficModel::flat(0.0)
        } else if spec.traffic == crate::plan::Traffic::Flat(0.0) {
            TrafficModel::flat(1.0e6)
        } else {
            traffic_model(&spec.traffic)
        };
        engine.add_job(
            job_id(i),
            traffic,
            1.0e6,
            spec.message_bytes,
            spec.partitions,
            spec.stateful_keys.is_some(),
            spec.stateful_keys.unwrap_or(0.0),
        );
        for task in TaskService::generate_specs(job_id(i), &job_config(spec)) {
            let container = ContainerId(tasks % plan.hosts as u64);
            engine.task_started(&task, container, SimTime::ZERO, Duration::ZERO);
            tasks += 1;
        }
    }
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    let mut tick = |engine: &mut Engine| {
        now += dt;
        black_box(engine.tick(now, dt, &container_cpu, &|_| false));
    };
    for _ in 0..3 {
        tick(&mut engine);
    }
    median_secs(|| tick(&mut engine)) * 1.0e9 / tasks.max(1) as f64
}

/// `TaskService::generate_specs` over the fleet, nanoseconds per job.
pub fn spec_gen_ns_per_job(plan: &FleetPlan) -> f64 {
    let configs: Vec<(JobId, JobConfig)> = plan
        .jobs
        .iter()
        .enumerate()
        .map(|(i, spec)| (job_id(i), job_config(spec)))
        .collect();
    median_secs(|| {
        for (job, config) in &configs {
            black_box(TaskService::generate_specs(*job, config));
        }
    }) * 1.0e9
        / configs.len().max(1) as f64
}

/// `TaskSnapshot::build` over the fleet's specs (warm shard cache, as on
/// every refresh after the first), milliseconds.
pub fn snapshot_build_ms(plan: &FleetPlan) -> f64 {
    let specs = task_specs(plan);
    let mut cache = HashMap::new();
    TaskSnapshot::build(specs.clone(), plan.shard_count, &mut cache);
    let mut copies: Vec<Vec<TaskSpec>> = (0..SAMPLES).map(|_| specs.clone()).collect();
    median_secs(|| {
        let specs = copies.pop().expect("one copy per sample");
        black_box(TaskSnapshot::build(specs, plan.shard_count, &mut cache));
    }) * 1.0e3
}

/// `Registry::publish` into a registry with as many series as the
/// workload's, nanoseconds per sample.
pub fn ods_publish_ns(series: u64) -> f64 {
    let mut registry = OdsRegistry::new();
    let ids: Vec<_> = (0..series.max(1))
        .map(|i| registry.series_id(MetricKey::job(i, "probe")))
        .collect();
    let mut minute = 0u64;
    ns_per_call(200_000, |i| {
        if i % ids.len() == 0 {
            minute += 1;
        }
        registry.publish(
            ids[i % ids.len()],
            SimTime::ZERO + Duration::from_mins(minute),
            i as f64,
        );
    })
}

/// One `AlertEngine::evaluate` of the workload's own rules against its
/// own final registry, microseconds (0 rules cost next to nothing).
pub fn ods_alert_eval_us(platform: &Platform) -> f64 {
    let turbine = &platform.turbine;
    let mut engine = AlertEngine::new();
    engine.install_all(turbine.alert_engine().rules().iter().cloned());
    let now = turbine.now();
    median_secs(|| {
        black_box(engine.evaluate(turbine.ods_registry(), now));
    }) * 1.0e6
}

/// `Scribe::append_bytes` and `Scribe::category_backlog` on a category
/// shaped like the workload's first job: `(ns per append, ns per backlog
/// read)`.
pub fn scribe_ns(plan: &FleetPlan) -> (f64, f64) {
    let partitions = plan.jobs.first().map_or(16, |j| j.partitions);
    let mut scribe = Scribe::new();
    scribe
        .create_category("probe", partitions)
        .expect("fresh category");
    let append = ns_per_call(200_000, |i| {
        scribe
            .append_bytes(
                "probe",
                PartitionId(i as u64 % partitions as u64),
                256,
                SimTime::ZERO,
            )
            .expect("partition exists");
    });
    let backlog = ns_per_call(50_000, |_| {
        black_box(
            scribe
                .category_backlog("probe", (0..partitions as u64).map(|p| (PartitionId(p), 0)))
                .expect("cursors at zero are never beyond the tail"),
        );
    });
    (append, backlog)
}

struct NoopEnv;

impl SyncEnvironment for NoopEnv {
    fn request_stop(&mut self, _job: JobId) {}
    fn all_stopped(&mut self, _job: JobId) -> bool {
        true
    }
    fn redistribute_checkpoints(
        &mut self,
        _job: JobId,
        _old: u32,
        _new: u32,
    ) -> Result<Redistribute, String> {
        Ok(Redistribute::Done)
    }
}

fn synced_service(plan: &FleetPlan) -> (JobService<MemWal>, StateSyncer) {
    let mut service = JobService::new(JobStore::new(MemWal::new()));
    for (i, spec) in plan.jobs.iter().enumerate() {
        service
            .provision(job_id(i), &job_config(spec))
            .expect("plan jobs are valid");
    }
    let mut syncer = StateSyncer::default();
    syncer.run_round(&mut service, &mut NoopEnv);
    (service, syncer)
}

/// State Syncer rounds over the workload's jobs: `(no-op full round µs,
/// no-op sparse round µs, release round ms)`. The release round bumps
/// `package.version` on every job and then syncs them on the sparse path.
pub fn statesyncer_rounds(plan: &FleetPlan) -> (f64, f64, f64) {
    let (mut service, mut syncer) = synced_service(plan);
    let full = median_secs(|| {
        black_box(syncer.run_round(&mut service, &mut NoopEnv));
    }) * 1.0e6;
    let sparse = median_secs(|| {
        black_box(syncer.run_round_sparse(&mut service, &mut NoopEnv));
    }) * 1.0e6;
    let mut version = 2i64;
    let release = median_secs(|| {
        for i in 0..plan.jobs.len() {
            service
                .set_level_field(
                    job_id(i),
                    ConfigLevel::Provisioner,
                    "package.version",
                    ConfigValue::Int(version),
                )
                .expect("release write");
        }
        version += 1;
        black_box(syncer.run_round_sparse(&mut service, &mut NoopEnv));
    }) * 1.0e3;
    (full, sparse, release)
}

/// Job Store primitives at the workload's job count: `(read-modify-write
/// ns, cached typed read ns, recovery of a clone of the platform's final
/// WAL in ms)`.
pub fn jobstore(plan: &FleetPlan, platform: &mut Platform) -> (f64, f64, f64) {
    let (mut service, _) = synced_service(plan);
    let mid = plan.jobs.len() / 2;
    let partitions = plan.jobs[mid].partitions as i64;
    let rmw = ns_per_call(2_000, |i| {
        service
            .set_level_field(
                job_id(mid),
                ConfigLevel::Scaler,
                "task_count",
                ConfigValue::Int(i as i64 % partitions + 1),
            )
            .expect("scaler write");
    });
    let typed = ns_per_call(20_000, |_| {
        black_box(service.expected_typed(job_id(mid)).expect("typed read"));
    });
    let wal = platform.turbine.job_service_mut().store().wal().clone();
    let recover = median_secs(|| {
        black_box(JobStore::recover(wal.clone()).expect("final WAL recovers"));
    }) * 1.0e3;
    (rmw, typed, recover)
}

/// Algorithm-1 layering of four levels plus the typed decode, ns.
pub fn config_layer_decode_ns() -> f64 {
    let base = JobConfig::stateless("tailer", 8, 64).to_value();
    let mut provisioner = ConfigValue::empty_map();
    provisioner.insert_path("package.version", ConfigValue::Int(7));
    let mut scaler = ConfigValue::empty_map();
    scaler.insert("task_count", ConfigValue::Int(12));
    let mut oncall = ConfigValue::empty_map();
    oncall.insert("task_count", ConfigValue::Int(32));
    ns_per_call(5_000, |_| {
        let merged = layer_all(black_box(&[&base, &provisioner, &scaler, &oncall]));
        black_box(JobConfig::from_value(&merged).expect("valid"));
    })
}

/// `compute_placement` of the workload's shard count onto its host count:
/// `(cold ms, warm ms)`.
pub fn placement_ms(plan: &FleetPlan) -> (f64, f64) {
    let shards: Vec<(ShardId, Resources)> = (0..plan.shard_count)
        .map(|i| {
            (
                ShardId(i),
                Resources::cpu_mem(0.1 + (i % 17) as f64 * 0.05, 200.0 + (i % 23) as f64 * 40.0),
            )
        })
        .collect();
    let containers: Vec<(ContainerId, Resources)> = (0..plan.hosts as u64)
        .map(|i| (ContainerId(i), Resources::cpu_mem(45.0, 210_000.0)))
        .collect();
    let place = |current: &HashMap<ShardId, ContainerId>| {
        compute_placement(
            PlacementInput {
                shards: &shards,
                containers: &containers,
                current,
            },
            PlacementConfig::default(),
        )
    };
    let none = HashMap::new();
    let cold = median_secs(|| {
        black_box(place(&none));
    }) * 1.0e3;
    let assignment = place(&none).assignment;
    let warm = median_secs(|| {
        black_box(place(&assignment));
    }) * 1.0e3;
    (cold, warm)
}

/// One `EventQueue` schedule + pop at a standing depth of 16 (about one
/// pending event per control component), ns per pair.
pub fn sim_queue_op_ns() -> f64 {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut at = SimTime::ZERO;
    for i in 0..16 {
        at += Duration::from_secs(10);
        queue.schedule(at, i);
    }
    ns_per_call(200_000, |i| {
        at += Duration::from_secs(10);
        queue.schedule(at, i as u32);
        black_box(queue.pop());
    })
}
