//! Unit tests of the engine's data-plane model.

use super::*;
use turbine_config::JobConfig;
use turbine_taskmgr::TaskService;

const JOB: JobId = JobId(1);
const C0: ContainerId = ContainerId(0);

fn engine_with_job(rate: f64, task_count: u32) -> (Engine, Vec<TaskSpec>) {
    let mut engine = Engine::new();
    engine.add_job(JOB, TrafficModel::flat(rate), 1.0e6, 256.0, 16, false, 0.0);
    let config = JobConfig::stateless("t", task_count, 16);
    let specs = TaskService::generate_specs(JOB, &config);
    for spec in &specs {
        engine.task_started(spec, C0, SimTime::ZERO, Duration::ZERO);
    }
    (engine, specs)
}

fn caps(cpu: f64) -> HashMap<ContainerId, f64> {
    HashMap::from([(C0, cpu)])
}

fn run_ticks(engine: &mut Engine, ticks: u64, cpu: f64) -> SimTime {
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    for _ in 0..ticks {
        now += dt;
        engine.tick(now, dt, &caps(cpu), &|_| false);
    }
    now
}

#[test]
fn sufficient_capacity_keeps_up() {
    let (mut engine, _) = engine_with_job(1.0e6, 2);
    run_ticks(&mut engine, 30, 64.0);
    let backlog = engine.job(JOB).expect("job").backlog();
    // 2 tasks × 1 MB/s can absorb 1 MB/s: backlog stays ~one tick.
    assert!(backlog < 1.1e7, "backlog {backlog}");
    let stats = engine.drained(JOB);
    assert!((stats.processed / stats.arrived) > 0.95);
    assert_eq!(stats.per_task.len(), 2);
}

#[test]
fn undersized_job_builds_backlog() {
    let (mut engine, _) = engine_with_job(4.0e6, 2); // capacity 2 MB/s
    run_ticks(&mut engine, 30, 64.0);
    let backlog = engine.job(JOB).expect("job").backlog();
    // Deficit 2 MB/s over 300 s = 600 MB.
    assert!(backlog > 5.5e8, "backlog {backlog}");
    let stats = engine.drained(JOB);
    assert!(stats.processed < stats.arrived * 0.6);
}

#[test]
fn container_contention_slows_all_tenants() {
    let (mut engine, _) = engine_with_job(4.0e6, 4); // wants 4 cores
    run_ticks(&mut engine, 10, 1.0); // container only has 1 core
    let stats = engine.drained(JOB);
    let ratio = stats.processed / stats.arrived;
    assert!(ratio < 0.35, "contention should cap throughput: {ratio}");
}

#[test]
fn paused_jobs_accumulate_without_processing() {
    let (mut engine, _) = engine_with_job(1.0e6, 2);
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    for _ in 0..10 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| true);
    }
    let stats = engine.drained(JOB);
    assert_eq!(stats.processed, 0.0);
    assert!(engine.job(JOB).expect("job").backlog() >= 1.0e7 * 0.99);
}

#[test]
fn dead_container_stops_processing() {
    let (mut engine, _) = engine_with_job(1.0e6, 2);
    let dt = Duration::from_secs(10);
    engine.tick(SimTime::ZERO + dt, dt, &HashMap::new(), &|_| false);
    let stats = engine.drained(JOB);
    assert_eq!(stats.processed, 0.0);
}

#[test]
fn skewed_partitions_create_imbalanced_per_task_rates() {
    let (mut engine, _) = engine_with_job(2.0e6, 2);
    // All traffic into the first task's slice (partitions 0..8).
    let mut weights = vec![0.0; 16];
    for w in weights.iter_mut().take(8) {
        *w = 1.0 / 8.0;
    }
    engine.set_partition_weights(JOB, &weights);
    run_ticks(&mut engine, 10, 64.0);
    let stats = engine.drained(JOB);
    let rates: Vec<f64> = stats.per_task.iter().map(|&(_, v)| v).collect();
    assert!(rates[0] > 0.0);
    // Task 1 (partitions 8..16) sees nothing.
    assert!(stats.per_task.len() == 1 || rates[1] == 0.0, "{stats:?}");
}

#[test]
fn cgroup_task_ooms_when_over_reserved() {
    let mut engine = Engine::new();
    engine.add_job(JOB, TrafficModel::flat(4.0e6), 1.0e6, 4096.0, 4, false, 0.0);
    let mut config = JobConfig::stateless("t", 1, 4);
    config.memory_enforcement = turbine_config::MemoryEnforcement::Cgroup;
    config.task_resources = Resources::cpu_mem(8.0, 410.0); // tight memory
    let specs = TaskService::generate_specs(JOB, &config);
    engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::ZERO);
    let dt = Duration::from_secs(10);
    let outcome = engine.tick(SimTime::ZERO + dt, dt, &caps(64.0), &|_| false);
    assert_eq!(outcome.oom_kills, vec![specs[0].id]);
    assert_eq!(engine.drained(JOB).ooms, 1);
}

#[test]
fn soft_limit_task_never_oom_kills() {
    let mut engine = Engine::new();
    engine.add_job(JOB, TrafficModel::flat(4.0e6), 1.0e6, 4096.0, 4, false, 0.0);
    let mut config = JobConfig::stateless("t", 1, 4);
    config.task_resources = Resources::cpu_mem(8.0, 410.0);
    let specs = TaskService::generate_specs(JOB, &config);
    engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::ZERO);
    let dt = Duration::from_secs(10);
    let outcome = engine.tick(SimTime::ZERO + dt, dt, &caps(64.0), &|_| false);
    assert!(outcome.oom_kills.is_empty());
}

#[test]
fn restart_delay_suppresses_processing() {
    let mut engine = Engine::new();
    engine.add_job(JOB, TrafficModel::flat(1.0e6), 1.0e6, 256.0, 4, false, 0.0);
    let specs = TaskService::generate_specs(JOB, &JobConfig::stateless("t", 1, 4));
    engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::from_secs(60));
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    for _ in 0..5 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
    }
    assert_eq!(engine.drained(JOB).processed, 0.0, "still restarting");
    for _ in 0..5 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
    }
    assert!(engine.drained(JOB).processed > 0.0, "restarted");
}

#[test]
fn durable_sync_mirrors_scribe_and_checkpoints() {
    let (mut engine, specs) = engine_with_job(1.0e6, 2);
    let now = run_ticks(&mut engine, 6, 64.0);
    let mut scribe = Scribe::new();
    let category = scribe.create_category("cat", 16).expect("create");
    engine.bind_category(JOB, category);
    let mut checkpoints = CheckpointStore::new();
    engine.sync_durable(now, &mut scribe, &mut checkpoints);
    let total: u64 = (0..16)
        .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
        .sum();
    // 60 s at 1 MB/s = 60 MB arrived.
    assert!((total as f64 - 6.0e7).abs() < 1.0e6, "total {total}");
    assert!(checkpoints.job_total_ingested(JOB) > 0);
    let _ = specs;
}

#[test]
fn repeated_syncs_on_a_quiet_job_are_skipped_and_exact() {
    let (mut engine, _) = engine_with_job(1.0e6, 2);
    let now = run_ticks(&mut engine, 6, 64.0);
    let mut scribe = Scribe::new();
    let category = scribe.create_category("cat", 16).expect("create");
    engine.bind_category(JOB, category);
    let mut checkpoints = CheckpointStore::new();
    engine.sync_durable(now, &mut scribe, &mut checkpoints);
    let tails: Vec<u64> = (0..16)
        .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
        .collect();
    let offsets: Vec<u64> = (0..16)
        .map(|p| checkpoints.get(JOB, PartitionId(p)))
        .collect();
    let entries = checkpoints.len();
    // No ticks in between: the second sync must change nothing (it is
    // skipped via the epoch, but a full replay would also be a no-op).
    engine.sync_durable(now, &mut scribe, &mut checkpoints);
    let tails2: Vec<u64> = (0..16)
        .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
        .collect();
    let offsets2: Vec<u64> = (0..16)
        .map(|p| checkpoints.get(JOB, PartitionId(p)))
        .collect();
    assert_eq!(tails, tails2);
    assert_eq!(offsets, offsets2);
    assert_eq!(entries, checkpoints.len());
    // New arrivals re-arm the sync.
    let dt = Duration::from_secs(10);
    engine.tick(now + dt, dt, &caps(64.0), &|_| false);
    engine.sync_durable(now + dt, &mut scribe, &mut checkpoints);
    let total: u64 = (0..16)
        .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
        .sum();
    assert!(total > tails.iter().sum::<u64>(), "sync resumed after tick");
}

#[test]
fn dirty_set_tracks_mutations_and_settles_when_quiet() {
    let (mut engine, specs) = engine_with_job(0.0, 2);
    assert_eq!(
        engine
            .drain_changes(EngineReader::LoadReport)
            .into_iter()
            .collect::<Vec<_>>(),
        [JOB]
    );
    assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    now += dt;
    // First tick: the restarted tasks' memory readings rise from zero
    // to the idle footprint — dirty.
    engine.tick(now, dt, &caps(64.0), &|_| false);
    assert!(engine
        .drain_changes(EngineReader::LoadReport)
        .contains(&JOB));
    // Zero-rate traffic, settled usage: subsequent ticks are clean.
    now += dt;
    engine.tick(now, dt, &caps(64.0), &|_| false);
    assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
    // Explicit mutations mark again.
    engine.knock_down_task(specs[0].id, now + dt);
    assert!(engine
        .drain_changes(EngineReader::LoadReport)
        .contains(&JOB));
}

#[test]
fn backlog_alone_leaves_the_dirty_set_empty() {
    // 4 MB/s into two 1 MB/s tasks: the backlog grows every tick.
    let (mut engine, specs) = engine_with_job(4.0e6, 2);
    let dirty = |engine: &mut Engine| {
        engine
            .drain_changes(EngineReader::LoadReport)
            .into_iter()
            .collect::<Vec<_>>()
    };
    assert_eq!(dirty(&mut engine), [JOB], "the task starts");
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    let mut tick = |engine: &mut Engine, cpu: f64| {
        now += dt;
        engine.tick(now, dt, &caps(cpu), &|_| false);
    };
    tick(&mut engine, 64.0);
    assert_eq!(dirty(&mut engine), [JOB], "both tasks start processing");
    for _ in 0..3 {
        let backlog = engine.job(JOB).expect("job").backlog();
        tick(&mut engine, 64.0);
        assert!(engine.job(JOB).expect("job").backlog() > backlog);
        assert!(dirty(&mut engine).is_empty(), "usage held: not dirty");
        assert_eq!(engine.active_jobs(), 1, "yet still walked");
    }
    // One core for two busy tasks halves each one's usage: no mutation,
    // and the job is dirty once, then holds again.
    tick(&mut engine, 1.0);
    assert_eq!(dirty(&mut engine), [JOB], "contention moved usage");
    tick(&mut engine, 1.0);
    assert!(dirty(&mut engine).is_empty());
    engine.degrade_task(specs[0].id, 0.5);
    assert_eq!(dirty(&mut engine), [JOB], "a mutation marks it");
}

#[test]
fn only_mutations_reshape_a_job() {
    // 4 MB/s into two 1 MB/s tasks: the backlog grows every tick, and
    // usage moves on the first tick only (the tasks start processing at
    // capacity and stay there). The dirty set follows usage, not
    // backlog, so it holds the job after the first tick and not after
    // the others; the checker's reader never does.
    let (mut engine, specs) = engine_with_job(4.0e6, 2);
    let for_checker = |engine: &mut Engine| {
        engine
            .drain_changes(EngineReader::Checker)
            .into_iter()
            .collect::<Vec<_>>()
    };
    assert_eq!(for_checker(&mut engine), [JOB]);
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    for i in 0..5 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
        assert_eq!(
            engine
                .drain_changes(EngineReader::LoadReport)
                .contains(&JOB),
            i == 0,
            "dirty exactly when usage moved (tick {i})"
        );
        assert!(
            for_checker(&mut engine).is_empty(),
            "a tick reshapes nothing"
        );
    }
    let other = JobId(2);
    engine.add_job(
        other,
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
        4,
        false,
        0.0,
    );
    assert_eq!(for_checker(&mut engine), [other]);
    let mut weights: Vec<f64> = engine.job(JOB).expect("job").partition_weights().collect();
    weights[0] = 0.0;
    engine.set_partition_weights(JOB, &weights);
    assert_eq!(for_checker(&mut engine), [JOB]);
    engine.degrade_task(specs[0].id, 0.5);
    assert_eq!(for_checker(&mut engine), [JOB]);
    engine.knock_down_task(specs[0].id, now + dt);
    assert_eq!(for_checker(&mut engine), [JOB]);
    // A stale stop from a container that does not own the task is no
    // mutation.
    engine.task_stopped(specs[1].id, ContainerId(9));
    assert!(for_checker(&mut engine).is_empty());
    engine.task_stopped(specs[1].id, C0);
    assert_eq!(for_checker(&mut engine), [JOB]);
    engine.task_started(&specs[1], ContainerId(3), now, dt);
    assert_eq!(for_checker(&mut engine), [JOB]);
    engine.remove_job(other);
    assert_eq!(for_checker(&mut engine), [other]);
    now += dt;
    engine.tick(now, dt, &caps(64.0), &|_| false);
    assert!(for_checker(&mut engine).is_empty());
}

#[test]
fn quiescence_requires_drained_partitions_and_idle_traffic() {
    let (mut engine, specs) = engine_with_job(0.0, 2);
    let t0 = SimTime::ZERO;
    let later = t0 + Duration::from_mins(10);
    // Fresh tasks are mid-restart (down_until set): not quiescent.
    assert!(!engine.is_quiescent_through(t0, later));
    let dt = Duration::from_secs(10);
    engine.tick(t0 + dt, dt, &caps(64.0), &|_| false);
    // Zero-rate traffic, nothing appended, restarts cleared: quiescent.
    assert!(engine.is_quiescent_through(t0 + dt, later));
    // Direct lookups agree with iteration order.
    assert_eq!(engine.task(specs[0].id).map(|t| t.container), Some(C0));
    assert_eq!(engine.nth_task(0).map(|(id, _)| id), Some(specs[0].id));
    assert_eq!(engine.nth_task(2), None);
}

#[test]
fn backlog_blocks_quiescence_until_fully_drained() {
    // 4 MB/s into 2 × 1 MB/s tasks: backlog builds every tick.
    let (mut engine, _) = engine_with_job(4.0e6, 2);
    let dt = Duration::from_secs(10);
    let mut now = SimTime::ZERO;
    // Build backlog, then cut arrivals via an input outage and drain.
    now += dt;
    engine.tick(now, dt, &caps(64.0), &|_| false);
    engine.job_mut(JOB).expect("job").traffic =
        TrafficModel::flat(4.0e6).with_event(turbine_workloads::TrafficEvent {
            start: now,
            end: SimTime::ZERO + Duration::from_hours(2),
            kind: turbine_workloads::TrafficEventKind::InputOutage,
        });
    let horizon = now + Duration::from_mins(5);
    assert!(
        !engine.is_quiescent_through(now, horizon),
        "undrained backlog must block quiescence"
    );
    for _ in 0..6 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
    }
    assert!(
        engine.job(JOB).expect("job").backlog() == 0.0,
        "full drain must hit the exact share == 1.0 path"
    );
    assert!(engine.is_quiescent_through(now, now + Duration::from_mins(5)));
}

#[test]
fn arena_slots_are_recycled_across_restarts() {
    let (mut engine, specs) = engine_with_job(1.0e6, 2);
    assert_eq!(engine.total_tasks(), 2);
    engine.task_stopped(specs[0].id, C0);
    assert_eq!(engine.total_tasks(), 1);
    // Stale stop from a non-owning container is ignored.
    engine.task_stopped(specs[1].id, ContainerId(9));
    assert_eq!(engine.total_tasks(), 1);
    engine.task_started(&specs[0], ContainerId(3), SimTime::ZERO, Duration::ZERO);
    assert_eq!(engine.total_tasks(), 2);
    assert_eq!(
        engine.task(specs[0].id).map(|t| t.container),
        Some(ContainerId(3))
    );
    // Iteration order stays id-ordered regardless of slot recycling.
    let ids: Vec<TaskId> = engine.tasks().map(|(&id, _)| id).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted);
}

#[test]
fn remove_job_clears_tasks() {
    let (mut engine, _) = engine_with_job(1.0e6, 2);
    assert_eq!(engine.total_tasks(), 2);
    engine.remove_job(JOB);
    assert_eq!(engine.total_tasks(), 0);
    assert!(engine.job(JOB).is_none());
}

#[test]
#[should_panic(expected = "job-1: task 0's slice needs 17 partitions, the job has 16")]
fn a_slice_past_the_jobs_partitions_does_not_start() {
    let mut engine = Engine::new();
    engine.add_job(JOB, TrafficModel::flat(1.0e6), 1.0e6, 256.0, 16, false, 0.0);
    let specs = TaskService::generate_specs(JOB, &JobConfig::stateless("t", 1, 17));
    engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::ZERO);
}

#[test]
fn a_ticks_arrivals_split_by_prefix_floors_sum_to_the_tick_and_repeat() {
    // Thirds, sevenths and the rest: weights whose products with the tick's
    // bytes are never whole, and whose floating-point sum is not exactly 1.
    let weights = [1.0 / 3.0, 1.0 / 7.0, 1.0 / 3.0, 0.0, 1.0 / 7.0, 0.05];
    let mut engine = Engine::new();
    engine.add_job(
        JOB,
        TrafficModel::flat(1_234_567.89),
        1.0e6,
        256.0,
        6,
        false,
        0.0,
    );
    engine.set_partition_weights(JOB, &weights);
    let dt = Duration::from_secs(10);
    let appended = |engine: &Engine| -> Vec<u64> {
        let rt = engine.jobs.get(JOB).expect("job");
        engine
            .jobs
            .cols
            .get(rt.cols)
            .iter()
            .map(|p| p.appended)
            .collect()
    };
    let mut now = SimTime::ZERO;
    let mut before = appended(&engine);
    let mut first: Option<Vec<u64>> = None;
    for _ in 0..5 {
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
        let after = appended(&engine);
        let parts: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(parts.iter().sum::<u64>(), 12_345_678, "⌊rate·dt⌋, exactly");
        assert_eq!(parts[3], 0, "a zero weight takes nothing");
        assert_eq!(*first.get_or_insert_with(|| parts.clone()), parts);
        before = after;
    }
    assert_eq!(engine.drained(JOB).arrived, 5.0 * 12_345_678.0);
}
