//! The engine's layout gate: live heap allocations per one-task,
//! 16-partition job after ten ticks, at 1 000 and at 4 000 jobs, and
//! allocation calls per steady tick, per steady drain of every job's
//! scaler window and per steady durable sync. Allocation counts have no
//! spread, so a layout regression fails on its first run. This is a test binary of
//! its own because it counts through a global allocator; the counts are
//! per thread, so other tests' threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use turbine::engine::{Engine, EngineReader, WindowStats};
use turbine_config::JobConfig;
use turbine_scribe::{CheckpointStore, Scribe};
use turbine_taskmgr::TaskService;
use turbine_types::{ContainerId, Duration, JobId, SimTime};
use turbine_workloads::TrafficModel;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Allocations made on this thread and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<i64>>, by: i64) {
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

fn call() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread locals with no destructor, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        call();
        bump(&LIVE, 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&LIVE, -1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        call();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (allocation calls so far, allocations live) on this thread.
fn counts() -> (u64, i64) {
    (CALLS.with(Cell::get), LIVE.with(Cell::get))
}

#[test]
fn under_half_a_live_allocation_per_job_and_none_per_steady_tick() {
    const PARTITIONS: u32 = 16;
    let dt = Duration::from_secs(10);
    for jobs in [1_000u64, 4_000] {
        // Four tasks to a container, which has room for them all: each
        // one-thread task keeps up with its 1 MB/s exactly, so every tick
        // after the first computes the same readings.
        let containers = jobs / 4;
        let container_cpu: HashMap<ContainerId, f64> =
            (0..containers).map(|c| (ContainerId(c), 44.8)).collect();
        let (_, live_before) = counts();
        let mut engine = Engine::new();
        for j in 0..jobs {
            let job = JobId(j);
            let traffic = TrafficModel::flat(1.0e6);
            engine.add_job(job, traffic, 1.0e6, 256.0, PARTITIONS, false, 0.0);
            let config = JobConfig::stateless("layout", 1, PARTITIONS);
            for spec in TaskService::generate_specs(job, &config) {
                let container = ContainerId(j % containers);
                engine.task_started(&spec, container, SimTime::ZERO, Duration::ZERO);
            }
        }
        let mut now = SimTime::ZERO;
        let mut tick = |engine: &mut Engine| {
            now += dt;
            engine.tick(now, dt, &container_cpu, &|_| false)
        };
        for _ in 0..10 {
            tick(&mut engine);
        }
        // The change feed holds what its readers have yet to take, not
        // layout: the platform drains every reader every round.
        for reader in [
            EngineReader::LoadReport,
            EngineReader::Checker,
            EngineReader::Scaler,
        ] {
            assert_eq!(engine.drain_changes(reader).len(), jobs as usize);
        }
        let (calls_before, live_after) = counts();
        let per_job = (live_after - live_before) as f64 / jobs as f64;
        assert!(
            per_job <= 0.5,
            "{jobs} jobs: {per_job:.3} live allocations per job"
        );
        for _ in 0..10 {
            assert!(tick(&mut engine).oom_kills.is_empty());
        }
        let (calls_after, _) = counts();
        assert_eq!(
            calls_after - calls_before,
            0,
            "{jobs} jobs: allocation calls in ten steady ticks"
        );
        assert_eq!(engine.total_tasks(), jobs as usize);
        assert_eq!(engine.active_jobs(), jobs as usize, "every job busy");
    }
}

#[test]
fn no_allocation_per_steady_window_drain_or_durable_sync() {
    const PARTITIONS: u32 = 16;
    let dt = Duration::from_secs(10);
    for jobs in [1_000u64, 4_000] {
        let containers = jobs / 4;
        let container_cpu: HashMap<ContainerId, f64> =
            (0..containers).map(|c| (ContainerId(c), 44.8)).collect();
        let mut engine = Engine::new();
        let mut scribe = Scribe::new();
        for j in 0..jobs {
            let job = JobId(j);
            engine.add_job(
                job,
                TrafficModel::flat(1.0e6),
                1.0e6,
                256.0,
                PARTITIONS,
                false,
                0.0,
            );
            let category = scribe
                .create_category(&format!("job_{j}_input"), PARTITIONS)
                .expect("fresh name");
            engine.bind_category(job, category);
            let config = JobConfig::stateless("layout", 1, PARTITIONS);
            for spec in TaskService::generate_specs(job, &config) {
                let container = ContainerId(j % containers);
                engine.task_started(&spec, container, SimTime::ZERO, Duration::ZERO);
            }
        }
        let mut checkpoints = CheckpointStore::new();
        let mut drained = WindowStats::default();
        let mut now = SimTime::ZERO;
        // Warm up: the first drain grows the kept buffers, the first sync
        // creates every row.
        for _ in 0..2 {
            now += dt;
            engine.tick(now, dt, &container_cpu, &|_| false);
            for job in engine.job_ids() {
                engine.drain_window(job, &mut drained);
            }
            engine.sync_durable(&mut scribe, &mut checkpoints);
        }
        let ids = engine.job_ids();
        for _ in 0..3 {
            now += dt;
            engine.tick(now, dt, &container_cpu, &|_| false);
            let (before, _) = counts();
            for &job in &ids {
                let runtime = engine.drain_window(job, &mut drained).expect("registered");
                assert!(runtime.backlog() >= 0.0);
                assert_eq!(drained.running.len(), 1);
                assert!(drained.running[0].processed > 0.0, "{job}: a busy window");
            }
            let (after_drain, _) = counts();
            assert_eq!(
                after_drain - before,
                0,
                "{jobs} jobs: allocation calls in a steady drain of every window"
            );
            engine.sync_durable(&mut scribe, &mut checkpoints);
            let (after_sync, _) = counts();
            assert_eq!(
                after_sync - after_drain,
                0,
                "{jobs} jobs: allocation calls in a steady durable sync"
            );
        }
        assert_eq!(checkpoints.len(), (jobs * PARTITIONS as u64) as usize);
        assert!(checkpoints.job_total_ingested(JobId(jobs - 1)) > 0);
    }
}
