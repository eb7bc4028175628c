//! The slab layout against its oracle. An engine whose blocks drift out of
//! id order under churn, and a twin re-laid in id order after every
//! operation, return the same outputs and hold the same bits, and the
//! engine's own stream decodes into a copy that encodes back to it. Re-lays
//! stay amortised: the entries they move are at most twice the entries laid
//! or freed, whatever the fleet's size. A task's window bytes outlive its
//! stop and come back with its id.

use super::*;
use proptest::prelude::*;
use turbine_config::JobConfig;
use turbine_taskmgr::TaskService;
use turbine_workloads::{TrafficEvent, TrafficEventKind};

const DT: Duration = Duration::from_secs(10);
/// Jobs are `JobId(0..JOBS)`, registered or not.
const JOBS: u64 = 5;
/// Task indexes per job.
const TASKS: u8 = 4;
const CONTAINERS: u64 = 3;

impl Engine {
    /// Re-lay every block in id order, due or not.
    fn relay_all(&mut self) {
        self.jobs.relay();
        self.tasks.relay();
    }
}

fn encoded(engine: &Engine) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(engine);
    w.into_bytes()
}

fn decoded(bytes: &[u8]) -> Engine {
    let mut r = SnapReader::new(bytes);
    let engine = r.get().expect("decode");
    r.expect_end().expect("the whole stream");
    engine
}

/// Task `index` of `job`: `len` partitions from `index` on, wrapping in
/// `partitions`.
fn spec(job: JobId, index: u32, partitions: u32, len: u32) -> TaskSpec {
    let config = JobConfig::stateless("layout", 1, partitions);
    let mut spec = TaskService::generate_specs(job, &config).remove(0);
    spec.id = TaskId::new(job, index);
    spec.partitions = (0..len.min(partitions))
        .map(|p| PartitionId(((index + p) % partitions) as u64))
        .collect();
    spec
}

fn traffic(shape: u8, now: SimTime) -> TrafficModel {
    match shape % 4 {
        0 => TrafficModel::flat(0.0),
        1 => TrafficModel::flat(2.5e6),
        2 => TrafficModel::diurnal(1.5e6, 0.4, 3),
        _ => TrafficModel::flat(1.0e6).with_event(TrafficEvent {
            start: now + DT,
            end: now + DT.mul(6),
            kind: TrafficEventKind::InputOutage,
        }),
    }
}

/// Every output a reader of the engine sees, as bits: per job its backlog
/// and arrivals, per task its usage readings and slice.
fn observed(engine: &Engine) -> Vec<u64> {
    let mut bits = Vec::new();
    for (job, view) in engine.jobs() {
        bits.extend([
            job.raw(),
            view.backlog().to_bits(),
            view.total_arrived().to_bits(),
        ]);
    }
    for (id, task) in engine.tasks() {
        bits.extend([id.job.raw(), id.index as u64]);
        bits.extend([task.cpu_usage.to_bits(), task.memory_usage_mb.to_bits()]);
        bits.extend(engine.partitions_of(task).iter().map(|p| p.raw()));
    }
    bits
}

/// The engine under churn and its re-laid twin, driven in lockstep.
struct Pair {
    drifted: Engine,
    relaid: Engine,
    now: SimTime,
    paused: BTreeSet<JobId>,
    container_cpu: HashMap<ContainerId, f64>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            drifted: Engine::new(),
            relaid: Engine::new(),
            now: SimTime::ZERO,
            paused: BTreeSet::new(),
            container_cpu: (0..CONTAINERS).map(|c| (ContainerId(c), 3.0)).collect(),
        }
    }

    fn both<T>(&mut self, f: impl Fn(&mut Engine) -> T) -> (T, T) {
        (f(&mut self.drifted), f(&mut self.relaid))
    }

    fn apply(&mut self, (kind, a, b, c): (u8, u8, u8, u8)) -> Result<(), TestCaseError> {
        let now = self.now;
        let job = JobId(a as u64 % JOBS);
        let index = (b % TASKS) as u32;
        let task = TaskId::new(job, index);
        match kind {
            // (Re-)register, with a new partition count unless running
            // tasks need more.
            0 => {
                let needed = self
                    .drifted
                    .tasks_of_job(job)
                    .flat_map(|(_, t)| self.drifted.partitions_of(t))
                    .map(|p| p.raw() as u32 + 1)
                    .max()
                    .unwrap_or(1);
                let partitions = (1 + b as u32 % 12).max(needed);
                let model = traffic(c, now);
                self.both(|e| {
                    e.add_job(
                        job,
                        model.clone(),
                        1.0e6,
                        2048.0,
                        partitions,
                        c % 2 == 0,
                        4.0e4,
                    )
                });
            }
            1 => {
                self.both(|e| e.remove_job(job));
            }
            // Start, or replace with a slice of another length.
            2 | 3 => {
                let partitions = self
                    .drifted
                    .job(job)
                    .map_or(8, |rt| rt.partition_count() as u32);
                let spec = spec(job, index, partitions, 1 + c as u32 % 5);
                let container = ContainerId(c as u64 % CONTAINERS);
                let delay = DT.mul(c as u64 % 3);
                self.both(|e| e.task_started(&spec, container, now, delay));
            }
            4 => {
                if let Some(container) = self.drifted.task(task).map(|t| t.container) {
                    self.both(|e| e.task_stopped(task, container));
                }
            }
            5 => {
                self.both(|e| e.degrade_task(task, 0.25 * (c as f64 % 4.0 + 1.0)));
            }
            6 => {
                self.both(|e| e.knock_down_task(task, now + DT.mul(c as u64 % 4 + 1)));
            }
            7 => {
                let count = self.drifted.job(job).map_or(0, |rt| rt.partition_count());
                let mut weights = vec![0.0; count];
                if count > 0 {
                    weights[c as usize % count] = 1.0;
                }
                self.both(|e| e.set_partition_weights(job, &weights));
            }
            8 => {
                self.both(|e| {
                    if let Some(rt) = e.job_mut(job) {
                        rt.traffic = traffic(c, now);
                    }
                });
            }
            9 => {
                let (drifted, relaid) = self.both(|e| e.drained(job));
                prop_assert_eq!(drifted.arrived.to_bits(), relaid.arrived.to_bits());
                prop_assert_eq!(drifted.processed.to_bits(), relaid.processed.to_bits());
                prop_assert_eq!(drifted.ooms, relaid.ooms);
                let bits = |stats: &WindowStats| {
                    let per_task = stats.per_task.iter();
                    per_task
                        .map(|&(id, v)| (id, v.to_bits()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&drifted), bits(&relaid));
                // No task's bytes go missing: the per-task split adds up to
                // the job's total, up to rounding.
                let split: f64 = drifted.per_task.iter().map(|&(_, v)| v).sum();
                prop_assert!(
                    (split - drifted.processed).abs() <= 1.0e-9 * drifted.processed.max(1.0),
                    "{job}: per-task window {split} of {}",
                    drifted.processed
                );
            }
            10 => {
                if !self.paused.remove(&job) {
                    self.paused.insert(job);
                }
            }
            11 => {
                let container = ContainerId(a as u64 % CONTAINERS);
                if self.container_cpu.remove(&container).is_none() {
                    self.container_cpu.insert(container, 3.0);
                }
            }
            _ => {
                self.now += DT;
                let paused = &self.paused;
                let paused = |job: JobId| paused.contains(&job);
                let drifted = self
                    .drifted
                    .tick(self.now, DT, &self.container_cpu, &paused);
                let relaid = self.relaid.tick(self.now, DT, &self.container_cpu, &paused);
                prop_assert_eq!(&drifted.oom_kills, &relaid.oom_kills);
                let until = self.now + DT.mul(2);
                for task in drifted.oom_kills {
                    self.both(|e| e.knock_down_task(task, until));
                }
            }
        }
        self.relaid.relay_all();
        prop_assert_eq!(observed(&self.drifted), observed(&self.relaid));
        prop_assert_eq!(self.drifted.active_jobs(), self.relaid.active_jobs());
        let bytes = encoded(&self.drifted);
        prop_assert!(bytes == encoded(&self.relaid), "encodings diverged");
        prop_assert!(
            encoded(&decoded(&bytes)) == bytes,
            "the stream decodes into a copy that encodes otherwise"
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any interleaving of job registration (an id again, with another
    /// partition count) and removal, task starts, replacements, stops,
    /// knock-downs and degradation, weight and traffic edits, window
    /// drains, pauses, container death and revival, and ticks: the engine
    /// and its twin, re-laid in id order after every step, agree on every
    /// output to the bit, and a round trip of the engine's stream is exact.
    #[test]
    fn drifted_layout_equals_id_ordered_layout(
        steps in prop::collection::vec((0u8..24, 0u8..10, 0u8..10, 0u8..10), 40..160),
    ) {
        let mut pair = Pair::new();
        for step in steps {
            pair.apply(step)?;
        }
    }
}

/// A fleet of `n` one-task jobs of four partitions, registered in a
/// shuffled order, then put through `3 n` stops, starts and re-registrations.
/// Returns, per block (slots, slices, columns), the entries laid or freed
/// and the entries re-lays moved.
fn churn(n: u64) -> [(u64, u64); 3] {
    const PARTITIONS: u32 = 4;
    let mut state = 0x2545_F491_4F6C_DD1D_u64 ^ n;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, next(i as u64 + 1) as usize);
    }
    let mut engine = Engine::new();
    let (mut slots, mut cols) = (0u64, 0u64);
    let start = |engine: &mut Engine, job: JobId| {
        let spec = spec(job, 0, PARTITIONS, PARTITIONS);
        engine.task_started(&spec, ContainerId(job.raw() % 7), SimTime::ZERO, DT);
    };
    let add = |engine: &mut Engine, job: JobId| {
        let model = TrafficModel::flat(1.0e6);
        engine.add_job(job, model, 1.0e6, 256.0, PARTITIONS, false, 0.0);
    };
    for &j in &order {
        add(&mut engine, JobId(j));
        start(&mut engine, JobId(j));
        (slots, cols) = (slots + 1, cols + PARTITIONS as u64);
    }
    for _ in 0..3 * n {
        let job = JobId(next(n));
        let task = TaskId::new(job, 0);
        match (next(3), engine.task(task).map(|t| t.container)) {
            (0, Some(container)) => {
                engine.task_stopped(task, container);
                slots += 1;
            }
            (0 | 1, None) => {
                start(&mut engine, job);
                slots += 1;
            }
            (_, running) => {
                engine.remove_job(job);
                add(&mut engine, job);
                slots += running.map_or(0, |_| 1);
                cols += 2 * PARTITIONS as u64;
            }
        }
    }
    let slices = slots * PARTITIONS as u64;
    [
        (slots, engine.tasks.layout.relaid),
        (slices, engine.tasks.slices.layout.relaid),
        (cols, engine.jobs.cols.layout.relaid),
    ]
}

#[test]
fn relays_move_at_most_twice_the_entries_mutated_at_any_fleet_size() {
    for n in [400, 1600] {
        for (block, (mutated, moved)) in ["slots", "slices", "columns"].iter().zip(churn(n)) {
            assert!(moved > 0, "{n} jobs: the {block} were never re-laid");
            assert!(
                moved <= 2 * mutated,
                "{n} jobs: {moved} {block} moved for {mutated} laid or freed"
            );
        }
    }
}

#[test]
fn departed_window_bytes_are_kept_and_resumed() {
    let job = JobId(1);
    let mut engine = Engine::new();
    engine.add_job(job, TrafficModel::flat(2.0e6), 1.0e6, 256.0, 4, false, 0.0);
    let specs = TaskService::generate_specs(job, &JobConfig::stateless("w", 2, 4));
    for spec in &specs {
        engine.task_started(spec, ContainerId(0), SimTime::ZERO, Duration::ZERO);
    }
    let caps = HashMap::from([(ContainerId(0), 8.0)]);
    let mut now = SimTime::ZERO;
    let mut tick = |engine: &mut Engine| {
        now += DT;
        engine.tick(now, DT, &caps, &|_| false);
        now
    };
    tick(&mut engine);
    // Task 0 stops mid-window: its bytes stay listed.
    engine.task_stopped(specs[0].id, ContainerId(0));
    let now = tick(&mut engine);
    let stats = engine.drained(job);
    let listed: Vec<TaskId> = stats.per_task.iter().map(|&(id, _)| id).collect();
    assert_eq!(listed, [specs[0].id, specs[1].id]);
    assert_eq!(stats.per_task[0].1, 1.0e7, "one tick at one thread");
    assert_eq!(stats.per_task[1].1, 2.0e7, "two ticks at one thread");
    // Stopped and back within one window: its bytes resume and add up.
    engine.task_started(&specs[0], ContainerId(0), now, Duration::ZERO);
    let now = tick(&mut engine);
    engine.task_stopped(specs[0].id, ContainerId(0));
    engine.task_started(&specs[0], ContainerId(0), now, Duration::ZERO);
    tick(&mut engine);
    let stats = engine.drained(job);
    assert_eq!(stats.per_task, [(specs[0].id, 2.0e7), (specs[1].id, 2.0e7)]);
}
