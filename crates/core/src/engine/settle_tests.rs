//! The short cuts of [`Engine::tick`] (the settled-job skip, the lazy
//! spans, the dirty hint, the noise memo) against their oracle: the same
//! engine made to forget all four (through `forget_derived`) before every
//! tick, so that it walks every task, inserts every job it dirties and
//! draws every noise factor, which is what the tick did before it had them.

use super::*;
use proptest::prelude::*;
use turbine_config::JobConfig;
use turbine_taskmgr::TaskService;
use turbine_workloads::{TrafficEvent, TrafficEventKind};

const DT: Duration = Duration::from_secs(10);
/// Registered jobs are `JobId(0..JOBS)`; `ORPHAN` only ever has tasks.
const JOBS: u64 = 4;
const ORPHAN: JobId = JobId(9);
const CONTAINERS: u64 = 3;
const PARTITIONS: u32 = 8;

fn specs_of(job: JobId) -> Vec<TaskSpec> {
    let mut config = JobConfig::stateless("settle", 1 + (job.raw() % 3) as u32, PARTITIONS);
    if job.raw() == 1 {
        // Busy tasks of this job outgrow their reservation and OOM.
        config.memory_enforcement = MemoryEnforcement::Cgroup;
        config.task_resources = Resources::cpu_mem(2.0, 405.0);
    }
    TaskService::generate_specs(job, &config)
}

/// One of the traffic shapes a job can be switched to at `now`. The
/// windowed ones open and close between ticks with no engine call at
/// either edge, so only the wake queue can catch them.
fn traffic(shape: u8, now: SimTime) -> TrafficModel {
    let window = |kind| TrafficEvent {
        start: now + DT.mul(2),
        end: now + DT.mul(9),
        kind,
    };
    match shape % 6 {
        0 => TrafficModel::flat(0.0),
        1 => TrafficModel::flat(1.5e6),
        2 => TrafficModel::diurnal(1.0e6, 0.4, 7),
        3 => TrafficModel::flat(1.5e6).with_event(window(TrafficEventKind::InputOutage)),
        4 => TrafficModel::flat(0.0).with_event(window(TrafficEventKind::ConsumerDisabled)),
        _ => TrafficModel::flat(7.5e5).with_event(window(TrafficEventKind::ConsumerDisabled)),
    }
}

fn encoded(value: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

/// The skipping engine and its full-walk twin, driven in lockstep.
struct Pair {
    skip: Engine,
    full: Engine,
    now: SimTime,
    paused: BTreeSet<JobId>,
    /// Each container's cores while it is up.
    cores: f64,
    container_cpu: HashMap<ContainerId, f64>,
}

impl Pair {
    /// `cores` per container: at two a few busy tasks contend, at eight
    /// none do, and flat jobs that keep up go lazy.
    fn new(shapes: &[u8], cores: f64) -> Pair {
        let mut pair = Pair {
            skip: Engine::new(),
            full: Engine::new(),
            now: SimTime::ZERO,
            paused: BTreeSet::new(),
            cores,
            container_cpu: (0..CONTAINERS).map(|c| (ContainerId(c), cores)).collect(),
        };
        for j in 0..JOBS {
            let model = traffic(shapes[j as usize], SimTime::ZERO);
            pair.both(|e| {
                e.add_job(
                    JobId(j),
                    model.clone(),
                    1.0e6,
                    4096.0,
                    PARTITIONS,
                    j == 2,
                    5.0e4,
                )
            });
            for spec in specs_of(JobId(j)) {
                let container = ContainerId((j + spec.id.index as u64) % CONTAINERS);
                pair.both(|e| e.task_started(&spec, container, SimTime::ZERO, DT));
            }
        }
        pair
    }

    fn both(&mut self, f: impl Fn(&mut Engine)) {
        f(&mut self.skip);
        f(&mut self.full);
    }

    /// The `b`-th task (mod count) `a`'s job would have, running or not.
    fn spec(a: u8, b: u8) -> TaskSpec {
        let job = if a as u64 % (JOBS + 1) == JOBS {
            ORPHAN
        } else {
            JobId(a as u64 % JOBS)
        };
        let specs = specs_of(job);
        specs[b as usize % specs.len()].clone()
    }

    /// Apply one step. Each edit of what the tick is handed (a pause, a
    /// container's capacity) is announced to both engines, as the platform
    /// announces it. Returns the windows a drain step drained, skipping
    /// engine first.
    fn apply(&mut self, (kind, a, b): (u8, u8, u8)) -> Option<(WindowStats, WindowStats)> {
        let now = self.now;
        let job = JobId(a as u64 % JOBS);
        let spec = Pair::spec(a, b);
        let task = spec.id;
        match kind {
            0 => {
                let was_paused = self.paused.remove(&job);
                if !was_paused {
                    self.paused.insert(job);
                }
                self.both(|e| e.wake(job));
            }
            1 => {
                let container = ContainerId(a as u64 % CONTAINERS);
                let was_alive = self.container_cpu.remove(&container).is_some();
                if !was_alive {
                    self.container_cpu.insert(container, self.cores);
                }
                self.both(Engine::containers_changed);
            }
            10 => {
                // Shrink a live container below its tasks' threads, or give
                // it back its cores.
                let container = ContainerId(a as u64 % CONTAINERS);
                let cores = self.cores;
                if let Some(cpu) = self.container_cpu.get_mut(&container) {
                    *cpu = if *cpu == cores { 0.5 } else { cores };
                    self.both(Engine::containers_changed);
                }
            }
            2 => self.both(|e| e.knock_down_task(task, now + DT.mul(b as u64 + 1))),
            3 => self.both(|e| e.degrade_task(task, 0.25 * (b as f64 + 1.0))),
            4 => self.both(|e| {
                let mut weights = vec![0.0; PARTITIONS as usize];
                weights[b as usize % PARTITIONS as usize] = 1.0;
                e.set_partition_weights(job, &weights);
            }),
            5 => {
                if let Some(container) = self.skip.task(task).map(|t| t.container) {
                    self.both(|e| e.task_stopped(task, container));
                }
            }
            6 => {
                let container = ContainerId(b as u64 % CONTAINERS);
                self.both(|e| e.task_started(&spec, container, now, DT.mul(b as u64 % 3)));
            }
            7 => self.both(|e| {
                if let Some(rt) = e.job_mut(job) {
                    rt.traffic = traffic(b, now);
                }
            }),
            8 if b == 0 => self.both(|e| e.remove_job(job)),
            9 => return Some((self.skip.drained(job), self.full.drained(job))),
            _ => {}
        }
        None
    }

    /// Tick both engines and hold every observable output equal. The
    /// dirty sets are compared every tick (they are in the encoding) but
    /// only drained when `drain` says so, as the platform drains them once
    /// per load-report round and not once per tick.
    fn tick(&mut self, drain: bool) -> Result<(), TestCaseError> {
        self.now += DT;
        let paused = &self.paused;
        let paused = |job: JobId| paused.contains(&job);
        self.full.forget_derived();
        let skip = self.skip.tick(self.now, DT, &self.container_cpu, &paused);
        let full = self.full.tick(self.now, DT, &self.container_cpu, &paused);
        prop_assert_eq!(&skip.oom_kills, &full.oom_kills);
        // OOM kills restart the way the platform restarts them.
        let until = self.now + DT.mul(2);
        for task in skip.oom_kills {
            self.both(|e| e.knock_down_task(task, until));
        }
        if drain {
            prop_assert_eq!(
                self.skip.drain_changes(EngineReader::LoadReport),
                self.full.drain_changes(EngineReader::LoadReport)
            );
        }
        prop_assert!(
            encoded(&self.skip) == encoded(&self.full),
            "snapshot encodings diverged at {}",
            self.now
        );
        prop_assert_eq!(self.skip.active_jobs(), self.full.active_jobs());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of traffic shapes and windows, pauses, container
    /// death and revival, knock-downs, degradation, weight edits and
    /// start/stop churn, with the dirty set drained after runs of ticks of
    /// any length: tick by tick, the engine with its short cuts and the one
    /// without return the same outcome, hold and drain the same dirty jobs
    /// and encode to the same bytes.
    #[test]
    fn skipping_settled_jobs_equals_walking_everything(
        shapes in prop::collection::vec(0u8..6, JOBS as usize..JOBS as usize + 1),
        // Two thirds of the steps only tick, so jobs get to settle between
        // disturbances.
        steps in prop::collection::vec((0u8..30, 0u8..10, 0u8..10), 60..160),
    ) {
        let mut pair = Pair::new(&shapes, 2.0);
        for step in steps {
            pair.step(step)?;
        }
        pair.tick(true)?;
    }

    /// The same interleavings on containers with room for every task, so
    /// that flat jobs which keep up spend spans lazy, broken by pauses,
    /// capacity cuts, container loss, weight edits and the rest: the
    /// engines encode the same, and every window drained mid-span or at the
    /// end holds the same bytes.
    #[test]
    fn lazy_spans_equal_walking_every_job(
        shapes in prop::collection::vec(0u8..6, JOBS as usize..JOBS as usize + 1),
        steps in prop::collection::vec((0u8..40, 0u8..10, 0u8..10), 60..160),
    ) {
        let mut pair = Pair::new(&shapes, 8.0);
        for step in steps {
            pair.step(step)?;
        }
        pair.tick(true)?;
        for job in 0..JOBS {
            let (skip, full) = (pair.skip.drained(JobId(job)), pair.full.drained(JobId(job)));
            prop_assert_eq!(format!("{skip:?}"), format!("{full:?}"));
        }
    }
}

impl Pair {
    /// Apply `step`, then tick; a drain step's windows must agree.
    fn step(&mut self, step: (u8, u8, u8)) -> Result<(), TestCaseError> {
        if let Some((skip, full)) = self.apply(step) {
            prop_assert_eq!(format!("{skip:?}"), format!("{full:?}"));
        }
        // A quarter of the ticks drain: runs of 1 to 20 without.
        self.tick((step.1 + 2 * step.2).is_multiple_of(4))
    }
}

fn quiet_tick(engine: &mut Engine, now: &mut SimTime) {
    *now += DT;
    let caps = HashMap::from([(ContainerId(0), 8.0)]);
    engine.tick(*now, DT, &caps, &|_| false);
}

#[test]
fn quiet_job_settles_until_a_mutation_or_its_own_traffic_wakes_it() {
    let job = JobId(1);
    let mut engine = Engine::new();
    let mut now = SimTime::ZERO;
    // Busy for the first 100 s only: the outage outlasts the test.
    let outage = TrafficEvent {
        start: SimTime::ZERO + DT.mul(10),
        end: SimTime::ZERO + DT.mul(20),
        kind: TrafficEventKind::InputOutage,
    };
    engine.add_job(
        job,
        TrafficModel::flat(1.0e6).with_event(outage),
        1.0e6,
        256.0,
        PARTITIONS,
        false,
        0.0,
    );
    for spec in TaskService::generate_specs(job, &JobConfig::stateless("q", 2, PARTITIONS)) {
        engine.task_started(&spec, ContainerId(0), now, Duration::ZERO);
    }
    for _ in 0..9 {
        quiet_tick(&mut engine, &mut now);
        assert_eq!(engine.active_jobs(), 1, "arrivals keep the job active");
    }
    // Outage: the backlog drains, usage falls to idle, then nothing moves.
    for _ in 0..5 {
        quiet_tick(&mut engine, &mut now);
    }
    assert_eq!(engine.active_jobs(), 0, "drained and idle: settled");
    engine.drain_changes(EngineReader::LoadReport);
    quiet_tick(&mut engine, &mut now);
    assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
    // A mutation re-activates it; with nothing to do it settles again.
    engine.degrade_task(TaskId::new(job, 0), 0.5);
    assert_eq!(engine.active_jobs(), 1);
    quiet_tick(&mut engine, &mut now);
    assert_eq!(engine.active_jobs(), 0);
    // The outage ends between two ticks with no engine call: the job's
    // wake at its traffic's next edge alone must walk it again.
    while now < outage.end {
        assert_eq!(engine.active_jobs(), 0);
        quiet_tick(&mut engine, &mut now);
    }
    assert_eq!(engine.active_jobs(), 1, "traffic resumed");
    assert!(engine.job(job).expect("job").total_arrived() > 9.0e7);
    assert!(engine
        .drain_changes(EngineReader::LoadReport)
        .contains(&job));
}

#[test]
fn orphan_tasks_clear_their_restart_marker_and_then_settle() {
    // Tasks whose job has no runtime (started before `add_job`, or left
    // behind by a racing delete) are keyed into the active set by their
    // own job id, so the walk still ends their restart.
    let mut engine = Engine::new();
    let mut now = SimTime::ZERO;
    for spec in TaskService::generate_specs(ORPHAN, &JobConfig::stateless("o", 2, PARTITIONS)) {
        engine.task_started(&spec, ContainerId(0), now, DT.mul(2));
    }
    assert_eq!(engine.down_count, 2);
    assert!(!engine.is_quiescent_through(now, now + DT.mul(60)));
    quiet_tick(&mut engine, &mut now);
    assert_eq!(engine.down_count, 2, "still inside the restart delay");
    quiet_tick(&mut engine, &mut now);
    assert_eq!(engine.down_count, 0);
    assert!(engine.is_quiescent_through(now, now + DT.mul(60)));
    assert_eq!(engine.active_jobs(), 1, "the clearing tick changed state");
    quiet_tick(&mut engine, &mut now);
    assert_eq!(engine.active_jobs(), 0, "nothing left to change: settled");
    // A new restart marker on a settled orphan is still honoured.
    engine.knock_down_task(TaskId::new(ORPHAN, 1), now + DT);
    assert_eq!((engine.down_count, engine.active_jobs()), (1, 1));
    quiet_tick(&mut engine, &mut now);
    assert_eq!(engine.down_count, 0);
}

#[test]
fn orphans_keep_their_place_and_a_woken_job_is_walked_in_the_tick_that_wakes_it() {
    // Registered jobs 2 (always busy, OOMs whenever it processes) and 5
    // (input outage until the fourth tick); orphan tasks whose job ids sit
    // before, between and after them, restarting for two ticks.
    let (busy, windowed) = (JobId(2), JobId(5));
    let orphans = [JobId(1), JobId(3), JobId(9)];
    let mut engine = Engine::new();
    let mut now = SimTime::ZERO;
    engine.add_job(
        busy,
        TrafficModel::flat(4.0e6),
        1.0e6,
        4096.0,
        4,
        false,
        0.0,
    );
    let mut tight = JobConfig::stateless("busy", 1, 4);
    tight.memory_enforcement = MemoryEnforcement::Cgroup;
    tight.task_resources = Resources::cpu_mem(8.0, 410.0);
    let outage = TrafficEvent {
        start: SimTime::ZERO,
        end: SimTime::ZERO + DT.mul(4),
        kind: TrafficEventKind::InputOutage,
    };
    engine.add_job(
        windowed,
        TrafficModel::flat(1.5e6).with_event(outage),
        1.0e6,
        256.0,
        PARTITIONS,
        false,
        0.0,
    );
    let roomy = JobConfig::stateless("roomy", 1, PARTITIONS);
    for (job, config, delay) in [
        (busy, &tight, Duration::ZERO),
        (windowed, &roomy, Duration::ZERO),
        (orphans[0], &roomy, DT.mul(2)),
        (orphans[1], &roomy, DT.mul(2)),
        (orphans[2], &roomy, DT.mul(2)),
    ] {
        for spec in TaskService::generate_specs(job, config) {
            engine.task_started(&spec, ContainerId(0), now, delay);
        }
    }
    let all: BTreeSet<JobId> = orphans.into_iter().chain([busy, windowed]).collect();
    assert_eq!(engine.drain_changes(EngineReader::LoadReport), all);
    assert_eq!((engine.active_jobs(), engine.down_count), (5, 5));

    let caps = HashMap::from([(ContainerId(0), 8.0)]);
    let mut tick = |engine: &mut Engine| {
        now += DT;
        engine.tick(now, DT, &caps, &|_| false).oom_kills
    };
    let busy_task = vec![TaskId::new(busy, 0)];
    let set = |jobs: &[JobId]| jobs.iter().copied().collect::<BTreeSet<_>>();

    // Tick 1: both registered tasks leave their (zero) restart delay; the
    // busy one processes and OOMs at once. The orphans are still down:
    // walked, unchanged, but not at rest.
    assert_eq!(tick(&mut engine), busy_task);
    assert_eq!(
        engine.drain_changes(EngineReader::LoadReport),
        set(&[busy, windowed])
    );
    assert_eq!((engine.active_jobs(), engine.down_count), (5, 3));

    // Tick 2: the orphans' markers expire, each at its place in the walk.
    // The windowed job came through untouched and settles. Nothing is
    // dirty: an expiring marker moves no usage reading, and the busy task
    // processes at the same capacity as on tick 1 — its backlog grows, but
    // the dirty set follows usage only.
    assert_eq!(tick(&mut engine), busy_task);
    assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
    assert_eq!((engine.active_jobs(), engine.down_count), (4, 0));

    // Tick 3: nothing left for the orphans to change; they settle too.
    assert_eq!(tick(&mut engine), busy_task);
    assert_eq!(engine.active_jobs(), 1);

    // Tick 4, no drain in between: the outage ends with no engine call, the
    // windowed job takes its arrivals and is walked in this very tick. Its
    // task starts using CPU, so it is dirty; the busy job's usage still
    // holds, so it is not.
    assert_eq!(tick(&mut engine), busy_task);
    assert_eq!(
        engine.drain_changes(EngineReader::LoadReport),
        set(&[windowed])
    );
    assert_eq!(engine.active_jobs(), 2);
    let woken = engine.job(windowed).expect("registered");
    assert_eq!(woken.total_arrived(), 1.5e7, "one tick of arrivals");
    // One thread at 1 MB/s for 10 s, processed on the tick that woke it.
    assert!((woken.backlog() - 0.5e7).abs() < 1.0, "{}", woken.backlog());
    let stats = engine.drained(windowed);
    assert_eq!(stats.per_task.len(), 1);
    assert!((stats.processed - 1.0e7).abs() < 1.0);
    // And the busy job's every tick was counted.
    assert_eq!(engine.drained(busy).ooms, 4);
}

/// A lazy engine and its walk-everything reference, one job of two tasks on
/// `C` with room to spare, ticked in lockstep.
struct Lockstep {
    lazy: Engine,
    full: Engine,
    now: SimTime,
    caps: HashMap<ContainerId, f64>,
    paused: bool,
}

const C: ContainerId = ContainerId(0);
const FLAT: JobId = JobId(1);

impl Lockstep {
    fn new(traffic: TrafficModel) -> Lockstep {
        let mut pair = Lockstep {
            lazy: Engine::new(),
            full: Engine::new(),
            now: SimTime::ZERO,
            caps: HashMap::from([(C, 8.0)]),
            paused: false,
        };
        let specs = TaskService::generate_specs(FLAT, &JobConfig::stateless("flat", 2, PARTITIONS));
        for engine in [&mut pair.lazy, &mut pair.full] {
            engine.add_job(FLAT, traffic.clone(), 1.0e6, 256.0, PARTITIONS, false, 0.0);
            for spec in &specs {
                engine.task_started(spec, C, SimTime::ZERO, Duration::ZERO);
            }
        }
        pair
    }

    fn both(&mut self, f: impl Fn(&mut Engine)) {
        f(&mut self.lazy);
        f(&mut self.full);
    }

    /// One tick of each: what the lazy engine visited. The two encode the
    /// same after it.
    fn tick(&mut self) -> TickWork {
        self.now += DT;
        let paused = self.paused;
        self.full.forget_derived();
        let lazy = self.lazy.tick(self.now, DT, &self.caps, &|_| paused);
        let full = self.full.tick(self.now, DT, &self.caps, &|_| paused);
        assert_eq!(lazy.oom_kills, full.oom_kills);
        assert!(
            encoded(&self.lazy) == encoded(&self.full),
            "diverged at {}",
            self.now
        );
        self.lazy.last_tick_work()
    }

    /// Tick until the job goes lazy, then once more: nothing visited.
    fn settle(&mut self) {
        for _ in 0..3 {
            self.tick();
        }
        assert_eq!(self.tick(), TickWork::default(), "lazy: not visited");
        assert_eq!(self.lazy.active_jobs(), 1, "lazy is not settled");
    }
}

const WALKED: TickWork = TickWork {
    runtimes: 1,
    tasks: 2,
};

#[test]
fn a_flat_job_that_keeps_up_is_skipped_and_every_reader_derives_its_bytes() {
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    let mut synced = [Scribe::new(), Scribe::new()].map(|mut scribe| {
        let category = scribe.create_category("flat", PARTITIONS).expect("fresh");
        (scribe, category, CheckpointStore::new())
    });
    for (engine, (_, category, _)) in [&mut pair.lazy, &mut pair.full].into_iter().zip(&synced) {
        engine.bind_category(FLAT, *category);
    }
    pair.settle();
    for _ in 0..20 {
        assert_eq!(pair.tick(), TickWork::default());
    }
    // 24 ticks of 15 MB, all of it consumed by the two tasks.
    let view = pair.lazy.job(FLAT).expect("job");
    assert_eq!((view.total_arrived(), view.backlog()), (24.0 * 1.5e7, 0.0));
    for (engine, (scribe, _, checkpoints)) in [&mut pair.lazy, &mut pair.full]
        .into_iter()
        .zip(&mut synced)
    {
        engine.sync_durable(scribe, checkpoints);
        assert_eq!(checkpoints.job_total_ingested(FLAT), 24 * 15_000_000);
    }
    assert!(encoded(&synced[0].2) == encoded(&synced[1].2));
    assert!(encoded(&synced[0].0) == encoded(&synced[1].0));
    let (lazy, full) = (pair.lazy.drained(FLAT), pair.full.drained(FLAT));
    assert_eq!(format!("{lazy:?}"), format!("{full:?}"));
    assert_eq!(lazy.processed, 24.0 * 1.5e7);
    // Neither read woke it.
    assert_eq!(pair.tick(), TickWork::default());
}

#[test]
fn a_mutation_walks_a_lazy_job_again() {
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    pair.settle();
    // A quarter of the throughput: the job falls behind.
    let task = TaskId::new(FLAT, 0);
    pair.both(|e| e.degrade_task(task, 0.25));
    assert_eq!(pair.tick(), WALKED);
    assert_eq!(pair.tick(), WALKED, "a backlog keeps it walked");
}

#[test]
fn a_halted_status_change_walks_a_lazy_job_again() {
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    pair.settle();
    pair.paused = true;
    pair.both(|e| e.wake(FLAT));
    assert_eq!(pair.tick(), WALKED);
    let cpu: Vec<f64> = pair.lazy.tasks().map(|(_, t)| t.cpu_usage).collect();
    assert_eq!(cpu, [0.0, 0.0], "halted");
    pair.paused = false;
    pair.both(|e| e.wake(FLAT));
    assert_eq!(pair.tick(), WALKED);
}

#[test]
fn a_halted_job_with_nothing_arriving_is_skipped_until_it_resumes() {
    // Idle input, paused: nothing moves, yet the job is not settled, so it
    // is lazy with nothing to add. Its readings stay pinned at the idle
    // floor until it resumes.
    let mut pair = Lockstep::new(TrafficModel::flat(0.0));
    pair.paused = true;
    pair.both(|e| e.wake(FLAT));
    pair.settle();
    pair.paused = false;
    pair.both(|e| e.wake(FLAT));
    assert_eq!(pair.tick(), WALKED);
    assert_eq!(pair.tick(), TickWork::default(), "settled");
    assert_eq!(pair.lazy.active_jobs(), 0);
}

#[test]
fn a_capacity_change_walks_a_lazy_job_again() {
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    pair.settle();
    // Half a core for two busy tasks: they contend.
    pair.caps.insert(C, 0.5);
    pair.both(Engine::containers_changed);
    assert_eq!(pair.tick(), WALKED);
    // A lost container.
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    pair.settle();
    pair.caps.clear();
    pair.both(Engine::containers_changed);
    assert_eq!(pair.tick(), WALKED);
}

#[test]
fn a_task_that_makes_its_container_contend_walks_a_lazy_job_again() {
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6));
    pair.settle();
    // Another job's seven threads on the same eight cores: the two lazy
    // tasks' two threads no longer fit beside them.
    let mut wide = JobConfig::stateless("wide", 1, PARTITIONS);
    wide.threads_per_task = 7;
    let spec = TaskService::generate_specs(JobId(2), &wide).remove(0);
    let now = pair.now;
    pair.both(|e| e.task_started(&spec, C, now, DT.mul(100)));
    assert_eq!(
        pair.tick().runtimes,
        1,
        "only the orphan's tasks and the lazy job's"
    );
    assert_eq!(pair.lazy.active_jobs(), 2);
}

#[test]
fn a_traffic_edge_or_another_tick_length_walks_a_lazy_job_again() {
    let storm = TrafficEvent {
        start: SimTime::ZERO + DT.mul(8) + Duration::from_secs(3),
        end: SimTime::ZERO + Duration::from_hours(1),
        kind: TrafficEventKind::Multiplier(1.2),
    };
    let mut pair = Lockstep::new(TrafficModel::flat(1.5e6).with_event(storm));
    pair.settle();
    while pair.now + DT < storm.start {
        assert_eq!(pair.tick(), TickWork::default());
    }
    assert_eq!(pair.tick(), WALKED, "the first tick inside the storm");
    pair.settle();
    // Another tick length: the per-tick amounts no longer hold.
    pair.now += Duration::from_secs(5);
    let dt = Duration::from_secs(5);
    pair.full.forget_derived();
    pair.lazy.tick(pair.now, dt, &pair.caps, &|_| false);
    pair.full.tick(pair.now, dt, &pair.caps, &|_| false);
    assert_eq!(pair.lazy.last_tick_work(), WALKED);
    assert!(encoded(&pair.lazy) == encoded(&pair.full));
}
