//! The engine's lazy spans inside a platform: each way the platform changes
//! what the data-plane tick reads about a job, without an engine mutation,
//! must wake that job. Two platforms are driven alike, the second's engine
//! walking every job at every tick; tick by tick the two engines encode the
//! same, and the first skipped a job before the change.

use super::*;
use turbine_config::ConfigValue;
use turbine_sim::{Fault, FaultPlan};
use turbine_types::{Priority, Snap};
use turbine_workloads::{TrafficEvent, TrafficEventKind};

fn host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

fn encoded(engine: &Engine) -> Vec<u8> {
    let mut w = SnapWriter::new();
    engine.snap(&mut w);
    w.into_bytes()
}

/// The platform under test and its walk-everything twin.
struct Twins {
    lazy: Turbine,
    full: Turbine,
}

impl Twins {
    fn new(hosts: usize, setup: impl Fn(&mut Turbine)) -> Twins {
        let build = |walk_every_job| {
            let mut t = Turbine::new(TurbineConfig {
                scaler_enabled: false,
                ..TurbineConfig::default()
            });
            t.add_hosts(hosts, host());
            setup(&mut t);
            t.engine.walk_every_job = walk_every_job;
            t
        };
        Twins {
            lazy: build(false),
            full: build(true),
        }
    }

    fn both(&mut self, f: impl Fn(&mut Turbine)) {
        f(&mut self.lazy);
        f(&mut self.full);
    }

    /// Drive both one tick at a time for `span`, holding the engines
    /// equal. Returns after how many of those ticks `job` was left settled
    /// or lazy.
    fn run(&mut self, span: Duration, job: JobId) -> usize {
        let tick = self.lazy.config.tick;
        let mut skipped = 0;
        for _ in 0..span.as_millis() / tick.as_millis() {
            self.both(|t| t.run_for(tick));
            assert!(
                encoded(&self.lazy.engine) == encoded(&self.full.engine),
                "engines diverged at {}",
                self.lazy.now
            );
            if !self.lazy.engine.walks(job) {
                skipped += 1;
            }
        }
        assert_eq!(self.lazy.fingerprint(), self.full.fingerprint());
        skipped
    }
}

/// A flat job of two tasks that keep up with it.
fn flat(t: &mut Turbine, job: JobId, priority: Priority) {
    let mut config = JobConfig::stateless(&format!("flat_{}", job.raw()), 2, 16);
    config.priority = priority;
    t.provision_job(job, config, TrafficModel::flat(1.5e6), 1.0e6, 256.0)
        .expect("provision");
}

const JOB: JobId = JobId(1);

#[test]
fn a_pause_for_a_parallelism_change_walks_a_lazy_job_again() {
    let mut twins = Twins::new(2, |t| flat(t, JOB, Priority::Normal));
    assert!(twins.run(Duration::from_mins(10), JOB) > 0, "went lazy");
    // A new task count is a complex sync: the syncer pauses the job, and
    // its tasks are halted until their Task Managers stop them.
    twins.both(|t| {
        t.oncall_set(JOB, "task_count", ConfigValue::Int(3))
            .expect("store up")
    });
    twins.run(Duration::from_mins(10), JOB);
    assert_eq!(twins.lazy.engine.running_tasks_of(JOB), 3);
}

#[test]
fn a_capacity_stop_walks_a_lazy_job_again() {
    let big = JobId(2);
    let mut twins = Twins::new(1, |t| {
        flat(t, JOB, Priority::Low);
        let mut config = JobConfig::stateless("big", 5, 16);
        config.task_resources = Resources::cpu_mem(10.0, 800.0);
        t.provision_job(big, config, TrafficModel::flat(0.0), 1.0e6, 256.0)
            .expect("provision");
    });
    assert!(twins.run(Duration::from_mins(10), JOB) > 0, "went lazy");
    // A sixth ten-core task leaves no room on the host: the low-priority
    // job is stopped.
    twins.both(|t| {
        t.oncall_set(big, "task_count", ConfigValue::Int(6))
            .expect("store up")
    });
    twins.run(Duration::from_mins(15), JOB);
    assert!(twins.lazy.halts[&JOB].stopped, "stopped");
}

#[test]
fn a_stalled_input_walks_a_lazy_job_again() {
    let mut twins = Twins::new(2, |t| flat(t, JOB, Priority::Normal));
    assert!(twins.run(Duration::from_mins(10), JOB) > 0, "went lazy");
    twins.both(|t| {
        let category = t.job_category(JOB).expect("provisioned").to_string();
        t.inject_fault(Fault::ScribeStall(category), Some(Duration::from_mins(5)));
    });
    twins.run(Duration::from_mins(1), JOB);
    let cpu: Vec<f64> = twins
        .lazy
        .engine
        .tasks()
        .map(|(_, t)| t.cpu_usage)
        .collect();
    assert_eq!(cpu, [0.0, 0.0], "halted by the stall");
    twins.run(Duration::from_mins(10), JOB);
}

#[test]
fn a_stall_that_predates_the_job_halts_it_from_the_start() {
    // The category is stalled before the job that owns it exists: the
    // job is halted from its provision, not from the stall's edge.
    let mut twins = Twins::new(2, |t| {
        t.inject_fault(
            Fault::ScribeStall("flat_1_input".to_string()),
            Some(Duration::from_mins(15)),
        );
        flat(t, JOB, Priority::Normal);
    });
    twins.run(Duration::from_mins(5), JOB);
    let backlog = twins.lazy.job_status(JOB).expect("status").backlog_bytes;
    twins.run(Duration::from_mins(5), JOB);
    let cpu: Vec<f64> = twins
        .lazy
        .engine
        .tasks()
        .map(|(_, t)| t.cpu_usage)
        .collect();
    assert_eq!(cpu, [0.0, 0.0], "halted by the stall");
    let status = twins.lazy.job_status(JOB).expect("status");
    assert!(status.backlog_bytes > backlog, "{status:?}");
    // The stall ends at minute 15: the job processes again.
    twins.run(Duration::from_mins(10), JOB);
    assert!(twins.lazy.engine.tasks().all(|(_, t)| t.cpu_usage > 0.0));
}

#[test]
fn the_end_of_a_stall_walks_a_lazy_job_again() {
    // The input stops at minute 10, at the instant the stall begins: the
    // job is halted with nothing arriving, so it is lazy with its memory
    // held where it processed. The stall's end must let the memory fall.
    let outage = TrafficEvent {
        start: SimTime::ZERO + Duration::from_mins(10),
        end: SimTime::ZERO + Duration::from_hours(2),
        kind: TrafficEventKind::InputOutage,
    };
    let mut twins = Twins::new(2, |t| {
        let config = JobConfig::stateless("stalled", 2, 16);
        let traffic = TrafficModel::flat(1.5e6).with_event(outage);
        t.provision_job(JOB, config, traffic, 1.0e6, 256.0)
            .expect("provision");
        let category = t.job_category(JOB).expect("provisioned").to_string();
        t.schedule_fault(FaultPlan {
            fault: Fault::ScribeStall(category),
            from: outage.start,
            until: Some(outage.start + Duration::from_mins(5)),
        });
    });
    assert!(twins.run(Duration::from_mins(9), JOB) > 0, "went lazy");
    assert!(
        twins.run(Duration::from_mins(4), JOB) > 0,
        "lazy while stalled"
    );
    twins.run(Duration::from_mins(5), JOB);
    let memory: Vec<f64> = twins
        .lazy
        .engine
        .tasks()
        .map(|(_, t)| t.memory_usage_mb)
        .collect();
    assert_eq!(memory, [400.0, 400.0], "idle once the stall ends");
}

#[test]
fn a_failed_host_walks_a_lazy_job_again() {
    let mut twins = Twins::new(3, |t| flat(t, JOB, Priority::Normal));
    assert!(twins.run(Duration::from_mins(10), JOB) > 0, "went lazy");
    let (_, task) = twins.lazy.engine.tasks_of_job(JOB).next().expect("a task");
    let host = twins.lazy.cluster.host_of(task.container).expect("a host");
    twins.both(|t| t.fail_host(host).expect("fail"));
    twins.run(Duration::from_mins(5), JOB);
}
