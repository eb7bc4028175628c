//! The two-level scheduling protocol across Shard Manager + Task Managers
//! (paper §IV): no duplicate task execution, no task loss, degraded-mode
//! operation, and the DROP-before-ADD movement ordering.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use turbine_config::JobConfig;
use turbine_shardmgr::{ShardManager, ShardManagerConfig, ShardMovement};
use turbine_taskmgr::{snapshot::TaskSnapshot, LocalTaskManager, TaskEvent, TaskService};
use turbine_types::{ContainerId, Duration, JobId, Resources, ShardId, SimTime, TaskId};

const SHARDS: u64 = 64;

fn t(s: u64) -> SimTime {
    SimTime::ZERO + Duration::from_secs(s)
}

/// A little harness: a shard manager plus N local task managers, with the
/// movement protocol applied the way the platform does (drop first).
struct Tier {
    sm: ShardManager,
    tms: HashMap<ContainerId, LocalTaskManager>,
}

impl Tier {
    fn new(containers: u64) -> Tier {
        let mut sm = ShardManager::new(ShardManagerConfig::default());
        sm.ensure_shards(SHARDS);
        let mut tms = HashMap::new();
        for i in 0..containers {
            let id = ContainerId(i);
            sm.register_container(id, Resources::cpu_mem(32.0, 64_000.0), t(0));
            tms.insert(id, LocalTaskManager::new(id, SHARDS));
        }
        Tier { sm, tms }
    }

    fn apply(&mut self, moves: &[ShardMovement]) {
        for m in moves {
            if let Some(from) = m.from {
                if let Some(tm) = self.tms.get_mut(&from) {
                    tm.drop_shard(m.shard);
                }
            }
            if let Some(tm) = self.tms.get_mut(&m.to) {
                tm.add_shard(m.shard);
            }
        }
    }

    fn refresh_all(&mut self, snapshot: &Arc<TaskSnapshot>) {
        for tm in self.tms.values_mut() {
            tm.refresh(snapshot.clone());
        }
    }

    /// Every task currently running anywhere, with its owner(s).
    fn running_owners(&self) -> HashMap<TaskId, Vec<ContainerId>> {
        let mut owners: HashMap<TaskId, Vec<ContainerId>> = HashMap::new();
        for (&c, tm) in &self.tms {
            for (id, _) in tm.running_tasks() {
                owners.entry(*id).or_default().push(c);
            }
        }
        owners
    }
}

fn snapshot_of(jobs: &[(u64, u32)]) -> Arc<TaskSnapshot> {
    let mut specs = Vec::new();
    for &(job, tasks) in jobs {
        specs.extend(TaskService::generate_specs(
            JobId(job),
            &JobConfig::stateless(&format!("job{job}"), tasks, 64),
        ));
    }
    let mut cache = HashMap::new();
    Arc::new(TaskSnapshot::build(specs, SHARDS, &mut cache))
}

#[test]
fn every_task_runs_exactly_once_after_initial_placement() {
    let mut tier = Tier::new(4);
    let snapshot = snapshot_of(&[(1, 16), (2, 8), (3, 32)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);

    let owners = tier.running_owners();
    assert_eq!(owners.len(), 56, "no task loss");
    for (task, who) in owners {
        assert_eq!(who.len(), 1, "{task} runs {} times", who.len());
    }
}

#[test]
fn rebalance_never_duplicates_or_loses_tasks() {
    let mut tier = Tier::new(6);
    let snapshot = snapshot_of(&[(1, 32), (2, 32)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);

    // Shift the load hard and rebalance repeatedly.
    for round in 0..5 {
        for s in 0..SHARDS {
            let load = if s % 2 == round % 2 { 8.0 } else { 0.5 };
            tier.sm
                .report_load(ShardId(s), Resources::cpu_mem(load, load * 512.0));
        }
        let result = tier.sm.rebalance();
        tier.apply(&result.moves);
        let owners = tier.running_owners();
        assert_eq!(owners.len(), 64, "round {round}: no loss");
        assert!(
            owners.values().all(|w| w.len() == 1),
            "round {round}: no duplication"
        );
    }
}

#[test]
fn failover_moves_every_shard_of_the_dead_container() {
    let mut tier = Tier::new(3);
    let snapshot = snapshot_of(&[(1, 64)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);

    let dead = ContainerId(0);
    let dead_tasks: HashSet<TaskId> = tier.tms[&dead].running_tasks().map(|(id, _)| *id).collect();
    assert!(!dead_tasks.is_empty());

    // Survivors heartbeat; the dead one goes silent. The platform also
    // stops delivering its task events (host is gone): simulate by
    // removing its TM.
    tier.tms.remove(&dead);
    for sec in (10..=70).step_by(10) {
        tier.sm.beat(t(sec), [dead]);
    }
    let (_, moves) = tier.sm.check_failover(t(70));
    assert!(!moves.is_empty());
    assert!(
        moves.iter().all(|m| m.from.is_none()),
        "nothing to drop on a dead box"
    );
    tier.apply(&moves);

    let owners = tier.running_owners();
    assert_eq!(owners.len(), 64, "all tasks back");
    for task in dead_tasks {
        assert_eq!(owners[&task].len(), 1, "{task} failed over exactly once");
    }
}

#[test]
fn degraded_mode_shard_moves_work_from_cached_snapshots() {
    // The Task Service (and the whole Job Management layer) goes down
    // after the initial snapshot; shard movement must still relocate
    // running tasks using only the managers' cached snapshots.
    let mut tier = Tier::new(2);
    let snapshot = snapshot_of(&[(1, 32)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);
    // (No further refresh calls — the service is "down".)

    let from = ContainerId(0);
    let to = ContainerId(1);
    let victim_shard = tier.tms[&from].owned_shards().next().expect("owns shards");
    let moved_tasks: Vec<TaskId> = tier.tms[&from]
        .running_tasks()
        .filter(|(id, _)| turbine_taskmgr::shard_of_task(**id, SHARDS) == victim_shard)
        .map(|(id, _)| *id)
        .collect();
    tier.apply(&[ShardMovement {
        shard: victim_shard,
        from: Some(from),
        to,
    }]);
    let owners = tier.running_owners();
    for task in moved_tasks {
        assert_eq!(owners[&task], vec![to], "{task} moved via cached snapshot");
    }
    assert_eq!(owners.len(), 32, "no loss in degraded mode");
}

#[test]
fn drop_before_add_means_no_overlap_even_transiently() {
    // Execute a movement step by step and check the invariant between
    // steps: after DROP and before ADD the task runs zero times (downtime),
    // never twice.
    let mut tier = Tier::new(2);
    let snapshot = snapshot_of(&[(1, 16)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);

    let from = ContainerId(0);
    let to = ContainerId(1);
    let shard = tier.tms[&from].owned_shards().next().expect("owns");
    let tasks: Vec<TaskId> = tier.tms[&from]
        .running_tasks()
        .filter(|(id, _)| turbine_taskmgr::shard_of_task(**id, SHARDS) == shard)
        .map(|(id, _)| *id)
        .collect();

    // Step 1: DROP on the source.
    let events = tier.tms.get_mut(&from).expect("tm").drop_shard(shard);
    assert!(events.iter().all(|e| matches!(e, TaskEvent::Stopped(_))));
    let owners = tier.running_owners();
    for task in &tasks {
        assert!(!owners.contains_key(task), "{task} must be fully stopped");
    }
    // Step 2: ADD on the destination.
    tier.tms.get_mut(&to).expect("tm").add_shard(shard);
    let owners = tier.running_owners();
    for task in &tasks {
        assert_eq!(owners[task], vec![to]);
    }
}

#[test]
fn load_reports_converge_utilization_band() {
    let mut tier = Tier::new(8);
    let snapshot = snapshot_of(&[(1, 64), (2, 64)]);
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    tier.refresh_all(&snapshot);

    // Heavy-tailed shard loads.
    for s in 0..SHARDS {
        let load = if s % 13 == 0 { 6.0 } else { 0.3 };
        tier.sm
            .report_load(ShardId(s), Resources::cpu_mem(load, load * 800.0));
    }
    let result = tier.sm.rebalance();
    tier.apply(&result.moves);
    let spread = result.stats.max_util - result.stats.min_util;
    assert!(
        spread <= 0.25,
        "utilization spread {spread} too wide: {:?}",
        result.stats
    );
    // And still: exactly-once execution.
    let owners = tier.running_owners();
    assert_eq!(owners.len(), 128);
    assert!(owners.values().all(|w| w.len() == 1));
}
