//! Deterministic cross-component fault injection — the chaos engine.
//!
//! A [`FaultInjector`] holds the set of currently active faults plus a
//! schedule of [`FaultPlan`] windows, and exposes named fault points that
//! the platform consults at component boundaries (Task Service fetches,
//! State Syncer rounds, heartbeat delivery, Scribe reads). Faults are pure
//! data here: the injector decides *when* a fault is active, the platform
//! decides *what* degraded behaviour that implies. Every activation and
//! clearance is appended to an event log, so a seeded chaos run produces a
//! bit-for-bit reproducible fault timeline.

use std::collections::BTreeMap;
use turbine_types::{ContainerId, SimTime};

/// A failure class the chaos engine can inject.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// The Task Service is unreachable: snapshot refreshes fail and Task
    /// Managers keep serving from their cached snapshot (paper §II's
    /// degraded mode — existing jobs are unaffected).
    TaskServiceDown,
    /// The Job Store is unavailable: no config reads or writes, so State
    /// Syncer rounds and scaler config updates are skipped until it
    /// returns.
    JobStoreDown,
    /// Heartbeats from one container to the Shard Manager are dropped
    /// (network partition). After the proactive connection timeout the
    /// container reboots itself; after the fail-over interval the Shard
    /// Manager reassigns its shards (§IV-C).
    HeartbeatLoss(ContainerId),
    /// The State Syncer process crashes. While the fault is active no sync
    /// rounds run; on clearance a fresh syncer restarts with empty
    /// in-memory state and resumes from the persisted expected-vs-running
    /// difference (§III-B's fault-tolerance property).
    SyncerCrash,
    /// Reads from one Scribe category stall: consumers receive nothing
    /// while producers keep appending — the dependency-failure class the
    /// auto root-causer must recognize (§V-D).
    ScribeStall(String),
}

impl Fault {
    /// Every fault kind, named as scenarios and fuzz repro files spell it.
    /// The fuzz generator draws an index into this list, so its order is
    /// part of every generated scenario.
    pub const KINDS: [&'static str; 5] = [
        "task_service_down",
        "job_store_down",
        "syncer_crash",
        "heartbeat_loss",
        "scribe_stall",
    ];

    /// Stable human-readable label (used in the event log and digests).
    pub fn label(&self) -> String {
        match self {
            Fault::TaskServiceDown => "task_service_down".to_string(),
            Fault::JobStoreDown => "job_store_down".to_string(),
            Fault::HeartbeatLoss(c) => format!("heartbeat_loss({})", c.raw()),
            Fault::SyncerCrash => "syncer_crash".to_string(),
            Fault::ScribeStall(cat) => format!("scribe_stall({cat})"),
        }
    }
}

/// One scheduled fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The fault to activate.
    pub fault: Fault,
    /// Activation time.
    pub from: SimTime,
    /// Expiry time; `None` keeps the fault active until an explicit
    /// [`FaultInjector::clear`].
    pub until: Option<SimTime>,
}

/// A state change the injector reports so the platform can apply side
/// effects (sever a connection, restart the syncer, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTransition {
    /// The fault just became active.
    Activated(Fault),
    /// The fault just cleared.
    Cleared(Fault),
}

/// The chaos engine: schedulable, seed-friendly fault windows with a
/// deterministic event log.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Pending windows, kept sorted by activation time (ties broken by
    /// label so scheduling order never affects the outcome).
    scheduled: Vec<FaultPlan>,
    /// Active faults with their optional expiry.
    active: BTreeMap<Fault, Option<SimTime>>,
    /// Every activation/clearance, in order.
    log: Vec<(SimTime, String)>,
    /// Time of the most recent transition (either direction).
    last_transition: Option<SimTime>,
}

impl FaultInjector {
    /// An injector with nothing scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a fault window for later activation by [`advance`].
    ///
    /// [`advance`]: FaultInjector::advance
    pub fn schedule(&mut self, plan: FaultPlan) {
        self.scheduled.push(plan);
        self.scheduled.sort_by_key(|p| (p.from, p.fault.label()));
    }

    /// Activate a fault immediately. Returns the transitions (empty if the
    /// fault was already active — the expiry is still updated).
    pub fn inject(
        &mut self,
        now: SimTime,
        fault: Fault,
        until: Option<SimTime>,
    ) -> Vec<FaultTransition> {
        let fresh = !self.active.contains_key(&fault);
        self.active.insert(fault.clone(), until);
        if fresh {
            self.record(now, "inject", &fault);
            vec![FaultTransition::Activated(fault)]
        } else {
            Vec::new()
        }
    }

    /// Clear a fault immediately. Returns the transitions (empty if it was
    /// not active).
    pub fn clear(&mut self, now: SimTime, fault: &Fault) -> Vec<FaultTransition> {
        if self.active.remove(fault).is_some() {
            self.record(now, "clear", fault);
            vec![FaultTransition::Cleared(fault.clone())]
        } else {
            Vec::new()
        }
    }

    /// Advance to `now`: expire elapsed windows, activate due ones. The
    /// returned transitions are in a deterministic order (expirations
    /// first, then activations, each sorted by fault label).
    pub fn advance(&mut self, now: SimTime) -> Vec<FaultTransition> {
        let mut transitions = Vec::new();
        // Expirations first so a window scheduled back-to-back with
        // another's end re-activates cleanly.
        let expired: Vec<Fault> = self
            .active
            .iter()
            .filter(|(_, until)| until.is_some_and(|t| now >= t))
            .map(|(f, _)| f.clone())
            .collect();
        for fault in expired {
            transitions.extend(self.clear(now, &fault));
        }
        while let Some(plan) = self.scheduled.first() {
            if plan.from > now {
                break;
            }
            let plan = self.scheduled.remove(0);
            // A window that fully elapsed before anyone advanced past it
            // still logs both edges, so the event log never silently drops
            // a scheduled fault.
            if plan.until.is_some_and(|t| now >= t) {
                transitions.extend(self.inject(now, plan.fault.clone(), plan.until));
                transitions.extend(self.clear(now, &plan.fault));
            } else {
                transitions.extend(self.inject(now, plan.fault, plan.until));
            }
        }
        transitions
    }

    /// Named fault point: is this fault active right now?
    pub fn is_active(&self, fault: &Fault) -> bool {
        self.active.contains_key(fault)
    }

    /// True if any fault is active.
    pub fn any_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Iterate the active faults.
    pub fn active(&self) -> impl Iterator<Item = &Fault> {
        self.active.keys()
    }

    /// Number of scheduled windows not yet activated.
    pub fn pending(&self) -> usize {
        self.scheduled.len()
    }

    /// Time of the most recent activation or clearance, if any.
    pub fn last_transition(&self) -> Option<SimTime> {
        self.last_transition
    }

    /// The full fault event log: (time, `inject <label>` / `clear <label>`).
    pub fn log(&self) -> &[(SimTime, String)] {
        &self.log
    }

    /// FNV-1a digest of the event log — two runs produced the identical
    /// fault timeline iff their digests match.
    pub fn log_digest(&self) -> u64 {
        let mut digest = turbine_types::Fnv1a::new();
        for (at, entry) in &self.log {
            digest.write(&at.as_secs_f64().to_bits().to_le_bytes());
            digest.write(entry.as_bytes());
            digest.write(b"\n");
        }
        digest.finish()
    }

    fn record(&mut self, now: SimTime, verb: &str, fault: &Fault) {
        self.last_transition = Some(now);
        self.log.push((now, format!("{verb} {}", fault.label())));
    }
}

turbine_types::snap_enum!(Fault {
    0 => TaskServiceDown,
    1 => JobStoreDown,
    2 => HeartbeatLoss(container),
    3 => SyncerCrash,
    4 => ScribeStall(category),
});

turbine_types::snap_struct!(FaultPlan { fault, from, until });

turbine_types::snap_struct!(FaultInjector {
    scheduled,
    active,
    log,
    last_transition
});

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn inject_and_clear_toggle_activity() {
        let mut inj = FaultInjector::new();
        assert!(!inj.any_active());
        let tr = inj.inject(t(10), Fault::TaskServiceDown, None);
        assert_eq!(tr, vec![FaultTransition::Activated(Fault::TaskServiceDown)]);
        assert!(inj.is_active(&Fault::TaskServiceDown));
        // Double-inject is a no-op transition-wise.
        assert!(inj.inject(t(11), Fault::TaskServiceDown, None).is_empty());
        let tr = inj.clear(t(20), &Fault::TaskServiceDown);
        assert_eq!(tr, vec![FaultTransition::Cleared(Fault::TaskServiceDown)]);
        assert!(!inj.any_active());
        assert!(inj.clear(t(21), &Fault::TaskServiceDown).is_empty());
        assert_eq!(inj.log().len(), 2);
    }

    #[test]
    fn scheduled_windows_activate_and_expire() {
        let mut inj = FaultInjector::new();
        inj.schedule(FaultPlan {
            fault: Fault::SyncerCrash,
            from: t(100),
            until: Some(t(160)),
        });
        assert!(inj.advance(t(50)).is_empty());
        let tr = inj.advance(t(100));
        assert_eq!(tr, vec![FaultTransition::Activated(Fault::SyncerCrash)]);
        assert!(inj.advance(t(150)).is_empty());
        let tr = inj.advance(t(160));
        assert_eq!(tr, vec![FaultTransition::Cleared(Fault::SyncerCrash)]);
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.last_transition(), Some(t(160)));
    }

    #[test]
    fn overlapping_schedules_resolve_deterministically() {
        let faults = [
            Fault::JobStoreDown,
            Fault::HeartbeatLoss(ContainerId(3)),
            Fault::ScribeStall("clicks".into()),
        ];
        // Schedule in two different orders: identical logs.
        let mut logs = Vec::new();
        for order in [[0usize, 1, 2], [2, 0, 1]] {
            let mut inj = FaultInjector::new();
            for &i in &order {
                inj.schedule(FaultPlan {
                    fault: faults[i].clone(),
                    from: t(30),
                    until: Some(t(90)),
                });
            }
            inj.advance(t(30));
            inj.advance(t(90));
            logs.push(inj.log_digest());
        }
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn skipped_over_window_still_logs_both_edges() {
        let mut inj = FaultInjector::new();
        inj.schedule(FaultPlan {
            fault: Fault::TaskServiceDown,
            from: t(10),
            until: Some(t(20)),
        });
        // Coarse advance right past the whole window.
        let tr = inj.advance(t(100));
        assert_eq!(
            tr,
            vec![
                FaultTransition::Activated(Fault::TaskServiceDown),
                FaultTransition::Cleared(Fault::TaskServiceDown),
            ]
        );
        assert!(!inj.any_active());
        assert_eq!(inj.log().len(), 2);
    }

    #[test]
    fn digest_distinguishes_different_timelines() {
        let mut a = FaultInjector::new();
        a.inject(t(10), Fault::TaskServiceDown, None);
        let mut b = FaultInjector::new();
        b.inject(t(11), Fault::TaskServiceDown, None);
        assert_ne!(a.log_digest(), b.log_digest());
    }
}
