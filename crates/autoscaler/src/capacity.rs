//! The Capacity Manager (paper §V-F).
//!
//! Watches cluster-wide resource usage, temporarily transfers capacity
//! between clusters during datacenter-wide events, instructs the Auto
//! Scaler to prioritize privileged jobs when a cluster runs hot, and — as
//! a last resort — stops low-priority jobs to unblock high-priority ones.

use std::collections::BTreeMap;
use turbine_types::{JobId, Priority, Resources};

/// Remaining-capacity fraction below which the Auto Scaler is told to
/// prioritize scale-ups of privileged/high jobs.
const PRESSURE_THRESHOLD: f64 = 0.15;

/// Remaining-capacity fraction below which low-priority jobs are stopped to
/// free capacity.
const CRITICAL_THRESHOLD: f64 = 0.05;

/// Priority floor imposed under pressure.
const PRESSURE_FLOOR: Priority = Priority::High;

/// What the Capacity Manager tells the rest of the system after one
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityDirective {
    /// Capacity not yet reserved.
    pub remaining: Resources,
    /// The tightest remaining fraction across dimensions (0 = full).
    pub remaining_fraction: f64,
    /// When set, the Auto Scaler must only scale *up* jobs at or above
    /// this priority.
    pub priority_floor: Option<Priority>,
    /// Jobs to stop (lowest priority first) to relieve critical pressure.
    pub jobs_to_stop: Vec<JobId>,
}

/// The Capacity Manager: tracks registered clusters and produces
/// directives.
#[derive(Debug, Default)]
pub struct CapacityManager {
    clusters: BTreeMap<String, Resources>,
}

impl CapacityManager {
    /// Register (or resize) a cluster's total capacity.
    pub fn register_cluster(&mut self, name: &str, total: Resources) {
        self.clusters.insert(name.to_string(), total);
    }

    /// Total capacity of a registered cluster.
    pub fn cluster_capacity(&self, name: &str) -> Option<Resources> {
        self.clusters.get(name).copied()
    }

    /// Temporarily transfer `amount` of capacity from one cluster to
    /// another (disaster drills, datacenter outages). Fails if the source
    /// lacks the amount.
    pub fn transfer(&mut self, from: &str, to: &str, amount: Resources) -> Result<(), String> {
        let src = *self
            .clusters
            .get(from)
            .ok_or_else(|| format!("unknown cluster '{from}'"))?;
        if !amount.fits_within(&src) {
            return Err(format!(
                "cluster '{from}' cannot give up {amount} (has {src})"
            ));
        }
        if !self.clusters.contains_key(to) {
            return Err(format!("unknown cluster '{to}'"));
        }
        *self.clusters.get_mut(from).expect("checked") = src - amount;
        *self.clusters.get_mut(to).expect("checked") += amount;
        Ok(())
    }

    /// Evaluate one cluster: given total reservations and the running jobs
    /// (with priorities and per-job reservations), produce the directive.
    pub fn evaluate(
        &self,
        cluster: &str,
        reserved: Resources,
        jobs: &[(JobId, Priority, Resources)],
    ) -> CapacityDirective {
        let total = self
            .clusters
            .get(cluster)
            .copied()
            .unwrap_or(Resources::ZERO);
        let remaining = total - reserved;
        let remaining_fraction = if total.is_zero() {
            0.0 // an unknown/empty cluster has nothing to give
        } else {
            (1.0 - reserved.dominant_utilization(&total)).max(0.0)
        };

        let mut directive = CapacityDirective {
            remaining,
            remaining_fraction,
            priority_floor: None,
            jobs_to_stop: Vec::new(),
        };
        if remaining_fraction < PRESSURE_THRESHOLD {
            directive.priority_floor = Some(PRESSURE_FLOOR);
        }
        if remaining_fraction < CRITICAL_THRESHOLD {
            // Stop lowest-priority jobs (largest first within a priority,
            // to free the most capacity with the fewest stops) until the
            // projection clears the pressure threshold.
            let mut candidates: Vec<&(JobId, Priority, Resources)> = jobs
                .iter()
                .filter(|(_, p, _)| *p < PRESSURE_FLOOR)
                .collect();
            candidates.sort_by(|a, b| {
                a.1.cmp(&b.1)
                    .then(
                        b.2.dominant_utilization(&total)
                            .partial_cmp(&a.2.dominant_utilization(&total))
                            .expect("no NaN reservations"),
                    )
                    .then(a.0.cmp(&b.0))
            });
            let mut projected = reserved;
            for (job, _, r) in candidates {
                if (1.0 - projected.dominant_utilization(&total)) >= PRESSURE_THRESHOLD {
                    break;
                }
                projected -= *r;
                directive.jobs_to_stop.push(*job);
            }
        }
        directive
    }
}

turbine_types::snap_struct!(CapacityManager { clusters });

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> CapacityManager {
        let mut m = CapacityManager::default();
        m.register_cluster("west", Resources::cpu_mem(1000.0, 1.0e6));
        m.register_cluster("east", Resources::cpu_mem(1000.0, 1.0e6));
        m
    }

    #[test]
    fn relaxed_cluster_needs_no_directive() {
        let m = manager();
        let d = m.evaluate("west", Resources::cpu_mem(500.0, 5.0e5), &[]);
        assert!(d.priority_floor.is_none());
        assert!(d.jobs_to_stop.is_empty());
        assert!((d.remaining_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pressure_sets_the_priority_floor() {
        let m = manager();
        let d = m.evaluate("west", Resources::cpu_mem(900.0, 5.0e5), &[]);
        assert_eq!(d.priority_floor, Some(Priority::High));
        assert!(d.jobs_to_stop.is_empty(), "not critical yet");
    }

    #[test]
    fn critical_pressure_stops_low_priority_jobs_first() {
        let m = manager();
        let jobs = vec![
            (
                JobId(1),
                Priority::Privileged,
                Resources::cpu_mem(400.0, 1.0e5),
            ),
            (JobId(2), Priority::Low, Resources::cpu_mem(100.0, 1.0e5)),
            (JobId(3), Priority::Normal, Resources::cpu_mem(300.0, 1.0e5)),
            (JobId(4), Priority::Low, Resources::cpu_mem(160.0, 1.0e5)),
        ];
        let d = m.evaluate("west", Resources::cpu_mem(960.0, 4.0e5), &jobs);
        assert_eq!(d.priority_floor, Some(Priority::High));
        // Low priority first, larger first: job 4 (160) then job 2 (100):
        // 960-160 = 800 => 20% free >= 15%: job 2 not needed.
        assert_eq!(d.jobs_to_stop, vec![JobId(4)]);
        // Privileged/high jobs are never stopped.
        assert!(!d.jobs_to_stop.contains(&JobId(1)));
    }

    #[test]
    fn critical_pressure_escalates_to_normal_jobs_if_needed() {
        let m = manager();
        let jobs = vec![
            (
                JobId(1),
                Priority::Privileged,
                Resources::cpu_mem(800.0, 1.0e5),
            ),
            (JobId(2), Priority::Low, Resources::cpu_mem(50.0, 1.0e5)),
            (JobId(3), Priority::Normal, Resources::cpu_mem(130.0, 1.0e5)),
        ];
        let d = m.evaluate("west", Resources::cpu_mem(980.0, 4.0e5), &jobs);
        // Stopping job 2 leaves 930 reserved (7% free): must also stop 3.
        assert_eq!(d.jobs_to_stop, vec![JobId(2), JobId(3)]);
    }

    #[test]
    fn transfer_moves_capacity_between_clusters() {
        let mut m = manager();
        m.transfer("west", "east", Resources::cpu_mem(200.0, 2.0e5))
            .expect("transfer");
        assert_eq!(m.cluster_capacity("west").expect("west").cpu, 800.0);
        assert_eq!(m.cluster_capacity("east").expect("east").cpu, 1200.0);
        // Over-transfer is rejected.
        assert!(m
            .transfer("west", "east", Resources::cpu_mem(900.0, 0.0))
            .is_err());
        assert!(m.transfer("nowhere", "east", Resources::ZERO).is_err());
        assert!(m.transfer("west", "nowhere", Resources::ZERO).is_err());
    }

    #[test]
    fn unknown_cluster_evaluates_as_empty() {
        let m = manager();
        let d = m.evaluate("mars", Resources::cpu_mem(1.0, 1.0), &[]);
        assert_eq!(d.remaining_fraction, 0.0);
    }
}
