//! The Capacity Manager (paper §V-F).
//!
//! Watches the cluster's resource usage, instructs the Auto Scaler to
//! prioritize privileged jobs when the cluster runs hot, and — as a last
//! resort — stops low-priority jobs to unblock high-priority ones. The
//! platform runs one cluster, so the manager is one pure function of the
//! cluster's total healthy capacity and its reservations. The paper's
//! temporary capacity transfers between clusters during datacenter-wide
//! events are parked along with regions.

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

/// One Capacity Manager evaluation of the cluster: given its total healthy
/// capacity, the total reservations and the running jobs (with priorities
/// and per-job reservations), produce the directive.
pub fn evaluate(
    total: Resources,
    reserved: Resources,
    jobs: &[(JobId, Priority, Resources)],
) -> CapacityDirective {
    let remaining = total - reserved;
    let remaining_fraction = if total.is_zero() {
        0.0 // an empty cluster has nothing to give
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster every test evaluates.
    const TOTAL: Resources = Resources::cpu_mem(1000.0, 1.0e6);

    #[test]
    fn relaxed_cluster_needs_no_directive() {
        let d = evaluate(TOTAL, Resources::cpu_mem(500.0, 5.0e5), &[]);
        assert!(d.priority_floor.is_none());
        assert!(d.jobs_to_stop.is_empty());
        assert!((d.remaining_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pressure_sets_the_priority_floor() {
        let d = evaluate(TOTAL, Resources::cpu_mem(900.0, 5.0e5), &[]);
        assert_eq!(d.priority_floor, Some(Priority::High));
        assert!(d.jobs_to_stop.is_empty(), "not critical yet");
    }

    #[test]
    fn critical_pressure_stops_low_priority_jobs_first() {
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
        let d = evaluate(TOTAL, Resources::cpu_mem(960.0, 4.0e5), &jobs);
        assert_eq!(d.priority_floor, Some(Priority::High));
        // Low priority first, larger first: job 4 (160) then job 2 (100):
        // 960-160 = 800 => 20% free >= 15%: job 2 not needed.
        assert_eq!(d.jobs_to_stop, vec![JobId(4)]);
        // Privileged/high jobs are never stopped.
        assert!(!d.jobs_to_stop.contains(&JobId(1)));
    }

    #[test]
    fn critical_pressure_escalates_to_normal_jobs_if_needed() {
        let jobs = vec![
            (
                JobId(1),
                Priority::Privileged,
                Resources::cpu_mem(800.0, 1.0e5),
            ),
            (JobId(2), Priority::Low, Resources::cpu_mem(50.0, 1.0e5)),
            (JobId(3), Priority::Normal, Resources::cpu_mem(130.0, 1.0e5)),
        ];
        let d = evaluate(TOTAL, Resources::cpu_mem(980.0, 4.0e5), &jobs);
        // Stopping job 2 leaves 930 reserved (7% free): must also stop 3.
        assert_eq!(d.jobs_to_stop, vec![JobId(2), JobId(3)]);
    }

    #[test]
    fn unknown_cluster_evaluates_as_empty() {
        // A cluster with no healthy capacity has nothing to give.
        let d = evaluate(Resources::ZERO, Resources::cpu_mem(1.0, 1.0), &[]);
        assert_eq!(d.remaining_fraction, 0.0);
    }
}
