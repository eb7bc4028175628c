//! Symptom detection (paper §V-A).
//!
//! The first-generation auto scaler monitored pre-configured symptoms of
//! misbehaviour: lag/backlog, imbalanced input, and tasks running out of
//! memory. Those detectors live on in the second generation as the trigger
//! side of the Plan Generator.

use turbine_types::{Resources, SimTime, TaskId};

/// Per-job metrics sampled by the platform each scaler round.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Input arrival rate `X`, bytes/sec (aggregate over partitions).
    pub input_rate: f64,
    /// Achieved processing rate, bytes/sec (aggregate over tasks).
    pub processing_rate: f64,
    /// Bytes available for reading not yet ingested (`total_bytes_lagged`).
    pub total_bytes_lagged: f64,
    /// Per-task processing rates, for imbalance detection.
    pub per_task_rates: Vec<f64>,
    /// Per-task memory usage in MB.
    pub per_task_memory_mb: Vec<f64>,
    /// OOM kills observed since the last round (cgroup stats or JVM
    /// metrics, depending on the enforcement mode).
    pub oom_events: u32,
    /// Current number of tasks.
    pub task_count: u32,
    /// Threads per task (`k`).
    pub threads_per_task: u32,
    /// Per-task reserved resources.
    pub reserved: Resources,
    /// Key cardinality of in-memory state (stateful jobs only).
    pub key_cardinality: Option<f64>,
}

/// A running task as its job's drained scaler window reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask {
    /// The task.
    pub id: TaskId,
    /// Bytes it processed this window (zero when the window lists none).
    pub processed: f64,
    /// Its memory usage at the last tick, MB.
    pub memory_mb: f64,
    /// When it was (re)started on its container.
    pub started_at: SimTime,
}

impl JobMetrics {
    /// `time_lagged` (Eq. 1): how far behind real time the job's processing
    /// is, in seconds. When nothing is being processed but a backlog
    /// exists, the lag is effectively unbounded; we surface infinity and
    /// let the caller treat it as a (severe) lag symptom.
    pub fn time_lagged_secs(&self) -> f64 {
        if self.total_bytes_lagged <= 0.0 {
            return 0.0;
        }
        if self.processing_rate <= 0.0 {
            return f64::INFINITY;
        }
        self.total_bytes_lagged / self.processing_rate
    }

    /// Coefficient of variation of per-task processing rates — the paper
    /// measures imbalance as the standard deviation of processing rate
    /// across tasks; normalizing by the mean makes one threshold work for
    /// jobs of any size.
    pub fn imbalance_cv(&self) -> f64 {
        let n = self.per_task_rates.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.per_task_rates.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .per_task_rates
            .iter()
            .map(|r| (r - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Highest per-task memory usage, MB.
    pub fn peak_task_memory_mb(&self) -> f64 {
        self.per_task_memory_mb.iter().cloned().fold(0.0, f64::max)
    }
}

/// Imbalance CV above this ⇒ imbalanced input.
const IMBALANCE_CV_THRESHOLD: f64 = 0.5;

/// Memory usage above this fraction of the soft limit ⇒ pressure (tasks
/// without hard enforcement).
const SOFT_MEMORY_FRACTION: f64 = 0.9;

/// A detected misbehaviour symptom.
#[derive(Debug, Clone, PartialEq)]
pub enum Symptom {
    /// `time_lagged` exceeds the SLO threshold.
    Lagging {
        /// Observed lag in seconds (may be infinite).
        time_lagged_secs: f64,
        /// The job's SLO threshold in seconds.
        slo_secs: f64,
    },
    /// Input is unevenly distributed across tasks.
    ImbalancedInput {
        /// Coefficient of variation of per-task rates.
        cv: f64,
    },
    /// Tasks were OOM-killed since the last round.
    OutOfMemory {
        /// Number of OOM events.
        events: u32,
    },
    /// Soft-limit jobs approaching their memory limit.
    MemoryPressure {
        /// Peak per-task usage in MB.
        peak_mb: f64,
        /// The configured soft limit in MB.
        soft_limit_mb: f64,
    },
}

impl Symptom {
    /// Short human description (trace records, dashboards).
    pub fn describe(&self) -> String {
        match self {
            Symptom::Lagging {
                time_lagged_secs,
                slo_secs,
            } => format!("lagging {time_lagged_secs:.0}s (SLO {slo_secs:.0}s)"),
            Symptom::ImbalancedInput { cv } => format!("imbalanced input (cv {cv:.2})"),
            Symptom::OutOfMemory { events } => format!("{events} OOM event(s)"),
            Symptom::MemoryPressure {
                peak_mb,
                soft_limit_mb,
            } => {
                format!("memory pressure: peak {peak_mb:.0} MB of {soft_limit_mb:.0} MB soft limit")
            }
        }
    }
}

/// Run all detectors over one job's metrics. `slo_secs` is the job's
/// configured `time_lagged` SLO: a `time_lagged` above it ⇒ lagging.
pub fn detect(metrics: &JobMetrics, slo_secs: f64) -> Vec<Symptom> {
    let mut symptoms = Vec::new();
    let lag = metrics.time_lagged_secs();
    if lag > slo_secs {
        symptoms.push(Symptom::Lagging {
            time_lagged_secs: lag,
            slo_secs,
        });
    }
    let cv = metrics.imbalance_cv();
    if cv > IMBALANCE_CV_THRESHOLD {
        symptoms.push(Symptom::ImbalancedInput { cv });
    }
    if metrics.oom_events > 0 {
        symptoms.push(Symptom::OutOfMemory {
            events: metrics.oom_events,
        });
    }
    let soft_limit = metrics.reserved.memory_mb;
    let peak = metrics.peak_task_memory_mb();
    if soft_limit > 0.0 && peak > soft_limit * SOFT_MEMORY_FRACTION {
        symptoms.push(Symptom::MemoryPressure {
            peak_mb: peak,
            soft_limit_mb: soft_limit,
        });
    }
    symptoms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> JobMetrics {
        JobMetrics {
            input_rate: 100.0,
            processing_rate: 100.0,
            total_bytes_lagged: 0.0,
            per_task_rates: vec![25.0, 25.0, 25.0, 25.0],
            per_task_memory_mb: vec![400.0; 4],
            oom_events: 0,
            task_count: 4,
            threads_per_task: 1,
            reserved: Resources::cpu_mem(1.0, 800.0),
            key_cardinality: None,
        }
    }

    #[test]
    fn healthy_job_has_no_symptoms() {
        assert!(detect(&healthy(), 90.0).is_empty());
    }

    #[test]
    fn time_lagged_follows_eq1() {
        let mut m = healthy();
        m.total_bytes_lagged = 9000.0;
        m.processing_rate = 100.0;
        assert_eq!(m.time_lagged_secs(), 90.0);
        m.processing_rate = 0.0;
        assert!(m.time_lagged_secs().is_infinite());
        m.total_bytes_lagged = 0.0;
        assert_eq!(m.time_lagged_secs(), 0.0);
    }

    #[test]
    fn lag_beyond_slo_is_detected() {
        let mut m = healthy();
        m.total_bytes_lagged = 100.0 * 91.0; // 91 s of backlog at rate 100
        let symptoms = detect(&m, 90.0);
        assert!(matches!(symptoms[0], Symptom::Lagging { .. }));
        // Just inside the SLO: clean.
        m.total_bytes_lagged = 100.0 * 89.0;
        assert!(detect(&m, 90.0).is_empty());
    }

    #[test]
    fn imbalance_uses_cv() {
        let mut m = healthy();
        m.per_task_rates = vec![97.0, 1.0, 1.0, 1.0];
        assert!(m.imbalance_cv() > 1.0);
        let symptoms = detect(&m, 90.0);
        assert!(symptoms
            .iter()
            .any(|s| matches!(s, Symptom::ImbalancedInput { .. })));
        // Single-task jobs cannot be imbalanced.
        m.per_task_rates = vec![97.0];
        assert_eq!(m.imbalance_cv(), 0.0);
    }

    #[test]
    fn oom_and_memory_pressure_detected() {
        let mut m = healthy();
        m.oom_events = 2;
        let symptoms = detect(&m, 90.0);
        assert!(symptoms.contains(&Symptom::OutOfMemory { events: 2 }));

        let mut m = healthy();
        m.per_task_memory_mb = vec![400.0, 790.0];
        let symptoms = detect(&m, 90.0);
        assert!(symptoms
            .iter()
            .any(|s| matches!(s, Symptom::MemoryPressure { .. })));
    }

    #[test]
    fn zero_rate_metrics_are_not_imbalanced() {
        let mut m = healthy();
        m.per_task_rates = vec![0.0; 4];
        assert_eq!(m.imbalance_cv(), 0.0);
    }
}
