//! Resource estimators (paper §V-B, Eq. 2 and 3).
//!
//! For stateless jobs CPU consumption is approximately proportional to the
//! data volume: with `P` the maximum stable processing rate of a single
//! thread, `k` threads per task, and `n` tasks, the CPU resource unit
//! needed for input rate `X` is `X / (P·k·n)` (Eq. 2); when a backlog `B`
//! must be recovered within time `t` it becomes `(X + B/t) / (P·k·n)`
//! (Eq. 3). For stateful jobs, memory is proportional to key cardinality
//! (aggregations) or window size and input matching (joins).

use crate::symptoms::JobMetrics;
use turbine_types::{Duration, Resources};

/// Hard ceiling on any estimated task count. A huge backlog combined with
/// a sub-second recovery window can push the effective rate to `+inf`;
/// without this clamp the `as u32` cast would saturate to `u32::MAX` and
/// the scaler would mandate four billion tasks. The value comfortably
/// exceeds any real tier (the paper's largest jobs run hundreds of tasks)
/// while staying far from integer-overflow territory in downstream math.
pub const MAX_ESTIMATED_TASKS: u32 = 1 << 20;

/// Ceiling on the CPU-units estimate (Eq. 2/3). Anything at this level
/// already reads as "hopelessly undersized"; returning a finite value
/// keeps every consumer's arithmetic (comparisons, multiplications by
/// task counts) NaN- and overflow-free.
pub const MAX_CPU_UNITS: f64 = 1.0e9;

/// Eq. 3's effective rate `X + B/t`, clamped to a finite non-negative
/// value. Degenerate inputs (negative rates from buggy meters, `B/t`
/// overflowing to `+inf` for tiny recovery windows, NaN anywhere) are
/// clamped rather than propagated.
fn effective_rate(x: f64, backlog: f64, recovery_time: Option<Duration>) -> f64 {
    let x = if x.is_finite() { x.max(0.0) } else { 0.0 };
    let rate = match recovery_time {
        Some(t) if backlog > 0.0 && !t.is_zero() => x + backlog / t.as_secs_f64(),
        _ => x,
    };
    if rate.is_finite() {
        rate
    } else {
        f64::MAX
    }
}

/// CPU resource units (fraction of the job's current capacity) needed for
/// input rate `x` — Eq. 2, or Eq. 3 when `backlog`/`recovery_time` are
/// supplied. A value above 1.0 means the job cannot keep up as sized.
///
/// Degenerate inputs are clamped, never panicked on: a non-positive or
/// non-finite `P` (bootstrap jobs legitimately report `P = 0` before the
/// first throughput sample) or a zero `k`/`n` yields `0.0` — with no
/// usable throughput estimate there is no evidence of saturation, and the
/// conservative answer is "no CPU demand" rather than a fleet-wide
/// scale-up on garbage. The result is finite for all finite inputs,
/// bounded by [`MAX_CPU_UNITS`].
pub fn cpu_units_needed(
    x: f64,
    p: f64,
    k: u32,
    n: u32,
    backlog: f64,
    recovery_time: Option<Duration>,
) -> f64 {
    if !p.is_finite() || p <= 0.0 || k == 0 || n == 0 {
        return 0.0;
    }
    let units = effective_rate(x, backlog, recovery_time) / (p * k as f64 * n as f64);
    if units.is_finite() {
        units.min(MAX_CPU_UNITS)
    } else {
        MAX_CPU_UNITS
    }
}

/// The smallest task count able to sustain input rate `x` (plus backlog
/// recovery, if requested) at per-thread throughput `p` with `k` threads
/// per task — the `n' = ceil(X/P)` rule of §V-C generalized to `k` threads.
///
/// Always in `1..=`[`MAX_ESTIMATED_TASKS`]: a non-positive or non-finite
/// `P` (bootstrap) or zero `k` returns the floor of 1 (no evidence to
/// scale on), and an effective rate that overflows the division returns
/// the ceiling instead of saturating the `u32` cast at four billion.
pub fn required_task_count(
    x: f64,
    p: f64,
    k: u32,
    backlog: f64,
    recovery_time: Option<Duration>,
) -> u32 {
    if !p.is_finite() || p <= 0.0 || k == 0 {
        return 1;
    }
    let tasks = (effective_rate(x, backlog, recovery_time) / (p * k as f64)).ceil();
    if tasks >= MAX_ESTIMATED_TASKS as f64 || !tasks.is_finite() {
        MAX_ESTIMATED_TASKS
    } else {
        (tasks as u32).max(1)
    }
}

/// A multi-dimensional resource estimate for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Minimum tasks needed to sustain current input.
    pub min_task_count: u32,
    /// Tasks needed to also recover the backlog within the target.
    pub recovery_task_count: u32,
    /// Estimated per-task resource needs at `recovery_task_count`.
    pub per_task: Resources,
}

/// Baseline memory every task consumes regardless of traffic (the paper
/// observes ~400 MB for every Scuba tailer task: binary + metric-collection
/// sidecar).
pub(crate) const BASE_MEMORY_MB: f64 = 400.0;

/// Memory per byte/sec of per-task input rate (buffering a few seconds of
/// in-flight data): ≈8 s of buffered data, in MB per B/s.
const MEMORY_PER_RATE: f64 = 8.0e-6;

/// Memory per state key for stateful jobs (aggregation tables).
const MEMORY_PER_KEY_MB: f64 = 1.0e-3;

/// Disk per state key for stateful jobs (spilling joins/aggregations).
const DISK_PER_KEY_MB: f64 = 4.0e-3;

/// Backlog recovery target used for Eq. 3.
pub(crate) const RECOVERY_TIME: Duration = Duration::from_mins(10);

/// Estimate the resources a job needs given its metrics, the current
/// per-thread throughput estimate `p`, and whether it keeps state: the CPU
/// model combined with memory/disk models for stateful jobs.
pub fn estimate_resources(metrics: &JobMetrics, p: f64, stateful: bool) -> ResourceEstimate {
    let k = metrics.threads_per_task.max(1);
    let input_rate = if metrics.input_rate.is_finite() {
        metrics.input_rate.max(0.0)
    } else {
        0.0
    };
    let min_task_count = required_task_count(input_rate, p, k, 0.0, None);
    let recovery_task_count = required_task_count(
        input_rate,
        p,
        k,
        metrics.total_bytes_lagged,
        Some(RECOVERY_TIME),
    );

    let n = recovery_task_count.max(1) as f64;
    let per_task_rate = input_rate / n;
    let mut memory_mb = BASE_MEMORY_MB + per_task_rate * MEMORY_PER_RATE;
    let mut disk_mb = 0.0;
    if stateful {
        // Aggregation/join state is partitioned across tasks: memory and
        // disk per task shrink as the task count grows — the "correlated
        // adjustment" the Plan Generator exploits.
        let keys = metrics.key_cardinality.unwrap_or(0.0) / n;
        memory_mb += keys * MEMORY_PER_KEY_MB;
        disk_mb += keys * DISK_PER_KEY_MB;
    }
    // CPU per task: enough to run its share at the target rate, with Eq. 3
    // headroom folded in via the recovery task count. With no usable
    // throughput estimate (bootstrap `P = 0`) fall back to the floor — the
    // same no-evidence rule the task counts use.
    let cpu = if p.is_finite() && p > 0.0 {
        (per_task_rate / p).max(0.1)
    } else {
        0.1
    };
    ResourceEstimate {
        min_task_count,
        recovery_task_count,
        per_task: Resources::new(cpu, memory_mb, disk_mb, per_task_rate / 1.0e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_matches_hand_computation() {
        // X=1000 B/s, P=100 B/s/thread, k=2, n=5 ⇒ 1000/(100·2·5) = 1.0.
        assert!((cpu_units_needed(1000.0, 100.0, 2, 5, 0.0, None) - 1.0).abs() < 1e-12);
        // Half the input: half the units.
        assert!((cpu_units_needed(500.0, 100.0, 2, 5, 0.0, None) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq3_adds_backlog_recovery() {
        // B=60000 bytes over t=60s adds 1000 B/s of effective rate.
        let units = cpu_units_needed(1000.0, 100.0, 2, 5, 60_000.0, Some(Duration::from_secs(60)));
        assert!((units - 2.0).abs() < 1e-12);
        // No recovery target: backlog ignored.
        assert!((cpu_units_needed(1000.0, 100.0, 2, 5, 60_000.0, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn required_task_count_ceils_and_floors_at_one() {
        assert_eq!(required_task_count(1000.0, 100.0, 1, 0.0, None), 10);
        assert_eq!(required_task_count(1001.0, 100.0, 1, 0.0, None), 11);
        assert_eq!(required_task_count(0.0, 100.0, 1, 0.0, None), 1);
        // k threads multiply per-task capacity.
        assert_eq!(required_task_count(1000.0, 100.0, 2, 0.0, None), 5);
    }

    #[test]
    fn estimate_scales_with_backlog() {
        let mut metrics = JobMetrics {
            input_rate: 1.0e6,
            threads_per_task: 1,
            task_count: 10,
            ..Default::default()
        };
        let p = 2.0e5; // 200 KB/s per thread
        let idle = estimate_resources(&metrics, p, false);
        assert_eq!(idle.min_task_count, 5);
        assert_eq!(idle.recovery_task_count, 5);

        metrics.total_bytes_lagged = 1.8e9; // 1.8 GB backlog
        let backed_up = estimate_resources(&metrics, p, false);
        assert_eq!(backed_up.min_task_count, 5);
        assert!(
            backed_up.recovery_task_count > idle.recovery_task_count,
            "backlog must demand more tasks: {backed_up:?}"
        );
    }

    #[test]
    fn stateful_memory_shrinks_with_more_tasks() {
        let metrics_small = JobMetrics {
            input_rate: 1.0e6,
            threads_per_task: 1,
            key_cardinality: Some(1.0e7),
            ..Default::default()
        };
        let est_small = estimate_resources(&metrics_small, 1.0e5, true);
        // Same job at double throughput estimate (half the tasks): more
        // memory per task.
        let est_fewer_tasks = estimate_resources(&metrics_small, 2.0e5, true);
        assert!(est_fewer_tasks.recovery_task_count < est_small.recovery_task_count);
        assert!(est_fewer_tasks.per_task.memory_mb > est_small.per_task.memory_mb);
    }

    #[test]
    fn every_task_gets_the_memory_floor() {
        let metrics = JobMetrics {
            input_rate: 1.0, // almost no traffic
            threads_per_task: 1,
            ..Default::default()
        };
        let est = estimate_resources(&metrics, 1.0e5, false);
        assert!(est.per_task.memory_mb >= 400.0, "fig. 5's ~400 MB floor");
    }

    #[test]
    fn zero_p_clamps_instead_of_panicking() {
        // Bootstrap jobs report P = 0 before their first throughput
        // sample: no evidence ⇒ no CPU demand, task floor of 1.
        assert_eq!(cpu_units_needed(1.0, 0.0, 1, 1, 0.0, None), 0.0);
        assert_eq!(required_task_count(1.0e9, 0.0, 1, 0.0, None), 1);
        // Degenerate thread/task counts take the same clamp.
        assert_eq!(cpu_units_needed(1.0, 100.0, 0, 1, 0.0, None), 0.0);
        assert_eq!(cpu_units_needed(1.0, 100.0, 1, 0, 0.0, None), 0.0);
        assert_eq!(required_task_count(1.0, 100.0, 0, 0.0, None), 1);
        let est = estimate_resources(
            &JobMetrics {
                input_rate: 1.0e6,
                threads_per_task: 1,
                ..Default::default()
            },
            0.0,
            false,
        );
        assert_eq!(est.min_task_count, 1);
        assert!(est.per_task.cpu.is_finite());
    }

    #[test]
    fn huge_backlog_with_tiny_recovery_window_stays_finite() {
        // f64::MAX backlog over a 1 ms window overflows `X + B/t` to
        // `+inf`; the cast used to saturate at u32::MAX tasks.
        let t = Some(Duration::from_millis(1));
        let tasks = required_task_count(1.0e6, 100.0, 1, f64::MAX, t);
        assert_eq!(tasks, MAX_ESTIMATED_TASKS);
        let units = cpu_units_needed(1.0e6, 100.0, 1, 4, f64::MAX, t);
        assert!(units.is_finite());
        assert_eq!(units, MAX_CPU_UNITS);
        // Large-but-finite effective rates clamp to the same ceiling.
        let tasks = required_task_count(f64::MAX, 1.0e-300, 1, 0.0, None);
        assert_eq!(tasks, MAX_ESTIMATED_TASKS);
    }

    #[test]
    fn negative_and_nan_rates_are_sanitized() {
        assert_eq!(required_task_count(-5.0e6, 100.0, 1, 0.0, None), 1);
        assert_eq!(cpu_units_needed(f64::NAN, 100.0, 1, 1, 0.0, None), 0.0);
        let units = cpu_units_needed(1000.0, 100.0, 2, 5, f64::NAN, None);
        assert!((units - 1.0).abs() < 1e-12, "NaN backlog ignored: {units}");
    }
}
