//! Property-based tests for the Auto Scaler's resource estimator: the
//! Eq. 2/3 capacity model must be monotone in load and produce finite,
//! bounded answers for *any* finite input — including the degenerate
//! meter readings (negative rates, zero throughput estimates, enormous
//! backlogs) a real fleet produces.

use proptest::prelude::*;
use turbine_autoscaler::{
    cpu_units_needed, estimate_resources, required_task_count, JobMetrics, MAX_CPU_UNITS,
    MAX_ESTIMATED_TASKS,
};
use turbine_types::{Duration, Resources};

/// Finite f64s across a huge dynamic range, including negatives and zero
/// (buggy meters report all of these).
fn arb_rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        -1.0e9f64..1.0e9,
        1.0e9f64..1.0e300,
        -1.0e300f64..-1.0e9,
    ]
}

fn arb_metrics() -> impl Strategy<Value = JobMetrics> {
    (
        arb_rate(),
        arb_rate(),
        arb_rate(),
        0u32..200,
        0u32..64,
        prop_oneof![Just(None), (0.0f64..1.0e12).prop_map(Some)],
    )
        .prop_map(
            |(input_rate, processing_rate, lagged, task_count, threads, keys)| JobMetrics {
                input_rate,
                processing_rate,
                total_bytes_lagged: lagged,
                per_task_rates: Vec::new(),
                per_task_memory_mb: Vec::new(),
                oom_events: 0,
                task_count,
                threads_per_task: threads,
                reserved: Resources::cpu_mem(1.0, 800.0),
                key_cardinality: keys,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// More backlog never asks for fewer tasks (Eq. 3 monotonicity): the
    /// recovery term `B/t` only grows with `B`.
    #[test]
    fn required_tasks_monotone_in_backlog(
        x in 0.0f64..1.0e12,
        p in 1.0f64..1.0e9,
        k in 1u32..16,
        backlog_lo in 0.0f64..1.0e15,
        extra in 0.0f64..1.0e15,
        recovery_secs in 1u64..100_000,
    ) {
        let t = Some(Duration::from_secs(recovery_secs));
        let lo = required_task_count(x, p, k, backlog_lo, t);
        let hi = required_task_count(x, p, k, backlog_lo + extra, t);
        prop_assert!(hi >= lo, "backlog {backlog_lo}+{extra}: {hi} < {lo}");
    }

    /// More input rate never asks for fewer tasks either.
    #[test]
    fn required_tasks_monotone_in_rate(
        x in 0.0f64..1.0e12,
        extra in 0.0f64..1.0e12,
        p in 1.0f64..1.0e9,
        k in 1u32..16,
    ) {
        let lo = required_task_count(x, p, k, 0.0, None);
        let hi = required_task_count(x + extra, p, k, 0.0, None);
        prop_assert!(hi >= lo);
    }

    /// For *any* finite inputs — garbage meters included — the estimates
    /// stay inside their documented bounds instead of panicking,
    /// overflowing, or going non-finite.
    #[test]
    fn estimates_are_finite_and_bounded_for_all_finite_inputs(
        x in arb_rate(),
        p in arb_rate(),
        k in 0u32..64,
        n in 0u32..4096,
        backlog in arb_rate(),
        recovery_ms in prop_oneof![Just(0u64), 1u64..10_000_000],
    ) {
        let t = Some(Duration::from_millis(recovery_ms));
        let units = cpu_units_needed(x, p, k, n, backlog, t);
        prop_assert!(units.is_finite());
        prop_assert!((0.0..=MAX_CPU_UNITS).contains(&units), "units {units}");
        let tasks = required_task_count(x, p, k, backlog, t);
        prop_assert!((1..=MAX_ESTIMATED_TASKS).contains(&tasks), "tasks {tasks}");
    }

    /// The full multi-dimensional estimator keeps every output finite and
    /// non-negative for arbitrary job metrics, stateful or not, across
    /// the whole range of throughput estimates (including the `P = 0`
    /// bootstrap and non-finite garbage).
    #[test]
    fn full_estimator_output_is_finite(
        metrics in arb_metrics(),
        p in prop_oneof![Just(0.0), Just(f64::INFINITY), Just(f64::NAN), arb_rate()],
        stateful in any::<bool>(),
    ) {
        let estimate = estimate_resources(&metrics, p, stateful);
        prop_assert!((1..=MAX_ESTIMATED_TASKS).contains(&estimate.min_task_count));
        prop_assert!((1..=MAX_ESTIMATED_TASKS).contains(&estimate.recovery_task_count));
        prop_assert!(
            estimate.recovery_task_count >= estimate.min_task_count,
            "recovery sizing must dominate steady-state sizing"
        );
        for dim in [
            estimate.per_task.cpu,
            estimate.per_task.memory_mb,
            estimate.per_task.disk_mb,
            estimate.per_task.network_mbps,
        ] {
            prop_assert!(dim.is_finite() && dim >= 0.0, "per_task {:?}", estimate.per_task);
        }
    }
}
