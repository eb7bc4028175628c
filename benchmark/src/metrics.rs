//! Every metric the benchmark reports: name, unit, direction, bound.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a self-test
//! fails when the two drift apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// By how much an end-to-end metric may get worse before it counts as a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the reference value.
    Relative(f64),
    /// Absolute distance, in the metric's unit.
    Absolute(f64),
    /// Any difference at all (simulated or encoded values repeat exactly).
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Host time (noisy) or a simulated / encoded value (repeats exactly
    /// for one seed).
    pub wall_clock: bool,
    /// Defined on every workload and never zero, so `BENCHMARK.json` lists
    /// it under `end_to_end` and `--trace 0` prints it in the result line.
    /// The others are `null` on some workloads; the result line carries
    /// them under `per_layer` (`--trace 1`) and `--sets` still holds them
    /// to their bound.
    pub on_every_workload: bool,
}

/// The end-to-end metrics, same names on every workload.
///
/// The host-time bounds are a quarter, not the tenth the issue asked for:
/// on the shared 2-core reference box the machine's own speed drifts over
/// minutes, and ten runs of unchanged code spread (first to third
/// quartile) by 2–12 % of their median depending on the workload. A bound
/// has to stand clear of that or it rejects unchanged code.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_hours_per_wall_s",
        unit: "sim-h/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        wall_clock: true,
        on_every_workload: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        wall_clock: true,
        on_every_workload: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.05),
        wall_clock: true,
        on_every_workload: true,
    },
    EndToEnd {
        name: "sim_slo_ok_fraction",
        unit: "fraction",
        better: Better::Higher,
        bound: Bound::Absolute(0.005),
        wall_clock: false,
        on_every_workload: false,
    },
    EndToEnd {
        name: "sim_recovery_p99_s",
        unit: "sim-s",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        wall_clock: false,
        on_every_workload: false,
    },
    EndToEnd {
        name: "sim_recoveries",
        unit: "count",
        better: Better::Lower,
        bound: Bound::Exact,
        wall_clock: false,
        on_every_workload: false,
    },
    EndToEnd {
        name: "snapshot_roundtrip_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        wall_clock: true,
        on_every_workload: false,
    },
    EndToEnd {
        name: "snapshot_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        wall_clock: false,
        on_every_workload: false,
    },
];

/// One per-layer metric: no bound, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the layer (crate) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. A metric a workload does not
/// exercise reads 0 there (the layer did no work, or the probe has no
/// fleet to size itself by).
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.engine.busy_s", "s", Lower),
    layer("core.engine.ticks", "count", Lower),
    layer("core.engine.ns_per_task_tick", "ns", Lower),
    layer("core.engine.tick_busy_ns_per_task", "ns", Lower),
    layer("core.engine.tick_idle_ns_per_task", "ns", Lower),
    layer("core.platform.tick_skip_ratio", "ratio", Higher),
    layer("core.platform.sim_min_wall_ms_p50", "ms", Lower),
    layer("core.platform.sim_min_wall_ms_p90", "ms", Lower),
    layer("core.residual_s", "s", Lower),
    layer("core.invariants.ticks_checked", "count", Higher),
    layer("core.invariants.audit_mismatches", "count", Lower),
    layer("taskmgr.refresh.busy_s", "s", Lower),
    layer("taskmgr.refresh.rounds", "count", Lower),
    layer("taskmgr.refresh.max_ms", "ms", Lower),
    layer("taskmgr.spec_gen_ns_per_job", "ns", Lower),
    layer("taskmgr.snapshot_build_ms", "ms", Lower),
    layer("core.metrics.busy_s", "s", Lower),
    layer("ods.series", "count", Lower),
    layer("ods.samples", "count", Lower),
    layer("ods.incidents", "count", Lower),
    layer("ods.publish_ns", "ns", Lower),
    layer("ods.alert_eval_us", "us", Lower),
    layer("scribe.checkpoint.busy_s", "s", Lower),
    layer("scribe.append_ns", "ns", Lower),
    layer("scribe.category_backlog_ns", "ns", Lower),
    layer("autoscaler.round.busy_s", "s", Lower),
    layer("autoscaler.capacity.busy_s", "s", Lower),
    layer("autoscaler.scaling_actions", "count", Lower),
    layer("autoscaler.mean_tasks", "count", Lower),
    layer("statesyncer.round.busy_s", "s", Lower),
    layer("statesyncer.rounds", "count", Lower),
    layer("statesyncer.jobs_examined", "count", Lower),
    layer("statesyncer.examined_per_round", "count", Lower),
    layer("statesyncer.noop_round_full_us", "us", Lower),
    layer("statesyncer.noop_round_sparse_us", "us", Lower),
    layer("statesyncer.release_round_ms", "ms", Lower),
    layer("jobstore.changelog_len", "count", Lower),
    layer("jobstore.write_refusals", "count", Lower),
    layer("jobstore.rmw_ns", "ns", Lower),
    layer("jobstore.typed_read_ns", "ns", Lower),
    layer("jobstore.recover_ms", "ms", Lower),
    layer("config.layer_decode_ns", "ns", Lower),
    layer("shardmgr.heartbeat.busy_s", "s", Lower),
    layer("shardmgr.load_report.busy_s", "s", Lower),
    layer("shardmgr.load_reports_sent", "count", Lower),
    layer("shardmgr.rebalance.busy_s", "s", Lower),
    layer("shardmgr.shard_moves", "count", Lower),
    layer("shardmgr.failovers", "count", Lower),
    layer("shardmgr.placement_cold_ms", "ms", Lower),
    layer("shardmgr.placement_warm_ms", "ms", Lower),
    layer("sim.faults.transitions", "count", Lower),
    layer("sim.queue_op_ns", "ns", Lower),
    layer("trace.records", "count", Lower),
    layer("trace.evicted", "count", Lower),
    layer("snap.capture_ms", "ms", Lower),
    layer("snap.encode_ms", "ms", Lower),
    layer("snap.decode_restore_ms", "ms", Lower),
    layer("snap.bytes", "B", Lower),
    layer("snap.unique_chunk_ratio", "ratio", Lower),
    layer("fuzz.case_wall_ms_p50", "ms", Lower),
    layer("fuzz.case_wall_ms_p90", "ms", Lower),
    layer("fuzz.cases", "count", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// Which trace-latency component feeds which `*.busy_s` metric. The
/// chaos-engine slot is left out: the platform times fault-window edges
/// inside the data-plane tick, so that slot never fills.
pub const BUSY_METRIC_OF_COMPONENT: &[(&str, &str)] = &[
    ("data_plane", "core.engine.busy_s"),
    ("tm_refresh", "taskmgr.refresh.busy_s"),
    ("metrics", "core.metrics.busy_s"),
    ("checkpoint", "scribe.checkpoint.busy_s"),
    ("auto_scaler", "autoscaler.round.busy_s"),
    ("capacity_manager", "autoscaler.capacity.busy_s"),
    ("state_syncer", "statesyncer.round.busy_s"),
    ("heartbeat", "shardmgr.heartbeat.busy_s"),
    ("load_report", "shardmgr.load_report.busy_s"),
    ("rebalance", "shardmgr.rebalance.busy_s"),
];

/// Metric names are letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit, at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16 long.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_stay_inside_the_charset() {
        assert!(valid_name("core.engine.busy_s"));
        assert!(valid_name("9lives-ok_1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not_allowed"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("sim-h/s") && valid_unit("%") && !valid_unit("per second"));
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for (_, metric) in BUSY_METRIC_OF_COMPONENT {
            assert!(seen.contains(metric), "{metric} is not a per-layer metric");
        }
    }

    /// `BENCHMARK.json` is written by hand to the driver's schema; this
    /// keeps its metric and workload lists equal to the harness's.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest = parse_json(&text).expect("BENCHMARK.json parses");
        let field = |entry: &turbine_config::ConfigValue, key: &str| {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("entry without {key}"))
                .to_string()
        };
        let list = |key: &str| {
            manifest
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .to_vec()
        };

        let listed: Vec<(String, String, String)> = list("end_to_end")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = END_TO_END
            .iter()
            .filter(|m| m.on_every_workload)
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, expected, "end_to_end drifted");
        for (entry, metric) in list("end_to_end")
            .iter()
            .zip(END_TO_END.iter().filter(|m| m.on_every_workload))
        {
            let bound = entry.get("bound").and_then(|v| v.as_float());
            assert_eq!(
                Some(Bound::Relative(bound.expect("bound"))),
                Some(metric.bound)
            );
        }

        let listed: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = END_TO_END
            .iter()
            .filter(|m| !m.on_every_workload)
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .map(|(n, u, b)| (n.into(), u.into(), b.as_str().into()))
            .collect();
        assert_eq!(listed, expected, "per_layer drifted");

        let listed: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let expected: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(listed, expected, "workloads drifted");
        assert_eq!(
            manifest.get("run_seconds").and_then(|v| v.as_int()),
            Some(crate::workloads::RUN_SECONDS as i64)
        );
    }
}
