//! The `turbinesim snapshot` / `turbinesim restore` verbs: capture a
//! scenario run mid-flight into a content-addressed blob, and resume a
//! blob to the scenario horizon.
//!
//! A snapshot blob is self-describing: it embeds the scenario JSON and
//! the capture minute, so `restore` needs nothing but the blob — it
//! re-parses the embedded scenario, rebinds job names and host indices
//! (both are pure functions of the scenario), and drives the remaining
//! minutes exactly as the uninterrupted run would have.

use crate::runner::{
    drive_scenario_minutes, provision_scenario, report_row_observer, scenario_bindings, summarize,
    RunSummary,
};
use crate::scenario::Scenario;
use turbine_snap::{Snapshot, SnapshotMeta};

/// Stream fields the capture report lists by name; the rest share a line.
const FIELDS_LISTED: usize = 12;

/// Run `scenario` to minute `at_mins` and capture the platform into a
/// snapshot blob embedding the scenario text. Returns the snapshot and the
/// capture report: one summary line, then where the stream's bytes are,
/// field by field, largest first.
pub fn snapshot_scenario(
    scenario: &Scenario,
    scenario_text: &str,
    at_mins: u64,
) -> Result<(Snapshot<'static>, String), String> {
    let total = scenario.total_mins();
    if at_mins == 0 || at_mins >= total {
        return Err(format!(
            "--at-mins must be inside the scenario: 1..{}",
            total - 1
        ));
    }
    let (mut turbine, ids) = provision_scenario(scenario);
    drive_scenario_minutes(&mut turbine, scenario, &ids, 0, at_mins, |_, _| {});
    let snapshot = Snapshot::capture_with_meta(
        &turbine,
        SnapshotMeta {
            captured_at_ms: turbine.now().as_millis(),
            scenario: Some(scenario_text.to_string()),
            at_mins: Some(at_mins),
        },
    );
    let mut report = format!(
        "captured minute {at_mins}/{total}: {} chunks ({} unique), {} KiB platform stream\n",
        snapshot.chunk_count(),
        snapshot.unique_chunk_count(),
        snapshot.stream_len() / 1024,
    );
    let fields = turbine_snap::field_bytes(&turbine);
    let (largest, rest) = fields.split_at(fields.len().min(FIELDS_LISTED));
    let mut line = |name: &str, bytes: usize| {
        let percent = 100.0 * bytes as f64 / snapshot.stream_len().max(1) as f64;
        report += &format!("  {name:<22} {bytes:>10} B  {percent:5.1} %\n");
    };
    for &(name, bytes) in largest {
        line(name, bytes);
    }
    if !rest.is_empty() {
        line(
            &format!("{} smaller fields", rest.len()),
            rest.iter().map(|&(_, bytes)| bytes).sum(),
        );
    }
    Ok((snapshot, report))
}

/// Restore a snapshot blob and drive the embedded scenario to its
/// horizon. Returns the capture minute, the resumed run's summary (report
/// rows cover the resumed span only), and the scenario it replayed.
pub fn restore_blob(blob: &[u8]) -> Result<(u64, RunSummary, Scenario), String> {
    let snapshot = Snapshot::from_bytes(blob).map_err(|e| format!("unreadable snapshot: {e}"))?;
    let text = snapshot
        .meta
        .scenario
        .as_deref()
        .ok_or("snapshot has no embedded scenario; cannot resume")?;
    let at_mins = snapshot
        .meta
        .at_mins
        .ok_or("snapshot has no capture minute; cannot resume")?;
    let scenario = Scenario::parse(text).map_err(|e| format!("embedded scenario: {e}"))?;
    let mut turbine = snapshot
        .restore()
        .map_err(|e| format!("corrupt snapshot: {e}"))?;
    let (_, ids) = scenario_bindings(&turbine, &scenario);
    let mut rows = Vec::new();
    drive_scenario_minutes(
        &mut turbine,
        &scenario,
        &ids,
        at_mins,
        scenario.total_mins(),
        report_row_observer(&scenario, &mut rows),
    );
    let run = summarize(&turbine, ids, rows);
    Ok((at_mins, run.summary, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    const SCENARIO: &str = r#"{
      "hosts": 3, "duration_hours": 1.0, "report_every_mins": 10,
      "jobs": [
        {"name": "a", "tasks": 2, "partitions": 16, "rate_mbps": 2.0, "seed": 1},
        {"name": "b", "tasks": 1, "partitions": 8, "rate_mbps": 0.5, "seed": 2}
      ],
      "events": [
        {"action": "inject_fault", "at_mins": 20, "fault": "heartbeat_loss", "host": 1, "duration_mins": 10},
        {"action": "fail_host", "at_mins": 40, "host": 2},
        {"action": "recover_host", "at_mins": 50, "host": 2}
      ]
    }"#;

    #[test]
    fn restored_run_matches_uninterrupted_tail() {
        let scenario = Scenario::parse(SCENARIO).expect("parse");
        let full = run_scenario(&scenario);

        // Capture before the first event, restore through the blob form,
        // resume to the horizon.
        let (snapshot, _) = snapshot_scenario(&scenario, SCENARIO, 15).expect("capture");
        let blob = snapshot.to_bytes();
        let (at_mins, resumed, _) = restore_blob(&blob).expect("restore");
        assert_eq!(at_mins, 15);

        // The resumed rows are exactly the uninterrupted run's tail rows,
        // and the final counters and job states agree bit for bit.
        let tail: Vec<_> = full
            .rows
            .iter()
            .filter(|(h, ..)| *h > 15.0 / 60.0)
            .cloned()
            .collect();
        assert_eq!(resumed.rows, tail);
        assert_eq!(resumed.counters, full.counters);
        assert_eq!(resumed.jobs, full.jobs);
        assert_eq!(resumed.fault_log, full.fault_log);
    }

    #[test]
    fn capture_inside_fault_window_still_matches() {
        let scenario = Scenario::parse(SCENARIO).expect("parse");
        let full = run_scenario(&scenario);
        let (snapshot, _) = snapshot_scenario(&scenario, SCENARIO, 25).expect("capture");
        let (_, resumed, _) = restore_blob(&snapshot.to_bytes()).expect("restore");
        assert_eq!(resumed.counters, full.counters);
        assert_eq!(resumed.jobs, full.jobs);
        assert_eq!(resumed.fault_log, full.fault_log);
    }

    #[test]
    fn capture_report_lists_where_the_bytes_are() {
        let scenario = Scenario::parse(SCENARIO).expect("parse");
        let (snapshot, report) = snapshot_scenario(&scenario, SCENARIO, 15).expect("capture");
        let mut lines = report.lines();
        assert!(lines
            .next()
            .expect("summary")
            .starts_with("captured minute 15/60"));
        // "  name   bytes B   share %", largest first, adding up to the stream.
        let sizes: Vec<u64> = lines
            .map(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                fields[fields.len() - 4].parse().expect("bytes column")
            })
            .collect();
        assert_eq!(sizes.len(), FIELDS_LISTED + 1);
        assert!(sizes[..FIELDS_LISTED].windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(sizes.iter().sum::<u64>(), snapshot.stream_len());
    }

    #[test]
    fn out_of_range_capture_minute_is_rejected() {
        let scenario = Scenario::parse(SCENARIO).expect("parse");
        assert!(snapshot_scenario(&scenario, SCENARIO, 0).is_err());
        assert!(snapshot_scenario(&scenario, SCENARIO, 60).is_err());
    }

    #[test]
    fn garbage_blob_is_rejected() {
        assert!(restore_blob(b"definitely not a snapshot").is_err());
    }
}
