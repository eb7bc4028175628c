//! Digest-divergence bisection: localize the first divergent round of two
//! runs that should have been bit-for-bit identical.
//!
//! When the mode-equivalence or replay oracle trips, the naive repro
//! replays both runs from minute zero and compares every round —
//! O(horizon) simulated rounds. The recorded runs instead carry periodic
//! auto-snapshots ([`Checkpoint`](crate::runner::Checkpoint)s) with their fingerprints and trace
//! digests; this module binary-searches the aligned checkpoint lists for
//! the agreement boundary (O(log) digest comparisons, no simulation),
//! restores both sides once at the last agreeing checkpoint, and replays
//! only the span up to the first disagreeing checkpoint in lockstep —
//! at most `2 * snap_every` simulated rounds — to name the exact first
//! divergent minute and extract the trace events recorded inside it.

use crate::runner::{RecordedRun, ResumedRun};
use crate::scenario::FuzzScenario;

/// Cap on trace lines kept per side of a divergence report.
const TRACE_CAP: usize = 40;

/// Where two recorded runs first disagreed, and what it cost to find out.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Which oracle tripped: `"mode"` (dense vs event) or `"replay"`.
    pub oracle: &'static str,
    /// Display label of the first run (e.g. `dense`).
    pub label_a: &'static str,
    /// Display label of the second run (e.g. `event`).
    pub label_b: &'static str,
    /// Last minute at which both runs' fingerprint and trace digest agreed.
    pub last_agree_min: u32,
    /// First minute at which they disagreed.
    pub first_divergent_min: u32,
    /// Simulated rounds driven to localize the divergence (both sides).
    pub bisect_rounds: u64,
    /// Simulated rounds a from-zero lockstep replay would have driven.
    pub full_replay_rounds: u64,
    /// Trace events the first run recorded in the divergent minute (JSONL).
    pub trace_a: Vec<String>,
    /// Trace events the second run recorded in the divergent minute (JSONL).
    pub trace_b: Vec<String>,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} divergence ({} vs {}): first divergent round at minute {} \
             (agreed through minute {}); bisect drove {} rounds vs {} for a full replay",
            self.oracle,
            self.label_a,
            self.label_b,
            self.first_divergent_min,
            self.last_agree_min,
            self.bisect_rounds,
            self.full_replay_rounds,
        )?;
        for (label, lines) in [(self.label_a, &self.trace_a), (self.label_b, &self.trace_b)] {
            writeln!(f, "  trace[{label}] in the divergent minute:")?;
            for line in lines {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Bisect two recorded runs of the same scenario down to their first
/// divergent minute. Returns `None` when the runs carry no aligned
/// checkpoints or never actually disagree along the recorded timeline.
pub fn bisect_recorded(
    s: &FuzzScenario,
    a: &RecordedRun,
    b: &RecordedRun,
    oracle: &'static str,
    label_a: &'static str,
    label_b: &'static str,
) -> Option<DivergenceReport> {
    let n = a.checkpoints.len().min(b.checkpoints.len());
    if n == 0 {
        return None;
    }
    let agree = |i: usize| {
        let (ca, cb) = (&a.checkpoints[i], &b.checkpoints[i]);
        ca.minute == cb.minute
            && ca.fingerprint == cb.fingerprint
            && ca.trace_digest == cb.trace_digest
    };

    // Binary-search the aligned checkpoint lists for the agreement
    // boundary. Divergence of a deterministic run is persistent, so the
    // lists split into an agreeing prefix and a disagreeing suffix.
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if agree(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_bad = lo;
    if first_bad == 0 {
        // Both runs are built identically, so checkpoint 0 (taken before
        // any driving) can only disagree if the build itself diverged.
        return Some(DivergenceReport {
            oracle,
            label_a,
            label_b,
            last_agree_min: 0,
            first_divergent_min: a.checkpoints[0].minute,
            bisect_rounds: 0,
            full_replay_rounds: 2 * s.horizon_mins as u64,
            trace_a: Vec::new(),
            trace_b: Vec::new(),
        });
    }
    if first_bad == n {
        // Every aligned checkpoint agrees — and recording always places
        // the final checkpoint on the horizon minute, so the runs never
        // actually disagreed along the recorded timeline.
        return None;
    }

    // Restore both sides once at the last agreeing checkpoint, then
    // replay in lockstep one minute at a time until the digests split.
    // The disagreeing checkpoint guarantees a split within one span (one
    // extra minute when the divergence sits on the checkpoint's own
    // minute edge, which fires after the lockstep comparison point).
    let last_agree = first_bad - 1;
    let mut ra = ResumedRun::from_checkpoint(s, a, &a.checkpoints[last_agree]).ok()?;
    let mut rb = ResumedRun::from_checkpoint(s, b, &b.checkpoints[last_agree]).ok()?;
    let start_min = a.checkpoints[last_agree].minute;
    let mut bisect_rounds = 0u64;
    for minute in (start_min + 1)..=s.horizon_mins {
        ra.step_minute();
        rb.step_minute();
        bisect_rounds += 2;
        if ra.fingerprint() != rb.fingerprint() || ra.trace_digest() != rb.trace_digest() {
            let mut trace_a = ra.trace_window(minute - 1, minute);
            let mut trace_b = rb.trace_window(minute - 1, minute);
            trace_a.truncate(TRACE_CAP);
            trace_b.truncate(TRACE_CAP);
            return Some(DivergenceReport {
                oracle,
                label_a,
                label_b,
                last_agree_min: minute - 1,
                first_divergent_min: minute,
                bisect_rounds,
                full_replay_rounds: 2 * s.horizon_mins as u64,
                trace_a,
                trace_b,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{auto_snap_interval, drive_recorded, Perturbation};
    use turbine::DriveMode;

    fn scenario() -> FuzzScenario {
        let s = FuzzScenario {
            seed: 11,
            horizon_mins: 120,
            tick_secs: 10,
            hosts: 4,
            host_cpu: 56.0,
            host_memory_mb: 256.0 * 1024.0,
            headroom: 0.1,
            band: 0.2,
            scaler_enabled: true,
            jobs: vec![crate::scenario::FuzzJob {
                name: "steady".into(),
                stateful: false,
                tasks: 4,
                threads: 2,
                partitions: 16,
                max_tasks: 8,
                rate: 5.0,
                diurnal: 0.0,
                traffic_seed: 0,
                per_thread_rate: 1.0,
                message_bytes: 256.0,
                key_cardinality: 0.0,
                resiliency: turbine_config::ResiliencyClass::Standard,
                events: vec![],
            }],
            faults: vec![],
            flaps: vec![],
        };
        s.validate().expect("test scenario must be valid");
        s
    }

    #[test]
    fn identical_runs_yield_no_divergence() {
        let s = scenario();
        let every = auto_snap_interval(s.horizon_mins);
        let a = drive_recorded(&s, DriveMode::EventDriven, Some(every), None);
        let b = drive_recorded(&s, DriveMode::EventDriven, Some(every), None);
        assert_eq!(a.artifacts.fingerprint, b.artifacts.fingerprint);
        assert!(bisect_recorded(&s, &a, &b, "replay", "event", "replay").is_none());
    }

    #[test]
    fn seeded_divergence_is_localized_to_the_exact_minute() {
        let s = scenario();
        let every = auto_snap_interval(s.horizon_mins); // 15
        let perturb = Perturbation {
            host: 2,
            at_min: 67,
        };
        let a = drive_recorded(&s, DriveMode::EventDriven, Some(every), None);
        let b = drive_recorded(&s, DriveMode::EventDriven, Some(every), Some(perturb));
        assert_ne!(
            a.artifacts.fingerprint, b.artifacts.fingerprint,
            "perturbation must actually diverge the run"
        );

        let report = bisect_recorded(&s, &a, &b, "replay", "clean", "perturbed")
            .expect("diverged runs must produce a report");
        // The extra fail_host fires at the minute-67 edge, so the first
        // minute whose post-drive digests can differ is 68.
        assert_eq!(report.first_divergent_min, 68, "{report}");
        assert_eq!(report.last_agree_min, 67, "{report}");
        // The bisect replays at most one checkpoint span per side instead
        // of the whole horizon twice: the >= 5x CI gate with margin.
        assert!(
            report.bisect_rounds * 5 <= report.full_replay_rounds,
            "bisect drove {} rounds, full replay {}",
            report.bisect_rounds,
            report.full_replay_rounds
        );
        // The divergent minute's trace shows what the perturbed side did.
        assert!(
            !report.trace_b.is_empty(),
            "expected trace events in the divergent minute"
        );
    }

    #[test]
    fn bisection_survives_checkpoint_boundaries() {
        // Perturb exactly on a checkpoint minute: the checkpoint at that
        // minute is captured after the edge fired, so it already carries
        // the divergence and the lockstep starts one span earlier.
        let s = scenario();
        let every = auto_snap_interval(s.horizon_mins);
        let at_min = every * 3;
        let perturb = Perturbation { host: 1, at_min };
        let a = drive_recorded(&s, DriveMode::EventDriven, Some(every), None);
        let b = drive_recorded(&s, DriveMode::EventDriven, Some(every), Some(perturb));
        let report = bisect_recorded(&s, &a, &b, "replay", "clean", "perturbed")
            .expect("diverged runs must produce a report");
        assert!(report.first_divergent_min > at_min, "{report}");
        assert!(report.first_divergent_min <= at_min + every, "{report}");
    }
}
