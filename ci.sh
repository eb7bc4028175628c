#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, and a chaos smoke run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== slo_soak: chaos smoke + per-tier SLO gate (30 simulated minutes) =="
# chaos_soak exits non-zero if any run diverges (dense vs event vs replay,
# on fingerprint, fault log, trace digest or incident log), any invariant
# fires, any tier's p99 recovery exceeds its budget, or the warm-standby
# fast path is less than 5x faster than the standard path. It is also the
# determinism gate for the decision trace and the metrics plane: both are
# always on.
# The per-tier report is emitted to BENCH_slo.json; a second run must
# reproduce the identical soak digest or the gate fails.
./target/release/chaos_soak --mins 30 --slo BENCH_slo.json
digest_a=$(grep -o '"slo_digest": "[^"]*"' BENCH_slo.json)
./target/release/chaos_soak --mins 30 --slo /tmp/BENCH_slo_repeat.json > /dev/null
digest_b=$(grep -o '"slo_digest": "[^"]*"' /tmp/BENCH_slo_repeat.json)
[ -n "$digest_a" ] && [ "$digest_a" = "$digest_b" ] \
    || { echo "slo_soak digest not deterministic: '$digest_a' vs '$digest_b'"; exit 1; }
echo "slo_soak digest reproducible: $digest_a"

echo "== seam: the full-scan reference is a drive mode, not a config field =="
# DriveMode::FullScan hands the one body of each change-driven round
# everything; the `sparse_data_plane` selector it replaced stays gone.
! grep -rn sparse_data_plane crates tests \
    || { echo "sparse_data_plane is back under crates/ or tests/"; exit 1; }

echo "== the invariant checker owns its inbox =="
# What the control loops tell the checker is one record inside the
# checker; the platform-side copy and the per-check hand-over type stay gone.
! grep -rnE 'PendingDirty|DirtyInput' crates tests \
    || { echo "PendingDirty or DirtyInput is back under crates/ or tests/"; exit 1; }

echo "== per-job tables are id-hashed; each scaler window is drained once =="
# A table keyed by a platform-assigned job id is an `IdMap` (one multiply
# per probe, not a SipHash round), and the scaler round reads each job's
# running tasks from its one window drain, not from a second engine walk.
! grep -rn 'HashMap<JobId,' crates/core/src crates/autoscaler/src crates/jobstore/src crates/ods/src \
    || { echo "HashMap<JobId, ...> under crates/{core,autoscaler,jobstore,ods}/src: use IdMap"; exit 1; }
! grep -rn tasks_with_window crates tests \
    || { echo "tasks_with_window is back under crates/ or tests/"; exit 1; }

echo "== the Auto Scaler owns the root-causer's state; platform tables are ordered =="
# The release row, the lag episode and the last diagnosis are one per-job
# record inside the Auto Scaler, not platform fields. A std `HashMap`
# iterates in an order of its own per instance, so none sits in the
# platform, where an iteration order reaches decisions.
! grep -nwE '(releases|lag_since|last_diagnosis):' crates/core/src/platform/mod.rs \
    || { echo "a root-cause field is back on Turbine: it lives in the Auto Scaler"; exit 1; }
! grep -rnw HashMap crates/core/src/platform/ \
    || { echo "HashMap under crates/core/src/platform/: use a BTreeMap or an IdMap"; exit 1; }

echo "== the metrics round finds each job by position =="
# Each job's lag SLO, reserved footprint, running tasks and series ids are
# its row of one job-ordered table, walked in step with the engine's jobs;
# the per-job probes and the id-keyed series caches stay gone.
! sed -n '/fn metrics_round/,/^    }$/p' crates/core/src/platform/control_loops.rs \
    | grep -nE 'expected_typed\(|running_typed_jobs\(|running_tasks_of\(' \
    || { echo "metrics_round probes a job by id: read its row"; exit 1; }
! grep -nE '(job_series|scaler_series):' crates/core/src/platform/ods.rs \
    || { echo "an id-keyed per-job series cache is back in platform/ods.rs"; exit 1; }

echo "== a job's input category is one id on its engine row =="
# A decoded bus keeps creation order, so a category id survives a restore:
# each engine row holds its job's id and the bus holds the name. The
# platform's per-job name map, the sync's name resolver and the by-name
# Scribe watermarks stay gone.
! grep -nw 'categories:' crates/core/src/platform/mod.rs \
    || { echo "a per-job category map is back on Turbine: the engine row holds the id"; exit 1; }
! grep -rnwE 'category_of|restored_watermarks|scope_series' crates \
    || { echo "category_of, restored_watermarks or scope_series is back under crates/"; exit 1; }

echo "== one record per lost container; the critical jobs are one table =="
# A container lost to a severed connection, a failed host or both is one
# `Loss` record (its onset and its severance), and the critical jobs are
# one Shard Manager table of each job and its standby, kept from the Job
# Store's tier changes. The two per-cause tables and the per-job tier map
# stay gone.
! grep -rnwE 'container_down_since|SeveredState|resiliency_cache' crates \
    || { echo "container_down_since, SeveredState or resiliency_cache is back under crates/"; exit 1; }

echo "== the Shard Manager owns the standbys =="
# The standby ranking is written once, as the Shard Manager's
# `StandbyOrder`; the host-isolation rule is kept where a primary starts
# (and checked by invariant 7), not re-tested every beat; the shadow path
# keeps no read positions, since nothing read them. The platform keeps no
# copy of the critical jobs.
! grep -rnwE 'standby_conflicts|load_on|job_observed_total' crates \
    || { echo "standby_conflicts, load_on or job_observed_total is back under crates/"; exit 1; }
! grep -rnw critical_jobs crates/core/src \
    || { echo "critical_jobs is back under crates/core/src: the Shard Manager holds the table"; exit 1; }

echo "== liveness is exceptions; lost is the only reachability table =="
# The Shard Manager records only the containers that miss a beat (its
# `silent` table) beside the instant of the last beat, and the platform's
# `lost` table is the one answer to "is this container reachable": no
# timestamp per container per beat, no derived live-container list or its
# cost counter, and no shadow-path commit counter nothing could move.
! grep -rnwE 'live_containers|heartbeat_filtered|heartbeat_all|last_heartbeat|ShadowCursor' crates \
    || { echo "live_containers, heartbeat_filtered, heartbeat_all, last_heartbeat or ShadowCursor is back under crates/"; exit 1; }

echo "== bytes are integers =="
# The engine counts Scribe's bytes as Scribe does: each partition's
# appended, consumed and mirrored bytes and the scaler window are u64, so
# any span of ticks sums exactly and a steady job advances in closed form.
! grep -nE '(appended|consumed|scribe_synced|window_arrived|window_processed): f64' \
    crates/core/src/engine.rs \
    || { echo "an engine byte counter is an f64 again: bytes are integers"; exit 1; }

echo "== one record per halted job =="
# Whether a job is halted, and why (paused mid-sync with its state move,
# stopped by the Capacity Manager, its input category stalled), is one
# `Halt` record in the platform's `halts` table, written through one setter
# that wakes the engine. No paused or stopped set beside it, no state-move
# map outside a pause, and no stall set rebuilt at every tick.
! grep -rnwE 'capacity_stopped|state_moves|paused_jobs' crates \
    || { echo "capacity_stopped, state_moves or paused_jobs is back under crates/"; exit 1; }
! grep -nE 'stalled.*(BTreeSet|HashSet)' crates/core/src/platform/scheduler.rs \
    || { echo "scheduler.rs builds a stalled set again: a stall is a halt cause"; exit 1; }

echo "== scale_smoke: sparse data plane at 1k hosts / 10k tasks (13 simulated hours) =="
# scale_soak runs the identical scenario under DriveMode::EventDriven and
# DriveMode::FullScan and exits non-zero unless the fingerprints are
# bit-equal, the full-scan leg examined every job at every sync round
# (780 000 here) and sent a report from every container at every
# load-report round (156 000), the sparse syncer does >= 5x less per-job
# work, and the sparse run lands inside the wall-clock budget. The sparse leg goes through a
# snapshot blob at hour 12 and finishes on the restored platform, so the
# fingerprint gate is also restore == uninterrupted at 1000 hosts; the
# blob must stay under 100 MB and the round trip under 2 s (the smoke
# shape's snapshot targets), and the process's peak RSS (the round trip's: blob and two
# platforms at once, the stream decoded where it lies in the blob; `VmHWM`,
# written on Linux) under 75 MB. A second run
# must reproduce the identical fingerprint counters or the gate fails. The
# full-size run (10k hosts / 120k tasks / 24 h, the default flags) is manual.
./target/release/scale_soak --hosts 1000 --jobs 1000 --hours 13 --max-wall-secs 60
awk -F': *|,' '/"snapshot_mb"/ { mb = $2 } /"snapshot_roundtrip_s"/ { s = $2 }
    /"peak_rss_mb"/ { rss = $2 }
    END { if (mb == "" || s == "" || mb >= 100 || s >= 2 || (rss != "" && rss >= 75)) {
              print "scale_smoke over budget: " mb " MB blob, " s " s, " rss " MB peak RSS"; exit 1 }
          print "scale_smoke snapshot: " mb " MB, " s " s round trip, " rss " MB peak RSS" }' BENCH_scale.json
fp_a=$(grep -o '"counters": \[[^]]*\]' BENCH_scale.json)
./target/release/scale_soak --hosts 1000 --jobs 1000 --hours 13 --max-wall-secs 60 > /dev/null
fp_b=$(grep -o '"counters": \[[^]]*\]' BENCH_scale.json)
[ -n "$fp_a" ] && [ "$fp_a" = "$fp_b" ] \
    || { echo "scale_smoke fingerprint not deterministic: '$fp_a' vs '$fp_b'"; exit 1; }
echo "scale_smoke fingerprint reproducible: $fp_a"
# Work, not wall: the full-scan leg sends a report from every container at
# every round, the sparse leg only from containers whose ownership or task
# usage moved. A tick that dirtied jobs for backlog alone reads ≈2.5 here.
awk -F': *|,' '/"load_report_ratio"/ { r = $2 }
    END { if (r == "" || r < 20) { print "scale_smoke load_report_ratio " r " < 20"; exit 1 }
          print "scale_smoke load_report_ratio " r " (>= 20)" }' BENCH_scale.json

echo "== sched_soak (event-driven scheduler: same fingerprint, >= 3x fewer ticks) =="
./target/release/sched_soak

echo "== paper fidelity: the seven figure/table binaries that finish in seconds =="
# Each binary exits non-zero if any of its paper-vs-measured verdicts
# printed [DIVERGES]. Six are deterministic, so their whole stdout is
# also diffed against results/. table_scheduling_latency's measured values
# carry wall-clock, so only its exit code is gated. The slow four
# (fig6_load_balance, fig7_lb_ablation, fig9_storm, fig10_efficiency)
# stay manual.
for figure in fig5_task_footprints table_footprint_migration ablation_scaler_generations \
    ablation_vertical_first fig8_backlog_recovery table_scheduling_latency fig1_growth; do
    ./target/release/"$figure" > /tmp/figure.out \
        || { grep -F '[DIVERGES]' /tmp/figure.out; echo "$figure exited non-zero"; exit 1; }
    if [ "$figure" != table_scheduling_latency ]; then
        diff results/"$figure".txt /tmp/figure.out \
            || { echo "$figure output moved (left: results/, right: this build)"; exit 1; }
    fi
    echo "$figure: $(grep -c '^\[OK\]' /tmp/figure.out) verdict(s) hold"
done

echo "== alert-rule smoke: tiered outage drill fires exactly one critical incident =="
# The drill's 8-minute billing scribe stall is the only sustained SLO
# breach, so the default per-critical-job lag rule must open exactly one
# deduplicated critical incident (flap suppression holds it to one).
crit=$(./target/release/turbinesim metrics scenarios/tiered_outage_drill.json --jsonl \
    | grep '"kind":"incident"' | grep -c '"severity":"critical"') || true
[ "$crit" = "1" ] \
    || { echo "expected exactly 1 critical incident from the drill, got $crit"; exit 1; }
echo "drill fired exactly one deduplicated critical incident"

echo "== trace export: the drill's decision trace matches results/ byte for byte =="
# The JSONL line of every record kind is generated from the one TraceData
# list in crates/trace/src/event.rs; the drill writes 12 of its 17 kinds.
./target/release/turbinesim trace scenarios/tiered_outage_drill.json --jsonl \
    | diff results/trace_tiered_outage_drill.jsonl - \
    || { echo "drill trace export moved (left: results/, right: this build)"; exit 1; }

echo "== refused interventions: each repro runs to its horizon and reports the refusal =="
# An oncall write that would repartition a running job's input, and one
# inside a job_store_down window, are both refused by the platform; the
# runner prints the refusal on stderr and carries on to exit 0.
for repro in oncall_repartition oncall_during_store_outage; do
    ./target/release/turbinesim run tests/scenarios/"$repro".json > /dev/null 2> /tmp/"$repro".err \
        || { echo "$repro: turbinesim run failed: $(cat /tmp/"$repro".err)"; exit 1; }
    grep -E '^minute [0-9]+: oncall_set .* refused: ' /tmp/"$repro".err \
        || { echo "$repro: no refusal line on stderr"; exit 1; }
done

echo "== hostile scenarios: each is refused with a typed error, never a panic =="
# Each tests/scenarios/hostile_*.json carries one number that used to
# panic a run or be wrapped or clamped into another value; the
# hostile_repro_* files are fuzz repro files and go through `repro`.
for hostile in tests/scenarios/hostile_*.json; do
    verb=run want='invalid scenario:'
    case "$hostile" in *hostile_repro_*) verb=repro want='invalid repro file' ;; esac
    status=0
    ./target/release/turbinesim "$verb" "$hostile" > /dev/null 2> /tmp/hostile.err || status=$?
    [ "$status" = "1" ] && grep -q "$want" /tmp/hostile.err && ! grep -q panicked /tmp/hostile.err \
        || { echo "$hostile: exit $status: $(cat /tmp/hostile.err)"; exit 1; }
done
echo "every hostile scenario refused with exit 1 and no panic"

echo "== snap_smoke: mid-soak snapshot/restore of the chaos drill reproduces the run =="
# Capture the tiered outage drill 30 minutes in (mid heartbeat-loss
# recovery), restore the blob, drive to the horizon, and require the
# restored run's job states and lifecycle counters to match the
# uninterrupted run exactly.
./target/release/turbinesim snapshot scenarios/tiered_outage_drill.json \
    --at-mins 30 --out /tmp/drill.at30.tsnap
full=$(./target/release/turbinesim run scenarios/tiered_outage_drill.json \
    | grep -E '^(job |lifecycle:)')
resumed=$(./target/release/turbinesim restore /tmp/drill.at30.tsnap \
    | grep -E '^(job |lifecycle:)')
[ -n "$full" ] && [ "$full" = "$resumed" ] \
    || { echo "snap_smoke: restored run diverged from the uninterrupted run"; exit 1; }
echo "snap_smoke: restored drill matches the uninterrupted run"
# A damaged blob on the command line is an error message, not a crash: the
# first half of the blob and a copy with one byte flipped mid-file must
# each exit 1 (the CLI's error status; a panic is 101, an abort 134) and
# say `snapshot` on stderr.
size=$(wc -c < /tmp/drill.at30.tsnap)
head -c $((size / 2)) /tmp/drill.at30.tsnap > /tmp/drill.half.tsnap
cp /tmp/drill.at30.tsnap /tmp/drill.flip.tsnap
printf '\377' | dd of=/tmp/drill.flip.tsnap bs=1 seek=$((size / 2)) conv=notrunc status=none
cmp -s /tmp/drill.at30.tsnap /tmp/drill.flip.tsnap \
    && printf '\000' | dd of=/tmp/drill.flip.tsnap bs=1 seek=$((size / 2)) conv=notrunc status=none
for damaged in /tmp/drill.half.tsnap /tmp/drill.flip.tsnap; do
    status=0
    ./target/release/turbinesim restore "$damaged" > /dev/null 2> /tmp/drill.damaged.err || status=$?
    [ "$status" = "1" ] && grep -q snapshot /tmp/drill.damaged.err \
        || { echo "snap_smoke: restore of $damaged exited $status: $(cat /tmp/drill.damaged.err)"; exit 1; }
done
echo "snap_smoke: a truncated and a bit-flipped blob are refused with an error message"

echo "== snap_soak: restore-divergence gate + digest-divergence bisection speedup =="
# snap_soak exits non-zero if any auto-snapshot restore diverges from the
# uninterrupted run (either drive mode), or if bisecting a seeded
# divergence misses the exact first divergent round or is less than 5x
# cheaper than a full replay. The report goes to BENCH_snap.json.
./target/release/snap_soak --mins 90

echo "== fuzz_campaign smoke (200 deterministic cases, all oracles) =="
fuzz_out=$(./target/release/fuzz_campaign --cases 200 --seed 1)
echo "$fuzz_out" | tail -1
echo "$fuzz_out" | grep -q "fuzz campaign: 200 cases, 0 oracle violations" \
    || { echo "fuzz smoke found oracle violations"; exit 1; }

echo "== benchmark harness: self-tests + one short run per workload =="
# benchmark/ is a package of its own that calls the product crates through
# benchmark/src/adapter/; building and running it here makes an API change
# that breaks the adapter fail CI, not the next performance change. The
# runs are too short to measure anything. Gated: `failed 0`, and the input
# digest, fingerprint and trace digest each run prints against
# tests/golden/harness_seed1_seconds2.txt, so a performance change that
# moves behaviour fails here with the diff (the file's header says how a
# deliberate behaviour change regenerates it).
cargo test -q --manifest-path benchmark/Cargo.toml
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
: > /tmp/harness_digests.txt
for workload in steady_fleet quiet_fleet release_storm chaos_audit fuzz_sweep; do
    run_out=$(./benchmark/target/release/turbine-benchmark \
        --workload "$workload" --seed 1 --seconds 2 --trace 0)
    echo "$run_out" | grep -E '^checks attempted [0-9]+ failed 0$' \
        || { echo "benchmark workload $workload: failed checks (or did not run)"; exit 1; }
    echo "$run_out" | grep -E '^info (input_digest|fingerprint|trace_digest) ' \
        | sed "s/^info/$workload/" >> /tmp/harness_digests.txt
done
grep -v '^#' tests/golden/harness_seed1_seconds2.txt | diff - /tmp/harness_digests.txt \
    || { echo "benchmark harness digests moved (left: golden, right: this build)"; exit 1; }
echo "harness digests match tests/golden/harness_seed1_seconds2.txt"

echo "CI OK"
