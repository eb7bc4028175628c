//! Content-addressed whole-simulation snapshots.
//!
//! A [`Snapshot`] captures the complete [`Turbine`] platform — engine
//! arenas and dirty sets, Scribe partitions/checkpoints, Job Store and
//! WAL, shard map, the silent containers and the critical jobs with their
//! standbys, the control event queue, fault injector, RNG
//! streams, trace ring, and the ODS registry — as one deterministic byte
//! stream, held whole, plus a manifest of the FNV-1a digests of its
//! fixed-size chunks in stream order. A captured
//! snapshot owns its stream; one read back with [`Snapshot::from_bytes`]
//! borrows it from the blob, so a restore decodes the bytes where they
//! lie. Every restore re-verifies each chunk against its digest, so a
//! flipped bit anywhere in a blob is a clean [`SnapError::Corrupt`] naming
//! the chunk — never a panic and never a silently wrong simulation — and
//! two snapshots compare manifests to find the chunks they share.
//!
//! The contract that makes snapshots useful for divergence bisection:
//! restore-then-drive is bit-for-bit identical (platform fingerprint,
//! trace digest, incident log) to the uninterrupted run, in both drive
//! modes. Anything a component forgets to serialize shows up as a
//! restore-divergence, which turns hidden-state bugs into mechanically
//! findable ones.

use std::borrow::Cow;
use std::collections::BTreeSet;
use turbine::Turbine;
use turbine_types::{Fnv1a, SnapError, SnapReader, SnapWriter};

/// File magic for serialized snapshot blobs.
pub const SNAP_MAGIC: [u8; 8] = *b"TRBNSNAP";

/// Blob format version. Bump on any encoding change: restore refuses
/// mismatched versions instead of misdecoding. Version 2 stored only the
/// written buckets of a job's workload history and each distinct task
/// snapshot once; version 3 has no trace/ODS switches in it and no host
/// time, so a blob is a function of the run
/// (`tests/golden/snap_format.txt` pins the bytes); version 4 writes a
/// `TimeSeries` as memory holds it — regular time stretches and value
/// runs, not a `(time, value)` pair per sample — and validates it on the
/// way back in; version 5 stores the platform stream whole, as one
/// length-prefixed byte string after the manifest, not as a digest-keyed
/// map of chunks; version 6 drops the platform's load-report copy of the
/// engine's dirty jobs (the load-report round drains the engine's set
/// itself); version 7 drops the configuration values that became
/// constants and the root-causer's (stateless) entry; version 8 drops
/// `PlatformMetrics`' copies of the registry's series (all but two), its
/// watched-job maps and its per-tier downtime totals; version 9 stores the
/// Job Store's and the engine's change feeds (one set per reader) in place
/// of the store's change log, the engine's dirty set and the four cursors
/// into the log; version 10 drops the configuration's full-scan selector
/// (the reference is a drive mode now, `DriveMode::FullScan`) and the
/// invariant checker's count of sparse checks (every check is one);
/// version 11 stores what the checker is told (its job set, scope flags and
/// promotion and revival edges) inside the checker, not as three platform
/// fields, and not at all while checking is off; version 12 stores the
/// root-causer's per-job record (release row, lag episode, last diagnosis)
/// inside the Auto Scaler's job state, not as three platform maps, and
/// one lag episode where the scaler's round count and the platform's onset
/// were two; version 13 stores a reader more in each change feed (the
/// engine's scaler reader, the Job Store's metrics reader), and an
/// expected row's token is the store's change count at its last write;
/// version 14 writes the Scribe bus in creation order so a category id
/// survives a restore, stores each engine job's category id in place of
/// the platform's per-job category names, and stores the Scribe
/// watermarks by category id rather than by name; version 15 stores one
/// record per lost container (its onset and, while it lasts, its severed
/// connection) in place of the severed-connection table and the onset
/// table, and the set of critical jobs in place of every job's tier;
/// version 16 stores the critical jobs and their standbys as one Shard
/// Manager table in place of the platform's set and the manager's standby
/// map, no shadow read positions, and a release row only for a job whose
/// version changed; version 17 stores the engine's byte counters (each
/// partition's appended, consumed and mirrored bytes, and the scaler
/// window's) as integers; version 18 stores the Shard Manager's last beat
/// and its silent containers (each with the instant it was last heard) in
/// place of a heartbeat timestamp on every container, and no shadow-path
/// commit counter; version 19 stores one halt record per halted job (its
/// pause with the pause's state move, its capacity stop and its input
/// stall) in place of the paused set, the capacity-stopped set and the
/// state-move map; version 20 stores no Capacity Manager (it is a function
/// of the cluster's total), a Scribe partition as its one append count
/// (no payload records, retention mark or last-append time), and the
/// invariant checker's standby keys as one set (invariant 8's scan is part
/// of invariant 7's).
pub const SNAP_VERSION: u32 = 20;

/// Chunk size of the manifest: one digest per 4 KiB of stream, verified
/// on every restore and compared across snapshots. Small enough that an
/// unchanged region of the platform matches across consecutive captures,
/// large enough that the manifest stays a few hundred entries per
/// snapshot. Since v5 chunks are not stored apart: the stream is kept whole.
pub const CHUNK_SIZE: usize = 4096;

/// FNV-1a over a byte slice — the chunk content address.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut digest = Fnv1a::new();
    digest.write(bytes);
    digest.finish()
}

/// Capture-time context carried alongside the platform bytes, so a blob
/// is self-describing: a restored run can re-apply the remainder of its
/// scenario without the caller re-supplying it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotMeta {
    /// Simulated capture time, milliseconds since t=0.
    pub captured_at_ms: u64,
    /// The scenario source text the captured run was driving (JSON), if
    /// the capture came from a scenario runner.
    pub scenario: Option<String>,
    /// The scenario minute the capture was taken at, if minute-aligned.
    pub at_mins: Option<u64>,
}

turbine_types::snap_struct!(SnapshotMeta {
    captured_at_ms,
    scenario,
    at_mins
});

/// A complete platform snapshot: the platform stream, owned after a
/// capture and borrowed from the blob after [`Snapshot::from_bytes`], and
/// the digest of each of its chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot<'a> {
    /// Capture-time context (scenario text, capture minute).
    pub meta: SnapshotMeta,
    /// FNV-1a of each [`CHUNK_SIZE`] chunk of `stream`, in stream order.
    manifest: Vec<u64>,
    /// The encoded platform.
    stream: Cow<'a, [u8]>,
}

impl Snapshot<'static> {
    /// Capture the complete platform state.
    pub fn capture(platform: &Turbine) -> Self {
        Self::capture_with_meta(
            platform,
            SnapshotMeta {
                captured_at_ms: platform.now().as_millis(),
                scenario: None,
                at_mins: None,
            },
        )
    }

    /// Capture with explicit capture-time context (scenario runners).
    pub fn capture_with_meta(platform: &Turbine, meta: SnapshotMeta) -> Self {
        let mut w = SnapWriter::new();
        w.put(platform);
        let mut stream = w.into_bytes();
        // A snapshot that is kept (the fuzz harness keeps eight a run)
        // would otherwise hold on to the writer's doubling slack.
        stream.shrink_to_fit();
        Snapshot::from_stream(meta, Cow::Owned(stream))
    }
}

impl<'a> Snapshot<'a> {
    /// Hash the manifest of an encoded platform stream.
    fn from_stream(meta: SnapshotMeta, stream: Cow<'a, [u8]>) -> Self {
        let manifest = stream.chunks(CHUNK_SIZE).map(fnv1a).collect();
        Snapshot {
            meta,
            manifest,
            stream,
        }
    }

    /// Restore the platform. Every chunk is re-hashed against its manifest
    /// digest, then the stream is decoded in place; any corruption or
    /// truncation is a clean error.
    pub fn restore(&self) -> Result<Turbine, SnapError> {
        let chunks = self.stream.chunks(CHUNK_SIZE).zip(&self.manifest);
        for (i, (chunk, &digest)) in chunks.enumerate() {
            if fnv1a(chunk) != digest {
                return Err(SnapError::Corrupt(format!(
                    "chunk {i} content does not match digest {digest:#018x}"
                )));
            }
        }
        let mut r = SnapReader::new(&self.stream);
        let platform: Turbine = r.get()?;
        r.expect_end()?;
        Ok(platform)
    }

    /// Number of chunks in stream order (manifest length).
    pub fn chunk_count(&self) -> usize {
        self.manifest.len()
    }

    /// Number of distinct chunk digests (≤ [`Self::chunk_count`]; the
    /// difference is chunks that repeat within the stream).
    pub fn unique_chunk_count(&self) -> usize {
        self.digests().len()
    }

    /// The distinct chunk digests of the manifest.
    fn digests(&self) -> BTreeSet<u64> {
        self.manifest.iter().copied().collect()
    }

    /// Total platform-stream bytes this snapshot represents.
    pub fn stream_len(&self) -> u64 {
        self.stream.len() as u64
    }

    /// Serialize to the on-disk blob format (magic, version, meta,
    /// manifest, stream), allocating the blob once.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.put(&self.meta);
        w.put(&self.manifest);
        w.reserve(8 + self.stream.len());
        w.bytes(&self.stream);
        w.into_bytes()
    }

    /// Read a blob, validating magic, version and the manifest's length;
    /// the stream is borrowed from `data`, not copied. Chunk digests are
    /// verified later, at [`Self::restore`] time.
    pub fn from_bytes(data: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(data);
        let magic = r.bytes("Snapshot.magic")?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::Corrupt(
                "not a turbine snapshot (bad magic)".to_string(),
            ));
        }
        let version = r.u32("Snapshot.version")?;
        if version != SNAP_VERSION {
            return Err(SnapError::Version {
                found: version,
                supported: SNAP_VERSION,
            });
        }
        let meta = r.get()?;
        let manifest: Vec<u64> = r.get()?;
        let stream = r.bytes("Snapshot.stream")?;
        r.expect_end()?;
        let chunks = stream.len().div_ceil(CHUNK_SIZE);
        if manifest.len() != chunks {
            return Err(SnapError::Corrupt(format!(
                "a {} B stream is {chunks} chunks, the manifest lists {}",
                stream.len(),
                manifest.len()
            )));
        }
        Ok(Snapshot {
            meta,
            manifest,
            stream: Cow::Borrowed(stream),
        })
    }
}

/// Where a platform's snapshot bytes are: the encoded size of every field
/// of its stream, largest first (ties in stream order). The sizes add up
/// to [`Snapshot::stream_len`] of a capture taken at the same moment.
pub fn field_bytes(platform: &Turbine) -> Vec<(&'static str, usize)> {
    let mut table = platform.snap_field_bytes();
    table.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbine::TurbineConfig;
    use turbine_types::{Duration, JobId, Resources};

    fn small_platform() -> Turbine {
        let mut config = TurbineConfig::default();
        config.shard_count = 64;
        let mut t = Turbine::new(config);
        t.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        t.provision_job(
            JobId(1),
            turbine_config::JobConfig::stateless("snap_roundtrip", 4, 8),
            turbine_workloads::TrafficModel::flat(2.0e6),
            1.0e6,
            512.0,
        )
        .expect("provision");
        t.run_for(Duration::from_mins(10));
        t
    }

    #[test]
    fn capture_restore_roundtrips_bytes() {
        let t = small_platform();
        let snap = Snapshot::capture(&t);
        let restored = snap.restore().expect("restore");
        // Byte-identical re-capture: nothing was lost or reordered.
        let again = Snapshot::capture(&restored);
        assert_eq!(snap.manifest, again.manifest);
        assert_eq!(snap.stream, again.stream);
        assert_eq!(t.fingerprint(), restored.fingerprint());
    }

    #[test]
    fn blob_roundtrip_and_dedup() {
        let t = small_platform();
        let snap = Snapshot::capture(&t);
        let blob = snap.to_bytes();
        let back = Snapshot::from_bytes(&blob).expect("parse");
        assert_eq!(snap, back);
        assert!(back.unique_chunk_count() <= back.chunk_count());
        let restored = back.restore().expect("restore");
        assert_eq!(restored.now(), t.now());
        assert_eq!(Snapshot::capture(&restored).to_bytes(), blob);
    }

    #[test]
    fn consecutive_snapshots_share_chunks() {
        let mut t = small_platform();
        // Enough jobs that the Job Store spans several chunks: nothing is
        // written to it in 30 s, and every field ahead of it keeps its size.
        for j in 2..10 {
            t.provision_job(
                JobId(j),
                turbine_config::JobConfig::stateless(&format!("idle_{j}"), 1, 4),
                turbine_workloads::TrafficModel::flat(0.0),
                1.0e6,
                512.0,
            )
            .expect("provision");
        }
        t.run_for(Duration::from_mins(5));
        let a = Snapshot::capture(&t);
        t.run_for(Duration::from_secs(30));
        let b = Snapshot::capture(&t);
        // A 30 s step leaves that part of the platform stream untouched.
        assert!(a.digests().intersection(&b.digests()).count() > 0);
    }

    #[test]
    fn bit_flip_is_rejected_cleanly() {
        let t = small_platform();
        let snap = Snapshot::capture(&t);
        let mut blob = snap.to_bytes();
        // Flip one bit in the middle of the stream.
        let target = blob.len() / 2;
        blob[target] ^= 0x10;
        // Either the container fails to parse or the chunk digest check
        // catches it at restore — both are clean errors, never a panic.
        match Snapshot::from_bytes(&blob) {
            Err(_) => {}
            Ok(parsed) => {
                assert!(parsed.restore().is_err(), "flipped bit must not restore");
            }
        }
    }

    #[test]
    fn truncated_blob_is_rejected_cleanly() {
        let t = small_platform();
        let blob = Snapshot::capture(&t).to_bytes();
        assert!(Snapshot::from_bytes(&blob[..blob.len() / 2]).is_err());
        assert!(Snapshot::from_bytes(b"not a snapshot").is_err());
    }

    #[test]
    fn a_version_1_blob_is_refused_by_version() {
        let mut blob = Snapshot::capture(&small_platform()).to_bytes();
        // Length-prefixed magic, then the version field.
        let at = 8 + SNAP_MAGIC.len();
        assert_eq!(blob[at..at + 4], SNAP_VERSION.to_le_bytes());
        for older in 1..SNAP_VERSION {
            blob[at..at + 4].copy_from_slice(&older.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&blob),
                Err(SnapError::Version {
                    found: older,
                    supported: SNAP_VERSION
                })
            );
        }
    }

    /// `hosts` hosts running the same 24 jobs, converged: every manager
    /// holds the fleet's one task snapshot.
    fn fleet(hosts: usize) -> Turbine {
        let mut config = TurbineConfig::default();
        config.shard_count = 256;
        let mut t = Turbine::new(config);
        t.add_hosts(hosts, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        for j in 1..=24 {
            t.provision_job(
                JobId(j),
                turbine_config::JobConfig::stateless(&format!("fleet_{j}"), 4, 8),
                turbine_workloads::TrafficModel::flat(1.0e6),
                1.0e6,
                512.0,
            )
            .expect("provision");
        }
        t.run_for(Duration::from_mins(5));
        t
    }

    fn field(platform: &Turbine, name: &str) -> usize {
        let fields = field_bytes(platform);
        fields.iter().find(|f| f.0 == name).expect("a field").1
    }

    #[test]
    fn field_table_adds_up_and_leads_with_the_largest() {
        let t = small_platform();
        let fields = field_bytes(&t);
        assert_eq!(
            fields.iter().map(|f| f.1).sum::<usize>() as u64,
            Snapshot::capture(&t).stream_len()
        );
        assert!(fields.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(field(&t, "task_snapshots") > 0);
    }

    #[test]
    fn more_hosts_do_not_add_task_snapshot_copies() {
        let (small, large) = (fleet(16), fleet(64));
        let one_snapshot = field(&small, "task_snapshots");
        assert_eq!(one_snapshot, field(&large, "task_snapshots"), "same jobs");
        let added = Snapshot::capture(&large).stream_len() - Snapshot::capture(&small).stream_len();
        assert!(
            added < 48 * one_snapshot as u64 / 4,
            "48 more hosts added {added} B; one task snapshot is {one_snapshot} B"
        );
    }

    /// Byte offset of a field in the platform stream.
    fn offset_of(platform: &Turbine, name: &str) -> usize {
        let fields = platform.snap_field_bytes();
        let at = fields.iter().position(|f| f.0 == name).expect("a field");
        fields[..at].iter().map(|f| f.1).sum()
    }

    #[test]
    fn a_lying_stream_length_is_corrupt_before_it_is_an_allocation() {
        // An empty platform: a blob of a few chunks.
        let t = Turbine::new(TurbineConfig::default());
        let snap = Snapshot::capture(&t);
        let blob = snap.to_bytes();
        let (chunks, len) = (snap.chunk_count(), snap.stream_len());
        assert!(chunks >= 2);
        // Magic (length-prefixed), version, a scenario-less meta, the
        // manifest, then the stream's length prefix and the stream.
        let manifest_at = (8 + SNAP_MAGIC.len()) + 4 + (8 + 1 + 1);
        let at = manifest_at + 8 + 8 * chunks;
        assert_eq!(blob[at..at + 8], len.to_le_bytes());
        assert_eq!(blob.len() as u64, at as u64 + 8 + len);
        let parse = |blob: &[u8]| Snapshot::from_bytes(blob).map(|_| ());
        assert_eq!(parse(&blob), Ok(()));

        // The length prefix is bounded by the bytes left, and the stream
        // must end the blob.
        let with_len = |lie: u64| {
            let mut blob = blob.clone();
            blob[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            parse(&blob)
        };
        for lie in [u64::MAX, 1 << 40, len + 1] {
            assert_eq!(with_len(lie), Err(SnapError::Eof("Snapshot.stream")));
        }
        for lie in [len - CHUNK_SIZE as u64, 0] {
            assert!(
                matches!(with_len(lie), Err(SnapError::Corrupt(_))),
                "stream length {lie}"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(matches!(parse(&trailing), Err(SnapError::Corrupt(_))));

        // The manifest has one digest per chunk, no more and no fewer.
        let digests = &blob[manifest_at + 8..at];
        let with_entries = |entries: usize| {
            let mut lying = blob[..manifest_at].to_vec();
            lying.extend_from_slice(&(entries as u64).to_le_bytes());
            for i in 0..entries {
                lying.extend_from_slice(&digests[(i % chunks) * 8..][..8]);
            }
            lying.extend_from_slice(&blob[at..]);
            parse(&lying)
        };
        assert_eq!(with_entries(chunks), Ok(()));
        for entries in [chunks - 1, chunks + 1] {
            assert!(
                matches!(with_entries(entries), Err(SnapError::Corrupt(_))),
                "{entries} manifest entries"
            );
        }

        // A flipped byte mid-stream parses, and restore names its chunk.
        let mid = len as usize / 2;
        let mut flipped = blob.clone();
        flipped[at + 8 + mid] ^= 0x01;
        let parsed = Snapshot::from_bytes(&flipped).expect("parse");
        match parsed.restore() {
            Err(SnapError::Corrupt(detail)) => assert!(
                detail.starts_with(&format!("chunk {} ", mid / CHUNK_SIZE)),
                "{detail}"
            ),
            other => panic!("a flipped byte restored: {:?}", other.err()),
        }
    }

    #[test]
    fn a_lying_trace_ring_length_runs_off_the_end() {
        let t = small_platform();
        let stream = Snapshot::capture(&t).stream.into_owned();
        // The trace field alone, decoded as the ring it is: honest, it
        // decodes to its last byte, so only the lie below can fail it.
        let field = &stream[offset_of(&t, "trace")..offset_of(&t, "invariants")];
        let decode = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes);
            r.get::<turbine::TraceBuffer>()?;
            r.expect_end()
        };
        assert_eq!(decode(field), Ok(()));
        // The ring's length follows its capacity and next id. Claim one
        // event per byte left, the most `len_prefix` lets through: events
        // are ~120 B in memory, so reserving that many would ask for 120x
        // the stream.
        let mut lying = field.to_vec();
        lying[16..24].copy_from_slice(&((field.len() - 24) as u64).to_le_bytes());
        assert!(
            matches!(decode(&lying), Err(SnapError::Eof(_))),
            "{:?}",
            decode(&lying)
        );
    }

    /// Ids that cross fields are checked against the field that hands them
    /// out: an engine row bound to a category the bus does not have, and a
    /// Scribe watermark naming a series the registry does not have.
    #[test]
    fn hostile_category_and_series_ids_are_typed_errors() {
        let t = small_platform();
        let stream = Snapshot::capture(&t).stream.into_owned();
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream))
                .restore()
                .err()
        };
        assert_eq!(restore(&stream), None);

        // The one job re-bound to category 1 of a one-category bus.
        let at = offset_of(&t, "engine");
        let fields = t.snap_field_bytes();
        let len = fields.iter().find(|f| f.0 == "engine").expect("a field").1;
        let mut engine: turbine::engine::Engine = SnapReader::new(&stream[at..at + len])
            .get()
            .expect("decode");
        let past_the_bus = SnapReader::new(&1u32.to_le_bytes()).get().expect("an id");
        engine.bind_category(JobId(1), past_the_bus);
        let mut w = SnapWriter::new();
        w.put(&engine);
        let mut rebound = stream.clone();
        rebound[at..at + len].copy_from_slice(&w.into_bytes());
        assert_eq!(
            restore(&rebound),
            Some(SnapError::Value(
                "Engine job bound to a category the bus lacks"
            ))
        );

        // The stream ends with the one watermark: `Some`, its series id
        // and its append count.
        let id_at = stream.len() - 12;
        assert_eq!(stream[id_at - 1], 1, "Some");
        let mut past = stream.clone();
        past[id_at..id_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            restore(&past),
            Some(SnapError::Value("OdsState watermark series unknown"))
        );
    }

    /// A lost container's record is dated from its first cause, so it can
    /// never postdate its own severance: a blob that says otherwise is a
    /// typed error, not a platform whose outage onsets run backwards.
    #[test]
    fn a_loss_dated_after_its_severance_is_a_typed_error() {
        let mut t = small_platform();
        let container = t
            .cluster
            .containers_on(t.cluster.hosts()[0])
            .expect("a host")[0];
        t.sever_connection(container);
        let stream = Snapshot::capture(&t).stream.into_owned();
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream))
                .restore()
                .err()
        };
        assert_eq!(restore(&stream), None);

        // The field ends with the one record: its onset, `Some`, the
        // severance time (both now) and the reboot flag.
        let end = offset_of(&t, "outages");
        let (since_at, at_at) = (end - 18, end - 9);
        assert_eq!(stream[end - 10], 1, "Some");
        assert_eq!(stream[since_at..since_at + 8], stream[at_at..at_at + 8]);
        let since = u64::from_le_bytes(stream[since_at..since_at + 8].try_into().expect("8 bytes"));
        let mut later = stream.clone();
        later[since_at..since_at + 8].copy_from_slice(&(since + 1).to_le_bytes());
        assert_eq!(
            restore(&later),
            Some(SnapError::Value("Loss dated after its severance"))
        );
    }

    /// A halted job is halted for a reason the blob can name: a record with
    /// no cause, a state move outside a pause, and a stall cause that
    /// disagrees with the active stalls are each a typed error, not a job
    /// that never processes again.
    #[test]
    fn a_hostile_halt_table_is_a_typed_error() {
        use turbine::Fault;
        use turbine_types::SimTime;
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream))
                .restore()
                .err()
        };
        // The halt table as the stream writes it: its length, then each
        // job with its pause, state move, stop and stall.
        type Record = (bool, Option<SimTime>, bool, bool);
        let table = |records: &[Record]| {
            let mut w = SnapWriter::new();
            w.u64(records.len() as u64);
            for &(paused, state_move, stopped, stalled) in records {
                w.put(&JobId(1));
                w.put(&paused);
                w.put(&state_move);
                w.put(&stopped);
                w.put(&stalled);
            }
            w.into_bytes()
        };
        let with_table = |t: &Turbine, records: &[Record]| {
            let stream = Snapshot::capture(t).stream.into_owned();
            let (at, end) = (offset_of(t, "halts"), offset_of(t, "crash_mtbf"));
            let mut hostile = stream[..at].to_vec();
            hostile.extend(table(records));
            hostile.extend(&stream[end..]);
            restore(&hostile)
        };
        let disagree = Some(SnapError::Value(
            "Turbine halts disagree with the active stalls",
        ));

        // The one job's category is stalled: the table is its stall.
        let mut stalled = small_platform();
        let category = stalled.job_category(JobId(1)).expect("provisioned");
        stalled.inject_fault(Fault::ScribeStall(category.to_string()), None);
        let stream = Snapshot::capture(&stalled).stream.into_owned();
        let (at, end) = (
            offset_of(&stalled, "halts"),
            offset_of(&stalled, "crash_mtbf"),
        );
        assert_eq!(stream[at..end], table(&[(false, None, false, true)]));
        assert_eq!(restore(&stream), None);

        assert_eq!(
            with_table(&stalled, &[(false, None, false, false)]),
            Some(SnapError::Value("Halt with no cause"))
        );
        let moving = Some(SimTime::from_millis(1));
        assert_eq!(
            with_table(&stalled, &[(false, moving, false, true)]),
            Some(SnapError::Value("Halt state move outside a pause"))
        );
        assert_eq!(with_table(&stalled, &[(true, moving, false, true)]), None);
        // The stalled category's job without the cause.
        assert_eq!(
            with_table(&stalled, &[(false, None, true, false)]),
            disagree
        );
        assert_eq!(with_table(&stalled, &[]), disagree);
        // A stall cause with no stall.
        let calm = small_platform();
        assert_eq!(with_table(&calm, &[]), None);
        assert_eq!(with_table(&calm, &[(false, None, false, true)]), disagree);
    }

    /// A standby is one of the Shard Manager's own containers: a blob whose
    /// critical table names a container the manager does not register is
    /// a typed error, not a promotion onto a container nobody runs.
    #[test]
    fn a_standby_the_manager_does_not_register_is_a_typed_error() {
        let mut t = Turbine::new(TurbineConfig::default());
        t.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        let mut critical = turbine_config::JobConfig::stateless("critical", 2, 8);
        critical.resiliency = turbine_config::ResiliencyClass::Critical;
        let traffic = turbine_workloads::TrafficModel::flat(1.0e6);
        t.provision_job(JobId(1), critical, traffic, 1.0e6, 256.0)
            .expect("provision");
        t.run_for(Duration::from_mins(5));
        let standby = t.standby_of(JobId(1)).expect("a standby");
        let stream = Snapshot::capture(&t).stream.into_owned();
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream))
                .restore()
                .err()
        };
        assert_eq!(restore(&stream), None);

        // The manager ends with its one critical job: the job, `Some` and
        // the standby's container id.
        let end = offset_of(&t, "task_managers");
        assert_eq!(stream[end - 9], 1, "Some");
        assert_eq!(stream[end - 8..end], standby.raw().to_le_bytes());
        let mut unknown = stream.clone();
        unknown[end - 8..end].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            restore(&unknown),
            Some(SnapError::Value("ShardManager standby unregistered"))
        );
    }

    /// The Shard Manager's silent table is checked against its own
    /// containers: a silent entry naming a container it does not register,
    /// a dead container missing from the table, and a dead container heard
    /// after the last beat are each a typed error, not a fail-over that
    /// never comes.
    #[test]
    fn a_hostile_silent_table_is_a_typed_error() {
        let mut t = small_platform();
        let container = t
            .cluster
            .containers_on(t.cluster.hosts()[0])
            .expect("a host")[0];
        t.sever_connection(container);
        t.run_for(Duration::from_mins(2));
        assert_eq!(
            t.shard_manager().status(container),
            Some(turbine_shardmgr::ContainerStatus::Dead)
        );
        let stream = Snapshot::capture(&t).stream.into_owned();
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream))
                .restore()
                .err()
        };
        assert_eq!(restore(&stream), None);

        // After the configuration come the shard loads (each: id and
        // load), the containers (each: id, capacity and a status tag), the
        // last beat and the silent table: here one entry, the dead
        // container and when it was last heard.
        let loads_at = offset_of(&t, "shard_manager") + {
            let mut w = SnapWriter::new();
            w.put(&t.config().shardmgr);
            w.into_bytes().len()
        };
        let containers = t.task_managers().len();
        let shards = t.config().shard_count as usize;
        let table_at = loads_at + 8 + shards * (8 + 32) + 8 + containers * (8 + 32 + 1) + 8;
        assert_eq!(stream[table_at..table_at + 8], 1u64.to_le_bytes());
        let id_at = table_at + 8;
        assert_eq!(stream[id_at..id_at + 8], container.raw().to_le_bytes());
        let (beat_at, heard_at) = (table_at - 8, id_at + 8);
        let last_beat = u64::from_le_bytes(stream[beat_at..table_at].try_into().expect("8 bytes"));

        let mut unknown = stream.clone();
        unknown[id_at..id_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            restore(&unknown),
            Some(SnapError::Value(
                "ShardManager silent container unregistered"
            ))
        );
        // Renamed to a live container: the dead one is no longer silent.
        let mut heard = stream.clone();
        let live = t
            .task_managers()
            .keys()
            .find(|&&c| c != container)
            .expect("another");
        heard[id_at..id_at + 8].copy_from_slice(&live.raw().to_le_bytes());
        assert_eq!(
            restore(&heard),
            Some(SnapError::Value("ShardManager dead container not silent"))
        );
        let mut later = stream.clone();
        later[heard_at..heard_at + 8].copy_from_slice(&(last_beat + 1).to_le_bytes());
        assert_eq!(
            restore(&later),
            Some(SnapError::Value(
                "ShardManager dead container heard after the last beat"
            ))
        );
    }

    #[test]
    fn hostile_snapshot_tables_are_typed_errors() {
        let t = small_platform();
        let stream = Snapshot::capture(&t).stream.into_owned();
        let restore = |stream: &[u8]| {
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(stream)).restore()
        };
        assert!(restore(&stream).is_ok());

        // The Task Service names an entry the table does not have: its
        // index follows the TTL and the shard count.
        let index_at = offset_of(&t, "task_service") + 16;
        assert_eq!(stream[index_at..index_at + 8], 0u64.to_le_bytes());
        let mut past = stream.clone();
        past[index_at..index_at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(restore(&past), Err(SnapError::Value(_))));
        past[index_at..index_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(restore(&past), Err(SnapError::Value(_))));

        // The table announces more snapshots than it holds: the decoder
        // runs on into the Task Service's bytes and fails there.
        let table_at = offset_of(&t, "task_snapshots");
        assert_eq!(stream[table_at..table_at + 8], 1u64.to_le_bytes());
        let mut long = stream.clone();
        long[table_at..table_at + 8].copy_from_slice(&2u64.to_le_bytes());
        assert!(restore(&long).is_err());
        // And a stream cut anywhere inside the table is an error.
        let table_end = offset_of(&t, "task_service");
        for cut in (table_at..table_end).step_by(7) {
            assert!(
                matches!(restore(&stream[..cut]), Err(SnapError::Eof(_))),
                "cut {cut}"
            );
        }
    }
}
