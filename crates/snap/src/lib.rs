//! Content-addressed whole-simulation snapshots.
//!
//! A [`Snapshot`] captures the complete [`Turbine`] platform — engine
//! arenas and dirty sets, Scribe partitions/checkpoints/shadow cursors,
//! Job Store and WAL, shard map and standby registry, the control event
//! queue, fault injector, RNG streams, trace ring, and the ODS registry —
//! as one deterministic byte stream, held whole, plus a manifest of the
//! FNV-1a digests of its fixed-size chunks in stream order. A captured
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
/// invariant checker's count of sparse checks (every check is one).
pub const SNAP_VERSION: u32 = 10;

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

/// How many chunks two snapshots share — the cross-snapshot dedup a
/// periodic capture cadence gets for free. Counts distinct digests
/// present in both manifests.
pub fn shared_chunks(a: &Snapshot<'_>, b: &Snapshot<'_>) -> usize {
    a.digests().intersection(&b.digests()).count()
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
        assert!(shared_chunks(&a, &b) > 0);
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
        // The trace ring's length follows its capacity and next id. Claim
        // one event per byte left, the most `len_prefix` lets through:
        // events are ~120 B in memory, so reserving that many would ask
        // for 120x the stream.
        let at = offset_of(&t, "trace") + 16;
        let mut lying = stream.clone();
        lying[at..at + 8].copy_from_slice(&((stream.len() - at - 8) as u64).to_le_bytes());
        let restored =
            Snapshot::from_stream(SnapshotMeta::default(), Cow::Borrowed(&lying)).restore();
        assert!(matches!(restored.err(), Some(SnapError::Eof(_))));
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
