//! A blob is decoded where it lies.
//!
//! `Snapshot::from_bytes` borrows the platform stream from the blob rather
//! than copying it, and `capture` hashes its manifest from the encoded
//! stream rather than copying it into chunks. This file counts what each
//! asks the allocator for. It holds one test, so nothing else allocates on
//! another thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use turbine::{Turbine, TurbineConfig};
use turbine_snap::{Snapshot, SnapshotMeta};
use turbine_types::{Duration, JobId, Resources, SnapWriter};

struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and guard nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, the bytes it requested and how many requests it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    REQUESTED.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    let out = f();
    (
        out,
        REQUESTED.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
    )
}

/// A converged fleet whose stream is a few MB.
fn fleet() -> Turbine {
    let mut config = TurbineConfig::default();
    config.shard_count = 256;
    let mut t = Turbine::new(config);
    t.add_hosts(200, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
    for j in 1..=600 {
        t.provision_job(
            JobId(j),
            turbine_config::JobConfig::stateless(&format!("in_place_{j}"), 4, 8),
            turbine_workloads::TrafficModel::flat(1.0e6),
            1.0e6,
            512.0,
        )
        .expect("provision");
    }
    t.run_for(Duration::from_mins(10));
    t
}

#[test]
fn a_blob_is_read_where_it_lies_and_a_capture_copies_no_chunks() {
    let t = fleet();
    let meta = SnapshotMeta {
        captured_at_ms: t.now().as_millis(),
        scenario: Some("{\"hosts\": 200}".repeat(16)),
        at_mins: Some(10),
    };
    let scenario_len = meta.scenario.as_ref().map_or(0, String::len);
    let blob = Snapshot::capture_with_meta(&t, meta).to_bytes();
    assert!(blob.len() > 4 << 20, "a blob of {} B", blob.len());

    // Reading a blob allocates its manifest and its meta, not its stream.
    let (snapshot, requested, _) = counted(|| Snapshot::from_bytes(&blob).expect("parse"));
    let bound = 8 * snapshot.chunk_count() + scenario_len + 1024;
    assert!(
        requested <= bound,
        "from_bytes of a {} B blob requested {requested} B (bound {bound} B)",
        blob.len()
    );
    assert_eq!(
        snapshot.restore().expect("restore").fingerprint(),
        t.fingerprint()
    );

    // A capture is the encode plus a constant few allocations (shrinking
    // the stream, the manifest), however many chunks the stream has.
    let ((), _, encode_calls) = counted(|| {
        let mut w = SnapWriter::new();
        w.put(&t);
        drop(w.into_bytes());
    });
    let (snapshot, _, capture_calls) = counted(|| Snapshot::capture(&t));
    assert!(
        capture_calls <= encode_calls + 4,
        "capture made {capture_calls} allocations, its encode {encode_calls}, \
         for {} chunks",
        snapshot.chunk_count()
    );
}
