//! A length in a blob is not an allocation size.
//!
//! `SnapReader::len_prefix` bounds a collection's length by the bytes that
//! remain, which bounds the *elements*, not the memory: reserving `len`
//! elements of a 128-byte type asks for 128× the input. Every decoder sizes
//! its reservation with `SnapReader::prealloc` instead. This file counts
//! what the decode of a lying prefix asks the allocator for. It holds one
//! test, so nothing else allocates on another thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use turbine_types::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and guard nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sixteen words: 128 bytes in memory and on the wire.
#[derive(Debug, Default, PartialEq)]
struct Wide {
    words: [u64; 16],
}
snap_struct!(Wide { words });

/// Bytes requested in total, and in the largest single request, by `decode`.
fn requested_by<T>(decode: impl FnOnce() -> T) -> (T, usize, usize) {
    REQUESTED.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let out = decode();
    (
        out,
        REQUESTED.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    )
}

/// `input_len` bytes: a length prefix claiming as many elements as
/// `len_prefix` lets through (one per remaining byte), then zeroes.
fn lying_stream(input_len: usize) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64((input_len - 8) as u64);
    let mut bytes = w.into_bytes();
    bytes.resize(input_len, 0);
    bytes
}

/// The decode fails, having asked for no more than `factor` times the
/// input's length in one request.
fn assert_bounded<T: Snap>(what: &str, input: &[u8], factor: usize) {
    let (result, total, largest) = requested_by(|| SnapReader::new(input).get::<T>().err());
    assert!(
        matches!(result, Some(SnapError::Eof(_))),
        "{what}: a lying prefix runs off the end, got {result:?}"
    );
    assert!(
        largest <= factor * input.len() && total <= 4 * input.len(),
        "{what}: {} input bytes made the decoder request {total} B ({largest} B at once)",
        input.len()
    );
}

#[test]
fn a_lying_length_prefix_never_requests_more_than_the_input_holds() {
    assert_eq!(std::mem::size_of::<Wide>(), 128);
    let input = lying_stream(64 * 1024);
    // Reserving the claimed length would ask for 128 × 64 KiB = 8 MiB.
    assert_bounded::<Vec<Wide>>("Vec", &input, 1);
    assert_bounded::<VecDeque<Wide>>("VecDeque", &input, 1);
    // A hash table rounds its buckets up to a power of two at 7/8 load.
    assert_bounded::<HashMap<u64, Wide>>("HashMap", &input, 3);
    // A lie one level down: an honest outer length, a lying inner one.
    let mut nested = 1u64.to_le_bytes().to_vec();
    nested.extend_from_slice(&input);
    assert_bounded::<Vec<Vec<Wide>>>("nested Vec", &nested, 1);

    // An honest stream of the same shape decodes, from one exact
    // reservation when the elements are no larger in memory than encoded.
    let honest: Vec<Wide> = (0..400).map(|_| Wide::default()).collect();
    let mut w = SnapWriter::new();
    w.put(&honest);
    let bytes = w.into_bytes();
    let (back, total, largest) = requested_by(|| SnapReader::new(&bytes).get::<Vec<Wide>>());
    assert_eq!(back.as_ref(), Ok(&honest));
    assert_eq!((total, largest), (400 * 128, 400 * 128));
}
