//! The deterministic binary codec behind whole-sim snapshots.
//!
//! Every stateful component implements [`Snap`] for its state so the
//! platform can be serialized into a byte blob and rebuilt bit-for-bit:
//! restore-then-drive must produce the identical fingerprint and trace
//! digest as an uninterrupted run. The format is deliberately simple —
//! fixed-width little-endian scalars, length-prefixed collections, one
//! tag byte per enum variant — because simplicity is what makes "did we
//! capture everything?" auditable. Nothing in a stream is skippable or
//! self-describing: the blob around it carries one format version
//! (`SNAP_VERSION` in `turbine-snap`), a reader refuses any other with
//! [`SnapError::Version`], and any change to what a type writes bumps it.
//!
//! **A type's bytes are written once.** A struct's layout is one field
//! list given to [`snap_struct!`](crate::snap_struct), an enum's one
//! `tag => Variant` table given to [`snap_enum!`](crate::snap_enum); each
//! generates the encoder and the decoder from that list, binds the value
//! exhaustively, and so stops compiling when a field or variant is named
//! nowhere. Fields that are deliberately not in the stream are named in
//! the list's `derived` clause with the expression that rebuilds them. A
//! `HashMap` sorts itself by key on the way out, so equal maps always give
//! equal bytes.
//!
//! What stays written by hand, each with a line saying why: the
//! primitives, tuples and collections below; decoders that need context
//! or rebuild an index from what they read (`TimeSeries`, `Registry`,
//! `Engine`, `EventQueue`, the shared task-snapshot table, …); and values
//! whose stream form is not their fields (flat maps).
//!
//! Decoding is total: every read is bounds-checked, every tag is matched
//! exhaustively and every length is bounded by the bytes that remain
//! before anything is allocated for it ([`SnapReader::prealloc`]), so a
//! truncated, bit-flipped or hostile blob surfaces as a typed
//! [`SnapError`], never a panic and never an allocation larger than the
//! input.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// A failed snapshot decode. Carries the field being decoded so a corrupt
/// blob points at the layer that rejected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The blob ended while decoding `what`.
    Eof(&'static str),
    /// An enum tag had no matching variant while decoding `what`.
    Tag(&'static str, u64),
    /// A decoded value violated an invariant of `what`.
    Value(&'static str),
    /// Blob-level corruption: bad magic, chunk digest mismatch, manifest
    /// inconsistency. The string names the mismatch.
    Corrupt(String),
    /// The blob was written in another format version than this build
    /// reads. Nothing past the version field was looked at.
    Version {
        /// The version the blob declares.
        found: u32,
        /// The one version this build encodes and decodes.
        supported: u32,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof(what) => write!(f, "snapshot truncated while decoding {what}"),
            SnapError::Tag(what, tag) => {
                write!(f, "snapshot has unknown tag {tag} for {what}")
            }
            SnapError::Value(what) => write!(f, "snapshot holds an invalid value for {what}"),
            SnapError::Corrupt(detail) => write!(f, "snapshot corrupt: {detail}"),
            SnapError::Version { found, supported } => write!(
                f,
                "snapshot format version {found}, this build reads {supported}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Make room for exactly `additional` more bytes, so a writer whose
    /// final length is known grows once rather than by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Write raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Encode any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.snap(self);
    }

    /// Write a vocabulary word as text; [`SnapReader::word`] reads it back.
    pub fn word(&mut self, word: &str) {
        self.bytes(word.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded blob.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fail unless the whole blob was consumed — catches a decoder that
    /// silently read less state than the encoder wrote.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof(what));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], SnapError> {
        let len = self.len_prefix(what)?;
        self.take(len, what)
    }

    /// Read a collection length prefix. An element takes at least one byte,
    /// so a length past the bytes remaining is a truncated blob. The bound
    /// is in *elements*: size an allocation with [`Self::prealloc`], never
    /// with the length itself.
    pub fn len_prefix(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let len = self.u64(what)?;
        if len > self.remaining() as u64 {
            return Err(SnapError::Eof(what));
        }
        Ok(len as usize)
    }

    /// How many `T`s to reserve ahead of decoding `len` of them: `len`,
    /// capped so the reservation is never more bytes than the blob still
    /// holds. A lying length then costs no more memory than the input
    /// already does; an honest collection whose elements are larger in
    /// memory than on the wire grows the rest of the way as it fills.
    pub fn prealloc<T>(&self, len: usize) -> usize {
        len.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Decode any [`Snap`] value.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::unsnap(self)
    }

    /// Read a word [`SnapWriter::word`] wrote and intern it back into the
    /// `&'static str` of `vocabulary` it names. A restored value must be
    /// one of the vocabulary's own strings, so any other text is a corrupt
    /// blob: [`SnapError::Value`]`(what)`, never a new word.
    pub fn word(
        &mut self,
        vocabulary: &[&'static str],
        what: &'static str,
    ) -> Result<&'static str, SnapError> {
        let text: String = self.get()?;
        vocabulary
            .iter()
            .copied()
            .find(|word| *word == text)
            .ok_or(SnapError::Value(what))
    }
}

/// Complete, deterministic (de)serialization of one piece of simulation
/// state. `unsnap(snap(x)) == x` must hold for every observable behavior
/// of `x` — any state that influences future evolution must round-trip.
pub trait Snap: Sized {
    /// Encode `self` into the writer.
    fn snap(&self, w: &mut SnapWriter);
    /// Decode a value; total (never panics on corrupt input).
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implement [`Snap`] for a struct from **one** field list: the fields are
/// written in the order listed and read back in the same order.
///
/// `snap` binds `self` by exhaustive destructuring, so a field of the
/// struct that the invocation names nowhere does not compile — a snapshot
/// cannot silently omit it. A `&'static str` field drawn from a fixed
/// vocabulary is listed as `field in TABLE`: it is written as text and
/// interned back into `TABLE` on decode ([`SnapReader::word`]), and a word
/// outside it is [`SnapError::Value`]`("Type.field unknown")`. The clauses
/// after the list are optional:
///
/// * `derived { field: expr, .. }` names the fields deliberately *not* in
///   the stream and how each is rebuilt. The decoder binds every listed
///   field to a local of its own name first, so a `derived` expression may
///   read them; give such a field its type in the list (`items: Vec<u64>`)
///   so the expression type-checks.
/// * `check |v| cond => "what"` (any number) validates the decoded value:
///   when `cond` is false for `v: &Self` the decoder returns
///   [`SnapError::Value`]`("what")`.
///
/// A generic container names its parameters with one bound each
/// (`Store<W: Storage> { .. }`); every parameter must itself be [`Snap`].
///
/// ```
/// use turbine_types::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Point,
///     Circle(u64),
///     Rect { w: u64, h: u64 },
/// }
/// snap_enum!(Shape { 0 => Point, 1 => Circle(radius), 2 => Rect { w, h } });
///
/// #[derive(Debug, PartialEq)]
/// struct Canvas {
///     shapes: Vec<Shape>,
///     zoom: f64,
///     /// A cache: rebuilt, never stored.
///     count: usize,
/// }
/// snap_struct!(Canvas { shapes: Vec<Shape>, zoom }
///     derived { count: shapes.len() }
///     check |c| c.zoom > 0.0 => "Canvas.zoom not positive");
///
/// let canvas = Canvas { shapes: vec![Shape::Circle(3), Shape::Point], zoom: 2.0, count: 2 };
/// let mut w = SnapWriter::new();
/// w.put(&canvas);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + (1 + 8) + 1 + 8);
/// assert_eq!(SnapReader::new(&bytes).get::<Canvas>(), Ok(canvas));
/// ```
///
/// A field in neither the list nor `derived` is a compile error:
///
/// ```compile_fail
/// struct Host { id: u64, healthy: bool, load: f64 }
/// turbine_types::snap_struct!(Host { id, healthy });
/// ```
#[macro_export]
macro_rules! snap_struct {
    (
        $ty:ident $(<$($g:ident: $bound:path),+>)?
        { $($field:ident $(in $vocab:path)? $(: $fty:ty)?),* $(,)? }
        $(derived { $($derived:ident : $rebuild:expr),* $(,)? })?
        $(check |$v:ident| $ok:expr => $what:literal)*
    ) => {
        impl $(<$($g: $bound + $crate::Snap),+>)? $crate::Snap for $ty $(<$($g),+>)? {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                let $ty { $($field,)* $($($derived: _,)*)? } = self;
                $($crate::snap_struct!(@put w, $field $(in $vocab)?);)*
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                $(let $field $(: $fty)? = $crate::snap_struct!(@get r,
                    concat!(stringify!($ty), ".", stringify!($field), " unknown") $(, in $vocab)?);)*
                $($(let $derived = $rebuild;)*)?
                let value = $ty { $($field,)* $($($derived,)*)? };
                $(
                    let $v = &value;
                    if !($ok) {
                        return Err($crate::SnapError::Value($what));
                    }
                )*
                Ok(value)
            }
        }
    };
    // A tuple struct: the names are only binders.
    ($ty:ident ( $($t:ident),+ $(,)? )) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                let $ty($($t),+) = self;
                $(w.put($t);)+
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                $(let $t = r.get()?;)+
                Ok($ty($($t),+))
            }
        }
    };
    // One field's encode and decode; `in TABLE` marks a vocabulary word.
    // `trace_records!` in `turbine-trace` uses these too.
    (@put $w:ident, $field:ident) => { $w.put($field) };
    (@put $w:ident, $field:ident in $vocab:path) => { $w.word($field) };
    (@get $r:ident, $what:expr) => { $r.get()? };
    (@get $r:ident, $what:expr, in $vocab:path) => { $r.word(&$vocab, $what)? };
}

/// Implement [`Snap`] for an enum from **one** `tag => Variant` table: one
/// tag byte, then the variant's fields in the order listed. Unit, tuple
/// (`Variant(a, b)`, the names are only binders) and struct
/// (`Variant { a, b }`) variants are all covered; see [`snap_struct!`] for
/// a worked example.
///
/// Tags are written out, never inferred from declaration order, so
/// reordering the enum's variants cannot change a blob. The encoder's
/// `match` is exhaustive — a variant the table does not name is a compile
/// error — and an unknown tag decodes to [`SnapError::Tag`] with the
/// enum's name.
///
/// ```compile_fail
/// enum Light { Red, Amber, Green }
/// turbine_types::snap_enum!(Light { 0 => Red, 1 => Green });
/// ```
///
/// Two variants cannot share a tag:
///
/// ```compile_fail
/// enum Light { Red, Green }
/// turbine_types::snap_enum!(Light { 0 => Red, 0 => Green });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $(( $($t:ident),+ $(,)? ))?
            $({ $($f:ident),+ $(,)? })?
    ),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                match self {$(
                    $ty::$variant $(( $($t),+ ))? $({ $($f),+ })? => {
                        w.u8($tag);
                        $($(w.put($t);)+)?
                        $($(w.put($f);)+)?
                    }
                )+}
            }
            #[deny(unreachable_patterns)]
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                match r.u8(stringify!($ty))? {
                    $($tag => {
                        $($(let $t = r.get()?;)+)?
                        $($(let $f = r.get()?;)+)?
                        Ok($ty::$variant $(( $($t),+ ))? $({ $($f),+ })?)
                    })+
                    tag => Err($crate::SnapError::Tag(stringify!($ty), u64::from(tag))),
                }
            }
        }
    };
}

/// Declare a change feed: one key type, a fixed list of named readers and
/// one set per reader. `mark(k)` adds `k` for every reader, `mark_for` for
/// one, and `drain(reader)` takes that reader's set: what was marked since
/// its last drain, each key once. Each reader drains at one call site. The
/// sets are ordinary [`Snap`] state, so a restored feed owes each reader
/// what the uninterrupted one does. See the `change_feed` unit test below.
#[macro_export]
macro_rules! change_feed {
    (
        $(#[$meta:meta])*
        $vis:vis struct $feed:ident<$key:ty> for $reader:ident {
            $($(#[$rmeta:meta])* $variant:ident => $set:ident),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        $vis struct $feed {
            $($set: ::std::collections::BTreeSet<$key>,)+
        }

        #[doc = concat!("The readers of [`", stringify!($feed), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $reader {
            $($(#[$rmeta])* $variant,)+
        }

        impl $feed {
            /// `key` changed for every reader.
            $vis fn mark(&mut self, key: $key) {
                $(self.$set.insert(key);)+
            }

            /// `key` changed in a way only `reader` reads.
            $vis fn mark_for(&mut self, reader: $reader, key: $key) {
                match reader { $($reader::$variant => self.$set.insert(key),)+ };
            }

            /// Take what was marked for `reader` since its last drain.
            $vis fn drain(&mut self, reader: $reader) -> ::std::collections::BTreeSet<$key> {
                ::std::mem::take(match reader { $($reader::$variant => &mut self.$set,)+ })
            }
        }

        $crate::snap_struct!($feed { $($set),+ });
    };
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8("u8")
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32("u32")
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64("u64")
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64("i64")? as i64)
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.u64("usize")?).map_err(|_| SnapError::Value("usize"))
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::Tag("bool", tag as u64)),
        }
    }
}

impl Snap for f64 {
    /// Bit-pattern round-trip: NaN payloads and signed zeros survive, so
    /// restored floating-point state is indistinguishable from the
    /// original.
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64("f64")?))
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.bytes(self.as_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bytes = r.bytes("string")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Value("string utf-8"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            tag => Err(SnapError::Tag("option", tag as u64)),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.len_prefix("vec length")?;
        let mut out = Vec::with_capacity(r.prealloc::<T>(len));
        for _ in 0..len {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

/// A fixed-size array is its elements in order, with no length prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut failed = None;
        let items: [Option<T>; N] = std::array::from_fn(|_| match failed {
            None => T::unsnap(r).map_err(|e| failed = Some(e)).ok(),
            Some(_) => None,
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(items.map(|item| item.expect("decoded without an error"))),
        }
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.len_prefix("deque length")?;
        let mut out = VecDeque::with_capacity(r.prealloc::<T>(len));
        for _ in 0..len {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.len_prefix("map length")?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Written as a [`BTreeMap`] of the same pairs: sorted by key, so equal
/// maps give equal bytes whatever their iteration order.
impl<K: Snap + Ord + Hash + Eq, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.u64(pairs.len() as u64);
        for (k, v) in pairs {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.len_prefix("map length")?;
        let mut out = HashMap::with_capacity_and_hasher(r.prealloc::<(K, V)>(len), S::default());
        for _ in 0..len {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.len_prefix("set length")?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
        self.3.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?, D::unsnap(r)?))
    }
}

use crate::{ContainerId, HostId, JobId, PartitionId, Priority, Resources, ShardId, TaskId};

snap_struct!(JobId(raw));
snap_struct!(ShardId(raw));
snap_struct!(ContainerId(raw));
snap_struct!(HostId(raw));
snap_struct!(PartitionId(raw));
snap_struct!(TaskId { job, index });
snap_enum!(Priority { 0 => Low, 1 => Normal, 2 => High, 3 => Privileged });
snap_struct!(Resources {
    cpu,
    memory_mb,
    disk_mb,
    network_mbps
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        w.put(&v);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back: T = r.get().expect("decode");
        r.expect_end().expect("fully consumed");
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(f64::NEG_INFINITY);
        roundtrip("héllo".to_string());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.put(&weird);
        let bytes = w.into_bytes();
        let back: f64 = SnapReader::new(&bytes).get().expect("decode");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Some(vec!["a".to_string()]));
        roundtrip(Option::<u64>::None);
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 7u64);
        roundtrip(map);
        let set: BTreeSet<u64> = [3, 1, 2].into_iter().collect();
        roundtrip(set);
        let deque: VecDeque<u32> = [9, 8].into_iter().collect();
        roundtrip(deque);
        roundtrip((1u64, "x".to_string(), false));
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(crate::SimTime::from_millis(123_456));
        roundtrip(crate::Duration::from_millis(789));
        roundtrip(crate::JobId(7));
        roundtrip(crate::TaskId {
            job: crate::JobId(7),
            index: 3,
        });
        roundtrip(crate::Priority::Privileged);
        roundtrip(crate::Resources::new(1.5, 2.5, 3.5, 4.5));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut w = SnapWriter::new();
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                Vec::<u64>::unsnap(&mut r).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(Vec::<u64>::unsnap(&mut r), Err(SnapError::Eof(_))));
    }

    crate::change_feed! {
        /// Rows that changed.
        struct Rows<u64> for RowReader {
            /// The first reader.
            Sync => sync,
            /// The second.
            Audit => audit,
        }
    }

    #[test]
    fn change_feed() {
        let mut rows = Rows::default();
        rows.mark(7);
        rows.mark(3);
        rows.mark(7);
        let drain = |rows: &mut Rows, reader| rows.drain(reader).into_iter().collect::<Vec<_>>();
        assert_eq!(drain(&mut rows, RowReader::Sync), [3, 7], "each key once");
        assert!(drain(&mut rows, RowReader::Sync).is_empty());
        rows.mark_for(RowReader::Sync, 9);
        let mut w = SnapWriter::new();
        w.put(&rows);
        let bytes = w.into_bytes();
        let mut back: Rows = SnapReader::new(&bytes).get().expect("decode");
        assert_eq!(back, rows, "stored, not rebuilt");
        assert_eq!(
            drain(&mut back, RowReader::Audit),
            [3, 7],
            "one reader's drain"
        );
        assert_eq!(drain(&mut back, RowReader::Sync), [9]);
    }

    #[test]
    fn bad_tags_are_rejected() {
        let bytes = [9u8];
        assert!(matches!(
            bool::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Tag("bool", 9))
        ));
        assert!(matches!(
            crate::Priority::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Tag("Priority", 9))
        ));
        assert!(matches!(
            Option::<u64>::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Tag("option", 9))
        ));
    }
}
