//! The workspace's one FNV-1a: every run digest (platform fingerprint,
//! fault log, decision trace) and the snapshot chunk address hash through
//! it, so "the same digest" means the same function everywhere.

/// Incremental 64-bit FNV-1a. Feeding a byte string in pieces yields the
/// digest of the concatenation, and [`Fnv1a::resume`] continues from a
/// stored [`Fnv1a::finish`] value, so a running digest can live in a
/// snapshot as a plain `u64`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest of nothing yet (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Continue a digest from the value an earlier [`Fnv1a::finish`] gave.
    pub const fn resume(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

crate::snap_struct!(Fnv1a(state));

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_resumes() {
        // Reference vectors from the FNV specification (64-bit FNV-1a).
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv1a::new();
        a.write(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut whole = Fnv1a::new();
        whole.write(b"foobar");
        assert_eq!(whole.finish(), 0x8594_4171_f739_67e8);
        let mut first = Fnv1a::new();
        first.write(b"foo");
        let mut rest = Fnv1a::resume(first.finish());
        rest.write(b"bar");
        assert_eq!(rest.finish(), whole.finish());
    }
}
