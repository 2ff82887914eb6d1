//! The workspace's two non-cryptographic hashes, once: FNV-1a (64-bit) for
//! stable content and routing keys, and the SplitMix64 mixer for seeding
//! and id derivation. Graph fingerprints, routing keys, registry manifests,
//! trace ids and every RNG seed go through here, so the values are the
//! same in every crate, process and platform.
//!
//! Everything is `#[inline]` plain integer code: callers on hot paths (the
//! graph fingerprint, the embedding-cache shard pick) compile to the same
//! byte loop as a local copy would.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A streaming FNV-1a 64-bit hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts from the standard FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Starts from a caller-chosen state — a keyed variant, not the
    /// standard hash.
    #[inline]
    pub fn with_basis(basis: u64) -> Self {
        Self(basis)
    }

    /// Folds `bytes` in, one at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds the eight little-endian bytes of `v` in.
    #[inline]
    pub fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// The SplitMix64 output function applied to `x + γ`: a cheap,
/// well-distributed bijection on `u64`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 generator: advances `state` by γ and
/// returns the next output. Used to expand a seed into RNG state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_in_pieces_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.u64_le(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv1a(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let mut keyed = Fnv1a::with_basis(fnv1a(b"foo"));
        keyed.bytes(b"bar");
        assert_eq!(keyed.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn mix64_matches_the_published_splitmix64_stream() {
        // The first three outputs of SplitMix64 seeded with 0.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        let mut state = 0;
        let stream: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            stream,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }
}
