//! Page fingerprints and logical content identities.
//!
//! Traces in this workspace carry a [`ContentId`] per written page: an
//! opaque 64-bit identity standing in for "what bytes the page holds" (the
//! FIU traces the paper replays likewise ship a per-request content hash
//! rather than data). Two pages are duplicates iff their `ContentId`s are
//! equal. A [`Fingerprint`] is the 160-bit value the dedup index is keyed
//! by. Where page *bytes* exist it is their SHA-1 digest
//! ([`Fingerprint::of_bytes`]); where only a `ContentId` exists — every
//! simulated replay — it is an **injective embedding** of the id
//! ([`Fingerprint::of_content`]): a fixed 160-bit mix whose first eight
//! bytes are a bijection of the id, so fingerprint equality coincides with
//! content equality *exactly* (SHA-1 only gives that with overwhelming
//! probability) and costs a few nanoseconds of host time. What hashing a
//! page costs the *simulated* device is charged separately, by
//! [`crate::HashEngine::hash_page`].

use crate::sha1::Sha1;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function. Each step — xor with a right shift of
/// itself, multiply by an odd constant — is invertible, so this is a
/// bijection on `u64`.
#[inline]
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Opaque identity of a page's content. Equal ids ⇔ duplicate pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(pub u64);

impl ContentId {
    /// Expand this content id into a deterministic synthetic page payload of
    /// `len` bytes (used where real bytes must flow through the hashers,
    /// e.g. benches and the parallel-hashing path).
    pub fn synth_bytes(self, len: usize) -> Vec<u8> {
        // SplitMix64 stream seeded by the id: fast, deterministic, and
        // different ids diverge immediately.
        let mut out = Vec::with_capacity(len);
        let mut x = self.0 ^ GOLDEN;
        while out.len() < len {
            x = x.wrapping_add(GOLDEN);
            let bytes = splitmix_finalize(x).to_le_bytes();
            let take = bytes.len().min(len - out.len());
            out.extend_from_slice(&bytes[..take]);
        }
        out
    }
}

/// A 160-bit page fingerprint: SHA-1 of page bytes, or the injective
/// embedding of a [`ContentId`] (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 20]);

impl Fingerprint {
    /// Fingerprint of a logical content id: the first 20 bytes of the
    /// SplitMix64 stream seeded with the id — words
    /// `splitmix_finalize(id + k·GOLDEN)` for `k = 1, 2, 3`, little-endian,
    /// the third truncated to 32 bits.
    ///
    /// The first word is a bijection of the id: an add, then
    /// `splitmix_finalize`. (To invert: undo each xor-shift by re-applying
    /// the shift until it runs out of bits, multiply by the constants'
    /// inverses mod 2⁶⁴, subtract `GOLDEN`; this module's tests do.) Those
    /// are the eight bytes the index probes by and recovery reads back
    /// from OOB stamps, so distinct ids never collide there, let alone on
    /// all 20 bytes.
    ///
    /// The function is part of the recovery format — stamps written before
    /// a simulated power loss are compared with fingerprints computed after
    /// it — hence the pinned vectors in the tests.
    #[inline]
    pub fn of_content(id: ContentId) -> Self {
        let word = |k: u64| splitmix_finalize(id.0.wrapping_add(k.wrapping_mul(GOLDEN)));
        let mut out = [0u8; 20];
        out[..8].copy_from_slice(&word(1).to_le_bytes());
        out[8..16].copy_from_slice(&word(2).to_le_bytes());
        out[16..].copy_from_slice(&word(3).to_le_bytes()[..4]);
        Self(out)
    }

    /// Fingerprint of raw page bytes (the real-data path).
    pub fn of_bytes(data: &[u8]) -> Self {
        Self(Sha1::digest(data))
    }

    /// Lowercase hex rendering.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parse from hex (40 chars). Returns `None` on malformed input.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).ok()?;
        }
        Some(Self(out))
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fp:{}", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_contents_equal_fingerprints() {
        assert_eq!(Fingerprint::of_content(ContentId(42)), Fingerprint::of_content(ContentId(42)));
        assert_ne!(Fingerprint::of_content(ContentId(42)), Fingerprint::of_content(ContentId(43)));
    }

    /// `of_content` is part of the recovery format: a change here must be
    /// a deliberate format change, not a refactor.
    #[test]
    fn of_content_pinned_vectors() {
        for (id, hex) in [
            (0, "afcd1d7b39a820e2f465b9a16a9e786e4f450980"),
            (1, "c15c0289ec2d0a9167ec8e65a18debbe5e5532fb"),
            (42, "956eeb2f2632d7bd03f166b233e3ef28529f0f13"),
            (u64::MAX, "202c651b7771d9e4c982f6db67f89fe9e98172b2"),
        ] {
            assert_eq!(Fingerprint::of_content(ContentId(id)).to_hex(), hex, "id {id}");
        }
    }

    /// The id a fingerprint's first eight bytes encode: the inverse the
    /// `of_content` docs describe.
    fn id_of_first_word(fp: &Fingerprint) -> u64 {
        let mut z = u64::from_le_bytes(fp.0[..8].try_into().unwrap());
        z ^= (z >> 31) ^ (z >> 62);
        z = z.wrapping_mul(0x3196_42B2_D24D_8EC3);
        z ^= (z >> 27) ^ (z >> 54);
        z = z.wrapping_mul(0x96DE_1B17_3F11_9089);
        z ^= (z >> 30) ^ (z >> 60);
        z.wrapping_sub(GOLDEN)
    }

    #[test]
    fn first_eight_bytes_are_a_bijection_of_the_id() {
        assert_eq!(0x94D0_49BB_1331_11EBu64.wrapping_mul(0x3196_42B2_D24D_8EC3), 1);
        assert_eq!(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(0x96DE_1B17_3F11_9089), 1);
        // A total function with a left inverse is injective, and an
        // injection of a finite set into itself is a bijection. Sequential
        // ids (what the synthesisers emit), the wrap-around, and a
        // full-width random walk.
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for id in [i, u64::MAX - i, x] {
                assert_eq!(id_of_first_word(&Fingerprint::of_content(ContentId(id))), id);
            }
        }
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::of_content(ContentId(7));
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 40);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&"a".repeat(39)), None);
        assert_eq!(Fingerprint::from_hex(&"g".repeat(40)), None);
    }

    #[test]
    fn synth_bytes_deterministic_and_distinct() {
        let a1 = ContentId(1).synth_bytes(4096);
        let a2 = ContentId(1).synth_bytes(4096);
        let b = ContentId(2).synth_bytes(4096);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 4096);
    }

    #[test]
    fn synth_bytes_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 4093] {
            assert_eq!(ContentId(9).synth_bytes(len).len(), len);
        }
    }

    #[test]
    fn bytes_path_consistent_with_itself() {
        let payload = ContentId(5).synth_bytes(4096);
        assert_eq!(Fingerprint::of_bytes(&payload), Fingerprint::of_bytes(&payload));
        // Content path and bytes path are different functions by design
        // (id-hash vs payload-hash) but both respect content equality.
        let payload2 = ContentId(5).synth_bytes(4096);
        assert_eq!(Fingerprint::of_bytes(&payload), Fingerprint::of_bytes(&payload2));
    }

    #[test]
    fn debug_is_short_display_is_full() {
        let fp = Fingerprint::of_content(ContentId(1));
        assert_eq!(format!("{fp}").len(), 40);
        assert!(format!("{fp:?}").starts_with("fp:"));
        assert!(format!("{fp:?}").len() < 20);
    }
}
