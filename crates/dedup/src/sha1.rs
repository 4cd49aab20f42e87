//! SHA-1, implemented from scratch (FIPS 180-4).
//!
//! The paper's dedup layer fingerprints 4 KiB pages with SHA-1 (Sec. II-B
//! mentions SHA-1/256). No cryptography crate is in the offline dependency
//! budget, so the compression function is implemented here and verified
//! against the FIPS/RFC 3174 test vectors. SHA-1's known collision weakness
//! is irrelevant for a simulator — CA-SSD and CAFTL used it for the same
//! reason we do: it is the fingerprint function of record in this
//! literature.

/// Output size in bytes.
pub const DIGEST_LEN: usize = 20;

/// Streaming SHA-1 state.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len_bytes: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Self {
            h: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0],
            len_bytes: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes += data.len() as u64;
        // Fill any partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64-byte split"));
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len_bytes * 8;
        // Padding: 0x80, zeros, 8-byte big-endian bit length. `update`
        // never leaves a full buffer, so the 0x80 always fits; the length
        // spills into a second block when fewer than 8 bytes follow it.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut s = Self::new();
        s.update(data);
        s.finalize()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.h;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.h[0] = self.h[0].wrapping_add(a);
        self.h[1] = self.h[1].wrapping_add(b);
        self.h[2] = self.h[2].wrapping_add(c);
        self.h[3] = self.h[3].wrapping_add(d);
        self.h[4] = self.h[4].wrapping_add(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 / FIPS 180-4 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(hex(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(hex(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(hex(&Sha1::digest(msg)), "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(hex(&Sha1::digest(&msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let one_shot = Sha1::digest(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut s = Sha1::new();
        for chunk in data.chunks(37) {
            s.update(chunk);
        }
        assert_eq!(s.finalize(), one_shot);
    }

    #[test]
    fn length_boundary_padding_cases() {
        // The last length whose padding fits its block, the first that
        // spills, a tail with no zero fill, nothing after a full block —
        // in the first block and in the second. Digests from a reference
        // implementation (Python's hashlib).
        for (n, want) in [
            (55usize, "6090c2fa6dd5cbd5c13f464e7001b0e4d10a138f"),
            (56, "6fa5580ac496dbf805006c3c0d103c1784690815"),
            (63, "7612ebff94a5bd9aa26341e337df6d317904d707"),
            (64, "19167c83c72622dfeacbaa547af1e68786e3dd36"),
            (119, "2400e634e0ba1ddddb3c3bb8e2b225a847eda6a7"),
            (120, "97552dfb88f3fdedf3f8d17df685af2bb3bd3dd4"),
            (128, "a1689008028f622f313af6d4539a112177393329"),
        ] {
            let data = vec![0xABu8; n];
            let d1 = Sha1::digest(&data);
            assert_eq!(hex(&d1), want, "wrong digest at length {n}");
            let mut s = Sha1::new();
            s.update(&data[..n / 2]);
            s.update(&data[n / 2..]);
            assert_eq!(s.finalize(), d1, "mismatch at length {n}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a collision test, just a smoke check over many small inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            assert!(seen.insert(Sha1::digest(&i.to_le_bytes())));
        }
    }
}
