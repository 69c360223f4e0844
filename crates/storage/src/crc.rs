//! CRC-32 (IEEE 802.3 polynomial) used to checksum pages and WAL records.
//!
//! Implemented from scratch so the on-disk format has no external
//! dependencies. The polynomial, bit order and output are those of the
//! ubiquitous zlib/Ethernet CRC-32, which makes the format easy to inspect
//! with standard tools.
//!
//! The kernel is slice-by-16 (Kounavis & Berry, "A Systematic Approach to
//! Building High Performance Software-based CRC Generators", ISCC 2005):
//! sixteen 256-entry tables, built at compile time, let one step fold 16
//! input bytes with 16 independent lookups instead of 16 dependent ones.
//! Input shorter than a step runs the classic bytewise loop over table 0.
//! The result is bit-for-bit the bytewise (and zlib) CRC-32.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slice-by-16 step.
const STEP: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so the byte `k` places before
/// the end of a step is looked up in table `k`.
const TABLES: [[u32; 256]; STEP] = build_tables();

const fn build_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher for framing multi-part records.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut s = self.state;
        let mut steps = data.chunks_exact(STEP);
        for step in &mut steps {
            let b: &[u8; STEP] = step.try_into().expect("chunks_exact yields whole steps");
            let lo = s ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            s = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in steps.remainder() {
            s = t[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Finalize and return the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook one-table, one-byte-at-a-time CRC-32, kept as the
    /// reference the slice-by-16 kernel must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &b in data {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        s ^ 0xFFFF_FFFF
    }

    /// 316 bytes from a fixed xorshift seed.
    fn seeded() -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..316)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    // Reference values produced by zlib's crc32().
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length_and_offset() {
        let data = seeded();
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = seeded();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let before = crc32(&data);
        data[512] ^= 0x10;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn empty_update_is_identity() {
        let mut h = Hasher::new();
        h.update(b"");
        h.update(b"xyz");
        h.update(b"");
        assert_eq!(h.finish(), crc32(b"xyz"));
    }
}
