//! Hand-rolled CRC32 (IEEE 802.3 polynomial): a carry-less-multiply
//! fold with a slicing-by-8 table arm.
//!
//! Used for cache-page and persisted-snapshot integrity checks and WAL
//! record framing. WAL group commits checksum a multi-kilobyte frame per
//! decoded token, and checkpoints and recovery checksum every persisted
//! byte, so the checksum sits on the serving and recovery paths.
//!
//! [`crc32`] and [`Crc32`] are the only entry points. On x86-64 with
//! AVX2 and PCLMULQDQ, the 16-byte-multiple body of any input of at
//! least 64 bytes goes through `turbo_tensor::simd::crc32_fold_on`, which
//! folds four 128-bit lanes by carry-less multiplication and reduces to
//! 32 bits with a Barrett step; the tables finish the tail. Everywhere
//! else (aarch64, `TURBO_SIMD=0`, short inputs) the tables do all of it.
//! The eight lookup tables are built at compile time and process eight
//! bytes per iteration (eight lookups, one XOR tree). Both arms give the
//! same value for every input: the tables are the scalar arm and the
//! oracle the fold is tested against.

use turbo_tensor::simd::{crc32_fold_on, simd_level};

/// Reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic byte table;
/// `TABLES[k][i]` advances the CRC of byte `i` through `k` further zero
/// bytes, letting eight input bytes fold in parallel.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances a raw (pre-finalized) CRC state over `data` on the dispatched
/// arm: the fold takes the body, the tables the rest.
fn update_raw(crc: u32, data: &[u8]) -> u32 {
    let (crc, done) = crc32_fold_on(simd_level(), crc, data);
    update_tables(crc, &data[done..])
}

/// Advances a raw CRC state over `data` with the slicing-by-8 tables
/// alone: the scalar arm.
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 (IEEE) of `data`, matching the common zlib/`crc32` convention
/// (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    update_raw(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC32 over several fragments without concatenating them.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds one fragment.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_raw(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::SimdLevel;

    /// The table arm, finalized: the oracle every other arm must match.
    fn tables(data: &[u8]) -> u32 {
        update_tables(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// The arms under test: the dispatched [`crc32`] (`None`) and every
    /// level this machine can run whatever `TURBO_SIMD` says.
    fn arms() -> Vec<Option<SimdLevel>> {
        let mut arms = vec![None, Some(SimdLevel::Scalar)];
        if SimdLevel::Avx2.available() {
            arms.push(Some(SimdLevel::Avx2));
        }
        arms
    }

    /// The CRC of `data` on `arm`: the level folds what it can and the
    /// tables finish, as [`crc32`] does on the dispatched level.
    fn crc_on(arm: Option<SimdLevel>, data: &[u8]) -> u32 {
        let Some(level) = arm else {
            return crc32(data);
        };
        let (crc, done) = crc32_fold_on(level, 0xFFFF_FFFF, data);
        update_tables(crc, &data[done..]) ^ 0xFFFF_FFFF
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the ASCII digits, plus inputs long
        // enough for the fold (values from zlib's `crc32`).
        let fox = b"The quick brown fox jumps over the lazy dog";
        let mod251: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"123456789", 0xCBF4_3926),
            (b"", 0),
            (fox, 0x414F_A339),
            (&fox.repeat(8), 0x5A34_8735),
            (&mod251, 0x7217_46A6),
            (&[0u8; 16384], 0xAB54_D286),
        ];
        for arm in arms() {
            for (data, want) in vectors {
                assert_eq!(crc_on(arm, data), want, "{arm:?}, {} bytes", data.len());
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"progressive quantization block payload";
        let mut inc = Crc32::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn every_arm_matches_the_tables_at_every_length_and_offset() {
        // Lengths 0..=300 cross the 64-byte fold threshold and every
        // 16-byte tail; 16 KiB + 0..=15 is one WAL token frame of the
        // long-context shape with every ragged tail. Each runs from
        // every start offset 0..16, so unaligned loads are covered.
        const FRAME: usize = 16 * 1024;
        let data = pattern(FRAME + 32);
        let arms = arms();
        for start in 0..16 {
            for len in (0..=300).chain(FRAME..=FRAME + 15) {
                let d = &data[start..start + len];
                let want = tables(d);
                for &arm in &arms {
                    assert_eq!(crc_on(arm, d), want, "{arm:?}, {len} bytes at offset {start}");
                }
            }
        }
    }

    #[test]
    fn fragments_straddling_the_fold_threshold_match_one_shot() {
        // Fragments of 0..=130 bytes put every split on either side of
        // 64: short ones take the tables alone, long ones fold a body
        // and hand the tables a tail, and the states must compose.
        let data = pattern(300);
        let want = tables(&data);
        for a in 0..=130 {
            for b in (a..=a + 130).step_by(3) {
                let mut inc = Crc32::new();
                inc.update(&data[..a]);
                inc.update(&data[a..b]);
                inc.update(&data[b..]);
                assert_eq!(inc.finish(), want, "fragments at {a} and {b}");
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        // The classic one-table formulation, kept as an oracle: the
        // slicing-by-8 arm must agree at every length, including the
        // 1..7-byte remainders around the 8-byte fold boundary.
        fn reference(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            crc ^ 0xFFFF_FFFF
        }
        let data = pattern(1024);
        for len in (0..64).chain([255, 256, 257, 1000, 1024]) {
            assert_eq!(tables(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x08;
        assert_ne!(crc32(&data), clean);
    }
}
