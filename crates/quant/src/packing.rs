//! Bit-packing of sub-byte quantization codes.
//!
//! The KV-cache memory savings in the paper (>4.4× vs FP16) assume INT4 and
//! INT2 codes are physically packed, so this module implements dense
//! little-endian-within-byte packing: element `i` occupies bits
//! `[(i % per_byte) * width, …)` of byte `i / per_byte`. INT4 and INT3
//! hold two codes per byte (shifts 0 and 4, or 0 and 3); INT2 holds four.
//!
//! The bulk kernels never index a code by its position: `pack_into`
//! folds eight codes at a time (one `u64`) into their output bytes with
//! shifts and masks, and `unpack_into` walks the bytes, each yielding its
//! `per_byte` codes at fixed shifts. BPQ's stage 2 packs and unpacks whole
//! blocks through them. [`PackedCodes::get`] stays as the checked random
//! access for tests and fault tooling.

use crate::bitwidth::BitWidth;

/// Densely packed unsigned quantization codes.
///
/// # Example
///
/// ```
/// use turbo_quant::{BitWidth, PackedCodes};
///
/// let codes = [3u8, 0, 1, 2, 3];
/// let packed = PackedCodes::pack(&codes, BitWidth::Int2);
/// assert_eq!(packed.bytes().len(), 2); // 5 codes at 2 bits -> 2 bytes
/// assert_eq!(packed.unpack(), codes.to_vec());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedCodes {
    bytes: Vec<u8>,
    len: usize,
    bits: BitWidth,
}

impl PackedCodes {
    /// Packs unsigned codes at the given width.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds `bits.max_code()`.
    pub fn pack(codes: &[u8], bits: BitWidth) -> Self {
        if let Some(i) = codes.iter().position(|&c| c > bits.max_code()) {
            panic!("code {} exceeds {bits} range at index {i}", codes[i]);
        }
        let mut bytes = vec![0u8; bits.packed_bytes(codes.len())];
        pack_into(codes, bits, &mut bytes);
        Self {
            bytes,
            len: codes.len(),
            bits,
        }
    }

    /// Reassembles packed codes from raw parts (e.g. read back from a
    /// serialized cache).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not exactly `bits.packed_bytes(len)`.
    pub fn from_bytes(bytes: Vec<u8>, len: usize, bits: BitWidth) -> Self {
        assert_eq!(
            bytes.len(),
            bits.packed_bytes(len),
            "byte length does not match {len} codes at {bits}"
        );
        Self { bytes, len, bits }
    }

    /// Unpacks all codes.
    pub fn unpack(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        unpack_into(&self.bytes, self.bits, &mut out);
        out
    }

    /// Random access to code `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of bounds");
        let per_byte = self.bits.elems_per_byte();
        let width = self.bits.bits() as usize;
        let shift = (i % per_byte) * width;
        (self.bytes[i / per_byte] >> shift) & self.bits.max_code()
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width of the codes.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Raw packed bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw packed bytes.
    ///
    /// Exists for the fault-injection harness (bit-flip campaigns) and
    /// for in-place recovery; mutations cannot violate memory safety —
    /// every byte pattern decodes to *some* code sequence — but they do
    /// change the stored values.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Physical storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Packs `codes` into `out`.
///
/// Eight codes at a time are loaded as one little-endian `u64` and folded
/// into their `8 / per_byte` output bytes with shifts and masks (neighbour
/// codes merge pairwise until each byte holds its `per_byte` codes, then
/// the bytes are gathered); a ragged tail of fewer than eight codes is
/// packed code by code.
///
/// The caller guarantees every code fits `bits` (a wider code would bleed
/// into its neighbour's bits).
///
/// # Panics
///
/// Panics if `out` is not `bits.packed_bytes(codes.len())` bytes long.
pub(crate) fn pack_into(codes: &[u8], bits: BitWidth, out: &mut [u8]) {
    assert_eq!(
        out.len(),
        bits.packed_bytes(codes.len()),
        "packed output length mismatch"
    );
    let per_byte = bits.elems_per_byte();
    let width = bits.bits();
    let words = codes.chunks_exact(8);
    let tail = words.remainder();
    let word_bytes = 8 / per_byte;
    let (head, rest) = out.split_at_mut(words.len() * word_bytes);
    match bits {
        BitWidth::Int8 => head.copy_from_slice(&codes[..head.len()]),
        BitWidth::Int2 => {
            for (o, w) in head.chunks_exact_mut(2).zip(words) {
                let mut x = u64::from_le_bytes(w.try_into().expect("8 codes"));
                x = (x | x >> 6) & 0x00FF_00FF_00FF_00FF;
                x = (x | x >> 12) & 0x0000_FFFF_0000_FFFF;
                x = (x | x >> 24) & 0xFFFF;
                o.copy_from_slice(&(x as u16).to_le_bytes());
            }
        }
        BitWidth::Int3 | BitWidth::Int4 => {
            for (o, w) in head.chunks_exact_mut(4).zip(words) {
                let mut x = u64::from_le_bytes(w.try_into().expect("8 codes"));
                x = (x | x >> (8 - width)) & 0x00FF_00FF_00FF_00FF;
                x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
                x = (x | x >> 16) & 0xFFFF_FFFF;
                o.copy_from_slice(&(x as u32).to_le_bytes());
            }
        }
    }
    for (o, chunk) in rest.iter_mut().zip(tail.chunks(per_byte)) {
        *o = chunk
            .iter()
            .enumerate()
            .fold(0u8, |b, (k, &c)| b | c << (k as u32 * width));
    }
}

/// Unpacks the whole code stream of `bytes` into `out` (one code per
/// element), a byte at a time: each byte yields its `per_byte` codes at
/// fixed shifts. Padding bits are ignored.
///
/// # Panics
///
/// Panics if `bytes` is not `bits.packed_bytes(out.len())` bytes long.
pub(crate) fn unpack_into(bytes: &[u8], bits: BitWidth, out: &mut [u8]) {
    assert_eq!(
        bytes.len(),
        bits.packed_bytes(out.len()),
        "packed input length mismatch"
    );
    match bits {
        BitWidth::Int2 => unpack_n::<4, 2>(bytes, out),
        BitWidth::Int3 => unpack_n::<2, 3>(bytes, out),
        BitWidth::Int4 => unpack_n::<2, 4>(bytes, out),
        BitWidth::Int8 => out.copy_from_slice(bytes),
    }
}

fn unpack_n<const PER: usize, const STEP: u32>(bytes: &[u8], out: &mut [u8]) {
    let mask = (1u8 << STEP) - 1;
    let mut whole = out.chunks_exact_mut(PER);
    for (chunk, &b) in (&mut whole).zip(bytes) {
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = (b >> (k as u32 * STEP)) & mask;
        }
    }
    // A ragged tail (fewer than `PER` codes) lives in the last byte.
    let tail = whole.into_remainder();
    if !tail.is_empty() {
        let b = bytes[bytes.len() - 1];
        for (k, o) in tail.iter_mut().enumerate() {
            *o = (b >> (k as u32 * STEP)) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int4_round_trip() {
        let codes: Vec<u8> = (0..16).collect();
        let p = PackedCodes::pack(&codes, BitWidth::Int4);
        assert_eq!(p.storage_bytes(), 8);
        assert_eq!(p.unpack(), codes);
    }

    #[test]
    fn int2_round_trip_with_ragged_tail() {
        let codes = [0u8, 1, 2, 3, 3, 2, 1];
        let p = PackedCodes::pack(&codes, BitWidth::Int2);
        assert_eq!(p.storage_bytes(), 2);
        assert_eq!(p.unpack(), codes.to_vec());
    }

    #[test]
    fn int8_is_identity_packing() {
        let codes = [255u8, 0, 128];
        let p = PackedCodes::pack(&codes, BitWidth::Int8);
        assert_eq!(p.bytes(), &codes);
        assert_eq!(p.unpack(), codes.to_vec());
    }

    #[test]
    fn random_access_matches_unpack() {
        let codes: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let p = PackedCodes::pack(&codes, BitWidth::Int2);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(p.get(i), c);
        }
    }

    /// Deterministic codes below `bits.max_code()` for the sweeps below.
    fn codes(n: usize, bits: BitWidth, seed: usize) -> Vec<u8> {
        (0..n)
            .map(|i| ((i * 37 + seed * 11 + i / 3) % bits.levels() as usize) as u8)
            .collect()
    }

    #[test]
    fn bytewise_pack_matches_per_element_packing_at_ragged_lengths() {
        for bits in [
            BitWidth::Int2,
            BitWidth::Int3,
            BitWidth::Int4,
            BitWidth::Int8,
        ] {
            let (per_byte, width) = (bits.elems_per_byte(), bits.bits() as usize);
            for n in 0..=70 {
                let c = codes(n, bits, n);
                let mut expect = vec![0u8; bits.packed_bytes(n)];
                for (i, &code) in c.iter().enumerate() {
                    expect[i / per_byte] |= code << ((i % per_byte) * width);
                }
                let p = PackedCodes::pack(&c, bits);
                assert_eq!(p.bytes(), &expect[..], "{bits} n={n}");
                assert_eq!(p.unpack(), c, "{bits} n={n}");
            }
        }
    }

    #[test]
    fn unpack_ignores_padding_bits() {
        // Ragged at every width (29 codes). Set every padding bit — the
        // last byte's unused tail, and INT3's top two bits in each byte:
        // the unpack must ignore them, as the random access does.
        let n = 29;
        for bits in [BitWidth::Int2, BitWidth::Int3, BitWidth::Int4] {
            let c = codes(n, bits, 3);
            let mut p = PackedCodes::pack(&c, bits);
            if bits == BitWidth::Int3 {
                p.bytes_mut().iter_mut().for_each(|b| *b |= 0xC0);
            }
            let used = (n % bits.elems_per_byte()) * bits.bits() as usize;
            *p.bytes_mut().last_mut().unwrap() |= 0xFF << used;
            assert_eq!(p.unpack(), c, "{bits}");
            assert!((0..n).all(|i| p.get(i) == c[i]), "{bits}");
        }
    }

    #[test]
    fn empty_pack() {
        let p = PackedCodes::pack(&[], BitWidth::Int4);
        assert!(p.is_empty());
        assert_eq!(p.storage_bytes(), 0);
        assert_eq!(p.unpack(), Vec::<u8>::new());
    }

    #[test]
    fn compression_ratio_vs_fp16() {
        // 4096 values: FP16 = 8192 bytes; INT2 packed = 1024 bytes -> 8x.
        let codes = vec![1u8; 4096];
        let p = PackedCodes::pack(&codes, BitWidth::Int2);
        assert_eq!(8192 / p.storage_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds INT2 range")]
    fn oversized_code_panics() {
        PackedCodes::pack(&[4], BitWidth::Int2);
    }

    #[test]
    fn from_bytes_round_trips() {
        let codes = [1u8, 2, 3, 0, 3];
        let p = PackedCodes::pack(&codes, BitWidth::Int2);
        let q = PackedCodes::from_bytes(p.bytes().to_vec(), p.len(), p.bits());
        assert_eq!(p, q);
        assert_eq!(q.unpack(), codes.to_vec());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_bytes_validates_length() {
        PackedCodes::from_bytes(vec![0u8; 3], 5, BitWidth::Int2);
    }
}
