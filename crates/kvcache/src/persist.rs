//! Binary (de)serialization of quantized KV caches.
//!
//! Serving systems persist prefix caches so a shared prompt (system
//! message, few-shot header) is prefilled once and reloaded per request.
//! TurboAttention's cache is particularly worth persisting — it is 4–5×
//! smaller than FP16 — so this module gives [`HeadKvCache`] a compact,
//! versioned, self-validating binary format:
//!
//! ```text
//! magic "TKVC" | version u16 | head_dim u32 | bits u8 | group u32 | n_b u32
//! | n_blocks u32 | crc32(header)
//! | blocks (K,V interleaved) | K buffer | V buffer
//! ```
//!
//! All integers little-endian. Format **v3** is the only version. A
//! CRC32 seals the fixed header, and another follows every serialized
//! block and buffer, covering that element's own bytes, so storage-level
//! corruption is detected element by element instead of producing a
//! plausible-but-wrong cache. The header CRC is checked before any
//! header field is trusted, so a corrupted length can never size an
//! allocation.
//!
//! Deserialization never panics on malformed input — every structural
//! violation surfaces as a [`PersistError`]. For payloads where the tail
//! is damaged but a prefix is intact, [`recover_head_cache`] salvages
//! the valid prefix and reports how many tokens must be re-prefilled.

use crate::buffer::Int8Buffer;
use crate::head::{HeadKvCache, KvCacheConfig};
use crate::stats::RecoveryReport;
use turbo_quant::progressive::GroupParams;
use turbo_quant::{BitWidth, PackedCodes, ProgressiveBlock};
use turbo_robust::{crc32, HealthEvent, HealthStats};

pub mod layer_wal;

/// Serializes `src` as little-endian f32s straight into `dst`
/// (`dst.len() == 4 * src.len()`). Bulk fixed-width stores instead of
/// per-element `extend_from_slice` keep WAL record construction off the
/// decode hot path's allocator and bounds-check budget.
pub(crate) fn fill_rows_le(dst: &mut [u8], src: &[f32]) {
    debug_assert_eq!(dst.len(), 4 * src.len());
    for (chunk, &x) in dst.chunks_exact_mut(4).zip(src) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

const MAGIC: &[u8; 4] = b"TKVC";
/// The format version: a checksummed header and per-element checksums.
const VERSION: u16 = 3;

/// Errors produced when decoding a serialized cache.
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The payload does not start with the `TKVC` magic.
    BadMagic,
    /// The payload's format version is not supported.
    UnsupportedVersion(u16),
    /// The payload ended before a field could be read.
    Truncated,
    /// A structural invariant failed (message describes which).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "payload is not a serialized KV cache"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported cache format version {v}")
            }
            PersistError::Truncated => write!(f, "payload ended unexpectedly"),
            PersistError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ------------------------------------------------------------- writing --

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self {
            buf: Vec::with_capacity(256),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

fn bits_tag(bits: BitWidth) -> u8 {
    bits.bits() as u8
}

fn write_block(w: &mut Writer, b: &ProgressiveBlock) {
    w.u32(b.rows() as u32);
    w.u32(b.cols() as u32);
    w.u8(bits_tag(b.bits()));
    w.u32(b.group_size() as u32);
    w.f32(b.outer_scale());
    w.u32(b.group_params().len() as u32);
    for p in b.group_params() {
        w.u8(p.scale as u8);
        w.u8(p.zero as u8);
    }
    w.bytes(b.packed().bytes());
}

fn write_buffer(w: &mut Writer, b: &Int8Buffer) {
    w.u32(b.len() as u32);
    match b.scale() {
        Some(s) => {
            w.u8(1);
            w.f32(s);
        }
        None => w.u8(0),
    }
    w.u64(b.clamped_elements());
    let raw: Vec<u8> = b.codes().iter().map(|&c| c as u8).collect();
    w.bytes(&raw);
}

/// Appends a CRC32 over everything written since `start`.
fn seal(w: &mut Writer, start: usize) {
    let crc = crc32(&w.buf[start..]);
    w.u32(crc);
}

/// Serializes a head cache to a compact binary payload (format v3).
pub fn serialize_head_cache(cache: &HeadKvCache) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.u32(cache.head_dim() as u32);
    let cfg = cache.config();
    w.u8(bits_tag(cfg.bits));
    w.u32(cfg.group_size as u32);
    w.u32(cfg.buffer_capacity as u32);
    w.u32(cache.resident_blocks().len() as u32);
    seal(&mut w, 0);
    for (kb, vb) in cache
        .resident_blocks()
        .iter()
        .zip(cache.resident_value_blocks())
    {
        for b in [kb, vb] {
            let start = w.buf.len();
            write_block(&mut w, b);
            seal(&mut w, start);
        }
    }
    for b in [cache.key_buffer(), cache.value_buffer()] {
        let start = w.buf.len();
        write_buffer(&mut w, b);
        seal(&mut w, start);
    }
    w.buf
}

// ------------------------------------------------------------- reading --

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Reads exactly `N` bytes into an array without any fallible
    /// conversion on the hot path.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    fn f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn bits_from_tag(tag: u8) -> Result<BitWidth, PersistError> {
    match tag {
        2 => Ok(BitWidth::Int2),
        3 => Ok(BitWidth::Int3),
        4 => Ok(BitWidth::Int4),
        8 => Ok(BitWidth::Int8),
        _ => Err(PersistError::Corrupt("unknown bit width tag")),
    }
}

fn read_block(r: &mut Reader<'_>) -> Result<ProgressiveBlock, PersistError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let bits = bits_from_tag(r.u8()?)?;
    if bits == BitWidth::Int8 {
        return Err(PersistError::Corrupt("resident block cannot be INT8"));
    }
    let group = r.u32()? as usize;
    if group == 0 {
        return Err(PersistError::Corrupt("zero group size"));
    }
    let outer_scale = r.f32()?;
    if !(outer_scale.is_finite() && outer_scale > 0.0) {
        return Err(PersistError::Corrupt("invalid outer scale"));
    }
    let n_params = r.u32()? as usize;
    let groups = if rows == 0 { 0 } else { rows.div_ceil(group) };
    if n_params != cols * groups {
        return Err(PersistError::Corrupt("group parameter count mismatch"));
    }
    // Bound the count against the bytes actually present before
    // allocating (a corrupted count must not trigger a huge allocation).
    if n_params > r.remaining() / 2 {
        return Err(PersistError::Truncated);
    }
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let scale = r.u8()? as i8;
        let zero = r.u8()? as i8;
        if scale <= 0 {
            return Err(PersistError::Corrupt("non-positive group scale"));
        }
        params.push(GroupParams { scale, zero });
    }
    let n_elems = rows
        .checked_mul(cols)
        .ok_or(PersistError::Corrupt("element count overflow"))?;
    let packed_bytes = r.bytes()?;
    if packed_bytes.len() != bits.packed_bytes(n_elems) {
        return Err(PersistError::Corrupt("packed length mismatch"));
    }
    let packed = PackedCodes::from_bytes(packed_bytes, n_elems, bits);
    Ok(ProgressiveBlock::from_parts(
        rows,
        cols,
        bits,
        group,
        packed,
        params,
        outer_scale,
    ))
}

fn read_buffer(r: &mut Reader<'_>, d: usize) -> Result<Int8Buffer, PersistError> {
    let rows = r.u32()? as usize;
    let scale = match r.u8()? {
        0 => None,
        1 => {
            let s = r.f32()?;
            if !(s.is_finite() && s > 0.0) {
                return Err(PersistError::Corrupt("invalid buffer scale"));
            }
            Some(s)
        }
        _ => return Err(PersistError::Corrupt("bad scale presence flag")),
    };
    if rows > 0 && scale.is_none() {
        return Err(PersistError::Corrupt("non-empty buffer without scale"));
    }
    let clamped = r.u64()?;
    let raw = r.bytes()?;
    let expect = rows
        .checked_mul(d)
        .ok_or(PersistError::Corrupt("buffer size overflow"))?;
    if raw.len() != expect {
        return Err(PersistError::Corrupt("buffer code length mismatch"));
    }
    let codes: Vec<i8> = raw.into_iter().map(|b| b as i8).collect();
    Ok(Int8Buffer::from_parts(codes, rows, d, scale, clamped))
}

/// Checks the CRC32 stored at the read position against the bytes
/// consumed since `start`.
fn check_seal(r: &mut Reader<'_>, start: usize, what: &'static str) -> Result<(), PersistError> {
    let actual = crc32(&r.buf[start..r.pos]);
    if r.u32()? != actual {
        return Err(PersistError::Corrupt(what));
    }
    Ok(())
}

/// Reads one block and verifies the CRC32 stored after it.
fn read_block_checked(r: &mut Reader<'_>) -> Result<ProgressiveBlock, PersistError> {
    let start = r.pos;
    let block = read_block(r)?;
    check_seal(r, start, "block checksum mismatch")?;
    Ok(block)
}

/// Reads one buffer and verifies the CRC32 stored after it.
fn read_buffer_checked(r: &mut Reader<'_>, d: usize) -> Result<Int8Buffer, PersistError> {
    let start = r.pos;
    let buf = read_buffer(r, d)?;
    check_seal(r, start, "buffer checksum mismatch")?;
    Ok(buf)
}

/// Parsed fixed-size header of a serialized cache.
struct Header {
    d: usize,
    config: KvCacheConfig,
    n_blocks: usize,
}

/// Reads the header, checking magic, then version, then the header CRC,
/// and only then the fields themselves.
fn read_header(r: &mut Reader<'_>) -> Result<Header, PersistError> {
    let start = r.pos;
    if r.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let d = r.u32()? as usize;
    let bits_tag = r.u8()?;
    let group_size = r.u32()? as usize;
    let buffer_capacity = r.u32()? as usize;
    let n_blocks = r.u32()? as usize;
    check_seal(r, start, "header checksum mismatch")?;
    if d == 0 {
        return Err(PersistError::Corrupt("zero head dimension"));
    }
    let bits = bits_from_tag(bits_tag)?;
    if bits == BitWidth::Int8 {
        return Err(PersistError::Corrupt("resident cache cannot be INT8"));
    }
    if group_size == 0 || buffer_capacity == 0 {
        return Err(PersistError::Corrupt("zero config field"));
    }
    // Each block is at least ~21 bytes; bound before allocating.
    if n_blocks > r.remaining() / 21 {
        return Err(PersistError::Truncated);
    }
    Ok(Header {
        d,
        config: KvCacheConfig {
            bits,
            group_size,
            buffer_capacity,
        },
        n_blocks,
    })
}

/// Reads one interleaved K/V block pair with cross-checks.
fn read_block_pair(
    r: &mut Reader<'_>,
    d: usize,
) -> Result<(ProgressiveBlock, ProgressiveBlock), PersistError> {
    let kb = read_block_checked(r)?;
    let vb = read_block_checked(r)?;
    if kb.cols() != d || vb.cols() != d {
        return Err(PersistError::Corrupt("block channel mismatch"));
    }
    if kb.rows() != vb.rows() {
        return Err(PersistError::Corrupt("K/V block row mismatch"));
    }
    Ok((kb, vb))
}

/// Decodes a payload produced by [`serialize_head_cache`].
///
/// # Errors
///
/// Returns a [`PersistError`] describing the first structural violation
/// found — including header and per-element checksum mismatches;
/// malformed input never panics.
pub fn deserialize_head_cache(payload: &[u8]) -> Result<HeadKvCache, PersistError> {
    let mut r = Reader::new(payload);
    let h = read_header(&mut r)?;
    let mut k_blocks = Vec::with_capacity(h.n_blocks);
    let mut v_blocks = Vec::with_capacity(h.n_blocks);
    for _ in 0..h.n_blocks {
        let (kb, vb) = read_block_pair(&mut r, h.d)?;
        k_blocks.push(kb);
        v_blocks.push(vb);
    }
    let k_buf = read_buffer_checked(&mut r, h.d)?;
    let v_buf = read_buffer_checked(&mut r, h.d)?;
    if k_buf.len() != v_buf.len() {
        return Err(PersistError::Corrupt("K/V buffer length mismatch"));
    }
    if !r.done() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(HeadKvCache::from_parts(
        h.d, h.config, k_blocks, v_blocks, k_buf, v_buf,
    ))
}

/// Best-effort decode: salvages the longest valid prefix of a damaged
/// payload instead of rejecting it outright.
///
/// Block pairs are consumed until the first corruption (checksum
/// mismatch, structural violation, or truncation); everything before it
/// becomes the recovered cache with empty tail buffers, and the
/// [`RecoveryReport`] says how many tokens survived so the serving layer
/// knows the suffix to re-prefill.
///
/// Records [`HealthEvent::CorruptBlock`] per dropped block pair and one
/// [`HealthEvent::PartialRecovery`] per salvage in `health` when given.
///
/// # Errors
///
/// Returns a [`PersistError`] only when the *header* itself is
/// unusable — nothing can be salvaged without it.
pub fn recover_head_cache(
    payload: &[u8],
    health: Option<&HealthStats>,
) -> Result<(HeadKvCache, RecoveryReport), PersistError> {
    let mut r = Reader::new(payload);
    let h = read_header(&mut r)?;
    let mut k_blocks = Vec::new();
    let mut v_blocks = Vec::new();
    let mut valid_tokens = 0usize;
    let mut damaged = false;
    for _ in 0..h.n_blocks {
        match read_block_pair(&mut r, h.d) {
            Ok((kb, vb)) => {
                valid_tokens += kb.rows();
                k_blocks.push(kb);
                v_blocks.push(vb);
            }
            Err(_) => {
                damaged = true;
                break;
            }
        }
    }
    let mut k_buf = Int8Buffer::new(h.d);
    let mut v_buf = Int8Buffer::new(h.d);
    if !damaged {
        match (
            read_buffer_checked(&mut r, h.d),
            read_buffer_checked(&mut r, h.d),
        ) {
            (Ok(kb), Ok(vb)) if kb.len() == vb.len() => {
                valid_tokens += kb.len();
                k_buf = kb;
                v_buf = vb;
            }
            _ => damaged = true,
        }
    }
    let dropped_blocks = h.n_blocks - k_blocks.len();
    if let Some(stats) = health {
        if dropped_blocks > 0 {
            stats.record_n(HealthEvent::CorruptBlock, dropped_blocks as u64);
        }
        if damaged {
            stats.record(HealthEvent::PartialRecovery);
        }
    }
    let cache = HeadKvCache::from_parts(h.d, h.config, k_blocks, v_blocks, k_buf, v_buf);
    let report = RecoveryReport {
        valid_tokens,
        dropped_blocks,
        complete: !damaged,
    };
    Ok((cache, report))
}

/// Byte offsets at which a *well-formed* payload sits on a framing
/// boundary: after the header, after each checked block, and after each
/// checked buffer (the final offset is the payload length).
///
/// Property tests enumerate these to corrupt or truncate a payload at
/// every structural seam and assert [`recover_head_cache`] still returns
/// a valid prefix.
///
/// # Errors
///
/// Returns a [`PersistError`] if `payload` is not itself fully valid —
/// boundaries of a damaged payload are not well-defined.
pub fn frame_boundaries(payload: &[u8]) -> Result<Vec<usize>, PersistError> {
    let mut r = Reader::new(payload);
    let h = read_header(&mut r)?;
    let mut out = vec![r.pos];
    for _ in 0..h.n_blocks {
        read_block_checked(&mut r)?;
        out.push(r.pos);
        read_block_checked(&mut r)?;
        out.push(r.pos);
    }
    read_buffer_checked(&mut r, h.d)?;
    out.push(r.pos);
    read_buffer_checked(&mut r, h.d)?;
    out.push(r.pos);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    fn populated(seed: u64, n: usize) -> HeadKvCache {
        let mut rng = TensorRng::new(seed);
        let data = rng.normal(n, 16, 0.0, 1.0);
        let mut c = HeadKvCache::new(
            16,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 8,
                buffer_capacity: 16,
            },
        );
        for t in 0..n {
            c.try_append(data.row(t), data.row(t)).unwrap();
        }
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cache = populated(1, 50); // 3 resident blocks + 2 buffered
        let bytes = serialize_head_cache(&cache);
        let back = deserialize_head_cache(&bytes).unwrap();
        assert_eq!(back.len(), cache.len());
        assert_eq!(back.buffer_len(), cache.buffer_len());
        assert_eq!(back.config(), cache.config());
        assert_eq!(back.dequantize_all(), cache.dequantize_all());
        assert_eq!(
            back.key_buffer().clamped_elements(),
            cache.key_buffer().clamped_elements()
        );
    }

    #[test]
    fn round_trip_empty_cache() {
        let cache = HeadKvCache::new(8, KvCacheConfig::default());
        let back = deserialize_head_cache(&serialize_head_cache(&cache)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.head_dim(), 8);
    }

    #[test]
    fn reloaded_cache_continues_decoding() {
        let mut cache = populated(2, 32);
        let bytes = serialize_head_cache(&cache);
        let mut back = deserialize_head_cache(&bytes).unwrap();
        // Appending to both must produce identical states.
        let row = [0.25f32; 16];
        cache.try_append(&row, &row).unwrap();
        back.try_append(&row, &row).unwrap();
        assert_eq!(back.dequantize_all(), cache.dequantize_all());
    }

    #[test]
    fn payload_is_compact() {
        let cache = populated(3, 256);
        let bytes = serialize_head_cache(&cache);
        // Must be well under the FP16 footprint of the same tokens.
        let fp16 = 2 * 2 * 256 * 16;
        assert!(bytes.len() * 2 < fp16, "{} vs {fp16}", bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            deserialize_head_cache(b"NOPE").unwrap_err(),
            PersistError::BadMagic
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        // Cutting the payload at every prefix length must yield an error,
        // never a panic or a silently-wrong cache.
        let bytes = serialize_head_cache(&populated(4, 20));
        for cut in 0..bytes.len() {
            let err = deserialize_head_cache(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn bit_flips_are_caught_or_benign() {
        // Structural fields are validated; flipped code bytes decode to a
        // different but well-formed cache. Either way: no panic.
        let bytes = serialize_head_cache(&populated(5, 24));
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let _ = deserialize_head_cache(&corrupted); // must not panic
        }
    }

    #[test]
    fn version_gate() {
        let mut bytes = serialize_head_cache(&populated(6, 8));
        bytes[4] = 99; // version low byte
        assert_eq!(
            deserialize_head_cache(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = serialize_head_cache(&populated(7, 8));
        bytes.push(0);
        assert_eq!(
            deserialize_head_cache(&bytes).unwrap_err(),
            PersistError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn v3_checksums_catch_every_bit_flip() {
        // Every byte of the payload, header included, sits under a CRC:
        // a single-bit flip anywhere must be rejected or change nothing
        // observable.
        let cache = populated(9, 40);
        let bytes = serialize_head_cache(&cache);
        assert_eq!(bytes[4], 3, "the format is v3");
        let mut caught = 0usize;
        let mut survived = 0usize;
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x01;
            match deserialize_head_cache(&corrupted) {
                Err(_) => caught += 1,
                Ok(back) => {
                    // A flip may only survive if it demonstrably changed
                    // nothing observable (cannot happen for CRC-covered
                    // spans, so this counts silent corruption).
                    if back.dequantize_all() != cache.dequantize_all() {
                        survived += 1;
                    }
                }
            }
        }
        assert_eq!(survived, 0, "{survived} silent corruptions slipped through");
        assert!(caught > 0);
    }

    #[test]
    fn checksummed_header_with_huge_fields_never_aborts() {
        // A header whose CRC is valid but whose `d` and `n_b` are
        // enormous, followed by no body: decoding must fail or succeed,
        // never size an allocation from those fields.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // d
        header.push(4); // bits
        header.extend_from_slice(&8u32.to_le_bytes()); // group
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // n_b
        header.extend_from_slice(&0u32.to_le_bytes()); // n_blocks
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        assert!(deserialize_head_cache(&header).is_err());
        if let Ok((back, report)) = recover_head_cache(&header, None) {
            assert!(back.is_empty());
            assert!(!report.complete);
        }
    }

    #[test]
    fn recover_salvages_valid_prefix() {
        use turbo_robust::{HealthEvent, HealthStats};
        let cache = populated(10, 50); // 3 sealed blocks of 16 + 2 buffered
        let mut bytes = serialize_head_cache(&cache);
        // Find the second block pair's K block and corrupt deep inside it:
        // flip a byte ~60% into the payload (inside block data, after the
        // first pair). Use a byte known to sit in a packed-code region by
        // corrupting several bytes in the middle.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let health = HealthStats::new();
        let (back, report) = recover_head_cache(&bytes, Some(&health)).unwrap();
        assert!(!report.complete);
        assert!(report.valid_tokens < cache.len());
        assert_eq!(back.len(), report.valid_tokens);
        assert!(report.dropped_blocks > 0);
        assert_eq!(
            health.count(HealthEvent::CorruptBlock),
            report.dropped_blocks as u64
        );
        assert_eq!(health.count(HealthEvent::PartialRecovery), 1);
        // The recovered prefix matches the original's prefix exactly.
        let (k_orig, _) = cache.dequantize_all();
        let (k_back, _) = back.dequantize_all();
        for r in 0..back.len() {
            for c in 0..16 {
                assert_eq!(k_back.get(r, c), k_orig.get(r, c));
            }
        }
    }

    #[test]
    fn recover_on_clean_payload_is_complete() {
        let cache = populated(11, 50);
        let (back, report) = recover_head_cache(&serialize_head_cache(&cache), None).unwrap();
        assert!(report.complete);
        assert_eq!(report.dropped_blocks, 0);
        assert_eq!(report.valid_tokens, cache.len());
        assert_eq!(back.dequantize_all(), cache.dequantize_all());
    }

    #[test]
    fn recover_truncated_payload_keeps_whole_blocks() {
        let cache = populated(12, 50);
        let bytes = serialize_head_cache(&cache);
        let truncated = &bytes[..bytes.len() * 2 / 3];
        let (back, report) = recover_head_cache(truncated, None).unwrap();
        assert!(!report.complete);
        assert!(back.len() <= cache.len());
        assert_eq!(back.len() % 16, 0, "only whole sealed blocks survive");
    }

    #[test]
    fn recover_rejects_unusable_header() {
        assert!(recover_head_cache(b"NOPE", None).is_err());
        assert!(recover_head_cache(&[], None).is_err());
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = PersistError::UnsupportedVersion(7);
        assert!(e.to_string().contains("version 7"));
        let boxed: Box<dyn std::error::Error> = Box::new(PersistError::Truncated);
        assert!(boxed.to_string().contains("ended"));
    }
}
