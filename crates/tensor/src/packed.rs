//! The packed second operand of the INT8 GEMM.
//!
//! [`matmul_i8_packed_into`](crate::matmul_i8_packed_into) computes
//! `C = A · Bᵀ` with `B` stored in the 4-byte interleave that
//! `vpdpbusd` (AVX-VNNI) and `SDOT` (NEON) consume: the `n` output
//! columns are split into panels of [`PANEL`] = 8, and each panel stores,
//! for every group of [`QUAD`] = 4 consecutive reduction indices, the
//! four bytes of column 0, then the four bytes of column 1, and so on —
//! 32 bytes per quad, exactly one 256-bit register of eight `i32` lanes.
//! The kernel broadcasts four bytes of an `A` row against one such
//! register and every lane accumulates its own output column, so no
//! output needs a horizontal reduction.
//!
//! Every byte is stored biased by `0x80` (`b + 128` as an unsigned byte),
//! the unsigned operand `vpdpbusd` wants. The x86 arms multiply the
//! stored bytes as they are and subtract `128 · Σa` once per output; the
//! scalar and `SDOT` arms undo the bias on load. Padding bytes (past `k`
//! in the last quad, past `n` in the last panel) hold a biased zero and
//! meet zero-padded `A` bytes, so they never add anything.
//!
//! An operand can be packed whole ([`PackedB::pack_rows`],
//! [`PackedB::pack_cols`]); written a panel of eight columns or a quad of
//! four reduction indices at a time ([`PackedB::write_panel`],
//! [`PackedB::write_reduction_quad`], with AVX2 arms), or one column or
//! reduction index at a time; or grown by one of either
//! ([`PackedB::push_column`], [`PackedB::push_reduction`]) — the decode
//! buffer's keys grow by one column per token and its values by one
//! reduction index per token.

use crate::simd::{self, simd_level};

/// Output columns per panel: one 256-bit register of `i32` lanes.
pub const PANEL: usize = 8;

/// Reduction indices per interleave group: the four bytes one
/// `vpdpbusd` / `SDOT` lane multiplies and adds.
pub const QUAD: usize = 4;

/// Bytes of one quad of one panel.
pub(crate) const QUAD_BYTES: usize = PANEL * QUAD;

/// The stored form of a zero byte.
const BIAS: u8 = 0x80;

/// [`BIAS`] in each byte of a quad.
const BIAS_QUAD: u32 = 0x8080_8080;

/// Smallest reduction capacity, in quads, that
/// [`PackedB::push_reduction`] grows to.
const MIN_GROW_QUADS: usize = 16;

/// An `n × k` INT8 operand (`n` output columns, reduction length `k`) in
/// the panel/quad interleave the INT8 GEMM consumes. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct PackedB {
    data: Vec<u8>,
    n: usize,
    k: usize,
    /// Quads allocated per panel, at least `⌈k / 4⌉`.
    stride: usize,
}

impl PackedB {
    /// An empty `0 × 0` operand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs `b`, `n` rows of `k` bytes row-major, as the operand whose
    /// output column `j` is row `j` of `b` — the `Bᵀ` of `C = A · Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n · k`.
    pub fn from_rows(b: &[i8], n: usize, k: usize) -> Self {
        let mut p = Self::new();
        p.pack_rows(b, n, k);
        p
    }

    /// Packs `b`, `k` rows of `n` bytes row-major, as the operand whose
    /// reduction index `i` is row `i` of `b` — `C = A · b` for a
    /// row-major `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k · n`.
    pub fn from_cols(b: &[i8], k: usize, n: usize) -> Self {
        let mut p = Self::new();
        p.pack_cols(b, k, n);
        p
    }

    /// As [`PackedB::from_rows`], into `self` (no reallocation once it
    /// has capacity).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n · k`.
    pub fn pack_rows(&mut self, b: &[i8], n: usize, k: usize) {
        assert_eq!(b.len(), n * k, "b length mismatch");
        self.reset(n, k);
        if k == 0 {
            return;
        }
        for (p, cols) in b.chunks(PANEL * k).enumerate() {
            let mut panel = [&[][..]; PANEL];
            for (dst, col) in panel.iter_mut().zip(cols.chunks_exact(k)) {
                *dst = col;
            }
            self.write_panel(p, &panel[..cols.len() / k]);
        }
    }

    /// As [`PackedB::from_cols`], into `self` (no reallocation once it
    /// has capacity).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k · n`.
    pub fn pack_cols(&mut self, b: &[i8], k: usize, n: usize) {
        assert_eq!(b.len(), k * n, "b length mismatch");
        self.reset(n, k);
        if n == 0 {
            return;
        }
        let mut rows = b.chunks_exact(n);
        for q in 0..k / QUAD {
            let quad = [(); QUAD].map(|_| rows.next().expect("k rows"));
            self.write_reduction_quad(q, quad);
        }
        for (i, row) in rows.enumerate() {
            self.write_reduction(k / QUAD * QUAD + i, row);
        }
    }

    /// Makes `self` an `n × k` operand of zeros, keeping its allocation.
    pub fn reset(&mut self, n: usize, k: usize) {
        self.n = n;
        self.k = k;
        self.stride = k.div_ceil(QUAD);
        self.data.clear();
        self.data
            .resize(self.panels() * self.stride * QUAD_BYTES, BIAS);
    }

    /// Drops every reduction index, keeping `n`, the allocation and the
    /// reduction capacity, so refilling with
    /// [`PackedB::push_reduction`] does not move the panels again.
    pub fn clear_reduction(&mut self) {
        self.k = 0;
        self.data.fill(BIAS);
    }

    /// Reserves room for reduction length `k` without reallocating or
    /// moving the panels on later [`PackedB::push_reduction`]s.
    pub fn reserve_reduction(&mut self, k: usize) {
        let quads = k.div_ceil(QUAD);
        if quads > self.stride {
            self.restride(quads);
        }
    }

    /// Reserves room for `n` columns, so [`PackedB::push_column`] does
    /// not reallocate below that.
    pub fn reserve_columns(&mut self, n: usize) {
        let want = n.div_ceil(PANEL) * self.stride * QUAD_BYTES;
        self.data.reserve(want.saturating_sub(self.data.len()));
    }

    /// Writes output column `j`: `col[i]` becomes element `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ n` or `col.len() != k`.
    pub fn write_column(&mut self, j: usize, col: &[i8]) {
        assert!(j < self.n, "column {j} out of range");
        assert_eq!(col.len(), self.k, "column length mismatch");
        let start = self.panel_start(j / PANEL) + (j % PANEL) * QUAD;
        let panel = &mut self.data[start..];
        for (d, src) in panel.chunks_mut(QUAD_BYTES).zip(col.chunks(QUAD)) {
            store_quad(d, src);
        }
    }

    /// Writes the columns of panel `p` from `cols` — column `PANEL·p + c`
    /// from `cols[c]` — one 32-byte quad row at a time: the layout's own
    /// order, so every store is contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `cols` holds more columns than the panel, or a column's
    /// length is not `k`.
    pub fn write_panel(&mut self, p: usize, cols: &[&[i8]]) {
        let (k, first) = (self.k, PANEL * p);
        assert!(
            cols.len() <= PANEL && first + cols.len() <= self.n,
            "panel {p} overflows"
        );
        for col in cols {
            assert_eq!(col.len(), k, "column length mismatch");
        }
        let start = self.panel_start(p);
        let panel = &mut self.data[start..start + k.div_ceil(QUAD) * QUAD_BYTES];
        let Ok(cols) = <&[&[i8]; PANEL]>::try_from(cols) else {
            // A partial panel: column by column.
            for (c, col) in cols.iter().enumerate() {
                for (d, src) in panel[c * QUAD..]
                    .chunks_mut(QUAD_BYTES)
                    .zip(col.chunks(QUAD))
                {
                    store_quad(d, src);
                }
            }
            return;
        };
        let full = k / QUAD;
        let (whole, tail) = panel.split_at_mut(full * QUAD_BYTES);
        let done = simd::pack_panel_on(simd_level(), cols, full, whole);
        for (q, row) in whole.chunks_exact_mut(QUAD_BYTES).enumerate().skip(done) {
            let mut words = [0u32; PANEL];
            for (w, col) in words.iter_mut().zip(cols) {
                *w = quad_word(&col[q * QUAD..q * QUAD + QUAD]);
            }
            for (d, w) in row.chunks_exact_mut(QUAD).zip(words) {
                d.copy_from_slice(&w.to_ne_bytes());
            }
        }
        if full * QUAD < k {
            for (c, col) in cols.iter().enumerate() {
                for (d, &x) in tail[c * QUAD..].iter_mut().zip(&col[full * QUAD..]) {
                    *d = x as u8 ^ BIAS;
                }
            }
        }
    }

    /// Writes reduction index `i` of every column: `row[j]` becomes
    /// element `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ k` or `row.len() != n`.
    pub fn write_reduction(&mut self, i: usize, row: &[i8]) {
        assert!(i < self.k, "reduction index {i} out of range");
        assert_eq!(row.len(), self.n, "row length mismatch");
        let at = (i / QUAD) * QUAD_BYTES + i % QUAD;
        let panel_bytes = self.stride * QUAD_BYTES;
        for (panel, src) in self
            .data
            .chunks_exact_mut(panel_bytes)
            .zip(row.chunks(PANEL))
        {
            for (d, &s) in panel[at..].iter_mut().step_by(QUAD).zip(src) {
                *d = s as u8 ^ BIAS;
            }
        }
    }

    /// Writes reduction indices `4q..4q + 4` of every column at once —
    /// `rows[t][j]` becomes element `(j, 4q + t)` — as one interleaved
    /// `u32` per column (the AVX2 arm interleaves 32 columns per step).
    ///
    /// # Panics
    ///
    /// Panics if the quad runs past `k` or a row's length is not `n`.
    pub fn write_reduction_quad(&mut self, q: usize, rows: [&[i8]; QUAD]) {
        assert!(QUAD * q + QUAD <= self.k, "quad {q} out of range");
        for row in rows {
            assert_eq!(row.len(), self.n, "row length mismatch");
        }
        let at = q * QUAD_BYTES;
        let panel_bytes = self.stride * QUAD_BYTES;
        let done = simd::pack_quad_on(simd_level(), &rows, &mut self.data, at, panel_bytes);
        let panels = self.data.chunks_exact_mut(panel_bytes).skip(done / PANEL);
        let [r0, r1, r2, r3] = rows.map(|r| r[done..].chunks(PANEL));
        for (panel, (((a, b), c), d)) in panels.zip(r0.zip(r1).zip(r2).zip(r3)) {
            let dst = &mut panel[at..at + QUAD_BYTES];
            for (col, dq) in dst.chunks_exact_mut(QUAD).take(a.len()).enumerate() {
                store_quad(dq, &[a[col], b[col], c[col], d[col]]);
            }
        }
    }

    /// Appends output column `n`.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != k`.
    pub fn push_column(&mut self, col: &[i8]) {
        assert_eq!(col.len(), self.k, "column length mismatch");
        if self.n.is_multiple_of(PANEL) {
            let len = self.data.len() + self.stride * QUAD_BYTES;
            self.data.resize(len, BIAS);
        }
        self.n += 1;
        self.write_column(self.n - 1, col);
    }

    /// Appends reduction index `k` of every column, doubling the
    /// reduction capacity when it is full.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n`.
    pub fn push_reduction(&mut self, row: &[i8]) {
        assert_eq!(row.len(), self.n, "row length mismatch");
        if self.k == self.stride * QUAD {
            self.restride((2 * self.stride).max(MIN_GROW_QUADS));
        }
        self.k += 1;
        self.write_reduction(self.k - 1, row);
    }

    /// Output columns `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes held, padding and spare reduction capacity included.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Element `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ n` or `i ≥ k`.
    pub fn get(&self, j: usize, i: usize) -> i8 {
        assert!(j < self.n && i < self.k, "({j}, {i}) out of range");
        let lane = (j % PANEL) * QUAD + i % QUAD;
        let at = self.panel_start(j / PANEL) + (i / QUAD) * QUAD_BYTES + lane;
        (self.data[at] ^ BIAS) as i8
    }

    /// The operand unpacked to `n` rows of `k` bytes, row-major — the
    /// input of [`PackedB::from_rows`].
    pub fn to_rows(&self) -> Vec<i8> {
        (0..self.n)
            .flat_map(|j| (0..self.k).map(move |i| self.get(j, i)))
            .collect()
    }

    /// Panels of [`PANEL`] columns, the last one possibly partial.
    pub(crate) fn panels(&self) -> usize {
        self.n.div_ceil(PANEL)
    }

    /// Whether the bytes hold `⌈k / 4⌉` quads of every panel: all that
    /// the GEMM kernels read, through raw pointers.
    pub(crate) fn holds_layout(&self) -> bool {
        self.stride * QUAD >= self.k && self.data.len() >= self.panels() * self.stride * QUAD_BYTES
    }

    /// Byte offset of panel `p`.
    pub(crate) fn panel_start(&self, p: usize) -> usize {
        p * self.stride * QUAD_BYTES
    }

    /// The stored bytes.
    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }

    /// Moves every panel to a reduction capacity of `stride` quads.
    fn restride(&mut self, stride: usize) {
        debug_assert!(stride >= self.k.div_ceil(QUAD));
        let (old, panels) = (self.stride * QUAD_BYTES, self.panels());
        let new = stride * QUAD_BYTES;
        self.data.resize(panels * new, BIAS);
        // Back to front, so no panel overwrites one not yet moved.
        for p in (0..panels).rev() {
            self.data.copy_within(p * old..(p + 1) * old, p * new);
            self.data[p * new + old..(p + 1) * new].fill(BIAS);
        }
        self.stride = stride;
    }
}

/// Four codes as one biased word, in memory order.
#[inline(always)]
fn quad_word(src: &[i8]) -> u32 {
    let b = |t: usize| u32::from(src[t] as u8);
    (b(0) | b(1) << 8 | b(2) << 16 | b(3) << 24).to_le() ^ BIAS_QUAD
}

/// Stores up to four codes, biased, at the start of `dst`.
#[inline]
fn store_quad(dst: &mut [u8], src: &[i8]) {
    if src.len() == QUAD {
        dst[..QUAD].copy_from_slice(&quad_word(src).to_ne_bytes());
    } else {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x as u8 ^ BIAS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, mul: usize, add: usize) -> Vec<i8> {
        (0..len)
            .map(|i| ((i * mul + add) % 256) as u8 as i8)
            .collect()
    }

    fn transpose(b: &[i8], rows: usize, cols: usize) -> Vec<i8> {
        let mut t = vec![0; b.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = b[r * cols + c];
            }
        }
        t
    }

    #[test]
    fn both_packs_round_trip_at_ragged_shapes() {
        for n in [0, 1, 7, 8, 9, 17] {
            for k in [0, 1, 3, 4, 5, 9] {
                let b = pattern(n * k, 37, 5);
                assert_eq!(PackedB::from_rows(&b, n, k).to_rows(), b, "rows {n}x{k}");
                let cols = PackedB::from_cols(&transpose(&b, n, k), k, n);
                assert_eq!(cols.to_rows(), b, "cols {n}x{k}");
                assert_eq!((cols.n(), cols.k()), (n, k));
            }
        }
    }

    #[test]
    fn layout_is_the_quad_interleave() {
        // Column j, reduction index i sits at panel j/8, quad i/4, lane
        // j%8, byte i%4, biased by 0x80.
        let (n, k) = (10, 6);
        let b = pattern(n * k, 11, 3);
        let p = PackedB::from_rows(&b, n, k);
        let stride = k.div_ceil(QUAD);
        assert_eq!(p.bytes(), 2 * stride * QUAD_BYTES);
        for j in 0..n {
            for i in 0..k {
                let at = (j / 8) * stride * 32 + (i / 4) * 32 + (j % 8) * 4 + i % 4;
                assert_eq!(p.data()[at], b[j * k + i] as u8 ^ 0x80, "({j}, {i})");
            }
        }
    }

    #[test]
    fn pushes_match_a_whole_pack() {
        let (n, k) = (13, 70);
        let b = pattern(n * k, 53, 1);
        let mut cols = PackedB::new();
        cols.reset(0, k);
        for col in b.chunks_exact(k) {
            cols.push_column(col);
        }
        assert_eq!(cols.to_rows(), b);
        let mut red = PackedB::new();
        red.reset(n, 0);
        for row in transpose(&b, n, k).chunks_exact(n) {
            red.push_reduction(row);
        }
        assert_eq!(red.to_rows(), b);
        // Clearing keeps the capacity; refilling gives the same operand.
        let stride = red.stride;
        red.clear_reduction();
        assert_eq!((red.n(), red.k(), red.stride), (n, 0, stride));
        for row in transpose(&b, n, k).chunks_exact(n) {
            red.push_reduction(row);
        }
        assert_eq!(red.to_rows(), b);
    }

    #[test]
    fn reserved_pushes_do_not_reallocate() {
        let mut v = PackedB::new();
        v.reset(16, 0);
        v.reserve_reduction(64);
        let mut k = PackedB::new();
        k.reset(0, 16);
        k.reserve_columns(64);
        let (vp, kp) = (v.data.as_ptr(), k.data.capacity());
        for t in 0..64 {
            v.push_reduction(&[t as i8; 16]);
            k.push_column(&[t as i8; 16]);
        }
        assert_eq!(v.data.as_ptr(), vp, "value view moved");
        assert_eq!(k.data.capacity(), kp, "key view grew");
    }
}
