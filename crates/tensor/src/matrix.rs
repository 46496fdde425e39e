//! Row-major dense `f32` matrix with block-row tiling support.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the universal activation container in this workspace: query,
/// key and value tensors for a single attention head are `(tokens × d_head)`
/// matrices. FlashAttention-style tiling is expressed through
/// [`Matrix::row_block`] / [`Matrix::row_blocks`], which yield the `B_r`/`B_c`
/// chunks of Algorithm 1.
///
/// # Example
///
/// ```
/// use turbo_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {r} has inconsistent length");
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Builds a matrix that takes ownership of `data` laid out row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a freshly allocated vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut t.data);
        t
    }

    /// Copies rows `[start, start + len)` into a new matrix.
    ///
    /// The final block of a FlashAttention sweep may be shorter than the
    /// block size; callers should clamp `len` accordingly (see
    /// [`Matrix::row_blocks`] which does this automatically).
    ///
    /// # Panics
    ///
    /// Panics if `start + len > rows`.
    pub fn row_block(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "row block out of bounds");
        Matrix {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Iterator over `(start_row, block)` pairs of height at most
    /// `block_size`, covering every row exactly once — the tiling used by
    /// FlashAttention and BPQ.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn row_blocks(&self, block_size: usize) -> impl Iterator<Item = (usize, Matrix)> + '_ {
        assert!(block_size > 0, "block size must be positive");
        (0..self.rows.div_ceil(block_size)).map(move |i| {
            let start = i * block_size;
            let len = block_size.min(self.rows - start);
            (start, self.row_block(start, len))
        })
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "column mismatch in append_rows");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack requires at least one matrix");
        let mut out = parts[0].clone();
        for p in &parts[1..] {
            out.append_rows(p);
        }
        out
    }

    /// Concatenates matrices horizontally.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack requires at least one matrix");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "row mismatch in hstack");
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise scale.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Element-wise sum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        crate::reduce::abs_max(&self.data)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty matrix");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty matrix");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Writes the transpose of the row-major `rows × cols` slice `src` into
/// `dst` (row-major `cols × rows`): each source row is read once, in
/// order, and scattered down one destination column.
///
/// # Panics
///
/// Panics if either slice is not `rows · cols` long.
pub fn transpose_into<T: Copy>(src: &[T], rows: usize, cols: usize, dst: &mut [T]) {
    assert_eq!(src.len(), rows * cols, "transpose source length mismatch");
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose destination length mismatch"
    );
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            dst[c * rows + r] = x;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            let ell = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        assert_eq!(m.get(1, 1), 2.0);
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
        assert_eq!(m[(0, 1)], 9.0);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let m = Matrix::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_into_matches_elementwise_at_ragged_shapes() {
        for (rows, cols) in [
            (0, 3),
            (1, 1),
            (1, 70),
            (70, 1),
            (17, 33),
            (64, 128),
            (37, 5),
        ] {
            let src: Vec<i8> = (0..rows * cols).map(|i| (i * 7 % 251) as i8).collect();
            let mut dst = vec![0i8; rows * cols];
            transpose_into(&src, rows, cols, &mut dst);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        dst[c * rows + r],
                        src[r * cols + c],
                        "{rows}x{cols} at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn row_blocks_cover_all_rows_once() {
        let m = Matrix::from_fn(10, 2, |r, _| r as f32);
        let blocks: Vec<_> = m.row_blocks(4).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].1.rows(), 4);
        assert_eq!(blocks[2].1.rows(), 2); // ragged tail
        let mut covered = vec![];
        for (start, b) in &blocks {
            for r in 0..b.rows() {
                covered.push(start + r);
                assert_eq!(b.get(r, 0), (start + r) as f32);
            }
        }
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn append_and_vstack() {
        let a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let s = Matrix::vstack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(2, 1), 2.0);
        let mut c = a;
        c.append_rows(&b);
        assert_eq!(c, s);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = Matrix::filled(2, 1, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let h = Matrix::hstack(&[a, b]);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn map_add_sub_scale() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(m.map(f32::abs).row(0), &[1.0, 2.0]);
        assert_eq!(m.add(&m).row(0), &[2.0, -4.0]);
        assert_eq!(m.sub(&m).row(0), &[0.0, 0.0]);
        let mut s = m.clone();
        s.scale_in_place(3.0);
        assert_eq!(s.row(0), &[3.0, -6.0]);
    }

    #[test]
    fn min_max_abs_max() {
        let m = Matrix::from_rows(&[&[1.0, -5.0], &[3.0, 2.0]]);
        assert_eq!(m.min(), -5.0);
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.abs_max(), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_len() {
        Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.col(1), vec![1.0, 3.0, 5.0]);
    }
}
