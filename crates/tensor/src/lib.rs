//! # turbo-tensor
//!
//! Dense-tensor substrate for the TurboAttention reproduction.
//!
//! This crate provides the numeric foundation that the rest of the
//! workspace builds on:
//!
//! * [`Matrix`] — a row-major, heap-allocated `f32` matrix with tiled
//!   (block-row) views matching FlashAttention's `B_r`/`B_c` chunking.
//! * [`f16`](crate::half::F16) — software emulation of IEEE-754 binary16
//!   with round-to-nearest-even, used to model tensor-core input precision
//!   on hardware we do not have.
//! * Integer matmul kernels (`i8 × i8 → i32`) mirroring INT8 tensor-core
//!   semantics, plus an `f32` reference matmul with optional f16 input
//!   rounding. The integer kernels dispatch once per process to an
//!   explicit-SIMD arm ([`simd`]) — AVX2 (and AVX-VNNI) on x86-64, NEON
//!   on aarch64 — and the GEMM takes its second operand packed
//!   ([`PackedB`]),
//!   with the scalar kernels kept as the always-correct, bit-identical
//!   fallback (`TURBO_SIMD=0` forces it).
//! * Row-wise reductions (max/sum) used by online softmax.
//! * Deterministic random tensor generators for workloads, including the
//!   channel-outlier distributions observed in the paper's Figure 4.
//! * Error metrics (MSE, max-abs, cosine similarity) used throughout the
//!   evaluation harness.
//!
//! # Example
//!
//! ```
//! use turbo_tensor::{Matrix, matmul};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

// `deny` (not `forbid`) so the one SIMD module can opt back in: all
// `unsafe` in this crate lives behind `simd`'s runtime-checked dispatch.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fp8;
pub mod half;
pub mod matmul;
pub mod matrix;
pub mod packed;
pub mod reduce;
pub mod rng;
#[allow(unsafe_code)]
pub mod simd;

pub use error::{cosine_similarity, max_abs_error, mean_abs_error, mse, relative_error};
pub use fp8::{round_e4m3, round_e5m2, Fp8Format};
pub use half::{round_bf16, round_f16, round_f16_slice, Bf16, F16};
pub use matmul::{
    dot_i8, dot_i8_wide, matmul, matmul_f16, matmul_i8, matmul_i8_packed_into,
    matmul_i8_transposed_b, matmul_i8_transposed_b_into, matmul_transposed_b, DOT_I8_MAX_LEN,
};
pub use simd::{simd_level, SimdLevel};
pub use matrix::{transpose_into, Matrix};
pub use packed::PackedB;
pub use reduce::{abs_max, col_max_min, row_abs_max, row_max, row_sum};
pub use rng::TensorRng;
