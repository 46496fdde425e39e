//! # turbo-quant
//!
//! Quantization substrate for the TurboAttention reproduction.
//!
//! Implements every numeric-compression primitive the paper relies on:
//!
//! * [`symmetric`] — per-tensor/per-block symmetric INT8 quantization with
//!   the paper's `max(abs(X)) / 119` scale rule (Algorithm 1), used for the
//!   first stage of Blockwise Progressive Quantization and for queries and
//!   attention probabilities.
//! * [`asymmetric`] — min/max asymmetric quantization to arbitrary bit
//!   widths with floating-point parameters, as used by the KIVI/GEAR
//!   baselines and by direct (non-progressive) low-bit quantization.
//! * [`progressive`] — the second BPQ stage: channel-wise *integer*
//!   asymmetric re-quantization of INT8 tensors down to INT4/INT2
//!   (Equation 10), with pure-integer dequantization back to INT8.
//! * [`packing`] — bit-packing of 4-bit and 2-bit codes into bytes, with
//!   exact storage accounting used for the KV-cache compression-ratio
//!   results.
//! * [`error`] — quantize→dequantize round-trip error measurement across
//!   granularities (token-wise vs channel-wise grouping, Figure 10).
//! * [`rotation`] — QuaRot-style Hadamard rotation, the orthogonal
//!   outlier-smearing transform Table 1 lists as composable with
//!   TurboAttention.
//!
//! # Example
//!
//! ```
//! use turbo_tensor::Matrix;
//! use turbo_quant::{BitWidth, progressive::ProgressiveBlock};
//!
//! let block = Matrix::from_fn(64, 16, |r, c| ((r * 31 + c * 17) % 23) as f32 / 7.0 - 1.5);
//! let pq = ProgressiveBlock::quantize(&block, BitWidth::Int4, 32);
//! let restored = pq.dequantize();
//! assert!(turbo_tensor::max_abs_error(&block, &restored) < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymmetric;
pub mod bitwidth;
pub mod error;
pub mod packing;
pub mod progressive;
pub mod rotation;
pub mod symmetric;

pub use asymmetric::{AsymParams, AsymQuantized};
pub use bitwidth::BitWidth;
pub use error::{quant_error_channelwise, quant_error_tokenwise, QuantErrorReport};
pub use packing::PackedCodes;
pub use progressive::{ProgressiveBlock, QuantError};
pub use rotation::{fht, hadamard_rotate};
pub use symmetric::{
    encode_row_sym_into, quantize_row_sym_into, quantize_slice_sym, quantize_slice_sym_into,
    SymQuantized, SYM_INT8_DIVISOR,
};
