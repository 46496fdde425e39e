//! # turbo-softmax
//!
//! Sparse Activated Softmax (SAS, section 4 of the paper) and exact
//! softmax references.
//!
//! FlashAttention performs exponentiation in FP32 on CUDA cores — the paper
//! measures this at over 30 % of attention time because FP32 CUDA
//! throughput is ~3 % of FP16 tensor-core throughput. SAS replaces `e^x`
//! (for the non-positive, max-subtracted scores of online softmax) with
//!
//! ```text
//! e^x = LUT(int(-x)) × POLY(frac(-x))        for n_r ≤ x ≤ 0
//! e^x = 0                                    for x < n_r   (sparsification)
//! ```
//!
//! where `POLY` is a degree-3 least-squares fit of `e^-t` on `[0, 1)`
//! (Equation 15) evaluable in FP16, and the LUT holds the handful of
//! integer powers `e^0 … e^{n_r}`.
//!
//! # Example
//!
//! ```
//! use turbo_softmax::Sas;
//!
//! let sas = Sas::paper_default(); // threshold n_r = −6
//! let approx = sas.exp(-1.5);
//! assert!((approx - (-1.5f32).exp()).abs() < 1e-3);
//! assert_eq!(sas.exp(-10.0), 0.0); // sparsified
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod online;
pub mod poly;
pub mod sas;

pub use exact::{softmax, softmax_in_place};
pub use online::OnlineSoftmax;
pub use poly::{fit_exp_poly, Poly3, PAPER_POLY};
pub use sas::{Sas, ScaledRow, SoftmaxError, PAPER_THRESHOLD};
