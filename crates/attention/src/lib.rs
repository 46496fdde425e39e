//! # turbo-attention
//!
//! The paper's primary contribution: quantized execution of the attention
//! mechanism (TurboAttention = FlashQ + SAS), together with the exact
//! references it is measured against.
//!
//! * [`mod@reference`] — naive `softmax(QKᵀ/√d)V` and an exact FlashAttention
//!   tiled implementation with online softmax (f32 and FP16-emulated).
//! * [`prefill`] — Algorithm 1: tiled INT8 attention with SAS, writing the
//!   progressively quantized KV cache as it sweeps.
//! * [`decode`] — Algorithm 2: single-token attention against the
//!   quantized cache with integer dequantization (INT4/2 → INT8).
//! * [`head_select`] — head-wise mixed precision: the `gap × std` priority
//!   metric of Equation 11 plus the entropy/min-max/variation ablation
//!   baselines of Figure 7b.
//! * [`api`] — the user-facing [`TurboAttention`] engine and its per-head
//!   prefill.
//! * [`gqa`] — the layer engine: pooled prefill and decode across a whole
//!   layer of query and KV heads, multi-head attention being GQA with
//!   groups of one.
//! * [`capability`] — the Table 1 technique-capability matrix.
//!
//! # Example
//!
//! ```
//! use turbo_attention::{turbo_attend_cache, TurboAttention, TurboConfig};
//! use turbo_tensor::TensorRng;
//!
//! let mut rng = TensorRng::new(0);
//! let (q, k, v) = (
//!     rng.normal(128, 32, 0.0, 1.0),
//!     rng.normal(128, 32, 0.0, 1.0),
//!     rng.normal(128, 32, 0.0, 1.0),
//! );
//! let engine = TurboAttention::new(TurboConfig::default());
//! let (out, mut cache) = engine.prefill_head(&q, &k, &v);
//! assert_eq!(out.shape(), (128, 32));
//! // Decode one more token against the quantized cache.
//! let qt = rng.normal(1, 32, 0.0, 1.0);
//! let kt = rng.normal(1, 32, 0.0, 1.0);
//! let vt = rng.normal(1, 32, 0.0, 1.0);
//! cache.try_append(kt.row(0), vt.row(0)).expect("finite token");
//! let step = turbo_attend_cache(qt.row(0), &cache, engine.sas());
//! assert_eq!(step.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod capability;
pub mod decode;
pub mod gqa;
pub mod head_select;
pub mod multilayer;
#[cfg(test)]
mod parallel;
pub mod prefill;
pub mod reference;
pub mod ring;
pub mod robust;
pub mod scratch;

pub use api::{TurboAttention, TurboConfig};
pub use capability::{capability_table, Capability, TechniqueRow};
pub use decode::{turbo_attend_cache, turbo_attend_group, turbo_attend_group_into};
pub use gqa::GqaLayout;
pub use head_select::{select_two_bit_heads, HeadStats, SelectionMethod};
pub use multilayer::{
    multilayer_episode_pipelined_on, multilayer_episode_serialized, MultiLayerOutput,
};
pub use prefill::{turbo_prefill_head, PrefillOutput};
pub use reference::{flash_attention, flash_attention_f16, naive_attention, Masking};
pub use ring::{merge_shards, ring_prefill_exact_on, ring_prefill_turbo_on};
pub use robust::{AttnError, PrecisionLevel, RobustAttention, RobustHeadCache};
pub use scratch::Scratch;
