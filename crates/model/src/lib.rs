//! # turbo-model
//!
//! Synthetic transformer substrate for the accuracy evaluation
//! (Tables 2–5, Figures 4 and 7b–10 of the paper).
//!
//! ## Why synthetic?
//!
//! The paper evaluates LLaMA3-8B, Qwen2-7B and Phi-3 on GSM8k / AQuA / BBH
//! chain-of-thought generation. Neither the pretrained weights nor a GPU
//! are available in this environment, so this crate reproduces the
//! *mechanism* by which attention approximation degrades accuracy:
//! a retrieval decision flips when quantization perturbs attention weights
//! or retrieved values.
//!
//! The harness builds **multi-hop associative recall** tasks with
//! *constructed* attention heads:
//!
//! * A per-head vocabulary of random unit embeddings encodes symbols.
//! * Key/value pairs are laid out as `K`/`V` rows; the query is the cue
//!   symbol's embedding. Exact attention retrieves the paired value with
//!   near-certainty; decoding is a nearest-neighbour lookup.
//! * A hop's retrieved symbol becomes the next hop's cue — mirroring CoT
//!   decoding, where one wrong step derails the chain.
//! * Channel-outlier structure (Figure 4) is injected with a diagonal
//!   transform `D`: keys become `D·k`, queries `D⁻¹·q`. Exact scores are
//!   unchanged, but quantizers now face the exact outlier channels real
//!   models exhibit. Value outliers are injected the same way and undone
//!   after attention (the `W_o` role).
//!
//! Accuracy = fraction of episodes whose final symbol is retrieved
//! correctly, evaluated per [`backend`] (FP16, TurboAttention, KIVI,
//! GEAR-L, …) per [`profile`] (LLaMA3-like, Qwen2-like, Phi3-like) per
//! [`tasks`] suite (GSM8k/AQuA/BBH proxies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod eval;
pub mod outliers;
pub mod profile;
pub mod tasks;
pub mod vocab;
pub mod weight_quant;

pub use backend::{Backend, PreparedAttention};
pub use eval::{evaluate_on, EvalConfig, EvalResult};
pub use profile::ModelProfile;
pub use tasks::{RecallEpisode, TaskSuite};
pub use vocab::Vocabulary;
pub use weight_quant::WeightQuant;
