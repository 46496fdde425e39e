//! Unified error type for fallible cache operations.
//!
//! Every `try_*` API in this crate returns [`CacheError`] instead of
//! panicking, so the serving layer can degrade (drop a sequence, fall
//! back a precision rung, re-prefill a range) rather than abort the
//! process. A caller that has already validated its inputs writes
//! `try_x(..).expect("<why>")`.

/// Why a cache operation could not proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// The sequence id is not live in the pool (never created, or
    /// already released).
    UnknownSequence(u64),
    /// A sequence references a page slot that no longer holds a page —
    /// internal corruption, e.g. after an external fault.
    DanglingPage(usize),
    /// A K/V row had the wrong number of channels.
    WidthMismatch {
        /// Channels the cache was built for.
        expected: usize,
        /// Channels the caller supplied.
        got: usize,
    },
    /// A K/V row contained NaN or ±Inf.
    NonFinite {
        /// First offending channel index.
        channel: usize,
    },
    /// Quantization could not represent the data (scale overflow).
    ScaleOverflow,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnknownSequence(id) => write!(f, "unknown sequence {id}"),
            CacheError::DanglingPage(slot) => write!(f, "dangling page slot {slot}"),
            CacheError::WidthMismatch { expected, got } => {
                write!(f, "row width mismatch: expected {expected} channels, got {got}")
            }
            CacheError::NonFinite { channel } => {
                write!(f, "non-finite value in KV row at channel {channel}")
            }
            CacheError::ScaleOverflow => write!(f, "quantization scale overflow"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<turbo_quant::QuantError> for CacheError {
    fn from(e: turbo_quant::QuantError) -> Self {
        match e {
            turbo_quant::QuantError::ScaleOverflow => CacheError::ScaleOverflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_messages() {
        // Callers that `expect` a cache operation panic with these
        // messages, and tests match on these substrings.
        assert!(CacheError::UnknownSequence(3).to_string().contains("unknown sequence"));
        assert!(CacheError::WidthMismatch { expected: 4, got: 2 }
            .to_string()
            .contains("width mismatch"));
        assert!(CacheError::NonFinite { channel: 0 }
            .to_string()
            .contains("non-finite value in KV row"));
        assert!(CacheError::DanglingPage(1).to_string().contains("dangling page"));
    }
}
