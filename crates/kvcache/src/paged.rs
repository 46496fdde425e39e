//! Paged KV-cache pool with shared prefixes.
//!
//! Serving engines (vLLM and descendants) store the KV cache as fixed-size
//! pages so sequences that share a prefix — system prompts, few-shot
//! headers, beam-search branches — share physical memory. TurboAttention's
//! progressive blocks are natural pages: they are immutable once written,
//! so sharing is reference counting with no copy-on-write machinery. The
//! open INT8 tail buffer is per-sequence (it is mutable) and is copied on
//! fork.
//!
//! Combined with 4–5× block compression, paging multiplies capacity: a
//! hundred chat sessions over one system prompt store that prompt's pages
//! once, quantized.

use std::collections::{HashMap, HashSet};

use crate::buffer::Int8Buffer;
use crate::error::CacheError;
use crate::head::KvCacheConfig;
use crate::stats::ScrubReport;
use turbo_quant::{BitWidth, PackedCodes, ProgressiveBlock};
use turbo_robust::{Crc32, HealthEvent, HealthStats};
use turbo_tensor::Matrix;

/// Identifier of a live sequence in a [`PagedKvPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(u64);

impl SeqId {
    /// The raw id, for error reporting.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One immutable page: a sealed progressive K/V block pair plus its
/// reference count and seal-time checksum.
#[derive(Clone, Debug)]
struct Page {
    k: ProgressiveBlock,
    v: ProgressiveBlock,
    refs: usize,
    /// CRC32 over the page payload at seal time; [`PagedKvPool::scrub`]
    /// recomputes it to detect in-memory corruption.
    crc: u32,
}

/// Checksum of a page's payload: packed K/V codes, group parameters, and
/// stage-1 scales — everything a bit-flip could silently alter.
fn page_checksum(k: &ProgressiveBlock, v: &ProgressiveBlock) -> u32 {
    let mut crc = Crc32::new();
    for b in [k, v] {
        crc.update(b.packed().bytes());
        for p in b.group_params() {
            crc.update(&[p.scale as u8, p.zero as u8]);
        }
        crc.update(&b.outer_scale().to_le_bytes());
    }
    crc.finish()
}

#[derive(Clone, Debug)]
struct Sequence {
    pages: Vec<usize>,
    k_buf: Int8Buffer,
    v_buf: Int8Buffer,
}

/// A pool of shared, quantized KV pages for one attention head across many
/// sequences.
///
/// # Example
///
/// ```
/// use turbo_kvcache::{KvCacheConfig, PagedKvPool};
///
/// let mut pool = PagedKvPool::new(4, KvCacheConfig {
///     buffer_capacity: 2,
///     ..KvCacheConfig::default()
/// });
/// let a = pool.create_sequence();
/// pool.try_append(a, &[1.0; 4], &[2.0; 4])?;
/// pool.try_append(a, &[1.5; 4], &[2.5; 4])?; // buffer full -> sealed page
/// let b = pool.try_fork(a)?; // shares the sealed page
/// assert_eq!(pool.try_seq_len(a)?, 2);
/// assert_eq!(pool.try_seq_len(b)?, 2);
/// assert_eq!(pool.physical_pages(), 1);
/// # Ok::<(), turbo_kvcache::CacheError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PagedKvPool {
    d: usize,
    config: KvCacheConfig,
    pages: Vec<Option<Page>>,
    free: Vec<usize>,
    seqs: HashMap<SeqId, Sequence>,
    next_seq: u64,
}

impl PagedKvPool {
    /// Creates an empty pool for `d`-channel heads; `config.buffer_capacity`
    /// doubles as the page size in tokens.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension/config field or an INT8 resident width.
    pub fn new(d: usize, config: KvCacheConfig) -> Self {
        assert!(d > 0, "head dimension must be positive");
        assert!(config.buffer_capacity > 0, "page size must be positive");
        assert!(config.group_size > 0, "group size must be positive");
        assert!(
            config.bits != BitWidth::Int8,
            "resident pages must be INT4/3/2"
        );
        Self {
            d,
            config,
            pages: Vec::new(),
            free: Vec::new(),
            seqs: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// Starts an empty sequence.
    pub fn create_sequence(&mut self) -> SeqId {
        let id = SeqId(self.next_seq);
        self.next_seq += 1;
        self.seqs.insert(
            id,
            Sequence {
                pages: Vec::new(),
                k_buf: Int8Buffer::new(self.d),
                v_buf: Int8Buffer::new(self.d),
            },
        );
        id
    }

    /// Forks `seq`: the child shares every sealed page (reference counted)
    /// and gets a copy of the open tail buffer.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if `seq` is not live;
    /// [`CacheError::DanglingPage`] if its page table references a freed
    /// slot (pool corruption).
    pub fn try_fork(&mut self, seq: SeqId) -> Result<SeqId, CacheError> {
        let parent = self
            .seqs
            .get(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?
            .clone();
        // Validate the whole page table before touching refcounts so a
        // failed fork leaves the pool unchanged.
        for &p in &parent.pages {
            if self.pages.get(p).is_none_or(|slot| slot.is_none()) {
                return Err(CacheError::DanglingPage(p));
            }
        }
        for &p in &parent.pages {
            self.pages[p].as_mut().expect("validated above").refs += 1;
        }
        let id = SeqId(self.next_seq);
        self.next_seq += 1;
        self.seqs.insert(id, parent);
        Ok(id)
    }

    /// Releases a sequence, freeing any pages whose reference count drops
    /// to zero. Slots already freed (e.g. by a [`PagedKvPool::scrub`] that
    /// dropped corrupt pages) are skipped rather than treated as errors —
    /// release must always make progress during recovery.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if `seq` is not live.
    pub fn try_release(&mut self, seq: SeqId) -> Result<(), CacheError> {
        let s = self
            .seqs
            .remove(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        for p in s.pages {
            if let Some(Some(page)) = self.pages.get_mut(p) {
                page.refs -= 1;
                if page.refs == 0 {
                    self.pages[p] = None;
                    self.free.push(p);
                }
            }
        }
        Ok(())
    }

    /// Appends one token's K/V vectors to `seq`, sealing a page when the
    /// tail buffer reaches the page size. Validates the sequence and
    /// both rows before mutating anything, so a rejected token leaves the
    /// pool consistent (no half-appended K without V).
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`], [`CacheError::WidthMismatch`], or
    /// [`CacheError::NonFinite`] (first bad channel of whichever row is
    /// bad, K checked first).
    pub fn try_append(&mut self, seq: SeqId, k: &[f32], v: &[f32]) -> Result<(), CacheError> {
        let d = self.d;
        let validate = |row: &[f32]| -> Result<(), CacheError> {
            if row.len() != d {
                return Err(CacheError::WidthMismatch {
                    expected: d,
                    got: row.len(),
                });
            }
            if let Some(channel) = row.iter().position(|x| !x.is_finite()) {
                return Err(CacheError::NonFinite { channel });
            }
            Ok(())
        };
        validate(k)?;
        validate(v)?;
        let s = self
            .seqs
            .get_mut(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        s.k_buf
            .try_append(k)
            .expect("row validated before mutation");
        s.v_buf
            .try_append(v)
            .expect("row validated before mutation");
        if s.k_buf.len() >= self.config.buffer_capacity {
            let kb = ProgressiveBlock::quantize_from_int8(
                &s.k_buf.as_sym_quantized(),
                self.config.bits,
                self.config.group_size,
            );
            let vb = ProgressiveBlock::quantize_from_int8(
                &s.v_buf.as_sym_quantized(),
                self.config.bits,
                self.config.group_size,
            );
            s.k_buf.clear();
            s.v_buf.clear();
            let crc = page_checksum(&kb, &vb);
            let page = Page {
                k: kb,
                v: vb,
                refs: 1,
                crc,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.pages[slot] = Some(page);
                    slot
                }
                None => {
                    self.pages.push(Some(page));
                    self.pages.len() - 1
                }
            };
            s.pages.push(slot);
        }
        Ok(())
    }

    /// Number of live sequences.
    pub fn num_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// Tokens held by `seq` (sealed pages + tail buffer).
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if `seq` is not live.
    pub fn try_seq_len(&self, seq: SeqId) -> Result<usize, CacheError> {
        let s = self
            .seqs
            .get(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        Ok(self.tokens(s))
    }

    fn tokens(&self, s: &Sequence) -> usize {
        s.pages.len() * self.config.buffer_capacity + s.k_buf.len()
    }

    /// All live sequence ids, ascending.
    pub fn sequence_ids(&self) -> Vec<SeqId> {
        let mut ids: Vec<SeqId> = self.seqs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Physical (deduplicated) sealed pages in the pool.
    pub fn physical_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Logical pages summed over sequences (≥ physical when prefixes are
    /// shared).
    pub fn logical_pages(&self) -> usize {
        self.seqs.values().map(|s| s.pages.len()).sum()
    }

    /// Physical bytes held by sealed pages and tail buffers.
    pub fn storage_bytes(&self) -> usize {
        let pages: usize = self
            .pages
            .iter()
            .flatten()
            .map(|p| p.k.storage_bytes() + p.v.storage_bytes())
            .sum();
        let tails: usize = self
            .seqs
            .values()
            .map(|s| s.k_buf.storage_bytes() + s.v_buf.storage_bytes())
            .sum();
        pages + tails
    }

    /// Bytes the same *logical* tokens would take as unshared FP16.
    pub fn fp16_logical_bytes(&self) -> usize {
        self.seqs.values().map(|s| 2 * 2 * self.tokens(s) * self.d).sum()
    }

    /// Reconstructs `seq`'s full `(K, V)` in f32 — test/debug path.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] or [`CacheError::DanglingPage`].
    pub fn try_dequantize_sequence(&self, seq: SeqId) -> Result<(Matrix, Matrix), CacheError> {
        let s = self
            .seqs
            .get(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        let mut ks = Vec::new();
        let mut vs = Vec::new();
        for &p in &s.pages {
            let page = self
                .pages
                .get(p)
                .and_then(|slot| slot.as_ref())
                .ok_or(CacheError::DanglingPage(p))?;
            ks.push(page.k.dequantize());
            vs.push(page.v.dequantize());
        }
        if !s.k_buf.is_empty() {
            ks.push(s.k_buf.dequantize());
            vs.push(s.v_buf.dequantize());
        }
        if ks.is_empty() {
            return Ok((Matrix::zeros(0, self.d), Matrix::zeros(0, self.d)));
        }
        Ok((Matrix::vstack(&ks), Matrix::vstack(&vs)))
    }

    /// Visits `seq`'s K/V blocks oldest-first: sealed pages as
    /// progressive blocks, then the open tail (if any) as INT8.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] or [`CacheError::DanglingPage`];
    /// on error some pages may already have been visited.
    pub fn try_visit_blocks(
        &self,
        seq: SeqId,
        mut on_page: impl FnMut(&ProgressiveBlock, &ProgressiveBlock),
        mut on_tail: impl FnMut(&Int8Buffer, &Int8Buffer),
    ) -> Result<(), CacheError> {
        let s = self
            .seqs
            .get(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        for &p in &s.pages {
            let page = self
                .pages
                .get(p)
                .and_then(|slot| slot.as_ref())
                .ok_or(CacheError::DanglingPage(p))?;
            on_page(&page.k, &page.v);
        }
        if !s.k_buf.is_empty() {
            on_tail(&s.k_buf, &s.v_buf);
        }
        Ok(())
    }

    // ------------------------------------------- integrity & recovery --

    /// Fault-injection hook: mutable access to the packed K/V codes of
    /// the `page_pos`-th sealed page of `seq`. The seal-time checksum is
    /// deliberately *not* updated, so a subsequent [`PagedKvPool::scrub`]
    /// detects the mutation — exactly like a bit-flip in HBM.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if `seq` is not live;
    /// [`CacheError::DanglingPage`] if `page_pos` is out of range or the
    /// slot is freed.
    pub fn tamper_page(
        &mut self,
        seq: SeqId,
        page_pos: usize,
        f: impl FnOnce(&mut PackedCodes, &mut PackedCodes),
    ) -> Result<(), CacheError> {
        let s = self
            .seqs
            .get(&seq)
            .ok_or(CacheError::UnknownSequence(seq.0))?;
        let &slot = s.pages.get(page_pos).ok_or(CacheError::DanglingPage(page_pos))?;
        let page = self
            .pages
            .get_mut(slot)
            .and_then(|p| p.as_mut())
            .ok_or(CacheError::DanglingPage(slot))?;
        f(page.k.packed_mut(), page.v.packed_mut());
        Ok(())
    }

    /// Verifies every sealed page against its seal-time checksum, drops
    /// the pages that fail, and truncates affected sequences at their
    /// first corrupt page (everything after it depends on a corrupt
    /// prefix and must be re-prefilled anyway). Tail buffers of affected
    /// sequences are cleared for the same reason.
    ///
    /// Returns a [`ScrubReport`] listing the dropped pages and, per
    /// affected sequence, the token range the serving layer must
    /// re-prefill. Each dropped page records
    /// [`HealthEvent::DroppedPage`] and each truncated sequence
    /// [`HealthEvent::PartialRecovery`] in `health` when provided.
    pub fn scrub(&mut self, health: Option<&HealthStats>) -> ScrubReport {
        // Pass 1: find corrupt slots.
        let mut corrupt: HashSet<usize> = HashSet::new();
        for (slot, page) in self.pages.iter().enumerate() {
            if let Some(p) = page {
                if page_checksum(&p.k, &p.v) != p.crc {
                    corrupt.insert(slot);
                }
            }
        }
        let mut report = ScrubReport::default();
        if corrupt.is_empty() {
            return report;
        }
        // Pass 2: truncate every sequence at its first corrupt page,
        // releasing references the truncation drops. Iterate in id order
        // so reports are deterministic.
        for id in self.sequence_ids() {
            let s = self.seqs.get_mut(&id).expect("id just listed");
            let Some(first_bad) = s.pages.iter().position(|p| corrupt.contains(p)) else {
                continue;
            };
            let old_len = s.pages.len() * self.config.buffer_capacity + s.k_buf.len();
            let removed: Vec<usize> = s.pages.split_off(first_bad);
            s.k_buf.clear();
            s.v_buf.clear();
            for p in removed {
                // Healthy-but-unreachable pages lose this reference;
                // corrupt pages are freed wholesale in pass 3.
                if !corrupt.contains(&p) {
                    if let Some(Some(page)) = self.pages.get_mut(p) {
                        page.refs -= 1;
                        if page.refs == 0 {
                            self.pages[p] = None;
                            self.free.push(p);
                        }
                    }
                }
            }
            report
                .reprefill
                .push((id.raw(), first_bad * self.config.buffer_capacity..old_len));
            if let Some(h) = health {
                h.record(HealthEvent::PartialRecovery);
            }
        }
        // Pass 3: free the corrupt slots themselves.
        let mut slots: Vec<usize> = corrupt.into_iter().collect();
        slots.sort_unstable();
        for slot in slots {
            self.pages[slot] = None;
            self.free.push(slot);
            report.corrupt_pages += 1;
            if let Some(h) = health {
                h.record(HealthEvent::DroppedPage);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    fn pool(page: usize) -> PagedKvPool {
        PagedKvPool::new(
            8,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 8,
                buffer_capacity: page,
            },
        )
    }

    fn fill(pool: &mut PagedKvPool, seq: SeqId, seed: u64, n: usize) {
        let mut rng = TensorRng::new(seed);
        let data = rng.normal(n, 8, 0.0, 1.0);
        for t in 0..n {
            pool.try_append(seq, data.row(t), data.row(t)).unwrap();
        }
    }

    #[test]
    fn pages_seal_at_page_size() {
        let mut p = pool(4);
        let s = p.create_sequence();
        fill(&mut p, s, 1, 10);
        assert_eq!(p.try_seq_len(s), Ok(10));
        assert_eq!(p.physical_pages(), 2); // two sealed pages of 4
        let (k, _) = p.try_dequantize_sequence(s).unwrap();
        assert_eq!(k.rows(), 10);
    }

    #[test]
    fn fork_shares_pages_physically() {
        let mut p = pool(4);
        let a = p.create_sequence();
        fill(&mut p, a, 2, 8); // 2 sealed pages
        let b = p.try_fork(a).unwrap();
        let c = p.try_fork(a).unwrap();
        assert_eq!(p.num_sequences(), 3);
        assert_eq!(p.logical_pages(), 6);
        assert_eq!(p.physical_pages(), 2); // shared!
                                           // All three read identical content.
        assert_eq!(p.try_dequantize_sequence(a), p.try_dequantize_sequence(b));
        assert_eq!(p.try_dequantize_sequence(a), p.try_dequantize_sequence(c));
    }

    #[test]
    fn forked_sequences_diverge_independently() {
        let mut p = pool(4);
        let a = p.create_sequence();
        fill(&mut p, a, 3, 8);
        let b = p.try_fork(a).unwrap();
        // Divergent continuations.
        p.try_append(a, &[1.0; 8], &[1.0; 8]).unwrap();
        p.try_append(b, &[-1.0; 8], &[-1.0; 8]).unwrap();
        let (ka, _) = p.try_dequantize_sequence(a).unwrap();
        let (kb, _) = p.try_dequantize_sequence(b).unwrap();
        assert_eq!(ka.rows(), 9);
        assert!((ka.get(8, 0) - 1.0).abs() < 0.1);
        assert!((kb.get(8, 0) + 1.0).abs() < 0.1);
        // Shared prefix still shared.
        assert_eq!(p.physical_pages(), 2);
    }

    #[test]
    fn release_frees_unreferenced_pages_and_reuses_slots() {
        let mut p = pool(4);
        let a = p.create_sequence();
        fill(&mut p, a, 4, 8);
        let b = p.try_fork(a).unwrap();
        p.try_release(a).unwrap();
        assert_eq!(p.physical_pages(), 2, "b still references the pages");
        p.try_release(b).unwrap();
        assert_eq!(p.physical_pages(), 0);
        // Slots are recycled for the next sequence.
        let c = p.create_sequence();
        fill(&mut p, c, 5, 8);
        assert_eq!(p.physical_pages(), 2);
        assert_eq!(p.pages.len(), 2, "freed slots were reused");
    }

    #[test]
    fn sharing_shrinks_physical_footprint() {
        // 16 chat sessions over one 64-token system prompt.
        let mut p = pool(16);
        let root = p.create_sequence();
        fill(&mut p, root, 6, 64);
        let sessions: Vec<SeqId> = (0..16).map(|_| p.try_fork(root).unwrap()).collect();
        let mut rng = TensorRng::new(7);
        for &s in &sessions {
            for _ in 0..8 {
                let row: Vec<f32> = (0..8).map(|_| rng.standard_normal()).collect();
                p.try_append(s, &row, &row).unwrap();
            }
        }
        let physical = p.storage_bytes();
        let fp16_logical = p.fp16_logical_bytes();
        // 17 sequences × 64-token prefix logically, one physically, all
        // quantized: >12× below naive FP16 (the per-session INT8 tails are
        // the remaining cost).
        assert!(
            fp16_logical > 12 * physical,
            "physical {physical} vs fp16 logical {fp16_logical}"
        );
    }

    #[test]
    fn visit_blocks_sees_pages_then_tail() {
        let mut p = pool(4);
        let s = p.create_sequence();
        fill(&mut p, s, 8, 10);
        let mut pages = 0;
        let mut tails = 0;
        let mut tail_rows = 0;
        p.try_visit_blocks(
            s,
            |k, _v| {
                pages += 1;
                assert_eq!(k.rows(), 4);
            },
            |k, _v| {
                tails += 1;
                tail_rows = k.len();
            },
        )
        .unwrap();
        assert_eq!(pages, 2);
        assert_eq!(tails, 1);
        assert_eq!(tail_rows, 2);
    }

    #[test]
    #[should_panic(expected = "unknown sequence")]
    fn released_sequence_is_gone() {
        let mut p = pool(4);
        let s = p.create_sequence();
        p.try_release(s).unwrap();
        p.try_seq_len(s).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_apis_reject_bad_inputs_without_panicking() {
        let mut p = pool(4);
        let s = p.create_sequence();
        p.try_release(s).unwrap();
        assert_eq!(p.try_seq_len(s), Err(CacheError::UnknownSequence(s.raw())));
        assert_eq!(p.try_fork(s).unwrap_err(), CacheError::UnknownSequence(s.raw()));
        assert_eq!(p.try_release(s), Err(CacheError::UnknownSequence(s.raw())));
        assert!(p.try_dequantize_sequence(s).is_err());
        let live = p.create_sequence();
        assert_eq!(
            p.try_append(live, &[1.0; 3], &[1.0; 8]),
            Err(CacheError::WidthMismatch { expected: 8, got: 3 })
        );
        assert_eq!(
            p.try_append(live, &[1.0; 8], &[f32::NAN; 8]),
            Err(CacheError::NonFinite { channel: 0 })
        );
        // A rejected append must not leave K without V.
        assert_eq!(p.try_seq_len(live), Ok(0));
        assert_eq!(p.try_append(live, &[1.0; 8], &[2.0; 8]), Ok(()));
        assert_eq!(p.try_seq_len(live), Ok(1));
    }

    #[test]
    fn scrub_on_healthy_pool_is_clean() {
        let mut p = pool(4);
        let s = p.create_sequence();
        fill(&mut p, s, 10, 12);
        let report = p.scrub(None);
        assert!(report.is_clean());
        assert_eq!(p.try_seq_len(s), Ok(12));
    }

    #[test]
    fn scrub_drops_tampered_page_and_reports_reprefill_range() {
        use turbo_robust::{HealthEvent, HealthStats};
        let mut p = pool(4);
        let s = p.create_sequence();
        fill(&mut p, s, 11, 14); // 3 sealed pages + 2 in the tail
        p.tamper_page(s, 1, |k, _v| {
            k.bytes_mut()[0] ^= 0x04; // single bit flip in page 1
        })
        .unwrap();
        let health = HealthStats::new();
        let report = p.scrub(Some(&health));
        assert_eq!(report.corrupt_pages, 1);
        // Page 1 onward is lost: tokens 4..14 need re-prefill.
        assert_eq!(report.reprefill, vec![(s.raw(), 4..14)]);
        assert_eq!(report.tokens_lost(), 10);
        assert_eq!(health.count(HealthEvent::DroppedPage), 1);
        assert_eq!(health.count(HealthEvent::PartialRecovery), 1);
        // The surviving prefix still reads back.
        assert_eq!(p.try_seq_len(s), Ok(4));
        let (k, v) = p.try_dequantize_sequence(s).unwrap();
        assert_eq!(k.rows(), 4);
        assert_eq!(v.rows(), 4);
        // Pool is consistent: page 1's slot was freed, page 2 released.
        assert_eq!(p.physical_pages(), 1);
        // And the sequence keeps working after recovery.
        p.try_append(s, &[1.0; 8], &[1.0; 8]).unwrap();
        assert_eq!(p.try_seq_len(s), Ok(5));
    }

    #[test]
    fn scrub_truncates_every_sharer_of_a_corrupt_page() {
        let mut p = pool(4);
        let a = p.create_sequence();
        fill(&mut p, a, 12, 8); // 2 shared pages
        let b = p.try_fork(a).unwrap();
        p.try_append(b, &[0.5; 8], &[0.5; 8]).unwrap(); // b: 2 pages + 1 tail token
        p.tamper_page(a, 0, |_k, v| {
            v.bytes_mut()[2] ^= 0x80;
        })
        .unwrap();
        let report = p.scrub(None);
        assert_eq!(report.corrupt_pages, 1);
        assert_eq!(
            report.reprefill,
            vec![(a.raw(), 0..8), (b.raw(), 0..9)]
        );
        assert_eq!(p.try_seq_len(a), Ok(0));
        assert_eq!(p.try_seq_len(b), Ok(0));
        // Page 1 was healthy but unreachable from both sharers -> freed.
        assert_eq!(p.physical_pages(), 0);
        // Releasing after a scrub must not panic on freed slots.
        p.try_release(a).unwrap();
        p.try_release(b).unwrap();
    }

    #[test]
    fn scrub_spares_unaffected_sequences() {
        let mut p = pool(4);
        let a = p.create_sequence();
        let b = p.create_sequence();
        fill(&mut p, a, 13, 8);
        fill(&mut p, b, 14, 8);
        p.tamper_page(a, 0, |k, _| {
            k.bytes_mut()[1] ^= 0x01;
        })
        .unwrap();
        let report = p.scrub(None);
        assert_eq!(report.reprefill.len(), 1);
        assert_eq!(report.reprefill[0].0, a.raw());
        assert_eq!(p.try_seq_len(b), Ok(8), "healthy sequence untouched");
        let (kb, _) = p.try_dequantize_sequence(b).unwrap();
        assert_eq!(kb.rows(), 8);
    }

    #[test]
    fn tamper_page_validates_target() {
        let mut p = pool(4);
        let s = p.create_sequence();
        fill(&mut p, s, 15, 4);
        assert!(p.tamper_page(s, 5, |_, _| {}).is_err());
        let dead = p.create_sequence();
        p.try_release(dead).unwrap();
        assert!(p.tamper_page(dead, 0, |_, _| {}).is_err());
    }
}
