//! Layer-level write-ahead log with **group commit** and an **adaptive
//! checkpoint scheduler**.
//!
//! [`DurableLayerSet`] is the crate's one durable unit. A model is
//! `layers × heads` caches; per-head logs would cost one
//! fsync-equivalent flush per head per token. A [`DurableLayerSet`] owns
//! every head of every layer behind **one** log: all heads' K/V rows for
//! a token travel in a single CRC32-framed record, so the commit is
//! atomic per token *across the whole model* — K and V, and every head,
//! can never desync — and the log is flushed once per token. A single
//! head is the 1-layer × 1-head set.
//!
//! ## WAL format
//!
//! ```text
//! header: magic "TLWL" | version u16 | layers u32 | heads u32
//!         | head_dim u32 | crc32(header)
//! record: kind u8 | payload_len u32 | payload | crc32(kind..payload)
//!   kind 1 = GroupAppend, payload = layers × heads × (d×f32 K ++ d×f32 V)
//!            in layer-major cell order (LE)
//!   kind 2 = GroupFlush,  payload empty (every head flushes)
//! ```
//!
//! ## Checkpoint blob format
//!
//! ```text
//! magic "TLCK" | version u16 | layers u32 | heads u32 | head_dim u32
//! | per cell (layer-major): payload_len u32 | serialize_head_cache bytes (v3)
//! | crc32(everything before it)
//! ```
//!
//! The trailing CRC makes the multi-layer checkpoint **all-or-nothing**:
//! a tear anywhere invalidates the whole blob. That is deliberate — the
//! per-head format can salvage a block prefix, but salvaged prefixes of
//! *different lengths per layer* would desync heads across layers, which
//! is exactly the invariant this module exists to protect. A torn
//! checkpoint therefore degrades to the empty set (token count 0, still a
//! valid common prefix) and the WAL is dropped with it (its records
//! continue from the complete checkpoint state).
//!
//! ## Adaptive checkpointing
//!
//! Re-checkpointing on *every* recover would be simple, but it pays a
//! full snapshot serialization per crash and does nothing to bound how
//! long the *next* replay can take. Instead a [`CheckpointPolicy`] is
//! consulted after every group commit (and after recovery replay):
//!
//! * [`ByteBudget`] — checkpoint once the WAL exceeds a byte budget;
//! * [`RecordBudget`] — checkpoint once the WAL holds that many records;
//! * [`ReplayBudget`] — checkpoint once `records / replay_rate` exceeds a
//!   wall-clock budget, i.e. a direct bound on worst-case replay time.
//!
//! Since at most `budget` records (equivalently bytes, or seconds at the
//! assumed replay rate) ever accumulate between checkpoints, recovery
//! replays at most that much regardless of how long the episode ran or
//! how many crashes it saw — the replay-length bound.
//!
//! Per-layer snapshot serialization runs as pooled tasks on
//! `turbo_runtime` (one task per layer, index-ordered merge), so a
//! checkpoint of a deep model scales with cores while staying
//! bit-identical to the serial result.

use super::{recover_head_cache, serialize_head_cache, PersistError};
use crate::error::CacheError;
use crate::head::KvCacheConfig;
use crate::layer::LayerKvCache;
use turbo_robust::{crc32, HealthEvent, HealthStats};

const LAYER_WAL_MAGIC: &[u8; 4] = b"TLWL";
const LAYER_WAL_VERSION: u16 = 1;
/// magic(4) + version(2) + layers(4) + heads(4) + head_dim(4) + crc(4).
const LAYER_WAL_HEADER_LEN: usize = 22;
/// kind(1) + payload_len(4) + crc(4), excluding the payload itself.
const RECORD_OVERHEAD: usize = 9;

const KIND_GROUP_APPEND: u8 = 1;
const KIND_GROUP_FLUSH: u8 = 2;

const CKPT_MAGIC: &[u8; 4] = b"TLCK";
const CKPT_VERSION: u16 = 1;

// ------------------------------------------------- checkpoint policies --

/// Why the adaptive scheduler decided to checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointCause {
    /// The WAL exceeded its byte budget.
    Bytes,
    /// The WAL exceeded its record budget.
    Records,
    /// The estimated replay time exceeded its wall-clock budget.
    ReplayBudget,
}

impl CheckpointCause {
    /// The [`HealthEvent`] counting this trigger cause.
    pub fn event(self) -> HealthEvent {
        match self {
            CheckpointCause::Bytes => HealthEvent::CheckpointByBytes,
            CheckpointCause::Records => HealthEvent::CheckpointByRecords,
            CheckpointCause::ReplayBudget => HealthEvent::CheckpointByReplayBudget,
        }
    }
}

/// When should a [`DurableLayerSet`] cut a fresh checkpoint?
///
/// Consulted after every group commit and after every recovery replay
/// with the WAL's current size. Returning `Some(cause)` triggers an
/// immediate checkpoint; the cause is recorded in [`HealthStats`] and the
/// set's [`GroupCommitStats`].
pub trait CheckpointPolicy: std::fmt::Debug + Send + Sync {
    /// Decide from the WAL's current byte and record counts.
    fn should_checkpoint(&self, wal_bytes: usize, wal_records: usize) -> Option<CheckpointCause>;
    /// Short stable name for logs.
    fn name(&self) -> &'static str;
    /// Clones the policy behind its trait object.
    fn clone_box(&self) -> Box<dyn CheckpointPolicy>;
}

impl Clone for Box<dyn CheckpointPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Checkpoint when the WAL exceeds `max_bytes` of log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteBudget {
    /// WAL bytes (records only, excluding the fixed header) tolerated
    /// before a checkpoint fires.
    pub max_bytes: usize,
}

impl CheckpointPolicy for ByteBudget {
    fn should_checkpoint(&self, wal_bytes: usize, _wal_records: usize) -> Option<CheckpointCause> {
        (wal_bytes >= self.max_bytes).then_some(CheckpointCause::Bytes)
    }
    fn name(&self) -> &'static str {
        "bytes"
    }
    fn clone_box(&self) -> Box<dyn CheckpointPolicy> {
        Box::new(*self)
    }
}

/// Checkpoint when the WAL holds `max_records` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordBudget {
    /// Records tolerated before a checkpoint fires.
    pub max_records: usize,
}

impl CheckpointPolicy for RecordBudget {
    fn should_checkpoint(&self, _wal_bytes: usize, wal_records: usize) -> Option<CheckpointCause> {
        (wal_records >= self.max_records).then_some(CheckpointCause::Records)
    }
    fn name(&self) -> &'static str {
        "records"
    }
    fn clone_box(&self) -> Box<dyn CheckpointPolicy> {
        Box::new(*self)
    }
}

/// Checkpoint when estimated replay time (`records / replay_rate`)
/// exceeds `max_replay_secs` — a direct bound on worst-case recovery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayBudget {
    /// Worst-case replay seconds tolerated.
    pub max_replay_secs: f64,
    /// Assumed replay speed in records per second.
    pub replay_rate: f64,
}

impl CheckpointPolicy for ReplayBudget {
    fn should_checkpoint(&self, _wal_bytes: usize, wal_records: usize) -> Option<CheckpointCause> {
        (wal_records as f64 / self.replay_rate >= self.max_replay_secs)
            .then_some(CheckpointCause::ReplayBudget)
    }
    fn name(&self) -> &'static str {
        "replay"
    }
    fn clone_box(&self) -> Box<dyn CheckpointPolicy> {
        Box::new(*self)
    }
}

/// A policy that never fires — checkpoints happen only on explicit
/// [`DurableLayerSet::checkpoint_on`] calls (bench/tests baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeverCheckpoint;

impl CheckpointPolicy for NeverCheckpoint {
    fn should_checkpoint(&self, _wal_bytes: usize, _wal_records: usize) -> Option<CheckpointCause> {
        None
    }
    fn name(&self) -> &'static str {
        "never"
    }
    fn clone_box(&self) -> Box<dyn CheckpointPolicy> {
        Box::new(*self)
    }
}

// ------------------------------------------------------- the group WAL --

/// An append-only, CRC32-framed group-commit log for `layers × heads`
/// caches. One `GroupAppend` record carries every cell's K/V rows for one
/// token.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerWriteAheadLog {
    layers: usize,
    heads: usize,
    d: usize,
    bytes: Vec<u8>,
    appends: usize,
    flushes: usize,
}

impl LayerWriteAheadLog {
    /// Creates an empty log for a `layers × heads` set of `d`-channel
    /// caches.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(layers: usize, heads: usize, d: usize) -> Self {
        assert!(layers > 0, "layer count must be positive");
        assert!(heads > 0, "head count must be positive");
        assert!(d > 0, "channel count must be positive");
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(LAYER_WAL_MAGIC);
        bytes.extend_from_slice(&LAYER_WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(layers as u32).to_le_bytes());
        bytes.extend_from_slice(&(heads as u32).to_le_bytes());
        bytes.extend_from_slice(&(d as u32).to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(bytes.len(), LAYER_WAL_HEADER_LEN);
        Self {
            layers,
            heads,
            d,
            bytes,
            appends: 0,
            flushes: 0,
        }
    }

    /// Layer count.
    pub fn num_layers(&self) -> usize {
        self.layers
    }

    /// Heads per layer.
    pub fn heads_per_layer(&self) -> usize {
        self.heads
    }

    /// Channel count per K/V row.
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// Total cells (`layers × heads`) one group commit covers.
    pub fn cells(&self) -> usize {
        self.layers * self.heads
    }

    /// The serialized log (header + records) as it would sit on disk.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records logged since the last [`LayerWriteAheadLog::clear`].
    pub fn records(&self) -> usize {
        self.appends + self.flushes
    }

    /// Group-append records logged (one per token, regardless of cells).
    pub fn appends(&self) -> usize {
        self.appends
    }

    /// Group-flush records logged.
    pub fn flushes(&self) -> usize {
        self.flushes
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records() == 0
    }

    /// Record bytes held (excluding the fixed header).
    pub fn record_bytes(&self) -> usize {
        self.bytes.len() - LAYER_WAL_HEADER_LEN
    }

    fn push_record(&mut self, kind: u8, payload: &[u8]) {
        let start = self.bytes.len();
        self.bytes.push(kind);
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        let crc = crc32(&self.bytes[start..]);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
    }

    /// Logs one token's rows for every cell (layer-major order) as a
    /// single group-commit record.
    ///
    /// # Panics
    ///
    /// Panics if the row counts or widths don't match the geometry.
    pub fn log_group_append(&mut self, ks: &[&[f32]], vs: &[&[f32]]) {
        let cells = self.cells();
        assert_eq!(ks.len(), cells, "one K row per cell required");
        assert_eq!(vs.len(), cells, "one V row per cell required");
        for (k, v) in ks.iter().zip(vs) {
            assert_eq!(k.len(), self.d, "K row width mismatch");
            assert_eq!(v.len(), self.d, "V row width mismatch");
        }
        // The group record is the decode hot path (one per token), so it
        // is framed in place rather than through a temporary payload
        // buffer: one resize, then bulk row serialization into the
        // reserved span. The on-disk bytes are identical to the
        // element-at-a-time formulation.
        let row_bytes = self.d * 4;
        let payload_len = cells * 2 * row_bytes;
        let start = self.bytes.len();
        self.bytes.reserve(RECORD_OVERHEAD + payload_len);
        self.bytes.push(KIND_GROUP_APPEND);
        self.bytes
            .extend_from_slice(&(payload_len as u32).to_le_bytes());
        let payload_start = self.bytes.len();
        self.bytes.resize(payload_start + payload_len, 0);
        let payload = &mut self.bytes[payload_start..];
        for (cell, (k, v)) in ks.iter().zip(vs).enumerate() {
            let base = cell * 2 * row_bytes;
            crate::persist::fill_rows_le(&mut payload[base..base + row_bytes], k);
            crate::persist::fill_rows_le(&mut payload[base + row_bytes..base + 2 * row_bytes], v);
        }
        let crc = crc32(&self.bytes[start..]);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.appends += 1;
    }

    /// Logs one explicit whole-set flush.
    pub fn log_group_flush(&mut self) {
        self.push_record(KIND_GROUP_FLUSH, &[]);
        self.flushes += 1;
    }

    /// Truncates the log back to its header (after a checkpoint).
    pub fn clear(&mut self) {
        self.bytes.truncate(LAYER_WAL_HEADER_LEN);
        self.appends = 0;
        self.flushes = 0;
    }

    /// Byte offsets at which a prefix of `bytes` ends on a clean frame
    /// boundary: the header end, then the end of each structurally
    /// complete record. Stops at the first frame that does not fit;
    /// empty if even the header is incomplete. Crash-point tests
    /// enumerate these (plus intra-record offsets).
    pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        if bytes.len() < LAYER_WAL_HEADER_LEN {
            return out;
        }
        out.push(LAYER_WAL_HEADER_LEN);
        let mut pos = LAYER_WAL_HEADER_LEN;
        while bytes.len() - pos >= RECORD_OVERHEAD {
            let len = u32::from_le_bytes([
                bytes[pos + 1],
                bytes[pos + 2],
                bytes[pos + 3],
                bytes[pos + 4],
            ]) as usize;
            let end = match pos.checked_add(RECORD_OVERHEAD + len) {
                Some(e) if e <= bytes.len() => e,
                _ => break,
            };
            out.push(end);
            pos = end;
        }
        out
    }
}

// -------------------------------------------------------- replay logic --

/// What replaying a layer-level WAL did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerWalReplayReport {
    /// Group-append records applied (tokens, not rows).
    pub appends: usize,
    /// Group-flush records applied.
    pub flushes: usize,
    /// Bytes dropped after the last valid record frame.
    pub dropped_bytes: usize,
    /// Byte offset of the end of the last valid frame (header end when no
    /// record replayed) — the prefix of the log that survives.
    pub valid_end: usize,
    /// Whether every byte of the log was consumed by valid records.
    pub complete: bool,
}

struct WalHeader {
    layers: usize,
    heads: usize,
    d: usize,
}

fn read_wal_header(bytes: &[u8]) -> Result<WalHeader, PersistError> {
    if bytes.len() < LAYER_WAL_HEADER_LEN {
        return Err(PersistError::Truncated);
    }
    if &bytes[..4] != LAYER_WAL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != LAYER_WAL_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let stored_crc = u32::from_le_bytes([bytes[18], bytes[19], bytes[20], bytes[21]]);
    if crc32(&bytes[..18]) != stored_crc {
        return Err(PersistError::Corrupt("layer WAL header checksum mismatch"));
    }
    let layers = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    let heads = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]) as usize;
    let d = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]) as usize;
    if layers == 0 || heads == 0 || d == 0 {
        return Err(PersistError::Corrupt("zero layer WAL geometry"));
    }
    Ok(WalHeader { layers, heads, d })
}

/// Replays the longest valid record prefix of `bytes` onto `layers`.
///
/// Every `GroupAppend` applies to all cells or none: the frame's CRC and
/// length are checked first, and after the per-head caches validated the
/// rows at commit time, the only per-cell "error" replay can see is
/// [`CacheError::ScaleOverflow`], which buffered the token exactly as at
/// commit time. A torn or corrupt frame ends the replay; everything
/// before it is applied, everything after is dropped and counted.
/// Records [`HealthEvent::WalReplay`] once,
/// [`HealthEvent::LayerWalReplayedRecords`] with the replay length, and
/// [`HealthEvent::WalRecordDropped`] when a tail was dropped.
///
/// # Errors
///
/// A [`PersistError`] only when the log *header* is unusable or does not
/// match the set's geometry — nothing is applied then.
pub fn replay_layer_wal(
    bytes: &[u8],
    layers: &mut [LayerKvCache],
    health: Option<&HealthStats>,
) -> Result<LayerWalReplayReport, PersistError> {
    let h = read_wal_header(bytes)?;
    if h.layers != layers.len() {
        return Err(PersistError::Corrupt("layer WAL layer-count mismatch"));
    }
    for layer in layers.iter() {
        if layer.num_heads() != h.heads {
            return Err(PersistError::Corrupt("layer WAL head-count mismatch"));
        }
        if layer.head(0).head_dim() != h.d {
            return Err(PersistError::Corrupt("layer WAL head dimension mismatch"));
        }
    }
    let cells = h.layers * h.heads;
    let row_bytes = 4 * h.d;

    let mut report = LayerWalReplayReport {
        appends: 0,
        flushes: 0,
        dropped_bytes: 0,
        valid_end: LAYER_WAL_HEADER_LEN,
        complete: true,
    };
    let mut pos = LAYER_WAL_HEADER_LEN;
    'records: while pos < bytes.len() {
        let ok_frame = (|| -> Option<(u8, usize, usize)> {
            if bytes.len() - pos < RECORD_OVERHEAD {
                return None;
            }
            let kind = bytes[pos];
            let len = u32::from_le_bytes([
                bytes[pos + 1],
                bytes[pos + 2],
                bytes[pos + 3],
                bytes[pos + 4],
            ]) as usize;
            let payload_end = pos.checked_add(5 + len)?;
            let frame_end = payload_end.checked_add(4)?;
            if frame_end > bytes.len() {
                return None;
            }
            let stored = u32::from_le_bytes([
                bytes[payload_end],
                bytes[payload_end + 1],
                bytes[payload_end + 2],
                bytes[payload_end + 3],
            ]);
            if crc32(&bytes[pos..payload_end]) != stored {
                return None;
            }
            Some((kind, len, frame_end))
        })();
        let Some((kind, len, frame_end)) = ok_frame else {
            break 'records;
        };
        let payload = &bytes[pos + 5..pos + 5 + len];
        match kind {
            KIND_GROUP_APPEND if len == cells * 2 * row_bytes => {
                let row = |cell: usize, half: usize| -> Vec<f32> {
                    let start = (cell * 2 + half) * row_bytes;
                    payload[start..start + row_bytes]
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect()
                };
                // Decode and sanity-check the whole group before touching
                // any cache, so a CRC-colliding corruption that decodes to
                // a row the caches would reject cannot half-apply.
                let mut rows: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(cells);
                for cell in 0..cells {
                    let (k, v) = (row(cell, 0), row(cell, 1));
                    if k.iter().chain(v.iter()).any(|x| !x.is_finite()) {
                        break 'records;
                    }
                    rows.push((k, v));
                }
                for (cell, (k, v)) in rows.iter().enumerate() {
                    let cache = layers[cell / h.heads].head_mut(cell % h.heads);
                    match cache.try_append(k, v) {
                        // ScaleOverflow buffered the token — identical to
                        // what happened at commit time.
                        Ok(()) | Err(CacheError::ScaleOverflow) => {}
                        Err(_) => unreachable!("rows validated before apply"),
                    }
                }
                report.appends += 1;
            }
            KIND_GROUP_FLUSH if len == 0 => {
                for layer in layers.iter_mut() {
                    for cache in layer.iter_mut() {
                        match cache.try_flush() {
                            // An overflowed flush left the buffer intact at
                            // commit time too; state stays identical.
                            Ok(()) | Err(CacheError::ScaleOverflow) => {}
                            Err(_) => break 'records,
                        }
                    }
                }
                report.flushes += 1;
            }
            _ => break 'records,
        }
        pos = frame_end;
    }
    report.valid_end = pos;
    report.dropped_bytes = bytes.len() - pos;
    report.complete = report.dropped_bytes == 0;
    if let Some(hs) = health {
        hs.record(HealthEvent::WalReplay);
        hs.record_n(
            HealthEvent::LayerWalReplayedRecords,
            (report.appends + report.flushes) as u64,
        );
        if !report.complete {
            hs.record(HealthEvent::WalRecordDropped);
        }
    }
    Ok(report)
}

// -------------------------------------------------- the durable set ----

/// Group-commit accounting of a [`DurableLayerSet`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Group-commit records logged (appends + flushes).
    pub group_commits: usize,
    /// K/V row-pairs those records carried (`appends × cells`).
    pub rows_committed: usize,
    /// Adaptive checkpoints fired on the byte budget.
    pub checkpoints_by_bytes: usize,
    /// Adaptive checkpoints fired on the record budget.
    pub checkpoints_by_records: usize,
    /// Adaptive checkpoints fired on the replay-time budget.
    pub checkpoints_by_replay_budget: usize,
    /// Explicit [`DurableLayerSet::checkpoint_on`] calls.
    pub manual_checkpoints: usize,
    /// WAL sync barriers (the fsync-equivalents): interval-driven group
    /// commits, explicit syncs, and flush-all barriers.
    pub wal_syncs: usize,
}

impl GroupCommitStats {
    fn count_cause(&mut self, cause: CheckpointCause) {
        match cause {
            CheckpointCause::Bytes => self.checkpoints_by_bytes += 1,
            CheckpointCause::Records => self.checkpoints_by_records += 1,
            CheckpointCause::ReplayBudget => self.checkpoints_by_replay_budget += 1,
        }
    }

    /// Total checkpoints, adaptive plus manual.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints_by_bytes
            + self.checkpoints_by_records
            + self.checkpoints_by_replay_budget
            + self.manual_checkpoints
    }
}

/// Outcome of a [`DurableLayerSet::recover_on`].
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRecoverOutcome {
    /// Whether the checkpoint blob validated end to end.
    pub checkpoint_complete: bool,
    /// What WAL replay did, or `None` when the WAL was discarded (torn
    /// checkpoint) or unreadable.
    pub wal: Option<LayerWalReplayReport>,
    /// Tokens in the recovered set (identical across every cell).
    pub tokens: usize,
    /// True when nothing was lost: checkpoint complete and every WAL byte
    /// replayed.
    pub clean: bool,
    /// Whether the policy forced a post-recovery checkpoint (and why).
    /// `None` means the recovered snapshot + surviving WAL prefix were
    /// kept as-is — the adaptive alternative to re-checkpointing on every
    /// recover.
    pub checkpointed: Option<CheckpointCause>,
}

/// Every head of every layer behind one group-commit write-ahead log,
/// with adaptive snapshot checkpoints.
///
/// The durable pair `(checkpoint, wal)` survives a crash that tears
/// either at an arbitrary byte offset; [`DurableLayerSet::recover_on`]
/// reconstructs every cell bit-identical to a **common** token prefix of
/// the mutation stream — no head, in any layer, can desync from the
/// others.
#[derive(Clone, Debug)]
pub struct DurableLayerSet {
    layers: Vec<LayerKvCache>,
    wal: LayerWriteAheadLog,
    checkpoint: Vec<u8>,
    policy: Box<dyn CheckpointPolicy>,
    stats: GroupCommitStats,
    config: KvCacheConfig,
    /// Sync (fsync-equivalent) the WAL every this many appended tokens.
    /// 1 = every token is durable the moment its append returns (the
    /// pre-batching behavior); n > 1 amortizes the sync tax over n tokens
    /// at the cost of a crash losing at most the last `n − 1` tokens.
    flush_every_n_tokens: usize,
    /// Appends logged since the last sync barrier.
    unsynced_appends: usize,
    /// Byte length of the durable WAL prefix — what a crash preserves.
    durable_watermark: usize,
    /// Whether the per-layer caches are currently detached for pipelined
    /// execution (see [`DurableLayerSet::take_layers_for_pipeline`]).
    /// While detached, `self.layers` holds empty placeholders, so any
    /// operation that reads or serializes cache state would silently lie;
    /// those paths assert against this flag.
    detached: bool,
}

impl DurableLayerSet {
    /// Creates an empty durable set of `layers × heads` caches with a
    /// uniform quantization config; the initial checkpoint is the
    /// serialized empty set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (as [`LayerKvCache::uniform`]).
    pub fn new(
        layers: usize,
        heads: usize,
        d: usize,
        config: KvCacheConfig,
        policy: Box<dyn CheckpointPolicy>,
    ) -> Self {
        assert!(layers > 0, "layer count must be positive");
        let layer_caches: Vec<LayerKvCache> = (0..layers)
            .map(|_| {
                LayerKvCache::uniform(heads, d, config.bits, config.group_size, config.buffer_capacity)
            })
            .collect();
        let mut set = Self {
            wal: LayerWriteAheadLog::new(layers, heads, d),
            checkpoint: Vec::new(),
            layers: layer_caches,
            policy,
            stats: GroupCommitStats::default(),
            config,
            flush_every_n_tokens: 1,
            unsynced_appends: 0,
            durable_watermark: 0,
            detached: false,
        };
        set.checkpoint = set.serialize_checkpoint_on(turbo_runtime::global());
        set.durable_watermark = set.wal.as_bytes().len();
        set
    }

    /// Layer count.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Heads per layer.
    pub fn heads_per_layer(&self) -> usize {
        self.layers[0].num_heads()
    }

    /// Channel count per K/V row.
    pub fn head_dim(&self) -> usize {
        self.layers[0].head(0).head_dim()
    }

    /// Total cells (`layers × heads`).
    pub fn cells(&self) -> usize {
        self.num_layers() * self.heads_per_layer()
    }

    /// Tokens cached (identical across every cell by construction).
    pub fn tokens(&self) -> usize {
        self.layers[0].len()
    }

    /// Read access to one layer (mutations must go through the durable
    /// APIs so they are logged).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> &LayerKvCache {
        &self.layers[l]
    }

    /// The group-commit log since the last checkpoint.
    pub fn wal(&self) -> &LayerWriteAheadLog {
        &self.wal
    }

    /// The last checkpoint's blob.
    pub fn checkpoint_bytes(&self) -> &[u8] {
        &self.checkpoint
    }

    /// Group-commit and checkpoint accounting.
    pub fn stats(&self) -> GroupCommitStats {
        self.stats
    }

    /// The active checkpoint policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Owned copies of the durable pair `(checkpoint, wal)` — what a
    /// crash leaves behind (possibly torn by the fault injector).
    ///
    /// Only the **synced** WAL prefix is durable: with a flush interval
    /// of `n`, records logged since the last sync barrier (at most the
    /// last `n − 1` token appends) live only in memory and do not appear
    /// here — exactly what an un-fsynced page-cache tail loses.
    pub fn durable_state(&self) -> (Vec<u8>, Vec<u8>) {
        (
            self.checkpoint.clone(),
            self.wal.as_bytes()[..self.durable_watermark].to_vec(),
        )
    }

    /// The WAL sync interval in tokens (see
    /// [`DurableLayerSet::set_flush_every_n_tokens`]).
    pub fn flush_every_n_tokens(&self) -> usize {
        self.flush_every_n_tokens
    }

    /// Sets the group-commit staleness bound: the WAL is synced
    /// (fsync-equivalent) every `n` appended tokens instead of after
    /// every one. A crash between syncs loses at most the last `n − 1`
    /// appended tokens; explicit [`DurableLayerSet::sync_wal`],
    /// [`DurableLayerSet::try_flush_all`], and every checkpoint remain
    /// hard durability barriers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_flush_every_n_tokens(&mut self, n: usize) {
        assert!(n > 0, "flush interval must be at least one token");
        self.flush_every_n_tokens = n;
    }

    /// Forces a WAL sync barrier: everything logged so far becomes
    /// durable immediately, regardless of the flush interval. A no-op
    /// (not counted in the stats) when nothing new was logged.
    pub fn sync_wal(&mut self) {
        let end = self.wal.as_bytes().len();
        if end != self.durable_watermark {
            self.stats.wal_syncs += 1;
        }
        self.durable_watermark = end;
        self.unsynced_appends = 0;
    }

    /// Appends one token's K/V rows to every cell (layer-major order) and
    /// logs them as **one** group-commit record, then consults the
    /// checkpoint policy. Validates every row before mutating anything,
    /// so a rejected token leaves the whole set unchanged — the commit is
    /// atomic across the model.
    ///
    /// Records [`HealthEvent::LayerGroupCommit`] and
    /// [`HealthEvent::LayerGroupRows`] per commit, plus the checkpoint
    /// cause event when the policy fires.
    ///
    /// # Errors
    ///
    /// [`CacheError::WidthMismatch`] / [`CacheError::NonFinite`] if any
    /// row is malformed (nothing is applied or logged);
    /// [`CacheError::ScaleOverflow`] if any cell's capacity flush
    /// overflowed — the token **was** buffered everywhere and **was**
    /// logged, so replay reproduces the same state.
    pub fn try_append_token(
        &mut self,
        ks: &[&[f32]],
        vs: &[&[f32]],
        health: Option<&HealthStats>,
    ) -> Result<(), CacheError> {
        assert!(
            !self.detached,
            "try_append_token while layers are detached for pipelining; \
             use commit_pipelined_token"
        );
        self.validate_token_rows(ks, vs)?;
        let heads = self.heads_per_layer();
        let mut overflowed = false;
        for (cell, (k, v)) in ks.iter().zip(vs).enumerate() {
            match self.layers[cell / heads].head_mut(cell % heads).try_append(k, v) {
                Ok(()) => {}
                Err(CacheError::ScaleOverflow) => overflowed = true,
                Err(e) => unreachable!("rows validated before apply: {e}"),
            }
        }
        self.log_token_commit(ks, vs, health);
        self.maybe_checkpoint(health);
        if overflowed {
            Err(CacheError::ScaleOverflow)
        } else {
            Ok(())
        }
    }

    /// Shape/finiteness validation shared by the serialized and pipelined
    /// commit paths. Rejecting before mutating anything is what keeps a
    /// failed token atomic across the model.
    fn validate_token_rows(&self, ks: &[&[f32]], vs: &[&[f32]]) -> Result<(), CacheError> {
        let cells = self.cells();
        let d = self.head_dim();
        if ks.len() != cells || vs.len() != cells {
            return Err(CacheError::WidthMismatch {
                expected: cells,
                got: ks.len().min(vs.len()),
            });
        }
        for row in ks.iter().chain(vs.iter()) {
            if row.len() != d {
                return Err(CacheError::WidthMismatch {
                    expected: d,
                    got: row.len(),
                });
            }
            if let Some(channel) = row.iter().position(|x| !x.is_finite()) {
                return Err(CacheError::NonFinite { channel });
            }
        }
        Ok(())
    }

    /// The WAL/stats half of a token commit, shared verbatim by
    /// [`DurableLayerSet::try_append_token`] and
    /// [`DurableLayerSet::commit_pipelined_token`] so both paths emit
    /// byte-identical group-commit records under the same sync cadence.
    fn log_token_commit(&mut self, ks: &[&[f32]], vs: &[&[f32]], health: Option<&HealthStats>) {
        let cells = ks.len();
        self.wal.log_group_append(ks, vs);
        self.stats.group_commits += 1;
        self.stats.rows_committed += cells;
        // Group commit across tokens: the sync barrier (fsync-equivalent)
        // fires every `flush_every_n_tokens` appends, not per token.
        self.unsynced_appends += 1;
        if self.unsynced_appends >= self.flush_every_n_tokens {
            self.sync_wal();
        }
        if let Some(hs) = health {
            hs.record(HealthEvent::LayerGroupCommit);
            hs.record_n(HealthEvent::LayerGroupRows, cells as u64);
        }
    }

    /// Detaches the per-layer caches so a [`turbo_runtime::LayerPipeline`]
    /// can advance them from concurrent per-layer tasks while this set
    /// keeps sole custody of the WAL. The caches are handed to the caller
    /// by value (replaced internally with empty placeholders) because the
    /// pipeline's whole point is that layer `k+1` appends while layer `k`
    /// still computes — a borrow through `&mut self` cannot express that.
    ///
    /// While detached:
    /// * WAL commits go through
    ///   [`DurableLayerSet::commit_pipelined_token`], which logs exactly
    ///   the record [`DurableLayerSet::try_append_token`] would have;
    /// * the checkpoint policy is **deferred** (a checkpoint would
    ///   serialize the placeholders — i.e. lose data — so the policy is
    ///   consulted once at restore instead);
    /// * cache-reading APIs ([`DurableLayerSet::tokens`],
    ///   [`DurableLayerSet::layer`], checkpointing, …) must not be called;
    ///   the mutating ones assert.
    ///
    /// Call [`DurableLayerSet::restore_layers_from_pipeline`] with the
    /// advanced caches once the pipeline has joined.
    ///
    /// # Panics
    ///
    /// Panics if the layers are already detached.
    pub fn take_layers_for_pipeline(&mut self) -> Vec<LayerKvCache> {
        assert!(!self.detached, "layers already detached for pipelining");
        self.detached = true;
        let heads = self.heads_per_layer();
        let d = self.head_dim();
        let placeholders: Vec<LayerKvCache> = (0..self.layers.len())
            .map(|_| {
                LayerKvCache::uniform(
                    heads,
                    d,
                    self.config.bits,
                    self.config.group_size,
                    self.config.buffer_capacity,
                )
            })
            .collect();
        std::mem::replace(&mut self.layers, placeholders)
    }

    /// Logs one token's group-commit record while the caches are detached
    /// for pipelined execution. Byte-identical to the record
    /// [`DurableLayerSet::try_append_token`] emits for the same rows, with
    /// the same stats, sync-cadence, and health-event sequence — the WAL
    /// cannot tell the two engines apart.
    ///
    /// The caches themselves are advanced by the pipeline's compute
    /// tasks; capacity-overflow signalling therefore surfaces there, not
    /// here.
    ///
    /// # Errors
    ///
    /// [`CacheError::WidthMismatch`] / [`CacheError::NonFinite`] exactly
    /// as the serialized path: a malformed token logs nothing.
    ///
    /// # Panics
    ///
    /// Panics if the layers are not currently detached.
    pub fn commit_pipelined_token(
        &mut self,
        ks: &[&[f32]],
        vs: &[&[f32]],
        health: Option<&HealthStats>,
    ) -> Result<(), CacheError> {
        assert!(
            self.detached,
            "commit_pipelined_token without take_layers_for_pipeline"
        );
        self.validate_token_rows(ks, vs)?;
        self.log_token_commit(ks, vs, health);
        Ok(())
    }

    /// Reattaches the caches a pipeline advanced and consults the
    /// checkpoint policy once, covering every commit made while detached.
    ///
    /// # Panics
    ///
    /// Panics if the layers are not detached, or if `layers` has the
    /// wrong geometry (wrong count, heads, or head dim).
    pub fn restore_layers_from_pipeline(
        &mut self,
        layers: Vec<LayerKvCache>,
        health: Option<&HealthStats>,
    ) {
        assert!(
            self.detached,
            "restore_layers_from_pipeline without take_layers_for_pipeline"
        );
        assert_eq!(layers.len(), self.layers.len(), "layer count changed");
        for layer in &layers {
            assert_eq!(layer.num_heads(), self.heads_per_layer(), "head count changed");
            assert_eq!(layer.head(0).head_dim(), self.head_dim(), "head dim changed");
        }
        self.layers = layers;
        self.detached = false;
        // Deferred policy consultation: one decision covering the whole
        // detached window, now that a checkpoint would serialize real
        // state again.
        self.maybe_checkpoint(health);
    }

    /// Flushes every cell's open buffer and logs **one** group-flush
    /// record (nothing is logged when every buffer was empty), then
    /// consults the checkpoint policy.
    ///
    /// # Errors
    ///
    /// [`CacheError::ScaleOverflow`] if any cell's second-stage
    /// quantization overflowed; that cell's buffer stays intact (exactly
    /// what replay reproduces), every other cell flushed.
    pub fn try_flush_all(&mut self, health: Option<&HealthStats>) -> Result<(), CacheError> {
        assert!(
            !self.detached,
            "try_flush_all while layers are detached for pipelining"
        );
        let had_tokens = self
            .layers
            .iter()
            .any(|l| l.iter().any(|h| h.buffer_len() > 0));
        if !had_tokens {
            // Still a durability barrier: pending un-synced appends (e.g.
            // ones whose capacity flush already emptied the buffers)
            // become durable even though no flush record is logged.
            self.sync_wal();
            return Ok(());
        }
        let mut overflowed = false;
        for layer in &mut self.layers {
            for cache in layer.iter_mut() {
                match cache.try_flush() {
                    Ok(()) => {}
                    Err(CacheError::ScaleOverflow) => overflowed = true,
                    Err(e) => return Err(e),
                }
            }
        }
        self.wal.log_group_flush();
        self.stats.group_commits += 1;
        // An explicit whole-set flush is always a durability barrier.
        self.sync_wal();
        if let Some(hs) = health {
            hs.record(HealthEvent::LayerGroupCommit);
        }
        self.maybe_checkpoint(health);
        if overflowed {
            Err(CacheError::ScaleOverflow)
        } else {
            Ok(())
        }
    }

    fn maybe_checkpoint(&mut self, health: Option<&HealthStats>) -> Option<CheckpointCause> {
        let cause = self
            .policy
            .should_checkpoint(self.wal.record_bytes(), self.wal.records())?;
        self.checkpoint_with_cause(turbo_runtime::global(), Some(cause), health);
        Some(cause)
    }

    /// Takes a fresh multi-layer checkpoint on `rt` (pass
    /// [`turbo_runtime::global()`] for the default pool) and truncates
    /// the WAL. Returns the checkpoint size in bytes.
    pub fn checkpoint_on(
        &mut self,
        rt: &turbo_runtime::Runtime,
        health: Option<&HealthStats>,
    ) -> usize {
        self.checkpoint_with_cause(rt, None, health)
    }

    fn checkpoint_with_cause(
        &mut self,
        rt: &turbo_runtime::Runtime,
        cause: Option<CheckpointCause>,
        health: Option<&HealthStats>,
    ) -> usize {
        assert!(
            !self.detached,
            "checkpoint while layers are detached for pipelining would \
             serialize empty placeholders"
        );
        self.checkpoint = self.serialize_checkpoint_on(rt);
        self.wal.clear();
        // The snapshot subsumes every logged record; the (empty) WAL is
        // durable in full.
        self.durable_watermark = self.wal.as_bytes().len();
        self.unsynced_appends = 0;
        match cause {
            Some(c) => {
                self.stats.count_cause(c);
                if let Some(hs) = health {
                    hs.record(c.event());
                }
            }
            None => self.stats.manual_checkpoints += 1,
        }
        self.checkpoint.len()
    }

    /// Serializes the whole set: per-layer payloads built as pooled tasks
    /// (index-ordered merge keeps the blob bit-identical to serial), then
    /// framed and sealed with one trailing CRC32 — all-or-nothing by
    /// construction.
    fn serialize_checkpoint_on(&self, rt: &turbo_runtime::Runtime) -> Vec<u8> {
        let layer_payloads: Vec<Vec<u8>> = rt.par_map(&self.layers, |layer| {
            let mut out = Vec::new();
            for cache in layer.iter() {
                let bytes = serialize_head_cache(cache);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
            out
        });
        let mut blob = Vec::new();
        blob.extend_from_slice(CKPT_MAGIC);
        blob.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        blob.extend_from_slice(&(self.num_layers() as u32).to_le_bytes());
        blob.extend_from_slice(&(self.heads_per_layer() as u32).to_le_bytes());
        blob.extend_from_slice(&(self.head_dim() as u32).to_le_bytes());
        for p in layer_payloads {
            blob.extend_from_slice(&p);
        }
        let crc = crc32(&blob);
        blob.extend_from_slice(&crc.to_le_bytes());
        blob
    }

    /// Decodes a checkpoint blob back into per-layer caches.
    ///
    /// # Errors
    ///
    /// Any tear or corruption anywhere in the blob (the trailing CRC
    /// covers every byte) — the checkpoint is all-or-nothing — and any
    /// head snapshot whose `d` or token count disagrees with the header
    /// or with the first head.
    fn decode_checkpoint(
        blob: &[u8],
        layers: usize,
        heads: usize,
        d: usize,
        health: Option<&HealthStats>,
    ) -> Result<Vec<LayerKvCache>, PersistError> {
        const HEAD: usize = 18; // magic(4) + version(2) + 3×u32
        if blob.len() < HEAD + 4 {
            return Err(PersistError::Truncated);
        }
        if &blob[..4] != CKPT_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes([blob[4], blob[5]]);
        if version != CKPT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let body_end = blob.len() - 4;
        let stored_crc = u32::from_le_bytes([
            blob[body_end],
            blob[body_end + 1],
            blob[body_end + 2],
            blob[body_end + 3],
        ]);
        if crc32(&blob[..body_end]) != stored_crc {
            return Err(PersistError::Corrupt("layer checkpoint checksum mismatch"));
        }
        let rd = |off: usize| -> usize {
            u32::from_le_bytes([blob[off], blob[off + 1], blob[off + 2], blob[off + 3]]) as usize
        };
        if rd(6) != layers || rd(10) != heads || rd(14) != d {
            return Err(PersistError::Corrupt("layer checkpoint geometry mismatch"));
        }
        let mut pos = HEAD;
        let mut out = Vec::with_capacity(layers);
        // The CRC proves the bytes are what the writer wrote, not that
        // the writer was sane: check each head's geometry before
        // `from_heads` would panic on it.
        let mut tokens = None;
        for _ in 0..layers {
            let mut caches = Vec::with_capacity(heads);
            for _ in 0..heads {
                if pos + 4 > body_end {
                    return Err(PersistError::Truncated);
                }
                let len = rd(pos);
                pos += 4;
                if pos + len > body_end {
                    return Err(PersistError::Truncated);
                }
                let (cache, report) = recover_head_cache(&blob[pos..pos + len], health)?;
                if !report.complete {
                    // The trailing CRC validated, so an incomplete head
                    // snapshot means a corrupt writer, not storage rot.
                    return Err(PersistError::Corrupt("incomplete head inside checkpoint"));
                }
                if cache.head_dim() != d || *tokens.get_or_insert(cache.len()) != cache.len() {
                    return Err(PersistError::Corrupt("head geometry mismatch inside checkpoint"));
                }
                caches.push(cache);
                pos += len;
            }
            out.push(LayerKvCache::from_heads(caches));
        }
        if pos != body_end {
            return Err(PersistError::Corrupt("trailing bytes inside checkpoint"));
        }
        Ok(out)
    }

    /// Rebuilds a durable set from a crash's leftovers on `rt` (pass
    /// [`turbo_runtime::global()`] for the default pool). See the module
    /// docs: a complete checkpoint anchors a replay of the WAL's longest
    /// valid record prefix; a torn checkpoint degrades to the empty set
    /// (and the WAL is dropped with it). Either way **every cell lands on
    /// the same token count**, bit-identical to a common prefix of the
    /// mutation stream.
    ///
    /// Recovery does **not** unconditionally re-checkpoint: the
    /// surviving WAL prefix is kept and the checkpoint policy decides —
    /// with the replay length it just measured — whether a fresh
    /// snapshot is worth cutting now.
    ///
    /// # Errors
    ///
    /// A [`PersistError`] when the checkpoint blob is unusable (use
    /// [`DurableLayerSet::recover_or_empty`] to degrade instead).
    #[allow(clippy::too_many_arguments)]
    pub fn recover_on(
        rt: &turbo_runtime::Runtime,
        layers: usize,
        heads: usize,
        d: usize,
        config: KvCacheConfig,
        policy: Box<dyn CheckpointPolicy>,
        checkpoint: &[u8],
        wal_bytes: &[u8],
        health: Option<&HealthStats>,
    ) -> Result<(Self, LayerRecoverOutcome), PersistError> {
        let mut caches = Self::decode_checkpoint(checkpoint, layers, heads, d, health)?;
        let wal_report = match replay_layer_wal(wal_bytes, &mut caches, health) {
            Ok(r) => Some(r),
            // Unreadable WAL header: the checkpoint alone is still a
            // valid common prefix.
            Err(_) => {
                if let Some(hs) = health {
                    hs.record(HealthEvent::WalRecordDropped);
                }
                None
            }
        };
        // Keep the surviving valid WAL prefix live instead of folding it
        // into a fresh snapshot: repeated recoveries then cost replay, not
        // serialization, and the policy bounds how long that replay can be.
        let mut wal = LayerWriteAheadLog::new(layers, heads, d);
        if let Some(r) = wal_report {
            wal.bytes.clear();
            wal.bytes.extend_from_slice(&wal_bytes[..r.valid_end]);
            wal.appends = r.appends;
            wal.flushes = r.flushes;
        }
        let tokens = caches[0].len();
        let clean = wal_report.is_some_and(|r| r.complete);
        let durable_watermark = wal.as_bytes().len();
        let mut set = Self {
            layers: caches,
            checkpoint: checkpoint.to_vec(),
            wal,
            policy,
            stats: GroupCommitStats::default(),
            config,
            flush_every_n_tokens: 1,
            unsynced_appends: 0,
            // Everything that survived the crash is durable by definition.
            durable_watermark,
            detached: false,
        };
        let checkpointed = match set
            .policy
            .should_checkpoint(set.wal.record_bytes(), set.wal.records())
        {
            Some(cause) => {
                set.checkpoint_with_cause(rt, Some(cause), health);
                Some(cause)
            }
            None => None,
        };
        let outcome = LayerRecoverOutcome {
            checkpoint_complete: true,
            wal: wal_report,
            tokens,
            clean,
            checkpointed,
        };
        Ok((set, outcome))
    }

    /// As [`DurableLayerSet::recover_on`] on the global runtime, but an
    /// unusable (torn, corrupt, or missing) checkpoint degrades to a
    /// fresh empty set instead of an error — the replica-rebuild path,
    /// where "lost everything, re-prefill from scratch" is a valid
    /// outcome. The WAL is dropped with the checkpoint (its records
    /// continue from a state that no longer exists); token count 0 is
    /// still a valid common prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_or_empty(
        layers: usize,
        heads: usize,
        d: usize,
        config: KvCacheConfig,
        policy: Box<dyn CheckpointPolicy>,
        checkpoint: &[u8],
        wal_bytes: &[u8],
        health: Option<&HealthStats>,
    ) -> (Self, LayerRecoverOutcome) {
        match Self::recover_on(
            turbo_runtime::global(),
            layers,
            heads,
            d,
            config,
            policy.clone(),
            checkpoint,
            wal_bytes,
            health,
        ) {
            Ok(pair) => pair,
            Err(_) => {
                if let Some(hs) = health {
                    hs.record(HealthEvent::WalRecordDropped);
                }
                let set = Self::new(layers, heads, d, config, policy);
                let outcome = LayerRecoverOutcome {
                    checkpoint_complete: false,
                    wal: None,
                    tokens: 0,
                    clean: false,
                    checkpointed: None,
                };
                (set, outcome)
            }
        }
    }

    /// The uniform quantization config every cell uses.
    pub fn config(&self) -> KvCacheConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::HeadKvCache;
    use turbo_quant::BitWidth;
    use turbo_runtime::global;
    use turbo_tensor::{Matrix, TensorRng};

    const LAYERS: usize = 2;
    const HEADS: usize = 3;
    const D: usize = 4;
    const CELLS: usize = LAYERS * HEADS;

    fn cfg() -> KvCacheConfig {
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 8,
            buffer_capacity: 8,
        }
    }

    fn never() -> Box<dyn CheckpointPolicy> {
        Box::new(NeverCheckpoint)
    }

    /// Recovers the test geometry under the never-checkpoint policy.
    fn recover(
        ckpt: &[u8],
        wal: &[u8],
    ) -> Result<(DurableLayerSet, LayerRecoverOutcome), PersistError> {
        DurableLayerSet::recover_on(global(), LAYERS, HEADS, D, cfg(), never(), ckpt, wal, None)
    }

    /// Per-cell rows for token `t`: distinct data per cell so
    /// cross-wiring between cells would be caught.
    fn cell_rows(data: &Matrix, t: usize) -> Vec<&[f32]> {
        let row = data.row(t);
        (0..CELLS).map(|c| &row[c * D..(c + 1) * D]).collect()
    }

    fn filled(data: &Matrix, tokens: usize, flush_every: usize) -> DurableLayerSet {
        let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        for t in 0..tokens {
            let rows = cell_rows(data, t);
            set.try_append_token(&rows, &rows, None).unwrap();
            if flush_every > 0 && (t + 1) % flush_every == 0 {
                set.try_flush_all(None).unwrap();
            }
        }
        set
    }

    /// Reference built by streaming the same ops into independent head
    /// caches — the oracle for bit-identical prefix checks.
    fn reference_cells(data: &Matrix, appends: usize, flushes: usize, flush_every: usize) -> Vec<HeadKvCache> {
        let mut cells: Vec<HeadKvCache> = (0..CELLS).map(|_| HeadKvCache::new(D, cfg())).collect();
        let mut f = 0usize;
        for t in 0..appends {
            let rows = cell_rows(data, t);
            for (c, cache) in cells.iter_mut().enumerate() {
                cache.try_append(rows[c], rows[c]).unwrap();
            }
            if flush_every > 0 && (t + 1) % flush_every == 0 && f < flushes {
                for cache in cells.iter_mut() {
                    cache.try_flush().unwrap();
                }
                f += 1;
            }
        }
        cells
    }

    fn assert_same_state(a: &HeadKvCache, b: &HeadKvCache) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.buffer_len(), b.buffer_len());
        assert_eq!(a.resident_blocks().len(), b.resident_blocks().len());
        assert_eq!(a.key_buffer(), b.key_buffer());
        assert_eq!(a.value_buffer(), b.value_buffer());
        assert_eq!(a.dequantize_all(), b.dequantize_all());
    }

    fn assert_matches_reference(set: &DurableLayerSet, reference: &[HeadKvCache]) {
        for l in 0..LAYERS {
            for h in 0..HEADS {
                assert_same_state(set.layer(l).head(h), &reference[l * HEADS + h]);
            }
        }
    }

    #[test]
    fn one_record_per_token_regardless_of_cells() {
        let data = TensorRng::new(1).normal(20, D * CELLS, 0.0, 1.0);
        let set = filled(&data, 20, 0);
        assert_eq!(set.wal().appends(), 20, "group commit: 1 record per token");
        assert_eq!(set.stats().rows_committed, 20 * CELLS);
        assert_eq!(set.tokens(), 20);
        for l in 0..LAYERS {
            assert_eq!(set.layer(l).len(), 20);
        }
    }

    #[test]
    fn clean_recovery_is_bit_identical() {
        let data = TensorRng::new(2).normal(40, D * CELLS, 0.0, 1.0);
        let set = filled(&data, 40, 13);
        let (ckpt, wal) = set.durable_state();
        let health = HealthStats::new();
        let (back, outcome) = DurableLayerSet::recover_on(
            global(), LAYERS, HEADS, D, cfg(), never(), &ckpt, &wal, Some(&health),
        )
        .unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.tokens, 40);
        assert_eq!(outcome.checkpointed, None, "never-policy keeps the WAL");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                assert_same_state(back.layer(l).head(h), set.layer(l).head(h));
            }
        }
        assert_eq!(health.count(HealthEvent::WalReplay), 1);
        assert_eq!(
            health.count(HealthEvent::LayerWalReplayedRecords),
            back.wal().records() as u64
        );
    }

    #[test]
    fn torn_wal_recovers_a_common_prefix_at_every_cut() {
        let data = TensorRng::new(3).normal(24, D * CELLS, 0.0, 1.0);
        let set = filled(&data, 24, 7);
        let (ckpt, wal) = set.durable_state();
        let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
        assert_eq!(boundaries.len(), 1 + set.wal().records());
        for cut in 0..=wal.len() {
            let (back, outcome) = DurableLayerSet::recover_on(
                global(), LAYERS, HEADS, D, cfg(), never(), &ckpt, &wal[..cut], None,
            )
            .unwrap();
            let applied = outcome.wal.map_or(0, |r| r.appends);
            let flushes = outcome.wal.map_or(0, |r| r.flushes);
            // Every cell sits at the same token count…
            for l in 0..LAYERS {
                for h in 0..HEADS {
                    assert_eq!(back.layer(l).head(h).len(), applied, "cell desync at cut {cut}");
                }
            }
            // …and is bit-identical to the reference prefix.
            let reference = reference_cells(&data, applied, flushes, 7);
            assert_matches_reference(&back, &reference);
            if boundaries.contains(&cut) {
                assert_eq!(outcome.wal.unwrap().dropped_bytes, 0);
            }
        }
    }

    #[test]
    fn torn_checkpoint_degrades_to_empty_never_desync() {
        let data = TensorRng::new(4).normal(32, D * CELLS, 0.0, 1.0);
        let mut set = filled(&data, 24, 0);
        set.checkpoint_on(global(), None);
        for t in 24..32 {
            let rows = cell_rows(&data, t);
            set.try_append_token(&rows, &rows, None).unwrap();
        }
        let (ckpt, wal) = set.durable_state();
        for cut in [0usize, 10, ckpt.len() / 2, ckpt.len() - 1] {
            let health = HealthStats::new();
            let (back, outcome) = DurableLayerSet::recover_or_empty(
                LAYERS,
                HEADS,
                D,
                cfg(),
                never(),
                &ckpt[..cut.min(ckpt.len())],
                &wal,
                Some(&health),
            );
            assert!(!outcome.checkpoint_complete);
            assert_eq!(outcome.tokens, 0, "torn checkpoint degrades to empty");
            assert!(outcome.wal.is_none(), "WAL dropped with its checkpoint");
            assert_eq!(back.tokens(), 0);
            assert!(health.count(HealthEvent::WalRecordDropped) >= 1);
        }
        // And a corrupt byte inside the blob (CRC mismatch) does the same.
        let mut bad = ckpt.clone();
        bad[ckpt.len() / 3] ^= 0x10;
        let (back, outcome) =
            DurableLayerSet::recover_or_empty(LAYERS, HEADS, D, cfg(), never(), &bad, &wal, None);
        assert_eq!(outcome.tokens, 0);
        assert_eq!(back.tokens(), 0);
    }

    #[test]
    fn corrupt_record_ends_replay_without_half_applying() {
        let data = TensorRng::new(5).normal(16, D * CELLS, 0.0, 1.0);
        let set = filled(&data, 16, 0);
        let (ckpt, mut wal) = set.durable_state();
        let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
        let mid = (boundaries[4] + boundaries[5]) / 2;
        wal[mid] ^= 0x40;
        let (back, outcome) = recover(&ckpt, &wal).unwrap();
        let r = outcome.wal.unwrap();
        assert_eq!(r.appends, 4, "replay stops at the corrupt record");
        assert!(!r.complete);
        for l in 0..LAYERS {
            for h in 0..HEADS {
                assert_eq!(back.layer(l).head(h).len(), 4, "no cell half-applied");
            }
        }
        assert_matches_reference(&back, &reference_cells(&data, 4, 0, 0));
    }

    #[test]
    fn record_budget_policy_fires_and_bounds_replay() {
        let data = TensorRng::new(6).normal(40, D * CELLS, 0.0, 1.0);
        let mut set = DurableLayerSet::new(
            LAYERS,
            HEADS,
            D,
            cfg(),
            Box::new(RecordBudget { max_records: 10 }),
        );
        let health = HealthStats::new();
        for t in 0..40 {
            let rows = cell_rows(&data, t);
            set.try_append_token(&rows, &rows, Some(&health)).unwrap();
            assert!(
                set.wal().records() < 10,
                "record budget bounds the live WAL"
            );
        }
        assert_eq!(set.stats().checkpoints_by_records, 4);
        assert_eq!(health.count(HealthEvent::CheckpointByRecords), 4);
        // Recovery replays at most the bounded tail, bit-identically.
        let (ckpt, wal) = set.durable_state();
        let (back, outcome) = recover(&ckpt, &wal).unwrap();
        assert!(outcome.wal.unwrap().appends < 10);
        assert_eq!(outcome.tokens, 40);
        assert_matches_reference(&back, &reference_cells(&data, 40, 0, 0));
    }

    #[test]
    fn byte_and_replay_budget_policies_fire_with_their_cause() {
        let data = TensorRng::new(7).normal(16, D * CELLS, 0.0, 1.0);
        let record_size = RECORD_OVERHEAD + CELLS * 8 * D;
        let mut by_bytes = DurableLayerSet::new(
            LAYERS,
            HEADS,
            D,
            cfg(),
            Box::new(ByteBudget {
                max_bytes: 3 * record_size,
            }),
        );
        // 10 records/s replay with a 0.35 s budget → every 4th record.
        let mut by_replay = DurableLayerSet::new(
            LAYERS,
            HEADS,
            D,
            cfg(),
            Box::new(ReplayBudget {
                max_replay_secs: 0.35,
                replay_rate: 10.0,
            }),
        );
        let health = HealthStats::new();
        for t in 0..16 {
            let rows = cell_rows(&data, t);
            by_bytes.try_append_token(&rows, &rows, Some(&health)).unwrap();
            by_replay.try_append_token(&rows, &rows, Some(&health)).unwrap();
        }
        assert!(by_bytes.stats().checkpoints_by_bytes > 0);
        assert!(by_replay.stats().checkpoints_by_replay_budget > 0);
        assert_eq!(
            health.count(HealthEvent::CheckpointByBytes),
            by_bytes.stats().checkpoints_by_bytes as u64
        );
        assert_eq!(
            health.count(HealthEvent::CheckpointByReplayBudget),
            by_replay.stats().checkpoints_by_replay_budget as u64
        );
        // The replay budget genuinely bounds the WAL: < 0.35s × 10 rec/s.
        assert!(by_replay.wal().records() <= 4);
    }

    #[test]
    fn recover_consults_policy_instead_of_always_checkpointing() {
        let data = TensorRng::new(8).normal(20, D * CELLS, 0.0, 1.0);
        let set = filled(&data, 20, 0);
        let (ckpt, wal) = set.durable_state();
        // A lax policy keeps the replayed WAL live…
        let (kept, o1) = DurableLayerSet::recover_on(
            global(),
            LAYERS,
            HEADS,
            D,
            cfg(),
            Box::new(RecordBudget { max_records: 1000 }),
            &ckpt,
            &wal,
            None,
        )
        .unwrap();
        assert_eq!(o1.checkpointed, None);
        assert_eq!(kept.wal().records(), 20, "surviving WAL prefix stays live");
        assert_eq!(kept.checkpoint_bytes(), &ckpt[..]);
        // …a tight one folds it into a fresh snapshot right away.
        let health = HealthStats::new();
        let (folded, o2) = DurableLayerSet::recover_on(
            global(),
            LAYERS,
            HEADS,
            D,
            cfg(),
            Box::new(RecordBudget { max_records: 5 }),
            &ckpt,
            &wal,
            Some(&health),
        )
        .unwrap();
        assert_eq!(o2.checkpointed, Some(CheckpointCause::Records));
        assert!(folded.wal().is_empty());
        assert_eq!(health.count(HealthEvent::CheckpointByRecords), 1);
        // Both roads lead to the same state.
        for l in 0..LAYERS {
            for h in 0..HEADS {
                assert_same_state(kept.layer(l).head(h), folded.layer(l).head(h));
            }
        }
    }

    #[test]
    fn checkpoint_is_bit_identical_at_any_worker_count() {
        let data = TensorRng::new(9).normal(30, D * CELLS, 0.0, 1.0);
        let mut baseline = filled(&data, 30, 9);
        let serial = {
            let rt = turbo_runtime::Runtime::with_workers(1);
            baseline.checkpoint_on(&rt, None);
            baseline.checkpoint_bytes().to_vec()
        };
        for workers in [2usize, 8] {
            let mut set = filled(&data, 30, 9);
            let rt = turbo_runtime::Runtime::with_workers(workers);
            set.checkpoint_on(&rt, None);
            assert_eq!(
                set.checkpoint_bytes(),
                &serial[..],
                "{workers}-worker checkpoint diverged"
            );
        }
    }

    #[test]
    fn rejected_token_leaves_every_cell_unchanged() {
        let data = TensorRng::new(10).normal(8, D * CELLS, 0.0, 1.0);
        let mut set = filled(&data, 8, 0);
        let good = cell_rows(&data, 0);
        let mut bad_rows: Vec<Vec<f32>> = good.iter().map(|r| r.to_vec()).collect();
        bad_rows[CELLS - 1][2] = f32::NAN; // poison the very last cell
        let bad: Vec<&[f32]> = bad_rows.iter().map(|r| r.as_slice()).collect();
        let err = set.try_append_token(&good, &bad, None).unwrap_err();
        assert_eq!(err, CacheError::NonFinite { channel: 2 });
        assert_eq!(set.tokens(), 8, "atomic reject: nothing applied");
        assert_eq!(set.wal().appends(), 8, "nothing logged either");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                assert_eq!(set.layer(l).head(h).len(), 8);
            }
        }
    }

    #[test]
    fn replay_rejects_mismatched_geometry() {
        let wal = LayerWriteAheadLog::new(2, 3, D);
        let mut wrong_layers = vec![LayerKvCache::uniform(3, D, BitWidth::Int4, 8, 8)];
        assert!(replay_layer_wal(wal.as_bytes(), &mut wrong_layers, None).is_err());
        let mut wrong_heads: Vec<LayerKvCache> = (0..2)
            .map(|_| LayerKvCache::uniform(2, D, BitWidth::Int4, 8, 8))
            .collect();
        assert!(replay_layer_wal(wal.as_bytes(), &mut wrong_heads, None).is_err());
    }

    /// Seals arbitrary head snapshots into a checkpoint blob with an
    /// honest header (layer and head counts from `layers`, `d` as given)
    /// and a valid trailing CRC: a buggy writer, not storage rot.
    fn forge_checkpoint(d: usize, layers: &[Vec<HeadKvCache>]) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(CKPT_MAGIC);
        blob.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        for n in [layers.len(), layers[0].len(), d] {
            blob.extend_from_slice(&(n as u32).to_le_bytes());
        }
        for cache in layers.iter().flatten() {
            let bytes = serialize_head_cache(cache);
            blob.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            blob.extend_from_slice(&bytes);
        }
        let crc = crc32(&blob);
        blob.extend_from_slice(&crc.to_le_bytes());
        blob
    }

    #[test]
    fn forged_head_geometry_in_checkpoint_is_rejected() {
        let head = |dim: usize, tokens: usize| {
            let data = TensorRng::new(tokens as u64).normal(tokens, dim, 0.0, 1.0);
            let mut cache = HeadKvCache::new(dim, cfg());
            for t in 0..tokens {
                cache.append(data.row(t), data.row(t));
            }
            cache
        };
        let layer = |dim: usize, tokens: usize| -> Vec<HeadKvCache> {
            (0..HEADS).map(|_| head(dim, tokens)).collect()
        };
        // The forger itself is honest: uniform geometry round-trips.
        let honest = vec![layer(D, 5), layer(D, 5)];
        assert_eq!(recover(&forge_checkpoint(D, &honest), &[]).unwrap().1.tokens, 5);

        let mut ragged_heads = vec![layer(D, 5), layer(D, 5)];
        ragged_heads[0][1] = head(D, 6);
        let forged = [
            ("heads with different token counts", ragged_heads),
            ("layers with different token counts", vec![layer(D, 5), layer(D, 9)]),
            ("heads wider than the header's d", vec![layer(2 * D, 5), layer(2 * D, 5)]),
        ];
        for (case, layers) in forged {
            let blob = forge_checkpoint(D, &layers);
            assert!(
                matches!(recover(&blob, &[]), Err(PersistError::Corrupt(_))),
                "{case}: recover accepted the blob"
            );
            let (back, outcome) = DurableLayerSet::recover_or_empty(
                LAYERS, HEADS, D, cfg(), never(), &blob, &[], None,
            );
            assert!(!outcome.checkpoint_complete, "{case}");
            assert_eq!(outcome.tokens, 0, "{case}: must degrade to empty");
            assert_eq!(back.tokens(), 0, "{case}");
        }
    }

    #[test]
    fn recovery_never_panics_on_arbitrary_mutations() {
        const CKPT_AT: usize = 8;
        let data = TensorRng::new(11).normal(20, D * CELLS, 0.0, 1.0);
        let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        for t in 0..20 {
            if t == CKPT_AT {
                set.checkpoint_on(global(), None);
            }
            let rows = cell_rows(&data, t);
            set.try_append_token(&rows, &rows, None).unwrap();
            if (t + 1) % 9 == 0 {
                set.try_flush_all(None).unwrap();
            }
        }
        let (ckpt, wal) = set.durable_state();
        let mut inj = turbo_robust::FaultInjector::new(0xFEED_u64);
        let mut wal_only_rounds = 0usize;
        let mut clean_despite_damage = 0usize;
        for round in 0..192 {
            let (mut c, mut w) = (ckpt.clone(), wal.clone());
            let wal_only = round % 4 < 2;
            match round % 4 {
                0 => {
                    let n = 1 + inj.pick(6);
                    inj.corrupt_bytes(&mut w, n);
                }
                1 => {
                    inj.truncate_bytes(&mut w);
                }
                2 => {
                    inj.truncate_bytes(&mut c);
                }
                _ => {
                    let n = 1 + inj.pick(4);
                    inj.corrupt_bytes(&mut c, n);
                    inj.truncate_bytes(&mut w);
                }
            }
            let (back, outcome) = DurableLayerSet::recover_or_empty(
                LAYERS, HEADS, D, cfg(), never(), &c, &w, None,
            );
            assert_eq!(back.tokens(), outcome.tokens);
            assert!(outcome.tokens <= 20, "round {round}: tokens from nowhere");
            if wal_only {
                // An intact checkpoint anchors recovery under any WAL
                // damage.
                wal_only_rounds += 1;
                assert!(outcome.tokens >= CKPT_AT, "round {round}: checkpoint lost");
                if outcome.clean {
                    clean_despite_damage += 1;
                }
            }
            // The no-desync invariant holds under any corruption.
            for l in 0..LAYERS {
                for h in 0..HEADS {
                    assert_eq!(back.layer(l).head(h).len(), outcome.tokens);
                    assert_eq!(
                        back.layer(l).head(h).key_buffer().len(),
                        back.layer(l).head(h).value_buffer().len()
                    );
                }
            }
        }
        // Every WAL byte sits under a CRC32 frame, so a damaged log that
        // still replays clean needs a truncation landing exactly on a
        // record boundary — vanishingly rare.
        assert!(
            clean_despite_damage * 32 <= wal_only_rounds,
            "suspiciously many damaged WALs replayed clean: {clean_despite_damage}/{wal_only_rounds}"
        );
    }

    #[test]
    fn batched_flush_loses_at_most_interval_minus_one_tokens() {
        // The staleness bound of the fsync-style group commit: with a
        // flush interval of n, a crash recovers the largest synced prefix
        // — exactly ⌊t/n⌋·n tokens — so at most n − 1 are lost, and the
        // recovered cells are bit-identical to that prefix of the stream.
        let data = TensorRng::new(21).normal(30, D * CELLS, 0.0, 1.0);
        for n in [1usize, 2, 4, 8] {
            for t in [1usize, 3, 8, 17, 30] {
                let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
                set.set_flush_every_n_tokens(n);
                for tok in 0..t {
                    let rows = cell_rows(&data, tok);
                    set.try_append_token(&rows, &rows, None).unwrap();
                }
                let (ckpt, wal) = set.durable_state();
                let (back, outcome) = recover(&ckpt, &wal).unwrap();
                let durable_tokens = (t / n) * n;
                assert_eq!(
                    outcome.tokens, durable_tokens,
                    "interval {n}, {t} appends: recovered wrong prefix"
                );
                assert!(t - outcome.tokens < n, "lost more than n − 1 tokens");
                let reference = reference_cells(&data, durable_tokens, 0, 0);
                assert_matches_reference(&back, &reference);
            }
        }
    }

    #[test]
    fn sync_barriers_override_the_flush_interval() {
        // Explicit sync_wal, try_flush_all, and checkpoint are all hard
        // durability barriers regardless of the interval.
        let data = TensorRng::new(22).normal(12, D * CELLS, 0.0, 1.0);
        let append = |set: &mut DurableLayerSet, t: usize| {
            let rows = cell_rows(&data, t);
            set.try_append_token(&rows, &rows, None).unwrap();
        };
        let recovered_tokens = |set: &DurableLayerSet| {
            let (ckpt, wal) = set.durable_state();
            recover(&ckpt, &wal).unwrap().1.tokens
        };

        let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        set.set_flush_every_n_tokens(8);
        for t in 0..5 {
            append(&mut set, t);
        }
        assert_eq!(recovered_tokens(&set), 0, "5 un-synced appends pending");
        set.sync_wal();
        assert_eq!(recovered_tokens(&set), 5, "explicit sync is a barrier");

        append(&mut set, 5);
        set.try_flush_all(None).unwrap();
        assert_eq!(recovered_tokens(&set), 6, "flush-all is a barrier");

        append(&mut set, 6);
        set.checkpoint_on(global(), None);
        assert_eq!(recovered_tokens(&set), 7, "checkpoint is a barrier");
    }

    #[test]
    fn interval_one_keeps_per_token_durability_and_counts_syncs() {
        let data = TensorRng::new(23).normal(10, D * CELLS, 0.0, 1.0);
        let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        assert_eq!(set.flush_every_n_tokens(), 1, "per-token sync by default");
        for t in 0..10 {
            let rows = cell_rows(&data, t);
            set.try_append_token(&rows, &rows, None).unwrap();
            let (ckpt, wal) = set.durable_state();
            let (_, outcome) = recover(&ckpt, &wal).unwrap();
            assert_eq!(outcome.tokens, t + 1, "every append immediately durable");
        }
        assert_eq!(set.stats().wal_syncs, 10);

        let mut batched = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        batched.set_flush_every_n_tokens(4);
        for t in 0..10 {
            let rows = cell_rows(&data, t);
            batched.try_append_token(&rows, &rows, None).unwrap();
        }
        assert_eq!(batched.stats().wal_syncs, 2, "syncs at tokens 4 and 8 only");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_flush_interval_rejected() {
        let mut set = DurableLayerSet::new(LAYERS, HEADS, D, cfg(), never());
        set.set_flush_every_n_tokens(0);
    }
}
