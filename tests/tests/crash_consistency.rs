//! Crash-consistency acceptance tests for the durable layer set.
//!
//! The contract under test: recovery from *any* torn combination of
//! checkpoint and write-ahead log yields every cell bit-identical to one
//! common prefix of the original token stream — K and V never desync, no
//! head runs ahead of another, no token is half-applied, and the result
//! is deterministic. The persisted head snapshot inside a checkpoint is
//! tested on its own at every framing boundary.

use turbo_attention::{multilayer_episode_pipelined_on, multilayer_episode_serialized};
use turbo_kvcache::{
    frame_boundaries, recover_head_cache, DurableLayerSet, HeadKvCache, KvCacheConfig,
    LayerWriteAheadLog, NeverCheckpoint,
};
use turbo_quant::BitWidth;
use turbo_robust::FaultInjector;
use turbo_runtime::Runtime;
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

fn cfg() -> KvCacheConfig {
    KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 8,
        buffer_capacity: 8,
    }
}

/// One op of the canonical episode, as it lands in the WAL.
#[derive(Clone, Copy)]
enum Op {
    Append(usize),
    Flush,
}

const FLUSH_EVERY: usize = 13;

/// Corrupting or truncating a head snapshot at (and around) every
/// framing boundary must never panic and must always recover a valid
/// prefix.
#[test]
fn snapshot_framing_boundaries_recover_cleanly() {
    let d = 6;
    let mut rng = TensorRng::new(0xF2A2);
    let data = rng.normal(44, d, 0.0, 1.0);
    let mut cache = HeadKvCache::new(d, cfg());
    for t in 0..44 {
        // 44 = 5 sealed blocks of 8 plus a 4-row partial buffer.
        cache.try_append(data.row(t), data.row(t)).unwrap();
    }

    let payload = cache.to_bytes();
    let boundaries = frame_boundaries(&payload).expect("clean payload frames");
    assert_eq!(*boundaries.last().unwrap(), payload.len());
    for &b in &boundaries {
        // Truncate exactly on the boundary and one byte to each side.
        for cut in [b.saturating_sub(1), b, (b + 1).min(payload.len())] {
            if let Ok((salvaged, report)) = recover_head_cache(&payload[..cut], None) {
                assert_eq!(salvaged.len(), report.valid_tokens, "cut {cut}");
                let (k, v) = salvaged.dequantize_all();
                assert_eq!(k.rows(), v.rows(), "cut {cut}");
                assert!(report.valid_tokens <= 44);
            }
        }
        // Corrupt one byte just past the boundary (inside the next
        // frame) and recover: never a panic, always a valid prefix.
        if b < payload.len() {
            let mut bad = payload.clone();
            bad[b] ^= 0x5A;
            if let Ok((salvaged, report)) = recover_head_cache(&bad, None) {
                assert_eq!(salvaged.len(), report.valid_tokens, "corrupt @{b}");
                let (k, v) = salvaged.dequantize_all();
                assert_eq!(k.rows(), v.rows());
            }
        }
    }

    // Sanity: the undamaged payload recovers everything.
    let (full, report) = recover_head_cache(&payload, None).unwrap();
    assert!(report.complete);
    assert_eq!(full.len(), 44);
}

/// Crash-point exhaustiveness for the layer-level group-commit WAL: a
/// multi-layer episode (2 layers × 3 heads, distinct K/V per cell) is
/// cut at every record boundary and at eight intra-record offsets per
/// record, and every cut must recover all heads of all layers to the
/// *same* token-count prefix — no cell ever runs ahead of another, and
/// each cell is bit-identical to an uninterrupted cache over that
/// prefix.
#[test]
fn every_layer_wal_crash_point_recovers_a_common_prefix() {
    const LAYERS: usize = 2;
    const HEADS: usize = 3;
    const CELLS: usize = LAYERS * HEADS;
    const LW_TOKENS: usize = 64;
    const LW_CHECKPOINT_AT: usize = 24;
    let d = 4;
    let mut rng = TensorRng::new(0x1A7E);
    // One wide matrix per side; cell c (layer-major) reads columns
    // [c*d, (c+1)*d), so every cell sees a distinct stream and any
    // cross-cell mixup breaks bit-identity.
    let kd = rng.normal(LW_TOKENS, d * CELLS, 0.0, 1.0);
    let vd = rng.normal(LW_TOKENS, d * CELLS, 0.0, 1.0);
    let rows_at = |m: &Matrix, t: usize| -> Vec<Vec<f32>> {
        (0..CELLS).map(|c| m.row(t)[c * d..(c + 1) * d].to_vec()).collect()
    };

    let mut set = DurableLayerSet::new(LAYERS, HEADS, d, cfg(), Box::new(NeverCheckpoint));
    let mut post_ops: Vec<Op> = Vec::new();
    for t in 0..LW_TOKENS {
        if t == LW_CHECKPOINT_AT {
            set.checkpoint_on(turbo_runtime::global(), None);
        }
        let kr = rows_at(&kd, t);
        let vr = rows_at(&vd, t);
        let ks: Vec<&[f32]> = kr.iter().map(Vec::as_slice).collect();
        let vs: Vec<&[f32]> = vr.iter().map(Vec::as_slice).collect();
        set.try_append_token(&ks, &vs, None).unwrap();
        if t >= LW_CHECKPOINT_AT {
            post_ops.push(Op::Append(t));
        }
        if (t + 1) % FLUSH_EVERY == 0 {
            let logged = set.layer(0).head(0).buffer_len() > 0;
            set.try_flush_all(None).unwrap();
            if t >= LW_CHECKPOINT_AT && logged {
                post_ops.push(Op::Flush);
            }
        }
    }
    let (snap, wal) = set.durable_state();
    assert_eq!(set.wal().records(), post_ops.len());

    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    assert_eq!(boundaries.len(), post_ops.len() + 1);
    assert_eq!(*boundaries.last().unwrap(), wal.len());

    // Reference: one independent head cache per cell, advanced in
    // lockstep with the boundaries.
    let mut reference: Vec<HeadKvCache> =
        (0..CELLS).map(|_| HeadKvCache::new(d, cfg())).collect();
    let apply = |reference: &mut Vec<HeadKvCache>, op: Op| match op {
        Op::Append(t) => {
            for (c, r) in reference.iter_mut().enumerate() {
                r.try_append(&kd.row(t)[c * d..(c + 1) * d], &vd.row(t)[c * d..(c + 1) * d])
                    .unwrap();
            }
        }
        Op::Flush => reference.iter_mut().for_each(|r| r.try_flush().unwrap()),
    };
    for t in 0..LW_CHECKPOINT_AT {
        apply(&mut reference, Op::Append(t));
        if (t + 1) % FLUSH_EVERY == 0 {
            apply(&mut reference, Op::Flush);
        }
    }

    let check = |cut: usize, reference: &[HeadKvCache], expect_tokens: usize| {
        let (back, outcome) = DurableLayerSet::recover_on(
            turbo_runtime::global(),
            LAYERS,
            HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &snap,
            &wal[..cut],
            None,
        )
        .expect("a clean checkpoint anchors recovery at any WAL cut");
        assert_eq!(outcome.tokens, expect_tokens, "cut {cut}");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                let head = back.layer(l).head(h);
                assert_eq!(
                    head.len(),
                    expect_tokens,
                    "cell ({l},{h}) desynced from the group prefix at cut {cut}"
                );
                assert_eq!(
                    head.to_bytes(),
                    reference[l * HEADS + h].to_bytes(),
                    "cell ({l},{h}) not bit-identical at cut {cut}"
                );
            }
        }
    };

    // Cuts inside the WAL header drop the whole log; the checkpoint
    // alone survives.
    for cut in 0..boundaries[0] {
        check(cut, &reference, LW_CHECKPOINT_AT);
    }

    let mut tokens = LW_CHECKPOINT_AT;
    for (n, (op, &boundary)) in std::iter::once(None)
        .chain(post_ops.iter().copied().map(Some))
        .zip(boundaries.iter())
        .enumerate()
    {
        if let Some(op) = op {
            apply(&mut reference, op);
            if let Op::Append(_) = op {
                tokens += 1;
            }
        }
        check(boundary, &reference, tokens);
        if n + 1 < boundaries.len() {
            let next = boundaries[n + 1];
            for j in 1..=8usize {
                let cut = boundary + j * (next - boundary) / 9;
                if cut > boundary && cut < next {
                    check(cut, &reference, tokens);
                }
            }
        }
    }
    assert_eq!(tokens, LW_TOKENS, "the full episode must replay at the end");
}

/// The fsync-style batched WAL flush: with `flush_every_n_tokens = n`, a
/// crash recovers exactly the last synced prefix — `⌊t/n⌋·n` tokens, so
/// at most `n − 1` are lost — and tearing the durable bytes at any
/// record boundary still lands every cell on one common, bit-identical
/// prefix of the stream.
#[test]
fn batched_wal_flush_bounds_loss_and_survives_tears() {
    const LAYERS: usize = 2;
    const HEADS: usize = 2;
    const CELLS: usize = LAYERS * HEADS;
    let d = 4;
    let interval = 4usize;
    let tokens = 27usize; // deliberately not a multiple of the interval
    let mut rng = TensorRng::new(0xBA7C);
    let kd = rng.normal(tokens, d * CELLS, 0.0, 1.0);
    let vd = rng.normal(tokens, d * CELLS, 0.0, 1.0);
    let rows_at = |m: &Matrix, t: usize| -> Vec<Vec<f32>> {
        (0..CELLS).map(|c| m.row(t)[c * d..(c + 1) * d].to_vec()).collect()
    };

    let mut set = DurableLayerSet::new(LAYERS, HEADS, d, cfg(), Box::new(NeverCheckpoint));
    set.set_flush_every_n_tokens(interval);
    for t in 0..tokens {
        let kr = rows_at(&kd, t);
        let vr = rows_at(&vd, t);
        let ks: Vec<&[f32]> = kr.iter().map(Vec::as_slice).collect();
        let vs: Vec<&[f32]> = vr.iter().map(Vec::as_slice).collect();
        set.try_append_token(&ks, &vs, None).unwrap();
    }
    assert_eq!(set.tokens(), tokens, "in-memory set holds every token");

    let (snap, wal) = set.durable_state();
    let durable_tokens = (tokens / interval) * interval;

    // The staleness bound, untorn: the durable WAL ends at the last sync.
    let (_, outcome) = DurableLayerSet::recover_on(
        turbo_runtime::global(),
        LAYERS,
        HEADS,
        d,
        cfg(),
        Box::new(NeverCheckpoint),
        &snap,
        &wal,
        None,
    )
    .unwrap();
    assert_eq!(outcome.tokens, durable_tokens);
    assert!(
        tokens - outcome.tokens < interval,
        "batched flush lost more than n − 1 tokens"
    );

    // Tears at record boundaries: boundary i holds exactly i appends (no
    // flush records in this episode), and every recovered cell must be
    // bit-identical to that prefix streamed into an independent cache.
    let mut reference: Vec<HeadKvCache> = (0..CELLS).map(|_| HeadKvCache::new(d, cfg())).collect();
    let mut applied = 0usize;
    for (i, &cut) in LayerWriteAheadLog::record_boundaries(&wal).iter().enumerate() {
        while applied < i {
            for (c, r) in reference.iter_mut().enumerate() {
                r.try_append(
                    &kd.row(applied)[c * d..(c + 1) * d],
                    &vd.row(applied)[c * d..(c + 1) * d],
                )
                .unwrap();
            }
            applied += 1;
        }
        let (back, outcome) = DurableLayerSet::recover_on(
            turbo_runtime::global(),
            LAYERS,
            HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &snap,
            &wal[..cut],
            None,
        )
        .unwrap();
        assert_eq!(outcome.tokens, i, "boundary {i}");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                let head = back.layer(l).head(h);
                let oracle = &reference[l * HEADS + h];
                assert_eq!(head.len(), oracle.len(), "cell ({l},{h}) at cut {cut}");
                assert_eq!(head.key_buffer(), oracle.key_buffer());
                assert_eq!(head.value_buffer(), oracle.value_buffer());
                assert_eq!(head.dequantize_all(), oracle.dequantize_all());
            }
        }
    }
}

/// Seeded chaos over the layer WAL's durable state: arbitrary
/// truncations and byte corruptions of checkpoint and log must never
/// panic, and whatever `recover_or_empty` salvages must keep every cell
/// at one common token count.
#[test]
fn layer_wal_chaos_smoke() {
    const LAYERS: usize = 2;
    const HEADS: usize = 3;
    const CELLS: usize = LAYERS * HEADS;
    let d = 4;
    let mut rng = TensorRng::new(0x50AC);
    let data = rng.normal(40, d * CELLS, 0.0, 1.0);
    let mut set = DurableLayerSet::new(LAYERS, HEADS, d, cfg(), Box::new(NeverCheckpoint));
    for t in 0..40 {
        if t == 16 {
            set.checkpoint_on(turbo_runtime::global(), None);
        }
        let rows: Vec<&[f32]> = (0..CELLS).map(|c| &data.row(t)[c * d..(c + 1) * d]).collect();
        set.try_append_token(&rows, &rows, None).unwrap();
    }
    let (snap, wal) = set.durable_state();

    let mut inj = FaultInjector::new(0xC4A05);
    for round in 0..128 {
        let mut s = snap.clone();
        let mut w = wal.clone();
        match round % 4 {
            0 => {
                inj.truncate_bytes(&mut w);
            }
            1 => {
                inj.corrupt_bytes(&mut w, 1 + round % 3);
            }
            2 => {
                inj.truncate_bytes(&mut s);
            }
            _ => {
                inj.corrupt_bytes(&mut s, 1 + round % 3);
                inj.truncate_bytes(&mut w);
            }
        }
        let (back, outcome) = DurableLayerSet::recover_or_empty(
            LAYERS,
            HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &s,
            &w,
            None,
        );
        assert!(outcome.tokens <= 40, "round {round}");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                let head = back.layer(l).head(h);
                assert_eq!(
                    head.len(),
                    outcome.tokens,
                    "round {round}: cell ({l},{h}) desynced"
                );
                let (k, v) = head.dequantize_all();
                assert_eq!(k.rows(), v.rows(), "round {round}");
            }
        }
    }
}

/// Killing the pipelined multi-layer engine mid-episode loses nothing
/// the serialized engine would have kept: both engines emit
/// byte-identical durable state, and at *every* WAL cut — each record
/// boundary plus eight torn offsets inside the following record —
/// recovery from the pipelined WAL lands on exactly the same token
/// prefix, with every cell bit-identical to recovery from the serialized
/// WAL at the same cut. The pipeline's commit chain joins at the token
/// boundary, so a kill can never expose a half-token.
#[test]
fn pipelined_crash_cut_replays_same_wal_prefix_as_serialized() {
    const ML_LAYERS: usize = 3;
    const ML_HEADS: usize = 2;
    const PROMPT: usize = 14;
    const DECODE: usize = 6;
    let d = 4;
    let mut rng = TensorRng::new(0xD1A6);
    let prompt = rng.normal(PROMPT, ML_HEADS * d, 0.0, 1.0);
    let decode_in = rng.normal(DECODE, ML_HEADS * d, 0.0, 1.0);
    let sas = Sas::paper_default();
    let fresh = || {
        let mut set =
            DurableLayerSet::new(ML_LAYERS, ML_HEADS, d, cfg(), Box::new(NeverCheckpoint));
        set.set_flush_every_n_tokens(1);
        set
    };

    let mut ser = fresh();
    multilayer_episode_serialized(&mut ser, &prompt, &decode_in, &sas, 4, None);
    let rt = Runtime::with_workers(8);
    let mut pip = fresh();
    multilayer_episode_pipelined_on(&rt, &mut pip, &prompt, &decode_in, &sas, 4, None);

    let (snap_s, wal_s) = ser.durable_state();
    let (snap_p, wal_p) = pip.durable_state();
    assert_eq!(snap_s, snap_p, "engines must checkpoint identically");
    assert_eq!(wal_s, wal_p, "engines must emit byte-identical WALs");

    let boundaries = LayerWriteAheadLog::record_boundaries(&wal_p);
    let recover = |snap: &[u8], wal: &[u8]| {
        DurableLayerSet::recover_on(
            turbo_runtime::global(),
            ML_LAYERS,
            ML_HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            snap,
            wal,
            None,
        )
        .expect("a clean checkpoint anchors recovery at any WAL cut")
    };

    let mut prev_tokens = 0usize;
    for (n, &boundary) in boundaries.iter().enumerate() {
        let mut cuts = vec![boundary];
        if n + 1 < boundaries.len() {
            let next = boundaries[n + 1];
            for j in 1..=8usize {
                let cut = boundary + j * (next - boundary) / 9;
                if cut > boundary && cut < next {
                    cuts.push(cut);
                }
            }
        }
        for cut in cuts {
            let (back_p, out_p) = recover(&snap_p, &wal_p[..cut]);
            let (back_s, out_s) = recover(&snap_s, &wal_s[..cut]);
            assert_eq!(
                out_p.tokens, out_s.tokens,
                "pipelined kill at cut {cut} replays a different prefix"
            );
            for l in 0..ML_LAYERS {
                for h in 0..ML_HEADS {
                    assert_eq!(
                        back_p.layer(l).head(h).to_bytes(),
                        back_s.layer(l).head(h).to_bytes(),
                        "cell ({l},{h}) diverged at cut {cut}"
                    );
                }
            }
            // A torn cut falls back to the boundary before it: token
            // counts never run ahead of the clean-boundary prefix.
            assert_eq!(out_p.tokens, prev_tokens, "cut {cut}");
        }
        // Advance the expected prefix for the *next* boundary: each
        // group-commit record carries exactly one token.
        if n + 1 < boundaries.len() {
            let (_, out_next) = recover(&snap_p, &wal_p[..boundaries[n + 1]]);
            assert!(
                out_next.tokens == prev_tokens || out_next.tokens == prev_tokens + 1,
                "a single WAL record must carry at most one token"
            );
            prev_tokens = out_next.tokens;
        }
    }
    assert_eq!(
        prev_tokens,
        PROMPT + DECODE,
        "the full episode must replay from the undamaged WAL"
    );
}

/// The recovered prefix is usable, not just structurally coherent: a
/// rebuilt 1-layer × 1-head set accepts further tokens and dequantizes
/// to the same values as an uninterrupted cache over the same stream.
#[test]
fn layer_wal_recovered_prefix_resumes_the_stream_seamlessly() {
    let d = 4;
    let mut rng = TensorRng::new(0xBEEF);
    let data: Matrix = rng.normal(64, d, 0.0, 1.0);
    let mut set = DurableLayerSet::new(1, 1, d, cfg(), Box::new(NeverCheckpoint));
    for t in 0..40 {
        if t == 24 {
            set.checkpoint_on(turbo_runtime::global(), None);
        }
        set.try_append_token(&[data.row(t)], &[data.row(t)], None).unwrap();
    }
    let (snap, wal) = set.durable_state();
    // Tear mid-record, recover, and finish the stream on the survivor.
    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    let cut = (boundaries[7] + boundaries[8]) / 2;
    let (mut back, outcome) = DurableLayerSet::recover_on(
        turbo_runtime::global(),
        1,
        1,
        d,
        cfg(),
        Box::new(NeverCheckpoint),
        &snap,
        &wal[..cut],
        None,
    )
    .unwrap();
    let resumed_from = outcome.tokens;
    assert_eq!(resumed_from, 24 + 7, "seven WAL records survive the tear");
    for t in resumed_from..64 {
        back.try_append_token(&[data.row(t)], &[data.row(t)], None).unwrap();
    }
    let mut uninterrupted = HeadKvCache::new(d, cfg());
    for t in 0..64 {
        uninterrupted.try_append(data.row(t), data.row(t)).unwrap();
    }
    assert_eq!(back.tokens(), 64);
    assert_eq!(
        back.layer(0).head(0).dequantize_all(),
        uninterrupted.dequantize_all(),
        "the resumed stream must be value-identical to an uninterrupted one"
    );
}
