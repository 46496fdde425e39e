//! Fault-injection suite: under every fault class the deterministic
//! injector can produce — bit flips in packed codes, byte corruption and
//! truncation of persisted payloads, NaN/Inf in activations, HBM
//! pressure — the stack must *detect* the fault, *degrade* (drop a page,
//! salvage a prefix, promote a precision rung, demote a bit width) and
//! *account* for it in [`HealthStats`], never panic.

use turbo_attention::robust::{PrecisionLevel, RobustAttention};
use turbo_attention::TurboConfig;
use turbo_gpusim::{
    simulate_serving_continuous, uniform_workload, AttnMethod, GpuSpec, ModelGeometry,
    ServingPolicy,
};
use turbo_kvcache::persist::{deserialize_head_cache, serialize_head_cache};
use turbo_kvcache::{recover_head_cache, HeadKvCache, KvCacheConfig, PagedKvPool};
use turbo_quant::BitWidth;
use turbo_robust::{FaultInjector, HealthEvent, HealthStats};
use turbo_tensor::TensorRng;

fn cache_config() -> KvCacheConfig {
    KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 16,
        buffer_capacity: 16,
    }
}

fn filled_head_cache(seed: u64, tokens: usize, d: usize) -> HeadKvCache {
    let mut rng = TensorRng::new(seed);
    let mut cache = HeadKvCache::new(d, cache_config());
    let data = rng.normal(tokens, d, 0.0, 1.0);
    for t in 0..tokens {
        cache.try_append(data.row(t), data.row(t)).unwrap();
    }
    cache
}

#[test]
fn bit_flips_in_paged_pool_are_detected_dropped_and_counted() {
    let mut rng = TensorRng::new(0xFA01);
    let mut inj = FaultInjector::new(0xFA02);
    let mut pool = PagedKvPool::new(8, cache_config());
    let health = HealthStats::new();

    // Three sequences, enough tokens to seal several pages each.
    let seqs: Vec<_> = (0..3).map(|_| pool.create_sequence()).collect();
    let data = rng.normal(50, 8, 0.0, 1.0);
    for &s in &seqs {
        for t in 0..50 {
            pool.try_append(s, data.row(t), data.row(t)).unwrap();
        }
    }

    // Flip one bit in a sealed page of sequence 1.
    pool.tamper_page(seqs[1], 1, |k, _v| {
        inj.flip_bit(k);
    })
    .unwrap();

    let report = pool.scrub(Some(&health));
    assert_eq!(report.corrupt_pages, 1, "exactly the tampered page");
    assert_eq!(health.count(HealthEvent::DroppedPage), 1);
    assert_eq!(health.count(HealthEvent::PartialRecovery), 1);
    // The re-prefill range starts at the corrupt page (tokens 16..) and
    // runs to the old sequence end.
    assert_eq!(report.reprefill, vec![(seqs[1].raw(), 16..50)]);
    // Unaffected sequences still serve their full range.
    let (k0, _) = pool.try_dequantize_sequence(seqs[0]).unwrap();
    assert_eq!(k0.rows(), 50);
    assert_eq!(pool.try_seq_len(seqs[1]).unwrap(), 16);
    // A second scrub finds nothing: the fault was fully repaired.
    assert!(pool.scrub(Some(&health)).is_clean());
}

#[test]
fn every_scrubbed_fault_count_matches_the_injection_count() {
    let mut inj = FaultInjector::new(0xFA03);
    let mut rng = TensorRng::new(0xFA04);
    let mut pool = PagedKvPool::new(4, cache_config());
    let health = HealthStats::new();
    let s = pool.create_sequence();
    let data = rng.normal(16 * 6, 4, 0.0, 1.0);
    for t in 0..16 * 6 {
        pool.try_append(s, data.row(t), data.row(t)).unwrap();
    }
    // Tamper a deterministic-random subset of the sealed pages.
    let tampered = [1usize, 3, 4];
    for &p in &tampered {
        pool.tamper_page(s, p, |k, v| {
            inj.flip_bit(k);
            inj.flip_bit(v);
        })
        .unwrap();
    }
    let report = pool.scrub(Some(&health));
    assert_eq!(report.corrupt_pages, tampered.len());
    assert_eq!(
        health.count(HealthEvent::DroppedPage),
        tampered.len() as u64
    );
    // Truncation happens at the FIRST corrupt page.
    assert_eq!(pool.try_seq_len(s).unwrap(), 16);
}

#[test]
fn persisted_payload_bit_flips_fail_closed_and_recover_a_prefix() {
    let cache = filled_head_cache(0xFA05, 70, 8);
    let clean = serialize_head_cache(&cache);
    let mut inj = FaultInjector::new(0xFA06);
    let health = HealthStats::new();

    let mut detected = 0usize;
    let mut recovered_tokens = 0usize;
    for round in 0..32 {
        let mut payload = clean.clone();
        // Corrupt 1-4 bytes past the header.
        let n_faults = 1 + inj.pick(4);
        let start = 16 + inj.pick(payload.len() - 32);
        let faults = inj.corrupt_bytes(&mut payload[start..], n_faults);
        assert!(!faults.is_empty());
        match deserialize_head_cache(&payload) {
            Ok(c) => {
                // A mutation can land in dead space (e.g. padding of a
                // length field's upper bytes is still covered by CRC, so
                // this is rare) — but if it decodes, it must be coherent.
                assert_eq!(c.head_dim(), 8);
            }
            Err(_) => detected += 1,
        }
        // Recovery must never panic and always yield a valid cache or a
        // clean error.
        if let Ok((salvaged, report)) = recover_head_cache(&payload, Some(&health)) {
            assert!(salvaged.len() <= cache.len());
            assert_eq!(salvaged.len(), report.valid_tokens);
            recovered_tokens += report.valid_tokens;
            if !report.complete {
                assert!(report.dropped_blocks > 0 || salvaged.buffer_len() == 0);
            }
        }
        let _ = round;
    }
    assert!(
        detected >= 28,
        "checksums should catch nearly all corruptions, caught {detected}/32"
    );
    assert!(recovered_tokens > 0, "some prefixes must be salvageable");
    assert!(health.count(HealthEvent::PartialRecovery) > 0);
}

#[test]
fn truncated_payloads_salvage_whole_blocks_without_panicking() {
    let cache = filled_head_cache(0xFA07, 64, 4);
    let clean = serialize_head_cache(&cache);
    let mut inj = FaultInjector::new(0xFA08);
    let health = HealthStats::new();
    for _ in 0..64 {
        let mut payload = clean.clone();
        inj.truncate_bytes(&mut payload).unwrap();
        assert!(
            deserialize_head_cache(&payload).is_err(),
            "strict decode must reject truncation"
        );
        if let Ok((salvaged, report)) = recover_head_cache(&payload, Some(&health)) {
            // Only whole 16-token blocks survive truncation recovery.
            assert_eq!(salvaged.len() % 16, 0);
            assert!(report.valid_tokens <= 64);
        }
    }
}

#[test]
fn nan_and_inf_activations_degrade_gracefully_with_exact_accounting() {
    let robust = RobustAttention::new(TurboConfig::default());
    let mut rng = TensorRng::new(0xFA0A);
    let mut inj = FaultInjector::new(0xFA0B);
    let mut cache = robust.new_cache(16);
    let mut injected = 0u64;
    for t in 0..48 {
        let mut q = rng.normal(1, 16, 0.0, 1.0);
        let mut k = rng.normal(1, 16, 0.0, 1.0);
        let mut v = rng.normal(1, 16, 0.0, 1.0);
        // Poison a rotating subset of the inputs.
        if t % 4 == 1 {
            let n = 1 + inj.pick(3);
            injected += inj.inject_non_finite(&mut q, n).indices.len() as u64;
        }
        if t % 4 == 2 {
            let n = 1 + inj.pick(3);
            injected += inj.inject_non_finite(&mut k, n).indices.len() as u64;
        }
        if t % 4 == 3 {
            let n = 1 + inj.pick(3);
            injected += inj.inject_non_finite(&mut v, n).indices.len() as u64;
        }
        let out = robust
            .try_decode(q.row(0), k.row(0), v.row(0), &mut cache)
            .expect("decode must survive poisoned activations");
        assert!(out.iter().all(|x| x.is_finite()), "step {t}");
    }
    assert_eq!(cache.len(), 48, "every token must be cached");
    assert_eq!(
        robust.health().count(HealthEvent::NonFiniteInput),
        injected,
        "health must count exactly the injected elements"
    );
}

#[test]
fn oversized_activations_climb_the_ladder_not_the_stack() {
    let robust = RobustAttention::new(TurboConfig::default());
    let mut rng = TensorRng::new(0xFA0C);
    let q = rng.normal(16, 8, 0.0, 1.0);
    let mut k = rng.normal(16, 8, 0.0, 1.0);
    k.set(7, 3, f32::MAX / 8.0); // quantizer-lethal outlier
    let v = rng.normal(16, 8, 0.0, 1.0);
    let mut cache = robust.new_cache(8);
    let out = robust.try_prefill(&q, &k, &v, &mut cache).unwrap();
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
    assert_eq!(cache.level(), PrecisionLevel::Fp16);
    assert_eq!(robust.health().count(HealthEvent::ScaleOverflow), 1);
    assert!(robust.health().count(HealthEvent::PrecisionPromotion) >= 1);
}

#[test]
fn hbm_pressure_is_survived_by_demotion_or_rejection_never_panic() {
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let mut inj = FaultInjector::new(0xFA0D);
    let reqs = uniform_workload(8, 5.0, 4096, 16, 0xFA0E);
    let health = HealthStats::new();
    for _ in 0..4 {
        let fraction = inj.hbm_pressure(0.35, 0.9);
        let policy = ServingPolicy {
            deadline: 120.0,
            degrade_bits: Some(2.0),
            hbm_usable_fraction: fraction,
            max_admission_retries: 8,
            ..ServingPolicy::default()
        };
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::Turbo { kv_bits: 4.0 },
            &reqs,
            &policy,
            None,
            Some(&health),
        )
        .serving;
        // Conservation: every request is accounted for exactly once.
        assert_eq!(
            stats.completed + stats.truncated + stats.rejected,
            reqs.len(),
            "at pressure {fraction}"
        );
        assert_eq!(health.count(HealthEvent::PressureDemotion), stats.demotions);
        assert!(stats.demotions <= 1, "demotion is a one-way global switch");
        health.reset();
    }
}

#[test]
fn health_registry_aggregates_across_subsystems() {
    // One shared registry can absorb counters from independent layers.
    let pool_health = HealthStats::new();
    let attn_health = HealthStats::new();
    pool_health.record_n(HealthEvent::DroppedPage, 2);
    attn_health.record(HealthEvent::NonFiniteInput);
    attn_health.record(HealthEvent::PrecisionFallback);
    let global = HealthStats::new();
    global.absorb(&pool_health);
    global.absorb(&attn_health);
    assert_eq!(global.total(), 4);
    assert_eq!(global.count(HealthEvent::DroppedPage), 2);
    assert!(!global.is_clean());
    let report = global.report();
    assert!(report.iter().any(|&(name, n)| name == "dropped_page" && n == 2));
}
