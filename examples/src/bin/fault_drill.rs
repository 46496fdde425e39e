//! Fault drill: injects every fault class the robustness layer handles
//! and shows the stack degrading instead of crashing.
//!
//! Four scenarios, one shared health ledger:
//!   1. NaN/Inf poisoned activations during decode (screened + zeroed),
//!   2. a quantizer-lethal outlier during prefill (precision ladder
//!      climbs INT4 -> INT8 -> FP16),
//!   3. a bit flip in a persisted cache payload (CRC32 fails closed,
//!      recovery salvages the longest valid prefix),
//!   4. HBM pressure in the serving simulator (demote bit width, retry
//!      admission, truncate at deadlines -- every request accounted for).

use turbo_attention::robust::RobustAttention;
use turbo_attention::TurboConfig;
use turbo_gpusim::{
    simulate_serving_continuous, uniform_workload, AttnMethod, GpuSpec, ModelGeometry,
    ServingPolicy,
};
use turbo_kvcache::persist::{deserialize_head_cache, serialize_head_cache};
use turbo_kvcache::{recover_head_cache, HeadKvCache, KvCacheConfig};
use turbo_robust::{FaultInjector, HealthStats};
use turbo_tensor::TensorRng;

fn main() {
    let mut rng = TensorRng::new(7);
    let mut inj = FaultInjector::new(41);
    let global = HealthStats::new();

    // 1. Poisoned activations: every 4th decode step gets a NaN or Inf
    //    somewhere in Q/K/V; the robust engine zeroes and counts them.
    let robust = RobustAttention::new(TurboConfig::default());
    let mut cache = robust.new_cache(32);
    for t in 0..64 {
        let mut q = rng.normal(1, 32, 0.0, 1.0);
        let k = rng.normal(1, 32, 0.0, 1.0);
        let v = rng.normal(1, 32, 0.0, 1.0);
        if t % 4 == 0 {
            inj.inject_non_finite(&mut q, 2);
        }
        let out = robust
            .try_decode(q.row(0), k.row(0), v.row(0), &mut cache)
            .expect("decode survives poisoned activations");
        assert!(out.iter().all(|x| x.is_finite()));
    }
    println!(
        "1. poisoned decode: 64/64 steps finite at {} ({} NaN/Inf elements screened)",
        cache.level(),
        robust.health().count(turbo_robust::HealthEvent::NonFiniteInput)
    );
    global.absorb(robust.health());

    // 2. Scale overflow: one outlier near f32::MAX makes INT4 (and INT8)
    //    quantization impossible; the ladder climbs to the exact rung.
    let robust = RobustAttention::new(TurboConfig::default());
    let q = rng.normal(48, 16, 0.0, 1.0);
    let mut k = rng.normal(48, 16, 0.0, 1.0);
    k.set(11, 5, f32::MAX / 16.0);
    let v = rng.normal(48, 16, 0.0, 1.0);
    let mut cache = robust.new_cache(16);
    let out = robust.try_prefill(&q, &k, &v, &mut cache).unwrap();
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
    println!(
        "2. outlier prefill: 48 tokens served at {} after {} promotion(s)",
        cache.level(),
        robust
            .health()
            .count(turbo_robust::HealthEvent::PrecisionPromotion)
    );
    global.absorb(robust.health());

    // 3. Corrupted persistence: flip bytes in a serialized cache. Strict
    //    decode must fail closed; recovery salvages a whole-block prefix.
    let mut disk_cache = HeadKvCache::new(8, KvCacheConfig::default());
    let data = rng.normal(200, 8, 0.0, 1.0);
    for t in 0..200 {
        disk_cache.append(data.row(t), data.row(t));
    }
    let mut payload = serialize_head_cache(&disk_cache);
    let mid = payload.len() / 2;
    inj.corrupt_bytes(&mut payload[mid..], 3);
    assert!(deserialize_head_cache(&payload).is_err(), "CRC fails closed");
    let health = HealthStats::new();
    let (salvaged, report) = recover_head_cache(&payload, Some(&health)).unwrap();
    println!(
        "3. corrupt payload: strict decode rejected; recovered {}/{} tokens ({} block(s) dropped)",
        report.valid_tokens,
        disk_cache.len(),
        report.dropped_blocks
    );
    assert_eq!(salvaged.len(), report.valid_tokens);
    global.absorb(&health);

    // 4. HBM pressure: only 45 % of HBM usable. The rigid policy would
    //    reject; the flexible one demotes the cache to 2-bit and retries.
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let reqs = uniform_workload(12, 4.0, 4096, 32, 99);
    let health = HealthStats::new();
    let policy = ServingPolicy {
        deadline: 180.0,
        degrade_bits: Some(2.0),
        hbm_usable_fraction: 0.45,
        max_admission_retries: 10,
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
    assert_eq!(stats.completed + stats.truncated + stats.rejected, reqs.len());
    println!(
        "4. hbm pressure: {} completed / {} truncated / {} rejected of {} \
         ({} demotion(s), {} admission retries)",
        stats.completed,
        stats.truncated,
        stats.rejected,
        reqs.len(),
        stats.demotions,
        stats.admission_retries
    );
    global.absorb(&health);

    println!("\nglobal health ledger:");
    for (name, n) in global.report() {
        println!("  {name:<20} {n}");
    }
    println!("\nno panics: every fault detected, degraded, and accounted for.");
}
