//! Property-based invariants spanning the quantization, softmax and
//! attention crates.
//!
//! Implemented as deterministic seeded sweeps over [`TensorRng`] (the
//! workspace builds offline with no external crates), preserving the
//! same invariants the original proptest suite asserted: each test runs
//! a fixed number of randomized cases from a fixed seed, so failures
//! reproduce exactly.

use turbo_attention::{flash_attention, naive_attention, Masking};
use turbo_quant::{AsymQuantized, BitWidth, PackedCodes, ProgressiveBlock, SymQuantized};
use turbo_softmax::{softmax, Sas};
use turbo_tensor::{max_abs_error, Matrix, TensorRng};

const CASES: usize = 64;

/// One random small matrix per case: shape in [1, 24), std in [0.1, 8).
fn random_matrix(rng: &mut TensorRng) -> Matrix {
    let r = 1 + rng.index(23);
    let c = 1 + rng.index(23);
    let scale = rng.uniform_value(0.1, 8.0);
    rng.normal(r, c, 0.0, scale)
}

#[test]
fn symmetric_quant_error_is_bounded() {
    let mut rng = TensorRng::new(0x5EED_0001);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let q = SymQuantized::quantize(&m);
        let back = q.dequantize();
        assert!(max_abs_error(&m, &back) <= q.scale() * 0.5 + 1e-6);
    }
}

#[test]
fn progressive_round_trip_bounded_by_step() {
    let mut rng = TensorRng::new(0x5EED_0002);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let bits = if case % 2 == 0 {
            BitWidth::Int2
        } else {
            BitWidth::Int4
        };
        let group = 1 + rng.index(31);
        let pq = ProgressiveBlock::quantize(&m, bits, group);
        let back = pq.dequantize();
        // Worst case: stage-1 half step + stage-2 scale (≤ range/levels
        // with round-off and clamp slack).
        let stage2_step = 256.0 / (bits.levels() - 1) as f32;
        let bound = pq.outer_scale() * (0.5 + 2.0 * stage2_step);
        assert!(
            max_abs_error(&m, &back) <= bound,
            "error {} > bound {bound}",
            max_abs_error(&m, &back)
        );
    }
}

#[test]
fn packing_round_trips() {
    let mut rng = TensorRng::new(0x5EED_0003);
    for _ in 0..CASES {
        let len = rng.index(200);
        let codes: Vec<u8> = (0..len).map(|_| rng.index(4) as u8).collect();
        let p = PackedCodes::pack(&codes, BitWidth::Int2);
        assert_eq!(p.unpack(), codes);
    }
}

#[test]
fn asymmetric_quant_error_bounded() {
    const WIDTHS: [BitWidth; 4] = [
        BitWidth::Int2,
        BitWidth::Int3,
        BitWidth::Int4,
        BitWidth::Int8,
    ];
    let mut rng = TensorRng::new(0x5EED_0004);
    for case in 0..CASES {
        let len = 1 + rng.index(127);
        let xs: Vec<f32> = (0..len).map(|_| rng.uniform_value(-100.0, 100.0)).collect();
        let bits = WIDTHS[case % WIDTHS.len()];
        let q = AsymQuantized::quantize(&xs, bits);
        let back = q.dequantize();
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= q.half_step() + 1e-4);
        }
    }
}

#[test]
fn softmax_outputs_are_distributions() {
    let mut rng = TensorRng::new(0x5EED_0005);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let p = softmax(&m);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(p.row(r).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        }
    }
}

#[test]
fn sas_softmax_outputs_are_distributions() {
    let mut rng = TensorRng::new(0x5EED_0006);
    let sas = Sas::paper_default();
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let p = sas.try_softmax(&m).unwrap();
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(p.row(r).iter().all(|&x| x >= 0.0));
        }
    }
}

#[test]
fn sas_exp_never_exceeds_small_bound() {
    let mut rng = TensorRng::new(0x5EED_0007);
    let sas = Sas::paper_default();
    for _ in 0..256 {
        let x = rng.uniform_value(-100.0, 0.0);
        let y = sas.exp(x);
        assert!((0.0..=1.001).contains(&y));
        // Within the live range the approximation is tight.
        if x >= -6.0 {
            assert!((y - x.exp()).abs() < 2e-3);
        }
    }
}

#[test]
fn flash_equals_naive_for_random_shapes() {
    let mut rng = TensorRng::new(0x5EED_0008);
    for _ in 0..CASES {
        let n = 1 + rng.index(39);
        let d = 1 + rng.index(15);
        let br = 1 + rng.index(15);
        let bc = 1 + rng.index(15);
        let q = rng.normal(n, d, 0.0, 1.0);
        let k = rng.normal(n, d, 0.0, 1.0);
        let v = rng.normal(n, d, 0.0, 1.0);
        let a = naive_attention(&q, &k, &v, Masking::Causal);
        let b = flash_attention(&q, &k, &v, Masking::Causal, br, bc);
        assert!(max_abs_error(&a, &b) < 1e-4);
    }
}

#[test]
fn attention_output_rows_are_convex_combinations() {
    let mut rng = TensorRng::new(0x5EED_0009);
    for _ in 0..CASES {
        let n = 1 + rng.index(31);
        let d = 1 + rng.index(11);
        let q = rng.normal(n, d, 0.0, 2.0);
        let k = rng.normal(n, d, 0.0, 2.0);
        let v = rng.normal(n, d, 0.0, 2.0);
        let out = naive_attention(&q, &k, &v, Masking::Full);
        let (lo, hi) = (v.min(), v.max());
        for &x in out.as_slice() {
            assert!(x >= lo - 1e-4 && x <= hi + 1e-4);
        }
    }
}

#[test]
fn quantized_cache_len_tracks_appends() {
    let mut rng = TensorRng::new(0x5EED_000A);
    for _ in 0..CASES {
        let n = 1 + rng.index(99);
        let nb = 1 + rng.index(31);
        let mut cache = turbo_kvcache::HeadKvCache::new(
            4,
            turbo_kvcache::KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 8,
                buffer_capacity: nb,
            },
        );
        for _ in 0..n {
            let row: Vec<f32> = (0..4).map(|_| rng.standard_normal()).collect();
            cache.try_append(&row, &row).unwrap();
        }
        assert_eq!(cache.len(), n);
        assert!(cache.buffer_len() < nb);
        let (k, v) = cache.dequantize_all();
        assert_eq!(k.rows(), n);
        assert_eq!(v.rows(), n);
    }
}

#[test]
fn persisted_cache_round_trips() {
    let mut rng = TensorRng::new(0x5EED_000B);
    for case in 0..32 {
        let n = 1 + rng.index(79);
        let d = 1 + rng.index(23);
        let nb = 1 + rng.index(31);
        let bits = if case % 2 == 0 {
            BitWidth::Int2
        } else {
            BitWidth::Int4
        };
        let mut cache = turbo_kvcache::HeadKvCache::new(
            d,
            turbo_kvcache::KvCacheConfig {
                bits,
                group_size: 8,
                buffer_capacity: nb,
            },
        );
        for _ in 0..n {
            let row: Vec<f32> = (0..d).map(|_| rng.standard_normal()).collect();
            cache.try_append(&row, &row).unwrap();
        }
        let back =
            turbo_kvcache::deserialize_head_cache(&turbo_kvcache::serialize_head_cache(&cache))
                .expect("round trip must decode");
        assert_eq!(back.len(), cache.len());
        assert_eq!(back.dequantize_all(), cache.dequantize_all());
    }
}

#[test]
fn fp8_rounding_is_idempotent_and_monotone() {
    use turbo_tensor::fp8::round_e4m3;
    let mut rng = TensorRng::new(0x5EED_000C);
    for _ in 0..256 {
        let a = rng.uniform_value(-500.0, 500.0);
        let b = rng.uniform_value(-500.0, 500.0);
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let ra = round_e4m3(a);
        assert_eq!(round_e4m3(ra), ra); // grid values are fixed points
        assert!(ra <= round_e4m3(b));
    }
}

#[test]
fn sliding_window_flash_matches_naive() {
    let mut rng = TensorRng::new(0x5EED_000D);
    for _ in 0..32 {
        let n = 2 + rng.index(30);
        let w = 1 + rng.index(15);
        let br = 1 + rng.index(7);
        let bc = 1 + rng.index(7);
        let q = rng.normal(n, 4, 0.0, 1.0);
        let k = rng.normal(n, 4, 0.0, 1.0);
        let v = rng.normal(n, 4, 0.0, 1.0);
        let a = naive_attention(&q, &k, &v, Masking::SlidingWindow(w));
        let b = flash_attention(&q, &k, &v, Masking::SlidingWindow(w), br, bc);
        assert!(max_abs_error(&a, &b) < 1e-4);
    }
}
