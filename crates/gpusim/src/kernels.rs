//! Attention-kernel latency model (prefill and decode).
//!
//! Latency decomposes into the categories Figure 1b/1c plot:
//!
//! * `mem` — HBM traffic of the attention kernel itself,
//! * `matmul` — score and output GEMMs/GEMVs,
//! * `softmax` — exponentiation plus max/sum/rescale bookkeeping,
//! * `dequant` — KV-cache decompression (a *separate materializing
//!   kernel* for KIVI/GEAR, the paper's "time-intensive floating-point
//!   decompression"; an in-kernel integer path for Turbo),
//! * `quant` — compression work (tile quantization for Turbo inside the
//!   kernel; a separate compression kernel for the baselines),
//! * `launch` — fixed kernel-launch overhead.
//!
//! Prefill is compute-bound at realistic context lengths, so its total is
//! `launch + dequant + quant_extra + max(mem, compute)`; decode kernels
//! are GEMV-shaped and poorly overlapped, so their phases serialize.

use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::method::AttnMethod;

/// FP32 bookkeeping ops per score element in the FP16/FP32 softmax path
/// (row max, subtract, running sum, rescale, two FP16↔FP32 conversions…).
/// Calibrated so FlashAttention-FP16 prefill spends ~25–30 % of its time
/// in softmax, matching the paper's measurement.
const SOFTMAX_BOOKKEEPING_FP32: f64 = 8.0;
/// Integer bookkeeping ops per score element on the SAS path (no
/// conversions; max/sum only).
const SOFTMAX_BOOKKEEPING_SAS: f64 = 3.0;
/// Fraction of tensor peak an INT8 attention kernel achieves (dequant
/// interleaving and scale fixups cost issue slots).
const INT8_KERNEL_EFFICIENCY: f64 = 0.85;
/// GEMV (decode) efficiency of tensor-path matmuls: single-row products
/// cannot fill tensor-core tiles.
const GEMV_EFFICIENCY: f64 = 0.25;
/// Effective-bandwidth factor for packed sub-byte KV loads (group
/// parameters and unpacking hurt coalescing).
const PACKED_BW_FACTOR: f64 = 0.85;

/// Per-phase latency decomposition, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelBreakdown {
    /// Attention-kernel HBM time.
    pub mem: f64,
    /// Matmul time.
    pub matmul: f64,
    /// Softmax (exponentiation + bookkeeping) time.
    pub softmax: f64,
    /// KV-cache decompression time (incl. the baselines' materialization
    /// traffic).
    pub dequant: f64,
    /// Compression/quantization time.
    pub quant: f64,
    /// Kernel-launch overhead.
    pub launch: f64,
    /// Whether the compute phases overlap memory (prefill) or serialize
    /// (decode).
    pub overlapped: bool,
}

impl KernelBreakdown {
    /// Total latency in seconds.
    pub fn total(&self) -> f64 {
        let compute = self.matmul + self.softmax + self.quant;
        if self.overlapped {
            self.launch + self.dequant + self.mem.max(compute)
        } else {
            self.launch + self.dequant + self.mem + compute
        }
    }

    /// Fraction of total spent in `softmax`.
    pub fn softmax_share(&self) -> f64 {
        self.softmax / self.total()
    }
}

/// Latency of the attention mechanism across a full forward pass over
/// `ctx` prompt tokens (all layers, all heads), for one prefill.
///
/// # Panics
///
/// Panics if `batch == 0` or `ctx == 0`.
pub fn prefill_latency(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    batch: usize,
    ctx: usize,
) -> KernelBreakdown {
    assert!(batch > 0 && ctx > 0, "batch and context must be positive");
    let b = batch as f64;
    let n = ctx as f64;
    let d = geom.head_dim as f64;
    let hl = (geom.heads * geom.layers) as f64;
    let kv_hl = (geom.kv_heads * geom.layers) as f64;

    // Causal attention touches ~n²/2 score elements (per query head).
    let score_elems = b * hl * n * n / 2.0;
    let qkv_elems = 3.0 * b * n * (geom.hidden as f64) * geom.layers as f64;
    let kv_elems = 2.0 * b * kv_hl * n * d;

    // Attention-kernel HBM traffic: read Q,K,V (FP16 activations), write O,
    // write the KV cache at the method's precision.
    let mem_bytes = qkv_elems * 2.0
        + b * n * (geom.hidden as f64) * geom.layers as f64 * 2.0
        + kv_elems * method.kv_bytes_per_elem();
    let mem = mem_bytes / gpu.hbm_bandwidth;

    // Score + output GEMMs: 2 matmuls × d MACs per score element.
    let macs = 2.0 * score_elems * d;
    let matmul = if method.int8_matmul() {
        macs / (gpu.int8_tensor_macs * INT8_KERNEL_EFFICIENCY)
    } else {
        macs / gpu.fp16_tensor_macs
    };

    let softmax = if method.sas_softmax() {
        score_elems / gpu.sas_exp_ops + score_elems * SOFTMAX_BOOKKEEPING_SAS / gpu.int_alu_ops
    } else {
        score_elems / gpu.fp32_exp_ops + score_elems * SOFTMAX_BOOKKEEPING_FP32 / gpu.fp32_cuda_ops
    };

    // Quantization.
    let (quant, extra_kernel_launches, dequant) = match method {
        AttnMethod::FlashFp16 => (0.0, 0.0, 0.0),
        AttnMethod::Kivi { .. } | AttnMethod::GearL { .. } => {
            // Separate post-hoc compression kernel: read KV FP16, write
            // compressed, a couple of float ops per element. GEAR also
            // factorizes the error (a few extra passes over the block).
            let extra_macs = method.lowrank_macs_per_elem() * kv_elems * 3.0;
            let t = (kv_elems * 2.0 + kv_elems * method.kv_bytes_per_elem()) / gpu.hbm_bandwidth
                + kv_elems * method.quant_ops_per_elem() / gpu.fp32_cuda_ops
                + extra_macs / gpu.fp16_tensor_macs;
            (t, geom.layers as f64, 0.0)
        }
        AttnMethod::Turbo { .. } => {
            // Fused in-kernel quantization of Q/K/V tiles and P tiles.
            let elems = qkv_elems + score_elems;
            (
                elems * method.quant_ops_per_elem() / gpu.int_alu_ops,
                0.0,
                0.0,
            )
        }
    };

    let in_kernel_quant = if matches!(method, AttnMethod::Turbo { .. }) {
        quant
    } else {
        0.0
    };
    let separate_quant = quant - in_kernel_quant;

    KernelBreakdown {
        mem,
        matmul,
        softmax,
        quant: in_kernel_quant,
        // Report the baselines' separate compression kernel under
        // `dequant` share (it is the same (de)compression overhead lane of
        // Figure 1b) — it never overlaps the attention kernel.
        dequant: dequant + separate_quant,
        launch: gpu.kernel_launch * (geom.layers as f64 + extra_kernel_launches),
        overlapped: true,
    }
}

/// Latency of one decode step's attention over a cache of `ctx` tokens.
///
/// # Panics
///
/// Panics if `batch == 0` or `ctx == 0`.
pub fn decode_latency(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    batch: usize,
    ctx: usize,
) -> KernelBreakdown {
    assert!(batch > 0 && ctx > 0, "batch and context must be positive");
    let b = batch as f64;
    let n = ctx as f64;
    let d = geom.head_dim as f64;
    let hl = (geom.heads * geom.layers) as f64;
    let kv_hl = (geom.kv_heads * geom.layers) as f64;
    let kv_elems = 2.0 * b * kv_hl * n * d;

    // Attention-kernel HBM traffic: the KV cache read dominates. The
    // baselines' attention kernel reads the *materialized FP16* cache;
    // Turbo reads the packed cache directly.
    let (attn_kv_bytes, bw_factor) = match method {
        AttnMethod::FlashFp16 => (kv_elems * 2.0, 1.0),
        AttnMethod::Kivi { .. } | AttnMethod::GearL { .. } => (kv_elems * 2.0, 1.0),
        AttnMethod::Turbo { .. } => (kv_elems * method.kv_bytes_per_elem(), PACKED_BW_FACTOR),
    };
    let mem = attn_kv_bytes / (gpu.hbm_bandwidth * bw_factor);

    // Decompression:
    // * KIVI/GEAR run a separate kernel per step: read packed, apply float
    //   dequant (+ GEAR's low-rank reconstruction), write FP16.
    // * Turbo dequantizes INT4/2→INT8 in registers: integer ops only.
    let dequant = match method {
        AttnMethod::FlashFp16 => 0.0,
        AttnMethod::Kivi { .. } | AttnMethod::GearL { .. } => {
            (kv_elems * method.kv_bytes_per_elem() + kv_elems * 2.0) / gpu.hbm_bandwidth
                + kv_elems * method.fp_dequant_ops_per_elem() / gpu.fp32_cuda_ops
                + kv_elems * method.lowrank_macs_per_elem() / gpu.fp16_tensor_macs
        }
        AttnMethod::Turbo { .. } => {
            // Unpack + (q²+z)·s, ~4 integer ops per element fused in-kernel.
            kv_elems * (2.0 + method.int_dequant_ops_per_elem()) / gpu.int_alu_ops
        }
    };

    // Two GEMVs (q·Kᵀ and P·V) at GEMV efficiency.
    let macs = 2.0 * b * hl * n * d;
    let matmul = if method.int8_matmul() {
        macs / (gpu.int8_tensor_macs * GEMV_EFFICIENCY)
    } else {
        macs / (gpu.fp16_tensor_macs * GEMV_EFFICIENCY)
    };

    let score_elems = b * hl * n;
    let softmax = if method.sas_softmax() {
        score_elems / gpu.sas_exp_ops + score_elems * SOFTMAX_BOOKKEEPING_SAS / gpu.int_alu_ops
    } else {
        score_elems / gpu.fp32_exp_ops + score_elems * SOFTMAX_BOOKKEEPING_FP32 / gpu.fp32_cuda_ops
    };

    let kernels = match method {
        AttnMethod::Kivi { .. } | AttnMethod::GearL { .. } => 2.0 * geom.layers as f64,
        _ => geom.layers as f64,
    };

    KernelBreakdown {
        mem,
        matmul,
        softmax,
        dequant,
        quant: 0.0,
        launch: gpu.kernel_launch * kernels,
        overlapped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GpuSpec, ModelGeometry) {
        (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
    }

    #[test]
    fn fp16_prefill_softmax_share_matches_paper() {
        // "softmax computation costs over 30% of the attention execution
        // time" — the model should land in the 20–40 % band.
        let (gpu, geom) = setup();
        let bd = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, 8192);
        let share = bd.softmax_share();
        assert!((0.20..=0.40).contains(&share), "softmax share {share}");
    }

    #[test]
    fn turbo_prefill_speedup_in_paper_band() {
        // Figure 6: up to 1.8x prefill speedup. Accept 1.4–2.3x.
        let (gpu, geom) = setup();
        for ctx in [4096usize, 8192, 16384, 32768] {
            let base = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, ctx).total();
            let turbo =
                prefill_latency(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, 4, ctx).total();
            let speedup = base / turbo;
            assert!(
                (1.4..=2.3).contains(&speedup),
                "ctx {ctx}: prefill speedup {speedup}"
            );
        }
    }

    #[test]
    fn turbo_decode_speedup_in_paper_band() {
        // Figure 6: up to 1.7x decode speedup. Accept 1.3–3.0x.
        let (gpu, geom) = setup();
        for ctx in [4096usize, 8192] {
            let base = decode_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, ctx).total();
            let turbo =
                decode_latency(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, 4, ctx).total();
            let speedup = base / turbo;
            assert!(
                (1.3..=3.0).contains(&speedup),
                "ctx {ctx}: decode speedup {speedup}"
            );
        }
    }

    #[test]
    fn kivi_decode_is_slower_than_fp16() {
        // Figure 6: KIVI decode < 1x because of materializing dequant.
        let (gpu, geom) = setup();
        for ctx in [4096usize, 16384] {
            let base = decode_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, ctx).total();
            let kivi = decode_latency(&gpu, &geom, AttnMethod::Kivi { bits: 4.0 }, 4, ctx).total();
            assert!(kivi > base, "ctx {ctx}: KIVI {kivi} vs FP16 {base}");
        }
    }

    #[test]
    fn gear_dequant_exceeds_kivi_dequant() {
        // Figure 1b: GEAR-L's decompression lane is the largest.
        let (gpu, geom) = setup();
        let kivi = decode_latency(&gpu, &geom, AttnMethod::Kivi { bits: 4.0 }, 4, 8192);
        let gear = decode_latency(
            &gpu,
            &geom,
            AttnMethod::GearL { bits: 4.0, rank: 4 },
            4,
            8192,
        );
        assert!(gear.dequant > kivi.dequant);
        let turbo = decode_latency(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, 4, 8192);
        assert!(turbo.dequant < kivi.dequant / 4.0);
    }

    #[test]
    fn decode_scales_linearly_with_context() {
        let (gpu, geom) = setup();
        let t1 = decode_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, 4096).total();
        let t2 = decode_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, 8192).total();
        let ratio = t2 / t1;
        assert!((1.7..=2.1).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn prefill_scales_quadratically_with_context() {
        let (gpu, geom) = setup();
        let t1 = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 1, 8192).total();
        let t2 = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 1, 16384).total();
        let ratio = t2 / t1;
        assert!((3.3..=4.2).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn batch_scales_both_phases_linearly() {
        let (gpu, geom) = setup();
        for m in AttnMethod::figure6_lineup() {
            let p1 = prefill_latency(&gpu, &geom, m, 1, 2048).total();
            let p8 = prefill_latency(&gpu, &geom, m, 8, 2048).total();
            assert!(p8 / p1 > 6.0, "{m}: prefill batch scaling {}", p8 / p1);
            let d1 = decode_latency(&gpu, &geom, m, 1, 2048).total();
            let d8 = decode_latency(&gpu, &geom, m, 8, 2048).total();
            assert!(d8 / d1 > 4.0, "{m}: decode batch scaling {}", d8 / d1);
        }
    }

    #[test]
    fn sas_softmax_is_much_faster_than_fp32() {
        let (gpu, geom) = setup();
        let fp = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 4, 8192);
        let tb = prefill_latency(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, 4, 8192);
        assert!(fp.softmax > 4.0 * tb.softmax);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_ctx_panics() {
        let (gpu, geom) = setup();
        prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 1, 0);
    }
}
