//! Table 5 (Appendix E): composing TurboAttention with weight
//! quantization (LLM.int8 / Qserve proxies) on the GSM8k proxy.

use crate::Table;
use turbo_model::backend::{Backend, Fp16Backend, TurboBackend};
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite, WeightQuant};

/// Prints Table 5 with `episodes` episodes per row.
pub fn run(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0x7AB5,
    };
    let suite = TaskSuite::gsm8k_proxy();
    let base = ModelProfile::llama3_like();
    let mut t = Table::new(
        &format!(
            "Table 5 — integration with weight quantization (LLaMA3-like, GSM8k-proxy, {episodes} episodes)"
        ),
        &["weights", "attention", "acc"],
    );
    let cell = |profile: &ModelProfile, b: &dyn Backend| {
        let r = evaluate_on(turbo_runtime::global(), b, profile, &suite, &cfg);
        format!("{:.1}", r.accuracy * 100.0)
    };
    let int8 = base.with_weight_quant(WeightQuant::Int8PerChannel);
    let int4 = base.with_weight_quant(WeightQuant::Int4PerChannel);

    t.row(&["FP16 weights", "FP16", &cell(&base, &Fp16Backend)]);
    t.row(&["LLM.int8()", "FP16", &cell(&int8, &Fp16Backend)]);
    t.row(&[
        "LLM.int8()",
        "TurboAttention",
        &cell(&int8, &TurboBackend::int4()),
    ]);
    t.row(&["Qserve (W4)", "FP16", &cell(&int4, &Fp16Backend)]);
    t.row(&[
        "Qserve (W4)",
        "TurboAttention",
        &cell(&int4, &TurboBackend::int4()),
    ]);
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_run_completes() {
        super::run(2);
    }
}
