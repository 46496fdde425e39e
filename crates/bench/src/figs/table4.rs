//! Table 4 (Appendix C): separating FlashQ's and SAS's accuracy cost on
//! the AQuA proxy (LLaMA3-like profile).

use crate::Table;
use turbo_model::backend::{Backend, Fp16Backend, SasOnlyBackend, TurboBackend};
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite};

/// Prints Table 4 with `episodes` episodes per row.
pub fn run(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0x7AB4,
    };
    let profile = ModelProfile::llama3_like();
    let suite = TaskSuite::aqua_proxy();
    let rows: Vec<(&str, Box<dyn Backend>)> = vec![
        ("FP16", Box::new(Fp16Backend)),
        ("FlashQ-4bit", Box::new(TurboBackend::flashq_only())),
        ("SAS", Box::new(SasOnlyBackend::default())),
        ("FlashQ-4bit + SAS", Box::new(TurboBackend::int4())),
    ];
    let mut t = Table::new(
        &format!(
            "Table 4 — FlashQ vs SAS degradation (LLaMA3-like, AQuA-proxy, {episodes} episodes)"
        ),
        &["method", "acc"],
    );
    for (name, b) in rows {
        let r = evaluate_on(turbo_runtime::global(), b.as_ref(), &profile, &suite, &cfg);
        t.row(&[name.to_string(), format!("{:.1}", r.accuracy * 100.0)]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_run_completes() {
        super::run(2);
    }
}
