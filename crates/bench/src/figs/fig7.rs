//! Figure 7: (a) throughput vs batch size; (b) head-selection ablation.

use crate::Table;
use turbo_attention::SelectionMethod;
use turbo_gpusim::{max_throughput, throughput, AttnMethod, GpuSpec, ModelGeometry};
use turbo_model::backend::TurboBackend;
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite};

/// Prints Figure 7a: throughput (1k prompt, 125 generated) per batch, plus
/// the max-throughput summary.
pub fn run_7a() {
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let methods = AttnMethod::figure6_lineup();
    let mut t = Table::new(
        "Figure 7a — tokens/s vs batch (Phi3-medium, 1k prompt, 125 generated)",
        &["method", "b=1", "b=8", "b=32", "b=64", "b=128", "b=192"],
    );
    for &m in &methods {
        let mut row = vec![m.to_string()];
        for batch in [1usize, 8, 32, 64, 128, 192] {
            row.push(match throughput(&gpu, &geom, m, batch, 1024, 125) {
                Some(tp) => format!("{tp:.0}"),
                None => "OOM".into(),
            });
        }
        t.row(&row);
    }
    t.print();

    let mut t2 = Table::new(
        "Figure 7a — maximum throughput",
        &["method", "best batch", "tokens/s", "vs FP16"],
    );
    let base = max_throughput(&gpu, &geom, AttnMethod::FlashFp16, 1024, 125, 4096)
        .expect("FP16 must fit at some batch")
        .1;
    for &m in &methods {
        if let Some((b, tp)) = max_throughput(&gpu, &geom, m, 1024, 125, 4096) {
            t2.row(&[
                m.to_string(),
                format!("{b}"),
                format!("{tp:.0}"),
                format!("{:.2}x", tp / base),
            ]);
        }
    }
    t2.print();
}

/// Prints Figure 7b: accuracy of each head-selection strategy as the
/// number of 2-bit heads grows (LLaMA3-like profile, AQuA proxy).
pub fn run_7b(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0x7B,
    };
    let profile = ModelProfile::llama3_like();
    let suite = TaskSuite::aqua_proxy();
    let counts: Vec<usize> = (0..=profile.n_heads()).step_by(2).collect();

    let mut headers = vec!["method".to_string()];
    headers.extend(counts.iter().map(|n| format!("{n} heads@2bit")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        &format!(
            "Figure 7b — head-selection ablation (LLaMA3-like, AQuA-proxy, {episodes} episodes)"
        ),
        &headers_ref,
    );
    for method in SelectionMethod::ALL {
        let mut row = vec![method.to_string()];
        for &n in &counts {
            let backend = TurboBackend::mixed_with(n, method);
            let r = evaluate_on(turbo_runtime::global(), &backend, &profile, &suite, &cfg);
            row.push(format!("{:.1}", r.accuracy * 100.0));
        }
        t.row(&row);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig7a_runs() {
        super::run_7a();
    }

    #[test]
    fn fig7b_tiny_runs() {
        super::run_7b(2);
    }
}
