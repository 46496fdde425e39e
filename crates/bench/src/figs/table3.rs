//! Table 3: block-size (`B_r`, `B_c`) robustness of TurboAttention
//! accuracy on the GSM8k proxy (Phi3-like profile).
//!
//! The block-size ablation rows are independent, so each evaluates as
//! one pooled task on `turbo_runtime`; the index-ordered merge plus
//! seed-deterministic evaluation keeps the table bit-identical at any
//! worker count.

use crate::Table;
use turbo_attention::TurboConfig;
use turbo_model::backend::TurboBackend;
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite};
use turbo_quant::BitWidth;

const BLOCKS: [(usize, usize); 7] = [
    (32, 32),
    (32, 64),
    (64, 32),
    (64, 64),
    (64, 128),
    (128, 64),
    (128, 128),
];

/// Renders Table 3 on `rt` (pass [`turbo_runtime::global()`] for the
/// default pool) with `episodes` episodes per row.
pub fn render_on(rt: &turbo_runtime::Runtime, episodes: usize) -> Table {
    let cfg = EvalConfig {
        episodes,
        seed: 0x7AB3,
    };
    let profile = ModelProfile::phi3_like();
    let suite = TaskSuite::gsm8k_proxy();
    let mut t = Table::new(
        &format!("Table 3 — TurboAttention block-size ablation (Phi3-like, GSM8k-proxy, {episodes} episodes)"),
        &["block (Br,Bc)", "dataset", "acc"],
    );
    let rows: Vec<[String; 3]> = rt.par_map_indexed(BLOCKS.len(), |i| {
        let (br, bc) = BLOCKS[i];
        let backend = TurboBackend::int4().with_config(TurboConfig {
            block_r: br,
            block_c: bc,
            kv_bits: BitWidth::Int4,
            group_size: 16,
            buffer_capacity: 16,
            ..TurboConfig::default()
        });
        let r = evaluate_on(rt, &backend, &profile, &suite, &cfg);
        [
            format!("({br},{bc})"),
            suite.name.to_string(),
            format!("{:.1}", r.accuracy * 100.0),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    t
}

/// Prints Table 3 with `episodes` episodes per row.
pub fn run(episodes: usize) {
    render_on(turbo_runtime::global(), episodes).print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_run_completes() {
        super::run(2);
    }

    #[test]
    fn table_is_bit_identical_at_any_worker_count() {
        let serial = super::render_on(&turbo_runtime::Runtime::with_workers(1), 2).to_csv();
        let rt = turbo_runtime::Runtime::with_workers(2);
        assert_eq!(super::render_on(&rt, 2).to_csv(), serial);
    }
}
