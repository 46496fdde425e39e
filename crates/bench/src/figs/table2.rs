//! Table 2: CoT-reasoning-proxy accuracy of every method at 4-bit and
//! 3-bit / mixed-precision KV caches.
//!
//! Each backend's row evaluates as one pooled task on `turbo_runtime`
//! (the backends are independent; `Box<dyn Backend>` is built inside the
//! task because trait objects aren't `Sync`). The merge is index-ordered
//! and every evaluation is seed-deterministic, so the rendered table is
//! bit-identical at any worker count — the test pins 1 vs 2 workers.

use crate::Table;
use turbo_model::backend::{Backend, Fp16Backend, GearBackend, KiviBackend, TurboBackend};
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite};
use turbo_quant::BitWidth;

const NUM_BACKENDS: usize = 7;

fn backend(i: usize) -> Box<dyn Backend> {
    match i {
        0 => Box::new(Fp16Backend),
        1 => Box::new(KiviBackend::new(BitWidth::Int4)),
        2 => Box::new(GearBackend::new(BitWidth::Int4)),
        3 => Box::new(TurboBackend::int4()),
        4 => Box::new(KiviBackend::new(BitWidth::Int3)),
        5 => Box::new(GearBackend::new(BitWidth::Int3)),
        6 => Box::new(TurboBackend::mixed(4)), // half of 8 heads at 2-bit
        _ => unreachable!("only {NUM_BACKENDS} backends"),
    }
}

/// Renders Table 2 on `rt` (pass [`turbo_runtime::global()`] for the
/// default pool) with `episodes` episodes per cell.
pub fn render_on(rt: &turbo_runtime::Runtime, episodes: usize) -> Table {
    let cfg = EvalConfig {
        episodes,
        seed: 0xE7A1,
    };
    let profiles = ModelProfile::paper_profiles();
    let suites = TaskSuite::paper_suites();

    let mut headers = vec!["method".to_string(), "bits".to_string()];
    for p in &profiles {
        for s in &suites {
            headers.push(format!("{}/{}", short(p.name()), short(s.name)));
        }
    }
    headers.push("avg".to_string());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        &format!("Table 2 — accuracy on CoT reasoning proxies ({episodes} episodes/cell)"),
        &headers_ref,
    );

    let rows: Vec<Vec<String>> = rt.par_map_indexed(NUM_BACKENDS, |i| {
        let b = backend(i);
        let mut row = vec![b.name(), b.bits_label()];
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in &profiles {
            for s in &suites {
                let r = evaluate_on(rt, b.as_ref(), p, s, &cfg);
                row.push(format!("{:.1}", r.accuracy * 100.0));
                sum += r.accuracy;
                n += 1;
            }
        }
        row.push(format!("{:.1}", sum / n as f64 * 100.0));
        row
    });
    for row in &rows {
        t.row(row);
    }
    t
}

/// Prints Table 2 with `episodes` episodes per cell.
pub fn run(episodes: usize) {
    render_on(turbo_runtime::global(), episodes).print();
}

fn short(name: &str) -> String {
    name.split(['-', ' ']).next().unwrap_or(name).to_string()
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
        for workers in [2usize, 4] {
            let rt = turbo_runtime::Runtime::with_workers(workers);
            assert_eq!(
                super::render_on(&rt, 2).to_csv(),
                serial,
                "{workers}-worker table diverged"
            );
        }
    }
}
