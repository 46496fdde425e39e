//! Every workload at its smoke size, untraced and traced: the run must be
//! correct and report every catalogued metric; BENCHMARK.json must list
//! exactly the catalogue.

use turbo_perfbench::report::{END_TO_END, PER_LAYER};
use turbo_perfbench::{run, Opts, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> String {
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        out_dir: None,
    };
    let mut outcome = run(&opts);
    let report = outcome.report_line(&opts);
    let result = outcome.result_line(trace);
    assert!(
        result.starts_with(r#"{"correct":true,"#),
        "{} trace={trace}: {result}\n{report}",
        workload.name()
    );
    assert!(result.contains(r#""failed":0,"#), "{result}");
    result
}

fn assert_reports(result: &str, list: &[(&str, &str)]) {
    for (name, unit) in list {
        let entry = format!(r#""{name}":{{"value":"#);
        assert!(result.contains(&entry), "missing {name} in {result}");
        assert!(result.contains(&format!(r#""unit":"{unit}""#)));
    }
}

#[test]
fn decode_long_gqa_smoke() {
    assert_reports(&smoke(Workload::DecodeLongGqa, false), END_TO_END);
    assert_reports(&smoke(Workload::DecodeLongGqa, true), PER_LAYER);
}

#[test]
fn prefill_burst_smoke() {
    assert_reports(&smoke(Workload::PrefillBurst, false), END_TO_END);
    assert_reports(&smoke(Workload::PrefillBurst, true), PER_LAYER);
}

#[test]
fn sim_serving_smoke() {
    assert_reports(&smoke(Workload::SimServing, false), END_TO_END);
    assert_reports(&smoke(Workload::SimServing, true), PER_LAYER);
}

/// Names, units and order of BENCHMARK.json's metric lists.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!(r#""{section}": ["#))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    let field = |obj: &str, key: &str| -> String {
        let tail = obj
            .split(&format!(r#""{key}": ""#))
            .nth(1)
            .expect("field present");
        tail.split('"').next().expect("closing quote").to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_json_metrics("end_to_end"), owned(END_TO_END));
    assert_eq!(benchmark_json_metrics("per_layer"), owned(PER_LAYER));
}
