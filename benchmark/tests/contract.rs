//! The benchmark against its declaration in `BENCHMARK.json`: the
//! workloads and metrics it declares, and the metric names a run prints.

use std::path::Path;
use std::process::Command;

use fred_benchmark::workloads::Workload;
use fred_benchmark::{declared as compiled, END_TO_END, PER_LAYER};
use fred_recover::json::{self, Value};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of the array `key`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_workloads_and_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(declared(&doc, END_TO_END), compiled(END_TO_END).unwrap());
    assert_eq!(declared(&doc, PER_LAYER), compiled(PER_LAYER).unwrap());
}

/// Runs the benchmark binary on a small world and returns its result.
fn run(workload: Workload, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_fred-benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--rows", "300"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{} trace={trace} failed:\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|| panic!("the result line is JSON: {line}"))
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for (trace, key) in [(false, END_TO_END), (true, PER_LAYER)] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_usize), Some(0));
            assert!(result.get("attempted").and_then(Value::as_usize) >= Some(1));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("a value");
                    assert!(value.is_finite(), "{name} = {value}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(printed, declared(&doc, key), "{} {key}", workload.name());
        }
    }
}
