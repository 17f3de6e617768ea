//! The repository benchmark: three workloads driven through the layers'
//! public functions, one operation at a time (a closed loop with one
//! client), with the outputs of every operation checked.
//!
//! * `attack_50k` — the adversary: `WebFusionAttack::run` plus
//!   `dissimilarity` on a 50k-row release published with MDAV at k=5.
//! * `fred_10k` — the defender: FRED Algorithm 1 (`fred_anonymize` with
//!   MDAV, k = 2..=10) over a 10k-row world.
//! * `compose_10k` — the composition attack (`compose_attack`, R=3, k=5,
//!   overlap 0.5) plus one hypothesis-testing eval cell.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics and a
//! traced run (`--trace 1`) the per-layer metrics that `BENCHMARK.json`
//! declares (see [`declared`]). `LAYERS.md` maps each layer metric to the
//! end-to-end metric and workload it should move.

pub mod checks;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// `BENCHMARK.json`, compiled in: the one place the metric names and
/// units are declared.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &str = "end_to_end";
/// Per-layer metrics, printed by a traced run. A layer the workload's
/// operation never calls reads 0.
pub const PER_LAYER: &str = "per_layer";

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`
/// ([`END_TO_END`] or [`PER_LAYER`]), in its order.
pub fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = fred_recover::json::parse(DECLARATION).ok_or("BENCHMARK.json does not parse")?;
    let entries = doc
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json lacks the array `{key}`"))?;
    entries
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .map(str::to_owned)
                    .ok_or_else(|| format!("a `{key}` entry of BENCHMARK.json lacks `{f}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, where `metrics` holds exactly the `declared`
/// names with their units. Errors when a declared metric is missing, an
/// undeclared one is present, or a value is not finite — so a printed
/// result always matches the benchmark's declaration.
pub fn result_line(
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<&'static str, f64>,
    declared: &[(String, String)],
) -> Result<String, String> {
    if let Some(extra) = metrics
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == **name))
    {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = *metrics
            .get(name.as_str())
            .ok_or_else(|| format!("declared metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    ))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn the_declaration_lists_both_metric_kinds() {
        let end_to_end = declared(END_TO_END).unwrap();
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!declared(PER_LAYER).unwrap().is_empty());
        assert!(declared("workloads").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_rejects_missing_extra_and_non_finite_metrics() {
        let declared = owned(&[("a_ms", "ms"), ("b", "count")]);
        let mut metrics = BTreeMap::new();
        metrics.insert("a_ms", 1.5);
        assert!(result_line(1, 0, &metrics, &declared).is_err());
        metrics.insert("b", 2.0);
        let line = result_line(1, 0, &metrics, &declared).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        metrics.insert("c", 0.0);
        assert!(result_line(1, 0, &metrics, &declared).is_err());
        metrics.remove("c");
        metrics.insert("b", f64::NAN);
        assert!(result_line(1, 0, &metrics, &declared).is_err());
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let declared = owned(&[("a_ms", "ms")]);
        let metrics = BTreeMap::from([("a_ms", 1.0)]);
        let line = result_line(4, 1, &metrics, &declared).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
    }
}
