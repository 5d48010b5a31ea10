//! The metrics every workload reports, by name and unit. `BENCHMARK.json`
//! at the repository root lists exactly these names.

use crate::figures::FIGURES;
use crate::harness::Run;
use crate::reference::Stat;
use crate::spans::Spans;
use crate::stats::{p50, peak_rss_mb, sorted, tail};

/// End-to-end metrics, measured with tracing off, with the statistic each
/// is (see `reference`).
pub const END_TO_END: [(&str, &str, Stat); 5] = [
    ("setup_s", "s", Stat::Median),
    ("ops_per_s", "op/s", Stat::Mean),
    ("op_ms_p50", "ms", Stat::Median),
    ("cpu_ms_per_op", "ms", Stat::Mean),
    ("peak_rss_mb", "MB", Stat::Mean),
];

/// Per-layer metrics read from spans: the mean self time per op of the
/// spans with this name.
const SPAN_LAYERS: [(&str, &str); 15] = [
    ("dag.build_ms.fanout", "dag.build.fanout"),
    ("dag.build_ms.chain", "dag.build.chain"),
    ("workflows.build_ms", "workflows.build"),
    ("analyze.preflight_ms", "analyze.preflight"),
    ("pdc.calibration_ms", "pdc.calibration"),
    ("pdc.vm_profile_ms", "pdc.vm_profile"),
    ("pdc.probe_ms", "pdc.probe"),
    ("pdc.phase_profile_ms", "pdc.phase_profile"),
    ("pdc.decide_self_ms", "pdc.decide"),
    ("exec.simulate_ms", "exec.execute"),
    ("trace.encode_ms", "trace.encode"),
    ("trace.decode_ms", "trace.decode"),
    ("trace.check_ms", "trace.check"),
    ("serve.submit_ms", "serve.submit"),
    ("serve.wait_ms", "serve.wait"),
];

/// Per-layer metrics the workloads set directly; the times among them
/// are medians.
const VALUE_LAYERS: [(&str, &str); 22] = [
    ("pdc.vm_profile_misses", "count"),
    ("pdc.probe_misses", "count"),
    ("trace.records", "count"),
    ("trace.bytes", "B"),
    ("trace.violations", "count"),
    ("serve.service_ms.plan", "ms"),
    ("serve.service_ms.run", "ms"),
    ("serve.queue_ms.plan", "ms"),
    ("serve.queue_ms.run", "ms"),
    ("serve.rejected", "count"),
    ("serve.refused", "count"),
    ("cache.hit_pct", "%"),
    ("cache.entries", "count"),
    ("pareto.generated", "count"),
    ("pareto.deduped", "count"),
    ("pareto.pruned", "count"),
    ("pareto.evaluated", "count"),
    ("pareto.coalesced", "count"),
    ("pareto.executed", "count"),
    ("pareto.full_replans", "count"),
    ("pareto.useful_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every per-layer metric as (name, unit, span it reads, if any).
pub fn per_layer() -> Vec<(&'static str, &'static str, Option<&'static str>)> {
    let spans = SPAN_LAYERS.iter().map(|&(m, s)| (m, "ms", Some(s)));
    let figures = FIGURES.iter().map(|f| (f.metric, "ms", Some(f.span)));
    let values = VALUE_LAYERS.iter().map(|&(m, u)| (m, u, None));
    spans.chain(figures).chain(values).collect()
}

/// A reported metric: `value` as reported, `raw` as measured on this host.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub raw: f64,
}

/// `raw` as reported: times (and rates) are scaled to the nominal host.
fn scaled(unit: &str, raw: f64, speed: f64) -> f64 {
    match unit {
        "s" | "ms" => raw * speed,
        "op/s" => raw / speed,
        _ => raw,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The end-to-end values of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Value> {
    let ops = run.lat_ms.len().max(1) as f64;
    let values = [
        p50(&sorted(run.setup_s.clone())),
        run.lat_ms.len() as f64 / run.elapsed_s,
        p50(&sorted(run.lat_ms.clone())),
        run.cpu_s * 1e3 / ops,
        peak_rss_mb().max(run.child_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, stat), raw)| Value {
            name,
            unit,
            value: scaled(unit, raw, run.reference.speed(stat)),
            raw,
        })
        .collect()
}

/// Latency percentiles printed beside the end-to-end metrics, scaled to
/// the nominal host, as (name, value in ms, n): the tails of all ops with
/// at least ten samples beyond them, then the median and those tails for
/// each kind of op.
pub fn percentiles(run: &Run) -> Vec<(String, f64, usize)> {
    let speed = run.reference.speed(Stat::Median);
    let all = std::iter::once(("", &run.lat_ms));
    let kinds = run.lat_ms_by_kind.iter().map(|(k, v)| (*k, v));
    all.chain(kinds)
        .flat_map(|(kind, lat)| {
            let lat = sorted(lat.clone());
            let median = (!kind.is_empty()).then(|| (50, p50(&lat)));
            let tails = [95, 99]
                .into_iter()
                .filter_map(|q| tail(&lat, q as f64).map(|v| (q, v)));
            let name = |q| match kind {
                "" => format!("op_ms_p{q}"),
                k => format!("op_ms_p{q}.{k}"),
            };
            median
                .into_iter()
                .chain(tails)
                .map(|(q, v)| (name(q), v * speed, lat.len()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The per-layer values of a traced run; layers the workload does not
/// reach read 0.
pub fn layers(run: &Run) -> Vec<Value> {
    let self_ms = run
        .spans
        .as_ref()
        .map(Spans::self_ms_per_op)
        .unwrap_or_default();
    per_layer()
        .into_iter()
        .map(|(name, unit, span)| {
            let raw = match (name, span) {
                (_, Some(span)) => self_ms.get(span).copied().unwrap_or(0.0),
                ("bench.trace_overhead_pct", _) => {
                    (mean(&run.traced_ms) / mean(&run.lat_ms) - 1.0) * 100.0
                }
                _ => run.layers.get(name).copied().unwrap_or(0.0),
            };
            let stat = if span.is_some() {
                Stat::Mean
            } else {
                Stat::Median
            };
            Value {
                name,
                unit,
                value: scaled(unit, raw, run.reference.speed(stat)),
                raw,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value as Json;

    fn names(json: &Json, key: &str) -> Vec<String> {
        let Json::Array(items) = &json[key] else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| m["name"].as_str().expect("name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: Json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, ..)| n.to_string()).collect();
        let layer: Vec<String> = per_layer().iter().map(|(n, ..)| n.to_string()).collect();
        assert_eq!(names(&json, "end_to_end"), e2e);
        assert_eq!(names(&json, "per_layer"), layer);
        let workloads = names(&json, "workloads");
        assert_eq!(workloads, crate::WORKLOADS.map(String::from));
        for name in e2e.iter().chain(&layer).chain(&workloads) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "bad metric name {name:?}"
            );
        }
        let mut unique = layer.clone();
        unique.extend(e2e);
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), END_TO_END.len() + per_layer().len());
    }
}
