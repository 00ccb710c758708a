//! The benchmark's fixed vocabulary: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root says the same thing for the driver; a unit test
//! holds the two equal.

/// How long one run's timed window lasts when `--seconds` names no
/// other length: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 15;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The name printed and gated on.
    pub name: &'static str,
    /// The crate (or harness part) the number belongs to.
    pub layer: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        layer: "end_to_end",
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> MetricDef {
    MetricDef {
        name,
        layer,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the mediator sees. Measured with the span recorder
/// off, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("qps", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p95_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One crate each, from the traced run. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("net", "net.encode_request_us", "us", Lower),
    layer("net", "net.decode_request_us", "us", Lower),
    layer("net", "net.encode_response_us", "us", Lower),
    layer("net", "net.decode_response_us", "us", Lower),
    layer("net", "net.roundtrip_us", "us", Lower),
    layer("net", "net.transport_us", "us", Lower),
    layer("net", "net.response_bytes", "B", Lower),
    layer("net", "net.response_frames", "count", Lower),
    layer("net", "net.tag_bytes_share", "ratio", Lower),
    layer("net", "net.backpressure_closed", "count", Lower),
    layer("serve", "serve.execute_us", "us", Lower),
    layer("serve", "serve.self_us", "us", Lower),
    layer("serve", "serve.result_hit_ratio", "ratio", Higher),
    layer("serve", "serve.plan_hit_ratio", "ratio", Higher),
    layer("serve", "serve.queue_wait_p99_us", "us", Lower),
    layer("serve", "serve.peak_concurrency", "count", Lower),
    layer("serve", "serve.shed", "count", Lower),
    layer("serve", "serve.invalidated_plans", "count", Lower),
    layer("serve", "serve.invalidated_results", "count", Lower),
    layer("serve", "serve.update_us", "us", Lower),
    layer("serve", "update_p50_us", "us", Lower),
    layer("sql", "sql.canonicalize_us", "us", Lower),
    layer("sql", "sql.translate_us", "us", Lower),
    layer("pqp", "pqp.compile_us", "us", Lower),
    layer("pqp", "pqp.run_us", "us", Lower),
    layer("pqp", "pqp.rows_out", "count", Lower),
    layer("pqp", "pqp.index_routed_ratio", "ratio", Higher),
    layer("pqp", "pqp.batch_pipeline_ratio", "ratio", Higher),
    layer("core", "core.select_us", "us", Lower),
    layer("core", "core.join_us", "us", Lower),
    layer("core", "core.merge_us", "us", Lower),
    layer("core", "core.project_us", "us", Lower),
    layer("core", "core.pipeline_us", "us", Lower),
    layer("core", "tag_overhead_ratio", "ratio", Lower),
    layer("flat", "flat.pipeline_us", "us", Lower),
    layer("flat", "flat.select_us", "us", Lower),
    layer("flat", "flat.join_us", "us", Lower),
    layer("flat", "flat.project_us", "us", Lower),
    layer("index", "index.probe_us", "us", Lower),
    layer("index", "index.postings_per_probe", "count", Lower),
    layer("index", "index.build_us", "us", Lower),
    layer("lqp", "lqp.retrieve_us", "us", Lower),
    layer("lqp", "lqp.rows_retrieved", "count", Lower),
    layer("workload", "workload.select_p50_us", "us", Lower),
    layer("workload", "workload.join_p50_us", "us", Lower),
    layer("workload", "workload.paper_p50_us", "us", Lower),
    layer("workload", "workload.point_p50_us", "us", Lower),
    layer("workload", "workload.range_p50_us", "us", Lower),
    layer("workload", "workload.sys_p50_us", "us", Lower),
    layer("workload", "workload.lat_p99_us", "us", Lower),
    layer("workload", "workload.lat_max_us", "us", Lower),
    layer("workload", "workload.script_hash", "hash", Higher),
    layer("harness", "error_rate", "ratio", Lower),
    layer("harness", "harness.span_overhead_ratio", "ratio", Lower),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_mix",
        "select 6 / join 3 / paper 1 with caches off: sql, pqp, core and lqp do the work, net almost none",
    ),
    (
        "hot_mix",
        "the same scripts with caches on: every query is a result hit, so serve and net do the work and the executor none",
    ),
    (
        "point_churn",
        "point 8 / range 3 / sys 1 over two indexes with source updates: keys exceed both caches, answers are one or two frames",
    ),
    (
        "tag_tax",
        "in-process select-join-project, tagged kernels against the flat algebra: the paper's cost question, untouched by serving layers",
    ),
];

/// Look a metric up in either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The `--list` table: every metric with layer, unit, direction, bound.
pub fn render_list() -> String {
    let mut out = String::from("workloads:\n");
    for (name, why) in WORKLOADS {
        out.push_str(&format!("  {name:<12} {why}\n"));
    }
    out.push_str(&format!(
        "\n{:<30} {:<11} {:<6} {:<7} {}\n",
        "metric", "layer", "unit", "better", "bound"
    ));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{:<30} {:<11} {:<6} {:<7} {bound}\n",
            m.name,
            m.layer,
            m.unit,
            m.better.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric is bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn benchmark_json_says_what_the_catalog_says() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.label())
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
                assert_eq!(
                    entry.members().len(),
                    if def.bound.is_some() { 4 } else { 3 }
                );
            }
        }
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn list_names_every_metric() {
        let table = render_list();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(table.contains(m.name));
        }
        assert!(metric("qps").is_some() && metric("nope").is_none());
    }
}
