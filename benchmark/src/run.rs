//! One run of one workload: set up, open the timed window, check the
//! answers, and name every number.
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder
//! off. `--trace 1` is the separate traced run: the same window (for
//! the per-class latencies and the service's own counters), then the
//! replay of [`crate::traced`], and the spans written to
//! `out/trace-<workload>.jsonl` when the run ends.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::{obj, Json};
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile, ratio, segment_median_rate};
use crate::tagtax;
use crate::tcp::{self, Class, ClientLog, Fixture, Profile, Sizes};
use crate::traced;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Caches off: planner, executor and kernels do the work.
    ColdMix,
    /// Caches on and large enough: every query is a result hit.
    HotMix,
    /// Indexed point and range reads beside source refreshes.
    PointChurn,
    /// Tagged kernels against the flat algebra, in process.
    TagTax,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMix,
        Workload::HotMix,
        Workload::PointChurn,
        Workload::TagTax,
    ];

    /// The name the driver passes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::HotMix => "hot_mix",
            Workload::PointChurn => "point_churn",
            Workload::TagTax => "tag_tax",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn profile(self) -> Option<Profile> {
        match self {
            Workload::ColdMix => Some(Profile::cold_mix()),
            Workload::HotMix => Some(Profile::hot_mix()),
            Workload::PointChurn => Some(Profile::point_churn()),
            Workload::TagTax => None,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Every input is generated from this.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// The traced run (per-layer metrics) or the plain one (end-to-end).
    pub trace: bool,
    /// Measurement or smoke size.
    pub sizes: Sizes,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

/// A run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No operation failed and every answer checked out.
    pub correct: bool,
    /// Operations attempted: queries of the window, gate checks, canary.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Every metric of the run's kind, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The one JSON object the driver reads from the last line of
    /// standard output.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = crate::catalog::metric(name).expect("catalogued").unit;
            (
                *name,
                obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// Measured values by name, before they are put in catalog order.
type Values = BTreeMap<&'static str, f64>;

/// Run one workload once.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut values = Values::new();
    let (attempted, failed) = match args.workload.profile() {
        Some(profile) => run_tcp(args, &profile, &mut values)?,
        None => run_tag_tax(args, &mut values)?,
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    values.insert("error_rate", ratio(failed as f64, attempted as f64));
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        // A layer metric that does not apply to this workload reads 0.
        metrics: wanted
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
    })
}

/// Set up `repeats` times on a plain run, once on a traced one (which
/// does not report `setup_s`), dropping each result before the next;
/// returns the last result, which the run measures on, and the median
/// set-up time in seconds.
fn median_set_up<T>(
    args: &RunArgs,
    repeats: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let repeats = if args.trace { 1 } else { repeats };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn run_tcp(args: &RunArgs, profile: &Profile, values: &mut Values) -> Result<(u64, u64), String> {
    let sizes = &args.sizes;
    let (mut fixture, setup_s) = median_set_up(args, sizes.setup_repeats, || {
        Fixture::set_up(args.seed, profile, sizes)
    })?;
    values.insert("setup_s", setup_s);

    let (mut attempted, mut failed) = (1u64, 0u64);
    if let Err(why) = tcp::canary() {
        eprintln!("ledger: canary failed: {why}");
        failed += 1;
    }

    let before = fixture.service.metrics();
    let (logs, version) = tcp::timed_window(&mut fixture, profile, sizes, args.window);
    let after = fixture.service.metrics();
    // Read before the gate builds its reference service: the high-water
    // mark is the workload's, not the checker's.
    values.insert("peak_rss_mb", peak_rss_mib()?);
    let issued = tcp::issued_texts(&fixture, sizes, &logs);
    let (checked, wrong) = tcp::gate(&fixture, &issued, &logs, version)?;
    if wrong > 0 {
        eprintln!("ledger: {wrong} of {checked} distinct answers differ from the reference");
    }
    attempted += checked + logs.iter().map(|l| l.issued as u64).sum::<u64>();
    failed += wrong + logs.iter().map(|l| l.failed).sum::<u64>();

    let mut done: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.done_ns.iter().copied())
        .collect();
    done.sort_unstable();
    let mut lat: Vec<u64> = logs.iter().flat_map(|l| l.lat_ns.iter().copied()).collect();
    lat.sort_unstable();
    let by_class = latencies_by_class(&fixture, sizes, &logs);
    // The median is taken inside the workload's most frequent class —
    // selects in the mixes, point lookups in `point_churn`. Over all
    // queries it would sit where one class's tail meets the next class,
    // and a percent more of either moves it by a factor.
    let dominant = by_class
        .iter()
        .max_by_key(|lat| lat.len())
        .expect("six classes");
    values.insert("qps", segment_median_rate(&done));
    values.insert("lat_p50_us", micros(percentile(dominant, 0.50)));
    values.insert("lat_p95_us", micros(percentile(&lat, 0.95)));
    if !args.trace {
        return Ok((attempted, failed));
    }

    values.insert("workload.lat_p99_us", micros(percentile(&lat, 0.99)));
    values.insert("workload.lat_max_us", micros(percentile(&lat, 1.0)));
    // 48 bits of the hash: a JSON number holds them exactly.
    values.insert(
        "workload.script_hash",
        (fixture.scripts.hash & 0xffff_ffff_ffff) as f64,
    );
    for (class, lat) in Class::ALL.into_iter().zip(&by_class) {
        values.insert(class_metric(class), micros(percentile(lat, 0.50)));
    }
    let updates: Vec<u64> = {
        let mut u: Vec<u64> = logs
            .iter()
            .flat_map(|l| l.update_ns.iter().copied())
            .collect();
        u.sort_unstable();
        u
    };
    values.insert("update_p50_us", micros(percentile(&updates, 0.50)));
    values.insert(
        "serve.update_us",
        mean(&updates.iter().map(|&n| micros(n)).collect::<Vec<_>>()),
    );
    let share = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    values.insert(
        "serve.result_hit_ratio",
        share(
            after.result_hits - before.result_hits,
            after.result_misses - before.result_misses,
        ),
    );
    values.insert(
        "serve.plan_hit_ratio",
        share(
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        ),
    );
    // The histogram is cumulative since the server started; warm-up
    // waits are in it.
    values.insert(
        "serve.queue_wait_p99_us",
        after.queue_wait.p99_micros() as f64,
    );
    values.insert("serve.peak_concurrency", after.peak_concurrency as f64);
    values.insert("serve.shed", (after.shed() - before.shed()) as f64);
    values.insert(
        "serve.invalidated_plans",
        (after.invalidated_plans - before.invalidated_plans) as f64,
    );
    values.insert(
        "serve.invalidated_results",
        (after.invalidated_results - before.invalidated_results) as f64,
    );
    values.insert(
        "net.backpressure_closed",
        (after.conns_backpressure_closed - before.conns_backpressure_closed) as f64,
    );
    drop(fixture);

    let mut rec = Recorder::new(true);
    let traced = traced::run(args.seed, profile, sizes, &mut rec)?;
    if traced.mismatched > 0 {
        eprintln!(
            "ledger: {} of {} replayed answers differ between the in-process and wire legs",
            traced.mismatched, traced.checked
        );
    }
    attempted += traced.checked;
    failed += traced.mismatched;
    values.extend(traced.metrics);
    write_trace(args, &rec)?;
    Ok((attempted, failed))
}

fn class_metric(class: Class) -> &'static str {
    match class {
        Class::Select => "workload.select_p50_us",
        Class::Join => "workload.join_p50_us",
        Class::Paper => "workload.paper_p50_us",
        Class::Point => "workload.point_p50_us",
        Class::Range => "workload.range_p50_us",
        Class::Sys => "workload.sys_p50_us",
    }
}

/// Ascending window latencies of each query class, in [`Class::ALL`]
/// order.
fn latencies_by_class(fixture: &Fixture, sizes: &Sizes, logs: &[ClientLog]) -> [Vec<u64>; 6] {
    let mut by_class: [Vec<u64>; 6] = Default::default();
    for (script, log) in fixture.scripts.per_client.iter().zip(logs) {
        let ids = script.iter().cycle().skip(sizes.warmup);
        for (&id, &ns) in ids.zip(&log.lat_ns) {
            by_class[fixture.scripts.classes[id as usize] as usize].push(ns);
        }
    }
    for lat in &mut by_class {
        lat.sort_unstable();
    }
    by_class
}

fn run_tag_tax(args: &RunArgs, values: &mut Values) -> Result<(u64, u64), String> {
    let sizes = &args.sizes;
    // This set-up takes milliseconds; five times the repeats buy its
    // median the steadiness the servers' seconds have.
    let (operands, setup_s) = median_set_up(args, 5 * sizes.setup_repeats, || {
        tagtax::Operands::generate(args.seed, sizes.tag_rows)
    })?;
    values.insert("setup_s", setup_s);

    let mut rec = Recorder::new(args.trace);
    let agreed_before = operands.agree()?;
    let t = tagtax::timed_window(&operands, args.window, &mut rec, args.trace)?;
    values.insert("peak_rss_mb", peak_rss_mib()?);
    let agreed_after = operands.agree()?;
    if !(agreed_before && agreed_after) {
        eprintln!("ledger: the tagged answer, tags stripped, is not the flat answer");
    }
    let attempted = 2 + (t.tagged_ns.len() + t.flat_ns.len()) as u64;
    let failed = u64::from(!agreed_before) + u64::from(!agreed_after);

    // Throughput over the time spent in tagged pipelines only: the flat
    // side runs in between and is not the system under test.
    let busy: Vec<u64> = t
        .tagged_ns
        .iter()
        .scan(0u64, |sum, &ns| {
            *sum += ns;
            Some(*sum)
        })
        .collect();
    values.insert("qps", segment_median_rate(&busy));
    let sorted = |ns: &[u64]| {
        let mut v = ns.to_vec();
        v.sort_unstable();
        v
    };
    let tagged = sorted(&t.tagged_ns);
    values.insert("lat_p50_us", micros(percentile(&tagged, 0.50)));
    values.insert("lat_p95_us", micros(percentile(&tagged, 0.95)));
    if !args.trace {
        return Ok((attempted, failed));
    }

    let iterations = t.tagged_ns.len() as f64;
    for (metric, span) in [
        ("core.pipeline_us", "core.pipeline"),
        ("core.select_us", "core.select"),
        ("core.join_us", "core.join"),
        ("core.project_us", "core.project"),
        ("flat.pipeline_us", "flat.pipeline"),
        ("flat.select_us", "flat.select"),
        ("flat.join_us", "flat.join"),
        ("flat.project_us", "flat.project"),
    ] {
        values.insert(metric, rec.total_us(span) / iterations);
    }
    let p50 = |ns: &[u64]| percentile(&sorted(ns), 0.50) as f64;
    // Both ratios come from the un-spanned pipelines; the base of each
    // is printed as `flat.pipeline_us` / `core.pipeline_us`.
    values.insert(
        "tag_overhead_ratio",
        p50(&t.plain_tagged_ns) / p50(&t.plain_flat_ns).max(1.0),
    );
    values.insert(
        "harness.span_overhead_ratio",
        p50(&t.tagged_ns) / p50(&t.plain_tagged_ns).max(1.0),
    );
    values.insert("workload.lat_p99_us", micros(percentile(&tagged, 0.99)));
    values.insert("workload.lat_max_us", micros(percentile(&tagged, 1.0)));
    write_trace(args, &rec)?;
    Ok((attempted, failed))
}

fn write_trace(args: &RunArgs, rec: &Recorder) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace-{}.jsonl", args.workload.name()));
    rec.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// `VmHWM` of this process so far, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .expect("key present")
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// Every workload, plain and traced, at the smoke size: all answers
    /// check out, and each result line carries exactly the names
    /// `BENCHMARK.json` lists for its kind, each with a unit.
    #[test]
    fn smoke_runs_every_workload_green_with_the_listed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<String> = names(&doc, "workloads");
        assert_eq!(
            listed,
            Workload::ALL.map(|w| w.name().to_string()),
            "workload names"
        );
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            for trace in [false, true] {
                let result = run(&RunArgs {
                    workload,
                    seed: 7,
                    window: Duration::from_millis(300),
                    trace,
                    sizes: Sizes::smoke(),
                    out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-run")),
                })
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                assert!(
                    result.correct && result.failed == 0 && result.attempted > 1,
                    "{} trace={trace}: {result:?}",
                    workload.name()
                );
                let line = Json::parse(&result.to_json().render()).unwrap();
                let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let printed = line.get("metrics").unwrap().members();
                let wanted = names(&doc, if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(
                    printed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                    wanted
                );
                for (name, metric) in printed {
                    let value = metric.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value.is_finite(), "{name}");
                    assert!(!metric
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap()
                        .is_empty());
                    // What a user sees is never 0.
                    assert!(trace || value > 0.0, "{} {name}", workload.name());
                }
            }
        }
        assert_eq!(Workload::from_name("warm_mix"), None);
    }
}
