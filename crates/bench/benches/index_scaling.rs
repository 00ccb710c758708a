//! Secondary-index scaling: what a probe buys over a full source sweep.
//!
//! Three sweeps over the seeded synthetic federation's single-source
//! `DETAIL` relation, sized 1k and 10k rows:
//!
//! * `index/point` — the selective equality lookup
//!   (`PDETAIL [ENAME = …]`): `scan` executes the LQP select +
//!   domain-rule + tagging sweep every time; `probe` replays the same
//!   compiled query routed through the hash index (O(1) postings
//!   lookup + emitting the handful of matches). **The acceptance ratio
//!   lives here: at 10k rows the probe must be ≥ 10× faster.**
//! * `index/range` — score ranges at ~1% and ~10% selectivity,
//!   `scan` vs the sorted index's binary-search `probe` (the second
//!   conjunct of the between stays in the pipeline as a residual
//!   re-check either way).
//! * `index/build` — what a source-version bump pays to rebuild one
//!   source's indexes in the successor snapshot (both kinds, per size).
//!
//! Both sides run the same `CompiledQuery` machinery — only the routing
//! differs — and the differential suite (`tests/properties_index.rs`)
//! pins the two paths byte-identical, so this file measures exactly the
//! sweep-vs-probe gap. CI runs it in sampling mode and publishes
//! `BENCH_index.json` (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polygen_index::{IndexCatalog, IndexSpec};
use polygen_pqp::pqp::{Pqp, PqpOptions};
use polygen_sql::parse_algebra;
use polygen_workload::queries::{point_lookup, range_scan};
use polygen_workload::{self as workload, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;

/// The specs every sweep declares: hash for equality, sorted for range.
fn specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ]
}

/// A federation whose DETAIL relation has `rows` rows.
fn config(rows: usize) -> WorkloadConfig {
    WorkloadConfig {
        detail_rows: rows,
        ..WorkloadConfig::default().with_entities(2_000)
    }
}

/// `(scan engine, probe engine)` over one federation: identical except
/// the probe side carries the index catalog.
fn engines(rows: usize) -> (Pqp, Pqp) {
    let scenario = workload::generate(&config(rows));
    let scan = Pqp::for_scenario(&scenario).with_options(PqpOptions::default().with_threads(1));
    let probe = Pqp::for_scenario(&scenario).with_options(PqpOptions::default().with_threads(1));
    let catalog = Arc::new(
        IndexCatalog::build(&specs(), probe.registry(), probe.dictionary())
            .expect("bench catalog builds"),
    );
    (scan, probe.with_indexes(catalog))
}

/// Compile `expr` on both engines, asserting the probe side routed iff
/// expected, and bench `run_compiled` on each.
fn scan_vs_probe(g: &mut criterion::BenchmarkGroup<'_>, rows: usize, label: &str, expr: &str) {
    let (scan, probe) = engines(rows);
    let scan_plan = scan.compile(parse_algebra(expr).unwrap()).unwrap();
    assert_eq!(scan_plan.physical.index_scans(), 0);
    let probe_plan = probe.compile(parse_algebra(expr).unwrap()).unwrap();
    assert_eq!(
        probe_plan.physical.index_scans(),
        1,
        "route expected: {expr}"
    );
    // Identical answers before we time anything.
    let a = scan.run_compiled(&scan_plan).unwrap();
    let b = probe.run_compiled(&probe_plan).unwrap();
    assert_eq!(a.tuples(), b.tuples(), "scan and probe diverge on {expr}");
    g.bench_with_input(
        BenchmarkId::new(format!("{label}/scan"), rows),
        &(),
        |b, ()| b.iter(|| scan.run_compiled(black_box(&scan_plan)).unwrap().len()),
    );
    g.bench_with_input(
        BenchmarkId::new(format!("{label}/probe"), rows),
        &(),
        |b, ()| b.iter(|| probe.run_compiled(black_box(&probe_plan)).unwrap().len()),
    );
}

/// Point lookups: hash probe vs full sweep.
fn point_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("index/point");
    g.sample_size(20);
    // Entity 1's key: detail rows reference entities 0..2000 uniformly,
    // so it is present at both sizes with a handful of matches.
    for rows in [1_000usize, 10_000] {
        scan_vs_probe(&mut g, rows, "eq", &point_lookup(1));
    }
    g.finish();
}

/// Score ranges at ~1% and ~10% selectivity: sorted probe vs sweep.
fn range_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("index/range");
    g.sample_size(20);
    for rows in [1_000usize, 10_000] {
        scan_vs_probe(&mut g, rows, "sel1pct", &range_scan(50, 50));
        scan_vs_probe(&mut g, rows, "sel10pct", &range_scan(45, 54));
    }
    g.finish();
}

/// Index (re)build cost — the price of one source-version bump.
fn build_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("index/build");
    g.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let scenario = workload::generate(&config(rows));
        let pqp = Pqp::for_scenario(&scenario);
        g.bench_with_input(BenchmarkId::new("both_kinds", rows), &(), |b, ()| {
            b.iter(|| {
                IndexCatalog::build(&specs(), pqp.registry(), pqp.dictionary())
                    .unwrap()
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, point_sweep, range_sweep, build_sweep);
criterion_main!(benches);
