//! Columnar batch kernels vs the row kernels.
//!
//! `columnar/kernel` is the acceptance sweep: one fused
//! scan→filter→project chain over the seeded DETAIL relation, run as a
//! `TupleStream` walk (per-tuple predicates, per-stage tagging,
//! per-tuple Project rebuild) and as a `ColumnBatch` run (typed-vector
//! predicate loops over a selection vector, projection as a
//! column-pointer swap, tags materialized once at emission) — the
//! batch/row ratio at 10k+ rows is the ≥ 5× acceptance criterion, and
//! the reason leaf pipelines are routed to the batch kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_core::stream::TupleStream;
use polygen_flat::value::{Cmp, Value};
use polygen_lqp::engine::LocalOp;
use polygen_lqp::scenario_registry;
use polygen_workload::{generate, WorkloadConfig};
use std::hint::black_box;

fn detail_config(detail_rows: usize, key_skew: f64) -> WorkloadConfig {
    WorkloadConfig {
        entities: 1_000,
        detail_rows,
        coverage: 1.0,
        key_skew,
        ..WorkloadConfig::default().with_sources(2)
    }
}

/// The seeded base DETAIL(DID, DNAME, DSCORE) relation, tagged.
fn detail_relation(config: &WorkloadConfig) -> PolygenRelation {
    let scenario = generate(config);
    let registry = scenario_registry(&scenario);
    registry
        .execute_tagged("S0", &LocalOp::retrieve("DETAIL"), &scenario.dictionary)
        .unwrap()
}

/// Row kernels: select → restrict → project → materialize, exactly
/// what `execute_plan` runs a non-batch pipeline on.
fn run_row(rel: &TupleStream, threshold: i64) -> PolygenRelation {
    let mut s = rel.clone();
    s.select("DSCORE", Cmp::Ge, &Value::int(threshold)).unwrap();
    s.restrict("DID", Cmp::Ge, "DSCORE").unwrap();
    s.project(&["DNAME"]).unwrap();
    s.into_relation()
}

/// Batch kernels: the same chain, columnar, tags applied once
/// at emission, duplicates collapsed once after the projection.
fn run_batch(template: &ColumnBatch, threshold: i64) -> PolygenRelation {
    let mut b = template.clone();
    b.select("DSCORE", Cmp::Ge, &Value::int(threshold)).unwrap();
    b.restrict("DID", Cmp::Ge, "DSCORE").unwrap();
    b.project(&["DNAME"]).unwrap();
    let mut out = b.into_relation();
    out.merge_duplicates();
    out
}

/// Kernel-level sweep: batch vs row at 10k and 50k rows, at two filter
/// selectivities. `sel1` (scores ≥ 99, ~1% survive) is the acceptance
/// leg — the pushed-down-predicate shape where the scan dominates and
/// the typed selection-vector loop beats the per-tuple walk hardest;
/// `sel10` (~10% survive) shows the ratio as emission-side costs (which
/// both engines share) take a larger slice.
fn kernel_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("columnar/kernel");
    g.sample_size(10);
    for rows in [10_000usize, 50_000] {
        let rel = detail_relation(&detail_config(rows, 0.0));
        let stream = TupleStream::from_relation(rel.clone());
        let batch = ColumnBatch::from_relation(rel);
        for (threshold, label) in [(99i64, "sel1"), (90, "sel10")] {
            // The two engines must agree before we time them.
            assert_eq!(
                run_row(&stream, threshold).tuples(),
                run_batch(&batch, threshold).tuples()
            );
            g.bench_with_input(
                BenchmarkId::new(format!("row_{label}"), rows),
                &stream,
                |b, s| b.iter(|| run_row(black_box(s), threshold)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("batch_{label}"), rows),
                &batch,
                |b, t| b.iter(|| run_batch(black_box(t), threshold)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, kernel_sweep);
criterion_main!(benches);
