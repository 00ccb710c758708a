//! Partition-parallel scaling: threads × tuples on the hash merge and
//! hash join kernels, plus the end-to-end engine on the acceptance
//! workload (4 sources × 10k tuples, merge + join + fused stages).
//!
//! Inputs come from `polygen-workload`'s seeded generators; the join
//! sweep draws its probe keys Zipf-skewed (`key_skew = 1.0`), the hard
//! case for hash partitioning — the hottest key cannot split across
//! partitions, so skewed scaling is expected to trail the uniform sweep
//! (see DESIGN.md, "Parallel execution"). Thread count 1 routes through
//! the sequential kernels, so each group's `t1` bar is the baseline the
//! ≥ 2× @ 4-thread acceptance ratio is measured against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polygen_bench::merge_operands;
use polygen_core::algebra::coalesce::ConflictPolicy;
use polygen_core::algebra::merge::hash_merge_partitioned;
use polygen_core::algebra::{hash_equi_join_project, merge};
use polygen_core::stream::ParallelOptions;
use polygen_lqp::engine::LocalOp;
use polygen_lqp::scenario_registry;
use polygen_obs::trace::Trace;
use polygen_pqp::executor::execute_plan;
use polygen_pqp::plan::lower;
use polygen_pqp::prelude::{analyze, interpret};
use polygen_pqp::PqpOptions;
use polygen_sql::algebra_expr::parse_algebra;
use polygen_workload::{generate, WorkloadConfig};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The acceptance workload: 4 fully-replicated sources over a 10k entity
/// pool (40k merge input tuples) plus a 10k-row detail relation.
fn acceptance_config() -> WorkloadConfig {
    WorkloadConfig {
        entities: 10_000,
        detail_rows: 10_000,
        coverage: 1.0,
        key_skew: 1.0,
        ..WorkloadConfig::default().with_sources(4)
    }
}

/// k-way hash merge across thread counts, 4 sources × {2k, 10k} tuples.
fn merge_thread_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/merge");
    g.sample_size(10);
    for entities in [2_000usize, 10_000] {
        let config = WorkloadConfig {
            entities,
            detail_rows: 1,
            coverage: 1.0,
            ..WorkloadConfig::default().with_sources(4)
        };
        let scenario = generate(&config);
        let registry = scenario_registry(&scenario);
        let operands = merge_operands("PENTITY", &scenario, &registry);
        for threads in THREADS {
            g.bench_with_input(
                BenchmarkId::new(format!("t{threads}"), format!("4x{entities}")),
                &operands,
                |b, ops| {
                    b.iter(|| {
                        hash_merge_partitioned(
                            black_box(ops),
                            "ENAME",
                            ConflictPolicy::Strict,
                            ParallelOptions::with_threads(threads),
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

/// Hash join across thread counts with a Zipf-skewed probe side: the
/// detail relation's entity references concentrate on hot keys.
fn join_thread_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/join");
    g.sample_size(10);
    for (key_skew, label) in [(0.0f64, "uniform"), (1.0, "zipf")] {
        let config = WorkloadConfig {
            entities: 4_000,
            detail_rows: 20_000,
            coverage: 1.0,
            key_skew,
            ..WorkloadConfig::default().with_sources(2)
        };
        let scenario = generate(&config);
        let registry = scenario_registry(&scenario);
        let probe = registry
            .execute_tagged("S0", &LocalOp::retrieve("DETAIL"), &scenario.dictionary)
            .unwrap();
        let build = registry
            .execute_tagged("S0", &LocalOp::retrieve("ENTITY_0"), &scenario.dictionary)
            .unwrap();
        for threads in THREADS {
            g.bench_with_input(
                BenchmarkId::new(format!("t{threads}"), label),
                &(&probe, &build),
                |b, (probe, build)| {
                    b.iter(|| {
                        hash_equi_join_project(
                            black_box(*probe),
                            *build,
                            "DNAME",
                            "NAME_0",
                            "NAME_0",
                            None,
                            ParallelOptions::with_threads(threads),
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

/// End-to-end physical-plan execution of the acceptance workload —
/// merge 4 sources, join the skewed detail relation, fused
/// select+project — across thread counts. The t4-vs-t1 ratio here is the
/// acceptance criterion (≥ 2× on a 4-core runner).
fn end_to_end_thread_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/e2e");
    g.sample_size(10);
    let scenario = generate(&acceptance_config());
    let registry = scenario_registry(&scenario);
    let expr = "((PDETAIL [SCORE >= 10]) [ENAME = ENAME] PENTITY) [ENAME, CATEGORY]";
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, scenario.dictionary.schema()).unwrap();
    let plan = lower(&iom, &registry, &scenario.dictionary).unwrap();
    for threads in THREADS {
        let options = PqpOptions::default().with_threads(threads);
        g.bench_with_input(
            BenchmarkId::new(format!("t{threads}"), "4x10k"),
            &plan,
            |b, plan| {
                b.iter(|| {
                    execute_plan(
                        black_box(plan),
                        &registry,
                        &scenario.dictionary,
                        None,
                        &options,
                        &Trace::disabled(),
                    )
                    .unwrap()
                })
            },
        );
    }
    g.finish();
}

/// Reference point: the ONTJ fold on the acceptance merge, so the JSON
/// artifact keeps the fold → hash → parallel-hash trajectory in one file.
fn fold_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/reference");
    g.sample_size(3);
    let config = WorkloadConfig {
        entities: 2_000,
        detail_rows: 1,
        coverage: 1.0,
        ..WorkloadConfig::default().with_sources(4)
    };
    let scenario = generate(&config);
    let registry = scenario_registry(&scenario);
    let operands = merge_operands("PENTITY", &scenario, &registry);
    g.bench_with_input(BenchmarkId::new("fold", "4x2000"), &operands, |b, ops| {
        b.iter(|| merge(black_box(ops), "ENAME", ConflictPolicy::Strict).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    merge_thread_sweep,
    join_thread_sweep,
    end_to_end_thread_sweep,
    fold_reference
);
criterion_main!(benches);
