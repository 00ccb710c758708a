//! What does observability cost?
//!
//! The paper pipeline end-to-end under three observation levels —
//! tracing disabled, tracing enabled, and full EXPLAIN ANALYZE
//! (execute + render). The obs contract is pay-for-what-you-use: the
//! disabled path is one branch per span site, so `off` and `on` should
//! be nearly indistinguishable and `analyze` only adds the rendering.
//!
//! The harness also *gates* that contract before timing anything.
//! End-to-end differencing cannot resolve the disabled path (its cost
//! is a handful of branches against tens of microseconds of query), so
//! the gate measures it directly: time a full disabled
//! begin/annotate/end span-site cycle in isolation, multiply by the
//! number of executor span sites the paper plan hits, and assert that
//! total stays under 3% of the query's own (tracing-off) runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polygen_catalog::scenario;
use polygen_obs::trace::Trace;
use polygen_pqp::prelude::*;
use polygen_sql::prelude::PAPER_EXPRESSION;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn paper_pqp() -> (Pqp, CompiledQuery) {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(1));
    let compiled = pqp
        .compile(polygen_sql::prelude::parse_algebra(PAPER_EXPRESSION).unwrap())
        .unwrap();
    (pqp, compiled)
}

/// Best-of-rounds timing of `routine` run `per` times, interleavable
/// with a competing measurement so slow-drift noise cancels.
fn round<F: FnMut()>(mut routine: F, per: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..per {
        routine();
    }
    start.elapsed()
}

/// The quick-bench acceptance gate: the disabled-tracing tax on the
/// paper pipeline must stay under 3% of the query's own runtime.
///
/// The tax is (span sites per query) × (cost of one disabled span-site
/// cycle). The per-site cycle — begin, one annotation, end, all on a
/// disabled recorder — is timed over a million iterations so the
/// nanosecond-scale branch cost is resolvable; the query baseline is
/// best-of-rounds with tracing off. The executor hits one site per
/// physical node; we charge double that (begin/end plus every
/// annotation the richest node records) to keep the bound honest.
fn disabled_overhead_gate() {
    let (pqp, compiled) = paper_pqp();
    // Per-site cost of the disabled path.
    let disabled = Trace::disabled();
    let site_cycle = || {
        let id = disabled.begin(black_box("gate"));
        disabled.annotate(id, "rows", polygen_obs::trace::Note::Uint(black_box(1)));
        disabled.end(id);
    };
    const SITE_ITERS: u32 = 1_000_000;
    round(site_cycle, 10_000); // warm
    let per_site = round(site_cycle, SITE_ITERS as usize) / SITE_ITERS;
    // Query baseline, tracing off, best of interleaved rounds.
    const ROUNDS: usize = 20;
    const PER: usize = 4;
    for _ in 0..PER {
        pqp.run_compiled(&compiled).unwrap();
    }
    let mut best_off = Duration::MAX;
    for _ in 0..ROUNDS {
        best_off = best_off.min(round(
            || {
                black_box(pqp.run_compiled(&compiled).unwrap());
            },
            PER,
        ));
    }
    let query = best_off / PER as u32;
    let sites = 2 * compiled.physical.nodes.len() as u32;
    let tax = per_site * sites;
    let overhead = tax.as_secs_f64() / query.as_secs_f64();
    assert!(
        overhead <= 0.03,
        "disabled-tracing gate: {sites} sites x {per_site:?} = {tax:?} per {query:?} query \
         = {:.4}% exceeds the 3% budget",
        overhead * 100.0
    );
    eprintln!(
        "obs gate: {sites} sites x {per_site:?} = {tax:?} against a {query:?} query \
         ({:.4}% of runtime) — under the 3% budget",
        overhead * 100.0
    );
}

/// Off / on / analyze, end to end.
fn observation_levels(c: &mut Criterion) {
    disabled_overhead_gate();
    let mut g = c.benchmark_group("obs/e2e");
    g.sample_size(30);
    let (pqp, compiled) = paper_pqp();
    g.bench_with_input(BenchmarkId::new("off", "paper"), &(), |b, ()| {
        b.iter(|| black_box(pqp.run_compiled(black_box(&compiled)).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("on", "paper"), &(), |b, ()| {
        b.iter(|| {
            let trace = Trace::enabled();
            black_box(
                pqp.run_compiled_traced(black_box(&compiled), &trace)
                    .unwrap(),
            );
            trace.report()
        })
    });
    g.bench_with_input(BenchmarkId::new("analyze", "paper"), &(), |b, ()| {
        b.iter(|| {
            let trace = Trace::enabled();
            pqp.run_compiled_traced(black_box(&compiled), &trace)
                .unwrap();
            black_box(render_analyzed_plan(
                &compiled.physical,
                &trace.report().unwrap_or_default(),
            ))
        })
    });
    g.finish();
}

/// The recorder itself, isolated from the engine: one begin/annotate/end
/// cycle on a disabled vs an enabled trace. The disabled side is the
/// branch the executor pays per span site when nobody is watching.
fn span_site_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs/span_site");
    g.sample_size(30);
    let disabled = Trace::disabled();
    let enabled = Trace::enabled();
    g.bench_with_input(BenchmarkId::new("disabled", 1), &(), |b, ()| {
        b.iter(|| {
            let id = disabled.begin(black_box("bench"));
            disabled.annotate(id, "rows", polygen_obs::trace::Note::Uint(black_box(42)));
            disabled.end(id);
        })
    });
    g.bench_with_input(BenchmarkId::new("enabled", 1), &(), |b, ()| {
        b.iter(|| {
            let id = enabled.begin(black_box("bench"));
            enabled.annotate(id, "rows", polygen_obs::trace::Note::Uint(black_box(42)));
            enabled.end(id);
        })
    });
    g.finish();
}

criterion_group!(benches, observation_levels, span_site_cost);
criterion_main!(benches);
