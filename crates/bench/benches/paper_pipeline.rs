//! End-to-end regeneration cost of the paper's worked example: Tables
//! 1–3 (compile), Tables 4–9 (execute), and the appendix merge chain
//! (Tables A4–A9) as a standalone operator sequence.

use criterion::{criterion_group, criterion_main, Criterion};
use polygen_bench::{merge_operands, mit_setup};
use polygen_core::algebra::coalesce::ConflictPolicy;
use polygen_core::algebra::{coalesce, merge::merge, outer_join};
use polygen_core::relation::PolygenRelation;
use polygen_obs::trace::Trace;
use polygen_pqp::analyzer::analyze;
use polygen_pqp::executor::{execute_eager, execute_plan};
use polygen_pqp::interpreter::interpret;
use polygen_pqp::plan::lower;
use polygen_pqp::pqp::{Pqp, PqpOptions};
use polygen_pqp::PqpError;
use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};
use std::hint::black_box;

fn paper_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/query");
    g.sample_size(40);
    let (s, _) = mit_setup();
    let pqp = Pqp::for_scenario(&s);
    let expr = pqp
        .translate_sql(
            "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS \
         WHERE CEO = ANAME AND ONAME IN \
         (SELECT ONAME FROM PCAREER WHERE AID# IN \
         (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))",
        )
        .unwrap();
    g.bench_function("compile_tables_1_to_3", |b| {
        b.iter(|| pqp.compile(black_box(expr.clone())).unwrap())
    });
    let compiled = pqp.compile(expr).unwrap();
    g.bench_function("execute_tables_4_to_9", |b| {
        b.iter(|| pqp.run_compiled(black_box(&compiled)).unwrap())
    });
    // Parse, compile and run algebra text.
    let from_text = |pqp: &Pqp, text: &str| -> Result<PolygenRelation, PqpError> {
        pqp.run_compiled(&pqp.compile(parse_algebra(text)?)?)
    };
    g.bench_function("full_pipeline_from_text", |b| {
        b.iter(|| from_text(&pqp, black_box(PAPER_EXPRESSION)).unwrap())
    });
    g.finish();
}

/// Eager row-by-row reference interpreter vs the physical-plan engine on
/// the same IOM — the executor-rewrite payoff in isolation.
fn engine_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/engine");
    g.sample_size(40);
    let (s, registry) = mit_setup();
    let pom = analyze(&parse_algebra(PAPER_EXPRESSION).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
    g.bench_function("execute_eager", |b| {
        b.iter(|| {
            execute_eager(
                black_box(&iom),
                &registry,
                &s.dictionary,
                &PqpOptions::default(),
            )
            .unwrap()
        })
    });
    g.bench_function("execute_physical", |b| {
        b.iter(|| {
            let plan = lower(black_box(&iom), &registry, &s.dictionary).unwrap();
            execute_plan(
                &plan,
                &registry,
                &s.dictionary,
                None,
                &PqpOptions::default(),
                &Trace::disabled(),
            )
            .unwrap()
        })
    });
    g.finish();
}

fn appendix_merge_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/appendix");
    g.sample_size(60);
    let (s, reg) = mit_setup();
    let operands = merge_operands("PORGANIZATION", &s, &reg);
    g.bench_function("merge_tables_a4_to_a9", |b| {
        b.iter(|| merge(black_box(&operands), "ONAME", ConflictPolicy::Strict).unwrap())
    });
    // The individual steps, paper-notation names.
    let lqps = &reg;
    let retrieve = |db: &str, rel: &str| {
        lqps.execute_tagged(
            db,
            &polygen_lqp::engine::LocalOp::retrieve(rel),
            &s.dictionary,
        )
        .unwrap()
    };
    let business = retrieve("AD", "BUSINESS");
    let corporation = retrieve("PD", "CORPORATION");
    g.bench_function("table_a4_outer_join", |b| {
        b.iter(|| outer_join(black_box(&business), &corporation, "BNAME", "CNAME").unwrap())
    });
    let a4 = outer_join(&business, &corporation, "BNAME", "CNAME").unwrap();
    g.bench_function("table_a5_key_coalesce", |b| {
        b.iter(|| {
            coalesce(
                black_box(&a4),
                "BNAME",
                "CNAME",
                "ONAME",
                ConflictPolicy::Strict,
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    paper_query,
    engine_comparison,
    appendix_merge_chain
);
criterion_main!(benches);
