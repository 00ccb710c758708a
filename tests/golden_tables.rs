//! Golden reproduction of the paper's body tables (Tables 1–9).
//!
//! The example polygen query of §III is translated and executed over the
//! §IV scenario; every table the paper prints along the way must match
//! cell-for-cell — datum, originating sources *and* intermediate sources.
//! Transcription corrections (printed typos in the 1990 scan) are
//! documented in DESIGN.md ("Known discrepancies with the 1990 scan")
//! and in `catalog::scenario`.

mod common;

use common::check_table;
use common::fixtures::serve_rows;
use polygen::catalog::prelude::scenario;
use polygen::core::{PolygenRelation, SourceRegistry};
use polygen::pqp::prelude::*;
use polygen::serve::{QueryService, Request, ServeOptions};
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use std::sync::Arc;

const PAPER_SQL: &str = "SELECT ONAME, CEO \
    FROM PORGANIZATION, PALUMNUS \
    WHERE CEO = ANAME AND ONAME IN \
    (SELECT ONAME FROM PCAREER WHERE AID# IN \
    (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";

/// The paper query compiled — Tables 1–3 are its stages — plus every
/// intermediate `R(n)`: Tables 4–8 come from the eager reference
/// interpreter running Table 3 row by row.
fn compiled() -> (CompiledQuery, ExecutionTrace, SourceRegistry) {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let compiled = pqp
        .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
        .expect("paper query compiles");
    let (_, trace) = execute_eager(
        &compiled.iom,
        pqp.registry(),
        pqp.dictionary(),
        &pqp.options(),
    )
    .expect("reference run");
    let reg = pqp.dictionary().registry().clone();
    (compiled, trace, reg)
}

/// Table 9: the answer the paper's federation serves to the query.
fn served() -> (Arc<PolygenRelation>, SourceRegistry) {
    let service = QueryService::for_scenario(&scenario::build(), ServeOptions::default());
    let (answer, _) = serve_rows(&service, Request::algebra(PAPER_EXPRESSION));
    let reg = service
        .federation()
        .snapshot()
        .dictionary()
        .registry()
        .clone();
    (answer, reg)
}

/// Table 1: the Polygen Operation Matrix, row for row.
#[test]
fn table1_polygen_operation_matrix() {
    let (compiled, _, _) = compiled();
    let rendered = render_pom(&compiled.pom);
    let expected_rows = [
        "R(1) | Select | PALUMNUS | DEGREE | = | \"MBA\" | nil",
        "R(2) | Join | R(1) | AID# | = | AID# | PCAREER",
        "R(3) | Join | R(2) | ONAME | = | ONAME | PORGANIZATION",
        "R(4) | Restrict | R(3) | CEO | = | ANAME | nil",
        "R(5) | Project | R(4) | ONAME, CEO | nil | nil | nil",
    ];
    for row in expected_rows {
        let compact: String = row.split_whitespace().collect::<Vec<_>>().join(" ");
        let hit = rendered.lines().any(|l| {
            let squeezed: String = l
                .split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" | ");
            squeezed == compact
        });
        assert!(hit, "Table 1 missing row `{row}`\nrendered:\n{rendered}");
    }
}

/// Table 2: the half-processed IOM after pass one.
#[test]
fn table2_half_processed_iom() {
    let (compiled, _, _) = compiled();
    let expected = [
        ("Select", "ALUMNUS", "DEG", "\"MBA\"", "nil", "AD"),
        ("Join", "R(1)", "AID#", "AID#", "PCAREER", "PQP"),
        ("Join", "R(2)", "ONAME", "ONAME", "PORGANIZATION", "PQP"),
        ("Restrict", "R(3)", "CEO", "ANAME", "nil", "PQP"),
        ("Project", "R(4)", "ONAME, CEO", "nil", "nil", "PQP"),
    ];
    assert_eq!(compiled.half.cardinality(), expected.len());
    for (row, (op, lhr, lha, rha, rhr, el)) in compiled.half.rows.iter().zip(expected) {
        assert_eq!(row.op.to_string(), op);
        assert_eq!(row.lhr.to_string(), lhr);
        assert_eq!(
            row.lha.join(", "),
            if lha == "nil" {
                String::new()
            } else {
                lha.into()
            }
        );
        assert_eq!(row.rha.to_string(), rha);
        assert_eq!(row.rhr.to_string(), rhr);
        assert_eq!(row.el.to_string(), el);
    }
}

/// Table 3: the full IOM after pass two.
#[test]
fn table3_intermediate_operation_matrix() {
    let (compiled, _, _) = compiled();
    let expected = [
        ("Select", "ALUMNUS", "DEG", "\"MBA\"", "nil", "AD"),
        ("Retrieve", "CAREER", "", "nil", "nil", "AD"),
        ("Join", "R(1)", "AID#", "AID#", "R(2)", "PQP"),
        ("Retrieve", "BUSINESS", "", "nil", "nil", "AD"),
        ("Retrieve", "CORPORATION", "", "nil", "nil", "PD"),
        ("Retrieve", "FIRM", "", "nil", "nil", "CD"),
        ("Merge", "R(4), R(5), R(6)", "", "nil", "nil", "PQP"),
        ("Join", "R(3)", "ONAME", "ONAME", "R(7)", "PQP"),
        ("Restrict", "R(8)", "CEO", "ANAME", "nil", "PQP"),
        ("Project", "R(9)", "ONAME, CEO", "nil", "nil", "PQP"),
    ];
    assert_eq!(compiled.iom.cardinality(), expected.len());
    for (row, (op, lhr, lha, rha, rhr, el)) in compiled.iom.rows.iter().zip(expected) {
        assert_eq!(row.op.to_string(), op, "row {}", row.pr);
        assert_eq!(row.lhr.to_string(), lhr, "row {}", row.pr);
        assert_eq!(row.lha.join(", "), lha, "row {}", row.pr);
        assert_eq!(row.rha.to_string(), rha, "row {}", row.pr);
        assert_eq!(row.rhr.to_string(), rhr, "row {}", row.pr);
        assert_eq!(row.el.to_string(), el, "row {}", row.pr);
    }
}

/// Table 4: `ALUMNUS[DEG = "MBA"]` executed at AD, tagged on arrival.
#[test]
fn table4_select_result() {
    let (_, trace, reg) = compiled();
    let r1 = trace.result(1).expect("R(1)");
    check_table(
        "Table 4",
        r1,
        &reg,
        &["AID#", "ANAME", "DEG", "MAJ"],
        &[
            "012 @A ^- | John McCauley @A ^- | MBA @A ^- | IS @A ^-",
            "123 @A ^- | Bob Swanson @A ^- | MBA @A ^- | MGT @A ^-",
            "234 @A ^- | Stu Madnick @A ^- | MBA @A ^- | IS @A ^-",
            "456 @A ^- | Dave Horton @A ^- | MBA @A ^- | IS @A ^-",
            "567 @A ^- | John Reed @A ^- | MBA @A ^- | MGT @A ^-",
        ],
    );
}

/// Table 5: R(1) joined with the retrieved CAREER relation. "The Join
/// requires that the intermediate source cells to be {AD} although in
/// this case it appears to be redundant."
#[test]
fn table5_join_with_career() {
    let (_, trace, reg) = compiled();
    let r3 = trace.result(3).expect("R(3)");
    check_table(
        "Table 5",
        r3,
        &reg,
        &["AID#", "ANAME", "DEG", "MAJ", "BNAME", "POS"],
        &[
            "012 @A ^A | John McCauley @A ^A | MBA @A ^A | IS @A ^A | Citicorp @A ^A | MIS Director @A ^A",
            "123 @A ^A | Bob Swanson @A ^A | MBA @A ^A | MGT @A ^A | Genentech @A ^A | CEO @A ^A",
            "234 @A ^A | Stu Madnick @A ^A | MBA @A ^A | IS @A ^A | Langley Castle @A ^A | CEO @A ^A",
            "456 @A ^A | Dave Horton @A ^A | MBA @A ^A | IS @A ^A | Ford @A ^A | Manager @A ^A",
            "567 @A ^A | John Reed @A ^A | MBA @A ^A | MGT @A ^A | Citicorp @A ^A | CEO @A ^A",
            "234 @A ^A | Stu Madnick @A ^A | MBA @A ^A | IS @A ^A | MIT @A ^A | Professor @A ^A",
        ],
    );
}

/// Table 6: the Merge of BUSINESS, CORPORATION and FIRM (== Table A9).
#[test]
fn table6_merged_organizations() {
    let (_, trace, reg) = compiled();
    let r7 = trace.result(7).expect("R(7)");
    check_table(
        "Table 6",
        r7,
        &reg,
        &["ONAME", "INDUSTRY", "HEADQUARTERS", "CEO"],
        &[
            "Langley Castle @AC ^AC | Hotel @A ^AC | MA @C ^AC | Stu Madnick @C ^AC",
            "IBM @APC ^APC | High Tech @AP ^APC | NY @PC ^APC | John Ackers @C ^APC",
            "MIT @A ^A | Education @A ^A | nil @- ^A | nil @- ^A",
            "Citicorp @APC ^APC | Banking @AP ^APC | NY @PC ^APC | John Reed @C ^APC",
            "Oracle @APC ^APC | High Tech @AP ^APC | CA @PC ^APC | Lawrence Ellison @C ^APC",
            "Ford @AC ^AC | Automobile @A ^AC | MI @C ^AC | Donald Peterson @C ^AC",
            "DEC @APC ^APC | High Tech @AP ^APC | MA @PC ^APC | Ken Olsen @C ^APC",
            "BP @A ^A | Energy @A ^A | nil @- ^A | nil @- ^A",
            "Genentech @AC ^AC | High Tech @A ^AC | CA @C ^AC | Bob Swanson @C ^AC",
            "Apple @PC ^PC | High Tech @P ^PC | CA @PC ^PC | John Sculley @C ^PC",
            "AT&T @PC ^PC | High Tech @P ^PC | NY @PC ^PC | Robert Allen @C ^PC",
            "Banker's Trust @PC ^PC | Finance @P ^PC | NY @PC ^PC | Charles Sanford @C ^PC",
        ],
    );
}

/// Table 7: Table 5 joined with Table 6 on ONAME.
#[test]
fn table7_join_with_organizations() {
    let (_, trace, reg) = compiled();
    let r8 = trace.result(8).expect("R(8)");
    check_table(
        "Table 7",
        r8,
        &reg,
        &[
            "AID#", "ANAME", "DEG", "MAJ", "ONAME", "POS", "INDUSTRY", "HEADQUARTERS", "CEO",
        ],
        &[
            // 012 / Citicorp — all three databases involved.
            "012 @A ^APC | John McCauley @A ^APC | MBA @A ^APC | IS @A ^APC | Citicorp @APC ^APC | MIS Director @A ^APC | Banking @AP ^APC | NY @PC ^APC | John Reed @C ^APC",
            // 123 / Genentech — AD and CD only.
            "123 @A ^AC | Bob Swanson @A ^AC | MBA @A ^AC | MGT @A ^AC | Genentech @AC ^AC | CEO @A ^AC | High Tech @A ^AC | CA @C ^AC | Bob Swanson @C ^AC",
            // 234 / Langley Castle.
            "234 @A ^AC | Stu Madnick @A ^AC | MBA @A ^AC | IS @A ^AC | Langley Castle @AC ^AC | CEO @A ^AC | Hotel @A ^AC | MA @C ^AC | Stu Madnick @C ^AC",
            // 456 / Ford (the paper prints "Don Peterson"; FIRM says Donald).
            "456 @A ^AC | Dave Horton @A ^AC | MBA @A ^AC | IS @A ^AC | Ford @AC ^AC | Manager @A ^AC | Automobile @A ^AC | MI @C ^AC | Donald Peterson @C ^AC",
            // 567 / Citicorp (the paper prints MAJ "MIT"; ALUMNUS says MGT).
            "567 @A ^APC | John Reed @A ^APC | MBA @A ^APC | MGT @A ^APC | Citicorp @APC ^APC | CEO @A ^APC | Banking @AP ^APC | NY @PC ^APC | John Reed @C ^APC",
            // 234 / MIT — AD only; nil HEADQUARTERS and CEO.
            "234 @A ^A | Stu Madnick @A ^A | MBA @A ^A | IS @A ^A | MIT @A ^A | Professor @A ^A | Education @A ^A | nil @- ^A | nil @- ^A",
        ],
    );
}

/// Table 8: the Restrict `CEO = ANAME` keeps only self-CEO alumni.
#[test]
fn table8_restrict_ceo_is_alumnus() {
    let (_, trace, reg) = compiled();
    let r9 = trace.result(9).expect("R(9)");
    check_table(
        "Table 8",
        r9,
        &reg,
        &[
            "AID#", "ANAME", "DEG", "MAJ", "ONAME", "POS", "INDUSTRY", "HEADQUARTERS", "CEO",
        ],
        &[
            "123 @A ^AC | Bob Swanson @A ^AC | MBA @A ^AC | MGT @A ^AC | Genentech @AC ^AC | CEO @A ^AC | High Tech @A ^AC | CA @C ^AC | Bob Swanson @C ^AC",
            "234 @A ^AC | Stu Madnick @A ^AC | MBA @A ^AC | IS @A ^AC | Langley Castle @AC ^AC | CEO @A ^AC | Hotel @A ^AC | MA @C ^AC | Stu Madnick @C ^AC",
            "567 @A ^APC | John Reed @A ^APC | MBA @A ^APC | MGT @A ^APC | Citicorp @APC ^APC | CEO @A ^APC | Banking @AP ^APC | NY @PC ^APC | John Reed @C ^APC",
        ],
    );
}

/// Table 9: the final projection — the paper's headline result.
#[test]
fn table9_final_answer() {
    let (answer, reg) = served();
    check_table(
        "Table 9",
        &answer,
        &reg,
        &["ONAME", "CEO"],
        &[
            "Genentech @AC ^AC | Bob Swanson @C ^AC",
            "Langley Castle @AC ^AC | Stu Madnick @C ^AC",
            "Citicorp @APC ^APC | John Reed @C ^APC",
        ],
    );
}

/// The SQL front end produces the identical pipeline (the paper presents
/// the SQL and the algebra as the same query), and the federation serves
/// both spellings as one query: the same canonical text, byte-identical
/// answers, the second served from the first's result-cache entry.
#[test]
fn sql_pipeline_matches_algebra_pipeline() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let via_sql = pqp.compile(pqp.translate_sql(PAPER_SQL).unwrap()).unwrap();
    let via_alg = pqp
        .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
        .unwrap();
    assert_eq!(via_sql.expr, via_alg.expr);
    assert_eq!(via_sql.iom, via_alg.iom);
    let service = QueryService::for_scenario(&s, ServeOptions::default());
    let (sql_answer, sql_info) = serve_rows(&service, Request::sql(PAPER_SQL));
    let (alg_answer, alg_info) = serve_rows(&service, Request::algebra(PAPER_EXPRESSION));
    assert_eq!(sql_answer.schema(), alg_answer.schema());
    assert_eq!(sql_answer.tuples(), alg_answer.tuples());
    assert_eq!(sql_info.canonical, alg_info.canonical);
    assert!(!sql_info.result_hit, "the first spelling executes");
    assert!(alg_info.result_hit, "the second spelling is the same query");
}

/// §IV observation (3): mapping `("ONAME", {AD, CD})` back to local
/// coordinates yields BUSINESS.BNAME and FIRM.FNAME.
#[test]
fn observation3_tag_to_triplet_explanation() {
    let (answer, _) = served();
    let s = scenario::build();
    let genentech = answer
        .cell("ONAME", &polygen::flat::Value::str("Genentech"), "ONAME")
        .unwrap();
    let triplets = s
        .dictionary
        .explain_attribute("PORGANIZATION", "ONAME", &genentech.origin);
    let shown: Vec<String> = triplets.iter().map(|t| t.to_string()).collect();
    assert_eq!(shown, vec!["(AD, BUSINESS, BNAME)", "(CD, FIRM, FNAME)"]);
}
