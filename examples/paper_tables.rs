//! Regenerate every table of the paper — the reproduction's showpiece.
//!
//! Prints Tables 1–9 (the §III/§IV pipeline) and A1–A9 (the appendix's
//! step-by-step Merge) in the paper's own notation. Compare against the
//! PDF by eye; `tests/golden_tables.rs` and `tests/golden_appendix.rs`
//! hold the cell-exact machine-checked versions.
//!
//! ```sh
//! cargo run --example paper_tables
//! ```

use polygen::catalog::prelude::scenario;
use polygen::core::algebra::{coalesce, outer_join};
use polygen::core::prelude::*;
use polygen::lqp::prelude::*;
use polygen::pqp::prelude::*;
use polygen::serve::{QueryService, Request, ServeOptions};
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};

fn main() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let reg = pqp.dictionary().registry();

    println!("== The polygen algebraic expression (Section III) ==\n");
    println!("{PAPER_EXPRESSION}\n");

    // Tables 1–3 are the compiled stages.
    let expr = parse_algebra(PAPER_EXPRESSION).expect("paper expression parses");
    let compiled = pqp.compile(expr).expect("pipeline");

    println!("== Table 1: Polygen Operation Matrix ==\n");
    println!("{}", render_pom(&compiled.pom));
    println!("== Table 2: half-processed IOM (pass one) ==\n");
    println!("{}", render_iom(&compiled.half));
    println!("== Table 3: Intermediate Operation Matrix (pass two) ==\n");
    println!("{}", render_iom(&compiled.iom));

    // Tables 4–8 are intermediate relations: the eager reference
    // interpreter runs Table 3 row by row and keeps every `R(n)`. Table 9
    // is the answer the federation serves.
    let (_, trace) = execute_eager(
        &compiled.iom,
        pqp.registry(),
        pqp.dictionary(),
        &pqp.options(),
    )
    .expect("reference run");
    let table = |n: usize, title: &str, rel: &PolygenRelation| {
        println!("== Table {n}: {title} ==\n");
        println!("{}", render_relation(rel, reg));
    };
    let r = |rid: usize| trace.result(rid).expect("traced");
    table(4, "result of row 1 (Select at AD)", r(1));
    table(5, "result of rows 2-3 (Join with CAREER)", r(3));
    table(
        6,
        "result of rows 4-7 (Merge of BUSINESS, CORPORATION, FIRM)",
        r(7),
    );
    table(
        7,
        "result of row 8 (Join with the merged organizations)",
        r(8),
    );
    table(8, "result of row 9 (Restrict CEO = ANAME)", r(9));
    let service = QueryService::for_scenario(&s, ServeOptions::default());
    let served = service.execute(Request::algebra(PAPER_EXPRESSION));
    let answer = served
        .rows()
        .unwrap_or_else(|| panic!("paper query: {served:?}"));
    table(9, "result of row 10 (the composite answer)", answer);

    // Appendix A, stepped by hand with the core algebra.
    let lqps = scenario_registry(&s);
    let get = |db: &str, rel: &str| {
        lqps.execute_tagged(db, &LocalOp::retrieve(rel), &s.dictionary)
            .expect("retrieve")
    };
    let business = get("AD", "BUSINESS");
    let corporation = get("PD", "CORPORATION");
    let firm = get("CD", "FIRM");
    println!("== Table A1: the Business relation, tagged ==\n");
    println!("{}", render_relation(&business, reg));
    println!("== Table A2: the Corporation relation, tagged ==\n");
    println!("{}", render_relation(&corporation, reg));
    println!("== Table A3: the Firm relation, tagged (HQ domain-mapped) ==\n");
    println!("{}", render_relation(&firm, reg));

    let a4 = outer_join(&business, &corporation, "BNAME", "CNAME").unwrap();
    println!("== Table A4: outer join of A1 and A2 ==\n");
    println!("{}", render_relation(&a4, reg));
    let a5 = coalesce(&a4, "BNAME", "CNAME", "ONAME", ConflictPolicy::Strict).unwrap();
    println!("== Table A5: Outer Natural Primary Join of A1 and A2 ==\n");
    println!("{}", render_relation(&a5, reg));
    let a6 = coalesce(&a5, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict)
        .unwrap()
        .rename_attrs(&["ONAME", "INDUSTRY", "HEADQUARTERS"])
        .unwrap();
    println!("== Table A6: Outer Natural Total Join of A1 and A2 ==\n");
    println!("{}", render_relation(&a6, reg));
    let a7 = outer_join(&a6, &firm, "ONAME", "FNAME").unwrap();
    println!("== Table A7: outer join of A6 and A3 (post-update form) ==\n");
    println!("{}", render_relation(&a7, reg));
    let a8 = coalesce(&a7, "ONAME", "FNAME", "ONAME", ConflictPolicy::Strict).unwrap();
    println!("== Table A8: Outer Natural Primary Join of A6 and A3 ==\n");
    println!("{}", render_relation(&a8, reg));
    let a9 = coalesce(
        &a8,
        "HEADQUARTERS",
        "HQ",
        "HEADQUARTERS",
        ConflictPolicy::Strict,
    )
    .unwrap();
    println!("== Table A9 (= Table 6): Outer Natural Total Join of A6 and A3 ==\n");
    println!("{}", render_relation(&a9, reg));

    println!("== Section IV's closing observations, recomputed ==\n");
    let genentech = answer
        .cell("ONAME", &polygen::flat::Value::str("Genentech"), "ONAME")
        .unwrap();
    println!(
        "(1) Genentech's name comes from {}, via intermediates {}",
        reg.render_set(&genentech.origin),
        reg.render_set(&genentech.intermediate)
    );
    let reed = answer
        .cell("ONAME", &polygen::flat::Value::str("Citicorp"), "CEO")
        .unwrap();
    println!(
        "(2) Citicorp's CEO John Reed is known only to {}",
        reg.render_set(&reed.origin)
    );
    let triplets = s
        .dictionary
        .explain_attribute("PORGANIZATION", "ONAME", &genentech.origin);
    let shown: Vec<String> = triplets.iter().map(|t| t.to_string()).collect();
    println!(
        "(3) (ONAME, {}) maps back to local coordinates: {}",
        reg.render_set(&genentech.origin),
        shown.join(" and ")
    );
}
