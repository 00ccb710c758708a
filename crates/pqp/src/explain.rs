//! EXPLAIN output: the full translation pipeline and answer provenance in
//! human-readable form — the paper's Tables 1–3 followed by §IV's
//! source-tagging observations.

use crate::iom::render_iom;
use crate::plan::{render_plan, PhysicalPlan};
use crate::pom::render_pom;
use crate::pqp::CompiledQuery;
use polygen_catalog::dictionary::DataDictionary;
use polygen_core::lineage;
use polygen_core::relation::PolygenRelation;
use polygen_core::render::render_relation;
use polygen_obs::trace::TraceReport;
use std::fmt::Write as _;

/// Render a full explain report for an executed query: the compiled
/// stages, the physical plan, and the answer with its provenance.
pub fn explain(
    compiled: &CompiledQuery,
    answer: &PolygenRelation,
    dictionary: &DataDictionary,
) -> String {
    let mut out = String::new();
    let reg = dictionary.registry();
    let _ = writeln!(out, "== Polygen algebraic expression ==");
    let _ = writeln!(out, "{}", compiled.expr);
    let _ = writeln!(out, "\n== Polygen Operation Matrix (Table 1 form) ==");
    out.push_str(&render_pom(&compiled.pom));
    let _ = writeln!(
        out,
        "\n== Half-processed IOM after pass one (Table 2 form) =="
    );
    out.push_str(&render_iom(&compiled.half));
    let _ = writeln!(out, "\n== Intermediate Operation Matrix (Table 3 form) ==");
    out.push_str(&render_iom(&compiled.iom));
    let _ = writeln!(out, "\n== Physical plan ==");
    out.push_str(&render_plan(&compiled.physical));
    let fused = compiled.physical.fused_rows();
    if fused > 0 {
        let _ = writeln!(out, "({fused} row(s) fused into pipeline stages)");
    }
    let _ = writeln!(out, "\n== Answer ==");
    out.push_str(&render_relation(answer, reg));
    let _ = writeln!(out, "\n== Provenance by attribute ==");
    for col in lineage::column_provenance(answer) {
        let _ = writeln!(
            out,
            "{}: origins {} | intermediates {}",
            col.attribute,
            reg.render_set(&col.origins),
            reg.render_set(&col.intermediates)
        );
    }
    let purely = lineage::purely_intermediate_sources(answer);
    if !purely.is_empty() {
        let names: Vec<&str> = purely.iter().map(|id| reg.name(*id)).collect();
        let _ = writeln!(
            out,
            "purely intermediate sources (consulted, no data in answer): {}",
            names.join(", ")
        );
    }
    out
}

/// EXPLAIN ANALYZE rendering: the physical plan in `render_plan` form,
/// each node line extended with the measured actuals from a traced run
/// (`act=(µs, rows)`, plus `, xP` when the node's kernel ran split into
/// `P` partitions). `report` must come from a traced execution of this
/// same `plan` — the executor records one span per node, annotated with
/// its node index, output row count and any run-time fan-out, and those
/// spans are what the `act=` column reads. Nodes with no matching span (a
/// plan that failed mid-walk) render `act=(not executed)`.
pub fn render_analyzed_plan(plan: &PhysicalPlan, report: &TraceReport) -> String {
    // One executor span per node, keyed by its `node` annotation.
    let mut act: Vec<Option<(u64, u64, Option<u64>)>> = vec![None; plan.nodes.len()];
    for s in &report.spans {
        if let (Some(node), Some(rows)) = (s.note_uint("node"), s.note_uint("rows")) {
            if let Some(slot) = act.get_mut(usize::try_from(node).unwrap_or(usize::MAX)) {
                *slot = Some((s.duration_micros(), rows, s.note_uint("partitions")));
            }
        }
    }
    let mut out = String::new();
    let mut total_act = 0u64;
    for (i, line) in render_plan(plan).lines().enumerate() {
        let shown_act = act.get(i).copied().flatten().map_or_else(
            || "  act=(not executed)".to_string(),
            |(us, rows, partitions)| {
                total_act += us;
                let fanned = partitions.map_or_else(String::new, |p| format!(", x{p}"));
                format!("  act=({us} µs, {rows} rows{fanned})")
            },
        );
        let _ = writeln!(out, "{line}{shown_act}");
    }
    let _ = writeln!(out, "(executed in {total_act} µs)");
    out
}

#[cfg(test)]
mod tests {
    use crate::pqp::Pqp;
    use polygen_catalog::scenario;
    use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};

    fn paper_report() -> String {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let compiled = pqp
            .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
            .unwrap();
        let answer = pqp.run_compiled(&compiled).unwrap();
        super::explain(&compiled, &answer, pqp.dictionary())
    }

    #[test]
    fn explain_covers_all_stages() {
        let report = paper_report();
        assert!(report.contains("Polygen Operation Matrix"));
        assert!(report.contains("pass one"));
        assert!(report.contains("Intermediate Operation Matrix"));
        assert!(report.contains("Merge"));
        assert!(report.contains("== Physical plan =="));
        assert!(report.contains("HashJoin"), "join strategy annotated");
        assert!(report.contains("HashMerge"), "merge strategy annotated");
        assert!(report.contains("fused"), "fusion annotated");
        assert!(report.contains("== Answer =="));
        assert!(report.contains("Genentech"));
        assert!(report.contains("Provenance by attribute"));
        // PD contributed to selection of Citicorp's tuple but the final
        // relation's CEO/ONAME data include PD origins for Citicorp; AD
        // appears as origin too, so no purely-intermediate line is
        // guaranteed — just check the report renders tags.
        assert!(report.contains("{AD, CD}"));
    }
}
