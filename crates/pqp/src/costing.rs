//! Plan costing — the estimation half of Figure 2's Query Optimizer.
//!
//! The paper's prototype federated co-located MIT databases with
//! transatlantic commercial feeds, so the dominant cost is *where* an
//! operation runs and *how many tuples it ships*, not CPU. This module
//! estimates both: per-relation statistics come from the LQPs, execution
//! locations from the IOM, latency from each LQP's
//! [`CostModel`](polygen_lqp::cost::CostModel). Estimates are deliberately
//! coarse (fixed selectivities, no histograms) — enough to compare plans
//! and to surface "this plan ships the whole Finsbury feed twice".

use crate::iom::{ExecLoc, Iom, IomRow};
use crate::plan::{PhysOp, PhysicalPlan, StageKind};
use crate::pom::{Op, RelRef};
use polygen_index::Probe;
use polygen_lqp::registry::LqpRegistry;
use std::collections::BTreeMap;
use std::fmt;

/// Assumed fraction of rows surviving a selection predicate.
const SELECT_SELECTIVITY: f64 = 0.1;
/// Assumed fraction of row pairs surviving a restrict/θ-join predicate.
const RESTRICT_SELECTIVITY: f64 = 0.3;
/// Assumed join fan-out: |L ⋈ R| ≈ max(|L|, |R|) × this.
const JOIN_FANOUT: f64 = 1.0;
/// PQP-side per-input-tuple CPU cost, µs.
const PQP_TUPLE_US: f64 = 1.0;
/// Per-input-tuple CPU cost of a batch-eligible pipeline, µs: the
/// columnar kernels compare one typed column per predicate and only
/// shrink a selection vector — no per-row dispatch, no cell clones, no
/// per-stage retagging — so they are charged well under the row rate.
const BATCH_TUPLE_US: f64 = 0.2;
/// Flat cost of one index probe, µs (a hash lookup or binary search
/// into snapshot-materialized postings — no LQP round trip).
const INDEX_PROBE_US: f64 = 2.0;
/// Assumed fraction of base rows matching an equality (point) probe —
/// tighter than a generic selection: point probes target key-like
/// columns.
const INDEX_POINT_SELECTIVITY: f64 = 0.01;

/// Cost estimate for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCost {
    /// Total estimated microseconds.
    pub total_us: f64,
    /// Estimated tuples shipped out of LQPs.
    pub tuples_shipped: f64,
    /// Per-row `(R(n), estimated µs, estimated output rows)`.
    pub rows: Vec<(usize, f64, f64)>,
}

impl fmt::Display for PlanCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "estimated cost: {:.0} µs, {:.0} tuples shipped from LQPs",
            self.total_us, self.tuples_shipped
        )?;
        for (pr, us, rows) in &self.rows {
            writeln!(f, "  R({pr}): {us:.0} µs, ~{rows:.0} rows")?;
        }
        Ok(())
    }
}

fn input_rows(r: &RelRef, est: &BTreeMap<usize, f64>) -> f64 {
    match r {
        RelRef::Derived(i) => est.get(i).copied().unwrap_or(0.0),
        RelRef::DerivedList(ids) => ids.iter().map(|i| est.get(i).copied().unwrap_or(0.0)).sum(),
        _ => 0.0,
    }
}

/// Estimate the cost of executing an IOM against a registry.
pub fn estimate(iom: &Iom, registry: &LqpRegistry) -> PlanCost {
    let mut est_rows: BTreeMap<usize, f64> = BTreeMap::new();
    let mut rows = Vec::with_capacity(iom.rows.len());
    let mut total = 0.0;
    let mut shipped = 0.0;
    for row in &iom.rows {
        let (cost, out_rows) = estimate_row(row, registry, &est_rows);
        if matches!(row.el, ExecLoc::Lqp(_)) {
            shipped += out_rows;
        }
        est_rows.insert(row.pr, out_rows);
        rows.push((row.pr, cost, out_rows));
        total += cost;
    }
    PlanCost {
        total_us: total,
        tuples_shipped: shipped,
        rows,
    }
}

/// Estimate the cost of a lowered physical plan. Unlike the IOM-level
/// [`estimate`], this sees the physical strategies: a fused pipeline
/// inspects its input once regardless of stage count, a hash join
/// inspects `|L| + |R|`, and the nested-loop θ-join inspects `|L| × |R|`.
pub fn estimate_physical(plan: &PhysicalPlan, registry: &LqpRegistry) -> PlanCost {
    let mut est: Vec<f64> = Vec::with_capacity(plan.nodes.len());
    let mut rows = Vec::with_capacity(plan.nodes.len());
    let mut total = 0.0;
    let mut shipped = 0.0;
    for (i, node) in plan.nodes.iter().enumerate() {
        let (inspected, out_rows) = match &node.op {
            PhysOp::Scan { db, op } => {
                // LQP-shipped work is priced by the LQP's cost model,
                // not the PQP's per-tuple CPU rate — account for it
                // here and move on to the next node.
                let (cost, out) = scan_estimate(
                    registry,
                    db,
                    Some(&op.relation),
                    op.filter.is_some(),
                    op.restrict.is_some(),
                );
                shipped += out;
                est.push(out);
                rows.push((node.row, cost, out));
                total += cost;
                continue;
            }
            PhysOp::IndexScan {
                db,
                relation,
                probe,
                ..
            } => {
                // A probe reads snapshot-materialized postings: no LQP
                // latency, no tuples shipped — the charge is the probe
                // itself plus emitting the matches. This is what lets
                // EXPLAIN justify the route against the full scan.
                let base_rows = registry
                    .get(db)
                    .and_then(|lqp| lqp.stats(relation))
                    .map(|s| s.rows as f64)
                    .unwrap_or(100.0);
                let out = match probe {
                    Probe::Point(_) => base_rows * INDEX_POINT_SELECTIVITY,
                    Probe::Range { .. } => base_rows * SELECT_SELECTIVITY,
                };
                let cost = INDEX_PROBE_US + out * PQP_TUPLE_US;
                est.push(out);
                rows.push((node.row, cost, out));
                total += cost;
                continue;
            }
            PhysOp::Pipeline { input, stages } => {
                let inspected = est[*input];
                let mut out = inspected;
                for stage in stages {
                    out = match stage.kind {
                        StageKind::Select { .. } => out * SELECT_SELECTIVITY,
                        StageKind::Restrict { .. } => out * RESTRICT_SELECTIVITY,
                        StageKind::Project { .. } => out,
                    };
                }
                // One pass over the input, however many stages fused.
                (inspected, out)
            }
            PhysOp::HashJoin { left, right, .. } => {
                let (l, r) = (est[*left], est[*right]);
                (l + r, l.max(r) * JOIN_FANOUT)
            }
            PhysOp::ThetaJoin { left, right, .. } => {
                let (l, r) = (est[*left], est[*right]);
                (l * r, l.max(r) * JOIN_FANOUT)
            }
            PhysOp::HashMerge { inputs, .. } => {
                let sum: f64 = inputs.iter().map(|i| est[*i]).sum();
                (sum, sum)
            }
            PhysOp::AntiJoin { left, right, .. } => {
                let (l, r) = (est[*left], est[*right]);
                (l + r, l * 0.5)
            }
            PhysOp::Union { left, right } => {
                let (l, r) = (est[*left], est[*right]);
                (l + r, l + r)
            }
            PhysOp::Difference { left, right } => {
                let (l, r) = (est[*left], est[*right]);
                (l + r, l * 0.5)
            }
            PhysOp::Intersect { left, right } => {
                let (l, r) = (est[*left], est[*right]);
                (l + r, l.min(r))
            }
            PhysOp::Product { left, right } => {
                let (l, r) = (est[*left], est[*right]);
                (l * r, l * r)
            }
        };
        // Batch-eligible pipelines run the columnar kernels; everything
        // else pays the row engine's per-tuple rate.
        let tuple_us = if plan.is_batch_pipeline(i) {
            BATCH_TUPLE_US
        } else {
            PQP_TUPLE_US
        };
        let cost = inspected * tuple_us;
        est.push(out_rows);
        rows.push((node.row, cost, out_rows));
        total += cost;
    }
    PlanCost {
        total_us: total,
        tuples_shipped: shipped,
        rows,
    }
}

/// Estimated (µs, output rows) of one operation shipped to an LQP —
/// shared by the IOM and physical estimators so the two can never drift
/// on base-scan cardinality or latency.
fn scan_estimate(
    registry: &LqpRegistry,
    db: &str,
    relation: Option<&str>,
    has_filter: bool,
    has_restrict: bool,
) -> (f64, f64) {
    let (base_rows, model) = match registry.get(db) {
        Some(lqp) => (
            relation
                .and_then(|rel| lqp.stats(rel))
                .map(|s| s.rows as f64)
                .unwrap_or(100.0),
            lqp.cost_model(),
        ),
        None => (100.0, polygen_lqp::cost::CostModel::local()),
    };
    let out_rows = if has_filter {
        base_rows * SELECT_SELECTIVITY
    } else if has_restrict {
        base_rows * RESTRICT_SELECTIVITY
    } else {
        base_rows
    };
    (model.op_cost_us(out_rows.ceil() as usize) as f64, out_rows)
}

fn estimate_row(row: &IomRow, registry: &LqpRegistry, est: &BTreeMap<usize, f64>) -> (f64, f64) {
    match &row.el {
        ExecLoc::Lqp(db) => {
            let relation = match &row.lhr {
                RelRef::Named(rel) => Some(rel.as_str()),
                _ => None,
            };
            scan_estimate(
                registry,
                db,
                relation,
                row.op == Op::Select,
                row.op == Op::Restrict,
            )
        }
        ExecLoc::Pqp => {
            let left = input_rows(&row.lhr, est);
            let right = input_rows(&row.rhr, est);
            let out_rows = match row.op {
                Op::Select => left * SELECT_SELECTIVITY,
                Op::Restrict => left * RESTRICT_SELECTIVITY,
                Op::Project => left,
                Op::Join => left.max(right) * JOIN_FANOUT,
                Op::AntiJoin => left * 0.5,
                Op::Union => left + right,
                Op::Difference => left * 0.5,
                Op::Intersect => left.min(right),
                Op::Product => left * right,
                Op::Merge => left, // union of key spaces ≤ sum of inputs
                Op::Retrieve => left,
            };
            // CPU cost proportional to the work the operator inspects.
            let inspected = match row.op {
                Op::Join | Op::AntiJoin | Op::Intersect => left + right,
                Op::Product => left * right,
                Op::Union | Op::Difference => left + right,
                _ => left,
            };
            (inspected * PQP_TUPLE_US, out_rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::interpreter::interpret;
    use crate::pqp::PqpOptions;
    use polygen_catalog::scenario;
    use polygen_lqp::adapter::MenuDrivenLqp;
    use polygen_lqp::cost::CostModel;
    use polygen_lqp::memory::InMemoryLqp;
    use polygen_lqp::registry::LqpRegistry;
    use polygen_lqp::scenario_registry;
    use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};
    use std::sync::Arc;

    fn paper_iom() -> Iom {
        let schema = scenario::polygen_schema();
        let pom = analyze(&parse_algebra(PAPER_EXPRESSION).unwrap()).unwrap();
        interpret(&pom, &schema).unwrap().1
    }

    #[test]
    fn estimates_cover_every_row() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let cost = estimate(&paper_iom(), &registry);
        assert_eq!(cost.rows.len(), 10);
        assert!(cost.total_us > 0.0);
        assert!(cost.tuples_shipped > 0.0);
        // Five LQP rows ship tuples: the MBA select (~0.8 rows est) plus
        // four full retrieves (9 + 9 + 7 + 10 actual rows).
        assert!(cost.tuples_shipped > 30.0, "{}", cost.tuples_shipped);
        let shown = cost.to_string();
        assert!(shown.contains("tuples shipped"));
    }

    #[test]
    fn physical_estimate_sees_fusion() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let iom = paper_iom();
        let fused = crate::plan::lower(
            &iom,
            &registry,
            &s.dictionary,
            &PqpOptions::default().with_threads(1),
        )
        .unwrap();
        let unfused = crate::plan::lower(
            &iom,
            &registry,
            &s.dictionary,
            &PqpOptions {
                retain_intermediates: true,
                ..PqpOptions::default().with_threads(1)
            },
        )
        .unwrap();
        let cf = estimate_physical(&fused, &registry);
        let cu = estimate_physical(&unfused, &registry);
        assert!(cf.rows.len() < cu.rows.len(), "fusion shrinks the plan");
        assert!(
            cf.total_us < cu.total_us,
            "a fused pipeline inspects its input once: {} vs {}",
            cf.total_us,
            cu.total_us
        );
        assert_eq!(cf.tuples_shipped, cu.tuples_shipped, "shipping unchanged");
    }

    #[test]
    fn estimate_is_equal_across_thread_counts() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let iom = paper_iom();
        let at = |threads| {
            let plan = crate::plan::lower(
                &iom,
                &registry,
                &s.dictionary,
                &PqpOptions::default().with_threads(threads),
            )
            .unwrap();
            estimate_physical(&plan, &registry)
        };
        let serial = at(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                at(threads),
                serial,
                "threads = {threads} moved the estimate"
            );
        }
    }

    #[test]
    fn remote_feed_dominates_plan_cost() {
        let s = scenario::build();
        let local = scenario_registry(&s);
        let remote = LqpRegistry::new();
        for db in &s.databases {
            let inner = InMemoryLqp::new(&db.name, db.relations.clone());
            if db.name == "CD" {
                remote.register(Arc::new(MenuDrivenLqp::new(
                    inner,
                    CostModel::slow_remote(),
                )));
            } else {
                remote.register(Arc::new(inner));
            }
        }
        let iom = paper_iom();
        let cheap = estimate(&iom, &local);
        let pricey = estimate(&iom, &remote);
        assert!(
            pricey.total_us > cheap.total_us * 10.0,
            "remote feed must dominate: {} vs {}",
            pricey.total_us,
            cheap.total_us
        );
    }

    #[test]
    fn dedup_lowers_estimated_cost() {
        // A self-join ships CAREER twice naive, once optimized.
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let schema = scenario::polygen_schema();
        let pom = analyze(&parse_algebra("PCAREER [AID# = AID#] PCAREER").unwrap()).unwrap();
        let (_, iom) = interpret(&pom, &schema).unwrap();
        let (opt, _) = crate::optimizer::optimize(&iom, &registry, &s.dictionary).unwrap();
        let naive_cost = estimate(&iom, &registry);
        let opt_cost = estimate(&opt, &registry);
        assert!(opt_cost.tuples_shipped < naive_cost.tuples_shipped);
        assert!(opt_cost.total_us < naive_cost.total_us);
    }
}
