//! Coalesce — the sixth orthogonal primitive.
//!
//! §II: `p[x © y : w] = { t' | t'[z] = t[z],
//! t'[w](d)=t[x](d), t'[w](o)=t[x](o) ∪ t[y](o), t'[w](i)=t[x](i) ∪ t[y](i), if t[x](d)=t[y](d);
//! t'[z]=t[z], t'[w]=t[x], if t[y](d)=nil;
//! t'[z]=t[z], t'[w]=t[y], if t[x](d)=nil }`
//!
//! where `z = attrs(p) − {x, y}`. Coalesce merges two columns into one —
//! "a surprising number of practical applications" (Date) — and is the
//! step that makes the Outer Natural Joins and Merge possible.
//!
//! The paper's case analysis is silent on two *non-nil, unequal* data —
//! precisely the "data conflict amongst data retrieved from different
//! sources" its §V names as the research problem source tags unlock. We
//! surface that case through [`ConflictPolicy`]:
//! * [`ConflictPolicy::Strict`] (default) — return
//!   [`PolygenError::CoalesceConflict`]; nothing in the paper's worked
//!   example triggers it.
//! * `PreferLeft` / `PreferRight` — deterministic overrides; the losing
//!   side's origins are *demoted to intermediate tags* (its data influenced
//!   which value you see, but is not where the value came from).
//! * For credibility-driven resolution see
//!   `polygen_federation::credibility`, which builds on
//!   [`coalesce_with`].

use crate::base::RowView;
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple::PolyTuple;
use polygen_flat::schema::Schema;
use std::sync::Arc;

/// What to do when both columns carry non-nil, unequal data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Fail with [`PolygenError::CoalesceConflict`].
    #[default]
    Strict,
    /// Keep the left cell's datum; the right side's origins become
    /// intermediate tags of the result.
    PreferLeft,
    /// Keep the right cell's datum; symmetric to `PreferLeft`.
    PreferRight,
}

/// A record of one resolved (or observed) coalesce conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceConflict {
    /// Index of the conflicting tuple — in the *input* relation for the
    /// `coalesce*` family, in the *output* relation for
    /// [`hash_merge`](crate::algebra::merge::hash_merge) (and into the
    /// fold's intermediate join products on its fallback path). Treat as
    /// diagnostic context, not a stable row key.
    pub tuple_index: usize,
    /// The output attribute name.
    pub attribute: String,
    /// The left cell at the time of the conflict.
    pub left: Cell,
    /// The right cell at the time of the conflict.
    pub right: Cell,
}

/// Merge the matching-data or one-sided-nil cases per the paper.
/// Returns `None` on a genuine conflict (both non-nil, unequal).
pub(crate) fn coalesce_cells(x: &Cell, y: &Cell) -> Option<Cell> {
    coalesce_views(std::slice::from_ref(x), 0, std::slice::from_ref(y), 0)
}

/// [`coalesce_cells`] over cell `xi` of row `a` and cell `yi` of row `b`,
/// whatever the rows are made of — the one case analysis the reference
/// operators and the single-pass kernels (`hash_merge`, the fused
/// equi-join) share, so every engine coalesces identically. Only the
/// winning side's cell is ever built.
pub(crate) fn coalesce_views<'a, 'b>(
    a: impl RowView<'a>,
    xi: usize,
    b: impl RowView<'b>,
    yi: usize,
) -> Option<Cell> {
    let (x, y) = (a.datum(xi), b.datum(yi));
    if x == y {
        let mut merged = a.cell(xi);
        b.absorb_into(yi, &mut merged);
        Some(merged)
    } else if y.is_nil() {
        Some(a.cell(xi))
    } else if x.is_nil() {
        Some(b.cell(yi))
    } else {
        None
    }
}

/// Resolve a conflict between two non-nil, unequal cells per `policy`:
/// the winner's cell with the loser's tags demoted to intermediates;
/// `None` under `Strict`.
pub(crate) fn conflict_winner(policy: ConflictPolicy, x: &Cell, y: &Cell) -> Option<Cell> {
    let (winner, loser) = match policy {
        ConflictPolicy::Strict => return None,
        ConflictPolicy::PreferLeft => (x, y),
        ConflictPolicy::PreferRight => (y, x),
    };
    let mut c = winner.clone();
    c.intermediate.union_with(&loser.origin);
    c.intermediate.union_with(&loser.intermediate);
    Some(c)
}

/// The output schema of `p[x © y : w]`: `x`'s position renamed to `w`,
/// `y`'s column dropped.
fn coalesced_schema(
    p: &PolygenRelation,
    xi: usize,
    yi: usize,
    w: &str,
) -> Result<Arc<Schema>, PolygenError> {
    let mut attrs: Vec<Arc<str>> = Vec::with_capacity(p.degree() - 1);
    for (i, a) in p.schema().attrs().iter().enumerate() {
        if i == yi {
            continue;
        }
        if i == xi {
            attrs.push(Arc::from(w));
        } else {
            attrs.push(Arc::clone(a));
        }
    }
    Ok(Arc::new(Schema::from_parts(p.name(), attrs, Vec::new())?))
}

/// `p[x © y : w]` under a [`ConflictPolicy`].
pub fn coalesce(
    p: &PolygenRelation,
    x: &str,
    y: &str,
    w: &str,
    policy: ConflictPolicy,
) -> Result<PolygenRelation, PolygenError> {
    let (rel, conflicts) = coalesce_with_report(p, x, y, w, policy)?;
    debug_assert!(policy != ConflictPolicy::Strict || conflicts.is_empty());
    Ok(rel)
}

/// Like [`coalesce`] but also returns the conflicts that the policy
/// resolved (empty under `Strict`, which errors instead).
pub fn coalesce_with_report(
    p: &PolygenRelation,
    x: &str,
    y: &str,
    w: &str,
    policy: ConflictPolicy,
) -> Result<(PolygenRelation, Vec<CoalesceConflict>), PolygenError> {
    let mut conflicts = Vec::new();
    let rel = coalesce_with(p, x, y, w, |idx, cx, cy| {
        match conflict_winner(policy, cx, cy) {
            Some(c) => {
                conflicts.push(CoalesceConflict {
                    tuple_index: idx,
                    attribute: w.to_string(),
                    left: cx.clone(),
                    right: cy.clone(),
                });
                Ok(c)
            }
            None => Err(PolygenError::CoalesceConflict {
                attribute: w.to_string(),
                left: cx.datum.to_string(),
                right: cy.datum.to_string(),
            }),
        }
    })?;
    Ok((rel, conflicts))
}

/// Generic coalesce: `resolve` is consulted only for genuine conflicts
/// (both non-nil, unequal) and may pick any replacement cell — the hook
/// credibility-based resolution plugs into.
pub fn coalesce_with(
    p: &PolygenRelation,
    x: &str,
    y: &str,
    w: &str,
    mut resolve: impl FnMut(usize, &Cell, &Cell) -> Result<Cell, PolygenError>,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p.schema().index_of(x)?.0;
    let yi = p.schema().index_of(y)?.0;
    if xi == yi {
        return Err(polygen_flat::error::FlatError::DuplicateAttribute {
            relation: p.name().to_string(),
            attribute: x.to_string(),
        }
        .into());
    }
    let schema = coalesced_schema(p, xi, yi, w)?;
    let mut tuples: Vec<PolyTuple> = Vec::with_capacity(p.len());
    for (idx, t) in p.tuples().iter().enumerate() {
        let merged = match coalesce_cells(&t[xi], &t[yi]) {
            Some(c) => c,
            None => resolve(idx, &t[xi], &t[yi])?,
        };
        let mut out: PolyTuple = Vec::with_capacity(t.len() - 1);
        for (i, c) in t.iter().enumerate() {
            if i == yi {
                continue;
            }
            if i == xi {
                out.push(merged.clone());
            } else {
                out.push(c.clone());
            }
        }
        tuples.push(out);
    }
    PolygenRelation::from_tuples(schema, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceId, SourceSet};
    use polygen_flat::value::Value;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn cell(d: Option<&str>, o: &[u16], i: &[u16]) -> Cell {
        Cell::new(
            d.map_or(Value::Null, Value::str),
            o.iter().map(|&x| sid(x)).collect(),
            i.iter().map(|&x| sid(x)).collect(),
        )
    }

    fn rel(rows: Vec<(Option<&str>, Option<&str>)>) -> PolygenRelation {
        let schema = Arc::new(Schema::new("T", &["IND", "TRADE", "K"]).unwrap());
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(n, (a, b))| {
                vec![
                    cell(a, &[0], &[9]),
                    cell(b, &[1], &[8]),
                    cell(Some(&format!("k{n}")), &[2], &[]),
                ]
            })
            .collect();
        PolygenRelation::from_tuples(schema, tuples).unwrap()
    }

    #[test]
    fn equal_data_unions_tags() {
        let p = rel(vec![(Some("High Tech"), Some("High Tech"))]);
        let c = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict).unwrap();
        assert_eq!(c.degree(), 2);
        let w = &c.tuples()[0][0];
        assert_eq!(w.datum, Value::str("High Tech"));
        assert!(w.origin.contains(sid(0)) && w.origin.contains(sid(1)));
        assert!(w.intermediate.contains(sid(9)) && w.intermediate.contains(sid(8)));
        // Untouched z column keeps its cell verbatim.
        assert_eq!(c.tuples()[0][1].origin, SourceSet::singleton(sid(2)));
    }

    #[test]
    fn nil_sides_take_other_cell_verbatim() {
        let p = rel(vec![(Some("Hotel"), None), (None, Some("Finance"))]);
        let c = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict).unwrap();
        let w0 = &c.tuples()[0][0];
        assert_eq!(w0.datum, Value::str("Hotel"));
        assert_eq!(w0.origin, SourceSet::singleton(sid(0)));
        assert!(w0.intermediate.contains(sid(9)) && !w0.intermediate.contains(sid(8)));
        let w1 = &c.tuples()[1][0];
        assert_eq!(w1.datum, Value::str("Finance"));
        assert_eq!(w1.origin, SourceSet::singleton(sid(1)));
    }

    #[test]
    fn both_nil_unions_tags() {
        // Table 6's MIT row: two nil cells coalesce into one nil cell whose
        // tags are the unions.
        let p = rel(vec![(None, None)]);
        let c = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict).unwrap();
        let w = &c.tuples()[0][0];
        assert!(w.is_nil());
        assert!(w.intermediate.contains(sid(9)) && w.intermediate.contains(sid(8)));
    }

    #[test]
    fn strict_conflict_errors() {
        let p = rel(vec![(Some("Hotel"), Some("Banking"))]);
        let e = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict).unwrap_err();
        assert!(matches!(e, PolygenError::CoalesceConflict { .. }));
    }

    #[test]
    fn prefer_left_demotes_right_origins() {
        let p = rel(vec![(Some("Hotel"), Some("Banking"))]);
        let (c, conflicts) =
            coalesce_with_report(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::PreferLeft)
                .unwrap();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].tuple_index, 0);
        let w = &c.tuples()[0][0];
        assert_eq!(w.datum, Value::str("Hotel"));
        assert_eq!(w.origin, SourceSet::singleton(sid(0)));
        assert!(w.intermediate.contains(sid(1)), "loser origin demoted");
        assert!(w.intermediate.contains(sid(8)), "loser intermediates kept");
    }

    #[test]
    fn prefer_right_symmetric() {
        let p = rel(vec![(Some("Hotel"), Some("Banking"))]);
        let c = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::PreferRight).unwrap();
        let w = &c.tuples()[0][0];
        assert_eq!(w.datum, Value::str("Banking"));
        assert!(w.intermediate.contains(sid(0)));
    }

    #[test]
    fn coalesce_with_custom_resolver() {
        let p = rel(vec![(Some("Hotel"), Some("Banking"))]);
        let c = coalesce_with(&p, "IND", "TRADE", "INDUSTRY", |_, x, y| {
            let mut out = x.clone();
            out.datum = Value::str(format!("{}|{}", x.datum, y.datum));
            Ok(out)
        })
        .unwrap();
        assert_eq!(c.tuples()[0][0].datum, Value::str("Hotel|Banking"));
    }

    #[test]
    fn same_column_twice_is_an_error() {
        let p = rel(vec![(Some("a"), Some("a"))]);
        assert!(coalesce(&p, "IND", "IND", "W", ConflictPolicy::Strict).is_err());
    }

    #[test]
    fn schema_places_w_at_x_position() {
        let p = rel(vec![(Some("a"), Some("a"))]);
        let c = coalesce(&p, "IND", "TRADE", "INDUSTRY", ConflictPolicy::Strict).unwrap();
        let names: Vec<&str> = c.schema().attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(names, vec!["INDUSTRY", "K"]);
    }
}
