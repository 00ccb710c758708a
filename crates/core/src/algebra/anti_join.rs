//! Anti-join — an *extension* operator (not in the paper's §II), defined
//! through Difference so its tag discipline follows the paper's logic.
//!
//! `p1 ⊲ [x = y] p2` keeps the `p1` tuples whose `x` datum matches no
//! `y` datum in `p2`. Like Difference, every surviving tuple was compared
//! against (potentially) all of `p2`, so every kept cell's intermediate
//! set gains `p2(o)` — the sources whose *absence of a match* selected the
//! tuple. This is the lowering target of SQL `NOT IN`.
//!
//! `nil` probes never match (θ-semantics), so `nil`-keyed `p1` tuples
//! always survive — consistent with Restrict's treatment of `nil`.

use crate::algebra::difference::origin_closure;
use crate::algebra::join::equi_table;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple;
use std::sync::Arc;

/// `p1 ⊲ [x = y] p2` — anti-join on equality: θ-equality, as in
/// [`theta_join`](crate::algebra::theta_join), so `1` matches `1.0`.
pub fn anti_join(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
    x: &str,
    y: &str,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p1.schema().index_of(x)?.0;
    let yi = p2.schema().index_of(y)?.0;
    let p2_origins = origin_closure(p2);
    let table = equi_table(p1, xi, p2, yi);
    let mut tuples = Vec::new();
    for t in p1.tuples() {
        if table.matches(&t[xi].datum).next().is_none() {
            let mut kept = t.clone();
            tuple::add_intermediate_all(&mut kept, &p2_origins);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p1.schema()), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn orgs() -> PolygenRelation {
        let f = Relation::build("ORGS", &["ONAME"])
            .row(&["IBM"])
            .row(&["MIT"])
            .row(&["BP"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(0))
    }

    fn finance() -> PolygenRelation {
        let f = Relation::build("FINANCE", &["FNAME"])
            .row(&["IBM"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(2))
    }

    #[test]
    fn keeps_unmatched_left_tuples() {
        let a = anti_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        assert_eq!(a.len(), 2);
        assert!(a
            .cell("ONAME", &polygen_flat::value::Value::str("MIT"), "ONAME")
            .is_some());
        assert!(a
            .cell("ONAME", &polygen_flat::value::Value::str("IBM"), "ONAME")
            .is_none());
    }

    #[test]
    fn survivors_gain_right_origin_closure() {
        let a = anti_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        for t in a.tuples() {
            for c in t {
                assert!(c.intermediate.contains(sid(2)));
            }
        }
    }

    #[test]
    fn empty_right_keeps_all_with_no_tags() {
        let empty = PolygenRelation::from_flat(
            &Relation::build("FINANCE", &["FNAME"]).finish().unwrap(),
            sid(2),
        );
        let a = anti_join(&orgs(), &empty, "ONAME", "FNAME").unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.tuples()[0][0].intermediate.is_empty());
    }

    #[test]
    fn nil_probe_survives() {
        let mut left = orgs();
        left.tuples_mut()[0][0].datum = polygen_flat::value::Value::Null;
        let a = anti_join(&left, &finance(), "ONAME", "FNAME").unwrap();
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn unknown_attr_errors() {
        assert!(anti_join(&orgs(), &finance(), "NOPE", "FNAME").is_err());
        assert!(anti_join(&orgs(), &finance(), "ONAME", "NOPE").is_err());
    }
}
