//! Credibility-based conflict resolution — the §I/§V extension.
//!
//! "Knowing the data source credibility will enable the user or the query
//! processor to further resolve potential conflicts amongst the data
//! retrieved from different sources" (§I). The data dictionary carries a
//! credibility score per source; when a Merge finds two sources asserting
//! different values, the cell whose origins include the most credible
//! source wins, and the loser's sources are demoted to intermediate tags
//! (its data influenced *which* value you see — textbook intermediate
//! provenance).

use polygen_catalog::dictionary::DataDictionary;
use polygen_core::algebra::merge::merge_with;
use polygen_core::cell::Cell;
use polygen_core::error::PolygenError;
use polygen_core::relation::PolygenRelation;
use polygen_core::source::SourceId;

/// One conflict the credibility rule settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedConflict {
    /// The attribute in conflict.
    pub attribute: String,
    /// Index of the conflicting tuple at resolution time.
    pub tuple_index: usize,
    /// The winning cell (before tag demotion).
    pub chosen: Cell,
    /// The losing cell.
    pub rejected: Cell,
    /// The source whose credibility decided it.
    pub decided_by: Option<SourceId>,
}

/// The credibility of a cell = the best credibility among its origins
/// (a datum is as trustworthy as its most trusted source).
pub fn cell_credibility(cell: &Cell, dictionary: &DataDictionary) -> f64 {
    cell.origin
        .iter()
        .map(|id| dictionary.credibility(id))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Pick between two conflicting cells; ties prefer the left (the paper's
/// Merge is a left fold, so earlier catalog order wins ties).
pub fn resolve_by_credibility(
    x: &Cell,
    y: &Cell,
    dictionary: &DataDictionary,
) -> (Cell, Cell, Option<SourceId>) {
    let cx = cell_credibility(x, dictionary);
    let cy = cell_credibility(y, dictionary);
    let (winner, loser) = if cy > cx { (y, x) } else { (x, y) };
    let mut chosen = winner.clone();
    // Demote the loser: its origins and mediators become mediators of the
    // chosen value.
    chosen.intermediate.union_with(&loser.origin);
    chosen.intermediate.union_with(&loser.intermediate);
    let decided_by = dictionary.most_credible(&winner.origin);
    (chosen, loser.clone(), decided_by)
}

/// Merge relations (already carrying polygen attribute names) with
/// credibility-based conflict resolution; returns the merged relation and
/// the conflicts settled.
pub fn merge_by_credibility(
    relations: &[PolygenRelation],
    key: &str,
    dictionary: &DataDictionary,
) -> Result<(PolygenRelation, Vec<ResolvedConflict>), PolygenError> {
    let mut log = Vec::new();
    let merged = merge_with(relations, key, |attr, idx, x, y| {
        let (chosen, rejected, decided_by) = resolve_by_credibility(x, y, dictionary);
        log.push(ResolvedConflict {
            attribute: attr.to_string(),
            tuple_index: idx,
            chosen: chosen.clone(),
            rejected,
            decided_by,
        });
        Ok(chosen)
    })?;
    Ok((merged, log))
}

/// Rank an answer's tuples by the credibility of their data: each tuple
/// scores the *minimum* cell credibility (a chain is as credible as its
/// weakest source). Returns `(tuple index, score)` sorted best-first —
/// the "credible composite information" §IV closes on.
pub fn rank_tuples(rel: &PolygenRelation, dictionary: &DataDictionary) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = rel
        .tuples()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let score = t
                .iter()
                .filter(|c| !c.origin.is_empty())
                .map(|c| cell_credibility(c, dictionary))
                .fold(f64::INFINITY, f64::min);
            let score = if score.is_finite() { score } else { 0.0 };
            (i, score)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_core::source::SourceSet;
    use polygen_flat::relation::Relation;
    use polygen_flat::value::Value;

    fn dict() -> DataDictionary {
        let mut d = DataDictionary::new();
        let ad = d.intern_source("AD");
        let cd = d.intern_source("CD");
        d.set_credibility(ad, 0.9);
        d.set_credibility(cd, 0.4);
        d
    }

    fn rel(name: &str, src: &str, rows: &[&[&str]], d: &DataDictionary) -> PolygenRelation {
        let mut b = Relation::build(name, &["ONAME", "HQ"]).key(&["ONAME"]);
        for r in rows {
            b = b.row(r);
        }
        PolygenRelation::from_flat(&b.finish().unwrap(), d.registry().lookup(src).unwrap())
    }

    #[test]
    fn higher_credibility_wins_and_demotes_loser() {
        let d = dict();
        let left = rel("A", "AD", &[&["IBM", "Armonk"]], &d);
        let right = rel("B", "CD", &[&["IBM", "NYC"]], &d);
        let (merged, conflicts) = merge_by_credibility(&[left, right], "ONAME", &d).unwrap();
        assert_eq!(conflicts.len(), 1);
        let hq = merged.cell("ONAME", &Value::str("IBM"), "HQ").unwrap();
        assert_eq!(hq.datum, Value::str("Armonk"), "AD (0.9) beats CD (0.4)");
        let cd = d.registry().lookup("CD").unwrap();
        assert!(hq.intermediate.contains(cd), "loser demoted to mediator");
        assert_eq!(conflicts[0].decided_by, d.registry().lookup("AD"));
    }

    #[test]
    fn right_wins_when_more_credible() {
        let mut d = dict();
        let ad = d.registry().lookup("AD").unwrap();
        d.set_credibility(ad, 0.1);
        let left = rel("A", "AD", &[&["IBM", "Armonk"]], &d);
        let right = rel("B", "CD", &[&["IBM", "NYC"]], &d);
        let (merged, _) = merge_by_credibility(&[left, right], "ONAME", &d).unwrap();
        let hq = merged.cell("ONAME", &Value::str("IBM"), "HQ").unwrap();
        assert_eq!(hq.datum, Value::str("NYC"));
    }

    #[test]
    fn agreement_produces_no_conflicts() {
        let d = dict();
        let left = rel("A", "AD", &[&["IBM", "NY"]], &d);
        let right = rel("B", "CD", &[&["IBM", "NY"]], &d);
        let (merged, conflicts) = merge_by_credibility(&[left, right], "ONAME", &d).unwrap();
        assert!(conflicts.is_empty());
        let hq = merged.cell("ONAME", &Value::str("IBM"), "HQ").unwrap();
        assert_eq!(hq.origin.len(), 2, "agreeing sources both credited");
    }

    #[test]
    fn rank_orders_by_weakest_source() {
        let d = dict();
        let strong = rel("A", "AD", &[&["IBM", "NY"]], &d);
        let weak = rel("B", "CD", &[&["DEC", "MA"]], &d);
        let (merged, _) = merge_by_credibility(&[strong, weak], "ONAME", &d).unwrap();
        let ranks = rank_tuples(&merged, &d);
        assert_eq!(ranks.len(), 2);
        // The AD-sourced tuple (0.9) outranks the CD-sourced one (0.4).
        let top = &merged.tuples()[ranks[0].0];
        assert_eq!(top[0].datum, Value::str("IBM"));
        assert!(ranks[0].1 > ranks[1].1);
    }

    #[test]
    fn cell_credibility_takes_best_origin() {
        let d = dict();
        let ad = d.registry().lookup("AD").unwrap();
        let cd = d.registry().lookup("CD").unwrap();
        let cell = Cell::new(
            Value::str("x"),
            SourceSet::from_ids([ad, cd]),
            SourceSet::empty(),
        );
        assert_eq!(cell_credibility(&cell, &d), 0.9);
    }
}
