//! Set-semantics relations over [`Value`] rows.

use crate::error::FlatError;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A single tuple of the flat layer.
pub type Row = Vec<Value>;

/// Build a `Vec<Value>` from mixed literals: `vals!["IBM", 1989, 5.5]`.
#[macro_export]
macro_rules! vals {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::value::Value::from($v)),*]
    };
}

/// A finite set of tuples sharing one schema.
///
/// Rows are kept unique (relations are sets, matching the paper's
/// definitions); insertion order is preserved for readable output, and
/// [`Relation::canonicalized`] provides a sorted form for order-insensitive
/// comparison in tests.
///
/// The rows sit behind an `Arc`: cloning, renaming or relabeling a
/// relation shares them (two pointer copies), and [`Relation::insert`]
/// copies on write. An LQP can therefore hand out its stored relation —
/// and the mediator pass it through every layer that does not rewrite
/// values — without copying a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Arc<Schema>,
    rows: Arc<Vec<Row>>,
}

impl Relation {
    /// An empty relation over a schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation {
            schema,
            rows: Arc::new(Vec::new()),
        }
    }

    /// Construct from rows, enforcing arity and set semantics (duplicate
    /// rows are collapsed, first occurrence kept).
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self, FlatError> {
        let mut kept: Vec<Row> = Vec::with_capacity(rows.len());
        let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
        for row in rows {
            if row.len() != schema.degree() {
                return Err(FlatError::ArityMismatch {
                    relation: schema.name().to_string(),
                    expected: schema.degree(),
                    found: row.len(),
                });
            }
            if seen.insert(row.clone()) {
                kept.push(row);
            }
        }
        Ok(Relation {
            schema,
            rows: Arc::new(kept),
        })
    }

    /// The rows satisfying `keep`, in order, under the same schema. A
    /// subset of a set is a set and arity is inherited, so survivors are
    /// copied once with none of [`Relation::from_rows`]' re-checking.
    pub fn subset(&self, mut keep: impl FnMut(&[Value]) -> bool) -> Relation {
        Relation {
            schema: Arc::clone(&self.schema),
            rows: Arc::new(self.rows.iter().filter(|r| keep(r)).cloned().collect()),
        }
    }

    /// The rows at `ordinals`, in that order, under the same schema —
    /// [`Relation::subset`] for a caller that already knows which rows
    /// survive. The ordinals must be distinct and in range.
    pub fn gather(&self, ordinals: &[u32]) -> Relation {
        Relation {
            schema: Arc::clone(&self.schema),
            rows: Arc::new(
                ordinals
                    .iter()
                    .map(|&o| self.rows[o as usize].clone())
                    .collect(),
            ),
        }
    }

    /// Fluent builder entry point.
    pub fn build(name: &str, attrs: &[&str]) -> RelationBuilder {
        RelationBuilder {
            schema: Schema::new(name, attrs),
            rows: Vec::new(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Shorthand for the schema name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Degree (number of attributes).
    pub fn degree(&self) -> usize {
        self.schema.degree()
    }

    /// Borrow the tuples.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The shared row storage itself (`Arc::ptr_eq` on two of these
    /// proves two relations hold the same rows, not copies).
    pub fn shared_rows(&self) -> &Arc<Vec<Row>> {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Consume into the raw row vector (moved when this relation is the
    /// rows' only holder, copied otherwise).
    pub fn into_rows(self) -> Vec<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows.iter().any(|r| r.as_slice() == row)
    }

    /// Append a row, enforcing arity; duplicates are ignored (set
    /// semantics). Returns whether the row was new. Copies the rows
    /// first when they are shared with another relation.
    pub fn insert(&mut self, row: Row) -> Result<bool, FlatError> {
        if row.len() != self.schema.degree() {
            return Err(FlatError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.degree(),
                found: row.len(),
            });
        }
        if self.contains(&row) {
            return Ok(false);
        }
        Arc::make_mut(&mut self.rows).push(row);
        Ok(true)
    }

    /// A copy with rows sorted into canonical order, for comparisons that
    /// must ignore insertion order.
    pub fn canonicalized(&self) -> Relation {
        let mut rows = self.rows.to_vec();
        rows.sort();
        Relation {
            schema: Arc::clone(&self.schema),
            rows: Arc::new(rows),
        }
    }

    /// Set-equality on both schema attribute names and tuples.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.schema.attrs() == other.schema.attrs()
            && self.canonicalized().rows == other.canonicalized().rows
    }

    /// A renamed copy sharing the row storage.
    pub fn renamed(&self, name: &str) -> Relation {
        Relation {
            schema: Arc::new(self.schema.renamed(name)),
            rows: Arc::clone(&self.rows),
        }
    }

    /// Replace the schema (attribute relabeling), sharing the rows;
    /// degrees must match.
    pub fn with_schema(&self, schema: Arc<Schema>) -> Result<Relation, FlatError> {
        if schema.degree() != self.schema.degree() {
            return Err(FlatError::ArityMismatch {
                relation: schema.name().to_string(),
                expected: schema.degree(),
                found: self.schema.degree(),
            });
        }
        Ok(Relation {
            schema,
            rows: Arc::clone(&self.rows),
        })
    }
}

impl fmt::Display for Relation {
    /// Render as an aligned ASCII table (the presentation style of the
    /// paper's Tables A1–A3).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.schema)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Fluent builder returned by [`Relation::build`].
pub struct RelationBuilder {
    schema: Result<Schema, FlatError>,
    rows: Vec<Row>,
}

impl RelationBuilder {
    /// Declare the primary key.
    pub fn key(mut self, attrs: &[&str]) -> Self {
        self.schema = self.schema.and_then(|s| s.with_key(attrs));
        self
    }

    /// Add a row of string data (the common case in the paper's relations).
    pub fn row(mut self, vals: &[&str]) -> Self {
        self.rows.push(vals.iter().map(Value::str).collect());
        self
    }

    /// Add a row of mixed values (use the [`vals!`](crate::vals) macro).
    pub fn vrow(mut self, vals: Vec<Value>) -> Self {
        self.rows.push(vals);
        self
    }

    /// Finish, validating schema and row arity.
    pub fn finish(self) -> Result<Relation, FlatError> {
        Relation::from_rows(Arc::new(self.schema?), self.rows)
    }
}

#[cfg(test)]
#[allow(clippy::useless_vec)] // `vals!` produces Vec by design
mod tests {
    use super::*;
    use crate::value::Value;

    fn biz() -> Relation {
        Relation::build("BUSINESS", &["BNAME", "IND"])
            .key(&["BNAME"])
            .row(&["IBM", "High Tech"])
            .row(&["MIT", "Education"])
            .row(&["IBM", "High Tech"]) // duplicate collapses
            .finish()
            .unwrap()
    }

    #[test]
    fn set_semantics_collapse_duplicates() {
        let r = biz();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::str("IBM"), Value::str("High Tech")]));
    }

    #[test]
    fn arity_enforced() {
        let r = Relation::build("X", &["A", "B"])
            .row(&["only-one"])
            .finish();
        assert!(matches!(r, Err(FlatError::ArityMismatch { .. })));
    }

    #[test]
    fn insert_respects_set_semantics() {
        let mut r = biz();
        let fresh = r
            .insert(vec![Value::str("DEC"), Value::str("High Tech")])
            .unwrap();
        assert!(fresh);
        let dup = r
            .insert(vec![Value::str("DEC"), Value::str("High Tech")])
            .unwrap();
        assert!(!dup);
        assert_eq!(r.len(), 3);
        assert!(r.insert(vec![Value::str("one")]).is_err());
    }

    #[test]
    fn clones_share_rows_and_copy_on_write() {
        let a = biz();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.shared_rows(), b.shared_rows()));
        assert!(Arc::ptr_eq(a.renamed("B2").shared_rows(), a.shared_rows()));
        // A duplicate insert changes nothing, so nothing is copied.
        assert!(!b.insert(a.rows()[0].clone()).unwrap());
        assert!(Arc::ptr_eq(a.shared_rows(), b.shared_rows()));
        // A real insert copies the rows first: the original is untouched.
        assert!(b
            .insert(vec![Value::str("DEC"), Value::str("High Tech")])
            .unwrap());
        assert!(!Arc::ptr_eq(a.shared_rows(), b.shared_rows()));
        assert_eq!((a.len(), b.len()), (2, 3));
        // The sole holder's rows move out; a shared holder's are copied.
        let rows = a.rows().to_vec();
        assert_eq!(a.clone().into_rows(), rows);
        assert_eq!(a.into_rows(), rows);
    }

    #[test]
    fn subset_and_gather_keep_order_and_schema() {
        let mut r = biz();
        r.insert(vec![Value::str("DEC"), Value::str("High Tech")])
            .unwrap();
        let tech = r.subset(|row| row[1] == Value::str("High Tech"));
        assert_eq!(tech.schema(), r.schema());
        assert_eq!(tech.rows(), [r.rows()[0].clone(), r.rows()[2].clone()]);
        assert!(r.subset(|_| false).is_empty());
        let picked = r.gather(&[2, 0]);
        assert_eq!(picked.rows(), [r.rows()[2].clone(), r.rows()[0].clone()]);
    }

    #[test]
    fn canonicalized_sorts() {
        let a = Relation::build("X", &["A"])
            .row(&["b"])
            .row(&["a"])
            .finish()
            .unwrap();
        let b = Relation::build("X", &["A"])
            .row(&["a"])
            .row(&["b"])
            .finish()
            .unwrap();
        assert_ne!(a.rows(), b.rows());
        assert!(a.set_eq(&b));
    }

    #[test]
    fn vrow_and_vals_macro() {
        let r = Relation::build("FINANCE", &["FNAME", "YR", "PROFIT"])
            .vrow(vals!["IBM", 1989, 5.5e9])
            .finish()
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::int(1989));
    }

    #[test]
    fn display_contains_rows_and_header() {
        let shown = biz().to_string();
        assert!(shown.contains("BNAME"));
        assert!(shown.contains("IBM"));
        assert!(shown.contains("BUSINESS(BNAME*, IND)"));
    }

    #[test]
    fn rename_and_with_schema() {
        let r = biz().renamed("B2");
        assert_eq!(r.name(), "B2");
        let s = Arc::new(Schema::new("B3", &["N", "I"]).unwrap());
        let relabeled = r.with_schema(Arc::clone(&s)).unwrap();
        assert_eq!(relabeled.schema().attr_at(0), "N");
        let bad = Schema::new("B4", &["N"]).unwrap();
        assert!(r.with_schema(Arc::new(bad)).is_err());
    }
}
