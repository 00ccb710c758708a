//! # polygen-index — secondary indexes over source relations
//!
//! Every query in the workspace so far executes its Scan leaves as full
//! source sweeps: a selective point query over a 10k-tuple source pays
//! the same retrieve-map-tag cost as a full-federation merge. The
//! paper's workstation model assumes selections are cheap relative to
//! integration; this crate supplies the structure that makes them so.
//!
//! A [`SourceIndex`] is built over one source relation, keyed on one
//! column:
//!
//! * the **late-tagged base** — the relation exactly as the PQP
//!   boundary produces it (retrieve, domain rules, one source id; see
//!   `polygen_core::base`) — is fetched once at build time. It shares
//!   the LQP's rows unless a domain rule rewrote them: an index keeps no
//!   tagged copy of its source;
//! * **postings** map each key value to the *tuple ordinals* (positions
//!   in scan order) holding it — a [`IndexKind::Hash`] map for equality
//!   probes, a [`IndexKind::Sorted`] run-length vector for range probes.
//!
//! A probe therefore returns *references into the scan a full sweep
//! would have produced*: emitting the probed ordinals in ascending
//! order reproduces the scan's tuple order, and the rows themselves
//! are the scan's rows under the scan's uniform tags — which is what
//! lets the planner swap a probe in for a sweep with **byte-identical**
//! results.
//!
//! ## Eligibility (why probes can honor θ-semantics)
//!
//! The engine's θ-comparisons ([`Value::satisfies`]) are three-valued:
//! `nil` never satisfies anything, and ints compare to floats
//! numerically — while the total order [`Value`] sorts and hashes by is
//! variant-first. An index probe uses the total order, so it is only
//! routed to when the two agree, which the build records:
//!
//! * [`SourceIndex::key_type`] — the column is type-homogeneous and
//!   nil-free; probes require the literal to be of the same type, on
//!   which domain `Ord`/`Eq` and θ-comparison coincide exactly.
//! * [`SourceIndex::raw_faithful`] — no domain rule rewrote the indexed
//!   column, so a predicate an LQP would evaluate on *raw* values may
//!   be probed against the (mapped) keys.
//!
//! Anything else — mixed-type columns, `nil` keys, cross-type literals,
//! rewritten columns, `<>` predicates — fails the check and the planner
//! falls back to the full scan. Correctness never depends on an index
//! existing.
//!
//! ## Maintenance
//!
//! Indexes are immutable, like the snapshots that own them
//! (`polygen-serve`): a source update derives a successor
//! [`IndexCatalog`] via [`IndexCatalog::rebuilt_for_source`], rebuilding
//! only the bumped source's indexes and re-pointing every other source's
//! by `Arc`. An index whose relation or column vanished in the update is
//! dropped rather than erroring — the planner simply stops routing to
//! it.

use polygen_catalog::dictionary::DataDictionary;
use polygen_core::base::BaseRelation;
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_flat::error::FlatError;
use polygen_flat::value::{Cmp, Value};
use polygen_lqp::engine::{LocalOp, LqpError};
use polygen_lqp::registry::LqpRegistry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced while building or probing indexes.
#[derive(Debug)]
pub enum IndexError {
    /// The catalog has no LQP registered under this source name.
    UnknownSource(String),
    /// The local system rejected the build-time retrieve.
    Lqp(LqpError),
    /// The indexed column does not exist on the relation.
    Flat(FlatError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::UnknownSource(s) => write!(f, "no LQP registered for source `{s}`"),
            IndexError::Lqp(e) => write!(f, "{e}"),
            IndexError::Flat(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<LqpError> for IndexError {
    fn from(e: LqpError) -> Self {
        IndexError::Lqp(e)
    }
}
impl From<FlatError> for IndexError {
    fn from(e: FlatError) -> Self {
        IndexError::Flat(e)
    }
}

/// The posting-list organization of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKind {
    /// Key → ordinals hash map: O(1) equality probes only.
    Hash,
    /// Key-sorted postings: equality *and* range probes via binary
    /// search.
    Sorted,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::Hash => f.write_str("hash"),
            IndexKind::Sorted => f.write_str("sorted"),
        }
    }
}

/// A declared index: which source relation and column, organized how.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexSpec {
    /// Local database (source) name.
    pub source: String,
    /// Local relation name within the source.
    pub relation: String,
    /// Local column name the index keys on.
    pub column: String,
    /// Posting organization.
    pub kind: IndexKind,
}

impl IndexSpec {
    /// A hash index on `source.relation.column`.
    pub fn hash(source: &str, relation: &str, column: &str) -> Self {
        IndexSpec {
            source: source.to_string(),
            relation: relation.to_string(),
            column: column.to_string(),
            kind: IndexKind::Hash,
        }
    }

    /// A sorted index on `source.relation.column`.
    pub fn sorted(source: &str, relation: &str, column: &str) -> Self {
        IndexSpec {
            source: source.to_string(),
            relation: relation.to_string(),
            column: column.to_string(),
            kind: IndexKind::Sorted,
        }
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}.{}.{})",
            self.kind, self.source, self.relation, self.column
        )
    }
}

/// One end of a key range: the value plus whether it is included.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The bounding key value.
    pub value: Value,
    /// `true` for `>=`/`<=`, `false` for `>`/`<`.
    pub inclusive: bool,
}

/// A validated index probe — what the planner bakes into an `IndexScan`
/// node. Probes are built through [`Interval`], which guarantees the
/// probed key set is exactly (for a lone predicate) or a subset of (for
/// a folded conjunction) the routed predicate's satisfying set.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Equality on one key.
    Point(Value),
    /// A (half-)bounded key range. At least one bound is present.
    Range {
        /// Lower bound, if any.
        lo: Option<Bound>,
        /// Upper bound, if any.
        hi: Option<Bound>,
    },
}

impl Probe {
    /// Render the probe for EXPLAIN: `COL = v`, `10 <= COL <= 20`, …
    pub fn render(&self, column: &str) -> String {
        match self {
            Probe::Point(v) => format!("{column} = {v}"),
            Probe::Range { lo, hi } => {
                let mut out = String::new();
                if let Some(b) = lo {
                    out.push_str(&format!(
                        "{} {} ",
                        b.value,
                        if b.inclusive { "<=" } else { "<" }
                    ));
                }
                out.push_str(column);
                if let Some(b) = hi {
                    out.push_str(&format!(
                        " {} {}",
                        if b.inclusive { "<=" } else { "<" },
                        b.value
                    ));
                }
                out
            }
        }
    }
}

/// A conjunction of sargable predicates over one column, normalized to a
/// key interval. The pushdown pass folds `col = lit`, `col < lit`,
/// `lit <= col <= lit` conjuncts into one interval and lowers it to a
/// [`Probe`]. Intersections only ever *tighten*, so the final probe is a
/// subset of every folded predicate — residual predicates re-checking
/// their own conjunct on probed tuples therefore keep results exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    lo: Option<Bound>,
    hi: Option<Bound>,
}

impl Interval {
    /// The unbounded interval (no predicate folded yet).
    pub fn full() -> Self {
        Interval { lo: None, hi: None }
    }

    /// The interval of `col θ value`, or `None` when θ is not sargable
    /// (`<>` excludes a point rather than bounding a range).
    pub fn from_predicate(cmp: Cmp, value: &Value) -> Option<Self> {
        let b = |inclusive| {
            Some(Bound {
                value: value.clone(),
                inclusive,
            })
        };
        match cmp {
            Cmp::Eq => Some(Interval {
                lo: b(true),
                hi: b(true),
            }),
            Cmp::Lt => Some(Interval {
                lo: None,
                hi: b(false),
            }),
            Cmp::Le => Some(Interval {
                lo: None,
                hi: b(true),
            }),
            Cmp::Gt => Some(Interval {
                lo: b(false),
                hi: None,
            }),
            Cmp::Ge => Some(Interval {
                lo: b(true),
                hi: None,
            }),
            Cmp::Ne => None,
        }
    }

    /// Intersect with another interval (tightest bounds win).
    pub fn intersect(self, other: Interval) -> Interval {
        let lo = tighter(self.lo, other.lo, true);
        let hi = tighter(self.hi, other.hi, false);
        Interval { lo, hi }
    }

    /// Is this a single key (`lo == hi`, both inclusive)?
    pub fn is_point(&self) -> bool {
        matches!(
            (&self.lo, &self.hi),
            (Some(a), Some(b)) if a.inclusive && b.inclusive && a.value == b.value
        )
    }

    /// Lower to a probe: a point when the interval pinches to one key, a
    /// range when at least one bound exists, `None` when unbounded (no
    /// predicate was folded — nothing to probe).
    pub fn into_probe(self) -> Option<Probe> {
        if self.is_point() {
            return Some(Probe::Point(self.lo.expect("point has bounds").value));
        }
        match (&self.lo, &self.hi) {
            (None, None) => None,
            _ => Some(Probe::Range {
                lo: self.lo,
                hi: self.hi,
            }),
        }
    }
}

/// The tighter of two optional bounds on the same side: for lower bounds
/// the larger value wins, for upper bounds the smaller; on equal values
/// the exclusive bound is tighter.
fn tighter(a: Option<Bound>, b: Option<Bound>, lower: bool) -> Option<Bound> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(match a.value.cmp(&b.value) {
            std::cmp::Ordering::Equal => {
                if a.inclusive {
                    b
                } else {
                    a
                }
            }
            std::cmp::Ordering::Less => {
                if lower {
                    b
                } else {
                    a
                }
            }
            std::cmp::Ordering::Greater => {
                if lower {
                    a
                } else {
                    b
                }
            }
        }),
    }
}

/// Key → ascending tuple ordinals.
#[derive(Debug, Clone, PartialEq)]
enum Postings {
    Hash(HashMap<Value, Vec<u32>>),
    Sorted(Vec<(Value, Vec<u32>)>),
}

/// A secondary index over one source relation.
///
/// Holds the late-tagged base relation (exactly what a full scan of the
/// source ships through the tagging boundary) plus ordinal postings on
/// one column. See the crate docs for the eligibility flags.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceIndex {
    spec: IndexSpec,
    base: BaseRelation,
    postings: Postings,
    /// `Some(type_name)` when every key is that (non-nil) type.
    key_type: Option<&'static str>,
    /// Raw column values equal the mapped (domain-rule-applied) keys.
    raw_faithful: bool,
}

impl SourceIndex {
    /// Build an index from a *single* retrieve of the source relation:
    /// the raw rows (what an LQP predicate would see) and the base
    /// relation derived from them (domain rules + source id, exactly
    /// the `LqpRegistry::scan` boundary) stay aligned by construction —
    /// one fetch feeds both, so a concurrently mutated LQP can never
    /// misalign the raw-faithfulness comparison, and a rebuild pays one
    /// source sweep, not two.
    pub fn build(
        spec: IndexSpec,
        registry: &LqpRegistry,
        dictionary: &DataDictionary,
    ) -> Result<Self, IndexError> {
        let lqp = registry
            .get(&spec.source)
            .ok_or_else(|| IndexError::UnknownSource(spec.source.clone()))?;
        let retrieve = LocalOp::retrieve(&spec.relation);
        let raw = lqp.execute(&retrieve)?;
        let mapped = dictionary
            .domains()
            .apply(&spec.source, &raw)
            .map_err(LqpError::from)?;
        let source = dictionary
            .registry()
            .lookup(&spec.source)
            .ok_or_else(|| IndexError::UnknownSource(spec.source.clone()))?;
        let ci = mapped.schema().index_of(&spec.column)?.0;
        debug_assert_eq!(raw.len(), mapped.len(), "raw and mapped scans align");
        let mut key_type: Option<&'static str> = None;
        let mut homogeneous = true;
        let mut raw_faithful = true;
        let mut keyed: Vec<(Value, u32)> = Vec::with_capacity(mapped.len());
        for (ord, row) in mapped.rows().iter().enumerate() {
            let key = &row[ci];
            match key_type {
                None => key_type = Some(key.type_name()),
                Some(ty) if ty == key.type_name() => {}
                Some(_) => homogeneous = false,
            }
            if raw_faithful && raw.rows().get(ord).map(|r| &r[ci]) != Some(key) {
                raw_faithful = false;
            }
            keyed.push((key.clone(), ord as u32));
        }
        if key_type == Some("nil") {
            homogeneous = false;
        }
        let key_type = if homogeneous { key_type } else { None };
        let postings = match spec.kind {
            IndexKind::Hash => {
                let mut map: HashMap<Value, Vec<u32>> = HashMap::with_capacity(keyed.len());
                for (k, ord) in keyed {
                    map.entry(k).or_default().push(ord);
                }
                Postings::Hash(map)
            }
            IndexKind::Sorted => {
                keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut runs: Vec<(Value, Vec<u32>)> = Vec::new();
                for (k, ord) in keyed {
                    match runs.last_mut() {
                        Some((last, ords)) if *last == k => ords.push(ord),
                        _ => runs.push((k, vec![ord])),
                    }
                }
                Postings::Sorted(runs)
            }
        };
        Ok(SourceIndex {
            spec,
            base: BaseRelation::new(mapped, source),
            postings,
            key_type,
            raw_faithful,
        })
    }

    /// The declaration this index was built from.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Posting organization.
    pub fn kind(&self) -> IndexKind {
        self.spec.kind
    }

    /// Tuples in the indexed base relation.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Is the base relation empty?
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Distinct key values.
    pub fn distinct_keys(&self) -> usize {
        match &self.postings {
            Postings::Hash(m) => m.len(),
            Postings::Sorted(v) => v.len(),
        }
    }

    /// The homogeneous non-nil key type, when the column has one.
    pub fn key_type(&self) -> Option<&'static str> {
        self.key_type
    }

    /// May raw-value (LQP-side) predicates be probed against this index?
    pub fn raw_faithful(&self) -> bool {
        self.raw_faithful
    }

    /// Can this organization serve a θ of this shape?
    pub fn supports(&self, cmp: Cmp) -> bool {
        match self.spec.kind {
            IndexKind::Hash => cmp == Cmp::Eq,
            IndexKind::Sorted => matches!(cmp, Cmp::Eq | Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge),
        }
    }

    /// Is a probe against this literal guaranteed to agree with
    /// θ-semantics? (Type-homogeneous non-nil keys, same-typed literal.)
    pub fn admits_literal(&self, literal: &Value) -> bool {
        self.key_type == Some(literal.type_name())
    }

    /// The ordinals matching a probe, ascending — i.e. in scan order.
    pub fn probe_ordinals(&self, probe: &Probe) -> Vec<u32> {
        match (&self.postings, probe) {
            (Postings::Hash(map), Probe::Point(v)) => map.get(v).cloned().unwrap_or_default(),
            (Postings::Hash(map), Probe::Range { lo, hi }) => {
                // Defensive: the planner never routes ranges onto hash
                // postings, but answer correctly (if slowly) if asked.
                let mut ords: Vec<u32> = map
                    .iter()
                    .filter(|(k, _)| within(k, lo, hi))
                    .flat_map(|(_, o)| o.iter().copied())
                    .collect();
                ords.sort_unstable();
                ords
            }
            (Postings::Sorted(runs), Probe::Point(v)) => runs
                .binary_search_by(|(k, _)| k.cmp(v))
                .map(|i| runs[i].1.clone())
                .unwrap_or_default(),
            (Postings::Sorted(runs), Probe::Range { lo, hi }) => {
                let start = match lo {
                    None => 0,
                    Some(b) => runs
                        .partition_point(|(k, _)| k < &b.value || (!b.inclusive && k == &b.value)),
                };
                let end = match hi {
                    None => runs.len(),
                    Some(b) => runs
                        .partition_point(|(k, _)| k < &b.value || (b.inclusive && k == &b.value)),
                };
                let mut ords: Vec<u32> = runs[start..end.max(start)]
                    .iter()
                    .flat_map(|(_, o)| o.iter().copied())
                    .collect();
                ords.sort_unstable();
                ords
            }
        }
    }

    /// Execute a probe: the base rows at the matching ordinals, in scan
    /// order, still late-tagged and sharing the index's rows (the leaf
    /// holds the ordinals, not copies) — what the executor's
    /// `IndexScan` leaf hands its consumers.
    pub fn probe_base(&self, probe: &Probe) -> BaseRelation {
        self.base.gather(&self.probe_ordinals(probe))
    }

    /// [`SourceIndex::probe_base`] with every cell tagged —
    /// byte-identical (data, origin tags, intermediate tags, order) to
    /// what the equivalent full scan would retain.
    pub fn probe_relation(&self, probe: &Probe) -> PolygenRelation {
        self.probe_base(probe).materialize()
    }

    /// Execute a probe straight into a columnar batch: the matching
    /// base rows gathered at their scan ordinals, which the batch
    /// records in its ordinal column, under uniform tag columns.
    /// Emitting the batch unchanged is byte-identical to
    /// [`SourceIndex::probe_relation`].
    pub fn probe_batch(&self, probe: &Probe) -> ColumnBatch {
        ColumnBatch::gather(&self.base, self.probe_ordinals(probe))
    }

    /// The late-tagged base (a full-scan equivalent).
    pub fn base(&self) -> &BaseRelation {
        &self.base
    }
}

/// Does a key fall within optional bounds? (Total-order comparison —
/// valid on the homogeneous domains eligibility enforces.)
fn within(key: &Value, lo: &Option<Bound>, hi: &Option<Bound>) -> bool {
    if let Some(b) = lo {
        if key < &b.value || (!b.inclusive && key == &b.value) {
            return false;
        }
    }
    if let Some(b) = hi {
        if key > &b.value || (!b.inclusive && key == &b.value) {
            return false;
        }
    }
    true
}

/// The set of indexes one federation state offers, keyed by
/// `(source, relation, column)`. Immutable, like the snapshots that own
/// it; see [`IndexCatalog::rebuilt_for_source`] for maintenance.
#[derive(Debug, Clone, Default)]
pub struct IndexCatalog {
    map: HashMap<(String, String, String), Arc<SourceIndex>>,
}

impl IndexCatalog {
    /// A catalog with no indexes (every lookup misses — plans scan).
    pub fn empty() -> Self {
        IndexCatalog::default()
    }

    /// Build every declared index against the current federation state.
    /// Declaring two indexes on the same column keeps the later one.
    pub fn build(
        specs: &[IndexSpec],
        registry: &LqpRegistry,
        dictionary: &DataDictionary,
    ) -> Result<Self, IndexError> {
        let mut map = HashMap::with_capacity(specs.len());
        for spec in specs {
            let key = (
                spec.source.clone(),
                spec.relation.clone(),
                spec.column.clone(),
            );
            map.insert(
                key,
                Arc::new(SourceIndex::build(spec.clone(), registry, dictionary)?),
            );
        }
        Ok(IndexCatalog { map })
    }

    /// The index on `source.relation.column`, if declared.
    pub fn lookup(&self, source: &str, relation: &str, column: &str) -> Option<&Arc<SourceIndex>> {
        self.map
            .get(&(source.to_string(), relation.to_string(), column.to_string()))
    }

    /// Every declaration, sorted for deterministic display.
    pub fn specs(&self) -> Vec<IndexSpec> {
        let mut specs: Vec<IndexSpec> = self.map.values().map(|i| i.spec.clone()).collect();
        specs.sort();
        specs
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Derive the successor catalog after `source` was updated: that
    /// source's indexes are rebuilt against the new registry state,
    /// every other source's are re-pointed by `Arc`. An index whose
    /// relation or column no longer exists is dropped (the planner
    /// falls back to scans for it) rather than failing the update.
    pub fn rebuilt_for_source(
        &self,
        source: &str,
        registry: &LqpRegistry,
        dictionary: &DataDictionary,
    ) -> IndexCatalog {
        let mut map = HashMap::with_capacity(self.map.len());
        for (key, index) in &self.map {
            if key.0 == source {
                if let Ok(rebuilt) = SourceIndex::build(index.spec.clone(), registry, dictionary) {
                    map.insert(key.clone(), Arc::new(rebuilt));
                }
            } else {
                map.insert(key.clone(), Arc::clone(index));
            }
        }
        IndexCatalog { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_catalog::scenario;
    use polygen_lqp::scenario_registry;

    fn mit() -> (LqpRegistry, DataDictionary) {
        let s = scenario::build();
        (scenario_registry(&s), s.dictionary.clone())
    }

    /// The full-scan reference a probe must reproduce: run the select at
    /// the LQP and tag the result, exactly as the executor's Scan does.
    fn scan_reference(
        registry: &LqpRegistry,
        dictionary: &DataDictionary,
        db: &str,
        rel: &str,
        col: &str,
        cmp: Cmp,
        v: Value,
    ) -> PolygenRelation {
        registry
            .execute_tagged(db, &LocalOp::select(rel, col, cmp, v), dictionary)
            .unwrap()
    }

    #[test]
    fn hash_point_probe_is_byte_identical_to_scan() {
        let (reg, dict) = mit();
        let idx = SourceIndex::build(IndexSpec::hash("AD", "ALUMNUS", "DEG"), &reg, &dict).unwrap();
        assert!(idx.raw_faithful());
        assert_eq!(idx.key_type(), Some("string"));
        for deg in ["MBA", "MS", "PhD", "NOPE"] {
            let probed = idx.probe_relation(&Probe::Point(Value::str(deg)));
            let scanned = scan_reference(
                &reg,
                &dict,
                "AD",
                "ALUMNUS",
                "DEG",
                Cmp::Eq,
                Value::str(deg),
            );
            assert_eq!(
                probed.tuples(),
                scanned.tuples(),
                "probe for {deg} must be byte-identical, order included"
            );
        }
    }

    #[test]
    fn batch_probe_is_byte_identical_to_relation_probe() {
        let (reg, dict) = mit();
        let idx = SourceIndex::build(IndexSpec::hash("AD", "ALUMNUS", "DEG"), &reg, &dict).unwrap();
        for deg in ["MBA", "MS", "PhD", "NOPE"] {
            let probe = Probe::Point(Value::str(deg));
            let batch = idx.probe_batch(&probe);
            assert_eq!(batch.ordinals(), idx.probe_ordinals(&probe).as_slice());
            assert_eq!(
                batch.into_relation().tuples(),
                idx.probe_relation(&probe).tuples(),
                "batch probe for {deg} must be byte-identical to the relation probe"
            );
        }
    }

    #[test]
    fn sorted_range_probe_matches_scan_for_every_theta() {
        let (reg, dict) = mit();
        let idx =
            SourceIndex::build(IndexSpec::sorted("AD", "CAREER", "BNAME"), &reg, &dict).unwrap();
        assert_eq!(idx.key_type(), Some("string"));
        for cmp in [Cmp::Eq, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            for name in ["Citicorp", "Genentech", "IBM", "Aaa", "Zzz"] {
                let probe = Interval::from_predicate(cmp, &Value::str(name))
                    .unwrap()
                    .into_probe()
                    .unwrap();
                let probed = idx.probe_relation(&probe);
                let scanned =
                    scan_reference(&reg, &dict, "AD", "CAREER", "BNAME", cmp, Value::str(name));
                assert_eq!(probed.tuples(), scanned.tuples(), "{cmp} {name}");
            }
        }
    }

    #[test]
    fn interval_conjunction_probes_between() {
        let (reg, dict) = mit();
        let idx =
            SourceIndex::build(IndexSpec::sorted("AD", "CAREER", "BNAME"), &reg, &dict).unwrap();
        let between = Interval::from_predicate(Cmp::Ge, &Value::str("C"))
            .unwrap()
            .intersect(Interval::from_predicate(Cmp::Le, &Value::str("M")).unwrap());
        let probe = between.into_probe().unwrap();
        let probed = idx.probe_relation(&probe);
        // Reference: scan then filter the second conjunct by hand.
        let scanned = scan_reference(
            &reg,
            &dict,
            "AD",
            "CAREER",
            "BNAME",
            Cmp::Ge,
            Value::str("C"),
        );
        let ci = scanned.schema().index_of("BNAME").unwrap().0;
        let expect: Vec<_> = scanned
            .tuples()
            .iter()
            .filter(|t| t[ci].datum.satisfies(Cmp::Le, &Value::str("M")))
            .cloned()
            .collect();
        assert!(!probed.is_empty());
        assert_eq!(probed.tuples(), expect.as_slice());
        assert_eq!(probe.render("BNAME"), "C <= BNAME <= M");
    }

    #[test]
    fn interval_point_detection_and_tightening() {
        let eq = Interval::from_predicate(Cmp::Eq, &Value::int(5)).unwrap();
        assert!(eq.is_point());
        assert_eq!(eq.clone().into_probe(), Some(Probe::Point(Value::int(5))));
        // Ge 5 ∧ Le 5 pinches to the point.
        let pinched = Interval::from_predicate(Cmp::Ge, &Value::int(5))
            .unwrap()
            .intersect(Interval::from_predicate(Cmp::Le, &Value::int(5)).unwrap());
        assert!(pinched.is_point());
        // Gt 5 ∧ Le 5: exclusive wins on the tie — not a point, empty.
        let empty = Interval::from_predicate(Cmp::Gt, &Value::int(5))
            .unwrap()
            .intersect(Interval::from_predicate(Cmp::Le, &Value::int(5)).unwrap());
        assert!(!empty.is_point());
        // Ne is not sargable; an unbounded interval has no probe.
        assert!(Interval::from_predicate(Cmp::Ne, &Value::int(5)).is_none());
        assert!(Interval::full().into_probe().is_none());
    }

    #[test]
    fn domain_rule_breaks_raw_faithfulness() {
        // CD.FIRM.HQ carries the LastCommaToken rule ("Armonk, NY" →
        // "NY"): raw predicates may not be probed against mapped keys.
        let (reg, dict) = mit();
        let hq = SourceIndex::build(IndexSpec::hash("CD", "FIRM", "HQ"), &reg, &dict).unwrap();
        assert!(!hq.raw_faithful());
        // An untouched column on the same relation stays faithful.
        let fname =
            SourceIndex::build(IndexSpec::hash("CD", "FIRM", "FNAME"), &reg, &dict).unwrap();
        assert!(fname.raw_faithful());
    }

    #[test]
    fn mixed_or_nil_columns_admit_no_literal() {
        use polygen_flat::relation::Relation;
        use polygen_lqp::memory::InMemoryLqp;
        let rel = Relation::build("T", &["K", "N"])
            .vrow(vec![Value::int(1), Value::Null])
            .vrow(vec![Value::str("two"), Value::int(2)])
            .finish()
            .unwrap();
        let registry = LqpRegistry::new();
        registry.register(Arc::new(InMemoryLqp::new("X", vec![rel])));
        let mut dict = DataDictionary::new();
        dict.intern_source("X");
        let mixed = SourceIndex::build(IndexSpec::hash("X", "T", "K"), &registry, &dict).unwrap();
        assert_eq!(mixed.key_type(), None);
        assert!(!mixed.admits_literal(&Value::int(1)));
        let nilled = SourceIndex::build(IndexSpec::hash("X", "T", "N"), &registry, &dict).unwrap();
        assert!(!nilled.admits_literal(&Value::Null));
        assert!(!nilled.admits_literal(&Value::int(2)));
    }

    #[test]
    fn catalog_rebuild_shares_untouched_sources() {
        let (reg, dict) = mit();
        let specs = vec![
            IndexSpec::hash("AD", "ALUMNUS", "DEG"),
            IndexSpec::sorted("CD", "FIRM", "FNAME"),
        ];
        let catalog = IndexCatalog::build(&specs, &reg, &dict).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.specs(), {
            let mut s = specs.clone();
            s.sort();
            s
        });
        let rebuilt = catalog.rebuilt_for_source("CD", &reg, &dict);
        let ad_before = catalog.lookup("AD", "ALUMNUS", "DEG").unwrap();
        let ad_after = rebuilt.lookup("AD", "ALUMNUS", "DEG").unwrap();
        assert!(Arc::ptr_eq(ad_before, ad_after), "AD re-pointed by Arc");
        let cd_before = catalog.lookup("CD", "FIRM", "FNAME").unwrap();
        let cd_after = rebuilt.lookup("CD", "FIRM", "FNAME").unwrap();
        assert!(!Arc::ptr_eq(cd_before, cd_after), "CD rebuilt");
    }

    #[test]
    fn rebuild_drops_vanished_relations() {
        use polygen_flat::relation::Relation;
        use polygen_lqp::memory::InMemoryLqp;
        let (reg, dict) = mit();
        let catalog =
            IndexCatalog::build(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")], &reg, &dict).unwrap();
        // AD is replaced by an LQP without ALUMNUS.
        let other = Relation::build("OTHER", &["X"])
            .vrow(vec![Value::int(1)])
            .finish()
            .unwrap();
        reg.register(Arc::new(InMemoryLqp::new("AD", vec![other])));
        let rebuilt = catalog.rebuilt_for_source("AD", &reg, &dict);
        assert!(rebuilt.is_empty(), "vanished relation drops its index");
    }

    #[test]
    fn build_errors_surface() {
        let (reg, dict) = mit();
        assert!(matches!(
            SourceIndex::build(IndexSpec::hash("XX", "T", "C"), &reg, &dict),
            Err(IndexError::UnknownSource(_))
        ));
        assert!(SourceIndex::build(IndexSpec::hash("AD", "NOPE", "C"), &reg, &dict).is_err());
        assert!(SourceIndex::build(IndexSpec::hash("AD", "ALUMNUS", "NOPE"), &reg, &dict).is_err());
        let e = IndexError::UnknownSource("XX".into());
        assert!(e.to_string().contains("XX"));
    }
}
