//! The plan executor.
//!
//! [`execute`] lowers the IOM through the physical-plan layer
//! ([`crate::plan`]) and walks the resulting operator DAG: scans run at
//! the LQPs and come back *late-tagged* (the LQP's rows plus one source
//! id — see [`polygen_core::base`]), fused Select/Restrict/Project
//! stages run columnar over a leaf or stream `Arc`-shared tuples in
//! place, equi-joins run as single-pass hash joins with the join-column
//! coalesce fused into the emit, and Merge runs as the k-way single-pass
//! hash merge — both reading leaves in place, so a base cell is first
//! built when a kernel writes it into its output. Only pipeline breakers
//! (joins, merges, set operations) materialize relations; nothing else
//! is retained unless [`PqpOptions::retain_intermediates`] asks for the
//! full `R(n)` trace (the golden-table reproduction of §IV's Tables 4–9
//! does — on leaves tagged eagerly at the boundary, exactly as the
//! paper prints them).
//!
//! The paper-faithful row-by-row interpreter survives as
//! [`execute_eager`]: it materializes every `R(n)` eagerly with the
//! reference algebra, and the physical engine is differential-tested
//! against it (`tests/properties_executor.rs`).
//!
//! ## Attribute-name resolution
//!
//! The paper freely mixes polygen and local attribute namespaces: Table
//! 3's row 8 joins `R(3)` — whose physical column is `BNAME` from the raw
//! CAREER retrieve — "on ONAME". Resolution happens once, at lowering
//! time, against planned schemas (see [`crate::plan::resolve_in_schema`]);
//! the eager interpreter resolves identically at run time.

use crate::error::PqpError;
use crate::iom::{ExecLoc, Iom, IomRow};
use crate::plan::{self, PhysOp, PhysicalPlan, StageKind};
use crate::pom::{Op, RelRef, Rha};
use crate::pqp::PqpOptions;
use polygen_catalog::dictionary::DataDictionary;
use polygen_core::algebra::{self, coalesce::ConflictPolicy};
use polygen_core::base::BaseRelation;
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_core::stream::{concat_streams, scoped_map, ParallelOptions, Partitioner, TupleStream};
use polygen_flat::schema::Schema;
use polygen_flat::value::Cmp;
use polygen_index::IndexCatalog;
use polygen_lqp::engine::LocalOp;
use polygen_lqp::registry::LqpRegistry;
use polygen_obs::trace::{Note, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Inputs smaller than this stay on the sequential path even when the
/// options ask for parallelism: below a few dozen tuples the scoped
/// thread spawns cost more than the work they split. Correctness never
/// depends on the threshold — the parallel kernels are byte-identical to
/// the sequential ones.
const PARALLEL_MIN_TUPLES: usize = 32;

/// The per-row results of one execution — the golden tests read Tables
/// 4–9 out of this (with [`PqpOptions::retain_intermediates`] set).
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// `R(n)` → materialized relation: every row when retention is on,
    /// only the final row otherwise.
    pub results: BTreeMap<usize, PolygenRelation>,
}

impl ExecutionTrace {
    /// The relation computed by row `n`.
    pub fn result(&self, n: usize) -> Option<&PolygenRelation> {
        self.results.get(&n)
    }
}

/// Resolve an IOM attribute name against a relation's actual columns.
/// Delegates to the planner's schema-level resolver so the eager and
/// physical engines can never disagree on resolution.
pub fn resolve_attr(
    rel: &PolygenRelation,
    attr: &str,
    dictionary: &DataDictionary,
) -> Result<String, PqpError> {
    plan::resolve_in_schema(rel.schema(), attr, dictionary)
}

/// Execute an IOM on the physical-plan engine; returns the final
/// relation and the trace (see [`PqpOptions::retain_intermediates`]).
pub fn execute(
    iom: &Iom,
    registry: &LqpRegistry,
    dictionary: &DataDictionary,
    options: &PqpOptions,
) -> Result<(PolygenRelation, ExecutionTrace), PqpError> {
    let plan = plan::lower(iom, registry, dictionary, options)?;
    let trace = Trace::disabled();
    execute_plan(&plan, registry, dictionary, None, options, &trace)
}

/// Run one fused pipeline stage in place.
fn apply_stage(s: &mut TupleStream, kind: &StageKind) -> Result<(), PqpError> {
    match kind {
        StageKind::Select { attr, cmp, value } => s.select(attr, *cmp, value)?,
        StageKind::Restrict { x, cmp, y } => s.restrict(x, *cmp, y)?,
        StageKind::Project { cols, output } => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            s.project(&refs)?;
            if output != cols {
                let names: Vec<&str> = output.iter().map(String::as_str).collect();
                s.rename(&names)?;
            }
        }
    }
    Ok(())
}

/// What a node hands its consumers. Leaves (Scan/IndexScan) stay
/// late-tagged [`Slot::Leaf`]s — cloning one is a few pointer copies, so
/// any number of consumers may take it: a pipeline lifts it into a
/// `ColumnBatch` with uniform tag columns, hash joins and merges read it
/// in place, and everything else materializes it. Every interior node
/// (and, in retention mode, every leaf) flows as a [`Slot::Stream`] of
/// `Arc`-shared tuples.
#[derive(Clone)]
enum Slot {
    Leaf(BaseRelation),
    Stream(TupleStream),
}

impl Slot {
    fn schema(&self) -> &Arc<Schema> {
        match self {
            Slot::Leaf(b) => b.schema(),
            Slot::Stream(s) => s.schema(),
        }
    }

    /// Surviving tuples in the slot (what the node emitted).
    fn len(&self) -> usize {
        match self {
            Slot::Leaf(b) => b.len(),
            Slot::Stream(s) => s.len(),
        }
    }

    fn as_leaf(&self) -> Option<&BaseRelation> {
        match self {
            Slot::Leaf(b) => Some(b),
            Slot::Stream(_) => None,
        }
    }

    fn into_relation(self) -> PolygenRelation {
        match self {
            Slot::Leaf(b) => b.materialize(),
            Slot::Stream(s) => s.into_relation(),
        }
    }

    fn to_relation(&self) -> PolygenRelation {
        match self {
            Slot::Leaf(b) => b.materialize(),
            Slot::Stream(s) => s.to_relation(),
        }
    }

    fn into_stream(self) -> TupleStream {
        match self {
            Slot::Leaf(b) => TupleStream::from_relation(b.materialize()),
            Slot::Stream(s) => s,
        }
    }
}

/// Run a batch-eligible stage chain on the columnar kernels. Returns
/// whether a Project ran, in which case emission must collapse
/// duplicates ([`batch_pipeline`] defers that to its emission so chunked
/// runs collapse once, globally).
fn run_batch_stages(batch: &mut ColumnBatch, stages: &[plan::Stage]) -> Result<bool, PqpError> {
    let mut projected = false;
    for stage in stages {
        match &stage.kind {
            StageKind::Select { attr, cmp, value } => batch.select(attr, *cmp, value)?,
            StageKind::Restrict { x, cmp, y } => batch.restrict(x, *cmp, y)?,
            StageKind::Project { cols, output } => {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                batch.project(&refs)?;
                if output != cols {
                    let names: Vec<&str> = output.iter().map(String::as_str).collect();
                    batch.rename(&names)?;
                }
                projected = true;
            }
        }
    }
    Ok(projected)
}

/// What a kernel over `tuples` input rows runs under: `par` when the
/// options ask for parallelism *and* the input clears
/// [`PARALLEL_MIN_TUPLES`], serial otherwise. The partitioned kernels
/// may still decline (and report it), so spans annotate from the kernel.
fn fan_out(par: ParallelOptions, tuples: usize) -> ParallelOptions {
    if par.is_parallel() && tuples >= PARALLEL_MIN_TUPLES {
        par
    } else {
        ParallelOptions::serial()
    }
}

/// The columnar pipeline over a leaf: chunk the row ordinals
/// contiguously, gather and run the batch kernels per chunk on scoped
/// workers, and splice the emissions back in chunk order before a single
/// global duplicate collapse — byte-identical to the row walk. Serial,
/// the one chunk is every ordinal and runs inline.
fn batch_pipeline(
    base: &BaseRelation,
    stages: &[plan::Stage],
    par: ParallelOptions,
) -> Result<TupleStream, PqpError> {
    let rows = u32::try_from(base.len()).expect("batch rows fit the u32 selection vector");
    let chunks = Partitioner::new(par.partitions).chunk_vec((0..rows).collect());
    let processed = scoped_map(chunks, par.threads, |_, chunk| {
        let mut batch = ColumnBatch::gather(base, chunk);
        let projected = run_batch_stages(&mut batch, stages)?;
        Ok::<_, PqpError>((batch.into_relation(), projected))
    });
    let mut processed = processed.into_iter();
    let (mut out, projected) = processed.next().expect("chunk_vec yields a chunk")?;
    for p in processed {
        out.tuples_mut().extend(p?.0.into_tuples());
    }
    if projected {
        out.merge_duplicates();
    }
    Ok(TupleStream::from_relation(out))
}

/// The span-site name of one physical operator (static: a disabled
/// trace must not pay for name formatting).
fn op_span_name(op: &PhysOp) -> &'static str {
    match op {
        PhysOp::Scan { .. } => "exec/Scan",
        PhysOp::IndexScan { .. } => "exec/IndexScan",
        PhysOp::Pipeline { .. } => "exec/Pipeline",
        PhysOp::HashJoin { .. } => "exec/HashJoin",
        PhysOp::ThetaJoin { .. } => "exec/ThetaJoin",
        PhysOp::HashMerge { .. } => "exec/HashMerge",
        PhysOp::AntiJoin { .. } => "exec/AntiJoin",
        PhysOp::Union { .. } => "exec/Union",
        PhysOp::Difference { .. } => "exec/Difference",
        PhysOp::Intersect { .. } => "exec/Intersect",
        PhysOp::Product { .. } => "exec/Product",
    }
}

/// Walk a lowered physical plan, probing `indexes` for the plan's
/// [`PhysOp::IndexScan`] leaves (`None` serves plans that have none).
/// The catalog must be the one the plan was routed against (in the
/// serving layer, the owning snapshot's): executing a routed plan
/// without it fails loudly rather than silently re-scanning. An enabled
/// `trace` records one span per physical node — operator kind, output
/// rows, which kernel (batch vs row) a pipeline took, and the partition
/// count when a kernel ran partitioned. Spans observe, never steer.
pub fn execute_plan(
    plan: &PhysicalPlan,
    registry: &LqpRegistry,
    dictionary: &DataDictionary,
    indexes: Option<&IndexCatalog>,
    options: &PqpOptions,
    trace: &Trace,
) -> Result<(PolygenRelation, ExecutionTrace), PqpError> {
    let n = plan.nodes.len();
    let par = options.parallelism();
    // Remaining consumers per node; the last consumer takes the slot,
    // earlier ones clone it (Arc bumps — a leaf's rows and a stream's
    // tuples stay shared, and the stage kernels copy-on-write).
    let mut remaining = vec![0usize; n];
    for node in &plan.nodes {
        for i in node.op.inputs() {
            remaining[i] += 1;
        }
    }
    remaining[plan.root] += 1;
    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();
    let mut results: BTreeMap<usize, PolygenRelation> = BTreeMap::new();
    let take = |slots: &mut Vec<Option<Slot>>, remaining: &mut Vec<usize>, i: usize| {
        remaining[i] -= 1;
        if remaining[i] == 0 {
            slots[i].take().expect("plan is topologically ordered")
        } else {
            slots[i].clone().expect("plan is topologically ordered")
        }
    };
    // Retention mode tags leaves eagerly at the boundary (the golden
    // tables print them so) and records everything stream-wise;
    // production leaves stay late-tagged.
    let leaf = |base: BaseRelation| {
        if options.retain_intermediates {
            Slot::Stream(TupleStream::from_relation(base.materialize()))
        } else {
            Slot::Leaf(base)
        }
    };
    for (i, node) in plan.nodes.iter().enumerate() {
        let span = trace.begin(op_span_name(&node.op));
        // The partition count this node's kernel actually ran at.
        let mut fanned = 1;
        let slot = match &node.op {
            PhysOp::Scan { db, op } => leaf(registry.scan(db, op, dictionary)?),
            PhysOp::IndexScan {
                db,
                relation,
                column,
                probe,
                ..
            } => {
                let catalog = indexes.ok_or_else(|| PqpError::MalformedRow {
                    row: node.row,
                    reason: format!(
                        "plan probes an index on {db}.{relation}.{column} but no index \
                         catalog was supplied; execute with the catalog the plan was \
                         routed against, or recompile without indexes"
                    ),
                })?;
                let index =
                    catalog
                        .lookup(db, relation, column)
                        .ok_or_else(|| PqpError::MalformedRow {
                            row: node.row,
                            reason: format!(
                                "stale routed plan: the catalog no longer indexes \
                             {db}.{relation}.{column}; recompile against the current catalog"
                            ),
                        })?;
                leaf(index.probe_base(probe))
            }
            PhysOp::Pipeline { input, stages } => {
                // The plan says which kernel runs: a batch pipeline
                // (eligible stages over a leaf) takes the ColumnBatch
                // kernels with late tag materialization, everything
                // else the row walk below. Retention mode has no
                // late-tagged leaves and records per-stage tables, so
                // its slots are never `Leaf` and it always walks rows.
                match take(&mut slots, &mut remaining, *input) {
                    Slot::Leaf(base) if plan.is_batch_pipeline(i) => {
                        if !span.is_none() {
                            trace.annotate(span, "kernel", Note::str("batch"));
                        }
                        let run = fan_out(par, base.len());
                        fanned = run.partitions;
                        Slot::Stream(batch_pipeline(&base, stages, run)?)
                    }
                    input_slot => {
                        if !span.is_none() {
                            trace.annotate(span, "kernel", Note::str("row"));
                        }
                        // Tuple-local prefix (cut at the first Project, whose
                        // duplicate collapse is a whole-stream operation), then
                        // the rest on the much smaller stream. Retention mode
                        // records every stage, so it keeps the all-stream walk.
                        let cut = if options.retain_intermediates {
                            0
                        } else {
                            stages
                                .iter()
                                .position(|st| matches!(st.kind, StageKind::Project { .. }))
                                .unwrap_or(stages.len())
                        };
                        let (prefix, rest) = stages.split_at(cut);
                        let mut s = input_slot.into_stream();
                        if !prefix.is_empty() {
                            // Chunk-parallel prefix over shared tuples:
                            // contiguous chunks run on scoped workers and
                            // concatenate back in input order —
                            // byte-identical to the sequential walk, which
                            // is the one-chunk case run inline.
                            let run = fan_out(par, s.len());
                            fanned = run.partitions;
                            let chunks = Partitioner::new(run.partitions).chunk_stream(s);
                            let processed = scoped_map(chunks, run.threads, |_, mut chunk| {
                                for stage in prefix {
                                    apply_stage(&mut chunk, &stage.kind)?;
                                }
                                Ok::<_, PqpError>(chunk)
                            });
                            let parts = processed.into_iter().collect::<Result<Vec<_>, _>>()?;
                            s = concat_streams(parts).expect("at least one chunk");
                        }
                        for stage in rest {
                            apply_stage(&mut s, &stage.kind)?;
                            // Per-stage retention keeps the trace complete even
                            // when the caller hands us a *fused* plan.
                            if options.retain_intermediates {
                                results.insert(stage.row, s.to_relation());
                            }
                        }
                        Slot::Stream(s)
                    }
                }
            }
            PhysOp::HashJoin {
                left,
                right,
                x,
                y,
                out,
            } => {
                // Leaves are read in place; anything else is already a
                // tagged stream.
                let l = take(&mut slots, &mut remaining, *left);
                let r = take(&mut slots, &mut remaining, *right);
                let run = fan_out(par, l.len() + r.len());
                use algebra::hash_equi_join_coalesced_partitioned as join;
                let (joined, used) = match (l, r) {
                    (Slot::Leaf(l), Slot::Leaf(r)) => join(&l, &r, x, y, out, run)?,
                    (Slot::Leaf(l), r) => join(&l, &r.into_relation(), x, y, out, run)?,
                    (l, Slot::Leaf(r)) => join(&l.into_relation(), &r, x, y, out, run)?,
                    (l, r) => join(&l.into_relation(), &r.into_relation(), x, y, out, run)?,
                };
                fanned = used;
                Slot::Stream(TupleStream::from_relation(joined))
            }
            PhysOp::ThetaJoin {
                left,
                right,
                x,
                cmp,
                y,
            } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::theta_join(
                    &l, &r, x, *cmp, y,
                )?))
            }
            PhysOp::HashMerge {
                inputs,
                key,
                relabels,
                ..
            } => {
                let taken: Vec<Slot> = inputs
                    .iter()
                    .map(|&idx| take(&mut slots, &mut remaining, idx))
                    .collect();
                let run = fan_out(par, taken.iter().map(Slot::len).sum());
                let policy = options.conflict_policy;
                let names = |k: usize| relabels[k].iter().map(String::as_str).collect::<Vec<_>>();
                // Relabeling is a schema swap on either carrier — no
                // cell copies. Merge operands are always leaves, so in
                // production they are read in place.
                let leaves: Option<Vec<&BaseRelation>> = taken.iter().map(Slot::as_leaf).collect();
                let (merged, _conflicts, used) = match leaves {
                    Some(leaves) => {
                        let operands = leaves
                            .iter()
                            .enumerate()
                            .map(|(k, b)| b.rename_attrs(&names(k)))
                            .collect::<Result<Vec<_>, _>>()?;
                        algebra::hash_merge_partitioned(&operands, key, policy, run)?
                    }
                    None => {
                        let operands = taken
                            .into_iter()
                            .enumerate()
                            .map(|(k, slot)| slot.into_relation().into_renamed_attrs(&names(k)))
                            .collect::<Result<Vec<_>, _>>()?;
                        algebra::hash_merge_partitioned(&operands, key, policy, run)?
                    }
                };
                fanned = used;
                Slot::Stream(TupleStream::from_relation(merged))
            }
            PhysOp::AntiJoin { left, right, x, y } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::anti_join(
                    &l, &r, x, y,
                )?))
            }
            PhysOp::Union { left, right } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::union(&l, &r)?))
            }
            PhysOp::Difference { left, right } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::difference(&l, &r)?))
            }
            PhysOp::Intersect { left, right } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::intersect(&l, &r)?))
            }
            PhysOp::Product { left, right } => {
                let l = take(&mut slots, &mut remaining, *left).into_relation();
                let r = take(&mut slots, &mut remaining, *right).into_relation();
                Slot::Stream(TupleStream::from_relation(algebra::product(&l, &r)?))
            }
        };
        if !span.is_none() {
            trace.annotate(span, "node", Note::Uint(i as u64));
            trace.annotate(span, "row", Note::Uint(node.row as u64));
            trace.annotate(span, "rows", Note::Uint(slot.len() as u64));
            // The plan carries no fan-out, so this note is the only
            // record of it: `fan_out` chose it from the input size and
            // the kernel may have declined (EXPLAIN ANALYZE shows `xP`).
            if fanned > 1 {
                trace.annotate(span, "partitions", Note::Uint(fanned as u64));
            }
            trace.end(span);
        }
        // Planned and runtime schemas are identical by construction, but
        // the LQP registry has interior mutability: re-registering an LQP
        // between compile and run would make the baked plan stale. Fail
        // loudly instead of applying resolved columns to the wrong shape.
        if slot.schema().as_ref() != node.schema.as_ref() {
            return Err(PqpError::MalformedRow {
                row: node.row,
                reason: format!(
                    "stale physical plan at node #{i}: planned schema {:?} diverges from \
                     runtime schema {:?}; recompile after registry changes",
                    node.schema.attrs(),
                    slot.schema().attrs()
                ),
            });
        }
        // Pipelines already recorded themselves stage by stage (the last
        // stage's row IS node.row) — don't materialize a second copy.
        if options.retain_intermediates && !matches!(node.op, PhysOp::Pipeline { .. }) {
            results.insert(node.row, slot.to_relation());
        }
        slots[i] = Some(slot);
    }
    let root = &plan.nodes[plan.root];
    let answer = slots[plan.root]
        .take()
        .expect("root evaluated")
        .into_relation();
    results.entry(root.row).or_insert_with(|| answer.clone());
    Ok((answer, ExecutionTrace { results }))
}

// ---------------------------------------------------------------------
// The eager reference interpreter — the paper's row-by-row execution,
// kept as the semantics the physical engine is differential-tested
// against.
// ---------------------------------------------------------------------

struct Executor<'a> {
    registry: &'a LqpRegistry,
    dictionary: &'a DataDictionary,
    conflict_policy: ConflictPolicy,
    /// R(n) → relation.
    env: BTreeMap<usize, PolygenRelation>,
    /// R(n) → (db, local relation) for base retrieves (Merge relabeling).
    base_meta: BTreeMap<usize, (String, String)>,
    /// R(n) → coalesced-name aliases. An equi-join coalesces its two join
    /// columns into one named after the *right* attribute (the paper's
    /// Table 5/7 presentation); the left attribute's name would otherwise
    /// become unreferenceable, so each result records `old name → current
    /// column` for downstream rows.
    aliases: BTreeMap<usize, std::collections::HashMap<String, String>>,
}

type AliasMap = std::collections::HashMap<String, String>;

impl Executor<'_> {
    fn rel(&self, r: &RelRef, row: usize) -> Result<&PolygenRelation, PqpError> {
        match r {
            RelRef::Derived(i) => self.env.get(i).ok_or(PqpError::DanglingReference(*i)),
            _ => Err(PqpError::MalformedRow {
                row,
                reason: format!("expected a derived relation, found `{r}`"),
            }),
        }
    }

    /// The alias map of an input relation (empty for non-derived inputs).
    fn alias_map(&self, r: &RelRef) -> AliasMap {
        match r {
            RelRef::Derived(i) => self.aliases.get(i).cloned().unwrap_or_default(),
            _ => AliasMap::new(),
        }
    }

    /// Resolve an attribute against a relation: exact column, then the
    /// input's coalesced-name aliases, then the schema candidates.
    fn resolve(&self, src: &RelRef, rel: &PolygenRelation, attr: &str) -> Result<String, PqpError> {
        if rel.schema().contains(attr) {
            return Ok(attr.to_string());
        }
        if let RelRef::Derived(i) = src {
            if let Some(m) = self.aliases.get(i) {
                if let Some(col) = m.get(attr) {
                    if rel.schema().contains(col) {
                        return Ok(col.clone());
                    }
                }
            }
        }
        resolve_attr(rel, attr, self.dictionary)
    }

    /// Keep only alias entries whose target column still exists.
    fn retain_valid(mut aliases: AliasMap, rel: &PolygenRelation) -> AliasMap {
        aliases.retain(|_, col| rel.schema().contains(col));
        aliases
    }

    fn single_attr<'b>(&self, row: &'b IomRow) -> Result<&'b str, PqpError> {
        row.lha
            .first()
            .map(String::as_str)
            .ok_or(PqpError::MalformedRow {
                row: row.pr,
                reason: "operation requires a left-hand attribute".into(),
            })
    }

    fn theta(&self, row: &IomRow) -> Cmp {
        row.theta.unwrap_or(Cmp::Eq)
    }

    fn execute_lqp_row(&mut self, row: &IomRow, db: &str) -> Result<PolygenRelation, PqpError> {
        let RelRef::Named(local_rel) = &row.lhr else {
            return Err(PqpError::MalformedRow {
                row: row.pr,
                reason: "LQP row requires a named local relation".into(),
            });
        };
        let op = match row.op {
            Op::Retrieve => LocalOp::retrieve(local_rel),
            Op::Select => {
                let attr = self.single_attr(row)?;
                let Rha::Const(v) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Select requires a constant RHA".into(),
                    });
                };
                LocalOp::select(local_rel, attr, self.theta(row), v.clone())
            }
            Op::Restrict => {
                let x = self.single_attr(row)?;
                let Rha::Attr(y) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Restrict requires an attribute RHA".into(),
                    });
                };
                LocalOp::restrict(local_rel, x, self.theta(row), y)
            }
            Op::Project => {
                let attrs: Vec<&str> = row.lha.iter().map(String::as_str).collect();
                LocalOp::retrieve(local_rel).with_projection(&attrs)
            }
            other => {
                return Err(PqpError::MalformedRow {
                    row: row.pr,
                    reason: format!("operation `{other}` cannot execute at an LQP"),
                })
            }
        };
        let tagged = self.registry.execute_tagged(db, &op, self.dictionary)?;
        self.base_meta
            .insert(row.pr, (db.to_string(), local_rel.clone()));
        Ok(tagged)
    }

    fn execute_merge(&mut self, row: &IomRow) -> Result<PolygenRelation, PqpError> {
        let RelRef::DerivedList(inputs) = &row.lhr else {
            return Err(PqpError::MalformedRow {
                row: row.pr,
                reason: "Merge requires a derived-list LHR".into(),
            });
        };
        let scheme_name = row.scheme_ctx.as_deref().ok_or(PqpError::MalformedRow {
            row: row.pr,
            reason: "Merge requires a scheme context".into(),
        })?;
        let scheme = self
            .dictionary
            .schema()
            .scheme(scheme_name)
            .ok_or_else(|| PqpError::UnknownRelation(scheme_name.to_string()))?;
        let mut relabeled = Vec::with_capacity(inputs.len());
        for rid in inputs {
            let rel = self.env.get(rid).ok_or(PqpError::DanglingReference(*rid))?;
            let (db, local_rel) =
                self.base_meta
                    .get(rid)
                    .cloned()
                    .ok_or(PqpError::MalformedRow {
                        row: row.pr,
                        reason: format!("Merge input R({rid}) is not a base retrieve"),
                    })?;
            let cols: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
            let new_names = scheme.relabel_columns(&db, &local_rel, &cols);
            let refs: Vec<&str> = new_names.iter().map(String::as_str).collect();
            relabeled.push(rel.rename_attrs(&refs)?);
        }
        let (merged, _conflicts) = algebra::merge(&relabeled, scheme.key(), self.conflict_policy)?;
        Ok(merged)
    }

    fn execute_pqp_row(&mut self, row: &IomRow) -> Result<(PolygenRelation, AliasMap), PqpError> {
        match row.op {
            Op::Merge => Ok((self.execute_merge(row)?, AliasMap::new())),
            Op::Select => {
                let rel = self.rel(&row.lhr, row.pr)?.clone();
                let attr = self.resolve(&row.lhr, &rel, self.single_attr(row)?)?;
                let Rha::Const(v) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Select requires a constant RHA".into(),
                    });
                };
                let out = algebra::select(&rel, &attr, self.theta(row), v.clone())?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Restrict => {
                let rel = self.rel(&row.lhr, row.pr)?.clone();
                let x = self.resolve(&row.lhr, &rel, self.single_attr(row)?)?;
                let Rha::Attr(y) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Restrict requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&row.lhr, &rel, y)?;
                let out = algebra::restrict(&rel, &x, self.theta(row), &y)?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Project => {
                let rel = self.rel(&row.lhr, row.pr)?.clone();
                let attrs = row
                    .lha
                    .iter()
                    .map(|a| self.resolve(&row.lhr, &rel, a))
                    .collect::<Result<Vec<_>, _>>()?;
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let projected = algebra::project(&rel, &refs)?;
                // Present the columns under the names the query asked for
                // (an alias-resolved `CEO` should not surface as `ANAME`).
                let requested: Vec<&str> = row.lha.iter().map(String::as_str).collect();
                let out = if requested != refs {
                    projected.rename_attrs(&requested)?
                } else {
                    projected
                };
                Ok((out, AliasMap::new()))
            }
            Op::Join => {
                let left = self.rel(&row.lhr, row.pr)?.clone();
                let right = self.rel(&row.rhr, row.pr)?.clone();
                let x_raw = self.single_attr(row)?.to_string();
                let x = self.resolve(&row.lhr, &left, &x_raw)?;
                let Rha::Attr(y_raw) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Join requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&row.rhr, &right, y_raw)?;
                if self.theta(row) == Cmp::Eq {
                    // Equi-joins coalesce the two join columns into one
                    // named after the right side — how Tables 5 and 7 are
                    // printed. The left name lives on as an alias.
                    let out = algebra::equi_join_coalesced(&left, &right, &x, &y, &y)?;
                    let mut aliases = self.alias_map(&row.lhr);
                    aliases.extend(self.alias_map(&row.rhr));
                    let aliases = plan::equi_join_aliases(aliases, &x, x_raw, &y, y_raw);
                    let aliases = Self::retain_valid(aliases, &out);
                    Ok((out, aliases))
                } else {
                    let out = algebra::theta_join(&left, &right, &x, self.theta(row), &y)?;
                    let mut aliases = self.alias_map(&row.lhr);
                    aliases.extend(self.alias_map(&row.rhr));
                    let aliases = Self::retain_valid(aliases, &out);
                    Ok((out, aliases))
                }
            }
            Op::AntiJoin => {
                let left = self.rel(&row.lhr, row.pr)?.clone();
                let right = self.rel(&row.rhr, row.pr)?.clone();
                let x = self.resolve(&row.lhr, &left, self.single_attr(row)?)?;
                let Rha::Attr(y_raw) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "AntiJoin requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&row.rhr, &right, y_raw)?;
                let out = algebra::anti_join(&left, &right, &x, &y)?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Union => {
                let left = self.rel(&row.lhr, row.pr)?;
                let right = self.rel(&row.rhr, row.pr)?;
                let out = algebra::union(left, right)?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Difference => {
                let left = self.rel(&row.lhr, row.pr)?;
                let right = self.rel(&row.rhr, row.pr)?;
                let out = algebra::difference(left, right)?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Intersect => {
                let left = self.rel(&row.lhr, row.pr)?;
                let right = self.rel(&row.rhr, row.pr)?;
                let out = algebra::intersect(left, right)?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Product => {
                let left = self.rel(&row.lhr, row.pr)?;
                let right = self.rel(&row.rhr, row.pr)?;
                let out = algebra::product(left, right)?;
                let mut aliases = self.alias_map(&row.lhr);
                aliases.extend(self.alias_map(&row.rhr));
                let aliases = Self::retain_valid(aliases, &out);
                Ok((out, aliases))
            }
            Op::Retrieve => Err(PqpError::MalformedRow {
                row: row.pr,
                reason: "Retrieve cannot execute at the PQP".into(),
            }),
        }
    }
}

/// Execute an IOM row by row with the eager reference algebra; returns
/// the final relation and the full per-row trace (always retained).
pub fn execute_eager(
    iom: &Iom,
    registry: &LqpRegistry,
    dictionary: &DataDictionary,
    options: &PqpOptions,
) -> Result<(PolygenRelation, ExecutionTrace), PqpError> {
    let mut ex = Executor {
        registry,
        dictionary,
        conflict_policy: options.conflict_policy,
        env: BTreeMap::new(),
        base_meta: BTreeMap::new(),
        aliases: BTreeMap::new(),
    };
    for row in &iom.rows {
        let result = match &row.el {
            ExecLoc::Lqp(db) => {
                let db = db.clone();
                ex.execute_lqp_row(row, &db)?
            }
            ExecLoc::Pqp => {
                let (result, aliases) = ex.execute_pqp_row(row)?;
                if !aliases.is_empty() {
                    ex.aliases.insert(row.pr, aliases);
                }
                result
            }
        };
        ex.env.insert(row.pr, result);
    }
    let final_rid = iom.final_result().ok_or(PqpError::MalformedRow {
        row: 0,
        reason: "empty IOM".into(),
    })?;
    let final_rel = ex
        .env
        .get(&final_rid)
        .cloned()
        .ok_or(PqpError::DanglingReference(final_rid))?;
    Ok((final_rel, ExecutionTrace { results: ex.env }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::interpreter::interpret;
    use polygen_catalog::scenario;
    use polygen_flat::value::Value;
    use polygen_lqp::scenario_registry;
    use polygen_sql::algebra_expr::parse_algebra;

    fn retained() -> PqpOptions {
        PqpOptions {
            retain_intermediates: true,
            ..PqpOptions::default()
        }
    }

    fn run(expr: &str) -> (PolygenRelation, ExecutionTrace) {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        execute(&iom, &registry, &s.dictionary, &retained()).unwrap()
    }

    #[test]
    fn lqp_select_produces_table4_shape() {
        let (rel, _) = run("PALUMNUS [DEGREE = \"MBA\"] [AID#, ANAME]");
        assert_eq!(rel.len(), 5);
        // Raw local names survive single-source execution.
        assert!(rel.schema().contains("AID#"));
        assert!(rel.schema().contains("ANAME"));
    }

    #[test]
    fn merge_then_select_on_polygen_names() {
        let (rel, _) = run("PORGANIZATION [INDUSTRY = \"Banking\"]");
        assert_eq!(rel.len(), 1);
        let row = &rel.tuples()[0];
        assert_eq!(row[0].datum, Value::str("Citicorp"));
    }

    #[test]
    fn final_answer_matches_table9_data() {
        let (rel, _) = run(polygen_sql::algebra_expr::PAPER_EXPRESSION);
        assert_eq!(rel.len(), 3);
        let strip = rel.strip();
        assert!(strip.contains(&[Value::str("Genentech"), Value::str("Bob Swanson")]));
        assert!(strip.contains(&[Value::str("Langley Castle"), Value::str("Stu Madnick")]));
        assert!(strip.contains(&[Value::str("Citicorp"), Value::str("John Reed")]));
    }

    #[test]
    fn trace_exposes_intermediate_tables_when_retained() {
        let (_, trace) = run(polygen_sql::algebra_expr::PAPER_EXPRESSION);
        assert_eq!(trace.results.len(), 10);
        // R(1) = Table 4 (5 MBA alumni), R(7) = Table 6 (12 organizations).
        assert_eq!(trace.result(1).unwrap().len(), 5);
        assert_eq!(trace.result(7).unwrap().len(), 12);
        assert_eq!(trace.result(10).unwrap().len(), 3);
    }

    #[test]
    fn fused_plan_retention_still_traces_every_row() {
        // A caller can hand execute_plan a *fused* plan and still ask for
        // retention: fused stages are captured stage by stage.
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom =
            analyze(&parse_algebra(polygen_sql::algebra_expr::PAPER_EXPRESSION).unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        let fused =
            crate::plan::lower(&iom, &registry, &s.dictionary, &PqpOptions::default()).unwrap();
        assert!(fused.fused_rows() > 0);
        let (_, trace) = execute_plan(
            &fused,
            &registry,
            &s.dictionary,
            None,
            &retained(),
            &Trace::disabled(),
        )
        .unwrap();
        assert_eq!(
            trace.results.len(),
            10,
            "R(9) captured from inside the pipeline"
        );
        assert_eq!(trace.result(9).unwrap().len(), 3);
    }

    #[test]
    fn production_trace_keeps_only_the_final_relation() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom =
            analyze(&parse_algebra(polygen_sql::algebra_expr::PAPER_EXPRESSION).unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        let (rel, trace) = execute(&iom, &registry, &s.dictionary, &PqpOptions::default()).unwrap();
        assert_eq!(trace.results.len(), 1);
        assert!(trace.result(10).unwrap().tagged_set_eq(&rel));
    }

    #[test]
    fn physical_engine_matches_eager_reference() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        for expr in [
            polygen_sql::algebra_expr::PAPER_EXPRESSION,
            "PORGANIZATION [INDUSTRY = \"Banking\"]",
            "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
            "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
            "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
            "PCAREER [AID# < AID#] PCAREER",
        ] {
            let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
            let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
            let (eager, eager_trace) =
                execute_eager(&iom, &registry, &s.dictionary, &PqpOptions::default()).unwrap();
            let (fast, fast_trace) = execute(&iom, &registry, &s.dictionary, &retained()).unwrap();
            assert!(eager.tagged_set_eq(&fast), "answers diverge for {expr}");
            assert_eq!(
                eager_trace.results.len(),
                fast_trace.results.len(),
                "trace shape diverges for {expr}"
            );
            for (pr, rel) in &eager_trace.results {
                assert!(
                    rel.tagged_set_eq(fast_trace.result(*pr).unwrap()),
                    "R({pr}) diverges for {expr}"
                );
            }
        }
    }

    #[test]
    fn threaded_options_produce_identical_results() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom =
            analyze(&parse_algebra(polygen_sql::algebra_expr::PAPER_EXPRESSION).unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        let at = |threads| PqpOptions::default().with_threads(threads);
        let (seq, _) = execute(&iom, &registry, &s.dictionary, &at(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let (parl, _) = execute(&iom, &registry, &s.dictionary, &at(threads)).unwrap();
            assert!(seq.tagged_set_eq(&parl), "threads = {threads}");
        }
        // Knob resolution: explicit values pass through, 0 resolves.
        assert_eq!(at(4).parallelism().partitions, 4);
        let auto = PqpOptions::default().parallelism();
        assert!(auto.threads >= 1);
    }

    #[test]
    fn union_and_difference_execute() {
        let (rel, _) = run("(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])");
        assert_eq!(rel.len(), 6);
        let (diff, _) = run("PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])");
        assert_eq!(diff.len(), 3);
    }

    #[test]
    fn antijoin_executes() {
        // Organizations with no finance record: only MIT and BP.
        let (rel, _) = run("(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]");
        let names = rel.strip();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&[Value::str("MIT")]));
        assert!(names.contains(&[Value::str("BP")]));
    }
}
