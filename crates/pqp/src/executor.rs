//! The plan executor.
//!
//! [`execute_plan`] walks the operator tree the physical-plan layer
//! ([`crate::plan`]) lowers an IOM to, running each node on the kernel
//! its [`Route`] names and handing its consumer what the route says —
//! the table on [`Route`] is the one statement of which kernel runs
//! where. Scans come back *late-tagged* (the LQP's rows plus one source
//! id — see [`polygen_core::base`]; a pushed-down select or an index
//! probe adds the ordinals of the rows it kept, and copies none), and
//! hash joins and merges read them in place, so a base cell is first
//! built when a kernel writes it into its output. A slot that does not
//! fit its consumer's route is [`PqpError::MalformedRow`], never a
//! panic. Nothing is retained: the walk returns the answer alone.
//!
//! The paper-faithful row-by-row interpreter survives as
//! [`execute_eager`]: it materializes every `R(n)` eagerly with the
//! reference algebra, on leaves tagged at the boundary exactly as the
//! paper prints them, and returns them all in an [`ExecutionTrace`] —
//! the golden-table reproduction of §IV's Tables 4–8 reads them there.
//! It is the order-exact reference the physical engine is
//! differential-tested against (`tests/properties_executor.rs`): every
//! prefix of an IOM, run on the physical engine, answers eager's `R(n)`
//! byte for byte.
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
use crate::plan::{self, AliasMap, PhysOp, PhysicalPlan, Route, StageKind};
use crate::pom::{Op, RelRef};
use crate::pqp::PqpOptions;
use polygen_catalog::dictionary::DataDictionary;
use polygen_core::algebra::join::equi_join_coalesced_schema;
use polygen_core::algebra::merge::merged_schema;
use polygen_core::algebra::{self, coalesce::ConflictPolicy, MergedView, RowFilter};
use polygen_core::base::{BaseRelation, Operand};
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_core::stream::{concat_streams, scoped_map, ParallelOptions, Partitioner, TupleStream};
use polygen_flat::schema::Schema;
use polygen_flat::value::Cmp;
use polygen_index::IndexCatalog;
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

/// Every per-row result of one [`execute_eager`] run — the golden tests
/// read Tables 4–8 out of this.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// `R(n)` → materialized relation, for every row of the IOM.
    pub results: BTreeMap<usize, PolygenRelation>,
}

impl ExecutionTrace {
    /// The relation computed by row `n`.
    pub fn result(&self, n: usize) -> Option<&PolygenRelation> {
        self.results.get(&n)
    }
}

/// Run one fused pipeline stage in place.
fn apply_stage(s: &mut TupleStream, kind: &StageKind) -> Result<(), PqpError> {
    match kind {
        StageKind::Select { attr, cmp, value } => s.select(attr, *cmp, value)?,
        StageKind::Restrict { x, cmp, y } => s.restrict(x, *cmp, y)?,
        StageKind::Project { cols, output } => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            s.project(&refs)?;
            present(s, cols, output)?;
        }
    }
    Ok(())
}

/// A Select or Restrict stage as a fused merge runs it (a Project is
/// none).
fn row_filter(kind: &StageKind) -> Option<RowFilter<'_>> {
    match kind {
        StageKind::Select { attr, cmp, value } => Some(RowFilter::Select {
            attr,
            cmp: *cmp,
            value,
        }),
        StageKind::Restrict { x, cmp, y } => Some(RowFilter::Restrict { x, cmp: *cmp, y }),
        StageKind::Project { .. } => None,
    }
}

/// A Project's presentation: its columns under the names the query
/// asked for, when they differ from the resolved ones.
fn present(s: &mut TupleStream, cols: &[String], output: &[String]) -> Result<(), PqpError> {
    if output != cols {
        let names: Vec<&str> = output.iter().map(String::as_str).collect();
        s.rename(&names)?;
    }
    Ok(())
}

/// [`present`] over an owned relation: the tuples move, the schema is
/// swapped.
fn present_relation(
    rel: PolygenRelation,
    cols: &[String],
    output: &[String],
) -> Result<PolygenRelation, PqpError> {
    if output == cols {
        return Ok(rel);
    }
    let names: Vec<&str> = output.iter().map(String::as_str).collect();
    let schema = Arc::new(rel.schema().relabeled_attrs(&names)?);
    Ok(PolygenRelation::from_tuples(schema, rel.into_tuples())?)
}

/// Fail loudly when node `i` produced a schema other than the one it
/// was planned with. Planned and runtime schemas are identical by
/// construction, but the LQP registry has interior mutability:
/// re-registering an LQP between compile and run would make the baked
/// plan stale, and resolved columns must not apply to the wrong shape.
fn check_schema(i: usize, node: &plan::PhysNode, ran: &Schema) -> Result<(), PqpError> {
    if ran == node.schema.as_ref() {
        return Ok(());
    }
    Err(PqpError::MalformedRow {
        row: node.row,
        reason: format!(
            "stale physical plan at node #{i}: planned schema {:?} diverges from \
             runtime schema {:?}; recompile after registry changes",
            node.schema.attrs(),
            ran.attrs()
        ),
    })
}

/// What a node hands its consumer, as its [`Route`] says: a late-tagged
/// leaf, a merge's late-built view, a join's built projection, or a
/// stream of `Arc`-shared tuples. The plan is a tree, so each slot is
/// taken once.
enum Slot {
    Leaf(BaseRelation),
    Merged(MergedView<BaseRelation>),
    Built(PolygenRelation),
    Stream(TupleStream),
}

impl Slot {
    fn schema(&self) -> &Arc<Schema> {
        match self {
            Slot::Leaf(b) => b.schema(),
            Slot::Merged(m) => m.schema(),
            Slot::Built(r) => r.schema(),
            Slot::Stream(s) => s.schema(),
        }
    }

    /// Surviving tuples in the slot (what the node emitted).
    fn len(&self) -> usize {
        match self {
            Slot::Leaf(b) => b.len(),
            Slot::Merged(m) => m.len(),
            Slot::Built(r) => r.len(),
            Slot::Stream(s) => s.len(),
        }
    }

    fn into_relation(self) -> PolygenRelation {
        match self {
            Slot::Leaf(b) => b.materialize(),
            Slot::Merged(m) => m.into(),
            Slot::Built(r) => r,
            Slot::Stream(s) => s.into_relation(),
        }
    }

    fn into_stream(self) -> TupleStream {
        match self {
            Slot::Stream(s) => s,
            slot => TupleStream::from_relation(slot.into_relation()),
        }
    }
}

/// Run `$body` with `$o` bound to a reference to the slot `$slot` as a
/// kernel operand: a leaf or a merged view read in place, anything else
/// as its tagged relation.
macro_rules! with_operand {
    ($slot:expr, |$o:ident| $body:expr) => {
        match $slot {
            Slot::Leaf(leaf) => {
                let $o = &leaf;
                $body
            }
            Slot::Merged(merged) => {
                let $o = &merged;
                $body
            }
            slot => {
                let tagged = slot.into_relation();
                let $o = &tagged;
                $body
            }
        }
    };
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

/// The `kernel` note a node's span carries for its route (the
/// right-hand column of the table on [`Route`]).
fn kernel_note(route: Route) -> Option<&'static str> {
    match route {
        Route::Batch => Some("batch"),
        Route::Rows { .. } => Some("row"),
        Route::JoinProject { .. } => Some("join+project"),
        Route::MergeStages { .. } => Some("merge+select"),
        Route::Leaf { .. } | Route::Pass { .. } | Route::Whole => None,
    }
}

/// Node `j`'s slot, taken by its one consumer (on row `row`). A plan
/// edited after it was built may read a slot that is not there.
fn take(slots: &mut [Option<Slot>], j: usize, row: usize) -> Result<Slot, PqpError> {
    slots
        .get_mut(j)
        .and_then(Option::take)
        .ok_or_else(|| PqpError::MalformedRow {
            row,
            reason: format!("node #{j} is not an earlier node's unread output; a plan is a tree"),
        })
}

/// Walk a physical plan, probing `indexes` for the plan's
/// [`PhysOp::IndexScan`] leaves (`None` serves plans that have none).
/// The catalog must be the one the plan was routed against (in the
/// serving layer, the owning snapshot's): executing a routed plan
/// without it fails loudly rather than silently re-scanning. Each node
/// runs as its [`Route`] says; a plan edited after it was built, whose
/// nodes no longer fit their routes, is [`PqpError::MalformedRow`]. An
/// enabled `trace` records one span per physical node — operator kind,
/// output rows, its route's `kernel` note, and the partition count when
/// a kernel ran partitioned. Spans observe, never steer.
pub fn execute_plan(
    plan: &PhysicalPlan,
    registry: &LqpRegistry,
    dictionary: &DataDictionary,
    indexes: Option<&IndexCatalog>,
    options: &PqpOptions,
    trace: &Trace,
) -> Result<PolygenRelation, PqpError> {
    let n = plan.nodes.len();
    let par = options.parallelism();
    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();
    // The partition count the stages a merge ran for its consumer ran
    // at: that pipeline's own, when nothing of it is left to split.
    let mut stages_ran_at = vec![1usize; n];
    for (i, node) in plan.nodes.iter().enumerate() {
        let error = |reason: String| PqpError::MalformedRow {
            row: node.row,
            reason,
        };
        // A node that does not fit its route: the plan was edited.
        let malformed = |what: String| {
            error(format!(
                "node #{i} {what}; build plans with `lower` or `try_from_nodes`"
            ))
        };
        let route = plan
            .route(i)
            .ok_or_else(|| malformed("has no route".into()))?;
        let span = trace.begin(op_span_name(&node.op));
        if !span.is_none() {
            if let Some(kernel) = kernel_note(route) {
                trace.annotate(span, "kernel", Note::str(kernel));
            }
        }
        // The partition count this node's kernel actually ran at.
        let mut fanned = 1;
        // The rows the node produced, when its slot holds fewer (a join
        // that ran its consumer's Project), and the schema it ran at,
        // when its slot holds another.
        let mut rows: Option<usize> = None;
        let mut ran_schema: Option<Arc<Schema>> = None;
        let slot = match (&node.op, route) {
            (PhysOp::Scan { db, op }, Route::Leaf { .. }) => {
                Slot::Leaf(registry.scan(db, op, dictionary)?)
            }
            (
                PhysOp::IndexScan {
                    db,
                    relation,
                    column,
                    probe,
                    ..
                },
                Route::Leaf { .. },
            ) => {
                let catalog = indexes.ok_or_else(|| {
                    error(format!(
                        "plan probes an index on {db}.{relation}.{column} but no index \
                         catalog was supplied; execute with the catalog the plan was \
                         routed against, or recompile without indexes"
                    ))
                })?;
                let index = catalog.lookup(db, relation, column).ok_or_else(|| {
                    error(format!(
                        "stale routed plan: the catalog no longer indexes \
                         {db}.{relation}.{column}; recompile against the current catalog"
                    ))
                })?;
                Slot::Leaf(index.probe_base(probe))
            }
            (PhysOp::Pipeline { input, stages }, _) => {
                let input_slot = take(&mut slots, *input, node.row)?;
                fanned = stages_ran_at[*input];
                match (route, input_slot) {
                    (Route::Batch, Slot::Leaf(base)) => {
                        let run = fan_out(par, base.len());
                        fanned = run.partitions;
                        Slot::Stream(batch_pipeline(&base, stages, run)?)
                    }
                    // The input ran every stage: its view or built
                    // relation passes on.
                    (Route::Pass { skip }, slot @ (Slot::Merged(_) | Slot::Built(_)))
                        if skip == stages.len() =>
                    {
                        slot
                    }
                    (Route::Rows { skip }, input_slot) => {
                        let stages = stages
                            .get(skip..)
                            .ok_or_else(|| malformed(format!("has fewer than {skip} stages")))?;
                        // Tuple-local prefix (cut at the first Project, whose
                        // duplicate collapse is a whole-stream operation), then
                        // the rest on the much smaller stream.
                        let cut = stages
                            .iter()
                            .position(|st| matches!(st.kind, StageKind::Project { .. }))
                            .unwrap_or(stages.len());
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
                        }
                        Slot::Stream(s)
                    }
                    (route, _) => {
                        return Err(malformed(format!("does not fit its route {route:?}")))
                    }
                }
            }
            (
                PhysOp::HashJoin {
                    left,
                    right,
                    x,
                    y,
                    out,
                },
                Route::JoinProject { .. } | Route::Whole,
            ) => {
                // A join under a Project builds just the projected rows,
                // presented under the Project's names.
                let project = match route {
                    Route::JoinProject { consumer } => {
                        match plan.consumer_stages(i, consumer).and_then(<[_]>::first) {
                            Some(plan::Stage {
                                kind: StageKind::Project { cols, output },
                                ..
                            }) => Some((cols, output)),
                            _ => return Err(malformed("has no Project to run".into())),
                        }
                    }
                    _ => None,
                };
                // Leaves and merged views are read in place; anything
                // else is already a tagged stream.
                let l = take(&mut slots, *left, node.row)?;
                let r = take(&mut slots, *right, node.row)?;
                let run = fan_out(par, l.len() + r.len());
                if project.is_some() {
                    // The join's own schema never materializes: the stale
                    // check below reads it, the pipeline's the projection's.
                    ran_schema = Some(equi_join_coalesced_schema(
                        l.schema(),
                        r.schema(),
                        x,
                        y,
                        out,
                    )?);
                }
                let keep: Option<Vec<&str>> =
                    project.map(|(cols, _)| cols.iter().map(String::as_str).collect());
                let (joined, used, pairs) = with_operand!(l, |l| with_operand!(r, |r| {
                    algebra::hash_equi_join_project(l, r, x, y, out, keep.as_deref(), run)?
                }));
                fanned = used;
                rows = Some(pairs);
                match project {
                    Some((cols, output)) => Slot::Built(present_relation(joined, cols, output)?),
                    None => Slot::Stream(TupleStream::from_relation(joined)),
                }
            }
            (
                PhysOp::HashMerge {
                    inputs,
                    key,
                    relabels,
                    ..
                },
                Route::MergeStages { .. } | Route::Whole,
            ) => {
                let taken = inputs
                    .iter()
                    .map(|&j| take(&mut slots, j, node.row))
                    .collect::<Result<Vec<Slot>, _>>()?;
                let run = fan_out(par, taken.iter().map(Slot::len).sum());
                let policy = options.conflict_policy;
                // Every merge operand is a leaf, read in place;
                // relabeling is a schema swap — no cell copies.
                let operands = taken
                    .iter()
                    .zip(inputs)
                    .enumerate()
                    .map(|(k, (slot, &j))| match (slot, relabels.get(k)) {
                        (Slot::Leaf(b), Some(names)) => {
                            let names: Vec<&str> = names.iter().map(String::as_str).collect();
                            Ok(b.rename_attrs(&names)?)
                        }
                        _ => Err(malformed(format!(
                            "merges R({}), which is not a relabeled base retrieve",
                            plan.nodes[j].row
                        ))),
                    })
                    .collect::<Result<Vec<_>, PqpError>>()?;
                // A merge under Selects/Restricts builds only the rows
                // they keep. Their columns are the planned schema's: on a
                // stale plan the merge runs whole and the schema check
                // below fails as it always has.
                let as_planned = || {
                    let schemas: Vec<&Schema> =
                        operands.iter().map(|b| b.schema().as_ref()).collect();
                    merged_schema(&schemas).is_ok_and(|s| s == node.schema)
                };
                let filters: Vec<RowFilter<'_>> = match route {
                    Route::MergeStages { consumer, stages } if as_planned() => plan
                        .consumer_stages(i, consumer)
                        .and_then(|all| all.get(..stages))
                        .and_then(|run| run.iter().map(|st| row_filter(&st.kind)).collect())
                        .ok_or_else(|| {
                            malformed(format!("has no {stages} Selects/Restricts to run"))
                        })?,
                    _ => Vec::new(),
                };
                let (view, _conflicts, used, merged) =
                    algebra::hash_merge_view(operands, key, policy, &filters, run)?;
                fanned = used;
                rows = Some(merged);
                if !filters.is_empty() {
                    stages_ran_at[i] = used;
                }
                Slot::Merged(view)
            }
            // Every other operator is binary over materialized inputs.
            (
                PhysOp::ThetaJoin { left, right, .. }
                | PhysOp::AntiJoin { left, right, .. }
                | PhysOp::Union { left, right }
                | PhysOp::Difference { left, right }
                | PhysOp::Intersect { left, right }
                | PhysOp::Product { left, right },
                Route::Whole,
            ) => {
                let l = take(&mut slots, *left, node.row)?.into_relation();
                let r = take(&mut slots, *right, node.row)?.into_relation();
                let out = match &node.op {
                    PhysOp::ThetaJoin { x, cmp, y, .. } => algebra::theta_join(&l, &r, x, *cmp, y),
                    PhysOp::AntiJoin { x, y, .. } => algebra::anti_join(&l, &r, x, y),
                    PhysOp::Union { .. } => algebra::union(&l, &r),
                    PhysOp::Difference { .. } => algebra::difference(&l, &r),
                    PhysOp::Intersect { .. } => algebra::intersect(&l, &r),
                    _ => algebra::product(&l, &r),
                };
                Slot::Stream(TupleStream::from_relation(out?))
            }
            (_, route) => return Err(malformed(format!("does not fit its route {route:?}"))),
        };
        if !span.is_none() {
            trace.annotate(span, "node", Note::Uint(i as u64));
            trace.annotate(span, "row", Note::Uint(node.row as u64));
            let rows = rows.unwrap_or_else(|| slot.len());
            trace.annotate(span, "rows", Note::Uint(rows as u64));
            // The plan carries no fan-out, so this note is the only
            // record of it: `fan_out` chose it from the input size and
            // the kernel may have declined (EXPLAIN ANALYZE shows `xP`).
            if fanned > 1 {
                trace.annotate(span, "partitions", Note::Uint(fanned as u64));
            }
            trace.end(span);
        }
        check_schema(i, node, ran_schema.as_deref().unwrap_or(slot.schema()))?;
        slots[i] = Some(slot);
    }
    let root_row = plan.nodes.get(plan.root).map_or(0, |node| node.row);
    Ok(take(&mut slots, plan.root, root_row)?.into_relation())
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
        // The planner's schema-level resolver: the eager and physical
        // engines can never disagree on resolution.
        plan::resolve_in_schema(rel.schema(), attr, self.dictionary)
    }

    /// Keep only alias entries whose target column still exists.
    fn retain_valid(mut aliases: AliasMap, rel: &PolygenRelation) -> AliasMap {
        aliases.retain(|_, col| rel.schema().contains(col));
        aliases
    }

    fn execute_lqp_row(&mut self, row: &IomRow, db: &str) -> Result<PolygenRelation, PqpError> {
        let op = plan::local_op(row)?;
        let tagged = self.registry.execute_tagged(db, &op, self.dictionary)?;
        self.base_meta.insert(row.pr, (db.to_string(), op.relation));
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
                let attr = self.resolve(&row.lhr, &rel, row.single_attr()?)?;
                let v = row.rha_const()?;
                let out = algebra::select(&rel, &attr, row.cmp(), v.clone())?;
                let aliases = Self::retain_valid(self.alias_map(&row.lhr), &out);
                Ok((out, aliases))
            }
            Op::Restrict => {
                let rel = self.rel(&row.lhr, row.pr)?.clone();
                let x = self.resolve(&row.lhr, &rel, row.single_attr()?)?;
                let y = row.rha_attr()?;
                let y = self.resolve(&row.lhr, &rel, y)?;
                let out = algebra::restrict(&rel, &x, row.cmp(), &y)?;
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
                let x_raw = row.single_attr()?.to_string();
                let x = self.resolve(&row.lhr, &left, &x_raw)?;
                let y_raw = row.rha_attr()?;
                let y = self.resolve(&row.rhr, &right, y_raw)?;
                if row.cmp() == Cmp::Eq {
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
                    let out = algebra::theta_join(&left, &right, &x, row.cmp(), &y)?;
                    let mut aliases = self.alias_map(&row.lhr);
                    aliases.extend(self.alias_map(&row.rhr));
                    let aliases = Self::retain_valid(aliases, &out);
                    Ok((out, aliases))
                }
            }
            Op::AntiJoin => {
                let left = self.rel(&row.lhr, row.pr)?.clone();
                let right = self.rel(&row.rhr, row.pr)?.clone();
                let x = self.resolve(&row.lhr, &left, row.single_attr()?)?;
                let y_raw = row.rha_attr()?;
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
/// the final relation and every `R(n)` in an [`ExecutionTrace`].
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
    use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};

    fn iom_of(expr: &str, s: &scenario::Scenario) -> Iom {
        let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
        interpret(&pom, s.dictionary.schema()).unwrap().1
    }

    /// Lower an IOM and run it on the physical engine, catalog-free.
    fn execute(
        iom: &Iom,
        registry: &LqpRegistry,
        dictionary: &DataDictionary,
        options: &PqpOptions,
    ) -> Result<PolygenRelation, PqpError> {
        let plan = plan::lower(iom, registry, dictionary)?;
        execute_plan(
            &plan,
            registry,
            dictionary,
            None,
            options,
            &Trace::disabled(),
        )
    }

    fn run(expr: &str) -> PolygenRelation {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let iom = iom_of(expr, &s);
        execute(&iom, &registry, &s.dictionary, &PqpOptions::default()).unwrap()
    }

    #[test]
    fn lqp_select_produces_table4_shape() {
        let rel = run("PALUMNUS [DEGREE = \"MBA\"] [AID#, ANAME]");
        assert_eq!(rel.len(), 5);
        // Raw local names survive single-source execution.
        assert!(rel.schema().contains("AID#"));
        assert!(rel.schema().contains("ANAME"));
    }

    #[test]
    fn merge_then_select_on_polygen_names() {
        let rel = run("PORGANIZATION [INDUSTRY = \"Banking\"]");
        assert_eq!(rel.len(), 1);
        let row = &rel.tuples()[0];
        assert_eq!(row[0].datum, Value::str("Citicorp"));
    }

    #[test]
    fn final_answer_matches_table9_data() {
        let rel = run(PAPER_EXPRESSION);
        assert_eq!(rel.len(), 3);
        let strip = rel.strip();
        assert!(strip.contains(&[Value::str("Genentech"), Value::str("Bob Swanson")]));
        assert!(strip.contains(&[Value::str("Langley Castle"), Value::str("Stu Madnick")]));
        assert!(strip.contains(&[Value::str("Citicorp"), Value::str("John Reed")]));
    }

    #[test]
    fn trace_exposes_intermediate_tables_when_retained() {
        // The eager interpreter retains every `R(n)`.
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let iom = iom_of(PAPER_EXPRESSION, &s);
        let (_, trace) =
            execute_eager(&iom, &registry, &s.dictionary, &PqpOptions::default()).unwrap();
        assert_eq!(trace.results.len(), 10);
        // R(1) = Table 4 (5 MBA alumni), R(7) = Table 6 (12 organizations).
        assert_eq!(trace.result(1).unwrap().len(), 5);
        assert_eq!(trace.result(7).unwrap().len(), 12);
        assert_eq!(trace.result(10).unwrap().len(), 3);
    }

    #[test]
    fn physical_engine_matches_eager_reference() {
        // Every prefix of the IOM, lowered and run on the physical engine,
        // answers the eager interpreter's `R(n)` byte for byte: schema,
        // data, tags and tuple order.
        let s = scenario::build();
        let registry = scenario_registry(&s);
        for expr in [
            PAPER_EXPRESSION,
            "PORGANIZATION [INDUSTRY = \"Banking\"]",
            "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
            "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
            "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
            "PCAREER [AID# < AID#] PCAREER",
        ] {
            let iom = iom_of(expr, &s);
            let options = PqpOptions::default();
            let (_, eager) = execute_eager(&iom, &registry, &s.dictionary, &options).unwrap();
            for n in 1..=iom.rows.len() {
                let prefix = Iom {
                    rows: iom.rows[..n].to_vec(),
                };
                let pr = iom.rows[n - 1].pr;
                let want = eager.result(pr).unwrap();
                let got = execute(&prefix, &registry, &s.dictionary, &options).unwrap();
                assert_eq!(want.schema(), got.schema(), "R({pr}) schema for {expr}");
                assert_eq!(want.tuples(), got.tuples(), "R({pr}) diverges for {expr}");
            }
        }
    }

    #[test]
    fn threaded_options_produce_identical_results() {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let iom = iom_of(PAPER_EXPRESSION, &s);
        let at = |threads| PqpOptions::default().with_threads(threads);
        let seq = execute(&iom, &registry, &s.dictionary, &at(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let parl = execute(&iom, &registry, &s.dictionary, &at(threads)).unwrap();
            assert!(seq.tagged_set_eq(&parl), "threads = {threads}");
        }
        // Knob resolution: explicit values pass through, 0 resolves.
        assert_eq!(at(4).parallelism().partitions, 4);
        let auto = PqpOptions::default().parallelism();
        assert!(auto.threads >= 1);
    }

    #[test]
    fn union_and_difference_execute() {
        let rel = run("(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])");
        assert_eq!(rel.len(), 6);
        let diff = run("PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])");
        assert_eq!(diff.len(), 3);
    }

    #[test]
    fn antijoin_executes() {
        // Organizations with no finance record: only MIT and BP.
        let rel = run("(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]");
        let names = rel.strip();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&[Value::str("MIT")]));
        assert!(names.contains(&[Value::str("BP")]));
    }
}
