//! The physical-plan layer — between the Query Optimizer and execution.
//!
//! The paper's Figure 2 hands the optimizer's IOM straight to a row-by-row
//! interpreter; production engines insert a lowering step that turns the
//! logical matrix into a tree of physical operators with concrete
//! strategies. [`lower`] performs that step:
//!
//! * **Retrieve/Select/Restrict/Project rows at an LQP** become
//!   [`PhysOp::Scan`] leaves (a [`LocalOp`] shipped to the local system,
//!   tagged at the boundary).
//! * **Select/Restrict/Project rows at the PQP** become pipeline *stages*.
//!   Consecutive stages over a single-consumer input fuse into one
//!   [`PhysOp::Pipeline`] that streams `Arc`-shared tuples through every
//!   stage without materializing the intermediate relations.
//! * **Equi-joins** lower to [`PhysOp::HashJoin`] (single-pass build +
//!   probe with the join-column coalesce fused into the emit); other θs
//!   fall back to [`PhysOp::ThetaJoin`] nested loops.
//! * **Merge** lowers to [`PhysOp::HashMerge`], the k-way single-pass
//!   hash merge keyed on the polygen scheme's primary key, replacing the
//!   quadratic left fold of Outer Natural Total Joins.
//!
//! Attribute names are resolved *at lowering time* against planned
//! schemas: the lowerer tracks the exact output schema of every node
//! (using the same schema constructors the kernels use), so the executor
//! runs resolution-free and `EXPLAIN` can print the physical tree before
//! anything executes. The eager row-by-row interpreter survives as
//! [`crate::executor::execute_eager`], the reference semantics every
//! physical kernel is differential-tested against.

use crate::error::PqpError;
use crate::iom::{ExecLoc, Iom, IomRow};
use crate::pom::{Op, RelRef, Rha};
use crate::pqp::PqpOptions;
use polygen_catalog::dictionary::DataDictionary;
use polygen_core::algebra::join::equi_join_coalesced_schema;
use polygen_core::algebra::merge::merged_schema;
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use polygen_index::{IndexCatalog, IndexKind, Interval, Probe};
use polygen_lqp::engine::LocalOp;
use polygen_lqp::registry::LqpRegistry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Coalesced-name aliases: `old column name → current column`. An
/// equi-join coalesces its two join columns into one named after the
/// right attribute; the left attribute's name lives on here so later
/// rows can still reference it.
pub type AliasMap = HashMap<String, String>;

/// One fused pipeline stage (a Select/Restrict/Project IOM row).
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The IOM row this stage came from (`R(row)`).
    pub row: usize,
    /// What the stage does.
    pub kind: StageKind,
}

/// The operation a pipeline stage applies, attribute names pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// `[attr θ const]` — filter plus the paper's intermediate-tag update.
    Select {
        /// Resolved column name.
        attr: String,
        /// θ.
        cmp: Cmp,
        /// The constant.
        value: Value,
    },
    /// `[x θ y]` — two-column filter plus tag update.
    Restrict {
        /// Resolved left column.
        x: String,
        /// θ.
        cmp: Cmp,
        /// Resolved right column.
        y: String,
    },
    /// `[X]` — projection with duplicate collapse, then presentation
    /// under the names the query asked for.
    Project {
        /// Resolved input columns.
        cols: Vec<String>,
        /// Output names (differ from `cols` when alias-resolved).
        output: Vec<String>,
    },
}

/// A physical operator. Inputs reference earlier nodes by index in
/// [`PhysicalPlan::nodes`] (the plan is a DAG in topological order —
/// deduplicated scans fan out to several consumers).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Ship a [`LocalOp`] to an LQP; the result is tagged at the boundary.
    Scan {
        /// Local database name.
        db: String,
        /// The operation the local system executes.
        op: LocalOp,
    },
    /// Probe a secondary index instead of sweeping the source: emit the
    /// base tuples whose keys match `probe`, in scan order —
    /// byte-identical to the [`PhysOp::Scan`] it replaced. Routed by
    /// [`route_index_scans`]; residual predicates (folded conjuncts)
    /// stay in the consuming pipeline and re-check themselves.
    IndexScan {
        /// Local database name.
        db: String,
        /// Local relation the index covers.
        relation: String,
        /// Indexed local column.
        column: String,
        /// Posting organization (for EXPLAIN and costing).
        kind: IndexKind,
        /// The validated key probe.
        probe: Probe,
    },
    /// Stream the input through fused Select/Restrict/Project stages.
    Pipeline {
        /// Input node index.
        input: usize,
        /// Stages in application order.
        stages: Vec<Stage>,
    },
    /// Single-pass hash equi-join with the join-column coalesce fused in.
    HashJoin {
        /// Probe-side node index.
        left: usize,
        /// Build-side node index.
        right: usize,
        /// Resolved left join column.
        x: String,
        /// Resolved right join column.
        y: String,
        /// Name of the coalesced join column.
        out: String,
    },
    /// Nested-loop θ-join (non-equality predicates).
    ThetaJoin {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
        /// Resolved left column.
        x: String,
        /// θ.
        cmp: Cmp,
        /// Resolved right column.
        y: String,
    },
    /// k-way single-pass hash Merge on the scheme's primary key.
    HashMerge {
        /// Input node indices (base scans).
        inputs: Vec<usize>,
        /// The multi-source polygen scheme being materialized.
        scheme: String,
        /// The scheme's primary key (the merge key).
        key: String,
        /// Per-input relabeling to polygen attribute names.
        relabels: Vec<Vec<String>>,
    },
    /// Anti-join (left tuples with no right match).
    AntiJoin {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
        /// Resolved left column.
        x: String,
        /// Resolved right column.
        y: String,
    },
    /// Set union with tag merging on matched data.
    Union {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
    },
    /// Set difference with the mediator-tag update.
    Difference {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
    },
    /// Set intersection.
    Intersect {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
    },
    /// Cartesian product.
    Product {
        /// Left node index.
        left: usize,
        /// Right node index.
        right: usize,
    },
}

impl PhysOp {
    /// The node indices this operator consumes (in consumption order).
    pub fn inputs(&self) -> Vec<usize> {
        match self {
            PhysOp::Scan { .. } | PhysOp::IndexScan { .. } => Vec::new(),
            PhysOp::Pipeline { input, .. } => vec![*input],
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::ThetaJoin { left, right, .. }
            | PhysOp::AntiJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right }
            | PhysOp::Intersect { left, right }
            | PhysOp::Product { left, right } => vec![*left, *right],
            PhysOp::HashMerge { inputs, .. } => inputs.clone(),
        }
    }
}

/// One node of the physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysNode {
    /// The IOM result id `R(row)` this node's output corresponds to (for
    /// a fused pipeline, the last fused row).
    pub row: usize,
    /// The operator.
    pub op: PhysOp,
    /// The planned output schema — provably identical to what execution
    /// produces (both sides build schemas with the same constructors).
    pub schema: Arc<Schema>,
}

/// A lowered physical plan: nodes in topological (execution) order.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The operator DAG, execution-ordered.
    pub nodes: Vec<PhysNode>,
    /// Index of the node producing the query answer.
    pub root: usize,
}

impl PhysicalPlan {
    /// How many IOM rows were fused into pipeline stages (the rows that
    /// no longer materialize an intermediate relation).
    pub fn fused_rows(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PhysOp::Pipeline { stages, .. } => Some(stages.len().saturating_sub(1)),
                _ => None,
            })
            .sum()
    }

    /// The local databases this plan reads — every [`PhysOp::Scan`] and
    /// [`PhysOp::IndexScan`] target, deduplicated. A result cache keys
    /// cached answers on this set's version vector: an answer stays
    /// valid exactly as long as none of the sources it was computed from
    /// has been updated. Index scans read snapshot-materialized base
    /// relations, but those rebuild on the same version bumps, so the
    /// dependency is identical.
    pub fn source_dbs(&self) -> BTreeSet<String> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PhysOp::Scan { db, .. } | PhysOp::IndexScan { db, .. } => Some(db.clone()),
                _ => None,
            })
            .collect()
    }

    /// How many Scan leaves were routed onto secondary indexes.
    pub fn index_scans(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, PhysOp::IndexScan { .. }))
            .count()
    }

    /// Does node `i` run on the columnar batch kernels? True for a
    /// pipeline with batch-eligible stages over a Scan/IndexScan leaf —
    /// the shape the executor lifts into a `ColumnBatch` instead of a
    /// row stream (leaves are late-tagged and shared by pointer, so any
    /// number of consumers may do so). This predicate is the only
    /// engine choice there is: the executor, the cost model and
    /// EXPLAIN's `[batch]` marker all ask it, and everything it rejects
    /// — interior inputs, a mid-chain Project — walks the row stream.
    /// (Retention mode tags leaves eagerly, so its pipelines never see
    /// a leaf and walk rows whatever the plan says.)
    pub fn is_batch_pipeline(&self, i: usize) -> bool {
        let PhysOp::Pipeline { input, stages } = &self.nodes[i].op else {
            return false;
        };
        matches!(
            self.nodes[*input].op,
            PhysOp::Scan { .. } | PhysOp::IndexScan { .. }
        ) && batch_eligible_stages(stages)
    }

    /// A deterministic structural fingerprint: FNV-1a over the rendered
    /// operator tree plus every node's planned output schema. Two plans
    /// with the same fingerprint execute the same scans, stages,
    /// strategies and predicates against the same planned schemas — the
    /// identity a plan/result cache needs. Stable across processes (no
    /// per-process hash seeds) so fingerprints can be logged and
    /// compared between runs.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            hash ^= 0xff;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        eat(render_plan(self).as_bytes());
        for node in &self.nodes {
            eat(node.schema.name().as_bytes());
            for attr in node.schema.attrs() {
                eat(attr.as_bytes());
            }
        }
        eat(&self.root.to_le_bytes());
        hash
    }
}

/// Can a stage list run on the columnar batch kernels? Any number of
/// Selects/Restricts, with Project only as the final stage — the batch
/// projects by column-pointer swap and collapses duplicates once at
/// emission, which is only equivalent to the row engine when nothing
/// filters after the projection.
fn batch_eligible_stages(stages: &[Stage]) -> bool {
    !stages.is_empty()
        && stages.iter().enumerate().all(|(i, s)| match s.kind {
            StageKind::Select { .. } | StageKind::Restrict { .. } => true,
            StageKind::Project { .. } => i + 1 == stages.len(),
        })
}

/// Resolve an IOM attribute against a schema: exact column first, then
/// the polygen schema's local candidates, then the reverse mapping for a
/// local name against a merged relation. Must stay in lock-step with the
/// eager executor's resolution (it delegates here).
pub fn resolve_in_schema(
    schema: &Schema,
    attr: &str,
    dictionary: &DataDictionary,
) -> Result<String, PqpError> {
    if schema.contains(attr) {
        return Ok(attr.to_string());
    }
    let pschema = dictionary.schema();
    let mut found: Vec<String> = pschema
        .local_candidates(attr)
        .into_iter()
        .filter(|c| schema.contains(c))
        .collect();
    if found.is_empty() {
        // Reverse: `attr` may be a local name while the relation carries
        // polygen names (a merged relation).
        for s in pschema.schemes() {
            for (pa, m) in s.attrs() {
                if m.entries().iter().any(|e| e.attribute.as_ref() == attr)
                    && schema.contains(pa)
                    && !found.iter().any(|f| f == pa.as_ref())
                {
                    found.push(pa.to_string());
                }
            }
        }
    }
    found.dedup();
    match found.as_slice() {
        [one] => Ok(one.clone()),
        [] => Err(PqpError::UnresolvedAttribute {
            relation: schema.name().to_string(),
            attribute: attr.to_string(),
        }),
        _ => Err(PqpError::AmbiguousAttribute {
            relation: schema.name().to_string(),
            attribute: attr.to_string(),
            candidates: found,
        }),
    }
}

/// The alias bookkeeping an equi-join leaves behind once it coalesces
/// the left column `x` into the right column `y`: repoint aliases that
/// targeted the left column, then alias the old (resolved and raw) names
/// to the surviving column. Shared by the lowerer and the eager
/// interpreter so the two can never disagree on what downstream rows may
/// still reference.
pub(crate) fn equi_join_aliases(
    mut aliases: AliasMap,
    x: &str,
    x_raw: String,
    y: &str,
    y_raw: &str,
) -> AliasMap {
    for col in aliases.values_mut() {
        if *col == x {
            *col = y.to_string();
        }
    }
    if x != y {
        aliases.insert(x.to_string(), y.to_string());
    }
    if x_raw != y {
        aliases.insert(x_raw, y.to_string());
    }
    if y_raw != y {
        aliases.insert(y_raw.to_string(), y.to_string());
    }
    aliases
}

/// What the lowerer knows about a produced `R(n)`.
#[derive(Clone)]
struct Produced {
    node: usize,
    schema: Arc<Schema>,
    aliases: AliasMap,
    /// `(db, local relation)` for base retrieves — Merge relabeling.
    base: Option<(String, String)>,
}

struct Lowerer<'a> {
    registry: &'a LqpRegistry,
    dictionary: &'a DataDictionary,
    fuse: bool,
    /// pr → number of later references.
    uses: HashMap<usize, usize>,
    nodes: Vec<PhysNode>,
    env: HashMap<usize, Produced>,
}

impl Lowerer<'_> {
    fn input(&self, r: &RelRef, row: usize) -> Result<&Produced, PqpError> {
        self.derived_input(r, row).map(|(_, p)| p)
    }

    /// A single-input row's producing `R(i)` plus its metadata.
    fn derived_input(&self, r: &RelRef, row: usize) -> Result<(usize, &Produced), PqpError> {
        match r {
            RelRef::Derived(i) => Ok((*i, self.env.get(i).ok_or(PqpError::DanglingReference(*i))?)),
            _ => Err(PqpError::MalformedRow {
                row,
                reason: format!("expected a derived relation, found `{r}`"),
            }),
        }
    }

    /// Resolve an attribute against a produced relation: exact column,
    /// then its coalesced-name aliases, then the schema candidates.
    fn resolve(&self, input: &Produced, attr: &str) -> Result<String, PqpError> {
        if input.schema.contains(attr) {
            return Ok(attr.to_string());
        }
        if let Some(col) = input.aliases.get(attr) {
            if input.schema.contains(col) {
                return Ok(col.clone());
            }
        }
        resolve_in_schema(&input.schema, attr, self.dictionary)
    }

    /// Keep only alias entries whose target column still exists.
    fn retain_valid(mut aliases: AliasMap, schema: &Schema) -> AliasMap {
        aliases.retain(|_, col| schema.contains(col));
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

    fn push_node(
        &mut self,
        pr: usize,
        op: PhysOp,
        schema: Arc<Schema>,
        aliases: AliasMap,
        base: Option<(String, String)>,
    ) {
        let node = self.nodes.len();
        self.nodes.push(PhysNode {
            row: pr,
            op,
            schema: Arc::clone(&schema),
        });
        self.env.insert(
            pr,
            Produced {
                node,
                schema,
                aliases,
                base,
            },
        );
    }

    /// Attach a Select/Restrict/Project stage: appended to the input's
    /// pipeline when fusion applies, otherwise as a fresh pipeline node.
    fn push_stage(
        &mut self,
        pr: usize,
        input_pr: usize,
        stage: Stage,
        schema: Arc<Schema>,
        aliases: AliasMap,
    ) -> Result<(), PqpError> {
        let input = self
            .env
            .get(&input_pr)
            .ok_or(PqpError::DanglingReference(input_pr))?;
        let input_node = input.node;
        let fusible = self.fuse && self.uses.get(&input_pr).copied().unwrap_or(0) == 1;
        if fusible {
            if let PhysOp::Pipeline { stages, .. } = &mut self.nodes[input_node].op {
                stages.push(stage);
                self.nodes[input_node].row = pr;
                self.nodes[input_node].schema = Arc::clone(&schema);
                self.env.insert(
                    pr,
                    Produced {
                        node: input_node,
                        schema,
                        aliases,
                        base: None,
                    },
                );
                return Ok(());
            }
        }
        self.push_node(
            pr,
            PhysOp::Pipeline {
                input: input_node,
                stages: vec![stage],
            },
            schema,
            aliases,
            None,
        );
        Ok(())
    }

    fn lower_lqp_row(&mut self, row: &IomRow, db: &str) -> Result<(), PqpError> {
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
        let schema = self.registry.planned_schema(db, &op)?;
        self.push_node(
            row.pr,
            PhysOp::Scan {
                db: db.to_string(),
                op,
            },
            schema,
            AliasMap::new(),
            Some((db.to_string(), local_rel.clone())),
        );
        Ok(())
    }

    fn lower_merge(&mut self, row: &IomRow) -> Result<(), PqpError> {
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
        let mut node_inputs = Vec::with_capacity(inputs.len());
        let mut relabels = Vec::with_capacity(inputs.len());
        let mut relabeled_schemas = Vec::with_capacity(inputs.len());
        for rid in inputs {
            let p = self.env.get(rid).ok_or(PqpError::DanglingReference(*rid))?;
            let (db, local_rel) = p.base.clone().ok_or(PqpError::MalformedRow {
                row: row.pr,
                reason: format!("Merge input R({rid}) is not a base retrieve"),
            })?;
            let cols: Vec<&str> = p.schema.attrs().iter().map(|a| a.as_ref()).collect();
            let new_names = scheme.relabel_columns(&db, &local_rel, &cols);
            let name_refs: Vec<&str> = new_names.iter().map(String::as_str).collect();
            relabeled_schemas.push(p.schema.relabeled_attrs(&name_refs)?);
            node_inputs.push(p.node);
            relabels.push(new_names);
        }
        let refs: Vec<&Schema> = relabeled_schemas.iter().collect();
        let schema = merged_schema(&refs)?;
        self.push_node(
            row.pr,
            PhysOp::HashMerge {
                inputs: node_inputs,
                scheme: scheme_name.to_string(),
                key: scheme.key().to_string(),
                relabels,
            },
            schema,
            AliasMap::new(),
            None,
        );
        Ok(())
    }

    fn lower_pqp_row(&mut self, row: &IomRow) -> Result<(), PqpError> {
        match row.op {
            Op::Merge => self.lower_merge(row),
            Op::Select => {
                let (input_pr, input) = self.derived_input(&row.lhr, row.pr)?;
                let input = input.clone();
                let attr = self.resolve(&input, self.single_attr(row)?)?;
                let Rha::Const(v) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Select requires a constant RHA".into(),
                    });
                };
                let schema = Arc::clone(&input.schema);
                let aliases = Self::retain_valid(input.aliases.clone(), &schema);
                self.push_stage(
                    row.pr,
                    input_pr,
                    Stage {
                        row: row.pr,
                        kind: StageKind::Select {
                            attr,
                            cmp: self.theta(row),
                            value: v.clone(),
                        },
                    },
                    schema,
                    aliases,
                )
            }
            Op::Restrict => {
                let (input_pr, input) = self.derived_input(&row.lhr, row.pr)?;
                let input = input.clone();
                let x = self.resolve(&input, self.single_attr(row)?)?;
                let Rha::Attr(y) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Restrict requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&input, y)?;
                let schema = Arc::clone(&input.schema);
                let aliases = Self::retain_valid(input.aliases.clone(), &schema);
                self.push_stage(
                    row.pr,
                    input_pr,
                    Stage {
                        row: row.pr,
                        kind: StageKind::Restrict {
                            x,
                            cmp: self.theta(row),
                            y,
                        },
                    },
                    schema,
                    aliases,
                )
            }
            Op::Project => {
                let (input_pr, input) = self.derived_input(&row.lhr, row.pr)?;
                let input = input.clone();
                let cols = row
                    .lha
                    .iter()
                    .map(|a| self.resolve(&input, a))
                    .collect::<Result<Vec<_>, _>>()?;
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                let idx = input.schema.indices_of(&refs)?;
                let mut schema = Arc::new(input.schema.project(&idx, input.schema.name())?);
                // Present the columns under the names the query asked for
                // (an alias-resolved `CEO` should not surface as `ANAME`).
                let output = row.lha.clone();
                if output != cols {
                    let names: Vec<&str> = output.iter().map(String::as_str).collect();
                    schema = Arc::new(schema.relabeled_attrs(&names)?);
                }
                self.push_stage(
                    row.pr,
                    input_pr,
                    Stage {
                        row: row.pr,
                        kind: StageKind::Project { cols, output },
                    },
                    schema,
                    AliasMap::new(),
                )
            }
            Op::Join => {
                let left = self.input(&row.lhr, row.pr)?.clone();
                let right = self.input(&row.rhr, row.pr)?.clone();
                let x_raw = self.single_attr(row)?.to_string();
                let x = self.resolve(&left, &x_raw)?;
                let Rha::Attr(y_raw) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "Join requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&right, y_raw)?;
                if self.theta(row) == Cmp::Eq {
                    // Equi-joins coalesce the two join columns into one
                    // named after the right side — how Tables 5 and 7 are
                    // printed. The left name lives on as an alias.
                    let schema =
                        equi_join_coalesced_schema(&left.schema, &right.schema, &x, &y, &y)?;
                    let mut aliases = left.aliases.clone();
                    aliases.extend(right.aliases.clone());
                    let aliases = equi_join_aliases(aliases, &x, x_raw, &y, y_raw);
                    let aliases = Self::retain_valid(aliases, &schema);
                    self.push_node(
                        row.pr,
                        PhysOp::HashJoin {
                            left: left.node,
                            right: right.node,
                            x,
                            y: y.clone(),
                            out: y,
                        },
                        schema,
                        aliases,
                        None,
                    );
                } else {
                    let schema = Arc::new(left.schema.concat(
                        &right.schema,
                        &format!("{}x{}", left.schema.name(), right.schema.name()),
                    )?);
                    let mut aliases = left.aliases.clone();
                    aliases.extend(right.aliases.clone());
                    let aliases = Self::retain_valid(aliases, &schema);
                    self.push_node(
                        row.pr,
                        PhysOp::ThetaJoin {
                            left: left.node,
                            right: right.node,
                            x,
                            cmp: self.theta(row),
                            y,
                        },
                        schema,
                        aliases,
                        None,
                    );
                }
                Ok(())
            }
            Op::AntiJoin => {
                let left = self.input(&row.lhr, row.pr)?.clone();
                let right = self.input(&row.rhr, row.pr)?.clone();
                let x = self.resolve(&left, self.single_attr(row)?)?;
                let Rha::Attr(y_raw) = &row.rha else {
                    return Err(PqpError::MalformedRow {
                        row: row.pr,
                        reason: "AntiJoin requires an attribute RHA".into(),
                    });
                };
                let y = self.resolve(&right, y_raw)?;
                let schema = Arc::clone(&left.schema);
                let aliases = Self::retain_valid(left.aliases.clone(), &schema);
                self.push_node(
                    row.pr,
                    PhysOp::AntiJoin {
                        left: left.node,
                        right: right.node,
                        x,
                        y,
                    },
                    schema,
                    aliases,
                    None,
                );
                Ok(())
            }
            Op::Union | Op::Difference | Op::Intersect => {
                let left = self.input(&row.lhr, row.pr)?.clone();
                let right = self.input(&row.rhr, row.pr)?.clone();
                let schema = Arc::clone(&left.schema);
                let aliases = Self::retain_valid(left.aliases.clone(), &schema);
                let op = match row.op {
                    Op::Union => PhysOp::Union {
                        left: left.node,
                        right: right.node,
                    },
                    Op::Difference => PhysOp::Difference {
                        left: left.node,
                        right: right.node,
                    },
                    _ => PhysOp::Intersect {
                        left: left.node,
                        right: right.node,
                    },
                };
                self.push_node(row.pr, op, schema, aliases, None);
                Ok(())
            }
            Op::Product => {
                let left = self.input(&row.lhr, row.pr)?.clone();
                let right = self.input(&row.rhr, row.pr)?.clone();
                let schema = Arc::new(left.schema.concat(
                    &right.schema,
                    &format!("{}x{}", left.schema.name(), right.schema.name()),
                )?);
                let mut aliases = left.aliases.clone();
                aliases.extend(right.aliases.clone());
                let aliases = Self::retain_valid(aliases, &schema);
                self.push_node(
                    row.pr,
                    PhysOp::Product {
                        left: left.node,
                        right: right.node,
                    },
                    schema,
                    aliases,
                    None,
                );
                Ok(())
            }
            Op::Retrieve => Err(PqpError::MalformedRow {
                row: row.pr,
                reason: "Retrieve cannot execute at the PQP".into(),
            }),
        }
    }
}

/// Lower an IOM into a physical plan: stages fuse unless `options`
/// retains intermediates. Lowering reads no parallelism — the executor
/// picks each operator's fan-out at run time from its input size — so a
/// plan's text, fingerprint and cost estimate are the same at every
/// thread count.
pub fn lower(
    iom: &Iom,
    registry: &LqpRegistry,
    dictionary: &DataDictionary,
    options: &PqpOptions,
) -> Result<PhysicalPlan, PqpError> {
    let mut uses: HashMap<usize, usize> = HashMap::new();
    for row in &iom.rows {
        for r in [&row.lhr, &row.rhr] {
            match r {
                RelRef::Derived(i) => *uses.entry(*i).or_default() += 1,
                RelRef::DerivedList(ids) => {
                    for i in ids {
                        *uses.entry(*i).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let mut lowerer = Lowerer {
        registry,
        dictionary,
        fuse: !options.retain_intermediates,
        uses,
        nodes: Vec::with_capacity(iom.rows.len()),
        env: HashMap::new(),
    };
    for row in &iom.rows {
        match &row.el {
            ExecLoc::Lqp(db) => {
                let db = db.clone();
                lowerer.lower_lqp_row(row, &db)?;
            }
            ExecLoc::Pqp => lowerer.lower_pqp_row(row)?,
        }
    }
    let final_pr = iom.final_result().ok_or(PqpError::MalformedRow {
        row: 0,
        reason: "empty IOM".into(),
    })?;
    let root = lowerer
        .env
        .get(&final_pr)
        .ok_or(PqpError::DanglingReference(final_pr))?
        .node;
    Ok(PhysicalPlan {
        nodes: lowerer.nodes,
        root,
    })
}

// ---------------------------------------------------------------------
// Index pushdown — the routing pass between lowering and execution.
//
// Modeled on icydb's `FastPathPlan`: one validated routing decision per
// Scan leaf, derived once per plan, execution-agnostic. A leaf routes
// onto an index only when every eligibility gate passes; anything else
// keeps the full scan, so correctness never depends on an index.
// ---------------------------------------------------------------------

/// Why a Scan leaf did (or did not) route onto an index — the
/// `FastPathPlan`-style decision record, one per Scan leaf.
#[derive(Debug, Clone, PartialEq)]
enum Route {
    /// Swap the scan for an index probe.
    Index {
        column: String,
        kind: IndexKind,
        probe: Probe,
    },
    /// Keep the full scan.
    Scan,
}

/// Decide the route for one Scan leaf. `stages` is the lone consuming
/// pipeline's stage list, when the leaf has exactly one consumer and it
/// is a pipeline — the source of foldable residual conjuncts.
fn route_scan(catalog: &IndexCatalog, db: &str, op: &LocalOp, stages: Option<&[Stage]>) -> Route {
    // Only plain retrieves and single-predicate selects are candidates:
    // restricts compare two columns (not sargable) and projections
    // change the leaf schema out from under the index's base.
    if op.restrict.is_some() || op.projection.is_some() {
        return Route::Scan;
    }
    // Seed the interval: the scan's own filter (evaluated LQP-side on
    // raw values — requires a raw-faithful index), or, for a bare
    // retrieve, the first Select stage of the lone consuming pipeline
    // (evaluated PQP-side on mapped values — the index's native keys).
    let (column, index, seed, fold_from) = match &op.filter {
        Some((attr, cmp, value)) => {
            let Some(index) = catalog.lookup(db, &op.relation, attr) else {
                return Route::Scan;
            };
            if !index.raw_faithful() || !index.supports(*cmp) || !index.admits_literal(value) {
                return Route::Scan;
            }
            let Some(seed) = Interval::from_predicate(*cmp, value) else {
                return Route::Scan;
            };
            (attr.clone(), index, seed, 0)
        }
        None => {
            let Some(StageKind::Select { attr, cmp, value }) =
                stages.and_then(|s| s.first()).map(|s| &s.kind)
            else {
                return Route::Scan;
            };
            let Some(index) = catalog.lookup(db, &op.relation, attr) else {
                return Route::Scan;
            };
            if !index.supports(*cmp) || !index.admits_literal(value) {
                return Route::Scan;
            }
            let Some(seed) = Interval::from_predicate(*cmp, value) else {
                return Route::Scan;
            };
            (attr.clone(), index, seed, 1)
        }
    };
    // Fold further leading Select conjuncts over the same column into
    // the probe (they stay in the pipeline as residual predicates, so
    // the probe only has to be a *subset* of each folded conjunct —
    // intersection guarantees that). Hash postings can only serve a
    // point, which the seed alone already pins, so folding is
    // sorted-only.
    let mut interval = seed;
    if index.kind() == IndexKind::Sorted {
        if let Some(stages) = stages {
            for stage in stages.iter().skip(fold_from) {
                let StageKind::Select { attr, cmp, value } = &stage.kind else {
                    break;
                };
                if *attr != column || !index.admits_literal(value) {
                    break;
                }
                let Some(pred) = Interval::from_predicate(*cmp, value) else {
                    break;
                };
                interval = interval.intersect(pred);
            }
        }
    }
    match interval.into_probe() {
        Some(probe) if index.kind() == IndexKind::Hash && !matches!(probe, Probe::Point(_)) => {
            Route::Scan
        }
        Some(probe) => Route::Index {
            column,
            kind: index.kind(),
            probe,
        },
        None => Route::Scan,
    }
}

/// The pushdown pass: route eligible Scan leaves onto available
/// secondary indexes, leaving everything else — pipelines, residual
/// predicates, join strategies — untouched. The routed
/// plan is byte-identical in results to the input plan: a probe emits
/// exactly the tuples the scan's predicate would have retained, in scan
/// order, and folded conjuncts re-check themselves as pipeline stages.
pub fn route_index_scans(plan: &PhysicalPlan, catalog: &IndexCatalog) -> PhysicalPlan {
    if catalog.is_empty() {
        return plan.clone();
    }
    // Consumers per node: stage folding needs the lone consuming
    // pipeline; a shared leaf (a deduplicated self-join scan) may still
    // route its own filter but must not fold any one consumer's stages.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); plan.nodes.len()];
    for (i, node) in plan.nodes.iter().enumerate() {
        for input in node.op.inputs() {
            consumers[input].push(i);
        }
    }
    let mut routed = plan.clone();
    for (i, node) in plan.nodes.iter().enumerate() {
        let PhysOp::Scan { db, op } = &node.op else {
            continue;
        };
        let lone_pipeline_stages = match consumers[i].as_slice() {
            [j] => match &plan.nodes[*j].op {
                PhysOp::Pipeline { input, stages } if *input == i => Some(stages.as_slice()),
                _ => None,
            },
            _ => None,
        };
        if let Route::Index {
            column,
            kind,
            probe,
        } = route_scan(catalog, db, op, lone_pipeline_stages)
        {
            routed.nodes[i].op = PhysOp::IndexScan {
                db: db.clone(),
                relation: op.relation.clone(),
                column,
                kind,
                probe,
            };
        }
    }
    routed
}

/// Render the physical plan with fusion and join-strategy annotations —
/// the `EXPLAIN` section production engines print.
pub fn render_plan(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    let rref = |i: usize| format!("R({})", plan.nodes[i].row);
    for (i, node) in plan.nodes.iter().enumerate() {
        let desc = match &node.op {
            PhysOp::Scan { db, op } => format!("Scan[{db}] {op}"),
            PhysOp::IndexScan {
                db,
                relation,
                column,
                kind,
                probe,
            } => format!(
                "IndexScan[{db}] {relation} [ixscan {}] ({kind})",
                probe.render(&format!("{db}.{column}"))
            ),
            PhysOp::Pipeline { input, stages } => {
                let shown: Vec<String> = stages
                    .iter()
                    .map(|s| match &s.kind {
                        StageKind::Select { attr, cmp, value } => {
                            format!("Select[{attr} {cmp} {value}]@R({})", s.row)
                        }
                        StageKind::Restrict { x, cmp, y } => {
                            format!("Restrict[{x} {cmp} {y}]@R({})", s.row)
                        }
                        StageKind::Project { output, .. } => {
                            format!("Project[{}]@R({})", output.join(", "), s.row)
                        }
                    })
                    .collect();
                let fusion = if stages.len() > 1 {
                    format!(" (fused ×{})", stages.len())
                } else {
                    String::new()
                };
                format!(
                    "Pipeline over {} → {}{fusion}",
                    rref(*input),
                    shown.join(" → ")
                )
            }
            PhysOp::HashJoin {
                left,
                right,
                x,
                y,
                out,
            } => format!(
                "HashJoin[{l}.{x} = {r}.{y}, coalesce → {out}] (build {r}, probe {l})",
                l = rref(*left),
                r = rref(*right),
            ),
            PhysOp::ThetaJoin {
                left,
                right,
                x,
                cmp,
                y,
            } => format!(
                "NestedLoopJoin[{}.{x} {cmp} {}.{y}]",
                rref(*left),
                rref(*right)
            ),
            PhysOp::HashMerge {
                inputs,
                scheme,
                key,
                ..
            } => {
                let shown: Vec<String> = inputs.iter().map(|i| rref(*i)).collect();
                format!(
                    "HashMerge[{scheme} on {key}, {}-way single pass] over {}",
                    inputs.len(),
                    shown.join(", ")
                )
            }
            PhysOp::AntiJoin { left, right, x, y } => {
                format!("AntiJoin[{}.{x} = {}.{y}]", rref(*left), rref(*right))
            }
            PhysOp::Union { left, right } => format!("Union[{}, {}]", rref(*left), rref(*right)),
            PhysOp::Difference { left, right } => {
                format!("Difference[{}, {}]", rref(*left), rref(*right))
            }
            PhysOp::Intersect { left, right } => {
                format!("Intersect[{}, {}]", rref(*left), rref(*right))
            }
            PhysOp::Product { left, right } => {
                format!("Product[{}, {}]", rref(*left), rref(*right))
            }
        };
        let batch = if plan.is_batch_pipeline(i) {
            " [batch]"
        } else {
            ""
        };
        let marker = if i == plan.root { " ◀ answer" } else { "" };
        let _ = writeln!(out, "#{i:<2} {desc}{batch}  → R({}){marker}", node.row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::interpreter::interpret;
    use polygen_catalog::scenario;
    use polygen_lqp::scenario_registry;
    use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};

    /// One thread, one partition.
    fn serial() -> PqpOptions {
        PqpOptions::default().with_threads(1)
    }

    fn paper_plan(fuse: bool) -> PhysicalPlan {
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom = analyze(&parse_algebra(PAPER_EXPRESSION).unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        lower(
            &iom,
            &registry,
            &s.dictionary,
            &PqpOptions {
                retain_intermediates: !fuse,
                ..serial()
            },
        )
        .unwrap()
    }

    #[test]
    fn paper_query_lowers_with_hash_strategies() {
        let plan = paper_plan(true);
        let joins = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PhysOp::HashJoin { .. }))
            .count();
        assert_eq!(joins, 2, "both equi-joins lower to hash joins");
        let merges: Vec<_> = plan
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                PhysOp::HashMerge { inputs, key, .. } => Some((inputs.len(), key.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(merges, vec![(3, "ONAME".to_string())]);
    }

    #[test]
    fn fusion_collapses_restrict_project_tail() {
        let fused = paper_plan(true);
        let unfused = paper_plan(false);
        // Rows 9 (Restrict) and 10 (Project) fuse into one pipeline.
        assert_eq!(fused.fused_rows(), 1);
        assert!(fused.nodes.len() < unfused.nodes.len());
        assert_eq!(unfused.nodes.len(), 10, "no fusion → one node per row");
        // Both plans end at the final row.
        assert_eq!(fused.nodes[fused.root].row, 10);
        assert_eq!(unfused.nodes[unfused.root].row, 10);
    }

    #[test]
    fn planned_schemas_name_final_columns() {
        let plan = paper_plan(true);
        let root = &plan.nodes[plan.root];
        let attrs: Vec<&str> = root.schema.attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(attrs, vec!["ONAME", "CEO"]);
    }

    #[test]
    fn render_annotates_strategies_and_fusion() {
        let shown = render_plan(&paper_plan(true));
        assert!(shown.contains("HashJoin"), "{shown}");
        assert!(shown.contains("HashMerge[PORGANIZATION on ONAME, 3-way single pass]"));
        assert!(shown.contains("(fused ×2)"));
        assert!(shown.contains("◀ answer"));
    }

    #[test]
    fn pushdown_routes_eligible_select_scans() {
        use polygen_index::IndexSpec;
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let catalog = IndexCatalog::build(
            &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
            &registry,
            &s.dictionary,
        )
        .unwrap();
        let plan = paper_plan(true);
        let routed = route_index_scans(&plan, &catalog);
        assert_eq!(routed.index_scans(), 1, "the MBA select routes");
        assert!(matches!(
            &routed.nodes[0].op,
            PhysOp::IndexScan { db, column, kind: IndexKind::Hash, probe: Probe::Point(v), .. }
                if db == "AD" && column == "DEG" && *v == Value::str("MBA")
        ));
        // Everything else — and the scans' source set — is untouched.
        assert_eq!(plan.source_dbs(), routed.source_dbs());
        assert_eq!(plan.nodes.len(), routed.nodes.len());
        let shown = render_plan(&routed);
        assert!(
            shown.contains("IndexScan[AD] ALUMNUS [ixscan AD.DEG = MBA] (hash)"),
            "{shown}"
        );
        // An empty catalog routes nothing.
        assert_eq!(route_index_scans(&plan, &IndexCatalog::empty()), plan);
    }

    #[test]
    fn pushdown_rejects_non_sargable_and_unfaithful_scans() {
        use polygen_index::IndexSpec;
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let catalog = IndexCatalog::build(
            &[
                IndexSpec::hash("AD", "ALUMNUS", "DEG"),
                IndexSpec::hash("CD", "FIRM", "HQ"), // domain-rule column
            ],
            &registry,
            &s.dictionary,
        )
        .unwrap();
        let lower_expr = |expr: &str| {
            let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
            let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
            lower(&iom, &registry, &s.dictionary, &serial()).unwrap()
        };
        // `<>` is not sargable.
        let ne = lower_expr("PALUMNUS [DEGREE <> \"MBA\"]");
        assert_eq!(route_index_scans(&ne, &catalog).index_scans(), 0);
        // A range θ cannot ride hash postings.
        let range = lower_expr("PALUMNUS [DEGREE > \"MBA\"]");
        assert_eq!(route_index_scans(&range, &catalog).index_scans(), 0);
        // Selects over a merged scheme execute post-merge: the FIRM
        // retrieve is bare and feeds the merge, so nothing routes —
        // even though CD.FIRM.HQ is indexed (and, being rewritten by
        // the LastCommaToken domain rule, would be rejected as
        // raw-unfaithful if a filtered scan ever targeted it).
        assert!(!catalog.lookup("CD", "FIRM", "HQ").unwrap().raw_faithful());
        let firm = lower_expr("PORGANIZATION [HEADQUARTERS = \"NY\"]");
        assert_eq!(route_index_scans(&firm, &catalog).index_scans(), 0);
    }

    #[test]
    fn pushdown_folds_between_conjuncts_into_a_range_probe() {
        use polygen_index::IndexSpec;
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let catalog = IndexCatalog::build(
            &[IndexSpec::sorted("AD", "ALUMNUS", "AID#")],
            &registry,
            &s.dictionary,
        )
        .unwrap();
        // First select ships to the LQP; the second becomes a pipeline
        // stage — the foldable residual conjunct.
        let pom = analyze(&parse_algebra("PALUMNUS [AID# >= \"200\"] [AID# <= \"600\"]").unwrap())
            .unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        let plan = lower(&iom, &registry, &s.dictionary, &serial()).unwrap();
        let routed = route_index_scans(&plan, &catalog);
        assert_eq!(routed.index_scans(), 1);
        let PhysOp::IndexScan { probe, .. } = &routed.nodes[0].op else {
            panic!("scan not routed: {}", render_plan(&routed));
        };
        assert_eq!(
            probe.render("AID#"),
            "200 <= AID# <= 600",
            "both conjuncts folded into one range probe"
        );
        // The residual stage survives in the pipeline, re-checking its
        // conjunct over the (already-narrowed) probe output.
        assert!(matches!(
            &routed.nodes[1].op,
            PhysOp::Pipeline { stages, .. } if stages.len() == 1
        ));
    }

    #[test]
    fn shared_scan_does_not_fuse() {
        // A self-join's deduplicated retrieve feeds two consumers; the
        // select over it must not be fused into a shared node.
        let s = scenario::build();
        let registry = scenario_registry(&s);
        let pom = analyze(&parse_algebra("PCAREER [AID# = AID#] PCAREER").unwrap()).unwrap();
        let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
        let (opt, _) = crate::optimizer::optimize(&iom, &registry, &s.dictionary).unwrap();
        let plan = lower(&opt, &registry, &s.dictionary, &serial()).unwrap();
        // Deduped plan: one scan + one hash join over it twice.
        let scans = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PhysOp::Scan { .. }))
            .count();
        assert_eq!(scans, 1);
        if let PhysOp::HashJoin { left, right, .. } = &plan.nodes[plan.root].op {
            assert_eq!(left, right, "both sides read the shared scan");
        } else {
            panic!("root should be a hash join");
        }
    }
}
