//! `tag_tax`: what do tags cost over the flat relational substrate?
//!
//! One pipeline — select, equi-join, project — over two seeded random
//! operands, run alternately through the tagged production kernels
//! (`ColumnBatch::select`, `hash_equi_join_coalesced`,
//! `TupleStream::project`) and through `polygen_flat::algebra`
//! (`select`, `equi_join_merged`, `project`) on the same data with the
//! tags stripped. In process, one thread, no `net`, no `serve`: the
//! control on which serving-layer changes predict no movement at all.

use crate::spans::Recorder;
use polygen_core::algebra::join::hash_equi_join_coalesced;
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_core::source::SourceId;
use polygen_core::stream::TupleStream;
use polygen_flat::algebra as flat;
use polygen_flat::relation::Relation;
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use polygen_workload::random_flat_relation;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attributes per operand.
const COLS: usize = 3;
/// Distinct values of the non-key attributes; the select keeps half.
const CARDINALITY: i64 = 50;

/// The two operands, tagged and flat.
pub struct Operands {
    left: ColumnBatch,
    right: PolygenRelation,
    flat_left: Relation,
    flat_right: Relation,
}

impl Operands {
    /// `rows` × 3 attributes per side, every cell tagged with one
    /// origin; the right side's attributes are `B0..B2`. These are the
    /// `tagging_overhead` fixtures (`random_flat_relation`, tagged at
    /// width 1 as `random_polygen_relation` tags them) with the join key
    /// spelled as a string, as the federation's own join keys are: on
    /// integer keys `polygen_flat::algebra::theta_join` re-sweeps its
    /// right operand for every left row, and the ratio would measure
    /// that sweep instead of the tags.
    pub fn generate(seed: u64, rows: usize) -> Result<Operands, String> {
        let operand = |seed: u64, name: &str, attrs: [&str; COLS]| -> Result<Relation, String> {
            let ints = random_flat_relation(seed, name, rows, COLS, CARDINALITY);
            let keyed = ints
                .rows()
                .iter()
                .map(|row| {
                    let mut row = row.clone();
                    row[0] = Value::str(format!("K{}", row[0]));
                    row
                })
                .collect();
            let schema = Schema::new(name, &attrs).map_err(|e| format!("schema: {e}"))?;
            Relation::from_rows(Arc::new(schema), keyed).map_err(|e| format!("operand: {e}"))
        };
        let flat_left = operand(seed ^ 11, "L", ["A0", "A1", "A2"])?;
        let flat_right = operand(seed ^ 23, "R", ["B0", "B1", "B2"])?;
        Ok(Operands {
            left: ColumnBatch::from_relation(PolygenRelation::from_flat(&flat_left, SourceId(0))),
            right: PolygenRelation::from_flat(&flat_right, SourceId(0)),
            flat_left,
            flat_right,
        })
    }

    /// The tagged pipeline, a span around each kernel.
    pub fn tagged(&self, rec: &mut Recorder, q: u32) -> Result<PolygenRelation, String> {
        let mut batch = self.left.clone();
        let pipeline = rec.begin("core.pipeline", None, q);
        let selected = rec
            .time("core.select", pipeline, q, || {
                batch
                    .select("A1", Cmp::Lt, &Value::Int(CARDINALITY / 2))
                    .map(|()| batch.into_relation())
            })
            .map_err(|e| format!("tagged select: {e}"))?;
        let joined = rec
            .time("core.join", pipeline, q, || {
                hash_equi_join_coalesced(&selected, &self.right, "A0", "B0", "K")
            })
            .map_err(|e| format!("tagged join: {e}"))?;
        let mut stream = TupleStream::from_relation(joined);
        let out = rec
            .time("core.project", pipeline, q, || {
                stream
                    .project(&["A1", "B2"])
                    .map(|()| stream.into_relation())
            })
            .map_err(|e| format!("tagged project: {e}"))?;
        rec.end(pipeline);
        Ok(out)
    }

    /// The same pipeline on the flat algebra.
    pub fn flat(&self, rec: &mut Recorder, q: u32) -> Result<Relation, String> {
        let pipeline = rec.begin("flat.pipeline", None, q);
        let selected = rec
            .time("flat.select", pipeline, q, || {
                flat::select(&self.flat_left, "A1", Cmp::Lt, Value::Int(CARDINALITY / 2))
            })
            .map_err(|e| format!("flat select: {e}"))?;
        let joined = rec
            .time("flat.join", pipeline, q, || {
                flat::equi_join_merged(&selected, &self.flat_right, "A0", "B0", "K")
            })
            .map_err(|e| format!("flat join: {e}"))?;
        let out = rec
            .time("flat.project", pipeline, q, || {
                flat::project(&joined, &["A1", "B2"])
            })
            .map_err(|e| format!("flat project: {e}"))?;
        rec.end(pipeline);
        Ok(out)
    }

    /// Is the tagged answer, tags stripped, the flat answer?
    pub fn agree(&self) -> Result<bool, String> {
        let mut off = Recorder::new(false);
        let tagged = self.tagged(&mut off, 0)?.strip().canonicalized();
        let flat = self.flat(&mut off, 0)?.canonicalized();
        Ok(!flat.is_empty() && tagged.rows() == flat.rows())
    }
}

/// Pipeline times over one window, nanoseconds, in run order.
#[derive(Debug, Default)]
pub struct Timings {
    /// Tagged pipelines run under `rec`.
    pub tagged_ns: Vec<u64>,
    /// Flat pipelines run under `rec`.
    pub flat_ns: Vec<u64>,
    /// Tagged pipelines run with no recorder — taken only when `rec`
    /// records, as the other side of `harness.span_overhead_ratio`.
    pub plain_tagged_ns: Vec<u64>,
    /// Flat pipelines run with no recorder, likewise.
    pub plain_flat_ns: Vec<u64>,
}

/// Alternate tagged and flat pipelines until `window` has passed.
pub fn timed_window(
    operands: &Operands,
    window: Duration,
    rec: &mut Recorder,
    traced: bool,
) -> Result<Timings, String> {
    let mut t = Timings::default();
    let mut off = Recorder::new(false);
    let open = Instant::now();
    let mut q = 0u32;
    fn timed(f: impl FnOnce() -> Result<usize, String>) -> Result<u64, String> {
        let start = Instant::now();
        std::hint::black_box(f()?);
        Ok(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
    while open.elapsed() < window {
        t.tagged_ns
            .push(timed(|| operands.tagged(rec, q).map(|r| r.len()))?);
        t.flat_ns
            .push(timed(|| operands.flat(rec, q).map(|r| r.len()))?);
        if traced {
            t.plain_tagged_ns
                .push(timed(|| operands.tagged(&mut off, q).map(|r| r.len()))?);
            t.plain_flat_ns
                .push(timed(|| operands.flat(&mut off, q).map(|r| r.len()))?);
        }
        q += 1;
    }
    Ok(t)
}
