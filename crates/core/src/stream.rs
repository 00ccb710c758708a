//! Streaming operator kernels over `Arc`-shared tuples.
//!
//! The eager algebra in [`crate::algebra`] materializes a fresh
//! [`PolygenRelation`] per operator, deep-cloning every cell (datum plus
//! two source sets) at every stage. The physical-plan executor in
//! `polygen-pqp` pipes tuples through fused Select/Restrict/Project
//! stages instead; this module supplies the carrier type it streams:
//! a [`TupleStream`] of `Arc<PolyTuple>`s.
//!
//! The sharing discipline is copy-on-write:
//!
//! * a stream freshly lifted from a relation owns its tuples uniquely, so
//!   tag updates mutate in place through [`Arc::make_mut`] — zero clones
//!   for an entire fused stage chain;
//! * a stream whose tuples are shared (a deduplicated scan feeding two
//!   consumers) clones only the tuples a stage actually mutates;
//! * a stage whose mediator tags are already present (chained restricts
//!   over the same sources) leaves the `Arc` untouched entirely.
//!
//! Every kernel is differential-tested against its eager counterpart —
//! the eager algebra stays the reference semantics.

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::tuple::{self, DataKey, PolyTuple};
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A tuple shared between pipeline stages without deep-cloning cells.
pub type SharedTuple = Arc<PolyTuple>;

/// A schema plus shared tuples — the unit of dataflow between physical
/// operators. Converting to/from [`PolygenRelation`] is free for uniquely
/// owned tuples and copy-on-write for shared ones.
#[derive(Debug, Clone)]
pub struct TupleStream {
    schema: Arc<Schema>,
    tuples: Vec<SharedTuple>,
}

impl TupleStream {
    /// Lift a relation into a stream (no cell clones — tuples move).
    pub fn from_relation(rel: PolygenRelation) -> Self {
        let schema = Arc::clone(rel.schema());
        let tuples = rel.into_tuples().into_iter().map(Arc::new).collect();
        TupleStream { schema, tuples }
    }

    /// The stream's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the stream empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Materialize a relation, leaving the stream intact (cells clone).
    pub fn to_relation(&self) -> PolygenRelation {
        let tuples = self.tuples.iter().map(|t| (**t).clone()).collect();
        PolygenRelation::from_tuples(Arc::clone(&self.schema), tuples)
            .expect("stream tuples match stream schema")
    }

    /// Materialize a relation, consuming the stream. Uniquely owned
    /// tuples move without cloning; shared ones copy.
    pub fn into_relation(self) -> PolygenRelation {
        let tuples = self
            .tuples
            .into_iter()
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone()))
            .collect();
        PolygenRelation::from_tuples(self.schema, tuples)
            .expect("stream tuples match stream schema")
    }

    /// Select stage: `p[x θ const]` with the paper's tag update, applied
    /// in place (same semantics as [`crate::algebra::select`]).
    pub fn select(&mut self, x: &str, cmp: Cmp, constant: &Value) -> Result<(), PolygenError> {
        let xi = self.schema.index_of(x)?.0;
        self.tuples.retain_mut(|t| {
            if !t[xi].datum.satisfies(cmp, constant) {
                return false;
            }
            let mediators = t[xi].origin.clone();
            tag_all(t, &mediators);
            true
        });
        Ok(())
    }

    /// Restrict stage: `p[x θ y]`, in place (same semantics as
    /// [`crate::algebra::restrict()`]).
    pub fn restrict(&mut self, x: &str, cmp: Cmp, y: &str) -> Result<(), PolygenError> {
        let xi = self.schema.index_of(x)?.0;
        let yi = self.schema.index_of(y)?.0;
        self.tuples.retain_mut(|t| {
            if !t[xi].datum.satisfies(cmp, &t[yi].datum) {
                return false;
            }
            let mediators = t[xi].origin.union(&t[yi].origin);
            tag_all(t, &mediators);
            true
        });
        Ok(())
    }

    /// Project stage: `p[X]` with the duplicate collapse (same semantics
    /// as [`crate::algebra::project()`]). Rows are keyed by their borrowed
    /// projected data; only a first occurrence builds an output tuple,
    /// and a later duplicate unions its tags into it.
    pub fn project(&mut self, attrs: &[&str]) -> Result<(), PolygenError> {
        let idx = self.schema.indices_of(attrs)?;
        let schema = Arc::new(self.schema.project(&idx, self.schema.name())?);
        // Identity projection (every column kept, in order — the shape a
        // rename-only output reduces to): when the data portion is
        // already duplicate-free, the rebuild and the duplicate collapse
        // are both no-ops, so the `Arc`-shared tuples are reused as-is.
        if idx.len() == self.schema.degree() && idx.iter().enumerate().all(|(k, &i)| k == i) {
            let mut seen = HashSet::with_capacity(self.tuples.len());
            if self
                .tuples
                .iter()
                .all(|t| seen.insert(DataKey::new(t, &idx)))
            {
                self.schema = schema;
                return Ok(());
            }
        }
        let tuples = tuple::project_rows(self.tuples.iter().map(|t| t.as_slice()), &idx);
        self.schema = schema;
        self.tuples = tuples.into_iter().map(Arc::new).collect();
        Ok(())
    }

    /// Relabel attributes positionally, keeping tuples shared (same
    /// semantics as [`PolygenRelation::rename_attrs`] — both delegate to
    /// [`Schema::relabeled_attrs`]).
    pub fn rename(&mut self, names: &[&str]) -> Result<(), PolygenError> {
        self.schema = Arc::new(self.schema.relabeled_attrs(names)?);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Partition-parallel execution support.
//
// The physical engine shards its operators across `std::thread::scope`
// workers: fused stage chains split into contiguous *chunks* (no key
// needed, concatenation restores the original order), hash join and hash
// Merge split into *hash partitions* on the join/merge key so matching
// tuples co-locate. Everything here is deterministic: the partition hash
// is the unsalted multiply-rotate `PartitionHasher` (no per-process
// randomness), chunking is contiguous, and the consumers reassemble
// outputs in the original order, so a parallel run is byte-identical to
// the sequential one.
// ---------------------------------------------------------------------

/// The parallelism knobs a partitioned kernel runs under: how many
/// worker threads to spawn and how many partitions to split into.
/// `partitions == 1` means "exactly the sequential code path".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Partition count (clamped to ≥ 1). May exceed `threads`: extra
    /// partitions deal round-robin onto the workers, which is the knob
    /// for rebalancing a key-skewed load.
    pub partitions: usize,
}

impl ParallelOptions {
    /// Sequential execution (one worker, one partition).
    pub fn serial() -> Self {
        ParallelOptions {
            threads: 1,
            partitions: 1,
        }
    }

    /// `threads` workers over `threads` partitions.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelOptions {
            threads,
            partitions: threads,
        }
    }

    /// Resolve 0-valued ("auto") knobs: `threads == 0` falls back to
    /// [`default_thread_count`], `partitions == 0` to the thread count.
    pub fn resolved(threads: usize, partitions: usize) -> Self {
        let threads = if threads == 0 {
            default_thread_count()
        } else {
            threads
        };
        let partitions = if partitions == 0 { threads } else { partitions };
        ParallelOptions {
            threads,
            partitions,
        }
    }

    /// Does this configuration actually split work?
    pub fn is_parallel(&self) -> bool {
        self.partitions > 1
    }
}

/// The thread count "auto" resolves to: the `POLYGEN_THREADS` environment
/// variable when set to a positive integer (how CI pins both legs of the
/// test matrix), otherwise [`std::thread::available_parallelism`].
///
/// Resolved once per process and cached — "auto" sits on the per-query
/// hot path (every `PqpOptions::parallelism()` call lands here), and
/// both inputs are process-constant, so there is no reason to re-read
/// the environment on every query.
pub fn default_thread_count() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        match std::env::var("POLYGEN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Deterministic multiply-rotate hasher (FxHash-style). The partitioner
/// hashes every input tuple's key on the sequential side of a kernel, so
/// it needs speed and run-to-run stability — not the DoS resistance the
/// in-kernel `HashMap`s get from SipHash. The assignment is stable
/// run-to-run (no per-process salt), which is all correctness needs —
/// output order is reconstructed independently of where tuples landed.
struct PartitionHasher {
    hash: u64,
}

impl PartitionHasher {
    fn new() -> Self {
        PartitionHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PartitionHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic hash partitioner. The same datum maps to the same
/// partition in every run and on every thread count (a fixed
/// multiply-rotate hash — *not* `RandomState`), which is what lets a
/// partitioned kernel reassemble an output identical to the sequential
/// engine's.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    partitions: usize,
}

impl Partitioner {
    /// A partitioner over `partitions` buckets (clamped to ≥ 1).
    pub fn new(partitions: usize) -> Self {
        Partitioner {
            partitions: partitions.max(1),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition a key datum belongs to. All `nil`s co-locate (they
    /// hash identically), which keeps the Merge kernel's nil-row ordering
    /// reconstructible.
    fn index_of(&self, key: &Value) -> usize {
        let mut h = PartitionHasher::new();
        key.hash(&mut h);
        (h.finish() % self.partitions as u64) as usize
    }

    /// Hash a whole key column in one contiguous pass, returning each
    /// row's partition. The partitioned join/merge kernels precompute
    /// this over the key column and then scatter rows with plain array
    /// reads, instead of re-entering the hasher row by row in the middle
    /// of the scatter loop.
    pub fn bucket_indices<'a, I>(&self, keys: I) -> Vec<usize>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        keys.into_iter().map(|k| self.index_of(k)).collect()
    }

    /// Split any item vector into `partitions` contiguous,
    /// order-preserving chunks (trailing chunks may be empty). Items
    /// move — nothing is cloned; concatenating the chunks restores the
    /// input. One partition hands `items` back as the only chunk, so the
    /// sequential path pays no copy.
    pub fn chunk_vec<T>(&self, items: Vec<T>) -> Vec<Vec<T>> {
        if self.partitions == 1 {
            return vec![items];
        }
        let per = items.len().div_ceil(self.partitions).max(1);
        let mut chunks = Vec::with_capacity(self.partitions);
        let mut iter = items.into_iter();
        for _ in 0..self.partitions {
            chunks.push(iter.by_ref().take(per).collect::<Vec<T>>());
        }
        debug_assert!(iter.next().is_none(), "chunking covered every item");
        chunks
    }

    /// [`Partitioner::chunk_vec`] over a stream's shared tuples.
    /// [`concat_streams`] of the chunks restores the input.
    pub fn chunk_stream(&self, stream: TupleStream) -> Vec<TupleStream> {
        let TupleStream { schema, tuples } = stream;
        self.chunk_vec(tuples)
            .into_iter()
            .map(|chunk| TupleStream {
                schema: Arc::clone(&schema),
                tuples: chunk,
            })
            .collect()
    }
}

/// Reassemble streams produced by [`Partitioner::chunk_stream`] (or any
/// schema-identical splits) back into one stream, in the given order.
pub fn concat_streams(parts: Vec<TupleStream>) -> Option<TupleStream> {
    let mut parts = parts.into_iter();
    let mut first = parts.next()?;
    for p in parts {
        debug_assert_eq!(
            first.schema.as_ref(),
            p.schema.as_ref(),
            "concatenated parts share a schema"
        );
        first.tuples.extend(p.tuples);
    }
    Some(first)
}

/// Map `f` over `items` on up to `workers` scoped threads, preserving
/// input order in the result. Items deal round-robin onto the workers
/// (item `i` → worker `i % workers`), so with more items than workers a
/// skewed load still spreads. With one worker (or ≤ 1 item) no thread is
/// spawned and `f` runs inline — the sequential path costs nothing extra.
pub fn scoped_map<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut buckets: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push((i, item));
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("partition worker panicked") {
                out[i] = Some(t);
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("every item mapped"))
        .collect()
}

/// Add `mediators` to every cell's intermediate set, copy-on-write: a
/// no-op when the tags are already present (chained stages over the same
/// sources), an in-place mutation when the tuple is uniquely owned, and a
/// clone-then-mutate only when the tuple is genuinely shared.
fn tag_all(t: &mut SharedTuple, mediators: &SourceSet) {
    if mediators.is_empty() {
        return;
    }
    if t.iter().all(|c| mediators.is_subset(&c.intermediate)) {
        return;
    }
    let cells: &mut PolyTuple = Arc::make_mut(t);
    tuple::add_intermediate_all(cells, mediators);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;

    fn base() -> PolygenRelation {
        let f = Relation::build("ALUMNUS", &["ANAME", "DEG", "ORG"])
            .row(&["Bob Swanson", "MBA", "Genentech"])
            .row(&["Stu Madnick", "MBA", "MIT"])
            .row(&["Ken Olsen", "MS", "DEC"])
            .row(&["John Reed", "MBA", "Citicorp"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, SourceId(0))
    }

    #[test]
    fn select_matches_eager() {
        let rel = base();
        let eager = algebra::select(&rel, "DEG", Cmp::Eq, Value::str("MBA")).unwrap();
        let mut s = TupleStream::from_relation(rel);
        s.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
        assert!(s.into_relation().tagged_set_eq(&eager));
    }

    #[test]
    fn restrict_matches_eager() {
        let rel = base();
        let eager = algebra::restrict(&rel, "ANAME", Cmp::Ne, "ORG").unwrap();
        let mut s = TupleStream::from_relation(rel);
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        assert!(s.into_relation().tagged_set_eq(&eager));
    }

    #[test]
    fn project_matches_eager_including_dedup() {
        let rel = base();
        let eager = algebra::project(&rel, &["DEG"]).unwrap();
        let mut s = TupleStream::from_relation(rel);
        s.project(&["DEG"]).unwrap();
        let got = s.into_relation();
        assert_eq!(got.len(), 2, "duplicates collapsed");
        assert!(got.tagged_set_eq(&eager));
    }

    #[test]
    fn fused_chain_matches_eager_chain() {
        let rel = base();
        let eager = {
            let a = algebra::select(&rel, "DEG", Cmp::Eq, Value::str("MBA")).unwrap();
            let b = algebra::restrict(&a, "ANAME", Cmp::Ne, "ORG").unwrap();
            algebra::project(&b, &["ANAME", "ORG"]).unwrap()
        };
        let mut s = TupleStream::from_relation(rel);
        s.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        s.project(&["ANAME", "ORG"]).unwrap();
        assert!(s.into_relation().tagged_set_eq(&eager));
    }

    #[test]
    fn shared_tuples_copy_on_write() {
        let rel = base();
        let pristine = rel.clone();
        let s = TupleStream::from_relation(rel);
        // Two consumers of the same stream: mutating one must not leak
        // tag updates into the other.
        let mut a = s.clone();
        let b = s.clone();
        a.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
        assert!(b.to_relation().tagged_set_eq(&pristine));
        // The selected copy did gain the mediator tags.
        let sel = a.into_relation();
        assert!(sel.tuples()[0][2].intermediate.contains(SourceId(0)));
    }

    #[test]
    fn repeated_stage_skips_redundant_tagging_without_drift() {
        let rel = base();
        let eager = {
            let once = algebra::restrict(&rel, "ANAME", Cmp::Ne, "ORG").unwrap();
            algebra::restrict(&once, "ANAME", Cmp::Ne, "ORG").unwrap()
        };
        let mut s = TupleStream::from_relation(rel);
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        assert!(s.into_relation().tagged_set_eq(&eager));
    }

    #[test]
    fn identity_projection_reuses_shared_tuples() {
        let rel = base();
        let mut s = TupleStream::from_relation(rel.clone());
        let before: Vec<_> = s.tuples.iter().map(Arc::clone).collect();
        s.project(&["ANAME", "DEG", "ORG"]).unwrap();
        for (a, b) in s.tuples.iter().zip(&before) {
            assert!(Arc::ptr_eq(a, b), "tuples reused, not rebuilt");
        }
        assert_eq!(s.to_relation().tuples(), rel.tuples());
        // A duplicate-bearing stream still takes the rebuild + collapse
        // path even when the projection is the identity.
        let mut tuples = rel.clone().into_tuples();
        tuples.push(tuples[0].clone());
        let dup = PolygenRelation::from_tuples(Arc::clone(rel.schema()), tuples).unwrap();
        let eager = algebra::project(&dup, &["ANAME", "DEG", "ORG"]).unwrap();
        let mut d = TupleStream::from_relation(dup);
        d.project(&["ANAME", "DEG", "ORG"]).unwrap();
        assert_eq!(d.len(), 4, "duplicate collapsed");
        assert!(d.into_relation().tagged_set_eq(&eager));
    }

    #[test]
    fn bucket_indices_match_per_row_hashing() {
        let rel = base();
        let parter = Partitioner::new(4);
        let keys: Vec<&Value> = rel.tuples().iter().map(|t| &t[1].datum).collect();
        let buckets = parter.bucket_indices(keys.iter().copied());
        assert_eq!(buckets.len(), rel.len());
        for (bucket, key) in buckets.iter().zip(&keys) {
            assert_eq!(*bucket, parter.index_of(key));
        }
    }

    #[test]
    fn chunk_vec_covers_and_preserves_order() {
        let items: Vec<usize> = (0..23).collect();
        for p in [1usize, 2, 5, 23, 64] {
            let chunks = Partitioner::new(p).chunk_vec(items.clone());
            assert_eq!(chunks.len(), p);
            let back: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(back, items, "partitions = {p}");
        }
    }

    #[test]
    fn chunk_vec_at_one_partition_returns_its_input() {
        let items: Vec<usize> = (0..23).collect();
        let (ptr, cap) = (items.as_ptr(), items.capacity());
        let chunks = Partitioner::new(1).chunk_vec(items);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].as_ptr(), ptr, "the same allocation, not a copy");
        assert_eq!(chunks[0].capacity(), cap);
    }

    #[test]
    fn chunking_roundtrips_in_order() {
        let rel = base();
        let s = TupleStream::from_relation(rel.clone());
        for p in [1usize, 2, 3, 8] {
            let chunks = Partitioner::new(p).chunk_stream(s.clone());
            assert_eq!(chunks.len(), p);
            let back = concat_streams(chunks).unwrap();
            assert_eq!(back.to_relation().tuples(), rel.tuples(), "order preserved");
        }
    }

    #[test]
    fn key_split_colocates_equal_keys_deterministically() {
        let rel = base();
        let parter = Partitioner::new(4);
        let buckets = parter.bucket_indices(rel.tuples().iter().map(|t| &t[1].datum));
        // Every MBA row landed in the same partition.
        let mba = parter.index_of(&Value::str("MBA"));
        for (t, bucket) in rel.tuples().iter().zip(&buckets) {
            assert!(*bucket < 4);
            if t[1].datum == Value::str("MBA") {
                assert_eq!(*bucket, mba);
            }
        }
        // Same assignment on a fresh partitioner (no per-process salt).
        assert_eq!(Partitioner::new(4).index_of(&Value::str("MBA")), mba);
    }

    #[test]
    fn scoped_map_preserves_order_across_worker_counts() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 2).collect();
        for workers in [1usize, 2, 4, 16, 64] {
            let got = scoped_map(items.clone(), workers, |i, item| {
                assert_eq!(i, item);
                item * 2
            });
            assert_eq!(got, expect, "workers = {workers}");
        }
        let empty: Vec<usize> = scoped_map(Vec::new(), 4, |_, item: usize| item);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_options_resolution() {
        assert_eq!(ParallelOptions::serial().partitions, 1);
        assert!(!ParallelOptions::serial().is_parallel());
        let p = ParallelOptions::with_threads(4);
        assert_eq!((p.threads, p.partitions), (4, 4));
        assert!(p.is_parallel());
        let r = ParallelOptions::resolved(2, 0);
        assert_eq!((r.threads, r.partitions), (2, 2));
        let r = ParallelOptions::resolved(2, 8);
        assert_eq!((r.threads, r.partitions), (2, 8));
        let auto = ParallelOptions::resolved(0, 0);
        assert!(auto.threads >= 1 && auto.partitions == auto.threads);
    }

    #[test]
    fn rename_matches_rename_attrs() {
        let rel = base();
        let eager = rel.rename_attrs(&["N", "D", "O"]).unwrap();
        let mut s = TupleStream::from_relation(rel);
        s.rename(&["N", "D", "O"]).unwrap();
        assert!(s.rename(&["ONLY"]).is_err(), "arity checked");
        let got = s.into_relation();
        assert!(got.tagged_set_eq(&eager));
    }
}
