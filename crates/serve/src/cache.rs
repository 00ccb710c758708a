//! The service's two caches: compiled plans and tagged results.
//!
//! **Plan cache** — keyed on the *canonical query text* (see
//! `polygen_sql::normalize`): whitespace, parenthesization and SQL
//! surface variation collapse onto one key, and the canonical printer's
//! round-trip property (`parse(print(e)) == e`) makes the key injective
//! on expression identity, so two different plans can never collide.
//! Values are `Arc`-shared [`CompiledQuery`] handles — compile once,
//! replay across every session (the runtime thread allotment is an
//! executor option, not part of the plan).
//!
//! **Tagged-result cache** — keyed on `(plan fingerprint × the version
//! vector of exactly the sources the plan reads)`. The paper's tagged
//! answers are ideal cache values: origin and intermediate tags are
//! *data*, deterministic per (plan, source contents), locked down
//! cell-exactly by the golden tables and differential suites — so a
//! cache hit returns the byte-identical answer a cold run would
//! produce. Every entry holds its answer as the exact `Schema` and
//! `Rows` frame bytes the wire sends ([`AnswerFrames`]), whoever filled
//! it: a wire hit writes them as they are, and an in-process hit decodes
//! them (frames the decoder refuses are that caller's miss). An answer
//! the wire cannot carry has no frames, so it is never cached.
//! Invalidation is precise: bumping one source's version makes
//! every key that mentions that source unreachable, and
//! [`ResultCache::invalidate_source`] / [`PlanCache::invalidate_source`]
//! eagerly purge those entries so the LRU doesn't carry dead weight.
//! (Plans cache schema resolution done against the snapshot's planned
//! schemas, so a source swap conservatively evicts plans reading it
//! too — an updated source may change relation schemas — and every
//! plan-cache hit is additionally validated against the serving
//! snapshot's versions via [`PlanEntry::compiled_versions`], so a plan
//! compiled against a pre-update snapshot and re-inserted after the
//! purge can never be served post-update.)
//!
//! Eviction is least-recently-used. The LRU here is a flat
//! map + recency tick with an O(capacity) eviction scan — eviction is
//! rare (only at capacity, on a miss) and capacities are service-sized
//! (hundreds), so the constant-time paths that matter (hit, insert
//! below capacity) stay a single hash probe under one mutex.

use crate::snapshot::VersionVector;
use crate::wire::AnswerFrames;
use polygen_pqp::pqp::CompiledQuery;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

/// One LRU slot: the value, its recency stamp, and how many times it
/// has been served (the `sys.cache` relation's per-entry hit column).
struct Slot<V> {
    value: V,
    used: u64,
    hits: u64,
}

/// A bounded least-recently-used map.
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Slot<V>>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.used = tick;
            slot.hits += 1;
            &slot.value
        })
    }

    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(
            key,
            Slot {
                value,
                used: self.tick,
                hits: 0,
            },
        );
    }

    /// Drop every entry matching `stale`; returns how many went.
    fn purge(&mut self, stale: impl Fn(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, slot| !stale(k, &slot.value));
        before - self.map.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A compiled, reusable plan plus the metadata its cache entries need.
pub struct PlanEntry {
    /// The canonical query text this plan was compiled from (shared —
    /// cache keys and result keys alias it rather than copying).
    pub canonical: Arc<str>,
    /// The compiled pipeline (POM → IOM → physical plan).
    pub compiled: CompiledQuery,
    /// Structural fingerprint of the physical plan.
    pub fingerprint: u64,
    /// The local databases the plan scans.
    pub reads: BTreeSet<String>,
    /// The versions of `reads` at compile time. A cache hit is only
    /// valid while the serving snapshot still agrees — this is what
    /// closes the insert-after-invalidate race: a plan compiled against
    /// a pre-update snapshot can be re-inserted after `update_source`
    /// purged the cache, but it can never be *served* against the
    /// post-update versions.
    pub compiled_versions: VersionVector,
    /// The snapshot's index-declaration epoch at compile time. Source
    /// updates bump versions, but *re-declaring* the index set does not
    /// — so this is the guard that keeps a plan routed against a
    /// previous catalog (possibly through a since-dropped index) from
    /// being served after `declare_indexes`, even if a racing compile
    /// re-inserts it behind the declare-time purge.
    pub index_epoch: u64,
}

/// Canonical-text → shared compiled plan.
pub struct PlanCache {
    /// Poison-tolerant: an entry is wholly in the map or absent (a
    /// `HashMap` stays valid when an operation unwinds), and a lost
    /// entry is only a miss.
    inner: Mutex<Lru<Arc<str>, Arc<PlanEntry>>>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Look a canonical text up, refreshing its recency. Callers must
    /// check the entry's [`PlanEntry::compiled_versions`] against their
    /// snapshot before executing it.
    pub fn get(&self, canonical: &str) -> Option<Arc<PlanEntry>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(canonical)
            .cloned()
    }

    /// Insert a freshly compiled plan (replacing any entry under the
    /// same canonical text — last writer wins; staleness is caught at
    /// hit time via [`PlanEntry::compiled_versions`]).
    pub fn insert(&self, entry: Arc<PlanEntry>) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(Arc::clone(&entry.canonical), entry);
    }

    /// Evict every plan that reads `source` (its schemas may have
    /// changed under an update). Returns the number evicted.
    pub fn invalidate_source(&self, source: &str) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .purge(|_, entry| entry.reads.contains(source))
    }

    /// Evict everything — called when the index catalog is re-declared,
    /// so cached plans routed through dropped indexes (or compiled
    /// before new ones existed) recompile against the current catalog.
    /// Returns the number evicted.
    pub fn clear(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .purge(|_, _| true)
    }

    /// Snapshot the cached entries with their per-entry hit counts
    /// (recency untouched) — the `sys.cache` relation's view.
    pub fn entries_with_hits(&self) -> Vec<(Arc<PlanEntry>, u64)> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .values()
            .map(|slot| (Arc::clone(&slot.value), slot.hits))
            .collect()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What identifies one cached tagged answer: which plan, compiled from
/// which canonical text (belt and braces against the u64 fingerprint
/// ever colliding), executed against which source versions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// [`polygen_pqp::plan::PhysicalPlan::fingerprint`] of the plan.
    pub fingerprint: u64,
    /// The plan's canonical query text (shared with its [`PlanEntry`]).
    pub canonical: Arc<str>,
    /// Versions of exactly the sources the plan reads, sorted.
    pub versions: VersionVector,
}

/// `(plan × source versions)` → the shared frames of a tagged answer.
pub struct ResultCache {
    /// Poison-tolerant, like [`PlanCache`]'s: a lost answer is a miss.
    inner: Mutex<Lru<ResultKey, Arc<AnswerFrames>>>,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` answers.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Look up a cached tagged answer's frames.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<AnswerFrames>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// Cache an answer's frames under its plan/version identity.
    pub fn insert(&self, key: ResultKey, frames: Arc<AnswerFrames>) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, frames);
    }

    /// Evict every answer whose dependency vector mentions `source` —
    /// called on a version bump, when all such entries are stale by
    /// construction. Returns the number evicted.
    pub fn invalidate_source(&self, source: &str) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .purge(|key, _| key.versions.iter().any(|(s, _)| s == source))
    }

    /// Snapshot the cached answer *keys* with their per-entry hit
    /// counts, row counts and encoded lengths (recency untouched) — the
    /// `sys.cache` relation's view. Answers themselves stay in the cache.
    pub fn entries_with_hits(&self) -> Vec<(ResultKey, u64, usize, usize)> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .iter()
            .map(|(k, slot)| {
                (
                    k.clone(),
                    slot.hits,
                    slot.value.rows(),
                    slot.value.bytes().len(),
                )
            })
            .collect()
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Poison the lock from a thread that panics holding it.
#[cfg(test)]
impl ResultCache {
    pub(crate) fn poison(&self) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = self.inner.lock();
                panic!("a holder of the result-cache lock panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(self.inner.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_core::relation::PolygenRelation;
    use polygen_flat::schema::Schema;

    /// The frames of an empty answer named `name`.
    fn frames(name: &str) -> Arc<AnswerFrames> {
        let schema = Arc::new(Schema::new(name, &["A"]).unwrap());
        Arc::new(AnswerFrames::encode(&PolygenRelation::empty(schema)).unwrap())
    }

    fn key(fp: u64, versions: &[(&str, u64)]) -> ResultKey {
        ResultKey {
            fingerprint: fp,
            canonical: Arc::from(format!("Q{fp}").as_str()),
            versions: versions.iter().map(|(s, v)| (s.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        let (a, b, c) = (key(1, &[]), key(2, &[]), key(3, &[]));
        cache.insert(a.clone(), frames("A"));
        cache.insert(b.clone(), frames("B"));
        // Touch A so B is the eviction victim.
        assert!(cache.get(&a).is_some());
        cache.insert(c.clone(), frames("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let cache = ResultCache::new(8);
        cache.insert(key(1, &[("CD", 0)]), frames("A"));
        assert!(cache.get(&key(1, &[("CD", 0)])).is_some());
        assert!(cache.get(&key(1, &[("CD", 1)])).is_none());
    }

    /// A hit shares the frames inserted, and `sys.cache`'s view counts
    /// hits, rows and those frames' bytes.
    #[test]
    fn hit_counts_track_gets_not_inserts() {
        let cache = ResultCache::new(4);
        let k = key(1, &[("CD", 0)]);
        let held = frames("AB");
        cache.insert(k.clone(), Arc::clone(&held));
        let entries = cache.entries_with_hits();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, 0, "insertion is not a hit");
        assert!(Arc::ptr_eq(&cache.get(&k).unwrap(), &held));
        assert!(cache.get(&k).is_some());
        assert!(cache.get(&key(9, &[])).is_none(), "miss counts nothing");
        let entries = cache.entries_with_hits();
        assert_eq!(entries[0].1, 2);
        assert_eq!(entries[0].2, 0, "empty answer has zero rows");
        assert_eq!(entries[0].3, held.bytes().len(), "the frames' bytes");
        assert_eq!(held.decode().unwrap().name(), "AB");
        // Re-inserting under the same key resets the entry's count.
        cache.insert(k.clone(), frames("AB"));
        assert_eq!(cache.entries_with_hits()[0].1, 0);
    }

    #[test]
    fn invalidate_source_purges_exactly_the_dependents() {
        let cache = ResultCache::new(8);
        cache.insert(key(1, &[("AD", 0), ("CD", 0)]), frames("A"));
        cache.insert(key(2, &[("AD", 0)]), frames("B"));
        cache.insert(key(3, &[("CD", 0)]), frames("C"));
        cache.insert(key(4, &[("PD", 0)]), frames("D"));
        assert_eq!(cache.invalidate_source("CD"), 2);
        assert!(cache.get(&key(1, &[("AD", 0), ("CD", 0)])).is_none());
        assert!(cache.get(&key(3, &[("CD", 0)])).is_none());
        assert!(cache.get(&key(2, &[("AD", 0)])).is_some());
        assert!(cache.get(&key(4, &[("PD", 0)])).is_some());
    }
}
