//! Source identity and source sets — the "gen" in polygen.
//!
//! §II: each cell of a polygen relation carries two sets of local databases
//! (LDs): `c(o)`, "the local databases from which the datum originates",
//! and `c(i)`, "the intermediate local databases whose data led to the
//! selection of the datum". The paper targets "a federated database
//! environment with hundreds of databases", so the set type matters:
//!
//! * [`SourceId`] — a registry-interned identifier for one local database.
//! * [`SourceRegistry`] — the name ↔ id intern table (part of the CIS data
//!   dictionary of Figure 1).
//! * [`SourceSet`] — the workhorse: a bitset storing up to 128 sources
//!   inline (two machine words, no heap traffic on the tag-update hot path)
//!   and spilling to a heap vector of words beyond that. Every polygen
//!   operator unions these sets per cell, so `union_with` is the hottest
//!   operation in the entire system.
//!
//! The [`alt`] submodule provides two deliberately naive alternative
//! representations (sorted vector, B-tree set) behind a common trait, used
//! by the `sourceset_repr` benchmark to quantify the representation choice
//! (an ablation called out in `DESIGN.md`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of one local database (LD), interned in a [`SourceRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u16);

impl SourceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Intern table mapping local-database names ("AD", "PD", "CD", …) to
/// [`SourceId`]s. One registry exists per federation and is shared via
/// `Arc` by the catalog, the LQP registry and the renderer.
#[derive(Debug, Default, Clone)]
pub struct SourceRegistry {
    names: Vec<Arc<str>>,
    /// name → id index; without it every `intern` linear-scans `names`
    /// and registry build-up for an n-source federation is O(n²).
    by_name: HashMap<Arc<str>, SourceId>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, returning the existing id when already present.
    pub fn intern(&mut self, name: &str) -> SourceId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = SourceId(u16::try_from(self.names.len()).expect("more than 65535 sources"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// Find an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<SourceId> {
        self.by_name.get(name).copied()
    }

    /// The name of an id (panics on a foreign id — ids only come from
    /// `intern`).
    pub fn name(&self, id: SourceId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned sources.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (SourceId(i as u16), n.as_ref()))
    }

    /// Render a source set as the paper prints them: `{AD, CD}`.
    pub fn render_set(&self, set: &SourceSet) -> String {
        let mut out = String::from("{");
        for (i, id) in set.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(self.name(id));
        }
        out.push('}');
        out
    }
}

const INLINE_WORDS: usize = 2;
const INLINE_BITS: usize = INLINE_WORDS * 64;

/// A set of [`SourceId`]s: two inline words (sources 0–127), heap beyond.
#[derive(Clone)]
enum Repr {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// The set type carried twice by every polygen cell.
///
/// Canonical-form invariant (maintained by every mutator): the heap
/// representation is used only when a bit at index ≥ 128 is set, and never
/// has trailing zero words — so `Eq`/`Hash` can compare representations
/// directly.
#[derive(Clone)]
pub struct SourceSet(Repr);

impl SourceSet {
    /// The empty set (the intermediate tag of every freshly retrieved
    /// cell — "sources are tagged after data has been retrieved").
    pub fn empty() -> Self {
        SourceSet(Repr::Inline([0; INLINE_WORDS]))
    }

    /// A one-element set (the origin tag of a retrieved cell).
    pub fn singleton(id: SourceId) -> Self {
        let mut s = SourceSet::empty();
        s.insert(id);
        s
    }

    /// Build from any id iterator.
    pub fn from_ids<I: IntoIterator<Item = SourceId>>(ids: I) -> Self {
        let mut s = SourceSet::empty();
        for id in ids {
            s.insert(id);
        }
        s
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline(w) => w,
            Repr::Heap(v) => v,
        }
    }

    /// Insert one id.
    pub fn insert(&mut self, id: SourceId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        match &mut self.0 {
            Repr::Inline(w) if id.index() < INLINE_BITS => {
                w[word] |= 1 << bit;
            }
            Repr::Inline(w) => {
                let mut v = w.to_vec();
                v.resize(word + 1, 0);
                v[word] |= 1 << bit;
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => {
                if v.len() <= word {
                    v.resize(word + 1, 0);
                }
                v[word] |= 1 << bit;
            }
        }
        self.canonicalize();
    }

    /// In-place union — the hot path of Restrict, Union, Difference,
    /// Coalesce and the outer joins.
    pub fn union_with(&mut self, other: &SourceSet) {
        match (&mut self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x |= y;
                }
            }
            (Repr::Heap(a), rhs) => {
                let bw = match rhs {
                    Repr::Inline(w) => &w[..],
                    Repr::Heap(v) => v,
                };
                if a.len() < bw.len() {
                    a.resize(bw.len(), 0);
                }
                for (x, y) in a.iter_mut().zip(bw) {
                    *x |= y;
                }
            }
            (lhs @ Repr::Inline(_), Repr::Heap(b)) => {
                let mut v = b.clone();
                if let Repr::Inline(a) = lhs {
                    for (i, x) in a.iter().enumerate() {
                        v[i] |= x;
                    }
                }
                *lhs = Repr::Heap(v);
            }
        }
        self.canonicalize();
    }

    /// The union of two sets (allocating convenience form).
    pub fn union(&self, other: &SourceSet) -> SourceSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Membership test.
    pub fn contains(&self, id: SourceId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        self.words().get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is this the empty set?
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &SourceSet) -> bool {
        let (a, b) = (self.words(), other.words());
        a.iter()
            .enumerate()
            .all(|(i, &w)| w & !b.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterate ids in ascending order, visiting only the set bits.
    pub fn iter(&self) -> impl Iterator<Item = SourceId> + '_ {
        Members {
            words: self.words().iter().enumerate(),
            word: 0,
            base: 0,
        }
    }

    /// Restore the canonical-form invariant after mutation.
    fn canonicalize(&mut self) {
        if let Repr::Heap(v) = &mut self.0 {
            while v.len() > INLINE_WORDS && *v.last().expect("nonempty") == 0 {
                v.pop();
            }
            if v.len() <= INLINE_WORDS {
                let mut w = [0u64; INLINE_WORDS];
                w[..v.len()].copy_from_slice(v);
                self.0 = Repr::Inline(w);
            }
        }
    }
}

/// [`SourceSet::iter`]: each step takes the lowest set bit of the
/// current word and clears it, so a set costs its members, not its width.
struct Members<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// The current word's bits not yet yielded.
    word: u64,
    /// The id of the current word's bit 0.
    base: usize,
}

impl Iterator for Members<'_> {
    type Item = SourceId;

    fn next(&mut self) -> Option<SourceId> {
        while self.word == 0 {
            let (index, &word) = self.words.next()?;
            self.word = word;
            self.base = index * 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(SourceId((self.base + bit) as u16))
    }
}

impl Default for SourceSet {
    fn default() -> Self {
        SourceSet::empty()
    }
}

impl PartialEq for SourceSet {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}
impl Eq for SourceSet {}

impl PartialOrd for SourceSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SourceSet {
    /// Lexicographic on ascending member ids — a stable order for relation
    /// canonicalization in tests.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl std::hash::Hash for SourceSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

impl fmt::Debug for SourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<SourceId> for SourceSet {
    fn from_iter<I: IntoIterator<Item = SourceId>>(iter: I) -> Self {
        SourceSet::from_ids(iter)
    }
}

pub mod alt {
    //! Alternative source-set representations for the ablation benchmark.
    //!
    //! The paper never discusses the tag-set data structure (in 1990 three
    //! databases fit in anything); with "hundreds of databases" the choice
    //! shows. `sourceset_repr` benches these against the bitset.

    use super::SourceId;
    use std::collections::BTreeSet;

    /// Minimal set interface shared by all representations.
    pub trait TagSet: Clone + Default {
        /// Insert one id.
        fn insert_id(&mut self, id: SourceId);
        /// In-place union.
        fn union_with_set(&mut self, other: &Self);
        /// Membership.
        fn contains_id(&self, id: SourceId) -> bool;
        /// Cardinality.
        fn card(&self) -> usize;
    }

    impl TagSet for super::SourceSet {
        fn insert_id(&mut self, id: SourceId) {
            self.insert(id);
        }
        fn union_with_set(&mut self, other: &Self) {
            self.union_with(other);
        }
        fn contains_id(&self, id: SourceId) -> bool {
            self.contains(id)
        }
        fn card(&self) -> usize {
            self.len()
        }
    }

    /// Sorted-`Vec` representation (cache friendly, O(n) merge).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SortedVecSet(pub Vec<u16>);

    impl TagSet for SortedVecSet {
        fn insert_id(&mut self, id: SourceId) {
            if let Err(pos) = self.0.binary_search(&id.0) {
                self.0.insert(pos, id.0);
            }
        }
        fn union_with_set(&mut self, other: &Self) {
            let mut merged = Vec::with_capacity(self.0.len() + other.0.len());
            let (mut i, mut j) = (0, 0);
            while i < self.0.len() && j < other.0.len() {
                match self.0[i].cmp(&other.0[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(self.0[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(other.0[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(self.0[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&self.0[i..]);
            merged.extend_from_slice(&other.0[j..]);
            self.0 = merged;
        }
        fn contains_id(&self, id: SourceId) -> bool {
            self.0.binary_search(&id.0).is_ok()
        }
        fn card(&self) -> usize {
            self.0.len()
        }
    }

    /// `BTreeSet` representation (pointer-chasing baseline).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct BTreeTagSet(pub BTreeSet<u16>);

    impl TagSet for BTreeTagSet {
        fn insert_id(&mut self, id: SourceId) {
            self.0.insert(id.0);
        }
        fn union_with_set(&mut self, other: &Self) {
            self.0.extend(other.0.iter().copied());
        }
        fn contains_id(&self, id: SourceId) -> bool {
            self.0.contains(&id.0)
        }
        fn card(&self) -> usize {
            self.0.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> SourceSet {
        v.iter().map(|&i| SourceId(i)).collect()
    }

    #[test]
    fn registry_interns_and_looks_up() {
        let mut reg = SourceRegistry::new();
        let ad = reg.intern("AD");
        let pd = reg.intern("PD");
        assert_eq!(reg.intern("AD"), ad);
        assert_ne!(ad, pd);
        assert_eq!(reg.name(ad), "AD");
        assert_eq!(reg.lookup("PD"), Some(pd));
        assert_eq!(reg.lookup("CD"), None);
        assert_eq!(reg.len(), 2);
        let names: Vec<&str> = reg.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["AD", "PD"]);
    }

    #[test]
    fn render_matches_paper_style() {
        let mut reg = SourceRegistry::new();
        let ad = reg.intern("AD");
        let cd = reg.intern("CD");
        assert_eq!(reg.render_set(&SourceSet::empty()), "{}");
        assert_eq!(reg.render_set(&SourceSet::singleton(ad)), "{AD}");
        assert_eq!(reg.render_set(&SourceSet::from_ids([cd, ad])), "{AD, CD}");
    }

    #[test]
    fn empty_singleton_basics() {
        let e = SourceSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let s = SourceSet::singleton(SourceId(7));
        assert!(!s.is_empty());
        assert!(s.contains(SourceId(7)));
        assert!(!s.contains(SourceId(8)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_inline() {
        let mut a = ids(&[1, 5]);
        a.union_with(&ids(&[5, 100]));
        assert_eq!(a, ids(&[1, 5, 100]));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn spills_to_heap_beyond_128() {
        let mut a = ids(&[3]);
        a.insert(SourceId(300));
        assert!(a.contains(SourceId(3)));
        assert!(a.contains(SourceId(300)));
        assert_eq!(a.len(), 2);
        // Union heap ∪ inline and inline ∪ heap agree.
        let b = ids(&[64]);
        let mut h1 = a.clone();
        h1.union_with(&b);
        let mut h2 = b.clone();
        h2.union_with(&a);
        assert_eq!(h1, h2);
        assert_eq!(h1.len(), 3);
    }

    #[test]
    fn canonical_equality_across_reprs() {
        // Build {5} the long way round through a heap spill.
        let mut via_heap = ids(&[5, 300]);
        // There is no removal; emulate by constructing a heap with zero
        // trailing words through union of disjoint low sets.
        let direct = ids(&[5, 300]);
        via_heap.union_with(&ids(&[]));
        assert_eq!(via_heap, direct);
        use std::collections::HashSet;
        let mut hs = HashSet::new();
        hs.insert(via_heap);
        hs.insert(direct);
        assert_eq!(hs.len(), 1);
    }

    #[test]
    fn subset_and_order() {
        assert!(ids(&[1]).is_subset(&ids(&[1, 2])));
        assert!(!ids(&[1, 3]).is_subset(&ids(&[1, 2])));
        assert!(ids(&[]).is_subset(&ids(&[])));
        assert!(ids(&[1]).is_subset(&ids(&[1, 300])));
        assert!(!ids(&[300]).is_subset(&ids(&[1])));
        assert!(ids(&[1, 2]) < ids(&[1, 3]));
        assert!(ids(&[]) < ids(&[0]));
    }

    #[test]
    fn iter_ascending() {
        let s = ids(&[130, 2, 64, 7]);
        let got: Vec<u16> = s.iter().map(|i| i.0).collect();
        assert_eq!(got, vec![2, 7, 64, 130]);
    }

    /// The set-bit walk against a naive membership scan over every id
    /// the set could hold, on seeded sets: empty, inline, and spilled
    /// through the word boundaries 127/128 up to id 65535. `Ord` and
    /// `render_set` ride on the walk, so they are held to the naive
    /// member lists too.
    #[test]
    fn iter_matches_a_naive_membership_scan() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut sets = vec![
            SourceSet::empty(),
            ids(&[0, 63, 64, 127]),
            ids(&[127, 128]),
            ids(&[1000]),
            ids(&[65535]),
            ids(&[0, 127, 128, 1000, 65535]),
        ];
        for _ in 0..200 {
            let width = [64, 128, 129, 1001, 65536][(next() % 5) as usize];
            let members = next() % 12;
            sets.push(
                (0..members)
                    .map(|_| SourceId((next() % width) as u16))
                    .collect(),
            );
        }
        let naive = |s: &SourceSet| -> Vec<u16> {
            (0..=u16::MAX)
                .filter(|&i| s.contains(SourceId(i)))
                .collect()
        };
        let mut registry = SourceRegistry::new();
        for i in 0..=u16::MAX {
            registry.intern(&format!("S{i}"));
        }
        let lists: Vec<Vec<u16>> = sets.iter().map(naive).collect();
        for (set, list) in sets.iter().zip(&lists) {
            let walked: Vec<u16> = set.iter().map(|id| id.0).collect();
            assert_eq!(&walked, list, "{set:?}");
            assert_eq!(set.len(), list.len());
            let names: Vec<String> = list.iter().map(|i| format!("S{i}")).collect();
            assert_eq!(
                registry.render_set(set),
                format!("{{{}}}", names.join(", "))
            );
        }
        for (a, la) in sets.iter().zip(&lists) {
            for (b, lb) in sets.iter().zip(&lists) {
                assert_eq!(a.cmp(b), la.cmp(lb), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let a = ids(&[1, 70, 129]);
        let b = ids(&[0, 70, 200]);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&a), a);
        assert_eq!(a.union(&SourceSet::empty()), a);
    }

    #[test]
    fn alt_representations_agree() {
        use alt::{BTreeTagSet, SortedVecSet, TagSet};
        fn exercise<T: TagSet>() -> (usize, bool, bool) {
            let mut a = T::default();
            a.insert_id(SourceId(3));
            a.insert_id(SourceId(1));
            a.insert_id(SourceId(3));
            let mut b = T::default();
            b.insert_id(SourceId(2));
            b.insert_id(SourceId(1));
            a.union_with_set(&b);
            (
                a.card(),
                a.contains_id(SourceId(2)),
                a.contains_id(SourceId(9)),
            )
        }
        assert_eq!(exercise::<SourceSet>(), (3, true, false));
        assert_eq!(exercise::<SortedVecSet>(), (3, true, false));
        assert_eq!(exercise::<BTreeTagSet>(), (3, true, false));
    }
}
