//! Immutable federation snapshots with per-source versioning.
//!
//! Every query in the service executes against a [`FederationSnapshot`]:
//! an `Arc`-shared data dictionary plus an `Arc`-shared LQP registry,
//! stamped with a *version vector* — one monotone counter per local
//! database. Sessions never deep-clone catalog or source state; opening
//! a snapshot is two `Arc` clones, and a query holds its snapshot alive
//! for exactly as long as it runs, so a concurrent source update can
//! never mutate state out from under an executing plan.
//!
//! The mutable head lives in [`Federation`]: updating a source builds a
//! *new* snapshot (re-pointing every unchanged LQP by `Arc`, swapping
//! the updated one in) and bumps that source's version. Old snapshots
//! stay valid for in-flight queries; the version bump is what makes the
//! result cache's `(plan fingerprint × version vector)` keys precise —
//! a cached tagged answer is served only while every source it was
//! computed from is still at the version it was read at.

use polygen_catalog::dictionary::DataDictionary;
use polygen_catalog::scenario::Scenario;
use polygen_flat::relation::Relation;
use polygen_index::{IndexCatalog, IndexError, IndexSpec};
use polygen_lqp::engine::Lqp;
use polygen_lqp::memory::InMemoryLqp;
use polygen_lqp::registry::LqpRegistry;
use polygen_lqp::scenario_registry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, PoisonError, RwLock};

/// A sorted `(source, version)` list — the slice of federation state a
/// cached result depends on. Sorted so equal dependency sets compare and
/// hash equal regardless of plan shape.
pub type VersionVector = Vec<(String, u64)>;

/// One immutable view of the federation.
#[derive(Clone)]
pub struct FederationSnapshot {
    dictionary: Arc<DataDictionary>,
    registry: Arc<LqpRegistry>,
    /// Secondary indexes over this snapshot's source data. Immutable
    /// like everything else here: queries pin the catalog with the
    /// snapshot, and a source update derives a successor catalog
    /// rebuilding only the bumped source's indexes.
    indexes: Arc<IndexCatalog>,
    /// Bumped on every *re-declaration* of the index set (never on
    /// source updates — those bump versions). A cached plan records the
    /// epoch it was routed under; a hit is only served when it matches,
    /// which closes the race where a compile against the pre-declare
    /// catalog re-inserts (after the declare-time cache purge) a plan
    /// routed through an index the new catalog dropped.
    index_epoch: u64,
    versions: BTreeMap<String, u64>,
    epoch: u64,
}

impl FederationSnapshot {
    /// Wrap shared federation state; every source starts at version 0.
    pub fn from_parts(dictionary: Arc<DataDictionary>, registry: Arc<LqpRegistry>) -> Self {
        let versions = registry.names().into_iter().map(|n| (n, 0)).collect();
        FederationSnapshot {
            dictionary,
            registry,
            indexes: Arc::new(IndexCatalog::empty()),
            index_epoch: 0,
            versions,
            epoch: 0,
        }
    }

    /// Stand up a scenario (the paper's MIT databases or a synthetic
    /// federation) as the initial snapshot. The dictionary is cloned
    /// once, here — never again per session or per query.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let registry = Arc::new(scenario_registry(scenario));
        Self::from_parts(Arc::new(scenario.dictionary.clone()), registry)
    }

    /// The shared data dictionary.
    pub fn dictionary(&self) -> &Arc<DataDictionary> {
        &self.dictionary
    }

    /// The shared LQP registry.
    pub fn registry(&self) -> &Arc<LqpRegistry> {
        &self.registry
    }

    /// The snapshot's secondary-index catalog (empty unless declared).
    pub fn indexes(&self) -> &Arc<IndexCatalog> {
        &self.indexes
    }

    /// The index-declaration epoch (see the field docs): stamped into
    /// cached plans and re-validated at plan-cache hit time.
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch
    }

    /// Declare (replacing any previous declarations) the snapshot's
    /// secondary indexes, building them against this snapshot's data.
    /// Versions and epoch are untouched — indexes are derived state, so
    /// declaring them invalidates no cached *answers* — but the index
    /// epoch bumps so cached *plans* routed against the previous
    /// catalog can never be served against this one.
    pub fn with_indexes(mut self, specs: &[IndexSpec]) -> Result<Self, IndexError> {
        self.indexes = Arc::new(IndexCatalog::build(
            specs,
            &self.registry,
            &self.dictionary,
        )?);
        self.index_epoch += 1;
        Ok(self)
    }

    /// The snapshot's global epoch (bumped once per update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A source's current version (0 for sources never updated; also 0
    /// for unknown names, which therefore never spuriously invalidate).
    pub fn version_of(&self, source: &str) -> u64 {
        self.versions.get(source).copied().unwrap_or(0)
    }

    /// The version vector restricted to `sources` — the dependency stamp
    /// for a plan that reads exactly those local databases.
    pub fn version_vector(&self, sources: &BTreeSet<String>) -> VersionVector {
        sources
            .iter()
            .map(|s| (s.clone(), self.version_of(s)))
            .collect()
    }

    /// Derive the successor snapshot with `lqp` replacing (or joining)
    /// the registry under its own name, and its version bumped. Only
    /// the updated source's secondary indexes are rebuilt (against the
    /// successor registry); every other source's are re-pointed by
    /// `Arc`, exactly like the unchanged LQPs.
    fn with_updated_source(&self, lqp: Arc<dyn Lqp>) -> FederationSnapshot {
        let name = lqp.name().to_string();
        let registry = LqpRegistry::new();
        for existing in self.registry.names() {
            if existing != name {
                if let Some(l) = self.registry.get(&existing) {
                    registry.register(l);
                }
            }
        }
        registry.register(lqp);
        let registry = Arc::new(registry);
        let indexes = if self.indexes.is_empty() {
            Arc::clone(&self.indexes)
        } else {
            Arc::new(
                self.indexes
                    .rebuilt_for_source(&name, &registry, &self.dictionary),
            )
        };
        let mut versions = self.versions.clone();
        *versions.entry(name).or_insert(0) += 1;
        FederationSnapshot {
            dictionary: Arc::clone(&self.dictionary),
            registry,
            indexes,
            // Same declaration set, maintained — not a re-declaration.
            // The version bump is what guards cached plans here.
            index_epoch: self.index_epoch,
            versions,
            epoch: self.epoch + 1,
        }
    }

    /// Derive a successor with `lqp` joining (or replacing) the registry
    /// under its own name at exactly `version`, and the dictionary
    /// swapped for `dictionary`. Unlike a source *update* this is not a
    /// data refresh: secondary indexes are re-pointed untouched, the
    /// global epoch does not move, and the caller picks the version.
    /// These are the hooks a *virtual* source needs — one whose
    /// relations the mediator itself materializes rather than an
    /// upstream owning. The serving layer uses this twice for its `sys`
    /// catalog: once at construction (schema-bearing empty placeholder,
    /// version 0, dictionary extended with the `sys` schemas, published
    /// to the head) and then ephemerally per query that reads `sys.*`
    /// (live rows under a monotone version, never published — the
    /// spliced snapshot lives exactly as long as the query executes).
    pub fn with_virtual_source(
        &self,
        lqp: Arc<dyn Lqp>,
        dictionary: Arc<DataDictionary>,
        version: u64,
    ) -> FederationSnapshot {
        let name = lqp.name().to_string();
        let registry = LqpRegistry::new();
        for existing in self.registry.names() {
            if existing != name {
                if let Some(l) = self.registry.get(&existing) {
                    registry.register(l);
                }
            }
        }
        registry.register(lqp);
        let mut versions = self.versions.clone();
        versions.insert(name, version);
        FederationSnapshot {
            dictionary,
            registry: Arc::new(registry),
            indexes: Arc::clone(&self.indexes),
            index_epoch: self.index_epoch,
            versions,
            epoch: self.epoch,
        }
    }
}

/// The mutable head: an atomically swappable [`FederationSnapshot`].
pub struct Federation {
    /// Poison-tolerant: a write swaps the whole `Arc` in one assignment.
    head: RwLock<Arc<FederationSnapshot>>,
}

impl Federation {
    /// Start from an initial snapshot.
    pub fn new(snapshot: FederationSnapshot) -> Self {
        Federation {
            head: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// Start from a scenario.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        Self::new(FederationSnapshot::from_scenario(scenario))
    }

    /// The current snapshot — O(1), two pointer copies under a read
    /// lock. Queries pin the snapshot they start on.
    pub fn snapshot(&self) -> Arc<FederationSnapshot> {
        Arc::clone(&self.head.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Replace (or add) a source's LQP, bumping its version. Returns the
    /// source's new version. In-flight queries keep executing against
    /// the snapshot they pinned; queries admitted after the swap see the
    /// new data.
    ///
    /// The successor — including any secondary-index rebuild, which
    /// sweeps the updated source — is built *outside* the head lock, so
    /// concurrent query admission never stalls behind a rebuild; the
    /// write lock covers only the pointer swap. A racing writer is
    /// detected by pointer identity and the build retried against the
    /// newer head, so no update is ever lost.
    pub fn update_source(&self, lqp: Arc<dyn Lqp>) -> u64 {
        let name = lqp.name().to_string();
        loop {
            let base = self.snapshot();
            let next = base.with_updated_source(Arc::clone(&lqp));
            let version = next.version_of(&name);
            let mut head = self.head.write().unwrap_or_else(PoisonError::into_inner);
            if Arc::ptr_eq(&*head, &base) {
                *head = Arc::new(next);
                return version;
            }
            // Another writer swapped the head mid-build; rebuild on top
            // of their snapshot so neither update is lost.
        }
    }

    /// Convenience: swap a source's relations wholesale through a fresh
    /// in-memory LQP (how the demo and tests model an upstream refresh).
    pub fn update_source_relations(&self, name: &str, relations: Vec<Relation>) -> u64 {
        self.update_source(Arc::new(InMemoryLqp::new(name, relations)))
    }

    /// Declare the federation's secondary indexes: the head snapshot is
    /// replaced by one carrying a catalog built against current data
    /// (versions and epoch unchanged — answers never depend on routing —
    /// but the *index epoch* bumps, which is what lets a plan cache
    /// refuse entries routed against a previous catalog). Subsequent
    /// source updates maintain the declared indexes automatically,
    /// source by source. Like [`Federation::update_source`], the builds
    /// run outside the head lock with a pointer-identity retry.
    pub fn declare_indexes(&self, specs: &[IndexSpec]) -> Result<(), IndexError> {
        loop {
            let base = self.snapshot();
            let next = base.as_ref().clone().with_indexes(specs)?;
            let mut head = self.head.write().unwrap_or_else(PoisonError::into_inner);
            if Arc::ptr_eq(&*head, &base) {
                *head = Arc::new(next);
                return Ok(());
            }
        }
    }

    /// Publish a virtual source at the head (see
    /// [`FederationSnapshot::with_virtual_source`]): same build-outside,
    /// pointer-identity-retry swap as [`Federation::update_source`], but
    /// no version bump, no epoch move, no index rebuild. The serving
    /// layer calls this once at construction to register the `sys`
    /// catalog's schemas and schema-bearing empty placeholder.
    pub fn install_virtual_source(
        &self,
        lqp: Arc<dyn Lqp>,
        dictionary: Arc<DataDictionary>,
        version: u64,
    ) {
        loop {
            let base = self.snapshot();
            let next = base.with_virtual_source(Arc::clone(&lqp), Arc::clone(&dictionary), version);
            let mut head = self.head.write().unwrap_or_else(PoisonError::into_inner);
            if Arc::ptr_eq(&*head, &base) {
                *head = Arc::new(next);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_catalog::scenario;

    #[test]
    fn snapshot_shares_state_and_versions_start_at_zero() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        let snap = fed.snapshot();
        assert_eq!(snap.epoch(), 0);
        for db in ["AD", "PD", "CD"] {
            assert_eq!(snap.version_of(db), 0);
        }
        // Snapshot acquisition is Arc sharing, not copying.
        let again = fed.snapshot();
        assert!(Arc::ptr_eq(snap.registry(), again.registry()));
        assert!(Arc::ptr_eq(snap.dictionary(), again.dictionary()));
    }

    #[test]
    fn update_bumps_only_the_touched_source() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        let before = fed.snapshot();
        let cd = s.database("CD").unwrap();
        let v = fed.update_source_relations("CD", cd.relations.clone());
        assert_eq!(v, 1);
        let after = fed.snapshot();
        assert_eq!(after.version_of("CD"), 1);
        assert_eq!(after.version_of("AD"), 0);
        assert_eq!(after.epoch(), 1);
        // The pinned snapshot is untouched.
        assert_eq!(before.version_of("CD"), 0);
        // Unchanged LQPs are the same objects, re-pointed.
        let ad_before = before.registry().get("AD").unwrap();
        let ad_after = after.registry().get("AD").unwrap();
        assert!(Arc::ptr_eq(&ad_before, &ad_after));
        let cd_before = before.registry().get("CD").unwrap();
        let cd_after = after.registry().get("CD").unwrap();
        assert!(!Arc::ptr_eq(&cd_before, &cd_after));
    }

    #[test]
    fn update_rebuilds_only_the_touched_sources_indexes() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        fed.declare_indexes(&[
            IndexSpec::hash("AD", "ALUMNUS", "DEG"),
            IndexSpec::sorted("CD", "FIRM", "FNAME"),
        ])
        .unwrap();
        let before = fed.snapshot();
        assert_eq!(before.indexes().len(), 2);
        assert_eq!(before.epoch(), 0, "declaring indexes bumps nothing");
        let cd = s.database("CD").unwrap();
        fed.update_source_relations("CD", cd.relations.clone());
        let after = fed.snapshot();
        assert_eq!(after.indexes().len(), 2);
        let ad_before = before.indexes().lookup("AD", "ALUMNUS", "DEG").unwrap();
        let ad_after = after.indexes().lookup("AD", "ALUMNUS", "DEG").unwrap();
        assert!(Arc::ptr_eq(ad_before, ad_after), "AD index re-pointed");
        let cd_before = before.indexes().lookup("CD", "FIRM", "FNAME").unwrap();
        let cd_after = after.indexes().lookup("CD", "FIRM", "FNAME").unwrap();
        assert!(!Arc::ptr_eq(cd_before, cd_after), "CD index rebuilt");
        // The pinned snapshot still serves its own catalog.
        assert_eq!(before.indexes().len(), 2);
        // Unknown specs fail loudly at declaration.
        assert!(fed
            .declare_indexes(&[IndexSpec::hash("XX", "T", "C")])
            .is_err());
    }

    #[test]
    fn index_epoch_bumps_on_redeclaration_only() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        assert_eq!(fed.snapshot().index_epoch(), 0);
        fed.declare_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        assert_eq!(fed.snapshot().index_epoch(), 1);
        // A source update maintains indexes but is NOT a re-declaration:
        // the version bump already guards cached plans, and bumping the
        // index epoch here would needlessly refuse plans for untouched
        // sources.
        let ad = s.database("AD").unwrap();
        fed.update_source_relations("AD", ad.relations.clone());
        assert_eq!(fed.snapshot().index_epoch(), 1);
        assert_eq!(fed.snapshot().version_of("AD"), 1);
        // Re-declaring (even the same set) bumps, so a plan compiled
        // against the old catalog and re-inserted behind the declare-
        // time purge can never validate against the new snapshot.
        fed.declare_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        assert_eq!(fed.snapshot().index_epoch(), 2);
    }

    #[test]
    fn virtual_source_splice_moves_nothing_else() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        fed.declare_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let base = fed.snapshot();
        let lqp: Arc<dyn Lqp> = Arc::new(InMemoryLqp::new("virt", Vec::new()));
        // Ephemeral splice: base is untouched, successor differs only
        // in registry membership and the virtual source's version.
        let spliced = base.with_virtual_source(Arc::clone(&lqp), Arc::clone(base.dictionary()), 7);
        assert_eq!(spliced.version_of("virt"), 7);
        assert_eq!(spliced.epoch(), base.epoch());
        assert_eq!(spliced.index_epoch(), base.index_epoch());
        assert!(Arc::ptr_eq(spliced.indexes(), base.indexes()));
        assert!(Arc::ptr_eq(spliced.dictionary(), base.dictionary()));
        let ad_base = base.registry().get("AD").unwrap();
        let ad_spliced = spliced.registry().get("AD").unwrap();
        assert!(Arc::ptr_eq(&ad_base, &ad_spliced), "real LQPs re-pointed");
        assert!(base.registry().get("virt").is_none(), "head untouched");
        // Published splice: the head now carries the virtual source at
        // the pinned version, and a later real-source update preserves
        // it (with_updated_source re-points every registered LQP).
        fed.install_virtual_source(lqp, Arc::clone(base.dictionary()), 0);
        assert_eq!(fed.snapshot().version_of("virt"), 0);
        assert!(fed.snapshot().registry().get("virt").is_some());
        let ad = s.database("AD").unwrap();
        fed.update_source_relations("AD", ad.relations.clone());
        let after = fed.snapshot();
        assert!(after.registry().get("virt").is_some());
        assert_eq!(after.version_of("virt"), 0, "updates leave virt at 0");
    }

    #[test]
    fn version_vector_is_sorted_and_restricted() {
        let s = scenario::build();
        let fed = Federation::from_scenario(&s);
        fed.update_source_relations("PD", s.database("PD").unwrap().relations.clone());
        let snap = fed.snapshot();
        let deps: BTreeSet<String> = ["PD", "AD"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            snap.version_vector(&deps),
            vec![("AD".to_string(), 0), ("PD".to_string(), 1)]
        );
    }
}
