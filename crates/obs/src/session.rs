//! A registry of live sessions and their in-flight work.
//!
//! Every connection (or in-process serve session) registers on open and
//! deregisters on close; while a query runs, the session publishes the
//! query's text, language and start instant so a catalog scan can show
//! *what the mediator is doing right now*, not just what it has done.
//! Cumulative per-session counters (queries, rows, errors) are relaxed
//! atomics like the service-wide metrics: recording is a handful of
//! `fetch_add`s, never a lock on the query path. Only registration,
//! deregistration and the (rare) catalog snapshot take the registry
//! lock, and only publishing in-flight text takes the tiny per-session
//! lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What a session is executing right now.
#[derive(Debug, Clone)]
struct InFlight {
    text: String,
    lang: &'static str,
    started: Instant,
}

/// One live session's counters and in-flight state.
#[derive(Debug)]
pub struct SessionStats {
    id: u64,
    peer: String,
    opened: Instant,
    queries: AtomicU64,
    rows: AtomicU64,
    errors: AtomicU64,
    /// Poison-tolerant: a write replaces the whole `Option` at once.
    in_flight: Mutex<Option<InFlight>>,
}

impl SessionStats {
    /// The registry-assigned session id (monotone, never reused).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The peer label given at registration (e.g. an address, or
    /// `"local"` for in-process sessions).
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Publish the query this session is about to run.
    pub fn begin_query(&self, text: &str, lang: &'static str) {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(InFlight {
            text: text.to_string(),
            lang,
            started: Instant::now(),
        });
    }

    /// Retire the in-flight query: bump the cumulative counters and
    /// clear the published text. `rows` is the answer's cardinality
    /// (0 for non-row responses); `errored` marks a failed query.
    pub fn finish_query(&self, rows: u64, errored: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        if errored {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Cumulative queries finished on this session.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Cumulative answer rows returned on this session.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Cumulative errored queries on this session.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one session's row in the registry.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Registry-assigned id.
    pub id: u64,
    /// Peer label.
    pub peer: String,
    /// Microseconds since the session registered.
    pub age_micros: u64,
    /// Cumulative queries finished.
    pub queries: u64,
    /// Cumulative answer rows returned.
    pub rows: u64,
    /// Cumulative errored queries.
    pub errors: u64,
    /// The in-flight query, if one is running: `(text, lang,
    /// elapsed µs)`.
    pub in_flight: Option<(String, &'static str, u64)>,
}

/// The live-session registry.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    /// Poison-tolerant: a write is one map insert or remove.
    sessions: Mutex<BTreeMap<u64, Arc<SessionStats>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new session; the returned handle is how the owner
    /// records activity. Call [`SessionRegistry::deregister`] with the
    /// handle's id when the session closes.
    pub fn register(&self, peer: &str) -> Arc<SessionStats> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(SessionStats {
            id,
            peer: peer.to_string(),
            opened: Instant::now(),
            queries: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: Mutex::new(None),
        });
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::clone(&stats));
        stats
    }

    /// Remove a closed session from the registry.
    pub fn deregister(&self, id: u64) {
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every live session, ordered by id.
    pub fn snapshot(&self) -> Vec<SessionSnapshot> {
        let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        sessions
            .values()
            .map(|s| SessionSnapshot {
                id: s.id,
                peer: s.peer.clone(),
                age_micros: u64::try_from(s.opened.elapsed().as_micros()).unwrap_or(u64::MAX),
                queries: s.queries(),
                rows: s.rows(),
                errors: s.errors(),
                in_flight: s
                    .in_flight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ref()
                    .map(|f| {
                        (
                            f.text.clone(),
                            f.lang,
                            u64::try_from(f.started.elapsed().as_micros()).unwrap_or(u64::MAX),
                        )
                    }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_count_deregister() {
        let reg = SessionRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register("local");
        let b = reg.register("127.0.0.1:9");
        assert_eq!(reg.len(), 2);
        assert_ne!(a.id(), b.id());
        reg.deregister(a.id());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.snapshot()[0].peer, "127.0.0.1:9");
    }

    #[test]
    fn in_flight_appears_and_drains() {
        let reg = SessionRegistry::new();
        let s = reg.register("local");
        assert!(reg.snapshot()[0].in_flight.is_none());
        s.begin_query("SELECT CEO FROM PORGANIZATION", "sql");
        let snap = reg.snapshot();
        let (text, lang, _) = snap[0].in_flight.as_ref().unwrap();
        assert_eq!(text, "SELECT CEO FROM PORGANIZATION");
        assert_eq!(*lang, "sql");
        s.finish_query(7, false);
        let snap = reg.snapshot();
        assert!(snap[0].in_flight.is_none());
        assert_eq!(snap[0].queries, 1);
        assert_eq!(snap[0].rows, 7);
        assert_eq!(snap[0].errors, 0);
    }

    #[test]
    fn errors_counted() {
        let reg = SessionRegistry::new();
        let s = reg.register("local");
        s.begin_query("SELEC", "sql");
        s.finish_query(0, true);
        assert_eq!(s.errors(), 1);
        assert_eq!(s.queries(), 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let reg = SessionRegistry::new();
        let a = reg.register("x").id();
        reg.deregister(a);
        let b = reg.register("x").id();
        assert!(b > a);
    }

    #[test]
    fn concurrent_registration_is_safe() {
        let reg = SessionRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let s = reg.register("t");
                        s.begin_query("q", "algebra");
                        s.finish_query(1, false);
                        reg.deregister(s.id());
                    }
                });
            }
        });
        assert!(reg.is_empty());
    }
}
