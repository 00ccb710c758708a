//! The slow-query log: a bounded buffer of the worst queries over a
//! threshold, each keeping its [`Trace`] *handle* rather than a
//! rendered report. Rendering happens lazily at scrape time, so spans
//! recorded after the query's response was handed off — the net
//! layer's flush span ends only when the peer has drained the bytes —
//! still appear in the scraped waterfall.

use crate::trace::Trace;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Structured facts about one finished query, beyond its total
/// latency: where the time went and how the caches treated it. The
/// default is the zero detail of a request that never reached a cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryDetail {
    /// Time spent waiting for admission, microseconds.
    pub queue_micros: u64,
    /// Time spent executing the physical plan, microseconds (0 for
    /// cache hits).
    pub exec_micros: u64,
    /// Cache outcome label: `"result"` (result-cache hit), `"plan"`
    /// (plan-cache hit, no result hit), `"miss"` (compiled), or `""`
    /// when the request never reached a cache. Whether a plan executed
    /// is `exec_micros`' story — EXPLAIN modes report their plan-cache
    /// outcome here too.
    pub cache: &'static str,
    /// `(code, mnemonic)` when the query failed.
    pub error: Option<(u16, &'static str)>,
}

#[derive(Debug)]
struct Entry {
    query: String,
    micros: u64,
    detail: QueryDetail,
    trace: Trace,
}

/// Ring of the `capacity` worst queries at or over `threshold`.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    threshold_micros: u64,
    /// Poison-tolerant: a write pushes or replaces one whole entry.
    entries: Mutex<Vec<Entry>>,
}

impl SlowQueryLog {
    /// A log keeping the `capacity` worst queries taking at least
    /// `threshold`. A zero threshold records every query (still
    /// bounded: only the worst `capacity` survive).
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        SlowQueryLog {
            capacity,
            threshold_micros: u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer one finished query with the facts known about it. Kept if
    /// it clears the threshold and (once full) beats the current
    /// best-of-the-worst.
    pub fn observe(&self, query: &str, elapsed: Duration, trace: &Trace, detail: QueryDetail) {
        if self.capacity == 0 {
            return;
        }
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        if micros < self.threshold_micros {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() < self.capacity {
            entries.push(Entry {
                query: query.to_string(),
                micros,
                detail,
                trace: trace.clone(),
            });
            return;
        }
        // Full: replace the least-slow entry if this one is worse.
        if let Some((i, floor)) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.micros)
            .map(|(i, e)| (i, e.micros))
        {
            if micros > floor {
                entries[i] = Entry {
                    query: query.to_string(),
                    micros,
                    detail,
                    trace: trace.clone(),
                };
            }
        }
    }

    /// The current contents, worst first, waterfalls rendered from the
    /// live trace handles (so post-response spans are included).
    pub fn snapshot(&self) -> Vec<SlowQueryReport> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reports: Vec<SlowQueryReport> = entries
            .iter()
            .map(|e| SlowQueryReport {
                query: e.query.clone(),
                micros: e.micros,
                detail: e.detail,
                waterfall: e.trace.report().map(|r| r.render_waterfall()),
            })
            .collect();
        drop(entries);
        reports.sort_by(|a, b| b.micros.cmp(&a.micros).then(a.query.cmp(&b.query)));
        reports
    }

    /// Append the log to a scrape body as `#`-prefixed comment lines
    /// (inert to Prometheus parsers, readable to humans).
    pub fn render(&self, out: &mut String) {
        let reports = self.snapshot();
        if reports.is_empty() {
            return;
        }
        let _ = writeln!(
            out,
            "# slowlog: {} worst querie(s) over {} µs",
            reports.len(),
            self.threshold_micros
        );
        for r in &reports {
            let _ = writeln!(out, "# slowlog {} µs  {}", r.micros, r.query);
            if let Some(w) = &r.waterfall {
                for line in w.lines() {
                    let _ = writeln!(out, "#   {line}");
                }
            }
        }
    }
}

/// One slow-log entry as reported at scrape time.
#[derive(Debug, Clone)]
pub struct SlowQueryReport {
    /// The canonical query text.
    pub query: String,
    /// End-to-end service latency, microseconds.
    pub micros: u64,
    /// Structured facts recorded with the entry.
    pub detail: QueryDetail,
    /// The rendered waterfall, when the query carried an enabled trace.
    pub waterfall: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offer `query` taking `micros`, with the zero detail.
    fn offer(log: &SlowQueryLog, query: &str, micros: u64, trace: &Trace) {
        let elapsed = Duration::from_micros(micros);
        log.observe(query, elapsed, trace, QueryDetail::default());
    }

    #[test]
    fn keeps_the_worst_n_over_threshold() {
        let log = SlowQueryLog::new(2, Duration::from_micros(10));
        let t = Trace::disabled();
        offer(&log, "fast", 5, &t); // under threshold
        offer(&log, "a", 20, &t);
        offer(&log, "b", 50, &t);
        offer(&log, "c", 30, &t); // evicts a
        offer(&log, "d", 15, &t); // not worse than floor
        let snap = log.snapshot();
        let names: Vec<&str> = snap.iter().map(|r| r.query.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(snap[0].micros, 50);
        assert!(snap[0].waterfall.is_none(), "disabled trace, no waterfall");
    }

    #[test]
    fn waterfalls_render_spans_recorded_after_observe() {
        let log = SlowQueryLog::new(4, Duration::ZERO);
        let t = Trace::enabled();
        let s = t.begin("serve/execute");
        t.end(s);
        offer(&log, "q", 100, &t);
        // The flush span lands after the entry was recorded — a lazy
        // render must still show it.
        let f = t.begin("net/flush");
        t.end(f);
        let snap = log.snapshot();
        let w = snap[0].waterfall.as_deref().unwrap();
        assert!(w.contains("serve/execute"));
        assert!(w.contains("net/flush"));
        let mut scrape = String::new();
        log.render(&mut scrape);
        assert!(scrape.contains("# slowlog 100 µs  q"));
        assert!(scrape.lines().all(|l| l.starts_with('#')));
    }

    #[test]
    fn detailed_entries_carry_their_facts() {
        let log = SlowQueryLog::new(2, Duration::ZERO);
        let t = Trace::disabled();
        log.observe(
            "q",
            Duration::from_micros(40),
            &t,
            QueryDetail {
                queue_micros: 5,
                exec_micros: 30,
                cache: "miss",
                error: Some((30, "SQL_SYNTAX")),
            },
        );
        offer(&log, "plain", 10, &t);
        let snap = log.snapshot();
        assert_eq!(snap[0].query, "q");
        assert_eq!(snap[0].detail.queue_micros, 5);
        assert_eq!(snap[0].detail.exec_micros, 30);
        assert_eq!(snap[0].detail.cache, "miss");
        assert_eq!(snap[0].detail.error, Some((30, "SQL_SYNTAX")));
        assert_eq!(snap[1].detail.cache, "");
        assert!(snap[1].detail.error.is_none());
    }

    #[test]
    fn zero_capacity_is_inert() {
        let log = SlowQueryLog::new(0, Duration::ZERO);
        offer(&log, "q", 1, &Trace::disabled());
        assert!(log.snapshot().is_empty());
        let mut out = String::new();
        log.render(&mut out);
        assert!(out.is_empty());
    }
}
