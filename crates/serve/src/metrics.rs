//! Service-wide counters, cheap enough for the per-query hot path —
//! and the one place every service counter is stored.
//!
//! Counters are relaxed atomics and latencies are lock-free log-bucketed
//! [`Histogram`]s (hit path, executed path, admission queue wait,
//! execution proper) — percentiles within bucket resolution, not just
//! sums. Nothing is counted twice: answered queries, executed plans and
//! result-cache hits are the latency histograms' sample counts, so
//! [`ServiceMetrics::snapshot`] derives them instead of keeping copies
//! that would need fencing to stay in step. Everything that reports on
//! the service — the [`MetricsSnapshot`] itself, the `sys.stats`
//! windows, the Prometheus scrape, the TCP server's open-connection
//! count — is a view computed from this store when read.
//! [`MetricsSnapshot::render_prometheus`] is the wire-scrapable text
//! form.

use crate::request::ErrorCode;
use polygen_obs::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Live counters owned by the service.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Failures bucketed by the stable [`ErrorCode`] taxonomy — the
    /// structured replacement for string-matching `Display` output.
    /// Mutex-guarded (not atomic) because errors are off the hot path;
    /// shed queries land here under [`ErrorCode::Overloaded`].
    /// Poison-tolerant: a write is one counter increment.
    errors_by_code: Mutex<BTreeMap<ErrorCode, u64>>,
    errors: AtomicU64,
    rejected: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    result_misses: AtomicU64,
    invalidated_plans: AtomicU64,
    invalidated_results: AtomicU64,
    /// Latency distributions split by path: a result-cache hit skips
    /// execution entirely, so the two histograms make the hit-path
    /// speedup visible — p50/p95/p99, not just means. Their sample
    /// counts *are* the result-hit and executed-query counters, and
    /// together the answered-query counter.
    hit_latency: Histogram,
    miss_latency: Histogram,
    /// Time spent waiting for admission (queue wait), per admitted query.
    queue_wait: Histogram,
    /// Plan execution proper (excludes admission, parsing, caching).
    execute_latency: Histogram,
    peak_queue_depth: AtomicU64,
    peak_concurrency: AtomicU64,
    /// Connection-level telemetry, recorded by whatever transport front
    /// door carries the service (the TCP server in `polygen-net`).
    /// `conns_open` is a gauge; the rest are monotone counters.
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    conns_peak_open: AtomicU64,
    conns_backpressure_closed: AtomicU64,
}

impl ServiceMetrics {
    /// One answered query: a result-cache hit, or a query that ran its
    /// plan (every query on a cache-less service, which never probes).
    pub(crate) fn record_query(&self, latency: Duration, result_hit: bool) {
        let hist = if result_hit {
            &self.hit_latency
        } else {
            &self.miss_latency
        };
        hist.record(latency);
    }

    /// Time an admitted query spent waiting for its slot.
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// Plan execution proper (the `run_compiled` call alone).
    pub(crate) fn record_execute(&self, elapsed: Duration) {
        self.execute_latency.record(elapsed);
    }

    /// One failed request: a shed query counts as `rejected`, anything
    /// else as an `error`, and both land in their code's bucket — so
    /// `Σ errors_by_code == errors + rejected` by construction.
    pub(crate) fn record_failure(&self, code: ErrorCode) {
        let counter = if code == ErrorCode::Overloaded {
            &self.rejected
        } else {
            &self.errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut by_code = self
            .errors_by_code
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *by_code.entry(code).or_insert(0) += 1;
    }

    pub(crate) fn record_plan_lookup(&self, hit: bool) {
        let c = if hit {
            &self.plan_hits
        } else {
            &self.plan_misses
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// A result-cache probe that missed. A hit needs no call of its
    /// own: its query finishes on the hit path, and that sample is the
    /// count.
    pub(crate) fn record_result_miss(&self) {
        self.result_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_invalidation(&self, plans: usize, results: usize) {
        self.invalidated_plans
            .fetch_add(plans as u64, Ordering::Relaxed);
        self.invalidated_results
            .fetch_add(results as u64, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn observe_concurrency(&self, active: usize) {
        self.peak_concurrency
            .fetch_max(active as u64, Ordering::Relaxed);
    }

    /// A transport accepted a connection. Public (unlike the query-path
    /// recorders) because the front door lives in a different crate.
    pub fn record_conn_opened(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak_open.fetch_max(open, Ordering::Relaxed);
    }

    /// A connection ended (peer hangup, protocol violation, shutdown —
    /// any cause, including backpressure closes, which are *also*
    /// recorded separately).
    pub fn record_conn_closed(&self) {
        // Saturating: a stray extra close must not wrap the gauge.
        let _ = self
            .conns_open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// A connection was closed because the peer stopped draining its
    /// responses and the outbound buffer hit the cap.
    pub fn record_conn_backpressure_close(&self) {
        self.conns_backpressure_closed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze the counters into a [`MetricsSnapshot`], deriving the
    /// answered, executed and result-hit counts from the two latency
    /// histograms they are the sample counts of.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hit_latency = self.hit_latency.snapshot();
        let miss_latency = self.miss_latency.snapshot();
        MetricsSnapshot {
            errors_by_code: self
                .errors_by_code
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&code, &count)| (code, count))
                .collect(),
            queries: hit_latency.count() + miss_latency.count(),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            result_hits: hit_latency.count(),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            executed: miss_latency.count(),
            invalidated_plans: self.invalidated_plans.load(Ordering::Relaxed),
            invalidated_results: self.invalidated_results.load(Ordering::Relaxed),
            hit_latency,
            miss_latency,
            queue_wait: self.queue_wait.snapshot(),
            execute_latency: self.execute_latency.snapshot(),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            peak_concurrency: self.peak_concurrency.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_peak_open: self.conns_peak_open.load(Ordering::Relaxed),
            conns_backpressure_closed: self.conns_backpressure_closed.load(Ordering::Relaxed),
        }
    }
}

/// Escape a Prometheus label value: backslash, double quote, and
/// newline must be escaped per the text exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// A frozen view of [`ServiceMetrics`]. `queries`, `result_hits` and
/// `executed` are derived, not stored: `result_hits` and `executed` are
/// the sample counts of `hit_latency` and `miss_latency`, and `queries`
/// is their sum, so they can never disagree with the histograms. The
/// default is the all-zero view of a service that has served nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Failures bucketed by stable [`ErrorCode`], ascending by code.
    /// Shed queries appear under [`ErrorCode::Overloaded`]; everything
    /// else mirrors the `errors` counter split by cause.
    pub errors_by_code: Vec<(ErrorCode, u64)>,
    /// Queries answered (hits and misses; excludes rejections/errors):
    /// `result_hits + executed`.
    pub queries: u64,
    /// Queries that failed (parse, lowering, execution).
    pub errors: u64,
    /// Queries refused by admission control.
    pub rejected: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (compilations).
    pub plan_misses: u64,
    /// Result-cache hits (no execution): `hit_latency.count()`.
    pub result_hits: u64,
    /// Result-cache misses (plan executed).
    pub result_misses: u64,
    /// Queries that executed a plan — every query a result-cache hit
    /// did not short-circuit, including all queries on a service whose
    /// result cache is disabled (those never probe, so they count here
    /// but not under `result_misses`): `miss_latency.count()`.
    pub executed: u64,
    /// Plans evicted by source-update invalidation.
    pub invalidated_plans: u64,
    /// Cached answers evicted by source-update invalidation.
    pub invalidated_results: u64,
    /// Latency distribution of result-cache-hit queries.
    pub hit_latency: HistogramSnapshot,
    /// Latency distribution of executed (miss-path) queries.
    pub miss_latency: HistogramSnapshot,
    /// Admission queue-wait distribution (admitted queries only).
    pub queue_wait: HistogramSnapshot,
    /// Plan-execution-proper distribution (the engine run alone,
    /// excluding admission, parsing, and cache probes).
    pub execute_latency: HistogramSnapshot,
    /// Deepest admission queue observed.
    pub peak_queue_depth: u64,
    /// Most queries observed executing at once.
    pub peak_concurrency: u64,
    /// Transport connections accepted over the service's lifetime.
    pub conns_accepted: u64,
    /// Transport connections open at snapshot time (a gauge).
    pub conns_open: u64,
    /// Most transport connections open at once.
    pub conns_peak_open: u64,
    /// Connections closed for refusing to drain their responses.
    pub conns_backpressure_closed: u64,
}

impl MetricsSnapshot {
    /// Failures recorded under one code.
    pub fn errors_with_code(&self, code: ErrorCode) -> u64 {
        self.errors_by_code
            .iter()
            .find(|(c, _)| *c == code)
            .map_or(0, |(_, n)| *n)
    }

    /// Queries shed by admission control
    /// ([`ErrorCode::Overloaded`] bucket — equals `rejected`).
    pub fn shed(&self) -> u64 {
        self.errors_with_code(ErrorCode::Overloaded)
    }

    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of plan lookups that were hits.
    pub fn plan_hit_rate(&self) -> f64 {
        Self::rate(self.plan_hits, self.plan_misses)
    }

    /// Fraction of result lookups that were hits.
    pub fn result_hit_rate(&self) -> f64 {
        Self::rate(self.result_hits, self.result_misses)
    }

    /// Mean latency of the result-cache-hit path, µs.
    pub fn mean_hit_latency_micros(&self) -> f64 {
        self.hit_latency.mean_micros()
    }

    /// Mean latency of the executed path, µs.
    pub fn mean_miss_latency_micros(&self) -> f64 {
        self.miss_latency.mean_micros()
    }

    /// The whole snapshot in Prometheus text exposition format:
    /// monotone counters, the `conns_open` gauge, per-code error
    /// counters (labelled with the stable code and mnemonic), and the
    /// four latency histograms with cumulative buckets. This is what
    /// [`QueryService::scrape`](crate::service::QueryService::scrape)
    /// serves and the wire `Stats` frame carries.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn series(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            series(&mut out, name, "counter", help, value);
        };
        counter(
            "polygen_queries_total",
            "Queries answered (hits and misses; excludes rejections/errors)",
            self.queries,
        );
        counter("polygen_errors_total", "Queries that failed", self.errors);
        counter(
            "polygen_rejected_total",
            "Queries shed by admission control",
            self.rejected,
        );
        counter(
            "polygen_executed_total",
            "Queries that executed a plan",
            self.executed,
        );
        counter("polygen_plan_hits_total", "Plan-cache hits", self.plan_hits);
        counter(
            "polygen_plan_misses_total",
            "Plan-cache misses (compilations)",
            self.plan_misses,
        );
        counter(
            "polygen_result_hits_total",
            "Result-cache hits (no execution)",
            self.result_hits,
        );
        counter(
            "polygen_result_misses_total",
            "Result-cache misses (plan executed)",
            self.result_misses,
        );
        counter(
            "polygen_invalidated_plans_total",
            "Plans evicted by source-update invalidation",
            self.invalidated_plans,
        );
        counter(
            "polygen_invalidated_results_total",
            "Cached answers evicted by source-update invalidation",
            self.invalidated_results,
        );
        counter(
            "polygen_conns_accepted_total",
            "Transport connections accepted",
            self.conns_accepted,
        );
        counter(
            "polygen_conns_backpressure_closed_total",
            "Connections closed for refusing to drain responses",
            self.conns_backpressure_closed,
        );
        // High-water marks and the open-connection count can move in
        // either direction across restarts or resets: gauges, not
        // counters.
        series(
            &mut out,
            "polygen_peak_queue_depth",
            "gauge",
            "Deepest admission queue observed",
            self.peak_queue_depth,
        );
        series(
            &mut out,
            "polygen_peak_concurrency",
            "gauge",
            "Most queries observed executing at once",
            self.peak_concurrency,
        );
        series(
            &mut out,
            "polygen_conns_peak_open",
            "gauge",
            "Most transport connections open at once",
            self.conns_peak_open,
        );
        series(
            &mut out,
            "polygen_conns_open",
            "gauge",
            "Transport connections currently open",
            self.conns_open,
        );
        // The per-code family's metadata is emitted even with no
        // failures recorded yet, so scrapers learn the series exists
        // before the first error does.
        let _ = writeln!(
            out,
            "# HELP polygen_errors_by_code_total Failures by stable error code"
        );
        let _ = writeln!(out, "# TYPE polygen_errors_by_code_total counter");
        for (code, count) in &self.errors_by_code {
            let _ = writeln!(
                out,
                "polygen_errors_by_code_total{{code=\"{}\",mnemonic=\"{}\"}} {count}",
                escape_label(&code.code().to_string()),
                escape_label(code.mnemonic())
            );
        }
        self.hit_latency.render_prometheus(
            "polygen_hit_latency_micros",
            "Result-cache-hit query latency (µs)",
            &mut out,
        );
        self.miss_latency.render_prometheus(
            "polygen_miss_latency_micros",
            "Executed (miss-path) query latency (µs)",
            &mut out,
        );
        self.queue_wait.render_prometheus(
            "polygen_queue_wait_micros",
            "Admission queue wait (µs)",
            &mut out,
        );
        self.execute_latency.render_prometheus(
            "polygen_execute_micros",
            "Plan execution proper (µs)",
            &mut out,
        );
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries {} (errors {}, rejected {})",
            self.queries, self.errors, self.rejected
        )?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.0}% hit), {} invalidated",
            self.plan_hits,
            self.plan_misses,
            self.plan_hit_rate() * 100.0,
            self.invalidated_plans
        )?;
        writeln!(
            f,
            "result cache: {} hits / {} misses ({:.0}% hit), {} invalidated",
            self.result_hits,
            self.result_misses,
            self.result_hit_rate() * 100.0,
            self.invalidated_results
        )?;
        writeln!(
            f,
            "latency: hit path {:.0} µs mean, executed path {:.0} µs mean \
             (p50/p95/p99 {}/{}/{} µs)",
            self.mean_hit_latency_micros(),
            self.mean_miss_latency_micros(),
            self.miss_latency.p50_micros(),
            self.miss_latency.p95_micros(),
            self.miss_latency.p99_micros()
        )?;
        if self.queue_wait.count() > 0 || self.execute_latency.count() > 0 {
            writeln!(
                f,
                "queue wait p95 {} µs, execute p50/p95 {}/{} µs",
                self.queue_wait.p95_micros(),
                self.execute_latency.p50_micros(),
                self.execute_latency.p95_micros()
            )?;
        }
        if !self.errors_by_code.is_empty() {
            let buckets: Vec<String> = self
                .errors_by_code
                .iter()
                .map(|(code, count)| format!("{code} ×{count}"))
                .collect();
            writeln!(f, "errors by code: {}", buckets.join(", "))?;
        }
        if self.conns_accepted > 0 {
            writeln!(
                f,
                "connections: {} accepted, {} open (peak {}), {} backpressure-closed",
                self.conns_accepted,
                self.conns_open,
                self.conns_peak_open,
                self.conns_backpressure_closed
            )?;
        }
        write!(
            f,
            "peaks: {} concurrent, queue depth {}",
            self.peak_concurrency, self.peak_queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_means() {
        let m = ServiceMetrics::default();
        m.record_plan_lookup(true);
        m.record_plan_lookup(false);
        m.record_result_miss();
        m.record_query(Duration::from_micros(10), true);
        m.record_query(Duration::from_micros(30), true);
        m.record_query(Duration::from_micros(400), false);
        m.observe_concurrency(3);
        m.observe_concurrency(2);
        m.observe_queue_depth(5);
        let s = m.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.executed, 1);
        assert!((s.plan_hit_rate() - 0.5).abs() < 1e-9);
        assert!((s.result_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.mean_hit_latency_micros() - 20.0).abs() < 1e-9);
        assert!((s.mean_miss_latency_micros() - 400.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency, 3);
        assert_eq!(s.peak_queue_depth, 5);
        assert!(s.to_string().contains("plan cache"));
    }

    #[test]
    fn connection_counters_track_gauge_and_peak() {
        let m = ServiceMetrics::default();
        m.record_conn_opened();
        m.record_conn_opened();
        m.record_conn_opened();
        m.record_conn_closed();
        m.record_conn_backpressure_close();
        m.record_conn_closed();
        // A stray extra close must saturate at zero, not wrap.
        m.record_conn_closed();
        m.record_conn_closed();
        let s = m.snapshot();
        assert_eq!(s.conns_accepted, 3);
        assert_eq!(s.conns_open, 0);
        assert_eq!(s.conns_peak_open, 3);
        assert_eq!(s.conns_backpressure_closed, 1);
        assert!(s.to_string().contains("connections: 3 accepted"));
    }

    #[test]
    fn empty_metrics_report_zero_rates() {
        let s = ServiceMetrics::default().snapshot();
        assert_eq!(s.plan_hit_rate(), 0.0);
        assert_eq!(s.result_hit_rate(), 0.0);
        assert_eq!(s.mean_hit_latency_micros(), 0.0);
    }

    #[test]
    fn every_prometheus_series_declares_help_and_type() {
        let m = ServiceMetrics::default();
        m.record_query(Duration::from_micros(10), false);
        m.record_failure(ErrorCode::SqlSyntax);
        let shown = m.snapshot().render_prometheus();
        // Every sample line's metric name must have HELP and TYPE
        // metadata somewhere in the scrape.
        for line in shown.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                shown.contains(&format!("# HELP {base} ")),
                "{name} lacks HELP"
            );
            assert!(
                shown.contains(&format!("# TYPE {base} ")),
                "{name} lacks TYPE"
            );
        }
        // Peaks and open connections are gauges, not counters.
        for gauge in [
            "polygen_peak_queue_depth",
            "polygen_peak_concurrency",
            "polygen_conns_peak_open",
            "polygen_conns_open",
        ] {
            assert!(shown.contains(&format!("# TYPE {gauge} gauge")), "{gauge}");
        }
        assert!(
            shown.contains("polygen_errors_by_code_total{code=\"100\",mnemonic=\"sql-syntax\"} 1")
        );
    }

    #[test]
    fn error_code_family_present_even_when_empty() {
        let shown = ServiceMetrics::default().snapshot().render_prometheus();
        assert!(shown.contains("# TYPE polygen_errors_by_code_total counter"));
        assert!(shown.contains("# HELP polygen_errors_by_code_total "));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("two\nlines"), "two\\nlines");
    }
}
