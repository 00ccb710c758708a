//! Closed-loop multi-client driver.
//!
//! Models the traffic a serving layer actually sees: `N` clients, each
//! issuing queries back-to-back (closed loop — a client waits for its
//! answer, thinks for [`ClientMix::think`], then asks again), drawing
//! query shapes from a weighted mix. Determinism is the whole point:
//!
//! * every client owns its own RNG stream
//!   ([`RngStream::Client`]), so the *script* — the exact query
//!   sequence client `i` issues — depends only on `(seed, i, mix)`,
//!   never on thread scheduling, client count, or who else is running;
//! * [`drive`] (concurrent, one OS thread per client) and [`replay`]
//!   (the same scripts, sequentially, client by client) therefore issue
//!   *identical* query streams — which is what lets the service test
//!   assert that concurrent, cached execution returns byte-identical
//!   tagged answers to a sequential, cache-off baseline.

use crate::config::{derive_rng, RngStream};
use crate::queries::{
    join_query, paper_shaped_sql, point_lookup, range_scan, select_query, sys_sessions_query,
    sys_stats_query,
};
use crate::zipf::Zipf;
use polygen_obs::LatencySummary;
use polygen_serve::request::Request;
use rand::RngExt;
use std::time::{Duration, Instant};

/// Relative weights of the query shapes in the mix. Weights are
/// relative, not percentages — `(3, 1, 1)` means 3 selects per join and
/// per paper-shaped query on average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Category selects over the merged scheme (algebra, cheap, highly
    /// cacheable — few distinct categories).
    pub select: u32,
    /// Detail→entity joins with a score filter (algebra, heavier).
    pub join: u32,
    /// The paper-shaped SQL (IN-subquery feeding join feeding project).
    pub paper: u32,
    /// Detail point lookups (`PDETAIL [ENAME = …]`) with Zipf-skewed
    /// key choice — the class a hash index serves. Default 0: existing
    /// mixes (and their deterministic scripts) are unchanged.
    pub point: u32,
    /// Detail score range scans (`PDETAIL [SCORE >= a] [SCORE <= b]`) —
    /// the class a sorted index serves. Default 0.
    pub range: u32,
    /// System-catalog reads (`SELECT … FROM sys.stats` /
    /// `sys.sessions`) — the mediator inspecting itself through the
    /// same front door as user queries. Default 0: existing mixes (and
    /// their deterministic scripts) are unchanged.
    pub sys: u32,
}

impl Default for MixWeights {
    fn default() -> Self {
        MixWeights {
            select: 6,
            join: 3,
            paper: 1,
            point: 0,
            range: 0,
            sys: 0,
        }
    }
}

impl MixWeights {
    /// The default mix plus index-friendly traffic: point lookups and
    /// range scans at the given weights.
    pub fn with_index_lookups(point: u32, range: u32) -> Self {
        MixWeights {
            point,
            range,
            ..MixWeights::default()
        }
    }

    /// The default mix plus system-catalog reads at the given weight —
    /// observability traffic interleaved with user queries.
    pub fn with_catalog_reads(sys: u32) -> Self {
        MixWeights {
            sys,
            ..MixWeights::default()
        }
    }

    fn total(&self) -> u32 {
        self.select + self.join + self.paper + self.point + self.range + self.sys
    }
}

/// A closed-loop client population over the synthetic federation's
/// schema (`PENTITY`/`PDETAIL`, see [`crate::generator`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientMix {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Queries each client issues before finishing.
    pub queries_per_client: usize,
    /// Shape weights.
    pub weights: MixWeights,
    /// Think time between a client's answer and its next query.
    pub think: Duration,
    /// Base seed; client `i` draws from stream `Client(i)`.
    pub seed: u64,
    /// Category draw space — keep equal to the generated federation's
    /// [`crate::config::WorkloadConfig::categories`] so selects hit
    /// existing values.
    pub categories: usize,
    /// Entity draw space for point lookups — keep equal to the
    /// federation's [`crate::config::WorkloadConfig::entities`] so
    /// lookups target existing keys.
    pub entities: usize,
    /// Zipf exponent for point-lookup key choice: `0.0` draws entities
    /// uniformly, larger values concentrate traffic on hot keys (the
    /// realistic shape — and the one that makes result caching and
    /// index probes interact).
    pub key_skew: f64,
}

impl Default for ClientMix {
    fn default() -> Self {
        ClientMix {
            clients: 4,
            queries_per_client: 25,
            weights: MixWeights::default(),
            think: Duration::ZERO,
            seed: 0x0ddc0ffee,
            categories: 16,
            entities: 1_000,
            key_skew: 1.0,
        }
    }
}

impl ClientMix {
    /// Builder-style client-count override.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Builder-style per-client query-count override.
    pub fn with_queries_per_client(mut self, queries: usize) -> Self {
        self.queries_per_client = queries;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style think-time override.
    pub fn with_think(mut self, think: Duration) -> Self {
        self.think = think;
        self
    }

    /// Builder-style weight override.
    pub fn with_weights(mut self, weights: MixWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Builder-style entity-space override (match the federation's
    /// entity pool).
    pub fn with_entities(mut self, entities: usize) -> Self {
        self.entities = entities;
        self
    }

    /// Builder-style key-skew override.
    pub fn with_key_skew(mut self, key_skew: f64) -> Self {
        self.key_skew = key_skew;
        self
    }

    /// Total queries the whole population issues.
    pub fn total_queries(&self) -> usize {
        self.clients * self.queries_per_client
    }

    /// Client `i`'s deterministic script. Depends only on
    /// `(seed, i, weights, queries_per_client, categories, entities,
    /// key_skew)` — and the draw sequence for the original three shapes
    /// is unchanged when the point/range/sys weights are 0, so existing
    /// mixes replay bit-identical scripts. Each entry is the [`Request`]
    /// a transport sends as is.
    pub fn script(&self, client: usize) -> Vec<Request> {
        assert!(self.weights.total() > 0, "mix weights must not all be 0");
        assert!(self.categories >= 1, "need at least one category");
        assert!(self.entities >= 1, "need at least one entity");
        let w = &self.weights;
        let key_zipf =
            (w.point > 0).then(|| Zipf::with_exponent(self.entities, self.key_skew.max(0.0)));
        let mut rng = derive_rng(self.seed, RngStream::Client(client as u64));
        (0..self.queries_per_client)
            .map(|_| {
                let draw = rng.random_range(0..w.total());
                if draw < w.select {
                    Request::algebra(select_query(rng.random_range(0..self.categories)))
                } else if draw < w.select + w.join {
                    Request::algebra(join_query(rng.random_range(0..100)))
                } else if draw < w.select + w.join + w.paper {
                    Request::sql(paper_shaped_sql(rng.random_range(0..self.categories)))
                } else if draw < w.select + w.join + w.paper + w.point {
                    // Zipf-skewed key choice: hot entities dominate, the
                    // realistic shape for point traffic.
                    let entity = key_zipf
                        .as_ref()
                        .expect("point weight > 0 builds the sampler")
                        .sample(&mut rng);
                    Request::algebra(point_lookup(entity))
                } else if draw < w.select + w.join + w.paper + w.point + w.range {
                    let lo = rng.random_range(0..90);
                    Request::algebra(range_scan(lo, lo + 9))
                } else {
                    // Catalog reads alternate between the windowed
                    // rollups and the live-session registry.
                    let text = if rng.random_range(0..2u32) == 0 {
                        sys_stats_query()
                    } else {
                        sys_sessions_query()
                    };
                    Request::sql(text)
                }
            })
            .collect()
    }
}

/// What one driver run produced: every client's per-query results in
/// script order, plus wall-clock figures.
#[derive(Debug)]
pub struct DriveReport<R> {
    /// `per_client[i][q]` = what `serve` returned for client `i`'s
    /// `q`-th query, in script order regardless of scheduling.
    pub per_client: Vec<Vec<R>>,
    /// Queries issued in total.
    pub queries: usize,
    /// Wall-clock time for the whole population to finish.
    pub elapsed: Duration,
    /// Per-query service latencies (think time excluded) across the
    /// whole population.
    pub latency: LatencySummary,
}

impl<R> DriveReport<R> {
    /// Throughput in queries per second.
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }
}

/// Run the population *concurrently*: one OS thread per client, each
/// executing its script closed-loop against `serve` (any `Sync` query
/// sink — a `polygen-serve` service, a bare PQP, a mock). Results come
/// back in deterministic script order even though execution interleaves.
pub fn drive<R, F>(mix: &ClientMix, serve: F) -> DriveReport<R>
where
    F: Fn(usize, &Request) -> R + Sync,
    R: Send,
{
    let start = Instant::now();
    let serve = &serve;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix.clients)
            .map(|client| {
                let script = mix.script(client);
                let think = mix.think;
                scope.spawn(move || {
                    let last = script.len().saturating_sub(1);
                    script
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let issued = Instant::now();
                            let r = serve(client, q);
                            let latency = issued.elapsed();
                            // Think *between* queries only — no trailing
                            // sleep after the final answer, which would
                            // pad the population's wall clock.
                            if !think.is_zero() && i < last {
                                std::thread::sleep(think);
                            }
                            (r, latency)
                        })
                        .collect::<Vec<(R, Duration)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    report_from(outcomes, start.elapsed())
}

/// Split `(result, latency)` pairs into a [`DriveReport`].
fn report_from<R>(outcomes: Vec<Vec<(R, Duration)>>, elapsed: Duration) -> DriveReport<R> {
    let latency = LatencySummary::from_durations(
        outcomes
            .iter()
            .flat_map(|client| client.iter().map(|(_, d)| *d)),
    );
    let per_client: Vec<Vec<R>> = outcomes
        .into_iter()
        .map(|client| client.into_iter().map(|(r, _)| r).collect())
        .collect();
    DriveReport {
        queries: per_client.iter().map(Vec::len).sum(),
        per_client,
        elapsed,
        latency,
    }
}

/// Run the *same* scripts sequentially, client by client, query by
/// query — the single-client baseline a concurrent run is differenced
/// against. No threads, no think time.
pub fn replay<R, F>(mix: &ClientMix, mut serve: F) -> DriveReport<R>
where
    F: FnMut(usize, &Request) -> R,
{
    let start = Instant::now();
    let outcomes: Vec<Vec<(R, Duration)>> = (0..mix.clients)
        .map(|client| {
            mix.script(client)
                .iter()
                .map(|q| {
                    let issued = Instant::now();
                    let r = serve(client, q);
                    (r, issued.elapsed())
                })
                .collect()
        })
        .collect();
    report_from(outcomes, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_serve::request::Lang;
    use polygen_sql::parse_algebra;

    #[test]
    fn scripts_are_deterministic_and_per_client_independent() {
        let mix = ClientMix::default().with_clients(3);
        for c in 0..3 {
            assert_eq!(mix.script(c), mix.script(c));
        }
        assert_ne!(mix.script(0), mix.script(1));
        // Adding clients never changes existing scripts.
        let more = mix.with_clients(8);
        assert_eq!(mix.script(2), more.script(2));
        // A different seed shifts every script.
        assert_ne!(mix.script(0), mix.with_seed(7).script(0));
    }

    #[test]
    fn scripts_respect_the_language_split_and_parse() {
        let mix = ClientMix::default().with_queries_per_client(64);
        let script = mix.script(0);
        assert_eq!(script.len(), 64);
        let mut saw = (false, false);
        for q in &script {
            match q.lang {
                Lang::Algebra => {
                    saw.0 = true;
                    assert!(parse_algebra(&q.text).is_ok(), "{}", q.text);
                }
                Lang::Sql => {
                    saw.1 = true;
                    assert!(q.text.starts_with("SELECT"), "{}", q.text);
                }
                Lang::App => panic!("scripts carry no application SQL: {}", q.text),
            }
        }
        assert!(saw.0 && saw.1, "default weights exercise both languages");
    }

    #[test]
    fn drive_and_replay_issue_identical_streams() {
        let mix = ClientMix::default()
            .with_clients(4)
            .with_queries_per_client(10);
        // A pure sink: echo the query text back.
        let concurrent = drive(&mix, |c, q| (c, q.text.clone()));
        let sequential = replay(&mix, |c, q| (c, q.text.clone()));
        assert_eq!(concurrent.per_client, sequential.per_client);
        assert_eq!(concurrent.queries, mix.total_queries());
        assert!(concurrent.qps() > 0.0);
        assert_eq!(concurrent.latency.count(), mix.total_queries());
        assert!(concurrent.latency.p50_micros() <= concurrent.latency.p99_micros());
    }

    #[test]
    fn latency_summary_order_statistics() {
        // 1..=100 µs: nearest-rank percentiles are exact.
        let s = LatencySummary::from_micros((1..=100).rev().collect());
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50_micros(), 50);
        assert_eq!(s.p95_micros(), 95);
        assert_eq!(s.p99_micros(), 99);
        assert_eq!(s.percentile_micros(1.0), 100);
        assert_eq!(s.percentile_micros(0.0), 1);
        assert_eq!(s.max_micros(), 100);
        assert!((s.mean_micros() - 50.5).abs() < 1e-9);
        let empty = LatencySummary::from_micros(Vec::new());
        assert_eq!(empty.p99_micros(), 0);
        assert_eq!(empty.mean_micros(), 0.0);
        let d =
            LatencySummary::from_durations([Duration::from_micros(3), Duration::from_micros(1)]);
        assert_eq!(d.p50_micros(), 1);
        assert_eq!(d.max_micros(), 3);
    }

    #[test]
    fn index_classes_appear_with_weights_and_skew_keys() {
        let mix = ClientMix::default()
            .with_queries_per_client(200)
            .with_entities(500)
            .with_weights(MixWeights::with_index_lookups(4, 2));
        let script = mix.script(0);
        let points: Vec<&Request> = script
            .iter()
            .filter(|q| q.text.starts_with("PDETAIL [ENAME"))
            .collect();
        let ranges: Vec<&Request> = script
            .iter()
            .filter(|q| q.text.starts_with("PDETAIL [SCORE"))
            .collect();
        assert!(!points.is_empty() && !ranges.is_empty());
        assert!(points.len() > ranges.len(), "weights skew toward points");
        for q in script.iter() {
            if q.lang == Lang::Algebra {
                assert!(parse_algebra(&q.text).is_ok(), "{}", q.text);
            }
        }
        // Zipf key choice concentrates on hot entities: the most
        // frequent key dominates a uniform draw's expectation.
        let mut counts = std::collections::HashMap::new();
        for q in &points {
            *counts.entry(q.text.clone()).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(
            hottest * 20 > points.len(),
            "Zipf(1.0) should concentrate: hottest {hottest} of {}",
            points.len()
        );
        // Scripts stay deterministic, and zero index weights leave the
        // legacy mix's draws untouched.
        assert_eq!(mix.script(1), mix.script(1));
        let legacy = ClientMix::default();
        let relabeled = ClientMix::default().with_entities(9999).with_key_skew(0.0);
        assert_eq!(legacy.script(0), relabeled.script(0));
    }

    #[test]
    fn catalog_reads_appear_with_weight_and_stay_out_of_legacy_mixes() {
        let mix = ClientMix::default()
            .with_queries_per_client(200)
            .with_weights(MixWeights::with_catalog_reads(3));
        let script = mix.script(0);
        let sys: Vec<&Request> = script
            .iter()
            .filter(|q| q.text.contains("FROM sys."))
            .collect();
        assert!(!sys.is_empty(), "weight 3 of 13 must surface catalog reads");
        assert!(sys.len() < script.len(), "user shapes still dominate");
        let mut saw = (false, false);
        for q in &sys {
            assert_eq!(q.lang, Lang::Sql);
            saw.0 |= q.text.contains("sys.stats");
            saw.1 |= q.text.contains("sys.sessions");
        }
        assert!(saw.0 && saw.1, "both catalog shapes drawn");
        // Weight 0 keeps legacy scripts bit-identical — the sys branch
        // is appended strictly after every existing draw.
        let legacy = ClientMix::default();
        let zeroed = ClientMix::default().with_weights(MixWeights::with_catalog_reads(0));
        assert_eq!(legacy.script(0), zeroed.script(0));
        assert!(legacy.script(0).iter().all(|q| !q.text.contains("sys.")));
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn zero_weights_panic() {
        let mix = ClientMix {
            weights: MixWeights {
                select: 0,
                join: 0,
                paper: 0,
                point: 0,
                range: 0,
                sys: 0,
            },
            ..ClientMix::default()
        };
        let _ = mix.script(0);
    }
}
