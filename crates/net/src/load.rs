//! Closed-loop TCP load generation.
//!
//! [`NetClientMix`] is the wire twin of
//! [`polygen_workload::clients::drive`]: the *same* [`ClientMix`]
//! scripts (same seed ⇒ same per-client `RngStream` sub-seeds ⇒ the
//! exact same query sequences), but each client is a real TCP session
//! against a [`crate::server::NetServer`]. That pairing is what the
//! differential suite leans on — a TCP run and an in-process run of one
//! mix are comparable query-for-query, so responses can be required to
//! be byte-identical.

use crate::client::{NetClient, NetError};
use crate::protocol::Frame;
use polygen_obs::LatencySummary;
use polygen_serve::request::Request;
use polygen_workload::clients::{ClientMix, ClientQuery, QueryLang};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One client's exchanges: the frames and round-trip latency of each
/// scripted query, in script order.
type ClientExchanges = Vec<(Vec<Frame>, Duration)>;

/// The [`Request`] a generated workload query maps onto. One place, so
/// the TCP driver and the in-process baseline cannot disagree.
pub fn request_for(query: &ClientQuery) -> Request {
    match query.lang {
        QueryLang::Sql => Request::sql(&query.text),
        QueryLang::Algebra => Request::algebra(&query.text),
    }
}

/// What one TCP population run produced: the full frame stream of every
/// response, in script order, plus wall-clock and latency figures.
#[derive(Debug)]
pub struct NetRun {
    /// `per_client[i][q]` = the response frames (terminal frame
    /// included) for client `i`'s `q`-th scripted query.
    pub per_client: Vec<Vec<Vec<Frame>>>,
    /// Queries issued in total.
    pub queries: usize,
    /// Idle connections held open (and verified serviceable) for the
    /// whole run, alongside the scripted clients.
    pub idle: usize,
    /// Wall-clock time for the whole population to finish.
    pub elapsed: Duration,
    /// Per-query round-trip latencies (think time excluded).
    pub latency: LatencySummary,
}

impl NetRun {
    /// Sustained throughput in queries per second.
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }
}

/// A closed-loop TCP client population: [`ClientMix`] scripts spoken
/// over the wire, one connection per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetClientMix {
    /// The script generator — shared verbatim with in-process runs.
    pub mix: ClientMix,
    /// Extra connections that connect, read the greeting, and then sit
    /// parked for the whole run — the "ten thousand idle sessions"
    /// population the evented server exists to make cheap. Zero by
    /// default so the differential suite's runs stay exactly the
    /// in-process scripts.
    pub idle: usize,
}

impl NetClientMix {
    /// Drive `mix`'s scripts over TCP.
    pub fn new(mix: ClientMix) -> Self {
        NetClientMix { mix, idle: 0 }
    }

    /// Park `idle` extra connections for the duration of the run.
    pub fn with_idle_connections(mut self, idle: usize) -> Self {
        self.idle = idle;
        self
    }

    /// Run the population against a server at `addr`: one OS thread and
    /// one TCP session per client, each executing its deterministic
    /// script closed-loop (send, await the full response stream, think,
    /// repeat).
    pub fn drive(&self, addr: SocketAddr) -> Result<NetRun, NetError> {
        let mix = &self.mix;
        // Park the idle population first: each one completes the
        // greeting handshake (so it is a *serviced* session, not just a
        // socket in an accept queue) and then holds its connection open
        // across the scripted run.
        let parked: Vec<NetClient> = (0..self.idle)
            .map(|_| NetClient::connect(addr))
            .collect::<Result<_, _>>()?;
        let start = Instant::now();
        let joined: Vec<Result<ClientExchanges, NetError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..mix.clients)
                .map(|client| {
                    let script = mix.script(client);
                    let think = mix.think;
                    scope.spawn(move || {
                        let mut session = NetClient::connect(addr)?;
                        let last = script.len().saturating_sub(1);
                        let mut exchanges = Vec::with_capacity(script.len());
                        for (i, q) in script.iter().enumerate() {
                            let issued = Instant::now();
                            let frames = session.execute_frames(&request_for(q))?;
                            exchanges.push((frames, issued.elapsed()));
                            if !think.is_zero() && i < last {
                                std::thread::sleep(think);
                            }
                        }
                        Ok(exchanges)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("net client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        drop(parked);
        let mut per_client = Vec::with_capacity(joined.len());
        let mut latencies = Vec::new();
        for outcome in joined {
            let exchanges = outcome?;
            latencies.extend(exchanges.iter().map(|(_, d)| *d));
            per_client.push(exchanges.into_iter().map(|(f, _)| f).collect::<Vec<_>>());
        }
        Ok(NetRun {
            queries: per_client.iter().map(Vec::len).sum(),
            idle: self.idle,
            per_client,
            elapsed,
            latency: LatencySummary::from_durations(latencies),
        })
    }
}
