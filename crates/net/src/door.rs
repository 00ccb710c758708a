//! The front door's protocol state as a pure state machine.
//!
//! [`FrontDoor`] takes every per-connection decision of the TCP front
//! door — frame reassembly, one request in flight, the outbound cap,
//! close causes, the shutdown drain, session and connection-metric
//! bookkeeping, slow-log observation on flush — and performs no I/O.
//! Its `on_*` methods are told what happened and queue [`Action`]s for
//! the driver in [`crate::server`] to carry out. No socket, thread or
//! clock is touched here, so the tests drive the machine through seeded
//! schedules in simulated time.

use crate::protocol::{WIRE_BACKPRESSURE, WIRE_MALFORMED, WIRE_UNEXPECTED_FRAME};
use crate::sys::Interest;
use polygen_obs::session::SessionStats;
use polygen_obs::slowlog::QueryDetail;
use polygen_obs::trace::Trace;
use polygen_serve::request::Request;
use polygen_serve::service::QueryService;
use polygen_serve::wire::codec::FrameReader;
use polygen_serve::wire::{request_from_frame, Frame, PROTOCOL_VERSION};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection cap on *buffered unsent* response bytes, checked
/// before a response is queued: any single response may exceed it, but
/// a peer that leaves a previous one undrained is closed with
/// [`WIRE_BACKPRESSURE`].
pub(crate) const OUTBOUND_CAP: usize = 4 * 1024 * 1024;

/// How long shutdown keeps flushing before abandoning undrained
/// connections — the bound that makes it safe against stalled peers.
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_millis(750);

/// Bytes the driver reads per readiness event; a reader holds at most
/// one partial frame plus this (reads pause while answers flush).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Poller tokens: the driver's listener and waker, then connections,
/// never reused — a late completion finds nobody, not somebody else.
pub(crate) const TOKEN_LISTENER: u64 = 0;
pub(crate) const TOKEN_WAKER: u64 = 1;
const FIRST_TOKEN: u64 = 2;

/// What the accept loop should do about an `accept(2)` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// No connection pending (`EWOULDBLOCK`): wait for readiness.
    Idle,
    /// The peer aborted or a signal interrupted: retry at once.
    Retry,
    /// Resource exhaustion: retry after a short backoff, not a spin.
    Backoff,
    /// The listener itself is broken.
    Fatal,
}

/// Classify an `accept(2)` error. Only errors that condemn the
/// *listener* are fatal; everything that condemns one would-be
/// *connection* (or nothing at all) is retryable.
pub(crate) fn classify_accept_error(e: &std::io::Error) -> AcceptDisposition {
    match e.kind() {
        ErrorKind::WouldBlock => AcceptDisposition::Idle,
        ErrorKind::Interrupted | ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset => {
            AcceptDisposition::Retry
        }
        _ => match e.raw_os_error() {
            // EMFILE(24) / ENFILE(23): descriptor tables full;
            // ENOBUFS(105) / ENOMEM(12): kernel memory pressure.
            // All clear as connections close — back off, don't die.
            Some(12 | 23 | 24 | 105) => AcceptDisposition::Backoff,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// One decoded request on its way to the worker pool. Its instants
/// open a traced request's waterfall at the wire: `net/decode` from the
/// read to the hand-off (which the driver stamps), then `net/queue`
/// until a worker picks the job up.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) request: Request,
    /// The connection's `sys.sessions` row, which the service accounts
    /// the request to.
    pub(crate) stats: Arc<SessionStats>,
    pub(crate) decode_start: Instant,
    pub(crate) decode_done: Instant,
}

/// A served request's facts and recorder (disabled unless the request
/// asked for a trace), riding back so that `net/flush` and the
/// slow-log observation happen where flushing does.
pub(crate) struct Served {
    pub(crate) trace: Trace,
    pub(crate) query: String,
    pub(crate) started: Instant,
    pub(crate) detail: QueryDetail,
}

/// One executed request's encoded response frames.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) served: Served,
}

/// What the machine asks its driver to do.
pub(crate) enum Action {
    /// Write what the socket takes of [`FrontDoor::outbound`] and report
    /// the count to [`FrontDoor::on_writable`].
    Write(u64),
    /// Hand a decoded request to the worker pool.
    Submit(Job),
    /// Re-register the connection's readiness interest.
    Interest(u64, Interest),
    /// Drop the socket; the machine has already forgotten it.
    Close(u64, CloseCause),
}

/// Why a connection is torn down (drives metrics and the parting frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseCause {
    /// Hang-up, finished stream, protocol violation, I/O error, shutdown.
    Ordinary,
    /// The outbound cap tripped.
    Backpressure,
}

impl CloseCause {
    /// What to write, best effort, just before the socket drops.
    pub(crate) fn last_words(self) -> Option<Vec<u8>> {
        (self == CloseCause::Backpressure).then(|| {
            let message = "outbound buffer cap exceeded; peer not draining responses";
            let (code, message) = (WIRE_BACKPRESSURE, message.to_string());
            Frame::Error { code, message }.encode()
        })
    }
}

/// How far a connection's request stream has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reads {
    Open,
    /// The peer half-closed: serve what is buffered, flush, then close.
    Ended,
    /// A transport error was queued: close once it flushes.
    Refused,
}

/// Per-connection protocol state.
struct Conn {
    reader: FrameReader,
    /// Unsent response bytes, from the cursor `sent` on.
    out: Vec<u8>,
    sent: usize,
    /// Bytes ever written to the socket.
    written: u64,
    /// A request is executing.
    busy: bool,
    reads: Reads,
    registered: Interest,
    /// Served requests whose responses are still leaving: the `written`
    /// count at which each is gone, and when its flush began.
    flushing: VecDeque<(u64, Instant, Served)>,
    stats: Arc<SessionStats>,
}

impl Conn {
    fn pending(&self) -> usize {
        self.out.len() - self.sent
    }

    fn idle(&self) -> bool {
        !self.busy && self.pending() == 0
    }

    /// Reads pause while a request executes or an answer waits to flush:
    /// kernel socket buffers, not the reader, throttle a pipelining peer.
    fn wants(&self, stopping: bool) -> Interest {
        Interest {
            read: self.reads == Reads::Open && self.idle() && !stopping,
            write: self.pending() > 0,
        }
    }
}

/// The front door's protocol state; see the module docs.
pub(crate) struct FrontDoor {
    service: Arc<QueryService>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    listener_dead: bool,
    /// Set by [`FrontDoor::on_stop`]: when shutdown stops waiting.
    deadline: Option<Instant>,
    actions: VecDeque<Action>,
    /// Connections whose interest may have changed, resolved only once
    /// `actions` drain — a response that flushes at once costs no
    /// re-registration.
    dirty: Vec<u64>,
}

impl FrontDoor {
    pub(crate) fn new(service: Arc<QueryService>) -> Self {
        FrontDoor {
            service,
            conns: HashMap::new(),
            next_token: FIRST_TOKEN,
            listener_dead: false,
            deadline: None,
            actions: VecDeque::new(),
            dirty: Vec::new(),
        }
    }

    pub(crate) fn accepting(&self) -> bool {
        !self.listener_dead && self.deadline.is_none()
    }

    /// No longer accepting and nothing open: the driver may exit.
    pub(crate) fn done(&self) -> bool {
        !self.accepting() && self.conns.is_empty()
    }

    /// The connection's unsent response bytes.
    pub(crate) fn outbound(&self, token: u64) -> &[u8] {
        self.conns.get(&token).map_or(&[], |c| &c.out[c.sent..])
    }

    pub(crate) fn next_action(&mut self) -> Option<Action> {
        if let Some(action) = self.actions.pop_front() {
            return Some(action);
        }
        let stopping = self.deadline.is_some();
        while let Some(token) = self.dirty.pop() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let wanted = conn.wants(stopping);
            if wanted != conn.registered {
                conn.registered = wanted;
                return Some(Action::Interest(token, wanted));
            }
        }
        None
    }

    /// A connection from `peer` was accepted; the driver registers its
    /// socket for [`Interest::READ`] under the returned token.
    pub(crate) fn on_accept(&mut self, peer: &str) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let stats = self.service.sessions().register(peer);
        self.service.live_metrics().record_conn_opened();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        let conn = Conn {
            reader: FrameReader::new(),
            out: hello.encode(),
            sent: 0,
            written: 0,
            busy: false,
            reads: Reads::Open,
            registered: Interest::READ,
            flushing: VecDeque::new(),
            stats,
        };
        self.conns.insert(token, conn);
        self.actions.push_back(Action::Write(token));
        token
    }

    /// `accept(2)` failed; only a fatal error stops accepting, for good.
    pub(crate) fn on_accept_error(&mut self, e: &std::io::Error) -> AcceptDisposition {
        let disposition = classify_accept_error(e);
        self.listener_dead |= disposition == AcceptDisposition::Fatal;
        disposition
    }

    pub(crate) fn on_readable(&mut self, token: u64, bytes: &[u8], now: Instant) {
        match self.conns.get_mut(&token) {
            Some(conn) if conn.reads == Reads::Open => conn.reader.push(bytes),
            _ => return,
        }
        self.dispatch(token, now);
        self.settle(token, now);
    }

    /// The peer half-closed: "no more requests", not "gone". The request
    /// in flight finishes, buffered frames are served, and the
    /// connection closes once everything has flushed.
    pub(crate) fn on_eof(&mut self, token: u64, now: Instant) {
        match self.conns.get_mut(&token) {
            Some(conn) if conn.reads == Reads::Open => conn.reads = Reads::Ended,
            _ => return,
        }
        self.dispatch(token, now);
        self.settle(token, now);
    }

    /// The peer is gone (hang-up, socket error): close at once.
    pub(crate) fn on_hangup(&mut self, token: u64, now: Instant) {
        self.close(token, CloseCause::Ordinary, now);
    }

    /// The socket took `written` bytes of [`FrontDoor::outbound`].
    pub(crate) fn on_writable(&mut self, token: u64, written: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.sent += written;
        conn.written += written as u64;
        while conn.flushing.front().is_some_and(|f| f.0 <= conn.written) {
            let (_, since, served) = conn.flushing.pop_front().expect("front checked");
            observe(&self.service, served, since, now);
        }
        if conn.pending() == 0 {
            conn.out.clear();
            conn.sent = 0;
            // Everything has left, so the next buffered frame may go.
            self.dispatch(token, now);
        }
        self.settle(token, now);
    }

    /// A worker finished a request. If its peer left mid-query, it was
    /// still served: observe it now.
    pub(crate) fn on_completion(&mut self, done: Completion, now: Instant) {
        let token = done.token;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.busy = false;
        }
        if !self.queue(token, &done.bytes, now) {
            return observe(&self.service, done.served, now, now);
        }
        let conn = self.conns.get_mut(&token).expect("queued");
        let end = conn.written + conn.pending() as u64;
        conn.flushing.push_back((end, now, done.served));
        // A pipelined frame may already sit in the reader, where no
        // readiness event will announce it.
        self.dispatch(token, now);
        self.settle(token, now);
    }

    /// While stopping, close everything once nothing executes or waits
    /// to flush — or once the grace has run out.
    pub(crate) fn on_tick(&mut self, now: Instant) {
        let Some(deadline) = self.deadline else {
            return;
        };
        if now >= deadline || self.conns.values().all(Conn::idle) {
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.close(token, CloseCause::Ordinary, now);
            }
        }
    }

    /// Shutdown began: stop accepting and reading, and give in-flight
    /// responses [`SHUTDOWN_GRACE`] to flush.
    pub(crate) fn on_stop(&mut self, now: Instant) {
        if self.deadline.is_none() {
            self.deadline = Some(now + SHUTDOWN_GRACE);
            self.dirty.extend(self.conns.keys().copied());
            self.on_tick(now);
        }
    }

    /// Dispatch the next buffered frame if the connection can take a
    /// request. A query goes to the pool and pauses the connection. A
    /// stats request is answered here — no worker, no admission — so a
    /// scrape succeeds while the query path is saturated. One frame per
    /// call: after a scrape, the next frame — and the next read — waits
    /// for `on_writable` to flush it, so a pipelined flood drains as fast
    /// as the peer reads and is buffered no more than one read ahead.
    fn dispatch(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.busy || conn.reads == Reads::Refused || self.deadline.is_some() {
            return;
        }
        let frame = match conn.reader.next_frame() {
            Ok(None) => return,
            Ok(Some(payload)) => Frame::decode(payload),
            Err(e) => Err(e),
        };
        let request = match frame {
            Ok(Frame::StatsRequest) => {
                let text = self.service.scrape();
                self.queue(token, &Frame::Stats { text }.encode(), now);
                return;
            }
            Ok(frame) => request_from_frame(&frame).ok_or_else(|| {
                let why = format!("expected a Query frame, got tag {}", frame.tag());
                (WIRE_UNEXPECTED_FRAME, why)
            }),
            Err(e) => Err((WIRE_MALFORMED, e.to_string())),
        };
        match request {
            Ok(request) => {
                conn.busy = true;
                self.actions.push_back(Action::Submit(Job {
                    token,
                    request,
                    stats: Arc::clone(&conn.stats),
                    decode_start: now,
                    decode_done: now,
                }));
            }
            // Framing is in doubt and the stream cannot be
            // resynchronized: send a transport error, close once it
            // flushes.
            Err((code, message)) => {
                conn.reads = Reads::Refused;
                self.queue(token, &Frame::Error { code, message }.encode(), now);
            }
        }
    }

    /// Queue response bytes, checking the cap *before* the append: a
    /// peer with leftover unsent bytes is not draining, and is cut off
    /// rather than buffered without bound. False if it was.
    fn queue(&mut self, token: u64, bytes: &[u8], now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.pending() > OUTBOUND_CAP {
            self.close(token, CloseCause::Backpressure, now);
            return false;
        }
        conn.out.drain(..conn.sent);
        conn.sent = 0;
        conn.out.extend_from_slice(bytes);
        self.actions.push_back(Action::Write(token));
        true
    }

    /// After an event: close a connection with nothing left to do — its
    /// requests ended or were refused, nothing executes, nothing waits
    /// to flush — or else note that its interest may have changed.
    fn settle(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.reads != Reads::Open && conn.idle() {
            self.close(token, CloseCause::Ordinary, now);
        } else if self.dirty.last() != Some(&token) {
            self.dirty.push(token);
        }
    }

    /// Forget a connection, record why, and tell the driver.
    fn close(&mut self, token: u64, cause: CloseCause, now: Instant) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        for (_, since, served) in conn.flushing {
            observe(&self.service, served, since, now);
        }
        let metrics = self.service.live_metrics();
        if cause == CloseCause::Backpressure {
            metrics.record_conn_backpressure_close();
        }
        metrics.record_conn_closed();
        self.service.sessions().deregister(conn.stats.id());
        self.actions.push_back(Action::Close(token, cause));
    }
}

/// A served request is done with the wire (flushed, or its peer gone):
/// close the waterfall with `net/flush` and feed the request, with the
/// facts the service computed, to the slow-query log.
fn observe(service: &QueryService, s: Served, flush_start: Instant, now: Instant) {
    s.trace.record_closed("net/flush", flush_start, now);
    let elapsed = now.saturating_duration_since(s.started);
    service.observe_slow(&s.query, elapsed, &s.trace, s.detail);
}

#[cfg(test)]
pub(crate) mod tests {
    //! A seeded simulator: it plays the driver, the worker pool and the
    //! peers against one [`FrontDoor`], in simulated time, and checks
    //! after every schedule that
    //!
    //! * responses arrive in request order, byte-identical in the
    //!   `deterministic_bytes` view to in-process `QueryService::execute`;
    //! * every completion handed back is observed exactly once (its trace
    //!   holds one `net/flush` span);
    //! * `conns_open` and the session registry return to 0;
    //! * pending outbound bytes never exceed [`OUTBOUND_CAP`] plus one
    //!   response;
    //! * the door never asks for reads while an answer waits to flush,
    //!   so a reader holds no more than one frame plus [`READ_CHUNK`];
    //! * shutdown ends within [`SHUTDOWN_GRACE`] of simulated time;
    //! * hostile bytes end in a well-formed `WIRE_*` error frame or a
    //!   close, never a panic.
    //!
    //! A seed fixes every choice the simulator makes, but scrape answers
    //! carry live timings, so a schedule with scrapes can drain in other
    //! pieces from one run to the next.

    use super::*;
    use crate::server::run_job;
    use polygen_serve::request::ResponseInfo;
    use polygen_serve::service::ServeOptions;
    use polygen_serve::wire::codec::MAX_FRAME_LEN;
    use polygen_serve::wire::{deterministic_bytes, request_frame, response_frames};
    use polygen_workload::{self as workload, WorkloadConfig};

    /// splitmix64: a tiny seeded stream, no RNG crate.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        /// In `1..=n`: a third of draws are 1, a third are `n`.
        fn size(&mut self, n: usize) -> usize {
            match self.below(3) {
                0 => 1,
                1 => n,
                _ => 1 + self.below(n),
            }
        }

        fn percent(&mut self, p: usize) -> bool {
            self.below(100) < p
        }
    }

    /// The service under test, the requests peers may send, and the
    /// in-process answer each must get.
    struct World {
        service: Arc<QueryService>,
        requests: Vec<Request>,
        /// `deterministic_bytes` of each request's in-process answer.
        expected: Vec<Vec<u8>>,
    }

    impl World {
        fn new() -> World {
            let config = WorkloadConfig::default().with_sources(2).with_entities(8);
            let scenario = workload::generate(&config);
            let service = Arc::new(QueryService::for_scenario(
                &scenario,
                ServeOptions::default(),
            ));
            let uncached =
                QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
            let requests: Vec<Request> = [
                Request::algebra("PENTITY [CATEGORY = \"C0\"]"),
                Request::algebra("PENTITY [CATEGORY <> \"nope\"]"),
                Request::algebra("PENTITY"),
                Request::sql("SELECT"),
                Request::sql("   "),
                Request::algebra("PENTITY [CATEGORY = \"C1\"]").with_explain(true),
            ]
            .into_iter()
            .map(|r| r.with_trace(true))
            .collect();
            let expected = requests
                .iter()
                .map(|r| deterministic_bytes(&response_frames(&uncached.execute(r.clone()))))
                .collect();
            World {
                service,
                requests,
                expected,
            }
        }

        fn wire(&self, ask: Ask) -> Vec<u8> {
            match ask {
                Ask::Query(q) => request_frame(&self.requests[q]).encode(),
                Ask::Scrape => Frame::StatsRequest.encode(),
            }
        }

        /// A peer that pipelines `asks`.
        fn peer(&self, asks: Vec<Ask>) -> Peer {
            let wire = asks.iter().flat_map(|&a| self.wire(a)).collect();
            Peer {
                token: 0,
                asks,
                wire,
                sent: 0,
                half_close: false,
                eof: false,
                stalled: false,
                got: Vec::new(),
                interest: Interest::READ,
                closed: None,
            }
        }

        /// Up to `n` random asks, a `scrapes`% share of them scrapes.
        fn asks(&self, rng: &mut Rng, n: usize, scrapes: usize) -> Vec<Ask> {
            (0..rng.size(n))
                .map(|_| {
                    if rng.percent(scrapes) {
                        Ask::Scrape
                    } else {
                        Ask::Query(rng.below(self.requests.len()))
                    }
                })
                .collect()
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ask {
        Query(usize),
        Scrape,
    }

    struct Peer {
        token: u64,
        asks: Vec<Ask>,
        /// What this peer sends, and how much the door has read of it.
        wire: Vec<u8>,
        sent: usize,
        /// Half-close once everything is sent.
        half_close: bool,
        eof: bool,
        /// Never drains its responses.
        stalled: bool,
        /// Everything the door wrote to this peer.
        got: Vec<u8>,
        /// The interest the door last registered.
        interest: Interest,
        closed: Option<CloseCause>,
    }

    /// Driver, pool and peers around one machine.
    struct Sim<'w> {
        world: &'w World,
        door: FrontDoor,
        rng: Rng,
        now: Instant,
        peers: Vec<Peer>,
        /// Submitted jobs not yet completed.
        pool: Vec<Job>,
        /// The trace of every completion handed to the door.
        served: Vec<Trace>,
        /// Each completion's connection and size, in the order handed.
        sizes: Vec<(u64, usize)>,
        /// Answer with synthetic responses of up to this many bytes
        /// instead of executing.
        synthetic: Option<usize>,
        /// Per-step odds (percent) that some peer hangs up.
        hangups: usize,
        /// The largest single response queued, the most bytes ever
        /// pending on one connection, and the most a reader ever held.
        largest: usize,
        max_pending: usize,
        max_held: usize,
        stopped_at: Option<Instant>,
    }

    impl<'w> Sim<'w> {
        fn new(world: &'w World, seed: u64, peers: Vec<Peer>) -> Sim<'w> {
            let mut sim = Sim {
                world,
                door: FrontDoor::new(Arc::clone(&world.service)),
                rng: Rng(seed),
                now: Instant::now(),
                peers: Vec::new(),
                pool: Vec::new(),
                served: Vec::new(),
                sizes: Vec::new(),
                synthetic: None,
                hangups: 0,
                largest: 0,
                max_pending: 0,
                max_held: 0,
                stopped_at: None,
            };
            for mut peer in peers {
                peer.token = sim.door.on_accept("127.0.0.1:9");
                sim.peers.push(peer);
                sim.apply();
            }
            sim
        }

        fn peer(&mut self, token: u64) -> &mut Peer {
            self.peers
                .iter_mut()
                .find(|p| p.token == token)
                .expect("known peer")
        }

        /// Do what the door asks, as the driver would.
        fn apply(&mut self) {
            while let Some(action) = self.door.next_action() {
                match action {
                    // The schedule decides when the socket takes bytes.
                    Action::Write(_) => {}
                    Action::Submit(job) => self.pool.push(job),
                    Action::Interest(token, interest) => {
                        let stopping = self.stopped_at.is_some();
                        let peer = self.peer(token);
                        assert!(
                            !(interest.read && (peer.eof || stopping)),
                            "read interest after reads ended"
                        );
                        assert!(
                            !(interest.read && interest.write),
                            "read interest while an answer waits to flush"
                        );
                        peer.interest = interest;
                    }
                    Action::Close(token, cause) => {
                        let peer = self.peer(token);
                        assert_eq!(peer.closed, None, "closed twice");
                        peer.closed = Some(cause);
                    }
                }
            }
            for peer in self.peers.iter().filter(|p| p.closed.is_none()) {
                let pending = self.door.outbound(peer.token).len();
                self.max_pending = self.max_pending.max(pending);
                let held = self.door.conns[&peer.token].reader.held();
                self.max_held = self.max_held.max(held);
            }
        }

        fn open(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.peers.len()).filter(|&i| self.peers[i].closed.is_none())
        }

        /// One random move; false once nothing is left to happen.
        fn step(&mut self) -> bool {
            self.now += Duration::from_micros(self.rng.below(2_000) as u64);
            let open: Vec<usize> = self.open().collect();
            if self.hangups > 0 && !open.is_empty() && self.rng.percent(self.hangups) {
                let token = self.peers[open[self.rng.below(open.len())]].token;
                self.door.on_hangup(token, self.now);
                self.apply();
                return true;
            }
            let mut moves = Vec::new();
            for &i in &open {
                let p = &self.peers[i];
                if p.interest.read && p.sent < p.wire.len() {
                    moves.push(Move::Send(i));
                }
                if p.interest.read && p.sent == p.wire.len() && p.half_close && !p.eof {
                    moves.push(Move::Eof(i));
                }
                if !p.stalled && !self.door.outbound(p.token).is_empty() {
                    moves.push(Move::Drain(i));
                }
            }
            if !self.pool.is_empty() {
                moves.push(Move::Complete);
            }
            let stopping = self.stopped_at.is_some() && !self.door.done();
            if stopping && (moves.is_empty() || self.rng.percent(10)) {
                moves.push(Move::Tick);
            }
            if moves.is_empty() {
                return false;
            }
            let chosen = moves[self.rng.below(moves.len())];
            self.play(chosen);
            self.apply();
            true
        }

        fn play(&mut self, chosen: Move) {
            let now = self.now;
            match chosen {
                Move::Send(i) => {
                    let p = &mut self.peers[i];
                    let n = self.rng.size((p.wire.len() - p.sent).min(READ_CHUNK));
                    let chunk = p.wire[p.sent..p.sent + n].to_vec();
                    p.sent += n;
                    self.door.on_readable(p.token, &chunk, now);
                }
                Move::Eof(i) => {
                    self.peers[i].eof = true;
                    self.door.on_eof(self.peers[i].token, now);
                }
                Move::Drain(i) => {
                    let token = self.peers[i].token;
                    let out = self.door.outbound(token);
                    let n = self.rng.size(out.len());
                    self.peers[i].got.extend_from_slice(&out[..n]);
                    self.door.on_writable(token, n, now);
                }
                Move::Complete => {
                    let job = self.pool.swap_remove(self.rng.below(self.pool.len()));
                    let done = match self.synthetic {
                        Some(max) => synthetic(job, self.rng.size(max)),
                        None => run_job(&self.world.service, job),
                    };
                    self.largest = self.largest.max(done.bytes.len());
                    self.sizes.push((done.token, done.bytes.len()));
                    self.served.push(done.served.trace.clone());
                    self.door.on_completion(done, now);
                }
                Move::Tick => {
                    self.now += Duration::from_millis(self.rng.below(100) as u64);
                    self.door.on_tick(self.now);
                    let deadline = self.stopped_at.map(|t| t + SHUTDOWN_GRACE);
                    if deadline.is_some_and(|d| self.now >= d) {
                        self.apply();
                        assert!(self.door.done(), "shutdown outlived its grace");
                    }
                }
            }
        }

        /// Begin shutdown. Workers take no job after the stop flag, so
        /// a job still queued either was already running or never
        /// completes.
        fn stop(&mut self) {
            self.door.on_stop(self.now);
            self.stopped_at = Some(self.now);
            let mut pool = std::mem::take(&mut self.pool);
            pool.retain(|_| self.rng.percent(50));
            self.pool = pool;
            self.apply();
        }

        /// Play until nothing is left; stop after `stop_after` steps if
        /// asked. Peers still open at the end hang up.
        fn run(&mut self, stop_after: Option<usize>) {
            let mut steps = 0;
            loop {
                if stop_after == Some(steps) && self.stopped_at.is_none() {
                    self.stop();
                }
                if !self.step() {
                    break;
                }
                steps += 1;
                assert!(steps < 1_000_000, "schedule never settled");
            }
            let open: Vec<usize> = self.open().collect();
            for i in open {
                self.door.on_hangup(self.peers[i].token, self.now);
            }
            self.apply();
        }

        /// The invariants every schedule keeps, whatever happened.
        fn check_common(&self) {
            assert!(self.peers.iter().all(|p| p.closed.is_some()));
            assert!(self.world.service.sessions().is_empty(), "session leaked");
            assert_eq!(self.world.service.metrics().conns_open, 0);
            // (A bit flip can clear a request's trace flag; those
            // completions carry no recorder to count with.)
            for report in self.served.iter().filter_map(Trace::report) {
                assert_eq!(
                    report.spans_named("net/flush").count(),
                    1,
                    "a served request was not observed exactly once"
                );
            }
            let largest = self
                .peers
                .iter()
                .flat_map(|p| decode_all(&p.got).0)
                .filter(|f| matches!(f, Frame::Stats { .. }))
                .map(|f| f.encode().len())
                .fold(self.largest, usize::max);
            assert!(
                self.max_pending <= OUTBOUND_CAP + largest,
                "{} bytes pending",
                self.max_pending
            );
            let frame = 4 + MAX_FRAME_LEN as usize;
            assert!(
                self.max_held <= frame + READ_CHUNK,
                "a reader held {} bytes",
                self.max_held
            );
        }

        /// Every answer a peer got matches what it asked, in order; with
        /// `whole`, it got all of them and nothing else.
        fn check_answers(&self, whole: bool) {
            for p in &self.peers {
                let (frames, tail) = decode_all(&p.got);
                let answers = group(&frames);
                assert!(answers.len() <= p.asks.len(), "more answers than asks");
                for (ask, answer) in p.asks.iter().zip(&answers) {
                    match *ask {
                        Ask::Query(q) => assert_eq!(
                            deterministic_bytes(answer),
                            self.world.expected[q],
                            "answer to `{}` diverged",
                            self.world.requests[q].text
                        ),
                        Ask::Scrape => {
                            assert!(matches!(answer.as_slice(), [Frame::Stats { .. }]))
                        }
                    }
                }
                if whole {
                    assert_eq!(answers.len(), p.asks.len(), "asks went unanswered");
                    assert_eq!(tail, 0, "trailing bytes");
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Move {
        Send(usize),
        Eof(usize),
        Drain(usize),
        Complete,
        Tick,
    }

    /// A completion of `size` bytes (at least one empty `Stats` frame)
    /// that executes nothing: one terminal frame, so a reading peer sees
    /// one whole answer.
    fn synthetic(job: Job, size: usize) -> Completion {
        let text = "x".repeat(size.saturating_sub(9));
        Completion {
            token: job.token,
            bytes: Frame::Stats { text }.encode(),
            served: Served {
                trace: Trace::enabled(),
                query: job.request.text,
                started: job.decode_start,
                detail: QueryDetail::default(),
            },
        }
    }

    /// Every whole frame in `bytes` (each must decode), after the
    /// greeting, and how many bytes trail them.
    fn decode_all(bytes: &[u8]) -> (Vec<Frame>, usize) {
        let mut reader = FrameReader::new();
        reader.push(bytes);
        let mut frames = Vec::new();
        let mut used = 0;
        while let Some(payload) = reader.next_frame().expect("well-formed length") {
            used += 4 + payload.len();
            frames.push(Frame::decode(payload).expect("every frame decodes"));
        }
        if !frames.is_empty() {
            let hello = frames.remove(0);
            assert_eq!(
                hello,
                Frame::Hello {
                    version: PROTOCOL_VERSION
                }
            );
        }
        (frames, bytes.len() - used)
    }

    /// Frames cut into answers at terminal frames (a trailing partial
    /// answer is dropped).
    fn group(frames: &[Frame]) -> Vec<Vec<Frame>> {
        let mut answers = Vec::new();
        let mut current = Vec::new();
        for frame in frames {
            current.push(frame.clone());
            if frame.is_terminal() {
                answers.push(std::mem::take(&mut current));
            }
        }
        answers
    }

    /// Request order and byte identity under split reads and short
    /// writes: two pipelined queries and a scrape, their bytes split at
    /// every boundary into two reads, the answers drained a random
    /// number of bytes at a time.
    #[test]
    fn reads_split_at_every_byte_boundary() {
        let world = World::new();
        let asks = vec![Ask::Query(0), Ask::Scrape, Ask::Query(5)];
        let len = world.peer(asks.clone()).wire.len();
        for cut in 0..=len {
            let mut peer = world.peer(asks.clone());
            peer.half_close = true;
            let mut sim = Sim::new(&world, cut as u64, vec![peer]);
            let token = sim.peers[0].token;
            let wire = sim.peers[0].wire.clone();
            sim.peers[0].sent = len;
            sim.door.on_readable(token, &wire[..cut], sim.now);
            sim.apply();
            sim.door.on_readable(token, &wire[cut..], sim.now);
            sim.apply();
            sim.run(None);
            sim.check_common();
            sim.check_answers(true);
            assert_eq!(sim.peers[0].closed, Some(CloseCause::Ordinary));
        }
    }

    /// Pipelining peers — queries, errors, EXPLAIN, blanks and scrapes —
    /// read in random pieces, drained by short writes, their jobs
    /// completing in any order across peers: every answer arrives, in
    /// order, byte-identical to in-process execution.
    #[test]
    fn seeded_schedules_answer_in_order() {
        let world = World::new();
        for seed in 0..4_000 {
            let mut rng = Rng(seed);
            let peers = (0..1 + rng.below(3))
                .map(|_| {
                    let mut peer = world.peer(world.asks(&mut rng, 5, 20));
                    peer.half_close = rng.percent(50);
                    peer
                })
                .collect();
            let mut sim = Sim::new(&world, seed, peers);
            sim.run(None);
            sim.check_common();
            sim.check_answers(true);
            for p in &sim.peers {
                assert_eq!(p.closed, Some(CloseCause::Ordinary));
            }
        }
    }

    /// Peers hang up at random — mid-frame, mid-response, while their
    /// query executes, so its completion arrives after the close. What
    /// was answered is in order; every completion is still observed
    /// once, and nothing is left registered.
    #[test]
    fn hangups_and_late_completions_leave_nothing_behind() {
        let world = World::new();
        for seed in 0..3_000 {
            let mut rng = Rng(seed ^ 0x4841_4e47);
            let peers = (0..1 + rng.below(3))
                .map(|_| world.peer(world.asks(&mut rng, 5, 20)))
                .collect();
            let mut sim = Sim::new(&world, seed, peers);
            sim.hangups = 1 + rng.below(10);
            sim.run(None);
            // Late completions for peers long gone.
            while let Some(job) = sim.pool.pop() {
                let done = run_job(&world.service, job);
                sim.served.push(done.served.trace.clone());
                sim.door.on_completion(done, sim.now);
                sim.apply();
            }
            sim.check_common();
            sim.check_answers(false);
        }
    }

    /// Stop arrives at a random point — while queries execute, while
    /// answers drain, with a peer that never reads. Shutdown ends within
    /// the grace of simulated time and leaves nothing behind.
    #[test]
    fn shutdown_is_bounded_in_simulated_time() {
        let world = World::new();
        for seed in 0..3_000 {
            let mut rng = Rng(seed ^ 0x5354_4f50);
            let peers = (0..1 + rng.below(3))
                .map(|_| {
                    let mut peer = world.peer(world.asks(&mut rng, 5, 20));
                    peer.stalled = rng.percent(30);
                    peer
                })
                .collect();
            let mut sim = Sim::new(&world, seed, peers);
            let stop_after = rng.below(40);
            sim.run(Some(stop_after));
            if sim.stopped_at.is_none() {
                sim.stop();
            }
            assert!(sim.door.done());
            sim.check_common();
            sim.check_answers(false);
        }
    }

    /// Hostile bytes — seeded bit flips, truncations, bad length
    /// prefixes, frames of the wrong kind, garbage — behind valid
    /// requests. No panic; the peer gets well-formed frames, ending in a
    /// transport error frame or a close.
    #[test]
    fn hostile_bytes_end_in_a_wire_error_or_a_close() {
        let world = World::new();
        for seed in 0..4_000 {
            let mut rng = Rng(seed ^ 0x484f_5354);
            let mut peer = world.peer(world.asks(&mut rng, 3, 20));
            peer.wire.extend(hostile(&world, &mut rng));
            if rng.percent(50) {
                peer.wire.extend(world.wire(Ask::Query(0)));
            }
            peer.half_close = true;
            let mut sim = Sim::new(&world, seed, vec![peer]);
            sim.run(None);
            sim.check_common();
            let (frames, tail) = decode_all(&sim.peers[0].got);
            assert_eq!(tail, 0, "a refused peer gets whole frames");
            let refusal = frames
                .iter()
                .position(|f| matches!(f, Frame::Error { code, .. } if *code < 100));
            if let Some(at) = refusal {
                assert_eq!(at + 1, frames.len(), "a transport error is the last frame");
            }
            assert_eq!(sim.peers[0].closed, Some(CloseCause::Ordinary));
        }
    }

    /// One hostile tail: a flipped bit, a truncated frame, a bad length
    /// prefix, a frame a client never sends, or garbage.
    fn hostile(world: &World, rng: &mut Rng) -> Vec<u8> {
        let mut frame = world.wire(Ask::Query(rng.below(world.requests.len())));
        match rng.below(5) {
            0 => {
                let bit = rng.below(frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
                frame
            }
            1 => frame[..rng.below(frame.len())].to_vec(),
            2 => {
                let len = [0, MAX_FRAME_LEN + 1, u32::MAX][rng.below(3)];
                [&len.to_le_bytes()[..], &frame].concat()
            }
            3 => [
                Frame::Hello {
                    version: PROTOCOL_VERSION,
                },
                Frame::Empty,
                Frame::Rows { tuples: Vec::new() },
                Frame::Summary {
                    info: ResponseInfo {
                        canonical: String::new(),
                        fingerprint: 0,
                        plan_hit: false,
                        result_hit: false,
                        index_routed: false,
                        threads: 1,
                        latency_micros: 0,
                    },
                },
            ][rng.below(4)]
            .encode(),
            _ => (0..rng.size(64)).map(|_| rng.next() as u8).collect(),
        }
    }

    /// A peer that pipelines queries and never reads is closed exactly
    /// when a completion finds more than the cap undrained, with the
    /// backpressure close counted; a reading peer beside it is served.
    /// Pending bytes never exceed the cap plus one response.
    #[test]
    fn a_stalled_peer_hits_the_cap_and_is_closed() {
        let world = World::new();
        let mut trips = 0;
        for seed in 0..200 {
            let before = world.service.metrics().conns_backpressure_closed;
            let mut rng = Rng(seed ^ 0x4341_5050);
            let mut stalled = world.peer(vec![Ask::Query(0); 2 + rng.below(6)]);
            stalled.stalled = true;
            let reader = world.peer(vec![Ask::Scrape; 1 + rng.below(3)]);
            let mut sim = Sim::new(&world, seed, vec![stalled, reader]);
            sim.synthetic = Some(OUTBOUND_CAP);
            sim.run(None);
            sim.check_common();
            // Nothing drains, so the cap trips at the first completion
            // that finds the greeting plus earlier answers over it.
            let token = sim.peers[0].token;
            let mut pending = Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode()
            .len();
            let mut expect_trip = false;
            for &(_, size) in sim.sizes.iter().filter(|(t, _)| *t == token) {
                expect_trip |= pending > OUTBOUND_CAP;
                pending += size;
            }
            let tripped = sim.peers[0].closed == Some(CloseCause::Backpressure);
            assert_eq!(tripped, expect_trip, "seed {seed}");
            let counted = world.service.metrics().conns_backpressure_closed - before;
            assert_eq!(counted, u64::from(tripped));
            assert_eq!(sim.peers[1].closed, Some(CloseCause::Ordinary));
            sim.check_answers(false);
            trips += usize::from(tripped);
        }
        assert!(trips > 20, "only {trips} schedules tripped the cap");
    }

    /// A peer that half-closes right after its request still gets the
    /// whole answer — many times the cap, drained in short writes — and
    /// then a close. (Read-EOF used to close with the answer queued.)
    #[test]
    fn a_half_closed_peer_gets_its_whole_answer() {
        let world = World::new();
        for seed in 0..50 {
            let mut peer = world.peer(vec![Ask::Query(1)]);
            peer.half_close = true;
            let mut sim = Sim::new(&world, seed, vec![peer]);
            sim.synthetic = Some(3 * OUTBOUND_CAP);
            let token = sim.peers[0].token;
            let wire = sim.peers[0].wire.clone();
            sim.peers[0].sent = wire.len();
            sim.peers[0].eof = true;
            sim.door.on_readable(token, &wire, sim.now);
            sim.door.on_eof(token, sim.now);
            sim.apply();
            sim.run(None);
            sim.check_common();
            let (frames, tail) = decode_all(&sim.peers[0].got);
            assert_eq!(
                (frames.len(), tail),
                (1, 0),
                "the whole answer, then the end"
            );
            assert_eq!(sim.peers[0].closed, Some(CloseCause::Ordinary));
        }
    }

    /// A scrape flood: the peer sends whenever the door reads and drains
    /// answers in random pieces. Every scrape is answered in turn —
    /// nothing recurses, nothing trips the cap — the reader never holds
    /// more than one read plus one frame, and a connection accepted
    /// mid-flood is served.
    #[test]
    fn a_scrape_flood_drains_as_the_peer_reads() {
        let world = World::new();
        let scrape = world.wire(Ask::Scrape).len();
        for seed in 0..2 {
            let flood = world.peer(vec![Ask::Scrape; 10_000]);
            let mut sim = Sim::new(&world, seed, vec![flood]);
            for _ in 0..2_000 {
                sim.step();
            }
            let mut fresh = world.peer(vec![Ask::Query(0)]);
            fresh.token = sim.door.on_accept("127.0.0.1:9");
            sim.peers.push(fresh);
            sim.apply();
            sim.run(None);
            sim.check_common();
            sim.check_answers(true);
            assert!(
                sim.max_held <= scrape + READ_CHUNK,
                "a reader held {} bytes",
                sim.max_held
            );
        }
    }
}
