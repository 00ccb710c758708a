//! The TCP front door: an evented poller over nonblocking sockets.
//!
//! Threading model: **one poller thread owns every connection socket**
//! (readiness via the [`crate::sys`] shim — epoll on Linux, a portable
//! scan fallback elsewhere) and a **bounded worker pool** runs queries.
//! The poller drives each connection's [`FrameReader`] incrementally on
//! read-readiness, hands decoded requests to the workers over a
//! channel, and queues the workers' encoded responses into
//! per-connection outbound buffers that drain on write-readiness. A
//! thousand idle connections therefore cost a thousand *registrations*,
//! not a thousand parked reader threads: the server runs O(workers)
//! threads total, independent of session count.
//!
//! All query work still happens inside [`QueryService::execute`], which
//! is where admission control bounds concurrency; overload surfaces as
//! a structured `Error { code: 503 }` frame on a healthy connection,
//! never a dropped socket. Each connection has at most one request in
//! flight (responses stay in request order); while a request executes,
//! the poller drops the connection's read interest, so a pipelining
//! client is throttled by kernel socket buffers, not server memory.
//!
//! Writes never block a thread. Responses land in the connection's
//! outbound buffer and flush as the socket accepts bytes. A peer that
//! stops draining its responses hits [`OUTBOUND_CAP`]: the connection
//! is closed with a best-effort [`WIRE_BACKPRESSURE`] error — a slow
//! reader costs one socket, and [`NetServer::shutdown`] can no longer
//! be hung by a stalled `write_all`.
//!
//! Accept errors are classified, not fatal by default: a peer that
//! aborts mid-handshake (`ECONNABORTED`), a signal (`EINTR`), or a
//! transient descriptor/buffer shortage (`EMFILE`/`ENFILE`/`ENOBUFS`)
//! must never kill the listener — only errors that mean the listener
//! itself is gone stop accepting.

use crate::codec::{CodecError, FramePoll, FrameReader};
use crate::protocol::{
    request_from_frame, response_frames, Frame, PROTOCOL_VERSION, WIRE_BACKPRESSURE,
    WIRE_MALFORMED, WIRE_UNEXPECTED_FRAME,
};
use crate::sys::{self, AsSockId, Event, Interest, Poller, WakeReceiver, Waker};
use polygen_obs::session::SessionStats;
use polygen_obs::slowlog::QueryDetail;
use polygen_obs::trace::Trace;
use polygen_serve::request::Request;
use polygen_serve::service::QueryService;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one poller wait blocks before re-checking the shutdown flag
/// and re-polling for accepts. Readiness returns the moment anything
/// happens, so this bounds only shutdown/accept latency in the quiet
/// case — not query latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Backoff after a resource-exhaustion accept failure (`EMFILE` and
/// kin): retrying instantly would spin the CPU against a full table,
/// while a short sleep gives connections a chance to close.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Per-connection cap on *buffered unsent* response bytes. The check
/// runs before a new response is queued, so any single response can
/// exceed the cap transiently — what trips it is a peer that has left a
/// previous response undrained. Tripping it closes the connection with
/// [`WIRE_BACKPRESSURE`].
const OUTBOUND_CAP: usize = 4 * 1024 * 1024;

/// How long shutdown keeps flushing in-flight responses before
/// abandoning undrained connections. This is the bound that makes
/// shutdown deadline-safe against stalled peers.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(750);

/// Poller token of the listener registration.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the waker registration.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection; tokens are never reused, so a
/// late completion for a closed connection simply finds nobody.
const TOKEN_FIRST_CONN: u64 = 2;

/// What the accept loop should do about an `accept(2)` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// No connection pending (`EWOULDBLOCK`) — wait for readiness.
    Idle,
    /// A transient, per-connection failure (the peer aborted, a signal
    /// interrupted the call) — retry immediately; the listener is fine.
    Retry,
    /// Resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`) —
    /// retry after a short backoff instead of spinning.
    Backoff,
    /// The listener itself is broken; accepting again cannot succeed.
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

/// The poller's view of a listener — real [`TcpListener`] in
/// production, an injected fake in lifecycle tests.
pub(crate) trait Acceptor {
    /// Accept one pending connection, nonblocking semantics.
    fn poll_accept(&self) -> std::io::Result<TcpStream>;

    /// The socket to register for accept-readiness, if there is one.
    /// Fakes return `None` and are simply polled every loop tick.
    fn registration(&self) -> Option<sys::SockId> {
        None
    }
}

impl Acceptor for TcpListener {
    fn poll_accept(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(stream, _peer)| stream)
    }

    fn registration(&self) -> Option<sys::SockId> {
        Some(self.sock_id())
    }
}

/// Tuning knobs for [`NetServer::spawn_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerOptions {
    /// Worker threads executing queries. The floor of 2 in the default
    /// keeps admission-control shedding observable even on one core:
    /// two workers can race into `execute` and let the gate refuse one.
    pub workers: usize,
    /// Per-connection cap on buffered unsent response bytes before the
    /// peer is declared stalled and closed with [`WIRE_BACKPRESSURE`].
    pub outbound_cap: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        NetServerOptions {
            workers: cores.max(2),
            outbound_cap: OUTBOUND_CAP,
        }
    }
}

/// A running TCP server; dropping it (or calling
/// [`NetServer::shutdown`]) stops the poller, joins the worker pool,
/// and closes every connection.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The served service, held weakly: the poller and workers own
    /// it, so the last of them to exit frees it. A strong handle here
    /// would move that free to the thread dropping the server, which
    /// raised peak RSS by one to two services' worth when servers are
    /// set up back to back (ledger `hot_mix`, glibc malloc).
    service: Weak<QueryService>,
    waker: Waker,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `service` until shutdown, with default options.
    pub fn spawn(service: Arc<QueryService>, addr: &str) -> std::io::Result<NetServer> {
        Self::spawn_with(service, addr, NetServerOptions::default())
    }

    /// [`NetServer::spawn`] with explicit worker-pool / backpressure
    /// tuning.
    pub fn spawn_with(
        service: Arc<QueryService>,
        addr: &str,
        options: NetServerOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = sys::wake_pair()?;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        let workers = (0..options.workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let job_rx = Arc::clone(&job_rx);
                let completions = Arc::clone(&completions);
                let waker = waker.try_clone()?;
                Ok(std::thread::spawn(move || {
                    worker_loop(service, stop, job_rx, completions, waker)
                }))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let served = Arc::downgrade(&service);
        let poller = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut loop_state = PollerLoop::new(
                    listener,
                    service,
                    options,
                    stop,
                    wake_rx,
                    job_tx,
                    completions,
                );
                loop_state.run();
            })
        };

        Ok(NetServer {
            addr,
            stop,
            service: served,
            waker,
            poller: Some(poller),
            workers,
        })
    }

    /// The bound address — connect clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wire connections open on the served service — a read of its
    /// `conns_open` gauge, which the poller moves as it admits and
    /// closes connections (0 once the service is gone). Finished
    /// sessions are dropped the moment their hangup/EOF surfaces, so
    /// under connect/disconnect load this stays bounded by the number
    /// of *live* sessions — the regression guard for the old
    /// grow-without-bound handle list.
    pub fn open_connections(&self) -> usize {
        self.service.upgrade().map_or(0, |service| {
            usize::try_from(service.metrics().conns_open).unwrap_or(usize::MAX)
        })
    }

    /// Stop accepting, flush in-flight responses (bounded by
    /// [`SHUTDOWN_GRACE`] — a stalled peer cannot hang this), join the
    /// poller and every worker.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
        // The poller drops the job sender on exit, so workers see a
        // closed channel (or the stop flag) and unwind.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One decoded request on its way to the worker pool. The two instants
/// bracket the poller's frame decode, so a traced request's waterfall
/// starts at the wire (`net/decode`, then `net/queue` until a worker
/// picks the job up).
struct Job {
    token: u64,
    request: Request,
    /// The connection's live-session entry: the service accounts the
    /// request to it, so `sys.sessions` shows what each wire connection
    /// is running *right now*.
    stats: Arc<SessionStats>,
    decode_start: Instant,
    decode_done: Instant,
}

/// A served request on its way to the slow-query log: the facts the
/// service computed and the recorder it ran under, riding the completion
/// back to the poller so the response-flush span and the observation
/// happen where flushing actually happens. (The recorder is disabled —
/// every span a no-op — unless the request asked for a trace.)
struct Served {
    trace: Trace,
    query: String,
    started: Instant,
    detail: QueryDetail,
}

/// One encoded response on its way back to the poller; `served` is
/// `None` for frames that answer no query (a stats scrape).
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    served: Option<Served>,
}

/// Worker: pull a job, execute it (admission control happens inside
/// the service), hand the encoded frames back, nudge the poller. The
/// lock is held only around `recv` — never across query execution.
///
/// A request with `options.trace` set runs under an enabled recorder:
/// the worker stamps the wire-side `net/decode` and `net/queue` spans
/// (root-level, from the job's instants), the service nests its
/// parse/plan/execute waterfall under `execute_traced` — which also
/// accounts the request to the connection's `sys.sessions` row — and
/// the recorder rides the completion so the poller can close the loop
/// with `net/flush` once the response drains.
fn worker_loop(
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
) {
    loop {
        let job = {
            let rx = jobs.lock().expect("job queue poisoned");
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let trace = if job.request.options.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        trace.record_closed("net/decode", job.decode_start, job.decode_done);
        trace.record_closed("net/queue", job.decode_done, Instant::now());
        let (response, detail) = service.execute_traced(&job.request, &trace, Some(&job.stats));
        let mut bytes = Vec::new();
        for frame in response_frames(&response) {
            bytes.extend_from_slice(&frame.encode());
        }
        completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion {
                token: job.token,
                bytes,
                served: Some(Served {
                    trace,
                    query: job.request.text,
                    started: job.decode_start,
                    detail,
                }),
            });
        waker.wake();
    }
}

/// Per-connection poller state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded-but-unsent response bytes; `sent` is the cursor of what
    /// the socket has taken so far.
    out: Vec<u8>,
    sent: usize,
    /// A request is executing on a worker; reads pause until its
    /// response is queued (kernel buffers throttle a pipelining peer).
    busy: bool,
    /// Close once `out` drains (set after a protocol violation or a
    /// backpressure refusal — the error frame is the last thing sent).
    closing: bool,
    /// Interest currently registered with the poller, to skip no-op
    /// re-registrations.
    registered: Interest,
    /// A served request whose response is draining: `flush_start` opens
    /// the `net/flush` span, closed (and the request fed to the
    /// slow-query log) when the outbound buffer empties.
    in_flight: Option<FlushState>,
    /// This connection's entry in the service's live-session registry
    /// (one wire connection = one `sys.sessions` row, deregistered on
    /// close).
    stats: Arc<SessionStats>,
}

/// The tail of a served request's waterfall, owned by the poller while
/// the response flushes.
struct FlushState {
    served: Served,
    flush_start: Instant,
}

impl Conn {
    fn pending(&self) -> usize {
        self.out.len() - self.sent
    }

    /// The readiness this connection wants right now.
    fn desired_interest(&self) -> Interest {
        Interest {
            read: !self.busy && !self.closing,
            write: self.pending() > 0,
        }
    }
}

/// Why a connection is being torn down (drives metrics).
enum CloseCause {
    /// Peer hangup, protocol violation, IO error, shutdown.
    Ordinary,
    /// The outbound cap tripped.
    Backpressure,
}

/// Everything the poller thread owns.
struct PollerLoop<A: Acceptor> {
    listener: A,
    service: Arc<QueryService>,
    options: NetServerOptions,
    stop: Arc<AtomicBool>,
    wake_rx: WakeReceiver,
    job_tx: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set on a fatal listener error: stop accepting, drain what's
    /// open, exit when nothing is left.
    accept_dead: bool,
}

impl<A: Acceptor> PollerLoop<A> {
    fn new(
        listener: A,
        service: Arc<QueryService>,
        options: NetServerOptions,
        stop: Arc<AtomicBool>,
        wake_rx: WakeReceiver,
        job_tx: mpsc::Sender<Job>,
        completions: Arc<Mutex<Vec<Completion>>>,
    ) -> Self {
        let mut poller = Poller::new().expect("readiness poller");
        if let Some(id) = listener.registration() {
            poller
                .add(id, TOKEN_LISTENER, Interest::READ)
                .expect("register listener");
        }
        #[cfg(unix)]
        poller
            .add(wake_rx.sock_id(), TOKEN_WAKER, Interest::READ)
            .expect("register waker");
        PollerLoop {
            listener,
            service,
            options,
            stop,
            wake_rx,
            job_tx,
            completions,
            poller,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            accept_dead: false,
        }
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events, POLL_INTERVAL).is_err() {
                break;
            }
            self.wake_rx.drain();
            // Accept every tick, not only on listener readiness: the
            // scan backend and injected test acceptors have no
            // registration, and a spurious extra accept is one cheap
            // WouldBlock.
            if !self.accept_dead {
                self.drain_accepts();
            }
            self.drain_completions();
            let round: Vec<Event> = std::mem::take(&mut events);
            for event in round {
                if event.token < TOKEN_FIRST_CONN {
                    continue;
                }
                if !self.conns.contains_key(&event.token) {
                    continue;
                }
                if event.hangup {
                    self.close(event.token, CloseCause::Ordinary);
                    continue;
                }
                if event.writable {
                    self.flush(event.token);
                }
                if event.readable {
                    self.advance_reads(event.token);
                }
            }
            if self.accept_dead && self.conns.is_empty() {
                break;
            }
        }
        self.drain_on_shutdown();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token, CloseCause::Ordinary);
        }
        // Dropping self.job_tx (with the loop) closes the worker
        // channel; NetServer joins the workers after this thread.
    }

    /// Best-effort bounded flush of in-flight work at shutdown: wait
    /// for busy workers and drain outbound buffers, but never past
    /// [`SHUTDOWN_GRACE`] — a peer that won't read loses its tail.
    fn drain_on_shutdown(&mut self) {
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let mut events: Vec<Event> = Vec::new();
        loop {
            let unfinished = self.conns.values().any(|c| c.busy || c.pending() > 0);
            if !unfinished || Instant::now() >= deadline {
                return;
            }
            events.clear();
            let _ = self.poller.wait(&mut events, Duration::from_millis(10));
            self.wake_rx.drain();
            self.drain_completions();
            let tokens: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.pending() > 0)
                .map(|(&t, _)| t)
                .collect();
            for token in tokens {
                self.flush(token);
            }
        }
    }

    /// Accept until the listener runs dry (or errors out).
    fn drain_accepts(&mut self) {
        loop {
            match self.listener.poll_accept() {
                Ok(stream) => self.admit(stream),
                Err(e) => match classify_accept_error(&e) {
                    AcceptDisposition::Idle => return,
                    AcceptDisposition::Retry => continue,
                    AcceptDisposition::Backoff => {
                        // Rare resource exhaustion: a short blocking
                        // sleep beats a 100%-CPU retry spin, even at
                        // the cost of pausing the poller briefly.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        return;
                    }
                    AcceptDisposition::Fatal => {
                        self.accept_dead = true;
                        return;
                    }
                },
            }
        }
    }

    /// Register a fresh connection and greet it.
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        let stats = self.service.sessions().register(&peer);
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
            out: Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
            sent: 0,
            busy: false,
            closing: false,
            registered: Interest {
                read: false,
                write: false,
            },
            in_flight: None,
            stats,
        };
        let id = conn.stream.sock_id();
        let interest = conn.desired_interest();
        if self.poller.add(id, token, interest).is_err() {
            self.service.sessions().deregister(conn.stats.id());
            return;
        }
        conn.registered = interest;
        self.service.live_metrics().record_conn_opened();
        self.conns.insert(token, conn);
        self.flush(token);
    }

    /// Re-register a connection's interest if it changed.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired != conn.registered {
            let id = conn.stream.sock_id();
            if self.poller.modify(id, token, desired).is_ok() {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.registered = desired;
                }
            }
        }
    }

    /// Move queued responses from workers into connection buffers.
    fn drain_completions(&mut self) {
        let ready: Vec<Completion> =
            std::mem::take(&mut *self.completions.lock().expect("completion queue poisoned"));
        for done in ready {
            // A completion for a connection that hung up mid-query
            // finds nobody — tokens are never reused, so it can't be
            // misdelivered either. The query was still served: log it.
            if !self.conns.contains_key(&done.token) {
                if let Some(served) = done.served {
                    self.observe(served, Instant::now());
                }
                continue;
            }
            self.enqueue_response(done.token, done.bytes, done.served);
        }
    }

    /// Queue response bytes for a connection, enforcing the
    /// backpressure cap *before* appending: leftover unsent bytes mean
    /// the peer is not draining, and it is cut off rather than buffered
    /// without bound. (Checking before the append is what allows any
    /// single response to exceed the cap.)
    fn enqueue_response(&mut self, token: u64, bytes: Vec<u8>, served: Option<Served>) {
        let stalled = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.busy = false;
            conn.pending() > self.options.outbound_cap
        };
        if stalled {
            self.close(token, CloseCause::Backpressure);
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            // Drop the already-sent prefix so the buffer doesn't grow
            // monotonically across a long session.
            conn.out.drain(..conn.sent);
            conn.sent = 0;
            conn.out.extend_from_slice(&bytes);
            conn.in_flight = served.map(|served| FlushState {
                served,
                flush_start: Instant::now(),
            });
        }
        self.flush(token);
        // The reader may hold a complete pipelined frame that arrived
        // while this request executed; readiness won't re-announce it.
        self.advance_reads(token);
    }

    /// Write as much of the outbound buffer as the socket accepts.
    fn flush(&mut self, token: u64) {
        let mut closed = false;
        let mut drained = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.pending() > 0 {
                match conn.stream.write(&conn.out[conn.sent..]) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conn.sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if conn.pending() == 0 {
                conn.out.clear();
                conn.sent = 0;
                drained = conn.in_flight.take();
                if conn.closing {
                    closed = true;
                }
            }
        }
        if let Some(state) = drained {
            self.observe(state.served, state.flush_start);
        }
        if closed {
            self.close(token, CloseCause::Ordinary);
        } else {
            self.update_interest(token);
        }
    }

    /// A served request is done with the wire — its response fully left
    /// the socket, or the peer is gone: close the waterfall with the
    /// flush span and feed the request, with the facts the service
    /// computed for it, to the slow-query log.
    fn observe(&self, s: Served, flush_start: Instant) {
        s.trace
            .record_closed("net/flush", flush_start, Instant::now());
        self.service
            .observe_slow(&s.query, s.started.elapsed(), &s.trace, s.detail);
    }

    /// Drive the frame reader while the connection is idle; dispatch at
    /// most one request (per-connection response ordering), then pause
    /// reads until its completion re-enters here.
    fn advance_reads(&mut self, token: u64) {
        let action = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.closing {
                return;
            }
            // One poll either drains the socket to WouldBlock or yields
            // one complete frame (any surplus stays buffered in the
            // reader for the post-completion re-check).
            match conn.reader.poll(&mut conn.stream) {
                Ok(FramePoll::Payload(payload)) => ReadAction::Frame(payload),
                Ok(FramePoll::Idle) => ReadAction::Idle,
                Ok(FramePoll::Closed) => ReadAction::Close,
                Err(CodecError::Truncated) => ReadAction::Close,
                Err(e) => ReadAction::Refuse(WIRE_MALFORMED, e.to_string()),
            }
        };
        match action {
            ReadAction::Idle => self.update_interest(token),
            ReadAction::Close => self.close(token, CloseCause::Ordinary),
            ReadAction::Refuse(code, why) => self.refuse(token, code, &why),
            ReadAction::Frame(payload) => {
                let decode_start = Instant::now();
                let frame = match Frame::decode(&payload) {
                    Ok(frame) => frame,
                    Err(e) => {
                        self.refuse(token, WIRE_MALFORMED, &e.to_string());
                        return;
                    }
                };
                if matches!(frame, Frame::StatsRequest) {
                    // Stats are served by the poller itself — no worker
                    // dispatch, no admission — so a scrape succeeds even
                    // when the query path is saturated.
                    let bytes = Frame::Stats {
                        text: self.service.scrape(),
                    }
                    .encode();
                    self.enqueue_response(token, bytes, None);
                    return;
                }
                let Some(request) = request_from_frame(&frame) else {
                    let why = format!("expected a Query frame, got tag {}", frame.tag());
                    self.refuse(token, WIRE_UNEXPECTED_FRAME, &why);
                    return;
                };
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                conn.busy = true;
                let job = Job {
                    token,
                    request,
                    stats: Arc::clone(&conn.stats),
                    decode_start,
                    decode_done: Instant::now(),
                };
                if self.job_tx.send(job).is_err() {
                    // Workers are gone — the server is unwinding.
                    self.close(token, CloseCause::Ordinary);
                    return;
                }
                self.update_interest(token);
            }
        }
    }

    /// Send a transport-coded error, then close once it flushes: once
    /// framing is in doubt the stream cannot be resynchronized.
    fn refuse(&mut self, token: u64, code: u16, message: &str) {
        let bytes = Frame::Error {
            code,
            message: message.to_string(),
        }
        .encode();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
            conn.out.drain(..conn.sent);
            conn.sent = 0;
            conn.out.extend_from_slice(&bytes);
        }
        self.flush(token);
    }

    /// Tear a connection down and record why.
    fn close(&mut self, token: u64, cause: CloseCause) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if let Some(state) = conn.in_flight.take() {
            self.observe(state.served, state.flush_start);
        }
        let metrics = self.service.live_metrics();
        if let CloseCause::Backpressure = cause {
            // Best-effort parting shot: whatever fits in the socket
            // buffer of an already-stalled peer.
            metrics.record_conn_backpressure_close();
            let mut stream = &conn.stream;
            let _ = stream.write(
                &Frame::Error {
                    code: WIRE_BACKPRESSURE,
                    message: "outbound buffer cap exceeded; peer not draining responses"
                        .to_string(),
                }
                .encode(),
            );
        }
        metrics.record_conn_closed();
        self.service.sessions().deregister(conn.stats.id());
        let _ = self.poller.remove(conn.stream.sock_id());
        // conn (and its socket) drops here.
    }
}

/// Outcome of one reader poll, decided while the connection was
/// mutably borrowed.
enum ReadAction {
    Idle,
    Close,
    Refuse(u16, String),
    Frame(Vec<u8>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_serve::service::{QueryService, ServeOptions};
    use polygen_workload::{self as workload, WorkloadConfig};
    use std::collections::VecDeque;
    use std::io;
    use std::time::Instant;

    fn tiny_service() -> Arc<QueryService> {
        let scenario =
            workload::generate(&WorkloadConfig::default().with_sources(2).with_entities(8));
        Arc::new(QueryService::for_scenario(
            &scenario,
            ServeOptions::default(),
        ))
    }

    /// An injected listener: a scripted sequence of accept outcomes,
    /// then `WouldBlock` forever.
    struct FakeAcceptor {
        script: Mutex<VecDeque<io::Result<TcpStream>>>,
    }

    impl FakeAcceptor {
        fn new(script: Vec<io::Result<TcpStream>>) -> Self {
            FakeAcceptor {
                script: Mutex::new(script.into_iter().collect()),
            }
        }
    }

    impl Acceptor for FakeAcceptor {
        fn poll_accept(&self) -> io::Result<TcpStream> {
            self.script
                .lock()
                .unwrap()
                .pop_front()
                .unwrap_or_else(|| Err(io::Error::from(ErrorKind::WouldBlock)))
        }
    }

    /// Run a poller loop over an injected acceptor, with a real worker
    /// pool, and return the thread handle plus stop flag and waker.
    fn spawn_test_loop(acceptor: FakeAcceptor) -> (JoinHandle<()>, Arc<AtomicBool>, Waker) {
        let service = tiny_service();
        let stop = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = sys::wake_pair().unwrap();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        // One worker is enough for the lifecycle tests.
        {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let completions = Arc::clone(&completions);
            let waker = waker.try_clone().unwrap();
            std::thread::spawn(move || worker_loop(service, stop, job_rx, completions, waker));
        }
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut loop_state = PollerLoop::new(
                    acceptor,
                    service,
                    NetServerOptions::default(),
                    stop,
                    wake_rx,
                    job_tx,
                    completions,
                );
                loop_state.run();
            })
        };
        (handle, stop, waker)
    }

    #[test]
    fn accept_error_classification() {
        use AcceptDisposition::*;
        let cases = [
            (io::Error::from(ErrorKind::WouldBlock), Idle),
            (io::Error::from(ErrorKind::Interrupted), Retry),
            (io::Error::from(ErrorKind::ConnectionAborted), Retry),
            (io::Error::from(ErrorKind::ConnectionReset), Retry),
            (io::Error::from_raw_os_error(24), Backoff), // EMFILE
            (io::Error::from_raw_os_error(23), Backoff), // ENFILE
            (io::Error::from_raw_os_error(105), Backoff), // ENOBUFS
            (io::Error::from(ErrorKind::InvalidInput), Fatal),
            (io::Error::from(ErrorKind::NotConnected), Fatal),
        ];
        for (error, expected) in cases {
            assert_eq!(classify_accept_error(&error), expected, "{error:?}");
        }
    }

    /// The satellite bug: any non-WouldBlock accept error used to kill
    /// the listener for good. With an injected erroring listener, the
    /// loop must survive `ECONNABORTED`, `EINTR` and `EMFILE` and still
    /// serve the connection scripted after them.
    #[test]
    fn transient_accept_errors_do_not_kill_the_listener() {
        // A real socket pair for the post-error accept to hand out.
        let rendezvous = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = rendezvous.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _peer) = rendezvous.accept().unwrap();

        let acceptor = FakeAcceptor::new(vec![
            Err(io::Error::from(ErrorKind::ConnectionAborted)),
            Err(io::Error::from(ErrorKind::Interrupted)),
            Err(io::Error::from_raw_os_error(24)), // EMFILE
            Ok(served),
        ]);
        let (loop_handle, stop, waker) = spawn_test_loop(acceptor);

        // The connection accepted *after* the transient errors greets —
        // proof the listener survived them.
        let mut reader = FrameReader::new();
        let mut blocking = client;
        blocking
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload = loop {
            match reader.poll(&mut blocking).expect("greeting decodes") {
                FramePoll::Payload(p) => break p,
                FramePoll::Idle => continue,
                FramePoll::Closed => panic!("listener died on a transient accept error"),
            }
        };
        assert_eq!(
            Frame::decode(&payload).unwrap(),
            Frame::Hello {
                version: PROTOCOL_VERSION
            }
        );

        stop.store(true, Ordering::SeqCst);
        waker.wake();
        loop_handle.join().unwrap();
    }

    /// A fatal listener error still stops the loop once nothing is left
    /// to serve (it must not spin on an unusable listener).
    #[test]
    fn fatal_accept_errors_stop_the_loop() {
        let acceptor = FakeAcceptor::new(vec![Err(io::Error::from(ErrorKind::InvalidInput))]);
        let (handle, _stop, _waker) = spawn_test_loop(acceptor);
        let started = Instant::now();
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fatal error should end the loop promptly"
        );
    }

    /// The acceptance path for the system catalog: plain Query frames
    /// over TCP answer `sys.*` selects, the connection itself shows up
    /// in `sys.sessions` under its real peer address, and closing the
    /// socket drains its registry entry.
    #[test]
    fn sys_catalog_serves_over_the_wire() {
        use crate::client::NetClient;
        use polygen_flat::value::Value;
        use polygen_serve::request::{Request, Response};
        let service = tiny_service();
        let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let resp = client
            .execute(&Request::sql("SELECT SOURCE, VERSION FROM sys.sources"))
            .unwrap();
        let Response::Rows { answer, info } = &resp else {
            panic!("expected rows, got {resp:?}");
        };
        assert!(!answer.is_empty());
        assert!(!info.result_hit, "sys answers are never cached");
        let resp = client
            .execute(&Request::sql(
                "SELECT SESSION_ID, PEER, QUERY FROM sys.sessions",
            ))
            .unwrap();
        let Response::Rows { answer, .. } = &resp else {
            panic!("expected rows, got {resp:?}");
        };
        assert_eq!(answer.len(), 1, "one wire connection, one session row");
        let peer_seen = answer
            .tuples()
            .iter()
            .flat_map(|t| t.iter())
            .any(|c| matches!(&c.datum, Value::Str(s) if s.starts_with("127.0.0.1")));
        assert!(peer_seen, "the session row carries the peer address");
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !service.sessions().is_empty() {
            assert!(
                Instant::now() < deadline,
                "closed connection never left the session registry"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    /// The satellite bug: finished connections used to leak tracking
    /// state (reaping only ran in the WouldBlock arm). The poller drops
    /// a connection the moment its hangup surfaces; after a burst of
    /// short-lived sessions the tracked count must fall back to zero.
    #[test]
    fn finished_connections_are_reaped_under_connect_load() {
        let server = NetServer::spawn(tiny_service(), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        for _ in 0..32 {
            // Connect, then hang up immediately.
            let stream = TcpStream::connect(addr).expect("connect");
            drop(stream);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.open_connections() > 0 {
            assert!(
                Instant::now() < deadline,
                "{} finished connections never reaped",
                server.open_connections()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }
}
