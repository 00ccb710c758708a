//! The TCP front door's driver: sockets, readiness and the worker pool.
//!
//! **One poller thread owns every connection socket** (readiness via
//! the [`crate::sys`] shim — epoll on Linux, a scan on other unix)
//! and a **bounded worker pool** runs queries, so a thousand idle
//! connections cost a thousand registrations, not a thousand parked
//! threads. The poller thread is a thin driver around the pure state
//! machine `door::FrontDoor`, which takes every protocol
//! decision: the driver performs I/O and applies the machine's actions,
//! nothing else. Query work happens inside
//! [`QueryService::execute_encoded`], where admission control answers
//! overload with a structured `Error { code: 503 }` frame on a healthy
//! connection; writes never block a thread, so a stalled peer costs one
//! socket and cannot hang [`NetServer::shutdown`].

use crate::door::{
    AcceptDisposition, Action, Completion, FrontDoor, Job, Served, READ_CHUNK, SHUTDOWN_GRACE,
    TOKEN_LISTENER, TOKEN_WAKER,
};
use crate::sys::{self, AsSockId, Event, Interest, Poller, WakeReceiver, Waker};
use polygen_obs::trace::Trace;
use polygen_serve::service::QueryService;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one poller wait blocks before re-checking the shutdown flag.
/// Readiness returns the moment anything happens, so this bounds only
/// shutdown latency in the quiet case — not query latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Backoff after a resource-exhaustion accept failure (`EMFILE` and
/// kin): retrying instantly would spin the CPU against a full table,
/// while a short sleep gives connections a chance to close.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Tuning knobs for [`NetServer::spawn_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerOptions {
    /// Worker threads executing queries. The floor of 2 in the default
    /// keeps admission-control shedding observable even on one core:
    /// two workers can race into `execute` and let the gate refuse one.
    pub workers: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        NetServerOptions {
            workers: cores.max(2),
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

    /// [`NetServer::spawn`] with an explicit worker-pool size.
    pub fn spawn_with(
        service: Arc<QueryService>,
        addr: &str,
        options: NetServerOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(listener.sock_id(), TOKEN_LISTENER, Interest::READ)?;
        let (waker, wake_rx) = sys::wake_pair()?;
        poller.add(wake_rx.sock_id(), TOKEN_WAKER, Interest::READ)?;

        let stop = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        // Both locks are poison-tolerant: the job lock guards only a
        // `recv`, and the completion queue changes by one whole push or
        // take, so neither holds a half-made state where a holder panics.
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
        let driver = Driver {
            door: FrontDoor::new(service),
            listener: Some(listener),
            streams: HashMap::new(),
            poller,
            wake_rx,
            jobs: job_tx,
            completions,
            stop: Arc::clone(&stop),
            scratch: [0; READ_CHUNK],
        };
        let poller = std::thread::spawn(move || driver.run());

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

    /// Wire connections open on the served service — its `conns_open`
    /// gauge (0 once the service is gone). A finished session leaves
    /// the moment its hang-up or end of stream surfaces, so this stays
    /// bounded by the *live* sessions under connect/disconnect load.
    pub fn open_connections(&self) -> usize {
        self.service.upgrade().map_or(0, |service| {
            usize::try_from(service.metrics().conns_open).unwrap_or(usize::MAX)
        })
    }

    /// Stop accepting, flush in-flight responses (bounded by
    /// `SHUTDOWN_GRACE` — a stalled peer cannot hang this), join the
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

/// Worker: pull a job, run it, hand the completion back, nudge the
/// poller. The lock is held only around `recv` — never across query
/// execution.
fn worker_loop(
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
) {
    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let done = run_job(&service, job);
        completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(done);
        waker.wake();
    }
}

/// Execute one job through [`QueryService::execute_encoded`]; the
/// worker and the connection serve on whatever bytes it answers. A
/// request with `options.trace` set runs under an enabled recorder:
/// `net/decode` and `net/queue` from the job's instants, then the
/// service's waterfall; the recorder rides the completion to the front
/// door, which closes it with `net/flush`.
pub(crate) fn run_job(service: &QueryService, job: Job) -> Completion {
    let trace = if job.request.options.trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    trace.record_closed("net/decode", job.decode_start, job.decode_done);
    trace.record_closed("net/queue", job.decode_done, Instant::now());
    let (bytes, detail) = service.execute_encoded(&job.request, &trace, Some(&job.stats));
    Completion {
        token: job.token,
        bytes,
        served: Served {
            trace,
            query: job.request.text,
            started: job.decode_start,
            detail,
        },
    }
}

/// Everything the poller thread owns: the machine and the I/O it drives.
struct Driver {
    door: FrontDoor,
    /// Dropped once the front door stops accepting.
    listener: Option<TcpListener>,
    streams: HashMap<u64, TcpStream>,
    poller: Poller,
    wake_rx: WakeReceiver,
    jobs: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stop: Arc<AtomicBool>,
    scratch: [u8; READ_CHUNK],
}

impl Driver {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            if self.stop.load(Ordering::SeqCst) {
                self.door.on_stop(now);
            }
            self.door.on_tick(now);
            self.apply();
            if !self.door.accepting() {
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.remove(listener.sock_id(), TOKEN_LISTENER);
                }
            }
            if self.door.done() {
                break;
            }
            events.clear();
            if self.poller.wait(&mut events, POLL_INTERVAL).is_err() {
                // A poller that cannot wait cannot flush either: expire
                // the grace at once.
                self.door.on_stop(now);
                self.door.on_tick(now + SHUTDOWN_GRACE);
                self.apply();
                break;
            }
            // Drain wake bytes before taking completions: a completion
            // pushed after the take brings a wake byte of its own.
            self.wake_rx.drain();
            let done = std::mem::take(
                &mut *self
                    .completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            for completion in done {
                self.door.on_completion(completion, Instant::now());
                self.apply();
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept(),
                    TOKEN_WAKER => {}
                    token if event.hangup => self.door.on_hangup(token, Instant::now()),
                    token => {
                        if event.writable {
                            self.write(token);
                        }
                        if event.readable {
                            self.read(token);
                        }
                    }
                }
                self.apply();
            }
        }
    }

    /// Carry out everything the machine has asked for. Writing reports
    /// back through `on_writable`, which may queue more: this loop, not
    /// recursion, is what drains a pipelined flood.
    fn apply(&mut self) {
        while let Some(action) = self.door.next_action() {
            match action {
                Action::Write(token) => self.write(token),
                Action::Submit(mut job) => {
                    job.decode_done = Instant::now();
                    let token = job.token;
                    if self.jobs.send(job).is_err() {
                        // Workers are gone — the server is unwinding.
                        self.door.on_hangup(token, Instant::now());
                    }
                }
                Action::Interest(token, interest) => {
                    if let Some(stream) = self.streams.get(&token) {
                        let _ = self.poller.modify(stream.sock_id(), token, interest);
                    }
                }
                Action::Close(token, cause) => {
                    if let Some(mut stream) = self.streams.remove(&token) {
                        if let Some(bytes) = cause.last_words() {
                            let _ = stream.write(&bytes);
                        }
                        let _ = self.poller.remove(stream.sock_id(), token);
                    }
                }
            }
        }
    }

    /// Accept until the listener runs dry (or errors out).
    fn accept(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.door.on_accept(&peer.to_string());
                    match self.poller.add(stream.sock_id(), token, Interest::READ) {
                        Ok(()) => {
                            self.streams.insert(token, stream);
                        }
                        Err(_) => self.door.on_hangup(token, Instant::now()),
                    }
                    self.apply();
                }
                Err(e) => match self.door.on_accept_error(&e) {
                    AcceptDisposition::Retry => continue,
                    AcceptDisposition::Backoff => {
                        // Rare resource exhaustion: a short blocking
                        // sleep beats a 100%-CPU retry spin, even at
                        // the cost of pausing the poller briefly.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        return;
                    }
                    AcceptDisposition::Idle | AcceptDisposition::Fatal => return,
                },
            }
        }
    }

    /// Hand the machine one read's worth of bytes, or the end of stream.
    fn read(&mut self, token: u64) {
        let Some(mut stream) = self.streams.get(&token) else {
            return;
        };
        let now = Instant::now();
        match stream.read(&mut self.scratch) {
            Ok(0) => self.door.on_eof(token, now),
            Ok(n) => self.door.on_readable(token, &self.scratch[..n], now),
            // Level-triggered readiness reports the socket again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.door.on_hangup(token, now),
        }
    }

    /// Write what the socket takes of the connection's outbound bytes,
    /// and say how much that was.
    fn write(&mut self, token: u64) {
        let Some(mut stream) = self.streams.get(&token) else {
            return;
        };
        let out = self.door.outbound(token);
        let mut written = 0;
        while written < out.len() {
            match stream.write(&out[written..]) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                _ => return self.door.on_hangup(token, Instant::now()),
            }
        }
        self.door.on_writable(token, written, Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::classify_accept_error;
    use polygen_serve::service::{QueryService, ServeOptions};
    use polygen_serve::wire::{Frame, PROTOCOL_VERSION};
    use polygen_workload::{self as workload, WorkloadConfig};
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

    /// Any non-WouldBlock accept error used to kill the listener for
    /// good. Accept outcomes are front-door inputs now: after
    /// `ECONNABORTED`, `EINTR` and `EMFILE` the door still accepts, and
    /// the connection accepted after them is greeted.
    #[test]
    fn transient_accept_errors_do_not_kill_the_listener() {
        let service = tiny_service();
        let mut door = FrontDoor::new(Arc::clone(&service));
        for error in [
            io::Error::from(ErrorKind::ConnectionAborted),
            io::Error::from(ErrorKind::Interrupted),
            io::Error::from_raw_os_error(24), // EMFILE
        ] {
            door.on_accept_error(&error);
            assert!(door.accepting(), "{error:?} stopped the listener");
        }
        let token = door.on_accept("127.0.0.1:1");
        assert!(matches!(door.next_action(), Some(Action::Write(t)) if t == token));
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        assert_eq!(door.outbound(token), hello.encode().as_slice());
        door.on_hangup(token, Instant::now());
        assert!(!door.done(), "a live listener keeps the loop running");
        assert_eq!(service.metrics().conns_open, 0);
    }

    /// A fatal listener error stops accepting, and the loop ends once
    /// nothing is left to serve (it must not spin on an unusable
    /// listener) — but not before: an open connection is still served.
    #[test]
    fn fatal_accept_errors_stop_the_loop() {
        let mut door = FrontDoor::new(tiny_service());
        let open = door.on_accept("127.0.0.1:1");
        door.on_accept_error(&io::Error::from(ErrorKind::InvalidInput));
        assert!(!door.accepting());
        assert!(!door.done(), "an open connection outlives the listener");
        door.on_hangup(open, Instant::now());
        assert!(door.done(), "fatal error should end the loop");
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
