//! Thin readiness shim for the evented server — epoll on Linux, a
//! portable polling fallback elsewhere. No external runtime: the Linux
//! backend declares the four `epoll`/`close` syscalls it needs against
//! the libc that `std` already links, and everything above it is safe
//! code.
//!
//! The contract is deliberately minimal and *level-triggered*: readiness
//! may be reported spuriously (the fallback backend reports every
//! registered socket ready on each tick), so callers must treat
//! `WouldBlock` from the subsequent read/write as "not actually ready",
//! never as an error. That tolerance is what lets one server loop run on
//! both backends unchanged.

use std::io;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on read-readiness, including the peer's half-close.
    pub read: bool,
    /// Wake on write-readiness.
    pub write: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: u64,
    /// Bytes (or EOF, or an error) can be read without blocking.
    pub readable: bool,
    /// The socket can accept bytes without blocking.
    pub writable: bool,
    /// The peer hung up or the socket errored; the connection is dead
    /// regardless of buffered data.
    pub hangup: bool,
}

/// The socket identity a backend registers. On unix this is the raw fd;
/// the portable fallback never inspects it.
#[cfg(unix)]
pub type SockId = std::os::fd::RawFd;
/// Socket identity placeholder on non-unix targets (the scan backend
/// reports readiness by token, not by inspecting the socket).
#[cfg(not(unix))]
pub type SockId = u64;

/// Extract the backend's socket identity from any socket-like type.
pub trait AsSockId {
    /// The identity to register with a [`Poller`].
    fn sock_id(&self) -> SockId;
}

#[cfg(unix)]
impl<T: std::os::fd::AsRawFd> AsSockId for T {
    fn sock_id(&self) -> SockId {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> AsSockId for T {
    fn sock_id(&self) -> SockId {
        0
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use scan::Poller;

/// Wake a [`Poller`] blocked in [`Poller::wait`] from another thread.
///
/// On unix this is one end of a nonblocking socket pair whose other end
/// is registered with the poller; elsewhere it is a no-op, because the
/// scan backend's `wait` never sleeps longer than its tick.
#[derive(Debug)]
pub struct Waker {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// A second handle to the same waker (workers each hold their own).
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            #[cfg(unix)]
            tx: self.tx.try_clone()?,
        })
    }

    /// Nudge the poller. Best-effort: a full pipe means a wake is
    /// already pending, which is all a wake means.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// The poller-owned end of the wake channel.
#[derive(Debug)]
pub struct WakeReceiver {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.rx.as_raw_fd()
    }
}

impl WakeReceiver {
    /// Swallow pending wake bytes so level-triggered readiness clears.
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// Build a connected waker pair, both ends nonblocking.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    #[cfg(unix)]
    {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }
    #[cfg(not(unix))]
    {
        Ok((Waker {}, WakeReceiver {}))
    }
}

/// Linux backend: a real `epoll` instance, level-triggered.
#[cfg(target_os = "linux")]
mod epoll {
    // The one corner of the workspace that talks to the kernel
    // directly; everything is bounds-checked buffers around four
    // syscalls, kept in this module so the rest of the crate stays
    // under the workspace-wide `unsafe_code = "deny"`.
    #![allow(unsafe_code)]

    use super::{Event, Interest, SockId};
    use std::ffi::c_int;
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Mirror of the kernel's `struct epoll_event`. x86 packs it so the
    /// 64-bit data field sits at offset 4; other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance plus its scratch event buffer.
    #[derive(Debug)]
    pub struct Poller {
        epfd: c_int,
        scratch: Vec<(u32, u64)>,
    }

    impl Poller {
        /// A fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                scratch: Vec::new(),
            })
        }

        /// `EPOLLERR`/`EPOLLHUP` are always reported. The peer's
        /// half-close (`EPOLLRDHUP`) is a read event: registered after
        /// reads have ended, it would wake every wait while a response
        /// drains.
        fn mask(interest: Interest) -> u32 {
            let mut events = 0;
            if interest.read {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.write {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: c_int, id: SockId, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            check(unsafe { epoll_ctl(self.epfd, op, id, &mut ev) })?;
            Ok(())
        }

        /// Start watching `id` under `token`.
        pub fn add(&mut self, id: SockId, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, id, Self::mask(interest), token)
        }

        /// Change what `id` is watched for.
        pub fn modify(&mut self, id: SockId, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, id, Self::mask(interest), token)
        }

        /// Stop watching `id`. Harmless if the socket is about to be
        /// closed anyway (closing removes it implicitly).
        pub fn remove(&mut self, id: SockId, _token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, id, 0, 0)
        }

        /// Block until readiness or `timeout`, appending to `out`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let millis = c_int::try_from(timeout.as_millis())
                .unwrap_or(c_int::MAX)
                .max(1);
            let n = match check(unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, millis)
            }) {
                Ok(n) => n as usize,
                // A signal interrupting the wait is a spurious wake.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            // Copy out of the (possibly packed) kernel structs before
            // building events.
            self.scratch.clear();
            for ev in buf.iter().take(n) {
                let events = ev.events;
                let data = ev.data;
                self.scratch.push((events, data));
            }
            for &(events, token) in &self.scratch {
                out.push(Event {
                    token,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            let _ = unsafe { close(self.epfd) };
        }
    }
}

/// Portable fallback: no kernel readiness at all. `wait` sleeps one
/// short tick and reports every registered token ready for whatever it
/// registered interest in; the server's nonblocking reads and writes
/// turn the spurious readiness into cheap `WouldBlock`s. O(connections)
/// per tick — degraded but correct on targets without the epoll shim.
#[cfg(not(target_os = "linux"))]
mod scan {
    use super::{Event, Interest, SockId};
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    /// Registered interests by token (non-unix socket ids are all 0).
    #[derive(Debug)]
    pub struct Poller {
        registered: HashMap<u64, Interest>,
        tick: Duration,
    }

    impl Poller {
        /// A fresh registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: HashMap::new(),
                tick: Duration::from_millis(1),
            })
        }

        /// Start watching `token`'s socket.
        pub fn add(&mut self, _id: SockId, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(token, interest);
            Ok(())
        }

        /// Change what `token`'s socket is watched for.
        pub fn modify(&mut self, _id: SockId, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(token, interest);
            Ok(())
        }

        /// Stop watching `token`'s socket.
        pub fn remove(&mut self, _id: SockId, token: u64) -> io::Result<()> {
            self.registered.remove(&token);
            Ok(())
        }

        /// Sleep one tick, then report everything ready (spuriously).
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            std::thread::sleep(self.tick.min(timeout));
            for (&token, &interest) in &self.registered {
                out.push(Event {
                    token,
                    readable: interest.read,
                    writable: interest.write,
                    hangup: false,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// The shim end to end on a real socket: write-readiness on a fresh
    /// stream, no read-readiness until bytes arrive, read-readiness
    /// (and eventual hangup visibility) after.
    #[test]
    fn readiness_on_a_real_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        let both = Interest {
            read: true,
            write: true,
        };
        poller.add(server.sock_id(), 7, both).unwrap();

        // A fresh socket is writable.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(200))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.writable),
            "fresh socket should be writable: {events:?}"
        );

        // Bytes from the peer make it readable.
        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let readable = loop {
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
        };
        assert!(readable, "bytes never surfaced as read-readiness");
        let mut buf = [0u8; 8];
        let mut served = &server;
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Interest changes stick: read-only interest stops write events
        // on the epoll backend (the fallback may still report both).
        poller.modify(server.sock_id(), 7, Interest::READ).unwrap();

        // Peer hangup surfaces as readable (EOF) and/or hangup.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let saw_eof = loop {
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events
                .iter()
                .any(|e| e.token == 7 && (e.readable || e.hangup))
            {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
        };
        assert!(saw_eof, "hangup never surfaced");
        poller.remove(server.sock_id(), 7).unwrap();
    }

    /// A waker unblocks a poller mid-wait (the fallback backend's wait
    /// is bounded anyway, so this just checks the call sequence).
    #[test]
    fn waker_wakes_a_blocked_wait() {
        let (waker, rx) = wake_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        #[cfg(unix)]
        poller.add(rx.sock_id(), 1, Interest::READ).unwrap();
        let clone = waker.try_clone().unwrap();
        let hand = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            clone.wake();
        });
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        #[cfg(target_os = "linux")]
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake did not interrupt the wait"
        );
        let _ = start;
        rx.drain();
        hand.join().unwrap();
    }
}
