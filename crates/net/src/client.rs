//! A blocking client for the wire protocol.
//!
//! [`NetClient::execute`] is the network spelling of
//! [`QueryService::execute`](polygen_serve::service::QueryService::execute):
//! same [`Request`] in, same [`Response`] out — reassembled from the
//! frame stream. [`NetClient::execute_frames`] exposes the raw frames
//! for byte-level differential comparison.
//!
//! Connections are keep-alive by design: hold a `NetClient` open
//! between queries instead of reconnecting. The evented server parks an
//! idle session as one registration in its readiness poller — no
//! thread, no stack — so thousands of long-lived clients cost it almost
//! nothing, while a reconnect pays the TCP + greeting handshake every
//! time. The only thing a client must stay honest about is *draining
//! responses*: a client that issues queries and stops reading will hit
//! the server's outbound backpressure cap and have its connection
//! closed with a `WIRE_BACKPRESSURE` error.

use polygen_serve::request::{Request, Response};
use polygen_serve::wire::codec::{CodecError, FramePoll, FrameReader};
use polygen_serve::wire::{request_frame, response_from_owned_frames, Frame, PROTOCOL_VERSION};
use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// Why a client call failed at the transport level (serve-level
/// failures arrive as ordinary [`Response::Error`] values).
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame failed to decode.
    Codec(CodecError),
    /// The server greeted with an incompatible protocol version.
    VersionMismatch {
        /// What the server speaks.
        server: u8,
        /// What this client speaks ([`PROTOCOL_VERSION`]).
        client: u8,
    },
    /// The server closed the connection mid-response.
    Disconnected,
    /// The server reported a transport-level violation (code < 100).
    Transport {
        /// One of the `WIRE_*` codes.
        code: u16,
        /// Server-side detail.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Codec(e) => write!(f, "codec: {e}"),
            NetError::VersionMismatch { server, client } => {
                write!(f, "server speaks protocol v{server}, client v{client}")
            }
            NetError::Disconnected => write!(f, "server closed the connection mid-response"),
            NetError::Transport { code, message } => {
                write!(f, "transport error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// A copy of `request`. The ledger (`benchmark/src/tcp.rs`) maps each
/// scripted entry through this function, and its `&&Request` argument
/// reaches `&Request` only through deref coercion onto a concrete
/// parameter type, so the name stays while scripts are `Request`s.
pub fn request_for(request: &Request) -> Request {
    request.clone()
}

/// One blocking protocol session over TCP.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl NetClient {
    /// Connect and consume the server's `Hello`, refusing a version
    /// mismatch.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = NetClient {
            stream,
            reader: FrameReader::new(),
        };
        match client.read_frame()? {
            Frame::Hello { version } if version == PROTOCOL_VERSION => Ok(client),
            Frame::Hello { version } => Err(NetError::VersionMismatch {
                server: version,
                client: PROTOCOL_VERSION,
            }),
            other => Err(NetError::Codec(CodecError::Corrupt(format!(
                "expected Hello, got tag {}",
                other.tag()
            )))),
        }
    }

    /// Issue one request and collect its full response frame stream
    /// (terminal frame included, `Hello` long since consumed).
    pub fn execute_frames(&mut self, request: &Request) -> Result<Vec<Frame>, NetError> {
        self.stream.write_all(&request_frame(request).encode())?;
        let mut frames = Vec::new();
        loop {
            let frame = self.read_frame()?;
            if let Frame::Error { code, message } = &frame {
                // Transport-coded errors mean the server is about to
                // hang up; surface them as client errors, not responses.
                if *code < 100 {
                    return Err(NetError::Transport {
                        code: *code,
                        message: message.clone(),
                    });
                }
            }
            let terminal = frame.is_terminal();
            frames.push(frame);
            if terminal {
                return Ok(frames);
            }
        }
    }

    /// Issue one request and reassemble the serve-level [`Response`],
    /// moving each tuple out of the frames it arrived in.
    pub fn execute(&mut self, request: &Request) -> Result<Response, NetError> {
        let frames = self.execute_frames(request)?;
        Ok(response_from_owned_frames(frames)?)
    }

    /// Fetch the server's metrics scrape (Prometheus exposition text
    /// plus the slow-query log) — the wire spelling of
    /// `QueryService::scrape`. Answered by the server's poller thread,
    /// so it works even while every query worker is busy.
    pub fn scrape_stats(&mut self) -> Result<String, NetError> {
        self.stream.write_all(&Frame::StatsRequest.encode())?;
        match self.read_frame()? {
            Frame::Stats { text } => Ok(text),
            Frame::Error { code, message } if code < 100 => {
                Err(NetError::Transport { code, message })
            }
            other => Err(NetError::Codec(CodecError::Corrupt(format!(
                "expected Stats, got tag {}",
                other.tag()
            )))),
        }
    }

    /// Block until the next frame, decoded in place from the reader's
    /// buffer (the client sets no read timeout, so a clean server close
    /// is the only `Disconnected` source).
    fn read_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            match self.reader.poll(&mut self.stream)? {
                FramePoll::Payload(payload) => return Ok(Frame::decode(payload)?),
                FramePoll::Idle => continue,
                FramePoll::Closed => return Err(NetError::Disconnected),
            }
        }
    }
}
