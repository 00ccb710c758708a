//! # polygen-net — the wire-protocol front door
//!
//! `polygen-serve` made the mediator a service; this crate puts a
//! socket on it. The design rests on the serve layer's transport-
//! agnostic envelope ([`polygen_serve::request::Request`] in,
//! [`polygen_serve::request::Response`] out): the wire adds framing and
//! bytes, never semantics, so an answer over TCP is *byte-identical* to
//! the same answer in process.
//!
//! * [`codec`] — deterministic little-endian encoding (length-prefixed
//!   frames, canonical ascending source-set bytes) and a push-based
//!   [`codec::FrameReader`] that reassembles frames split anywhere.
//! * [`protocol`] — the frame vocabulary: `Hello`, `Query`, then a
//!   streamed response (`Schema`, `Rows` batches, `Explain`, `Empty`,
//!   `Error`, `Summary`) with one terminal frame per response.
//!   Everything deterministic precedes the timing-dependent `Summary`.
//! * `door` (crate-private) — every protocol decision of the front door
//!   as a pure state machine: events in, actions out, no socket, thread
//!   or clock, so a seeded simulator checks it in simulated time.
//! * [`server`] — [`server::NetServer`]: the thin driver around it. One
//!   poller thread owns every socket (readiness via the [`sys`] shim —
//!   epoll on Linux, a portable fallback elsewhere) and a bounded worker
//!   pool runs queries, so idle sessions cost registrations, not
//!   threads. A peer that stops reading is closed with a backpressure
//!   error; overload is a structured `Error { code: 503 }` frame on a
//!   live connection, never a dropped socket.
//! * [`client`] — [`client::NetClient`]: blocking connect/execute, the
//!   network spelling of `QueryService::execute`. A load generator is a
//!   driver's business, not the product's: `polygen-workload`'s `drive`
//!   runs a client mix over one `NetClient` per client.
//!
//! The differential guarantee (`tests/properties_net.rs`): for the same
//! scripts, TCP responses — data, tags, order, error codes — are
//! byte-identical to in-process `execute`, with only the `Summary`
//! frame (latency, thread allotment, cache temperature) allowed to
//! differ.

pub mod client;
pub mod codec;
mod door;
pub mod protocol;
pub mod server;
pub mod sys;

/// Convenient glob import.
pub mod prelude {
    pub use crate::client::{NetClient, NetError};
    pub use crate::codec::{CodecError, FramePoll, FrameReader};
    pub use crate::protocol::{
        deterministic_bytes, response_frames, response_from_frames, Frame, PROTOCOL_VERSION,
    };
    pub use crate::server::{NetServer, NetServerOptions};
}

pub use client::{request_for, NetClient, NetError};
pub use protocol::{Frame, PROTOCOL_VERSION};
pub use server::{NetServer, NetServerOptions};
