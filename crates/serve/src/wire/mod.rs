//! The wire's data half: the frame vocabulary, its [`codec`], and the
//! mapping between frames and the serve envelope. The one owner of an
//! answer's bytes: the result cache holds every answer as the `Schema`
//! and `Rows` frames this module writes ([`AnswerFrames`]), and a
//! transport sends them as they are. Sockets, the session handshake and
//! the transport's own error codes live in `polygen-net`.
//!
//! A session is: server sends [`Frame::Hello`]; the client then loops
//! `Query → response frames`. A response is a *stream* of frames:
//!
//! * `Rows`    → `Schema`, zero or more `Rows` batches of at most
//!   [`ROW_BATCH`] tuples, then `Summary` (terminal).
//! * `Explain` → `Explain`, then `Summary` (terminal).
//! * `Empty`   → `Empty` (terminal).
//! * `Error`   → `Error` (terminal) — including admission-control
//!   shedding, which arrives as code 503 on a connection that stays
//!   open. Overload is an answer, not a hangup.
//!
//! Besides `Query`, a client may send [`Frame::StatsRequest`]: the
//! server answers with a single [`Frame::Stats`] (terminal) carrying
//! the Prometheus-format metrics scrape plus the slow-query log — the
//! wire spelling of `QueryService::scrape`.
//!
//! The client reads until a terminal frame. Everything deterministic
//! (schema, rows, tags, plan text, error codes) precedes the `Summary`
//! frame, which carries the timing-dependent [`ResponseInfo`]; the
//! differential suite compares encoded frames *excluding summaries*.
//!
//! Error codes 0–99 are reserved for the transport itself (malformed
//! or unexpected frames, backpressure); the serve taxonomy starts at
//! 100.

pub mod codec;

use crate::request::{
    Answer, ErrorCode, ExplainOptions, Lang, Request, RequestOptions, Response, ResponseInfo,
};
use codec::{ByteReader, ByteWriter, CodecError};
use polygen_core::relation::PolygenRelation;
use polygen_core::tuple::PolyTuple;
use polygen_flat::schema::Schema;
use std::fmt;
use std::sync::Arc;

/// Protocol revision; [`Frame::Hello`] announces it and clients refuse a
/// mismatch. v2 widened `Query` (EXPLAIN mode tag + trace flag) and
/// added the `StatsRequest`/`Stats` pair.
pub const PROTOCOL_VERSION: u8 = 2;

/// Tuples per `Rows` batch frame — bounds per-frame allocation while
/// keeping framing overhead negligible.
pub const ROW_BATCH: usize = 256;

/// The frame tags: part of the wire format, never reused.
mod tag {
    pub(super) const HELLO: u8 = 0;
    pub(super) const QUERY: u8 = 1;
    pub(super) const SCHEMA: u8 = 2;
    pub(super) const ROWS: u8 = 3;
    pub(super) const EXPLAIN: u8 = 4;
    pub(super) const EMPTY: u8 = 5;
    pub(super) const ERROR: u8 = 6;
    pub(super) const SUMMARY: u8 = 7;
    pub(super) const STATS_REQUEST: u8 = 8;
    pub(super) const STATS: u8 = 9;
}

/// One protocol frame. Tags are part of the wire format and never
/// change meaning.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Tag 0 — server greeting, first frame on every connection.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u8,
    },
    /// Tag 1 — a client request.
    Query {
        /// Which parser the text is for.
        lang: Lang,
        /// EXPLAIN mode (off / plan-only / analyze).
        explain: ExplainOptions,
        /// Record a span waterfall server-side (slow-query log).
        trace: bool,
        /// The query text.
        text: String,
    },
    /// Tag 2 — the answer relation's schema, sent before any rows.
    Schema {
        /// Relation name.
        name: String,
        /// Attribute names, in order.
        attrs: Vec<String>,
        /// Primary-key attribute positions.
        key: Vec<u16>,
    },
    /// Tag 3 — a batch of tagged tuples (datum + origin + intermediate
    /// per cell), at most [`ROW_BATCH`] per frame, in answer order.
    Rows {
        /// The batch.
        tuples: Vec<PolyTuple>,
    },
    /// Tag 4 — a rendered physical plan.
    Explain {
        /// `render_plan` text.
        plan: String,
    },
    /// Tag 5 — the request text was blank. Terminal.
    Empty,
    /// Tag 6 — the query failed (or the transport did). Terminal.
    Error {
        /// A [`ErrorCode`] number (≥ 100) or a transport code (< 100).
        code: u16,
        /// Human-readable detail; not stable.
        message: String,
    },
    /// Tag 7 — cache/route/metrics info; terminates `Rows`/`Explain`
    /// responses. Timing-dependent, hence excluded from byte-identity
    /// comparisons.
    Summary {
        /// The info block the service reported.
        info: ResponseInfo,
    },
    /// Tag 8 — client asks for the service's metrics scrape.
    StatsRequest,
    /// Tag 9 — the scrape text (Prometheus exposition + slow-query
    /// log). Terminal: a `StatsRequest` gets exactly one `Stats` back.
    Stats {
        /// `QueryService::scrape` output.
        text: String,
    },
}

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::Query { .. } => tag::QUERY,
            Frame::Schema { .. } => tag::SCHEMA,
            Frame::Rows { .. } => tag::ROWS,
            Frame::Explain { .. } => tag::EXPLAIN,
            Frame::Empty => tag::EMPTY,
            Frame::Error { .. } => tag::ERROR,
            Frame::Summary { .. } => tag::SUMMARY,
            Frame::StatsRequest => tag::STATS_REQUEST,
            Frame::Stats { .. } => tag::STATS,
        }
    }

    /// Does this frame end a response stream?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Frame::Empty | Frame::Error { .. } | Frame::Summary { .. } | Frame::Stats { .. }
        )
    }

    /// Encode to full wire form: length prefix + tag + body.
    ///
    /// Panics on a payload over
    /// [`MAX_FRAME_LEN`](codec::MAX_FRAME_LEN); the server's
    /// answer path reports that instead, as error 500.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w)
            .expect("frame payload within MAX_FRAME_LEN");
        w.into_bytes()
    }

    /// Append the full wire form to `w`: the length prefix is reserved,
    /// the tag and body are written in place, and the prefix is patched
    /// at the end.
    ///
    /// Errors: a payload over
    /// [`MAX_FRAME_LEN`](codec::MAX_FRAME_LEN) (nothing is
    /// appended).
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) -> Result<(), CodecError> {
        put_frame(w, self.tag(), |w| match self {
            Frame::Hello { version } => w.put_u8(*version),
            Frame::Query {
                lang,
                explain,
                trace,
                text,
            } => {
                w.put_u8(lang.wire_tag());
                w.put_u8(explain.wire_tag());
                w.put_bool(*trace);
                w.put_str(text);
            }
            Frame::Schema { name, attrs, key } => put_schema(w, name, attrs, key.iter().copied()),
            Frame::Rows { tuples } => w.put_rows(tuples),
            Frame::Explain { plan } => w.put_str(plan),
            Frame::Empty | Frame::StatsRequest => {}
            Frame::Error { code, message } => {
                w.put_u16(*code);
                w.put_str(message);
            }
            Frame::Summary { info } => put_summary(w, info),
            Frame::Stats { text } => w.put_str(text),
        })
    }

    /// Decode a frame payload (tag + body, length prefix already
    /// stripped by the [`codec::FrameReader`]).
    pub fn decode(payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = ByteReader::new(payload);
        let frame = match r.get_u8()? {
            tag::HELLO => Frame::Hello {
                version: r.get_u8()?,
            },
            tag::QUERY => {
                let lang_tag = r.get_u8()?;
                let lang = Lang::from_wire_tag(lang_tag)
                    .ok_or_else(|| CodecError::Corrupt(format!("lang tag {lang_tag}")))?;
                let explain_tag = r.get_u8()?;
                let explain = ExplainOptions::from_wire_tag(explain_tag)
                    .ok_or_else(|| CodecError::Corrupt(format!("explain tag {explain_tag}")))?;
                Frame::Query {
                    lang,
                    explain,
                    trace: r.get_bool()?,
                    text: r.get_str()?,
                }
            }
            tag::SCHEMA => {
                let name = r.get_str()?;
                let n_attrs = r.get_u16()?;
                let attrs = (0..n_attrs)
                    .map(|_| r.get_str())
                    .collect::<Result<Vec<_>, _>>()?;
                let n_key = r.get_u16()?;
                let key = (0..n_key)
                    .map(|_| r.get_u16())
                    .collect::<Result<Vec<_>, _>>()?;
                Frame::Schema { name, attrs, key }
            }
            tag::ROWS => Frame::Rows {
                tuples: r.get_rows()?,
            },
            tag::EXPLAIN => Frame::Explain { plan: r.get_str()? },
            tag::EMPTY => Frame::Empty,
            tag::ERROR => Frame::Error {
                code: r.get_u16()?,
                message: r.get_str()?,
            },
            tag::SUMMARY => Frame::Summary {
                info: ResponseInfo {
                    canonical: r.get_str()?,
                    fingerprint: r.get_u64()?,
                    plan_hit: r.get_bool()?,
                    result_hit: r.get_bool()?,
                    index_routed: r.get_bool()?,
                    threads: r.get_u64()? as usize,
                    latency_micros: r.get_u64()?,
                },
            },
            tag::STATS_REQUEST => Frame::StatsRequest,
            tag::STATS => Frame::Stats { text: r.get_str()? },
            tag => return Err(CodecError::Corrupt(format!("frame tag {tag}"))),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

/// Write one frame — reserved prefix, `tag`, `body`, patched prefix.
fn put_frame(
    w: &mut ByteWriter,
    tag: u8,
    body: impl FnOnce(&mut ByteWriter),
) -> Result<(), CodecError> {
    let start = w.begin_frame();
    w.put_u8(tag);
    body(w);
    w.end_frame(start)
}

/// The body of a `Schema` frame, from owned or borrowed names.
fn put_schema<A: AsRef<str>>(
    w: &mut ByteWriter,
    name: &str,
    attrs: &[A],
    key: impl ExactSizeIterator<Item = u16>,
) {
    w.put_str(name);
    w.put_u16(u16::try_from(attrs.len()).expect("schema degree exceeds u16"));
    for a in attrs {
        w.put_str(a.as_ref());
    }
    w.put_u16(u16::try_from(key.len()).expect("key width exceeds u16"));
    for k in key {
        w.put_u16(k);
    }
}

/// The body of a `Summary` frame.
fn put_summary(w: &mut ByteWriter, info: &ResponseInfo) {
    w.put_str(&info.canonical);
    w.put_u64(info.fingerprint);
    w.put_bool(info.plan_hit);
    w.put_bool(info.result_hit);
    w.put_bool(info.index_routed);
    w.put_u64(info.threads as u64);
    w.put_u64(info.latency_micros);
}

/// A schema key position as the wire's `u16`.
fn key_index(k: usize) -> u16 {
    u16::try_from(k).expect("key index exceeds u16")
}

/// The `Query` frame for a [`Request`].
pub fn request_frame(request: &Request) -> Frame {
    Frame::Query {
        lang: request.lang,
        explain: request.options.explain,
        trace: request.options.trace,
        text: request.text.clone(),
    }
}

/// Rebuild the [`Request`] a `Query` frame carries.
pub fn request_from_frame(frame: &Frame) -> Option<Request> {
    match frame {
        Frame::Query {
            lang,
            explain,
            trace,
            text,
        } => Some(Request {
            text: text.clone(),
            lang: *lang,
            options: RequestOptions {
                explain: *explain,
                trace: *trace,
            },
        }),
        _ => None,
    }
}

/// Flatten a [`Response`] into its frame stream (the server's send
/// order). Shared by the server and the differential tests, so "what
/// the wire says" has exactly one definition.
pub fn response_frames(response: &Response) -> Vec<Frame> {
    match response {
        Response::Rows { answer, info } => {
            let schema = answer.schema();
            let mut frames = vec![Frame::Schema {
                name: schema.name().to_string(),
                attrs: schema.attrs().iter().map(|a| a.to_string()).collect(),
                key: schema.key().iter().map(|&k| key_index(k)).collect(),
            }];
            for batch in answer.tuples().chunks(ROW_BATCH) {
                frames.push(Frame::Rows {
                    tuples: batch.to_vec(),
                });
            }
            frames.push(Frame::Summary { info: info.clone() });
            frames
        }
        Response::Explain { plan, info } => vec![
            Frame::Explain { plan: plan.clone() },
            Frame::Summary { info: info.clone() },
        ],
        Response::Empty => vec![Frame::Empty],
        Response::Error { code, message } => vec![Frame::Error {
            code: code.code(),
            message: message.clone(),
        }],
    }
}

/// Append `answer`'s `Schema` frame and `Rows` batches to `w`, written
/// from borrowed chunks of the answer. Errors: a frame over
/// [`MAX_FRAME_LEN`](codec::MAX_FRAME_LEN).
fn put_answer(w: &mut ByteWriter, answer: &PolygenRelation) -> Result<(), CodecError> {
    let schema = answer.schema();
    let key = schema.key().iter().map(|&k| key_index(k));
    put_frame(w, tag::SCHEMA, |w| {
        put_schema(w, schema.name(), schema.attrs(), key)
    })?;
    for batch in answer.tuples().chunks(ROW_BATCH) {
        put_frame(w, tag::ROWS, |w| w.put_rows(batch))?;
    }
    Ok(())
}

/// The exact bytes of an answer's `Schema` frame and `Rows` batches, as
/// [`response_frames`] encodes them, with the row count they carry: the
/// form the result cache holds every answer in.
pub struct AnswerFrames {
    bytes: Box<[u8]>,
    rows: usize,
}

impl AnswerFrames {
    /// Encode `relation`'s frames. Errors: a frame over
    /// [`MAX_FRAME_LEN`](codec::MAX_FRAME_LEN), an answer the wire cannot
    /// carry.
    pub fn encode(relation: &PolygenRelation) -> Result<AnswerFrames, CodecError> {
        let mut w = ByteWriter::new();
        put_answer(&mut w, relation)?;
        Ok(AnswerFrames {
            bytes: w.into_bytes().into_boxed_slice(),
            rows: relation.len(),
        })
    }

    /// Split the length-prefixed frames and reassemble the relation they
    /// carry: the one [`AnswerFrames::encode`] wrote them from. Errors:
    /// frames a client could not read either — source sets past the
    /// decoder's spill bound, or bytes that are not whole frames opening
    /// with a `Schema`.
    pub fn decode(&self) -> Result<PolygenRelation, CodecError> {
        let mut bytes = &self.bytes[..];
        let mut frames = Vec::new();
        while let Some((len, rest)) = bytes.split_first_chunk::<4>() {
            let len = u32::from_le_bytes(*len) as usize;
            frames.push(Frame::decode(
                rest.get(..len).ok_or(CodecError::Truncated)?,
            )?);
            bytes = &rest[len..];
        }
        if !bytes.is_empty() {
            return Err(CodecError::Truncated);
        }
        let mut frames = frames.into_iter();
        let Some(Frame::Schema { name, attrs, key }) = frames.next() else {
            return Err(CodecError::Corrupt(
                "answer frames open with a Schema frame".into(),
            ));
        };
        relation_from_frames(&name, attrs, &key, frames)
    }

    /// The encoded frames.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Tuples the frames carry.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }
}

impl fmt::Debug for AnswerFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnswerFrames")
            .field("bytes", &self.bytes.len())
            .field("rows", &self.rows)
            .finish()
    }
}

/// Encode a [`Response`]'s whole frame stream into one buffer: exactly
/// the bytes of [`response_frames`] encoded frame by frame, without
/// building the frames. An answer held as its [`AnswerFrames`] (a
/// result-cache entry) is copied as it is, with a fresh `Summary` after
/// it, and no cell is read. Any other answer (one served with caches
/// off) is written from borrowed chunks of its relation.
///
/// Errors: a frame over [`MAX_FRAME_LEN`](codec::MAX_FRAME_LEN)
/// — a batch of very wide rows, or one string cell over the cap. The
/// server answers that request with error 500 instead; the connection
/// serves on.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, CodecError> {
    let Response::Rows { answer, info } = response else {
        let mut w = ByteWriter::new();
        for frame in response_frames(response) {
            frame.encode_into(&mut w)?;
        }
        return Ok(w.into_bytes());
    };
    let mut w = ByteWriter::new();
    if let Some(frames) = answer.frames() {
        put_frame(&mut w, tag::SUMMARY, |w| put_summary(w, info))?;
        return Ok([frames.bytes(), &w.into_bytes()].concat());
    }
    put_answer(&mut w, answer)?;
    put_frame(&mut w, tag::SUMMARY, |w| put_summary(w, info))?;
    Ok(w.into_bytes())
}

/// Reassemble a [`Response`] from a full frame stream — the inverse of
/// [`response_frames`]. Rejects out-of-order or transport-coded streams.
/// The tuples are copied out of `frames`; a caller that owns its frames
/// reassembles with [`response_from_owned_frames`] instead.
pub fn response_from_frames(frames: &[Frame]) -> Result<Response, CodecError> {
    response_from_owned_frames(frames.to_vec())
}

/// [`response_from_frames`] over frames the caller gives up: every
/// tuple moves out of its `Rows` batch into the answer, none is copied.
pub fn response_from_owned_frames(mut frames: Vec<Frame>) -> Result<Response, CodecError> {
    let last = frames.pop();
    let mut frames = frames.into_iter();
    match (frames.next(), last) {
        (None, Some(Frame::Empty)) => Ok(Response::Empty),
        (None, Some(Frame::Error { code, message })) => {
            let code = ErrorCode::from_code(code).ok_or_else(|| {
                CodecError::Corrupt(format!("transport or unknown error code {code}"))
            })?;
            Ok(Response::Error { code, message })
        }
        (Some(Frame::Explain { plan }), Some(Frame::Summary { info })) if frames.len() == 0 => {
            Ok(Response::Explain { plan, info })
        }
        (Some(Frame::Schema { name, attrs, key }), Some(Frame::Summary { info })) => {
            Ok(Response::Rows {
                answer: Answer::from(relation_from_frames(&name, attrs, &key, frames)?),
                info,
            })
        }
        _ => Err(CodecError::Corrupt(
            "unrecognized response frame sequence".into(),
        )),
    }
}

/// The relation a `Schema` frame's parts and the `Rows` batches after
/// it carry, their tuples moved into one exactly sized vector.
fn relation_from_frames(
    name: &str,
    attrs: Vec<String>,
    key: &[u16],
    batches: std::vec::IntoIter<Frame>,
) -> Result<PolygenRelation, CodecError> {
    let schema = Schema::from_parts(
        name,
        attrs.into_iter().map(Arc::from).collect(),
        key.iter().map(|&k| k as usize).collect(),
    )
    .map_err(|e| CodecError::Corrupt(format!("schema frame: {e}")))?;
    let rows = batches
        .as_slice()
        .iter()
        .map(|frame| match frame {
            Frame::Rows { tuples } => tuples.len(),
            _ => 0,
        })
        .sum();
    let mut tuples = Vec::with_capacity(rows);
    for frame in batches {
        match frame {
            Frame::Rows { tuples: batch } => tuples.extend(batch),
            other => {
                return Err(CodecError::Corrupt(format!(
                    "frame tag {} inside a rows stream",
                    other.tag()
                )))
            }
        }
    }
    PolygenRelation::from_tuples(Arc::new(schema), tuples)
        .map_err(|e| CodecError::Corrupt(format!("rows frame: {e}")))
}

/// Encode a frame stream with `Summary` frames dropped — the
/// byte-identity view differential tests compare across transports.
pub fn deterministic_bytes(frames: &[Frame]) -> Vec<u8> {
    frames
        .iter()
        .filter(|f| !matches!(f, Frame::Summary { .. }))
        .flat_map(Frame::encode)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_core::cell::Cell;
    use polygen_core::source::SourceId;
    use polygen_flat::value::Value;

    /// Bytes that are not whole frames opening with a `Schema` frame do
    /// not decode, whatever their cut.
    #[test]
    fn answer_frames_decode_only_whole_frames_opening_with_a_schema() {
        let schema = Arc::new(Schema::new("R", &["A"]).unwrap());
        let tuples = (0..3)
            .map(|i| vec![Cell::retrieved(Value::int(i), SourceId(0))])
            .collect();
        let relation = PolygenRelation::from_tuples(schema, tuples).unwrap();
        let bytes = AnswerFrames::encode(&relation).unwrap().bytes;
        let whole = AnswerFrames {
            bytes: bytes.clone(),
            rows: 3,
        };
        assert_eq!(whole.decode().unwrap(), relation);
        let schema_len = 4 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let rows_only = &bytes[schema_len..];
        for broken in [&bytes[..bytes.len() - 1], &bytes[..2], rows_only, &[]] {
            let frames = AnswerFrames {
                bytes: broken.into(),
                rows: 0,
            };
            assert!(frames.decode().is_err(), "{} bytes", broken.len());
        }
    }
}
