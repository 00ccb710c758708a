//! The frame vocabulary and its mapping onto the serve envelope.
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
//! wire spelling of `QueryService::scrape`. Stats are answered by the
//! poller itself, so the scrape works even when every worker is busy.
//!
//! The client reads until a terminal frame. Everything deterministic
//! (schema, rows, tags, plan text, error codes) precedes the `Summary`
//! frame, which carries the timing-dependent [`ResponseInfo`]; the
//! differential suite compares encoded frames *excluding summaries*.
//!
//! Error codes 0–99 are reserved for the transport itself (malformed
//! frames, version mismatch); the serve taxonomy starts at 100. A
//! transport-coded `Error` frame is followed by the server closing the
//! connection — the stream can no longer be trusted to be in sync.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use polygen_core::relation::PolygenRelation;
use polygen_core::tuple::PolyTuple;
use polygen_flat::schema::Schema;
use polygen_serve::request::{
    Answer, ErrorCode, ExplainOptions, FrameCodec, Lang, Request, RequestOptions, Response,
    ResponseInfo,
};
use std::sync::Arc;

/// Protocol revision; [`Frame::Hello`] announces it and clients refuse a
/// mismatch. v2 widened `Query` (EXPLAIN mode tag + trace flag) and
/// added the `StatsRequest`/`Stats` pair.
pub const PROTOCOL_VERSION: u8 = 2;

/// Tuples per `Rows` batch frame — bounds per-frame allocation while
/// keeping framing overhead negligible.
pub const ROW_BATCH: usize = 256;

/// Transport-reserved error code: a frame failed to decode or violated
/// the protocol state machine. The server closes the connection after
/// sending it.
pub const WIRE_MALFORMED: u16 = 1;

/// Transport-reserved error code: the client spoke a different
/// [`PROTOCOL_VERSION`].
pub const WIRE_VERSION_MISMATCH: u16 = 2;

/// Transport-reserved error code: the server received a frame other
/// than `Query` where a query was expected.
pub const WIRE_UNEXPECTED_FRAME: u16 = 3;

/// Transport-reserved error code: the peer stopped draining its
/// responses and the server's outbound buffer for the connection hit
/// its cap. The server closes the connection after (best-effort)
/// sending it — a slow reader costs one socket, never a server thread.
pub const WIRE_BACKPRESSURE: u16 = 4;

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
    /// [`MAX_FRAME_LEN`](crate::codec::MAX_FRAME_LEN); the server's
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
    /// [`MAX_FRAME_LEN`](crate::codec::MAX_FRAME_LEN) (nothing is
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
    /// stripped by the [`crate::codec::FrameReader`]).
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

/// The wire's [`FrameCodec`]: an answer's `Schema` frame and its `Rows`
/// batches, exactly as [`response_frames`] encodes them. The server
/// hands it to the service, so the result cache holds each answer it
/// serves as these bytes.
pub const FRAME_CODEC: FrameCodec = FrameCodec::new(encode_answer, decode_answer);

/// Append `answer`'s `Schema` frame and `Rows` batches to `w`, written
/// from borrowed chunks of the answer. Errors: a frame over
/// [`MAX_FRAME_LEN`](crate::codec::MAX_FRAME_LEN).
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

/// [`FRAME_CODEC`]'s encoder.
fn encode_answer(answer: &PolygenRelation) -> Result<Vec<u8>, String> {
    let mut w = ByteWriter::new();
    put_answer(&mut w, answer).map_err(|e| e.to_string())?;
    Ok(w.into_bytes())
}

/// [`FRAME_CODEC`]'s decoder: split the length-prefixed frames and
/// reassemble the relation they carry.
fn decode_answer(mut bytes: &[u8]) -> Result<PolygenRelation, String> {
    let mut frames = Vec::new();
    while let Some((len, rest)) = bytes.split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*len) as usize;
        let payload = rest.get(..len).ok_or(CodecError::Truncated);
        frames.push(payload.and_then(Frame::decode).map_err(|e| e.to_string())?);
        bytes = &rest[len..];
    }
    if !bytes.is_empty() {
        return Err(CodecError::Truncated.to_string());
    }
    let mut frames = frames.into_iter();
    let Some(Frame::Schema { name, attrs, key }) = frames.next() else {
        return Err("answer frames open with a Schema frame".to_string());
    };
    relation_from_frames(&name, attrs, &key, frames).map_err(|e| e.to_string())
}

/// Encode a [`Response`]'s whole frame stream into one buffer: exactly
/// the bytes of [`response_frames`] encoded frame by frame, without
/// building the frames. An answer held as [`FRAME_CODEC`]'s frames (a
/// result-cache entry filled over the wire) is copied as it is, with a
/// fresh `Summary` after it, and no cell is read. Any other answer is
/// written from borrowed chunks of its relation, so a cached relation
/// the workers share is read, never cloned.
///
/// Errors: a frame over [`MAX_FRAME_LEN`](crate::codec::MAX_FRAME_LEN)
/// — a batch of very wide rows, or one string cell over the cap. The
/// server answers that request with error 500 instead; the connection
/// serves on.
pub(crate) fn encode_response(response: &Response) -> Result<Vec<u8>, CodecError> {
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
    use crate::codec::MAX_FRAME_LEN;
    use crate::door::tests::Rng;
    use polygen_core::cell::Cell;
    use polygen_core::source::{SourceId, SourceSet};
    use polygen_flat::value::Value;

    fn info() -> ResponseInfo {
        ResponseInfo {
            canonical: "PENTITY [CAT = c]".into(),
            fingerprint: 0xfeed,
            plan_hit: true,
            result_hit: false,
            index_routed: true,
            threads: 4,
            latency_micros: 1234,
        }
    }

    fn tagged_relation() -> PolygenRelation {
        let schema = Arc::new(
            Schema::new("R", &["A", "B"])
                .unwrap()
                .with_key(&["A"])
                .unwrap(),
        );
        let tuple = |a: i64, src: u16| {
            vec![
                Cell::new(
                    Value::int(a),
                    SourceSet::singleton(SourceId(src)),
                    SourceSet::empty(),
                ),
                Cell::new(
                    Value::str(format!("b{a}")),
                    SourceSet::from_ids([SourceId(src), SourceId(7)]),
                    SourceSet::singleton(SourceId(3)),
                ),
            ]
        };
        PolygenRelation::from_tuples(schema, vec![tuple(1, 0), tuple(2, 1)]).unwrap()
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Query {
                lang: Lang::App,
                explain: ExplainOptions::Analyze,
                trace: true,
                text: "SELECT * FROM V".into(),
            },
            Frame::Schema {
                name: "R".into(),
                attrs: vec!["A".into(), "B".into()],
                key: vec![0],
            },
            Frame::Rows {
                tuples: tagged_relation().tuples().to_vec(),
            },
            Frame::Explain {
                plan: "Scan PENTITY\n".into(),
            },
            Frame::Empty,
            Frame::Error {
                code: 503,
                message: "overloaded".into(),
            },
            Frame::Summary { info: info() },
            Frame::StatsRequest,
            Frame::Stats {
                text: "# HELP polygen_queries_total Queries served.\n".into(),
            },
        ];
        for frame in frames {
            let wire = frame.encode();
            // Strip the length prefix the FrameReader strips.
            let back = Frame::decode(&wire[4..]).unwrap();
            assert_eq!(back, frame);
            assert_eq!(back.encode(), wire, "decode∘encode must be identity");
        }
    }

    /// A `Rows` frame whose sets name high source ids asks the decoder
    /// for 8 KiB of heap per 4-byte set: 1 000 cells tagged `{65535}`
    /// would take ~8 MiB from an ~8 KB frame, and fail to decode instead.
    /// Every answer over ≤ 256 sources still round-trips, densest first.
    #[test]
    fn rows_frames_bound_the_heap_their_source_sets_spill() {
        let tagged = |origin: SourceSet, intermediate: SourceSet| Frame::Rows {
            tuples: vec![vec![Cell::new(Value::Null, origin, intermediate)]; 1000],
        };
        let hostile = tagged(SourceSet::singleton(SourceId(65535)), SourceSet::empty());
        let wire = hostile.encode();
        assert!(
            matches!(Frame::decode(&wire[4..]), Err(CodecError::Corrupt(_))),
            "a frame whose sets spill 2 000x its size decodes"
        );
        for frame in [
            tagged(
                SourceSet::singleton(SourceId(255)),
                SourceSet::singleton(SourceId(255)),
            ),
            tagged(
                SourceSet::from_ids((0..256).map(SourceId)),
                SourceSet::singleton(SourceId(128)),
            ),
        ] {
            let wire = frame.encode();
            let back = Frame::decode(&wire[4..]).unwrap();
            assert_eq!(back, frame);
            assert_eq!(back.encode(), wire);
        }
    }

    /// Over a federation of more than 256 sources the bound is the
    /// decoder's width limit: a high id decodes while the frame's bytes
    /// pay for the words its set spills, and a frame dense in sparse
    /// high ids is refused with an error that names the bound.
    #[test]
    fn rows_frames_past_256_sources_decode_while_their_bytes_pay() {
        let wide = |n: usize, label: &str| Frame::Rows {
            tuples: (0..n)
                .map(|i| {
                    let id = if i % 2 == 0 { 1500 } else { 1600 };
                    vec![Cell::new(
                        Value::str(label),
                        SourceSet::singleton(SourceId(id)),
                        SourceSet::from_ids([SourceId(3), SourceId(300)]),
                    )]
                })
                .collect(),
        };
        // Two cells whose labels carry the bytes their sets spill.
        let paid = wide(2, &"x".repeat(64));
        let wire = paid.encode();
        assert_eq!(Frame::decode(&wire[4..]).unwrap(), paid);
        // 1 000 cells of under 20 bytes, each spilling ~30 words.
        let dense = wide(1000, "x");
        let wire = dense.encode();
        match Frame::decode(&wire[4..]) {
            Err(CodecError::Corrupt(why)) => {
                assert!(why.contains("one heap word per byte"), "{why}");
                assert!(why.contains("ids below 256 always fit"), "{why}");
            }
            other => panic!("a frame spilling past its bound decoded: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        let rows = Response::Rows {
            answer: Answer::from(tagged_relation()),
            info: info(),
        };
        let explain = Response::Explain {
            plan: "Project\n  Scan R\n".into(),
            info: info(),
        };
        let error = Response::Error {
            code: ErrorCode::UnknownRelation,
            message: "unknown relation Z".into(),
        };
        for response in [rows, explain, Response::Empty, error] {
            let frames = response_frames(&response);
            assert!(frames.last().unwrap().is_terminal());
            assert_eq!(
                frames.iter().filter(|f| f.is_terminal()).count(),
                1,
                "exactly one terminal frame"
            );
            let back = response_from_frames(&frames).unwrap();
            assert_eq!(back, response, "full round trip including info");
        }
    }

    #[test]
    fn row_streams_batch_and_reassemble() {
        let schema = Arc::new(Schema::new("Big", &["N"]).unwrap());
        let tuples: Vec<PolyTuple> = (0..ROW_BATCH as i64 * 2 + 5)
            .map(|n| vec![Cell::retrieved(Value::int(n), SourceId(0))])
            .collect();
        let answer = Arc::new(PolygenRelation::from_tuples(schema, tuples).unwrap());
        let response = Response::Rows {
            answer: Answer::from(Arc::clone(&answer)),
            info: info(),
        };
        let frames = response_frames(&response);
        // Schema + 3 batches (256, 256, 5) + summary.
        assert_eq!(frames.len(), 5);
        assert!(matches!(&frames[1], Frame::Rows { tuples } if tuples.len() == ROW_BATCH));
        assert!(matches!(&frames[3], Frame::Rows { tuples } if tuples.len() == 5));
        let back = response_from_frames(&frames).unwrap();
        assert!(back.payload_eq(&response));
    }

    #[test]
    fn summary_is_excluded_from_deterministic_bytes() {
        let answer = Arc::new(tagged_relation());
        let mut other_info = info();
        other_info.latency_micros = 999_999;
        other_info.plan_hit = false;
        other_info.threads = 1;
        let a = response_frames(&Response::Rows {
            answer: Answer::from(Arc::clone(&answer)),
            info: info(),
        });
        let b = response_frames(&Response::Rows {
            answer: Answer::from(answer),
            info: other_info,
        });
        assert_ne!(a, b, "summaries differ");
        assert_eq!(
            deterministic_bytes(&a),
            deterministic_bytes(&b),
            "deterministic view ignores the summary"
        );
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert!(response_from_frames(&[]).is_err());
        assert!(response_from_frames(&[Frame::Explain { plan: "p".into() }]).is_err());
        assert!(response_from_frames(&[
            Frame::Schema {
                name: "R".into(),
                attrs: vec!["A".into()],
                key: vec![],
            },
            Frame::Empty,
            Frame::Summary { info: info() },
        ])
        .is_err());
        // Transport codes have no serve-level Response.
        assert!(response_from_frames(&[Frame::Error {
            code: WIRE_MALFORMED,
            message: "bad".into(),
        }])
        .is_err());
        // Unknown tag.
        assert!(matches!(Frame::decode(&[99]), Err(CodecError::Corrupt(_))));
        // Trailing garbage.
        assert!(matches!(
            Frame::decode(&[5, 0]),
            Err(CodecError::Corrupt(_))
        ));
    }

    /// A multibyte string the corpus carries and the fuzz corrupts.
    const MULTIBYTE: &str = "héllo ✓ 𝄞";

    /// The tag sets the corpus cycles through: empty, inline (across the
    /// word boundary) and spilled to the heap. The widest set, up to the
    /// last id, rides only on each answer's first tuple: a walk over its
    /// 1 024 words is slow in a debug build.
    fn corpus_sets() -> [SourceSet; 5] {
        [
            SourceSet::empty(),
            SourceSet::from_ids([0, 63, 64, 127].map(SourceId)),
            SourceSet::from_ids([5, 128, 1000, 4095].map(SourceId)),
            SourceSet::singleton(SourceId(2)),
            SourceSet::from_ids([1, 127, 128, 65535].map(SourceId)),
        ]
    }

    /// Every response shape the encoder writes: `Rows` around the batch
    /// boundary with every value kind (`-0.0`, a NaN payload, empty and
    /// multibyte strings, `Null`) and every tag-set shape, plus
    /// `Explain`, `Empty` and `Error`.
    fn identity_corpus() -> Vec<Response> {
        let schema = Arc::new(
            Schema::new("W", &["N", "V"])
                .unwrap()
                .with_key(&["N"])
                .unwrap(),
        );
        let sets = corpus_sets();
        let value = |i: usize| match i % 9 {
            0 => Value::Null,
            1 => Value::Bool(i % 2 == 0),
            2 => Value::int(-7 * i as i64),
            3 => Value::float(-0.0),
            4 => Value::float(f64::from_bits(0x7ff8_0000_dead_beef)),
            5 => Value::str(""),
            6 => Value::str(MULTIBYTE),
            7 => Value::float(1.5),
            _ => Value::str(format!("s{i}")),
        };
        let tuple = |i: usize| {
            vec![
                Cell::new(
                    Value::int(i as i64),
                    sets[i % 4].clone(),
                    sets[if i == 0 { 4 } else { (i + 1) % 4 }].clone(),
                ),
                Cell::new(value(i), sets[(i / 4) % 4].clone(), sets[i % 3].clone()),
            ]
        };
        let mut corpus: Vec<Response> = [0, 1, 255, 256, 257, 513]
            .into_iter()
            .map(|n| Response::Rows {
                answer: Answer::from(
                    PolygenRelation::from_tuples(Arc::clone(&schema), (0..n).map(tuple).collect())
                        .unwrap(),
                ),
                info: info(),
            })
            .collect();
        corpus.extend([
            Response::Explain {
                plan: format!("Project [{MULTIBYTE}]\n  Scan W\n"),
                info: info(),
            },
            Response::Empty,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: format!("busy {MULTIBYTE}"),
            },
        ]);
        corpus
    }

    /// The one-buffer encoder writes exactly what the frame vocabulary
    /// says, frame by frame.
    #[test]
    fn encode_response_is_the_frames_bytes_concatenated() {
        for response in identity_corpus() {
            let frames = response_frames(&response);
            let want: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
            assert_eq!(
                encode_response(&response).unwrap(),
                want,
                "{} frames",
                frames.len()
            );
        }
    }

    /// A rows answer held as [`FRAME_CODEC`]'s frames is written as the
    /// same bytes its relation is, and decodes back to that relation
    /// whenever a client could; bytes that are not whole frames opening
    /// with a `Schema` do not decode.
    #[test]
    fn cached_frames_encode_and_decode_as_their_relation() {
        for response in identity_corpus() {
            let Response::Rows { answer, info } = &response else {
                continue;
            };
            let frames = FRAME_CODEC.encode(answer).unwrap();
            // What a client can read back, the codec reads back; sets
            // past the decoder's spill bound are refused by both.
            let readable = response_frames(&response)
                .iter()
                .all(|f| Frame::decode(&f.encode()[4..]).is_ok());
            match decode_answer(frames.bytes()) {
                Ok(decoded) => assert_eq!(&decoded, answer.relation().as_ref()),
                Err(_) => assert!(!readable),
            }
            let held = Answer::from(Arc::new(frames));
            assert_eq!(held.len(), answer.len(), "counted without decoding");
            let held = Response::Rows {
                answer: held,
                info: info.clone(),
            };
            assert_eq!(
                encode_response(&held).unwrap(),
                encode_response(&response).unwrap()
            );
        }
        let bytes = encode_answer(&tagged_relation()).unwrap();
        let rows_only = &bytes[bytes.len() - 20..];
        for broken in [&bytes[..bytes.len() - 1], &bytes[..2], rows_only] {
            assert!(decode_answer(broken).is_err());
        }
        assert!(decode_answer(&[]).is_err(), "no Schema frame");
    }

    /// Seeded mutations of the corpus's frames — bit flips, truncations,
    /// length-prefix edits, swapped source ids, invalid UTF-8 — pushed in
    /// random pieces through the [`FrameReader`] and into
    /// [`Frame::decode`]: nothing panics, and whatever still decodes
    /// re-encodes to exactly the payload it came from.
    #[test]
    fn mutated_frames_never_panic_and_decode_canonically() {
        use crate::codec::FrameReader;
        let mut frames: Vec<Vec<u8>> = identity_corpus()
            .iter()
            .flat_map(response_frames)
            .map(|f| f.encode())
            .collect();
        frames.extend(
            [
                Frame::Hello { version: 2 },
                request_frame(&Request::sql(format!("SELECT '{MULTIBYTE}'"))),
                Frame::StatsRequest,
                Frame::Stats {
                    text: MULTIBYTE.into(),
                },
            ]
            .iter()
            .map(Frame::encode),
        );
        // Byte patterns the targeted mutations look for.
        let encoded_sets: Vec<Vec<u8>> = corpus_sets()
            .iter()
            .filter(|set| set.len() == 4)
            .map(|set| {
                let mut w = ByteWriter::new();
                w.put_source_set(set);
                w.into_bytes()
            })
            .collect();
        let find = |hay: &[u8], needle: &[u8]| -> Vec<usize> {
            hay.windows(needle.len())
                .enumerate()
                .filter(|(_, w)| *w == needle)
                .map(|(i, _)| i)
                .collect()
        };
        let check_payload = |payload: &[u8], case: u64| {
            if let Ok(frame) = Frame::decode(payload) {
                assert!(
                    frame.encode()[4..] == *payload,
                    "case {case}: a tag-{} frame decoded from a payload it does not re-encode to",
                    frame.tag()
                );
            }
        };
        let mut decoded = 0;
        for case in 0..2_000u64 {
            let mut rng = Rng(case);
            let mut bytes = frames[rng.below(frames.len())].clone();
            let flip = |bytes: &mut Vec<u8>, rng: &mut Rng| {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            };
            match case % 5 {
                0 => {
                    for _ in 0..1 + rng.below(3) {
                        flip(&mut bytes, &mut rng);
                    }
                }
                1 => bytes.truncate(rng.below(bytes.len())),
                2 => {
                    let len = (bytes.len() - 4) as u32;
                    let prefix = [
                        0,
                        len - 1,
                        len + 1,
                        len.wrapping_mul(3),
                        MAX_FRAME_LEN + 1,
                        u32::MAX,
                        rng.next() as u32,
                    ][rng.below(7)];
                    bytes[..4].copy_from_slice(&prefix.to_le_bytes());
                    bytes.extend((0..rng.below(16)).map(|_| rng.next() as u8));
                }
                3 => {
                    let hits: Vec<usize> = encoded_sets
                        .iter()
                        .flat_map(|set| find(&bytes, set))
                        .collect();
                    if hits.is_empty() {
                        flip(&mut bytes, &mut rng);
                    } else {
                        // Swap two of the four ids (each after the u16 count).
                        let at = hits[rng.below(hits.len())] + 2;
                        let (i, j) = (rng.below(4), rng.below(4));
                        for b in 0..2 {
                            bytes.swap(at + 2 * i + b, at + 2 * j + b);
                        }
                    }
                }
                _ => {
                    let hits = find(&bytes, MULTIBYTE.as_bytes());
                    if hits.is_empty() {
                        flip(&mut bytes, &mut rng);
                    } else {
                        let at = hits[rng.below(hits.len())] + rng.below(MULTIBYTE.len());
                        bytes[at] = [0xff, 0xc3, 0x80, 0xed][rng.below(4)];
                    }
                }
            }
            // The payload on its own, whatever its prefix says; then with
            // a clean frame after it, as on a live stream.
            check_payload(&bytes[4.min(bytes.len())..], case);
            bytes.extend_from_slice(&frames[rng.below(frames.len())]);
            let mut reader = FrameReader::new();
            let mut fed = 0;
            'feed: while fed < bytes.len() {
                let piece = (1 + rng.below(4096)).min(bytes.len() - fed);
                reader.push(&bytes[fed..fed + piece]);
                fed += piece;
                loop {
                    match reader.next_frame() {
                        Ok(Some(payload)) => {
                            check_payload(payload, case);
                            decoded += 1;
                        }
                        Ok(None) => break,
                        Err(_) => break 'feed,
                    }
                }
            }
        }
        assert!(
            decoded > 1_000,
            "only {decoded} frames came out of the reader"
        );
    }

    #[test]
    fn query_frames_carry_requests_both_ways() {
        let variants = [
            Request::app("SELECT * FROM V").with_explain(true),
            Request::sql("SELECT A FROM R").with_explain_mode(ExplainOptions::Analyze),
            Request::algebra("R [A = 1]").with_trace(true),
        ];
        for req in variants {
            let frame = request_frame(&req);
            let back = request_from_frame(&frame).unwrap();
            assert_eq!(back, req);
        }
        assert_eq!(request_from_frame(&Frame::Empty), None);
        // An out-of-range explain tag is corrupt, not silently Off.
        let mut w = crate::codec::ByteWriter::new();
        w.put_u8(1); // Query tag
        w.put_u8(0); // Lang::Sql
        w.put_u8(9); // bogus explain mode
        w.put_bool(false);
        w.put_str("SELECT A FROM R");
        assert!(matches!(
            Frame::decode(&w.into_bytes()),
            Err(CodecError::Corrupt(_))
        ));
    }
}
