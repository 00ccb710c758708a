//! The transport's own error codes, and the frame vocabulary at the
//! paths the ledger imports it from. Frames and their mapping onto the
//! serve envelope live in [`polygen_serve::wire`]; the tests below pin
//! them as this transport speaks them: every frame kind round-trips,
//! answers batch and reassemble, and hostile bytes decode to errors.
//!
//! A transport-coded `Error` frame (code < 100) is followed by the
//! server closing the connection — the stream can no longer be trusted
//! to be in sync.

pub use polygen_serve::wire::{
    deterministic_bytes, request_frame, request_from_frame, response_frames, response_from_frames,
    Frame,
};

/// Transport-reserved error code: a frame failed to decode or violated
/// the protocol state machine. The server closes the connection after
/// sending it. Code 2 is unassigned: a client refuses a mismatched
/// `Hello` on its own side, so no server sends a version error.
pub const WIRE_MALFORMED: u16 = 1;

/// Transport-reserved error code: the server received a frame other
/// than `Query` where a query was expected.
pub const WIRE_UNEXPECTED_FRAME: u16 = 3;

/// Transport-reserved error code: the peer stopped draining its
/// responses and the server's outbound buffer for the connection hit
/// its cap. The server closes the connection after (best-effort)
/// sending it — a slow reader costs one socket, never a server thread.
pub const WIRE_BACKPRESSURE: u16 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::tests::Rng;
    use polygen_core::cell::Cell;
    use polygen_core::relation::PolygenRelation;
    use polygen_core::source::{SourceId, SourceSet};
    use polygen_core::tuple::PolyTuple;
    use polygen_flat::schema::Schema;
    use polygen_flat::value::Value;
    use polygen_serve::request::{
        Answer, ErrorCode, ExplainOptions, Lang, Request, Response, ResponseInfo,
    };
    use polygen_serve::wire::codec::{ByteWriter, CodecError, MAX_FRAME_LEN};
    use polygen_serve::wire::{encode_response, AnswerFrames, PROTOCOL_VERSION, ROW_BATCH};
    use std::sync::Arc;

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

    /// A rows answer held as its [`AnswerFrames`] is written as the same
    /// bytes its relation is, and decodes back to that relation whenever
    /// a client could.
    #[test]
    fn cached_frames_encode_and_decode_as_their_relation() {
        for response in identity_corpus() {
            let Response::Rows { answer, info } = &response else {
                continue;
            };
            let frames = AnswerFrames::encode(answer).unwrap();
            // What a client can read back, the cache reads back; sets
            // past the decoder's spill bound are refused by both.
            let readable = response_frames(&response)
                .iter()
                .all(|f| Frame::decode(&f.encode()[4..]).is_ok());
            match frames.decode() {
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
    }

    /// Seeded mutations of the corpus's frames — bit flips, truncations,
    /// length-prefix edits, swapped source ids, invalid UTF-8 — pushed in
    /// random pieces through the [`FrameReader`] and into
    /// [`Frame::decode`]: nothing panics, and whatever still decodes
    /// re-encodes to exactly the payload it came from.
    #[test]
    fn mutated_frames_never_panic_and_decode_canonically() {
        use polygen_serve::wire::codec::FrameReader;
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
        let mut w = ByteWriter::new();
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
