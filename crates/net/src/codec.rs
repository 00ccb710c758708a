//! The codec's writer, at the path the ledger imports it from. The
//! deterministic encoding lives in [`polygen_serve::wire::codec`]; the
//! tests below pin it as this transport speaks it: primitives, canonical
//! source sets, and frame reassembly from bytes that arrive in pieces.

pub use polygen_serve::wire::codec::ByteWriter;

#[cfg(test)]
mod tests {
    use polygen_core::cell::Cell;
    use polygen_core::source::{SourceId, SourceSet};
    use polygen_flat::value::Value;
    use polygen_serve::wire::codec::{
        ByteReader, ByteWriter, CodecError, FramePoll, FrameReader, MAX_FRAME_LEN,
    };
    use polygen_serve::wire::Frame;
    use std::io::{ErrorKind, Read};

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-5);
        w.put_f64(-0.25);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn cells_round_trip_with_canonical_source_sets() {
        let cell = Cell::new(
            Value::str("alpha"),
            SourceSet::from_ids([SourceId(9), SourceId(2), SourceId(2)]),
            SourceSet::singleton(SourceId(0)),
        );
        let mut w = ByteWriter::new();
        w.put_cell(&cell);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.get_cell().unwrap();
        assert_eq!(back, cell);
        r.expect_end().unwrap();
        // Re-encoding the decoded cell is byte-identical.
        let mut w2 = ByteWriter::new();
        w2.put_cell(&back);
        assert_eq!(w2.into_bytes(), bytes);
    }

    /// The canonical set bytes, pinned: `u16` count, then the ids
    /// ascending, across both inline words and into the heap spill.
    #[test]
    fn source_set_bytes_are_pinned() {
        let set = SourceSet::from_ids([128, 0, 127, 64, 63].map(SourceId));
        let mut w = ByteWriter::new();
        w.put_source_set(&set);
        let golden = [
            0x05, 0x00, // count
            0x00, 0x00, 0x3f, 0x00, 0x40, 0x00, 0x7f, 0x00, 0x80, 0x00,
        ];
        assert_eq!(w.into_bytes(), golden);
        let mut r = ByteReader::new(&golden);
        assert_eq!(r.get_source_set().unwrap(), set);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_corruption_are_errors_not_panics() {
        let mut w = ByteWriter::new();
        w.put_value(&Value::int(42));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(r.get_value(), Err(CodecError::Truncated), "cut at {cut}");
        }
        let mut r = ByteReader::new(&[200]);
        assert!(matches!(r.get_value(), Err(CodecError::Corrupt(_))));
        // Non-ascending source ids are rejected.
        let mut w = ByteWriter::new();
        w.put_u16(2);
        w.put_u16(5);
        w.put_u16(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_source_set(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn frame_reader_survives_byte_dribble() {
        let wire = Frame::Explain {
            plan: "hello frame".into(),
        }
        .encode();
        let payload = wire[4..].to_vec();
        let mut reader = FrameReader::new();
        // Push one byte at a time — sync must never be lost.
        for (i, b) in wire.iter().enumerate() {
            reader.push(&[*b]);
            let frame = reader.next_frame().unwrap().map(<[u8]>::to_vec);
            if i + 1 < wire.len() {
                assert_eq!(frame, None, "byte {i}");
            } else {
                assert_eq!(frame, Some(payload.clone()));
            }
        }
        assert_eq!(reader.next_frame().unwrap(), None, "the frame was consumed");
    }

    /// The `poll` wrapper over a blocking stream. `EINTR` is retryable,
    /// not a dropped connection: a stream that interleaves `Interrupted`
    /// errors between every byte must still deliver the frame (and a
    /// mid-frame interruption must not lose the buffered prefix). EOF
    /// is `Closed` on a frame boundary and truncation inside one.
    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let wire = Frame::Explain {
            plan: "interrupt me".into(),
        }
        .encode();
        let payload = wire[4..].to_vec();
        let mut stuttering = Interruptible {
            bytes: wire.clone().into(),
            interrupt_next: true,
        };
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut stuttering).unwrap(),
            FramePoll::Payload(&payload)
        );
        // Same stream split across two polls with an interruption and a
        // timeout in between: the prefix survives both.
        let mut reader = FrameReader::new();
        let mut first = Interruptible {
            bytes: wire[..5].to_vec().into(),
            interrupt_next: true,
        };
        assert_eq!(reader.poll(&mut first).unwrap(), FramePoll::Idle);
        let mut rest = Interruptible {
            bytes: wire[5..].to_vec().into(),
            interrupt_next: true,
        };
        assert_eq!(
            reader.poll(&mut rest).unwrap(),
            FramePoll::Payload(&payload)
        );
        // Clean EOF with an empty buffer; EOF mid-frame is truncation.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(reader.poll(&mut empty).unwrap(), FramePoll::Closed);
        let mut partial = std::io::Cursor::new(wire[..6].to_vec());
        let mut reader = FrameReader::new();
        assert_eq!(reader.poll(&mut partial), Err(CodecError::Truncated));
    }

    /// Yields `ErrorKind::Interrupted` before every byte, then times
    /// out once drained.
    struct Interruptible {
        bytes: std::collections::VecDeque<u8>,
        interrupt_next: bool,
    }

    impl Read for Interruptible {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::from(ErrorKind::Interrupted));
            }
            self.interrupt_next = true;
            match self.bytes.pop_front() {
                Some(b) => {
                    buf[0] = b;
                    Ok(1)
                }
                None => Err(std::io::Error::from(ErrorKind::WouldBlock)),
            }
        }
    }

    #[test]
    fn two_frames_in_one_read_both_extract() {
        let a = Frame::Explain { plan: "aa".into() }.encode();
        let b = Frame::Stats { text: "bbb".into() }.encode();
        let mut reader = FrameReader::new();
        reader.push(&[a.clone(), b.clone()].concat());
        assert_eq!(reader.next_frame().unwrap(), Some(&a[4..]));
        assert_eq!(reader.next_frame().unwrap(), Some(&b[4..]));
        assert_eq!(reader.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        for len in [0, MAX_FRAME_LEN + 1] {
            let mut reader = FrameReader::new();
            reader.push(&len.to_le_bytes());
            assert!(
                matches!(reader.next_frame(), Err(CodecError::Corrupt(_))),
                "length {len}"
            );
        }
    }
}
