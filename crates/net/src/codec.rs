//! Deterministic byte-level encoding for the wire protocol.
//!
//! Every frame travels as `[u32 LE payload length][payload]`, where the
//! payload is `[u8 frame tag][frame body]`. All integers are
//! little-endian; strings are `u32 length + UTF-8 bytes`; a
//! [`SourceSet`] is `u16 count + ascending u16 source ids` (the set
//! iterates ascending, so identical sets — however they were built —
//! encode to identical bytes). That determinism is load-bearing: the
//! differential suite compares *encoded frames* across transports, so
//! any two equal answers must serialize identically.
//!
//! [`FrameReader`] reassembles frames from bytes pushed in pieces of any
//! size without ever losing frame sync — a push that ends mid-frame just
//! leaves the prefix buffered for the next one.

use polygen_core::cell::Cell;
use polygen_core::source::{SourceId, SourceSet};
use polygen_core::tuple::PolyTuple;
use polygen_flat::value::{Value, F64};
use std::fmt;
use std::io::{ErrorKind, Read};
use std::sync::Arc;

/// Upper bound on a single frame's payload — a corrupted or hostile
/// length prefix must not provoke a giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure it promised.
    Truncated,
    /// A tag, length, or invariant was out of range.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume into the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats travel as raw IEEE-754 bits — bit-for-bit, not lossily
    /// formatted, so a decoded float re-encodes to the same bytes.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string exceeds u32::MAX bytes"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(F64(f)) => {
                self.put_u8(3);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
        }
    }

    /// `u16 count + ascending u16 ids` — [`SourceSet::iter`] yields
    /// ascending order, making the encoding canonical.
    pub fn put_source_set(&mut self, set: &SourceSet) {
        self.put_u16(u16::try_from(set.len()).expect("more than u16::MAX sources"));
        for id in set.iter() {
            self.put_u16(id.0);
        }
    }

    pub fn put_cell(&mut self, cell: &Cell) {
        self.put_value(&cell.datum);
        self.put_source_set(&cell.origin);
        self.put_source_set(&cell.intermediate);
    }

    pub fn put_tuple(&mut self, tuple: &PolyTuple) {
        self.put_u32(u32::try_from(tuple.len()).expect("tuple degree exceeds u32::MAX"));
        for cell in tuple {
            self.put_cell(cell);
        }
    }
}

/// Cursor-style decoder over a byte slice. Every read checks bounds and
/// reports [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoders must consume their frame exactly; trailing garbage means
    /// the encoder and decoder disagree about the format.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!(
                "{} trailing bytes after frame body",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Corrupt(format!("bool byte {other}"))),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Corrupt("string is not UTF-8".into()))
    }

    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.get_bool()?)),
            2 => Ok(Value::Int(self.get_i64()?)),
            3 => Ok(Value::Float(F64(self.get_f64()?))),
            4 => Ok(Value::Str(Arc::from(self.get_str()?.as_str()))),
            tag => Err(CodecError::Corrupt(format!("value tag {tag}"))),
        }
    }

    pub fn get_source_set(&mut self) -> Result<SourceSet, CodecError> {
        let count = self.get_u16()?;
        let mut prev: Option<u16> = None;
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = self.get_u16()?;
            // Enforce the canonical (ascending, duplicate-free) form so
            // decode∘encode is the identity on bytes.
            if prev.is_some_and(|p| p >= id) {
                return Err(CodecError::Corrupt("source ids not ascending".into()));
            }
            prev = Some(id);
            ids.push(SourceId(id));
        }
        Ok(SourceSet::from_ids(ids))
    }

    pub fn get_cell(&mut self) -> Result<Cell, CodecError> {
        Ok(Cell {
            datum: self.get_value()?,
            origin: self.get_source_set()?,
            intermediate: self.get_source_set()?,
        })
    }

    pub fn get_tuple(&mut self) -> Result<PolyTuple, CodecError> {
        let degree = self.get_u32()? as usize;
        if degree > self.remaining() {
            // A cell is at least one byte; an impossible count is
            // corruption, not a reason to reserve gigabytes.
            return Err(CodecError::Truncated);
        }
        (0..degree).map(|_| self.get_cell()).collect()
    }
}

/// What one [`FrameReader::poll`] of a blocking stream produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FramePoll {
    /// A complete frame payload (`tag + body`, length prefix stripped).
    Payload(Vec<u8>),
    /// The read timed out (or would block) before a full frame arrived;
    /// any partial bytes stay buffered for the next poll.
    Idle,
    /// The peer closed the connection cleanly (no partial frame).
    Closed,
}

/// Incremental frame extractor: bytes go in with [`FrameReader::push`]
/// split anywhere, whole frames come out of [`FrameReader::next_frame`].
/// [`FrameReader::poll`] wraps the two for a blocking [`Read`].
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// How much of `buf` earlier frames have consumed.
    start: usize,
}

impl FrameReader {
    /// A reader with nothing buffered.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Append bytes off the wire, first dropping what earlier frames
    /// consumed.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pop one complete frame payload (`tag + body`), if one is buffered.
    /// A zero or oversized length prefix is [`CodecError::Corrupt`] —
    /// checked before anything waits on it, so it never sizes a buffer.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let buffered = &self.buf[self.start..];
        let Some(prefix) = buffered.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("four prefix bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(CodecError::Corrupt(format!("frame length {len}")));
        }
        let total = 4 + len as usize;
        if buffered.len() < total {
            return Ok(None);
        }
        let payload = self.start + 4;
        self.start += total;
        Ok(Some(&self.buf[payload..self.start]))
    }

    /// Pull bytes from a blocking `stream` until a full frame, a
    /// timeout, or EOF.
    ///
    /// Errors: those of [`FrameReader::next_frame`], plus
    /// [`CodecError::Truncated`] for EOF mid-frame. I/O errors other
    /// than timeout/would-block surface as `Corrupt` with the message —
    /// the connection is unusable either way.
    pub fn poll<R: Read>(&mut self, stream: &mut R) -> Result<FramePoll, CodecError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.next_frame()? {
                return Ok(FramePoll::Payload(payload.to_vec()));
            }
            match stream.read(&mut scratch) {
                Ok(0) if self.start == self.buf.len() => return Ok(FramePoll::Closed),
                Ok(0) => return Err(CodecError::Truncated),
                Ok(n) => self.push(&scratch[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(FramePoll::Idle);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(CodecError::Corrupt(format!("read failed: {e}"))),
            }
        }
    }
}

/// Wrap a frame payload (`tag + body`) in its length prefix.
pub fn prefix_frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame exceeds u32::MAX");
    assert!(len > 0 && len <= MAX_FRAME_LEN, "frame length {len}");
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(payload);
    wire
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FrameReader {
        /// Bytes held, counting frames returned since the last push: the
        /// reader's footprint.
        pub(crate) fn held(&self) -> usize {
            self.buf.len()
        }
    }

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
        let payload = b"\x07hello frame".to_vec();
        let wire = prefix_frame(&payload);
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
        let payload = b"\x03interrupt me".to_vec();
        let wire = prefix_frame(&payload);
        let mut stuttering = Interruptible {
            bytes: wire.clone().into(),
            interrupt_next: true,
        };
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut stuttering).unwrap(),
            FramePoll::Payload(payload.clone())
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
        assert_eq!(reader.poll(&mut rest).unwrap(), FramePoll::Payload(payload));
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
        let a = prefix_frame(b"\x01aa");
        let b = prefix_frame(b"\x02bbb");
        let mut reader = FrameReader::new();
        reader.push(&[a, b].concat());
        assert_eq!(reader.next_frame().unwrap(), Some(&b"\x01aa"[..]));
        assert_eq!(reader.next_frame().unwrap(), Some(&b"\x02bbb"[..]));
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
