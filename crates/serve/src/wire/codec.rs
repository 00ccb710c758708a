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
//! The writer works in proportion to the bytes it writes: a frame is
//! written straight into the caller's buffer behind a reserved length
//! prefix that is patched once the payload is known, and a source set
//! costs its members, not its width (the set walks only its set bits).
//! The reader does likewise, in one checked pass: a fixed-width field is
//! one bounds-checked array read, a source set's ids are bounds-checked
//! as one slice and assembled in place, a string cell is one allocation
//! built from the validated input slice, and a tuple or a `Rows` batch
//! fills a vector of exactly its count once the count is checked against
//! the bytes left. Within a `Rows` batch, a string or a source set whose
//! bytes repeat those of the cell above it (same column, tuple before)
//! is a clone of that cell's, which the same bytes already decoded to:
//! an answer's column carries a handful of distinct tag sets.
//!
//! [`FrameReader`] reassembles frames from bytes pushed in pieces of any
//! size without ever losing frame sync — a push that ends mid-frame just
//! leaves the prefix buffered for the next one. Its blocking
//! [`FrameReader::poll`] reads into the same buffer and lends each frame
//! out of it, so a client decodes a payload where it landed.

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

    /// Open a frame: reserve its 4-byte length prefix and return where
    /// it starts, for [`ByteWriter::end_frame`].
    pub(crate) fn begin_frame(&mut self) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        start
    }

    /// Close the frame opened at `start` by patching its length prefix.
    /// A payload over [`MAX_FRAME_LEN`] is [`CodecError::Corrupt`]: the
    /// frame is taken back out, so the writer holds only whole frames.
    pub(crate) fn end_frame(&mut self, start: usize) -> Result<(), CodecError> {
        let len = self.buf.len() - start - 4;
        match u32::try_from(len) {
            Ok(len) if len <= MAX_FRAME_LEN => {
                self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
                Ok(())
            }
            _ => {
                self.buf.truncate(start);
                Err(CodecError::Corrupt(format!(
                    "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
                )))
            }
        }
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

    /// `u32 count + tuples` — the body of a `Rows` frame, whether the
    /// tuples are a frame's own or borrowed from a shared answer.
    pub(crate) fn put_rows(&mut self, tuples: &[PolyTuple]) {
        self.put_u32(u32::try_from(tuples.len()).expect("batch exceeds u32::MAX"));
        for tuple in tuples {
            self.put_tuple(tuple);
        }
    }
}

/// Source ids below this sit in a `SourceSet`'s two inline words; a set
/// holding one at or past it lives on the heap, in `id / 64 + 1` words.
const INLINE_IDS: u16 = 128;

/// Heap words the source sets of one decoded buffer may spill, per byte
/// of the buffer. A spilled set costs at least 4 bytes on the wire (its
/// count and one id), and over ≤ 256 sources it spills at most
/// `255 / 64 + 1 = 4` words, so one word per byte decodes every such
/// answer. An id of 65 535 asks for 1 024 words (8 KiB) from 4 bytes.
/// This is the decoder's limit on federation width: a buffer dense in
/// ids ≥ 256 (a federation of more sources) decodes only while its
/// bytes pay for the words its sets spill, and is refused past that.
const SPILL_WORDS_PER_BYTE: usize = 1;

/// The fewest bytes a cell takes on the wire: a `Null` tag and two empty
/// source sets.
const MIN_CELL_BYTES: usize = 5;

/// The fewest bytes a tuple takes on the wire: its `u32` degree.
const MIN_TUPLE_BYTES: usize = 4;

/// Cursor-style decoder over a byte slice. Every read checks bounds and
/// reports [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// Heap words the source sets still to decode may spill.
    spill: usize,
}

impl<'a> ByteReader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            rest: buf,
            spill: buf.len() * SPILL_WORDS_PER_BYTE,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
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

    /// The next `N` bytes as an array: one bounds check per fixed-width
    /// field.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next `n` bytes, borrowed from the input.
    #[inline]
    fn take_slice(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take()?;
        Ok(b)
    }

    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Corrupt(format!("bool byte {other}"))),
        }
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        self.take().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.take().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        self.take().map(i64::from_le_bytes)
    }

    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        self.get_u64().map(f64::from_bits)
    }

    /// A length-prefixed string, validated in place: the caller copies
    /// it once, into whatever owner it needs.
    #[inline]
    fn get_utf8(&mut self) -> Result<&'a str, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take_slice(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Corrupt("string is not UTF-8".into()))
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        self.get_utf8().map(String::from)
    }

    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        self.value_after(&mut None, None)
    }

    /// `u16 count + ascending u16 ids`.
    pub fn get_source_set(&mut self) -> Result<SourceSet, CodecError> {
        self.set_after(&mut None, None)
    }

    pub fn get_cell(&mut self) -> Result<Cell, CodecError> {
        Ok(Cell {
            datum: self.get_value()?,
            origin: self.get_source_set()?,
            intermediate: self.get_source_set()?,
        })
    }

    pub fn get_tuple(&mut self) -> Result<PolyTuple, CodecError> {
        self.tuple_after(None, &mut Vec::new())
    }

    /// The body of a `Rows` frame: the inverse of [`ByteWriter::put_rows`],
    /// into a vector of exactly its count. A count the bytes left cannot
    /// hold is [`CodecError::Truncated`] before anything is reserved, so
    /// the reservation never outgrows what the input could decode to.
    pub(crate) fn get_rows(&mut self) -> Result<Vec<PolyTuple>, CodecError> {
        let count = self.get_u32()? as usize;
        if count > self.remaining() / MIN_TUPLE_BYTES {
            return Err(CodecError::Truncated);
        }
        let mut above = Vec::new();
        let mut tuples: Vec<PolyTuple> = Vec::with_capacity(count);
        for _ in 0..count {
            let tuple = self.tuple_after(tuples.last(), &mut above)?;
            tuples.push(tuple);
        }
        Ok(tuples)
    }

    /// A tuple, into a vector of exactly its degree (checked like
    /// [`ByteReader::get_rows`]' count). `prev` is the tuple decoded just
    /// before it and `above` its bytes per column (see [`Above`]): a
    /// string or a source set whose bytes repeat the ones above it is a
    /// clone of the cell above's, which those bytes decoded to.
    fn tuple_after(
        &mut self,
        prev: Option<&PolyTuple>,
        above: &mut Vec<Above<'a>>,
    ) -> Result<PolyTuple, CodecError> {
        let degree = self.get_u32()? as usize;
        if degree > self.remaining() / MIN_CELL_BYTES {
            return Err(CodecError::Truncated);
        }
        above.resize(degree, [None; 3]);
        let mut tuple = Vec::with_capacity(degree);
        for (c, [datum, origin, intermediate]) in above.iter_mut().enumerate() {
            let up = prev.and_then(|p| p.get(c));
            let datum = self.value_after(datum, up.map(|u| &u.datum))?;
            let origin = self.set_after(origin, up.map(|u| &u.origin))?;
            let intermediate = self.set_after(intermediate, up.map(|u| &u.intermediate))?;
            tuple.push(Cell {
                datum,
                origin,
                intermediate,
            });
        }
        Ok(tuple)
    }

    /// A value. A string whose bytes are `seen`'s is a clone of `up`;
    /// `seen` ends holding this string's bytes, or `None`.
    #[inline(always)]
    fn value_after(
        &mut self,
        seen: &mut Option<&'a [u8]>,
        up: Option<&Value>,
    ) -> Result<Value, CodecError> {
        let value = match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.get_bool()?),
            2 => Value::Int(self.get_i64()?),
            3 => Value::Float(F64(self.get_f64()?)),
            4 => {
                let len = self.get_u32()? as usize;
                let bytes = self.take_slice(len)?;
                if let (Some(above), Some(up)) = (*seen, up) {
                    if same(above, bytes) {
                        return Ok(up.clone());
                    }
                }
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| CodecError::Corrupt("string is not UTF-8".into()))?;
                *seen = Some(bytes);
                return Ok(Value::Str(Arc::from(text)));
            }
            tag => return Err(CodecError::Corrupt(format!("value tag {tag}"))),
        };
        *seen = None;
        Ok(value)
    }

    /// A source set. One whose id bytes are `seen`'s is a clone of `up`;
    /// `seen` ends holding this set's id bytes, or `None` for a set that
    /// spilled, whose words a clone would not charge.
    #[inline(always)]
    fn set_after(
        &mut self,
        seen: &mut Option<&'a [u8]>,
        up: Option<&SourceSet>,
    ) -> Result<SourceSet, CodecError> {
        let count = usize::from(self.get_u16()?);
        let ids = self.take_slice(2 * count)?;
        if let (Some(above), Some(up)) = (*seen, up) {
            if same(above, ids) {
                return Ok(up.clone());
            }
        }
        let mut prev: Option<u16> = None;
        let mut set = SourceSet::empty();
        // Heap words this set holds so far.
        let mut spilled = 0;
        for pair in ids.chunks_exact(2) {
            let id = u16::from_le_bytes([pair[0], pair[1]]);
            // Enforce the canonical (ascending, duplicate-free) form so
            // decode∘encode is the identity on bytes.
            if prev.is_some_and(|p| p >= id) {
                return Err(CodecError::Corrupt("source ids not ascending".into()));
            }
            prev = Some(id);
            if id >= INLINE_IDS {
                // The spill branch: charge the words the set grows to
                // before it grows. A buffer whose sets spill past its
                // bound is hostile, not an answer.
                let words = usize::from(id) / 64 + 1;
                let Some(left) = self.spill.checked_sub(words - spilled) else {
                    return Err(spills_past_bound(id));
                };
                self.spill = left;
                spilled = words;
            }
            set.insert(SourceId(id));
        }
        *seen = (spilled == 0).then_some(ids);
        Ok(set)
    }
}

/// The error for a source set whose id `id` spills past the frame's
/// bound: out of line, so the decode loop stays small.
#[cold]
#[inline(never)]
fn spills_past_bound(id: u16) -> CodecError {
    CodecError::Corrupt(format!(
        "source set with id {id} spills past the frame's bound of one heap word per byte \
         (ids below 256 always fit)"
    ))
}

/// What the tuple before left in one column, for
/// [`ByteReader::get_rows`]: the bytes its string datum, its origin ids
/// and its intermediate ids were decoded from (`None` for a datum that
/// is no string and a set that spilled). An answer's column carries a
/// handful of distinct tag sets, and often a repeated string, so most
/// cells repeat some of the bytes above them.
type Above<'a> = [Option<&'a [u8]>; 3];

/// Byte equality of two short slices, compared in line: `==` calls
/// `memcmp`, which costs more than a few bytes do.
#[inline(always)]
fn same(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// What one [`FrameReader::poll`] of a blocking stream produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FramePoll<'a> {
    /// A complete frame payload (`tag + body`, length prefix stripped),
    /// borrowed from the reader's buffer until the next read.
    Payload(&'a [u8]),
    /// The read timed out (or would block) before a full frame arrived;
    /// any partial bytes stay buffered for the next poll.
    Idle,
    /// The peer closed the connection cleanly (no partial frame).
    Closed,
}

/// Bytes one [`FrameReader::poll`] asks its stream for at a time.
const POLL_CHUNK: usize = 16 * 1024;

/// Incremental frame extractor: bytes go in with [`FrameReader::push`]
/// split anywhere, whole frames come out of [`FrameReader::next_frame`].
/// [`FrameReader::poll`] reads a blocking [`Read`] straight into the
/// same buffer and hands its frames out in place.
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

    /// Bytes held, counting frames returned since the last push: the
    /// reader's footprint.
    pub fn held(&self) -> usize {
        self.buf.len()
    }

    /// Drop what earlier frames consumed.
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
    }

    /// Append bytes off the wire, first dropping what earlier frames
    /// consumed.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Pop one complete frame payload (`tag + body`), if one is buffered.
    /// A zero or oversized length prefix is [`CodecError::Corrupt`] —
    /// checked before anything waits on it, so it never sizes a buffer.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        Ok(self.next_payload()?.map(|payload| &self.buf[payload]))
    }

    /// [`FrameReader::next_frame`], as the payload's place in `buf`.
    fn next_payload(&mut self) -> Result<Option<std::ops::Range<usize>>, CodecError> {
        let buffered = &self.buf[self.start..];
        let Some(prefix) = buffered.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(CodecError::Corrupt(format!("frame length {len}")));
        }
        let total = 4 + len as usize;
        if buffered.len() < total {
            return Ok(None);
        }
        let payload = self.start + 4;
        self.start += total;
        Ok(Some(payload..self.start))
    }

    /// Pull bytes from a blocking `stream` until a full frame, a
    /// timeout, or EOF. The stream reads into the reader's own buffer,
    /// at most 16 KiB at a time, and a frame comes back
    /// borrowed from it: no copy between the socket and the decoder.
    ///
    /// Errors: those of [`FrameReader::next_frame`], plus
    /// [`CodecError::Truncated`] for EOF mid-frame. I/O errors other
    /// than timeout/would-block surface as `Corrupt` with the message —
    /// the connection is unusable either way.
    pub fn poll<R: Read>(&mut self, stream: &mut R) -> Result<FramePoll<'_>, CodecError> {
        loop {
            if let Some(payload) = self.next_payload()? {
                return Ok(FramePoll::Payload(&self.buf[payload]));
            }
            self.compact();
            let held = self.buf.len();
            self.buf.resize(held + POLL_CHUNK, 0);
            let read = stream.read(&mut self.buf[held..]);
            self.buf.truncate(held + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) if held == 0 => return Ok(FramePoll::Closed),
                Ok(0) => return Err(CodecError::Truncated),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(FramePoll::Idle);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(CodecError::Corrupt(format!("read failed: {e}"))),
            }
        }
    }
}
