//! The wire protocol: length-prefixed binary frames, hand-rolled with
//! the same no-dependencies discipline as `apram-model`'s `json.rs`.
//!
//! Every message is a **frame**: a 4-byte little-endian `u32` payload
//! length followed by that many payload bytes, at most [`MAX_FRAME`] of
//! them. This module is the only place that knows that layout.
//!
//! A connection speaks it through a [`FrameCodec`], which owns the
//! transport and both buffers. Frames to send are appended to a
//! reusable write buffer, prefix and payload together, and
//! [`FrameCodec::flush`] puts everything queued on the wire in **one**
//! `write` — on a `TCP_NODELAY` socket a prefix written on its own is
//! a segment of its own, and a wake-up of the peer for four bytes.
//! [`FrameCodec::recv`] hands out a payload as a slice of a fixed read
//! buffer of `MAX_FRAME + 4` bytes and calls `read` only when no whole
//! frame is buffered, so a frame that arrives whole costs one `read`
//! and no allocation, and frames a peer pipelines come out of the
//! `read` that brought them. A length prefix is checked against
//! [`MAX_FRAME`] as soon as its four bytes are in, before any of the
//! body is waited for. A read timeout leaves whatever has arrived in
//! the buffer and is reported as [`Recv::TimedOut`], at any byte offset
//! of a frame alike: the caller waits on or gives up.
//!
//! The free functions [`write_frame`] and [`read_frame`] frame a single
//! payload over a borrowed transport with the same helpers; having
//! nowhere to keep bytes read past the frame's end, `read_frame` reads
//! prefix and body apart.
//!
//! A **request** payload is exactly [`REQ_LEN`] bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     opcode   (OPC_UPDATE = 0, OPC_READ = 1)
//! 1       1     object   (index into the server's object table)
//! 2       2     reserved (must be zero)
//! 4       8     a        (u64 LE — first argument; key for keyed ops)
//! 12      8     b        (u64 LE — second argument; value for updates)
//! ```
//!
//! A **response** payload is a 4-byte header then `n` `u64` values:
//!
//! ```text
//! offset  size  field
//! 0       1     status (ST_OK = 0, ST_ERR = 1)
//! 1       1     kind   (ok: KIND_VAL/KIND_OPT/KIND_VIEW; err: error code)
//! 2       2     n      (u16 LE — number of u64 values following)
//! 4       8n    values (u64 LE each; optionals use the u64::MAX sentinel)
//! ```
//!
//! Argument meaning per object follows the [`apram_objects::spec`]
//! session conventions — the protocol carries `(opcode, a, b)` opaquely
//! and the object table gives them semantics.

use apram_objects::spec::OpOutput;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload length (64 KiB). Large enough for
/// a snapshot view of hundreds of slots, small enough that every
/// connection can afford a read buffer one whole frame fits in.
pub const MAX_FRAME: usize = 64 * 1024;

/// A request payload's exact length.
pub const REQ_LEN: usize = 20;

/// Protocol opcode: the object's update operation.
pub const OPC_UPDATE: u8 = 0;
/// Protocol opcode: the object's read operation.
pub const OPC_READ: u8 = 1;

/// Response status: success.
pub const ST_OK: u8 = 0;
/// Response status: error (the kind byte carries the error code).
pub const ST_ERR: u8 = 1;

/// Response kind: a single plain value.
pub const KIND_VAL: u8 = 0;
/// Response kind: a single optional value (`u64::MAX` = absent).
pub const KIND_OPT: u8 = 1;
/// Response kind: a snapshot view, one slot per process.
pub const KIND_VIEW: u8 = 2;

/// Error code: unknown opcode.
pub const ERR_BAD_OPCODE: u8 = 1;
/// Error code: object index outside the server's table.
pub const ERR_BAD_OBJECT: u8 = 2;
/// Error code: malformed request payload.
pub const ERR_BAD_REQUEST: u8 = 3;
/// Error code: server has no free connection slots.
pub const ERR_BUSY: u8 = 4;

/// Why a payload failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload length is not what the message type requires.
    Length(usize),
    /// Unknown opcode byte.
    Opcode(u8),
    /// Reserved bytes were not zero.
    Reserved,
    /// Response header's value count disagrees with the payload length.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Length(n) => write!(f, "bad payload length {n}"),
            DecodeError::Opcode(op) => write!(f, "unknown opcode {op}"),
            DecodeError::Reserved => write!(f, "reserved bytes not zero"),
            DecodeError::Truncated => write!(f, "value count exceeds payload"),
        }
    }
}

/// One decoded request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// [`OPC_UPDATE`] or [`OPC_READ`].
    pub opcode: u8,
    /// Object-table index.
    pub object: u8,
    /// First argument (key for keyed objects).
    pub a: u64,
    /// Second argument (value for keyed updates).
    pub b: u64,
}

impl Request {
    /// Serialize to the fixed request layout.
    pub fn encode(&self) -> [u8; REQ_LEN] {
        let mut buf = [0u8; REQ_LEN];
        buf[0] = self.opcode;
        buf[1] = self.object;
        buf[4..12].copy_from_slice(&self.a.to_le_bytes());
        buf[12..20].copy_from_slice(&self.b.to_le_bytes());
        buf
    }

    /// Parse and validate a request payload. The opcode is validated
    /// here — dispatch never sees an unknown code.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        if payload.len() != REQ_LEN {
            return Err(DecodeError::Length(payload.len()));
        }
        if payload[2] != 0 || payload[3] != 0 {
            return Err(DecodeError::Reserved);
        }
        let opcode = payload[0];
        if opcode != OPC_UPDATE && opcode != OPC_READ {
            return Err(DecodeError::Opcode(opcode));
        }
        Ok(Request {
            opcode,
            object: payload[1],
            a: u64::from_le_bytes(payload[4..12].try_into().unwrap()),
            b: u64::from_le_bytes(payload[12..20].try_into().unwrap()),
        })
    }
}

/// One decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// [`ST_OK`] or [`ST_ERR`].
    pub status: u8,
    /// Value kind on success; error code on failure.
    pub kind: u8,
    /// The values (empty on error).
    pub values: Vec<u64>,
}

impl Response {
    /// An error response carrying `code` in the kind byte.
    pub fn err(code: u8) -> Response {
        Response {
            status: ST_ERR,
            kind: code,
            values: Vec::new(),
        }
    }

    /// Encode an object session's output (the server side of the
    /// [`OpOutput`] ↦ wire mapping; optionals use the `u64::MAX`
    /// sentinel).
    pub fn from_output(out: &OpOutput) -> Response {
        let (kind, n) = output_shape(out);
        let mut values = Vec::with_capacity(n);
        output_values(out, |v| values.push(v));
        Response {
            status: ST_OK,
            kind,
            values,
        }
    }

    /// The client side of the mapping: a successful single-optional
    /// response as `Option<u64>` (`None` for the sentinel).
    pub fn as_opt(&self) -> Option<u64> {
        self.values.first().copied().filter(|&v| v != u64::MAX)
    }

    /// Serialize to the response layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + 8 * self.values.len());
        put_header(&mut buf, self.status, self.kind, self.values.len());
        for v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Parse and validate a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        if payload.len() < 4 {
            return Err(DecodeError::Length(payload.len()));
        }
        let n = u16::from_le_bytes(payload[2..4].try_into().unwrap()) as usize;
        if payload.len() != 4 + 8 * n {
            return Err(DecodeError::Truncated);
        }
        let values = (0..n)
            .map(|i| u64::from_le_bytes(payload[4 + 8 * i..12 + 8 * i].try_into().unwrap()))
            .collect();
        Ok(Response {
            status: payload[0],
            kind: payload[1],
            values,
        })
    }
}

/// An output's kind byte and value count.
fn output_shape(out: &OpOutput) -> (u8, usize) {
    match out {
        OpOutput::Val(_) => (KIND_VAL, 1),
        OpOutput::Opt(_) => (KIND_OPT, 1),
        OpOutput::View(view) => (KIND_VIEW, view.len()),
    }
}

/// An output's values in wire form (`u64::MAX` for an absent optional),
/// fed to `put` in order.
fn output_values(out: &OpOutput, mut put: impl FnMut(u64)) {
    match out {
        OpOutput::Val(v) => put(*v),
        OpOutput::Opt(v) => put(v.unwrap_or(u64::MAX)),
        OpOutput::View(view) => view.iter().for_each(|s| put(s.unwrap_or(u64::MAX))),
    }
}

/// A response payload's header: status, kind, value count.
fn put_header(buf: &mut Vec<u8>, status: u8, kind: u8, n: usize) {
    debug_assert!(n <= u16::MAX as usize);
    buf.extend_from_slice(&[status, kind]);
    buf.extend_from_slice(&(n as u16).to_le_bytes());
}

/// Append the success response for `out` to `buf`: the bytes of
/// `Response::from_output(out).encode()`, with no `Response` and no
/// second buffer in between.
pub(crate) fn encode_output(out: &OpOutput, buf: &mut Vec<u8>) {
    let (kind, n) = output_shape(out);
    put_header(buf, ST_OK, kind, n);
    output_values(out, |v| buf.extend_from_slice(&v.to_le_bytes()));
}

/// Append the error response carrying `code` to `buf`: the bytes of
/// `Response::err(code).encode()`.
pub(crate) fn encode_err(code: u8, buf: &mut Vec<u8>) {
    put_header(buf, ST_ERR, code, 0);
}

/// What the first bytes of a stream hold.
enum Parsed {
    /// Less than one whole frame.
    Partial,
    /// A whole frame with a payload of this length.
    Frame(usize),
    /// A length prefix above [`MAX_FRAME`].
    Oversized(usize),
}

/// The payload length a prefix announces; `Err` with it when it is
/// above [`MAX_FRAME`].
fn frame_len(prefix: [u8; 4]) -> Result<usize, usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        Err(len)
    } else {
        Ok(len)
    }
}

/// Parse the frame at the head of `bytes`; the length is judged as soon
/// as the prefix is whole, however little of the body has come.
fn parse_frame(bytes: &[u8]) -> Parsed {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Parsed::Partial;
    };
    match frame_len(*prefix) {
        Err(len) => Parsed::Oversized(len),
        Ok(len) if bytes.len() - 4 < len => Parsed::Partial,
        Ok(len) => Parsed::Frame(len),
    }
}

/// The error for a length prefix above [`MAX_FRAME`].
pub(crate) fn oversized(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
    )
}

/// Append one frame to `buf`: a length prefix, then the payload `fill`
/// appends. A payload above [`MAX_FRAME`] is taken back out and refused.
fn push_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    fill(buf);
    let len = buf.len() - at - 4;
    if len > MAX_FRAME {
        buf.truncate(at);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// What [`FrameCodec::recv`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv<'a> {
    /// The next frame's payload, borrowed from the read buffer.
    Frame(&'a [u8]),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The transport's read timed out (`WouldBlock` or `TimedOut`)
    /// before a whole frame was in. What did arrive stays buffered:
    /// call again to keep waiting for the rest.
    TimedOut,
    /// The next length prefix exceeds [`MAX_FRAME`] (it says this
    /// many bytes). Nothing is consumed and the stream cannot be
    /// resynchronised; [`FrameCodec::buffered`] still starts with the
    /// offending bytes.
    Oversized(usize),
}

/// One connection's framing state: the transport, a fixed read buffer
/// and a reusable write buffer (see the module docs).
pub struct FrameCodec<T> {
    io: T,
    /// `MAX_FRAME + 4` bytes, so that one whole frame always fits;
    /// `rbuf[start..end]` is received and not yet handed out.
    rbuf: Box<[u8]>,
    start: usize,
    end: usize,
    /// Whole frames queued since the last flush.
    wbuf: Vec<u8>,
}

impl<T: Read + Write> FrameCodec<T> {
    /// Wrap a transport; both buffers start empty.
    pub fn new(io: T) -> Self {
        FrameCodec {
            io,
            rbuf: vec![0; MAX_FRAME + 4].into_boxed_slice(),
            start: 0,
            end: 0,
            wbuf: Vec::new(),
        }
    }

    /// The transport, for what is not frames (the server's HTTP scrape).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.io
    }

    /// The bytes received and not yet handed out as frames.
    pub fn buffered(&self) -> &[u8] {
        &self.rbuf[self.start..self.end]
    }

    /// Whether a whole frame is buffered, so that the next
    /// [`recv`](Self::recv) will not touch the transport.
    pub fn has_frame(&self) -> bool {
        matches!(parse_frame(self.buffered()), Parsed::Frame(_))
    }

    /// Queue one frame whose payload `fill` appends. Nothing is written
    /// until [`flush`](Self::flush), except that a write buffer already
    /// holding [`MAX_FRAME`] bytes is flushed first, so a peer that
    /// pipelines without end cannot grow it without bound.
    pub fn queue(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if self.wbuf.len() >= MAX_FRAME {
            self.flush()?;
        }
        push_frame(&mut self.wbuf, fill)
    }

    /// Put every queued frame on the wire in one `write` (more only if
    /// the transport takes less than it is offered).
    pub fn flush(&mut self) -> io::Result<()> {
        let written = self.io.write_all(&self.wbuf);
        self.wbuf.clear();
        written?;
        self.io.flush()
    }

    /// The next frame. Calls `read` only when no whole frame is
    /// buffered, and then once per call unless a frame arrives in
    /// pieces. EOF inside a frame is `UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<Recv<'_>> {
        let len = loop {
            match parse_frame(self.buffered()) {
                Parsed::Frame(len) => break len,
                Parsed::Oversized(len) => return Ok(Recv::Oversized(len)),
                Parsed::Partial => {}
            }
            if self.start > 0 {
                // Move the partial frame to the front: from there the
                // buffer has room for all of it.
                self.rbuf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            match self.io.read(&mut self.rbuf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(Recv::Closed),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection dropped mid-frame",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        return Ok(Recv::TimedOut)
                    }
                    io::ErrorKind::Interrupted => {}
                    _ => return Err(e),
                },
            }
        };
        let at = self.start + 4;
        self.start = at + len;
        Ok(Recv::Frame(&self.rbuf[at..at + len]))
    }
}

/// Write one frame — 4-byte LE length prefix, then the payload — in one
/// `write` call.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, |buf| buf.extend_from_slice(payload))?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on clean EOF at a frame boundary;
/// a connection dropped mid-frame surfaces as `UnexpectedEof`, and an
/// oversized length prefix as `InvalidData` *before* any allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        4 => {}
        n => r.read_exact(&mut prefix[n..])?,
    }
    let mut payload = vec![0u8; frame_len(prefix).map_err(oversized)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// An in-memory transport for tests, here and in `server.rs`.
#[cfg(test)]
pub(crate) mod testio {
    use std::io::{self, Read, Write};

    /// Reads hand out `input` in pieces of the scripted sizes, taken in
    /// turn and cycled — a size of 0 is a `WouldBlock` — and all that is
    /// left when there are none; after the input comes EOF. Writes are
    /// collected, and calls of both kinds counted.
    #[derive(Default)]
    pub(crate) struct Script {
        pub input: Vec<u8>,
        pub cuts: Vec<usize>,
        pub reads: usize,
        pub writes: usize,
        pub output: Vec<u8>,
        pos: usize,
    }

    impl Script {
        pub fn new(input: Vec<u8>, cuts: Vec<usize>) -> Script {
            Script {
                input,
                cuts,
                ..Script::default()
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = &self.input[self.pos..];
            let cut = match self.cuts.len() {
                0 => left.len(),
                n => self.cuts[self.reads % n],
            };
            self.reads += 1;
            if cut == 0 && !left.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = cut.min(left.len()).min(buf.len());
            buf[..n].copy_from_slice(&left[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testio::Script;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn request_round_trips() {
        for (opcode, object, a, b) in [
            (OPC_UPDATE, 0u8, 0u64, 0u64),
            (OPC_READ, 3, u64::MAX, 17),
            (OPC_UPDATE, 255, 42, u64::MAX - 1),
        ] {
            let req = Request {
                opcode,
                object,
                a,
                b,
            };
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response {
                status: ST_OK,
                kind: KIND_VAL,
                values: vec![7],
            },
            Response {
                status: ST_OK,
                kind: KIND_VIEW,
                values: vec![u64::MAX, 0, 3],
            },
            Response::err(ERR_BAD_OBJECT),
        ] {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp.clone()));
        }
    }

    #[test]
    fn output_mapping_uses_sentinel() {
        let r = Response::from_output(&OpOutput::Opt(None));
        assert_eq!(r.values, vec![u64::MAX]);
        assert_eq!(r.as_opt(), None);
        let r = Response::from_output(&OpOutput::Opt(Some(9)));
        assert_eq!(r.as_opt(), Some(9));
        let r = Response::from_output(&OpOutput::View(vec![Some(1), None]));
        assert_eq!(r.kind, KIND_VIEW);
        assert_eq!(r.values, vec![1, u64::MAX]);
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert_eq!(Request::decode(&[0u8; 19]), Err(DecodeError::Length(19)));
        assert_eq!(Request::decode(&[0u8; 21]), Err(DecodeError::Length(21)));
        let mut buf = Request {
            opcode: 9,
            object: 0,
            a: 0,
            b: 0,
        }
        .encode();
        assert_eq!(Request::decode(&buf), Err(DecodeError::Opcode(9)));
        buf[0] = OPC_READ;
        buf[2] = 1;
        assert_eq!(Request::decode(&buf), Err(DecodeError::Reserved));
    }

    #[test]
    fn bad_responses_are_rejected() {
        assert_eq!(Response::decode(&[0u8; 3]), Err(DecodeError::Length(3)));
        // Header claims 2 values but carries bytes for 1.
        let mut buf = Response {
            status: ST_OK,
            kind: KIND_VAL,
            values: vec![5],
        }
        .encode();
        buf[2] = 2;
        assert_eq!(Response::decode(&buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncated inside the length prefix itself, too.
        let mut r = &wire[..2];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(b"xx");
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And the writer refuses to emit one.
        let big = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &big).is_err());
    }

    /// The wire bytes of `payloads`, one frame each.
    fn wire_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        wire
    }

    /// Everything `codec` yields up to the end of its stream, waiting on
    /// through timeouts: the payloads, and how it ended (cleanly, at an
    /// oversized prefix of that length, or with an error).
    fn drain(codec: &mut FrameCodec<Script>) -> (Vec<Vec<u8>>, io::Result<Option<usize>>) {
        let mut got = Vec::new();
        loop {
            let end = match codec.recv() {
                Ok(Recv::Frame(p)) => {
                    got.push(p.to_vec());
                    continue;
                }
                Ok(Recv::TimedOut) => continue,
                Ok(Recv::Closed) => Ok(None),
                Ok(Recv::Oversized(len)) => Ok(Some(len)),
                Err(e) => Err(e),
            };
            assert!(codec.buffered().len() <= MAX_FRAME + 4);
            return (got, end);
        }
    }

    #[test]
    fn one_write_and_one_read_per_frame_and_no_allocation() {
        let req = Request {
            opcode: OPC_UPDATE,
            object: 2,
            a: 7,
            b: 0,
        };
        let mut client = FrameCodec::new(Script::default());
        let mut server = FrameCodec::new(Script::default());
        let rbuf = server.rbuf.as_ptr_range();
        let mut wbuf = (server.wbuf.as_ptr(), 0);
        let trips = 100;
        for i in 0..trips {
            client
                .queue(|buf| buf.extend_from_slice(&Request { b: i, ..req }.encode()))
                .unwrap();
            client.flush().unwrap();
            server.io.input.append(&mut client.io.output);

            let Recv::Frame(payload) = server.recv().unwrap() else {
                panic!("a whole frame was sent");
            };
            // The payload is the read buffer's own bytes, not a copy.
            let at = payload.as_ptr_range();
            assert!(rbuf.start <= at.start && at.end <= rbuf.end);
            let got = Request::decode(payload).unwrap();
            server
                .queue(|buf| encode_output(&OpOutput::Opt(Some(got.b)), buf))
                .unwrap();
            server.flush().unwrap();
            client.io.input.append(&mut server.io.output);
            // Nor does the write buffer move or grow after the first frame.
            if i == 0 {
                wbuf = (server.wbuf.as_ptr(), server.wbuf.capacity());
            }
            assert_eq!((server.wbuf.as_ptr(), server.wbuf.capacity()), wbuf);
            assert_eq!(server.rbuf.as_ptr_range(), rbuf);

            let Recv::Frame(payload) = client.recv().unwrap() else {
                panic!("a whole frame was sent");
            };
            assert_eq!(Response::decode(payload).unwrap().as_opt(), Some(i));
        }
        for side in [&client.io, &server.io] {
            assert_eq!((side.writes, side.reads), (trips as usize, trips as usize));
        }
    }

    #[test]
    fn pipelined_frames_share_a_read_and_a_write() {
        let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 20]).collect();
        let mut codec = FrameCodec::new(Script::new(wire_of(&payloads), vec![]));
        for p in &payloads {
            assert_eq!(codec.recv().unwrap(), Recv::Frame(&p[..]));
            codec.queue(|buf| buf.extend_from_slice(p)).unwrap();
            if !codec.has_frame() {
                codec.flush().unwrap();
            }
        }
        assert_eq!(codec.recv().unwrap(), Recv::Closed);
        assert_eq!((codec.io.reads, codec.io.writes), (2, 1));
        assert_eq!(codec.io.output, wire_of(&payloads));
    }

    #[test]
    fn free_functions_write_once_and_match_the_codec() {
        let mut io = Script::default();
        write_frame(&mut io, &[9; REQ_LEN]).unwrap();
        assert_eq!(io.writes, 1);
        let mut codec = FrameCodec::new(Script::default());
        codec
            .queue(|buf| buf.extend_from_slice(&[9; REQ_LEN]))
            .unwrap();
        codec.flush().unwrap();
        assert_eq!(codec.io.output, io.output);

        for out in [
            OpOutput::Val(3),
            OpOutput::Opt(None),
            OpOutput::View(vec![Some(1), None, Some(u64::MAX - 1)]),
        ] {
            let mut direct = Vec::new();
            encode_output(&out, &mut direct);
            assert_eq!(direct, Response::from_output(&out).encode());
        }
        let mut direct = Vec::new();
        encode_err(ERR_BUSY, &mut direct);
        assert_eq!(direct, Response::err(ERR_BUSY).encode());
    }

    #[test]
    fn largest_frame_fits_and_the_write_buffer_stays_bounded() {
        let big = vec![0xAB; MAX_FRAME];
        let wire = wire_of(&[big.clone(), b"tail".to_vec()]);
        // Byte by byte through the prefix, then in large pieces.
        let mut codec = FrameCodec::new(Script::new(wire, vec![1, 1, 1, 1, 1, 0, 7000]));
        let (got, end) = drain(&mut codec);
        assert_eq!(got, vec![big.clone(), b"tail".to_vec()]);
        assert_eq!(end.unwrap(), None);

        let too_big = |buf: &mut Vec<u8>| buf.extend(std::iter::repeat_n(0, MAX_FRAME + 1));
        assert!(codec.queue(too_big).is_err());
        assert!(
            codec.wbuf.is_empty(),
            "a refused frame leaves nothing behind"
        );
        for _ in 0..4 {
            codec.queue(|buf| buf.extend_from_slice(&big)).unwrap();
            assert!(codec.wbuf.len() <= 2 * (MAX_FRAME + 4));
        }
        codec.flush().unwrap();
        assert_eq!(codec.io.output.len(), 4 * (MAX_FRAME + 4));
    }

    /// Payload lengths: mostly request-sized, some a few reads long.
    fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let len = prop_oneof![0usize..40, 0usize..40, 0usize..40, 1000usize..3000];
        let payload =
            len.prop_map(|n: usize| (0..n).map(|i| (i * 31 + n) as u8).collect::<Vec<u8>>());
        vec(payload, 0..12)
    }

    /// Read sizes, 1-byte reads and timeouts (0) included; the closing
    /// 1 keeps a script of zeros from timing out for ever.
    fn cuts() -> impl Strategy<Value = Vec<usize>> {
        vec(prop_oneof![0usize..4, 0usize..60, 0usize..5000], 0..8).prop_map(|mut cuts| {
            cuts.push(1);
            cuts
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn any_cut_of_a_valid_stream_yields_the_same_payloads(sent in payloads(), cuts in cuts()) {
            let mut codec = FrameCodec::new(Script::new(wire_of(&sent), cuts));
            let (got, end) = drain(&mut codec);
            prop_assert_eq!(got, sent);
            prop_assert_eq!(end.unwrap(), None);
        }

        #[test]
        fn eof_is_clean_only_at_a_frame_boundary(
            sent in payloads(),
            cuts in cuts(),
            keep in 0usize..=1000,
        ) {
            let mut wire = wire_of(&sent);
            wire.truncate(wire.len() * keep / 1000);
            // The frames that lie whole within what is left.
            let (mut whole, mut used) = (0, 0);
            while whole < sent.len() && used + 4 + sent[whole].len() <= wire.len() {
                used += 4 + sent[whole].len();
                whole += 1;
            }
            let at_boundary = used == wire.len();
            let mut codec = FrameCodec::new(Script::new(wire, cuts));
            let (got, end) = drain(&mut codec);
            prop_assert_eq!(&got[..], &sent[..whole]);
            match end {
                Ok(end) => prop_assert!(at_boundary && end.is_none()),
                Err(e) => {
                    prop_assert!(!at_boundary);
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                }
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_or_overfill(
            // Zeros are common so that some prefixes pass the length check.
            bytes in vec(prop_oneof![Just(0u8), Just(0u8), any::<u8>()], 0..400),
            cuts in cuts(),
        ) {
            let total = bytes.len();
            let mut codec = FrameCodec::new(Script::new(bytes, cuts));
            let (got, end) = drain(&mut codec);
            prop_assert!(got.iter().map(|p| 4 + p.len()).sum::<usize>() <= total);
            if let Ok(Some(len)) = end {
                prop_assert!(len > MAX_FRAME);
                prop_assert_eq!(
                    codec.buffered()[..4].try_into().ok().map(u32::from_le_bytes),
                    Some(len as u32)
                );
            }
        }
    }
}
