//! `serve::protocol` over in-memory sinks: codec and framing cost with
//! no socket underneath.

use super::{ns_per_call, Rows};
use crate::alloc::count_allocs;
use apram_objects::spec::OpOutput;
use apram_serve::protocol::{read_frame, write_frame};
use apram_serve::{Request, Response, OPC_UPDATE};
use std::hint::black_box;
use std::io::{self, Write};

/// A writer that counts calls and bytes and stores nothing.
#[derive(Default)]
struct CountingSink {
    writes: u64,
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Returns the codec's share of one round trip in ns: both encodes,
/// both decodes, and a frame write and read on each side.
pub fn probe(rows: &mut Rows) -> f64 {
    let req = Request {
        opcode: OPC_UPDATE,
        object: 2,
        a: 1234,
        b: 0x04D2_0007,
    };
    // The common reply: one optional value (a map get or maxreg read).
    let resp = Response::from_output(&OpOutput::Opt(Some(0x04D2_0007)));
    let req_bytes = req.encode();
    let resp_bytes = resp.encode();
    let mut req_wire = Vec::new();
    write_frame(&mut req_wire, &req_bytes).expect("write to a Vec");
    let mut resp_wire = Vec::new();
    write_frame(&mut resp_wire, &resp_bytes).expect("write to a Vec");

    let (reps, iters) = (10, 20_000);
    let req_encode = ns_per_call(reps, iters, || {
        black_box(black_box(&req).encode());
    });
    let req_decode = ns_per_call(reps, iters, || {
        black_box(Request::decode(black_box(&req_bytes)).expect("valid request"));
    });
    let resp_encode = ns_per_call(reps, iters, || {
        black_box(black_box(&resp).encode());
    });
    let resp_decode = ns_per_call(reps, iters, || {
        black_box(Response::decode(black_box(&resp_bytes)).expect("valid response"));
    });
    let mut sink = CountingSink::default();
    let frame_write = ns_per_call(reps, iters, || {
        write_frame(&mut sink, black_box(&req_bytes)).expect("sink never fails");
    });
    let frames = (reps as u64 + 1) * iters as u64;
    let frame_read = ns_per_call(reps, iters, || {
        let mut r = black_box(&req_wire[..]);
        black_box(read_frame(&mut r).expect("valid frame"));
    });

    // One whole round trip's allocations, client and server side.
    let trips = 1_000u64;
    let ((), allocs) = count_allocs(|| {
        let mut sink = CountingSink::default();
        for _ in 0..trips {
            let bytes = black_box(&req).encode();
            write_frame(&mut sink, &bytes).expect("sink never fails");
            let payload = read_frame(&mut &req_wire[..]).expect("valid frame");
            let got = Request::decode(&payload.expect("one frame")).expect("valid request");
            let reply = Response::from_output(&OpOutput::Opt(Some(got.b))).encode();
            write_frame(&mut sink, &reply).expect("sink never fails");
            let payload = read_frame(&mut &resp_wire[..]).expect("valid frame");
            black_box(Response::decode(&payload.expect("one frame")).expect("valid response"));
        }
    });

    rows.extend([
        ("serve.protocol.req_encode_ns", req_encode),
        ("serve.protocol.req_decode_ns", req_decode),
        ("serve.protocol.resp_encode_ns", resp_encode),
        ("serve.protocol.resp_decode_ns", resp_decode),
        ("serve.protocol.frame_write_ns", frame_write),
        ("serve.protocol.frame_read_ns", frame_read),
        (
            "serve.protocol.writes_per_frame",
            sink.writes as f64 / frames as f64,
        ),
        (
            "serve.protocol.allocs_per_roundtrip",
            allocs as f64 / trips as f64,
        ),
    ]);
    req_encode + req_decode + resp_encode + resp_decode + 2.0 * (frame_write + frame_read)
}
