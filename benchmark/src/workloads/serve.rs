//! `serve_steady`: the whole wire path — closed-loop clients over
//! loopback TCP against `apram_serve::serve`.
//!
//! The load is *closed-loop*: each tenant sends its next request only
//! after the previous reply arrived. The tenants and the server's own
//! threads all run on the one load CPU (the server's inherit the mask
//! the main thread holds when it calls `serve`), so a request and its
//! reply are handed over on one core. On the reference VM a hand-off
//! that crosses cores costs tens of µs of hypervisor time that varies
//! from run to run (measured: p50 55 µs split across two cores, 10 µs on
//! one), which would drown every change to the wire path (rule 5).

use super::{Outcome, RunCtx, Trace};
use crate::harness::{self, Worker};
use crate::host;
use crate::plan::WorkloadPlan;
use crate::stream::{self, Kind, Mix, MixEntry, Op};
use crate::trace::{SpanBuf, ROOT};
use crate::verify::{check_final, FinalReads, Verifier};
use apram_objects::spec::OpOutput;
use apram_serve::protocol::{read_frame, write_frame, KIND_OPT, KIND_VAL, KIND_VIEW};
use apram_serve::{
    serve, Client, Request, Response, ServeConfig, ServerHandle, TableConfig, OPC_READ, ST_OK,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The served table and its op mix (30/20/40/10 %).
pub const OBJECTS: [MixEntry; 4] = [
    MixEntry {
        name: "counter",
        weight: 30,
        kind: Kind::Counter,
    },
    MixEntry {
        name: "maxreg",
        weight: 20,
        kind: Kind::MaxReg,
    },
    MixEntry {
        name: "lwwmap-direct",
        weight: 40,
        kind: Kind::Map,
    },
    MixEntry {
        name: "afek",
        weight: 10,
        kind: Kind::Afek,
    },
];

pub const SHARDS: usize = 4;
pub const KEYS: usize = 4096;
/// One op in this many is wrapped in spans in traced segments.
const SPAN_EVERY: u64 = 64;

pub const SPAN_NAMES: [&str; 4] = [
    "serve.client.op",
    "serve.protocol.req_encode",
    "serve.wire.roundtrip",
    "serve.protocol.resp_decode",
];

pub fn mix() -> Mix {
    Mix {
        objects: &OBJECTS,
        read_pct: 50,
        keys: KEYS as u64,
        theta: 0.99,
    }
}

/// Closed-loop clients: half the processes, the other half being the
/// server workers that answer them.
pub fn tenants(procs: usize) -> usize {
    (procs / 2).max(1)
}

pub fn table_config(slots: usize) -> TableConfig {
    let names: Vec<&str> = OBJECTS.iter().map(|o| o.name).collect();
    let mut table = TableConfig::new(&names, SHARDS, slots);
    table.keys = KEYS;
    table
}

/// Start the server. Its threads inherit the mask of the calling
/// thread — the load CPU, for a run's main thread and for the probes.
pub fn start_server(slots: usize) -> io::Result<ServerHandle> {
    serve(&ServeConfig::local(table_config(slots)))
}

fn streams(plan: &WorkloadPlan, ctx: &RunCtx) -> Vec<Vec<Op>> {
    let len = plan.segment_ops as usize;
    (0..tenants(ctx.procs))
        .map(|t| stream::generate(&mix(), ctx.seed, t, len))
        .collect()
}

#[cfg(test)]
pub fn stream_hash(plan: &WorkloadPlan, ctx: &RunCtx) -> u64 {
    stream::stream_hash(streams(plan, ctx).iter().map(|s| &s[..]))
}

/// A successful response as the object-level output it encodes.
pub fn output_of(resp: &Response) -> Option<OpOutput> {
    if resp.status != ST_OK {
        return None;
    }
    match resp.kind {
        KIND_VAL => resp.values.first().map(|v| OpOutput::Val(*v)),
        KIND_OPT => (!resp.values.is_empty()).then(|| OpOutput::Opt(resp.as_opt())),
        KIND_VIEW => Some(OpOutput::View(
            resp.values
                .iter()
                .map(|&v| (v != u64::MAX).then_some(v))
                .collect(),
        )),
        _ => None,
    }
}

/// The client a traced run uses: `Client::op`'s four steps spelled out
/// over the public protocol functions, so each can carry a span.
pub struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    pub fn connect(addr: SocketAddr) -> io::Result<RawClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawClient { stream })
    }

    /// One round trip; returns the response and the three inner
    /// boundaries `(encoded, reply_read)` as `now()` readings when
    /// `clock` is given.
    pub fn op(
        &mut self,
        req: Request,
        clock: Option<&dyn Fn() -> u64>,
    ) -> io::Result<(Response, u64, u64)> {
        let bytes = req.encode();
        let encoded = clock.map_or(0, |c| c());
        write_frame(&mut self.stream, &bytes)?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let reply_read = clock.map_or(0, |c| c());
        let resp = Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((resp, encoded, reply_read))
    }
}

enum Conn {
    /// The product's own client: what the end-to-end run measures.
    Plain(Client),
    Raw(RawClient),
}

pub struct Tenant {
    conn: Conn,
    stream: Vec<Op>,
    pub verifier: Verifier,
    spans: Option<SpanBuf>,
    /// Requests sent, the connect handshake's first op included.
    pub requests: u64,
    /// The CPU this tenant's thread runs on: the load CPU, unless a
    /// probe moves it to see what a cross-core round trip costs.
    pub cpu: Option<usize>,
}

fn request(op: Op) -> Request {
    Request {
        opcode: op.opcode,
        object: op.object,
        a: op.a as u64,
        b: op.b as u64,
    }
}

impl Tenant {
    /// Connect and send a first op, which makes the server lease this
    /// connection its slot before the next tenant connects — so tenant
    /// `i` is process `i` in every shard.
    fn connect(addr: SocketAddr, raw: bool) -> io::Result<Conn> {
        let first = Request {
            opcode: OPC_READ,
            object: 0,
            a: 0,
            b: 0,
        };
        Ok(if raw {
            let mut c = RawClient::connect(addr)?;
            c.op(first, None)?;
            Conn::Raw(c)
        } else {
            let mut c = Client::connect(addr)?;
            c.op(first.opcode, first.object, first.a, first.b)?;
            Conn::Plain(c)
        })
    }

    fn roundtrip(&mut self, op: Op) -> io::Result<Response> {
        self.requests += 1;
        match &mut self.conn {
            Conn::Plain(c) => c.op(op.opcode, op.object, op.a as u64, op.b as u64),
            Conn::Raw(c) => c.op(request(op), None).map(|r| r.0),
        }
    }

    fn judge(&mut self, op: Op, resp: io::Result<Response>) -> bool {
        resp.ok()
            .and_then(|r| output_of(&r))
            .is_some_and(|out| self.verifier.observe(op, &out))
    }

    /// A quiescent read of `object` after the run.
    fn final_read(&mut self, object: u8) -> Option<OpOutput> {
        let op = Op {
            opcode: OPC_READ,
            object,
            a: 0,
            b: 0,
        };
        self.roundtrip(op).ok().and_then(|r| output_of(&r))
    }
}

impl Worker for Tenant {
    fn segment(&mut self, traced: bool, lat: &mut Vec<f32>) -> u64 {
        let stream = std::mem::take(&mut self.stream);
        let mut failed = 0;
        for (i, &op) in stream.iter().enumerate() {
            if traced && (i as u64).is_multiple_of(SPAN_EVERY) {
                let Conn::Raw(conn) = &mut self.conn else {
                    unreachable!("traced runs connect raw clients");
                };
                let spans = self.spans.as_mut().expect("traced run has a span buffer");
                self.requests += 1;
                let start = spans.now_ns();
                let clock = || spans.now_ns();
                let result = conn.op(request(op), Some(&clock));
                let end = spans.now_ns();
                lat.push((end - start) as f32);
                let marks = result.as_ref().ok().map(|r| (r.1, r.2));
                failed += !self.judge(op, result.map(|r| r.0)) as u64;
                let spans = self.spans.as_mut().expect("traced run has a span buffer");
                let op_id = self.requests;
                let root = spans.push(0, ROOT, op_id, start, end);
                if let Some((encoded, reply_read)) = marks {
                    spans.push(1, root, op_id, start, encoded);
                    spans.push(2, root, op_id, encoded, reply_read);
                    spans.push(3, root, op_id, reply_read, end);
                }
            } else {
                let t0 = Instant::now();
                let resp = self.roundtrip(op);
                lat.push(t0.elapsed().as_nanos() as f32);
                failed += !self.judge(op, resp) as u64;
            }
        }
        self.stream = stream;
        failed
    }

    fn segment_ops(&self) -> u64 {
        self.stream.len() as u64
    }

    fn segment_samples(&self) -> usize {
        self.stream.len()
    }

    fn pin(&self) -> Option<usize> {
        self.cpu
    }
}

/// Connect `streams.len()` tenants in slot order.
pub fn connect_tenants(
    addr: SocketAddr,
    streams: Vec<Vec<Op>>,
    raw: bool,
    span_capacity: usize,
    epoch: Instant,
) -> io::Result<Vec<Tenant>> {
    let n = streams.len();
    let mut tenants = Vec::with_capacity(n);
    for (t, stream) in streams.into_iter().enumerate() {
        tenants.push(Tenant {
            conn: Tenant::connect(addr, raw)?,
            stream,
            verifier: Verifier::new(OBJECTS.iter().map(|o| o.kind).collect(), t, n, KEYS),
            spans: (span_capacity > 0).then(|| SpanBuf::new(epoch, t, span_capacity)),
            requests: 1,
            cpu: host::load_cpu(),
        });
    }
    Ok(tenants)
}

/// The quiescent checks after a run: final counter and max-register
/// reads against the verifiers' totals, and the server's own request
/// counter against what the clients sent.
pub fn final_checks(server: &ServerHandle, tenants: &mut [Tenant]) -> Vec<String> {
    let reads = FinalReads {
        counter: match tenants[0].final_read(0) {
            Some(OpOutput::Val(v)) => Some(v),
            _ => None,
        },
        maxreg: match tenants[0].final_read(1) {
            Some(OpOutput::Opt(v)) => Some(v),
            _ => None,
        },
        clock: None,
    };
    let verifiers: Vec<&Verifier> = tenants.iter().map(|t| &t.verifier).collect();
    let mut problems = check_final(&verifiers, &reads);
    if reads.counter.is_none() || reads.maxreg.is_none() {
        problems.push("a final read failed or returned the wrong shape".into());
    }
    let sent: u64 = tenants.iter().map(|t| t.requests).sum();
    let counted = server.registry().counter_total("serve_requests_total");
    if counted != Some(sent) {
        problems.push(format!(
            "serve_requests_total is {counted:?}, clients sent {sent}"
        ));
    }
    problems
}

pub fn run(plan: &WorkloadPlan, ctx: &RunCtx) -> Outcome {
    let streams = streams(plan, ctx);
    let stream_hash = stream::stream_hash(streams.iter().map(|s| &s[..]));
    let segment_ops = streams[0].len() as u64;
    let slots = streams.len();

    let server = start_server(slots).expect("bind loopback");
    let traced_segments = ctx.segment_plan().iter().filter(|&&t| t).count();
    let span_capacity = 4 * (segment_ops / SPAN_EVERY + 1) as usize * traced_segments;
    let mut tenants = connect_tenants(
        server.addr(),
        streams,
        ctx.trace,
        span_capacity,
        Instant::now(),
    )
    .expect("connect tenants");

    // Rule 1: a set-up rep is `serve()` until it returns; connects,
    // stream generation and shutdown are outside the clock.
    let segment_plan = ctx.segment_plan();
    let mut setup = harness::SetupReps::new(ctx.setup_reps(plan), segment_plan.len() + 1);
    let measured = harness::run_segments(&mut tenants, &segment_plan, ctx.trace, || {
        setup.chunk(
            || {
                let t0 = Instant::now();
                let server = start_server(slots).expect("bind loopback");
                (t0.elapsed(), server)
            },
            ServerHandle::shutdown,
        );
    });
    let problems = final_checks(&server, &mut tenants);

    let trace = ctx.trace.then(|| Trace {
        names: &SPAN_NAMES,
        bufs: tenants.iter_mut().filter_map(|t| t.spans.take()).collect(),
    });
    drop(tenants);
    server.shutdown();
    Outcome {
        measured,
        setup_s: setup.into_samples(),
        problems,
        stream_hash,
        segment_ops,
        trace,
        // One 12-byte load per ~11 µs round trip: below the clock's
        // resolution, reported as zero cost rather than timed.
        gen_ns_per_op: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_serve::protocol::ERR_BUSY;

    #[test]
    fn responses_map_back_to_outputs_and_errors_to_none() {
        let view = Response::from_output(&OpOutput::View(vec![Some(4), None]));
        assert_eq!(output_of(&view), Some(OpOutput::View(vec![Some(4), None])));
        let opt = Response::from_output(&OpOutput::Opt(None));
        assert_eq!(output_of(&opt), Some(OpOutput::Opt(None)));
        let val = Response::from_output(&OpOutput::Val(9));
        assert_eq!(output_of(&val), Some(OpOutput::Val(9)));
        // A refusal is a failed op, never an output.
        assert_eq!(output_of(&Response::err(ERR_BUSY)), None);
    }

    /// End to end over a real socket: honest traffic passes every
    /// check; a tenant that mis-counts one acknowledged inc (a lost
    /// increment) fails the final check.
    #[test]
    fn lost_increment_flips_the_served_check() {
        let server = start_server(1).unwrap();
        let ops = stream::generate(&mix(), 3, 0, 400);
        let mut tenants =
            connect_tenants(server.addr(), vec![ops], false, 0, Instant::now()).unwrap();
        let mut lat = Vec::with_capacity(400);
        assert_eq!(tenants[0].segment(false, &mut lat), 0);
        assert!(final_checks(&server, &mut tenants).is_empty());
        tenants[0].verifier.incs += 1;
        let problems = final_checks(&server, &mut tenants);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("counter"));
        drop(tenants);
        server.shutdown();
    }
}
