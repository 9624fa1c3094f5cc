//! `native_update_heavy`, `native_read_heavy`, `native_recorded`: the
//! six native objects driven through `ObjectSession::op`, no sockets.
//!
//! One pinned thread drives the sessions of all `procs` processes
//! round-robin (rules 4 and 5): every op finds the registers in the
//! state the previous op of the *other* processes left them in, but no
//! two ops ever overlap, so an op's cost does not depend on where the
//! hypervisor happens to have put a second busy vCPU. What real overlap
//! costs is a layer metric (`model.native.buffered.read_ns_contended`,
//! `model.native.read_retries_per_kop`).

use super::{Outcome, RunCtx, Trace};
use crate::harness::{self, Worker};
use crate::host;
use crate::plan::WorkloadPlan;
use crate::stream::{self, Kind, Mix, MixEntry, Op};
use crate::trace::{SpanBuf, ROOT};
use crate::verify::{check_final, FinalReads, Verifier};
use apram_history::spec::{RegOp, RegResp, RegisterSpec};
use apram_history::{check_linearizable, history_from_spans, CheckerConfig};
use apram_model::FlightMode;
use apram_objects::spec::{
    native_spec, BuildCtx, ObjectInstance, ObjectSession, OpOutput, OP_READ, OP_UPDATE,
};
use apram_serve::{run_audit, OPC_READ, OPC_UPDATE};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

// The stream's opcodes are handed to `ObjectSession::op` unchanged.
const _: () = assert!(OPC_UPDATE as u32 == OP_UPDATE && OPC_READ as u32 == OP_READ);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    UpdateHeavy,
    ReadHeavy,
    Recorded,
}

impl Variant {
    fn read_pct(self) -> u32 {
        match self {
            Variant::UpdateHeavy => 10,
            Variant::ReadHeavy => 90,
            Variant::Recorded => 50,
        }
    }

    fn flight(self) -> FlightMode {
        match self {
            Variant::Recorded => FlightMode::Always,
            _ => FlightMode::Off,
        }
    }
}

/// The served mix (30/20/40/10) rescaled to make room for the two
/// objects only the native path has.
pub const OBJECTS: [MixEntry; 6] = [
    MixEntry {
        name: "counter",
        weight: 24,
        kind: Kind::Counter,
    },
    MixEntry {
        name: "maxreg",
        weight: 16,
        kind: Kind::MaxReg,
    },
    MixEntry {
        name: "lwwmap-direct",
        weight: 32,
        kind: Kind::Map,
    },
    MixEntry {
        name: "afek",
        weight: 8,
        kind: Kind::Afek,
    },
    MixEntry {
        name: "clock",
        weight: 10,
        kind: Kind::Clock,
    },
    MixEntry {
        name: "mwreg",
        weight: 10,
        kind: Kind::MwReg,
    },
];

/// `BuildCtx::new`'s key-slot count for the keyed objects.
const KEYS: usize = 8;
/// Ops per latency sample.
pub const BATCH: usize = 1024;
/// Each thread cycles through a stream this long (cache-resident, so
/// the generator's share of an op stays near one load).
const STREAM_LEN: usize = 16 * BATCH;
/// One op in this many is wrapped in a span in traced segments.
const SPAN_EVERY: usize = BATCH;

pub const SPAN_NAMES: [&str; 12] = [
    "objects.counter.update",
    "objects.counter.read",
    "objects.maxreg.update",
    "objects.maxreg.read",
    "objects.lwwmap-direct.update",
    "objects.lwwmap-direct.read",
    "objects.afek.update",
    "objects.afek.read",
    "objects.clock.update",
    "objects.clock.read",
    "objects.mwreg.update",
    "objects.mwreg.read",
];

fn mix(variant: Variant) -> Mix {
    Mix {
        objects: &OBJECTS,
        read_pct: variant.read_pct(),
        keys: KEYS as u64,
        theta: 0.99,
    }
}

/// One stream per process, each tagged with its process id.
fn streams(ctx: &RunCtx, variant: Variant) -> Vec<Vec<Op>> {
    (0..ctx.procs)
        .map(|p| stream::generate(&mix(variant), ctx.seed, p, STREAM_LEN))
        .collect()
}

#[cfg(test)]
pub fn stream_hash(ctx: &RunCtx, variant: Variant) -> u64 {
    stream::stream_hash(streams(ctx, variant).iter().map(|s| &s[..]))
}

/// The six instances, in [`OBJECTS`] order.
pub fn build_objects(procs: usize, flight: FlightMode) -> Vec<Box<dyn ObjectInstance>> {
    OBJECTS
        .iter()
        .map(|o| {
            let spec = native_spec(o.name).expect("registry name");
            let b = BuildCtx::new(procs, spec.tiers()[0])
                .flight(flight, apram_model::flight::DEFAULT_FLIGHT_CAPACITY);
            spec.build(&b)
        })
        .collect()
}

fn sessions(objects: &[Box<dyn ObjectInstance>], proc: usize) -> Vec<Box<dyn ObjectSession>> {
    objects.iter().map(|o| o.session(proc)).collect()
}

struct NativeWorker {
    /// `sessions[p][object]`: process `p`'s session on each object.
    sessions: Vec<Vec<Box<dyn ObjectSession>>>,
    /// `streams[p]`: the ops process `p` issues, cycled.
    streams: Vec<Vec<Op>>,
    cursor: usize,
    batches: usize,
    verifiers: Vec<Verifier>,
    spans: Option<SpanBuf>,
    ops_done: u64,
}

impl NativeWorker {
    /// The `i`-th op of the batch at `at`: processes take turns, each
    /// walking its own stream.
    #[inline]
    fn issue(&mut self, at: usize, i: usize) -> (Op, u64) {
        let p = i % self.streams.len();
        let op = self.streams[p][at + i / self.streams.len()];
        let out =
            self.sessions[p][op.object as usize].op(op.opcode as u32, op.a as u64, op.b as u64);
        (op, !self.verifiers[p].observe(op, &out) as u64)
    }
}

impl Worker for NativeWorker {
    fn segment(&mut self, traced: bool, lat: &mut Vec<f32>) -> u64 {
        let mut failed = 0;
        let per_proc = BATCH / self.streams.len();
        for _ in 0..self.batches {
            let at = self.cursor;
            self.cursor = (self.cursor + per_proc) % (STREAM_LEN - per_proc);
            let t0 = Instant::now();
            if traced {
                // One op of the batch carries a span; which one moves on
                // with every batch, so the spans sample the whole stream.
                let span_at = (self.ops_done / BATCH as u64) as usize % BATCH;
                for i in 0..BATCH {
                    if i == span_at {
                        let spans = self.spans.as_ref().expect("traced run has a span buffer");
                        let start = spans.now_ns();
                        let (op, bad) = self.issue(at, i);
                        failed += bad;
                        let spans = self.spans.as_mut().expect("traced run has a span buffer");
                        let end = spans.now_ns();
                        let name = 2 * op.object as u16 + op.opcode as u16;
                        spans.push(name, ROOT, self.ops_done + i as u64, start, end);
                    } else {
                        failed += self.issue(at, i).1;
                    }
                }
            } else {
                for i in 0..BATCH {
                    failed += self.issue(at, i).1;
                }
            }
            lat.push(t0.elapsed().as_nanos() as f32 / BATCH as f32);
            self.ops_done += BATCH as u64;
        }
        failed
    }

    fn segment_ops(&self) -> u64 {
        (self.batches * BATCH) as u64
    }

    fn segment_samples(&self) -> usize {
        self.batches
    }

    fn pin(&self) -> Option<usize> {
        host::load_cpu()
    }
}

/// What the generator itself costs per op: one process's stream replayed
/// with the program call removed — the load of the op and the verifier's
/// judgement of its output, which both sit inside the timed batches.
/// The outputs are recorded first, from one pass over a scratch set of
/// objects; one batch of them, so that they stay in the first-level
/// cache as the outputs of the real run do.
fn generator_cost(stream: &[Op], procs: usize) -> f64 {
    let stream = &stream[..BATCH];
    let objects = build_objects(procs, FlightMode::Off);
    let mut sessions = sessions(&objects, 0);
    let outputs: Vec<OpOutput> = stream
        .iter()
        .map(|op| sessions[op.object as usize].op(op.opcode as u32, op.a as u64, op.b as u64))
        .collect();
    let passes = 1024;
    let mut wrong = 0u64;
    let t0 = Instant::now();
    for _ in 0..passes {
        let mut verifier = Verifier::new(OBJECTS.iter().map(|o| o.kind).collect(), 0, procs, KEYS);
        for (op, out) in stream.iter().zip(&outputs) {
            wrong += !verifier.observe(black_box(*op), out) as u64;
        }
    }
    black_box(wrong);
    t0.elapsed().as_nanos() as f64 / (passes * stream.len()) as f64
}

/// Flight-recorder accounting summed over the per-segment drains
/// (`recorded` is each recorder's absolute total at the last drain).
#[derive(Default)]
struct FlightTotals {
    recorded: u64,
    drained: u64,
    dropped: u64,
}

/// One audit window per auditable object: a fresh recorded instance,
/// at most 120 ops across the threads, spans rebuilt into a history and
/// checked against the object's sequential spec.
fn audit_windows(ctx: &RunCtx) -> Vec<String> {
    let per_thread = 120 / ctx.procs;
    let mut problems = Vec::new();
    for (idx, entry) in OBJECTS.iter().enumerate() {
        // A snapshot view does not fit a span's one response word, and
        // the repo has no sequential spec for the clock: no window.
        if matches!(entry.kind, Kind::Afek | Kind::Clock) {
            continue;
        }
        let spec = native_spec(entry.name).expect("registry name");
        let build = BuildCtx::new(ctx.procs, spec.tiers()[0]).flight(
            FlightMode::Always,
            apram_model::flight::DEFAULT_FLIGHT_CAPACITY,
        );
        let inst = spec.build(&build);
        let single = Mix {
            objects: &OBJECTS[idx..idx + 1],
            read_pct: 50,
            keys: KEYS as u64,
            theta: 0.99,
        };
        // The threads take strict turns, handing over with a SeqCst
        // increment. Left to run free, the packed-tier counter fails
        // this check about one window in fifteen: a span's end stamp is
        // read while the op's store can still sit in the core's store
        // buffer, so a read stamped later on another core may miss it.
        // The hand-off is a full fence, which makes every stamp order a
        // visibility order; what is left is exactly what the recorder
        // promises — spans from which the history can be rebuilt.
        let turn = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..ctx.procs {
                let ops = stream::generate(&single, ctx.seed ^ 0xA0D1, t, per_thread);
                let mut s = inst.session(t);
                let (turn, threads) = (&turn, ctx.procs);
                scope.spawn(move || {
                    for (i, op) in ops.into_iter().enumerate() {
                        while turn.load(Ordering::SeqCst) != i * threads + t {
                            std::thread::yield_now();
                        }
                        s.op(op.opcode as u32, op.a as u64, op.b as u64);
                        turn.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let log = inst.flight_log().expect("recorder attached");
        if log.dropped != 0 || log.recorded != log.drained {
            problems.push(format!("{}: audit window dropped events", entry.name));
            continue;
        }
        let ok = if entry.kind == Kind::MwReg {
            let spans = log.op_spans();
            let h = history_from_spans(
                &spans,
                |s| {
                    if s.op == OP_UPDATE {
                        RegOp::Write(s.arg)
                    } else {
                        RegOp::Read
                    }
                },
                |s| {
                    if s.op == OP_UPDATE {
                        RegResp::Ack
                    } else {
                        RegResp::Value(s.resp)
                    }
                },
            );
            spans.len() == per_thread * ctx.procs
                && check_linearizable(&RegisterSpec, &h, &CheckerConfig::default()).is_ok()
        } else {
            let audit = run_audit(entry.name, &[log], 1);
            audit.all_linearizable && audit.spans == (per_thread * ctx.procs) as u64
        };
        if !ok {
            problems.push(format!("{}: audit window is not linearizable", entry.name));
        }
    }
    problems
}

pub fn run(plan: &WorkloadPlan, ctx: &RunCtx, variant: Variant) -> Outcome {
    let streams = streams(ctx, variant);
    let stream_hash = stream::stream_hash(streams.iter().map(|s| &s[..]));
    let gen_ns_per_op = generator_cost(&streams[0], ctx.procs);
    let segment_ops = plan.segment_ops / BATCH as u64 * BATCH as u64;

    let objects = build_objects(ctx.procs, variant.flight());
    let mut workers = vec![NativeWorker {
        sessions: (0..ctx.procs).map(|p| sessions(&objects, p)).collect(),
        streams,
        cursor: 0,
        batches: segment_ops as usize / BATCH,
        verifiers: (0..ctx.procs)
            .map(|p| Verifier::new(OBJECTS.iter().map(|o| o.kind).collect(), p, ctx.procs, KEYS))
            .collect(),
        spans: ctx.trace.then(|| {
            let per_segment = segment_ops as usize / SPAN_EVERY + 1;
            SpanBuf::new(Instant::now(), 0, per_segment * crate::plan::TRACE_PAIRS)
        }),
        ops_done: 0,
    }];

    // Rule 1: a set-up rep builds the six instances and one session per
    // process on each.
    let segment_plan = ctx.segment_plan();
    let mut setup = harness::SetupReps::new(ctx.setup_reps(plan), segment_plan.len() + 1);
    let mut flight = FlightTotals::default();
    let measured = harness::run_segments(&mut workers, &segment_plan, ctx.trace, || {
        setup.chunk(
            || {
                let t0 = Instant::now();
                let objects = build_objects(ctx.procs, variant.flight());
                let all: Vec<_> = (0..ctx.procs).map(|p| sessions(&objects, p)).collect();
                (t0.elapsed(), (objects, all))
            },
            drop,
        );
        for o in &objects {
            if let Some(log) = o.flight_log() {
                flight.drained += log.drained;
                flight.dropped += log.dropped;
            }
        }
    });

    // Quiescent final reads through process 0's sessions.
    let worker = &mut workers[0];
    let mut read = |object: usize| worker.sessions[0][object].op(OP_READ, 0, 0);
    let reads = FinalReads {
        counter: match read(0) {
            OpOutput::Val(v) => Some(v),
            _ => None,
        },
        maxreg: match read(1) {
            OpOutput::Opt(v) => Some(v),
            _ => None,
        },
        clock: match read(4) {
            OpOutput::Val(v) => Some(v),
            _ => None,
        },
    };
    let verifiers: Vec<&Verifier> = worker.verifiers.iter().collect();
    let mut problems = check_final(&verifiers, &reads);
    if reads.counter.is_none() || reads.maxreg.is_none() || reads.clock.is_none() {
        problems.push("a final read returned the wrong shape".into());
    }

    if variant == Variant::Recorded {
        // The final reads above recorded events too: drain once more,
        // then the totals over every drain must balance exactly.
        for o in &objects {
            let log = o.flight_log().expect("recorder attached");
            flight.drained += log.drained;
            flight.dropped += log.dropped;
            flight.recorded += log.recorded;
        }
        if flight.recorded == 0 || flight.recorded != flight.drained + flight.dropped {
            problems.push(format!(
                "flight accounting: recorded {} != drained {} + dropped {}",
                flight.recorded, flight.drained, flight.dropped
            ));
        }
        problems.extend(audit_windows(ctx));
    }

    let trace = ctx.trace.then(|| Trace {
        names: &SPAN_NAMES,
        bufs: workers[0].spans.take().into_iter().collect(),
    });
    Outcome {
        measured,
        setup_s: setup.into_samples(),
        problems,
        stream_hash,
        segment_ops,
        trace,
        gen_ns_per_op,
    }
}
