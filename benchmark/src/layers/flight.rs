//! `model::flight`: what recording costs, and what draining costs.

use super::{ns_per_call, ns_per_fresh, Rows};
use apram_model::{FlightEvent, FlightMode, FlightRecorder};
use apram_objects::spec::{native_spec, BuildCtx, ObjectSession, OP_UPDATE};
use std::hint::black_box;

const CAPACITY: usize = 1 << 13;

fn counter_session(mode: FlightMode) -> Box<dyn ObjectSession> {
    let spec = native_spec("counter").expect("registry name");
    let inst = spec.build(&BuildCtx::new(1, spec.tiers()[0]).flight(mode, CAPACITY));
    inst.session(0)
}

fn inc_ns(mode: FlightMode) -> f64 {
    let mut s = counter_session(mode);
    ns_per_call(10, 50_000, || {
        black_box(s.op(OP_UPDATE, 0, 0));
    })
}

/// A ring written three times over, then drained once.
fn lapped_recorder() -> FlightRecorder {
    let rec = FlightRecorder::new(FlightMode::Always, 1, CAPACITY);
    for i in 0..3 * CAPACITY as u64 {
        let (op, t_ns) = (OP_UPDATE, i);
        rec.record(
            0,
            if i % 2 == 0 {
                FlightEvent::OpBegin { t_ns, op, arg: i }
            } else {
                FlightEvent::OpEnd { t_ns, op, resp: i }
            },
        );
    }
    rec
}

pub fn probe(rows: &mut Rows) {
    let rec = FlightRecorder::new(FlightMode::Always, 1, CAPACITY);
    let mut t = 0u64;
    let record_ns = ns_per_call(10, 50_000, || {
        t += 1;
        rec.record(
            0,
            FlightEvent::OpBegin {
                t_ns: t,
                op: OP_UPDATE,
                arg: t,
            },
        );
    });

    let off = inc_ns(FlightMode::Off);
    let always = inc_ns(FlightMode::Always);
    let sampled = inc_ns(FlightMode::Sampled(64));

    let drain_ns = ns_per_fresh(20, lapped_recorder, |rec| {
        black_box(rec.drain());
    });
    let log = lapped_recorder().drain();
    let spans_ns = ns_per_fresh(
        20,
        || (),
        |_| {
            black_box(log.op_spans());
        },
    );

    rows.extend([
        ("model.flight.record_ns", record_ns),
        ("model.flight.op_overhead_ns", always - off),
        ("model.flight.always_over_off", off / always),
        ("model.flight.sampled64_over_off", off / sampled),
        (
            "model.flight.drain_ns_per_event",
            drain_ns / log.drained as f64,
        ),
        (
            "model.flight.op_spans_ns_per_event",
            spans_ns / log.drained as f64,
        ),
        ("model.flight.recorded", log.recorded as f64),
        ("model.flight.drained", log.drained as f64),
        ("model.flight.dropped", log.dropped as f64),
        (
            "model.flight.drop_ratio",
            log.dropped as f64 / log.recorded as f64,
        ),
    ]);
}
