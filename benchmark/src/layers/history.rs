//! `history::check` and `history::spans`: the linearizability search on
//! histories of growing length, in a parallel batch, and as a share of
//! an exploration.

use super::{ns_per_call, Rows};
use crate::workloads::explore::{afek_tree, CheckSink, SPAN_EVERY};
use apram_core::counter::{CounterOp, CounterResp, CounterSpec};
use apram_history::{
    check_histories_parallel, check_linearizable, history_from_spans, CheckerConfig, History,
};
use apram_model::OpSpan;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A two-process counter history of `ops` operations in which each
/// process's op overlaps the other's: every pair must be ordered by
/// search, not read off the real-time order.
fn overlapping_history(ops: usize) -> History<CounterOp, CounterResp> {
    let mut h = History::new();
    for round in 0..ops as i64 / 2 {
        h.invoke(0, CounterOp::Inc(1));
        h.invoke(1, CounterOp::Read);
        h.respond(0, CounterResp::Ack);
        // The overlapping read may or may not see the inc; alternate.
        h.respond(1, CounterResp::Value(round + round % 2));
    }
    h
}

fn check_ns(ops: usize) -> f64 {
    let h = overlapping_history(ops);
    let cfg = CheckerConfig::default();
    assert!(check_linearizable(&CounterSpec, &h, &cfg).is_ok());
    ns_per_call(10, 20, || {
        black_box(check_linearizable(&CounterSpec, black_box(&h), &cfg));
    })
}

pub fn probe(threads: usize, rows: &mut Rows) {
    let cfg = CheckerConfig::default();
    let batch: Vec<_> = (0..256).map(|_| overlapping_history(32)).collect();
    let batch_ns = ns_per_call(5, 1, || {
        black_box(check_histories_parallel(
            &CounterSpec,
            &batch,
            &cfg,
            threads,
        ));
    });

    // Sampled check intervals of one single-worker exploration.
    let sink: CheckSink = Arc::new(Mutex::new(Vec::new()));
    let epoch = Instant::now();
    let t0 = Instant::now();
    black_box(afek_tree(1, &Some((epoch, Arc::clone(&sink)))));
    let explore_ns = t0.elapsed().as_nanos() as f64;
    let sampled_ns: u64 = sink
        .lock()
        .expect("check sink lock")
        .iter()
        .map(|&(_, s, e)| e - s)
        .sum();

    let spans: Vec<OpSpan> = (0..120u64)
        .map(|i| OpSpan {
            proc: (i % 2) as usize,
            op: (i % 2) as u32,
            arg: 1,
            resp: i / 2,
            begin_ns: 10 * i,
            end_ns: 10 * i + 15,
        })
        .collect();
    let from_spans_ns = ns_per_call(10, 50, || {
        black_box(history_from_spans(
            black_box(&spans),
            |s| {
                if s.op == 0 {
                    CounterOp::Inc(1)
                } else {
                    CounterOp::Read
                }
            },
            |s| {
                if s.op == 0 {
                    CounterResp::Ack
                } else {
                    CounterResp::Value(s.resp as i64)
                }
            },
        ));
    });

    rows.extend([
        ("history.check.ns_per_history_8", check_ns(8)),
        ("history.check.ns_per_history_32", check_ns(32)),
        ("history.check.ns_per_history_120", check_ns(120)),
        (
            "history.check.parallel_histories_per_s",
            batch.len() as f64 / (batch_ns / 1e9),
        ),
        (
            "history.check.share_of_explore",
            (sampled_ns * SPAN_EVERY) as f64 / explore_ns,
        ),
        (
            "history.spans.from_spans_ns_per_op",
            from_spans_ns / spans.len() as f64,
        ),
    ]);
}
