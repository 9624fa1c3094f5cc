//! `core::universal`, `core::lingraph`, `core::graph`: where an op of
//! the universal construction spends its time as the history grows.

use super::{ns_per_call, ns_per_fresh, Rows};
use crate::alloc::count_allocs;
use crate::stats;
use crate::stream::{self, Op};
use crate::workloads::universal::{
    build_universe, map_op, mix, SplitCtx, Universe, EPOCH_OPS, HANDLES,
};
use apram_core::algebra::dominates;
use apram_core::graph::ClosedDag;
use apram_core::lingraph::{canonical_order, lingraph};
use apram_model::MemCtx;
use apram_objects::lwwmap::{LwwMapSpec, MapOp};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

type Reg = apram_core::universal::UniversalReg<LwwMapSpec>;

/// Drive `ops` round-robin, as the workload does.
fn drive<C: MemCtx<Reg>>(u: &mut Universe<C>, ops: &[Op], from: usize) {
    for (k, &op) in ops.iter().enumerate() {
        let h = (from + k) % HANDLES;
        black_box(u.handles[h].execute(&mut u.ctxs[h], map_op(op)));
    }
}

/// Precedence edges of a round-robin history: each op is preceded by
/// the latest op of every process, i.e. its three predecessors.
fn round_robin_edges(k: usize) -> Vec<(usize, usize)> {
    (0..k)
        .flat_map(|v| (v.saturating_sub(HANDLES)..v).map(move |u| (u, v)))
        .collect()
}

fn round_robin_dag(k: usize) -> ClosedDag {
    let mut dag = ClosedDag::new(k);
    for (u, v) in round_robin_edges(k) {
        dag.add_edge(u, v);
    }
    dag
}

/// Median op time on this thread while a second thread drives another
/// handle of the same universe from the next core.
fn racing_ns(ops: &[Op]) -> f64 {
    let Universe { ctxs, handles } = build_universe();
    let mut ctxs = ctxs.into_iter();
    let mut handles = handles.into_iter();
    let (mut c0, mut h0) = (
        ctxs.next().expect("ctx 0"),
        handles.next().expect("handle 0"),
    );
    let (mut c1, mut h1) = (
        ctxs.next().expect("ctx 1"),
        handles.next().expect("handle 1"),
    );
    let half = ops.len() / 2;
    let start = Barrier::new(2);
    let mut lat = Vec::with_capacity(half);
    std::thread::scope(|scope| {
        let (start, theirs) = (&start, &ops[half..]);
        scope.spawn(move || {
            if let Some(cpu) = crate::host::other_cpu() {
                crate::host::pin_current_thread(cpu);
            }
            start.wait();
            for &op in theirs {
                black_box(h1.execute(&mut c1, map_op(op)));
            }
        });
        start.wait();
        for &op in &ops[..half] {
            let t0 = Instant::now();
            black_box(h0.execute(&mut c0, map_op(op)));
            lat.push(t0.elapsed().as_nanos() as f64);
        }
    });
    stats::median(&lat)
}

pub fn probe(seed: u64, rows: &mut Rows) {
    let ops = stream::generate(&mix(), seed, 0, EPOCH_OPS);
    let last = EPOCH_OPS - 1;
    let half = EPOCH_OPS / 2;
    let get = MapOp::Get(ops[0].a);

    let first = ns_per_fresh(200, build_universe, |u| drive(u, &ops[..1], 0));
    let at_96 = ns_per_fresh(
        12,
        || {
            let mut u = build_universe();
            drive(&mut u, &ops[..last], 0);
            u
        },
        |u| drive(u, &ops[last..], last),
    );
    let half_grown = || {
        let mut u = build_universe();
        drive(&mut u, &ops[..half], 0);
        u
    };
    let unpublished = ns_per_fresh(12, half_grown, |u| {
        black_box(u.handles[0].execute_unpublished(&mut u.ctxs[0], get));
    });
    // The same read again, world unchanged: the replay memo answers.
    let memo_hit = ns_per_fresh(
        12,
        || {
            let mut u = half_grown();
            u.handles[0].execute_unpublished(&mut u.ctxs[0], get);
            u
        },
        |u| {
            black_box(u.handles[0].execute_unpublished(&mut u.ctxs[0], get));
        },
    );
    let racing = racing_ns(&ops);

    let mut u = build_universe();
    let ((), allocs) = count_allocs(|| drive(&mut u, &ops, 0));
    let history_len = u.handles[last % HANDLES].last_history_len();

    // One epoch under the splitting context: the snapshot scan's share
    // of every execute.
    let plain = build_universe();
    let epoch = Instant::now();
    let mut split = Universe {
        ctxs: plain
            .ctxs
            .into_iter()
            .map(|c| SplitCtx::new(c, epoch))
            .collect(),
        handles: plain.handles,
    };
    let (mut in_snap, mut in_execute) = (0u64, 0u64);
    for (k, &op) in ops.iter().enumerate() {
        let h = k % HANDLES;
        split.ctxs[h].begin_op();
        let start = epoch.elapsed().as_nanos() as u64;
        black_box(split.handles[h].execute(&mut split.ctxs[h], map_op(op)));
        let end = epoch.elapsed().as_nanos() as u64;
        if split.ctxs[h].marks_valid() {
            in_snap += split.ctxs[h].snap_end_ns - start;
            in_execute += end - start;
        }
    }

    // The graph work of one replay at the end of an epoch, on its own.
    let k = EPOCH_OPS;
    let map_ops: Vec<MapOp> = ops.iter().map(|&op| map_op(op)).collect();
    let edges = round_robin_edges(k);
    let add_edge = ns_per_call(10, 1, || {
        black_box(round_robin_dag(k));
    }) / edges.len() as f64;
    let prec = round_robin_dag(k);
    let order_ns = ns_per_call(10, 4, || {
        black_box(canonical_order(&prec, |i| (i % HANDLES, i / HANDLES)));
    });
    let order = canonical_order(&prec, |i| (i % HANDLES, i / HANDLES));
    let lingraph_ns = ns_per_call(10, 1, || {
        black_box(lingraph(&prec, &order, |a, b| {
            dominates(
                &LwwMapSpec,
                &map_ops[a],
                a % HANDLES,
                &map_ops[b],
                b % HANDLES,
            )
        }));
    });

    rows.extend([
        ("core.universal.execute_ns_first", first),
        ("core.universal.execute_ns_at_96", at_96),
        ("core.universal.execute_unpublished_ns", unpublished),
        ("core.universal.memo_hit_ns", memo_hit),
        ("core.universal.execute_ns_racing", racing),
        ("core.universal.history_len_at_end", history_len as f64),
        (
            "core.universal.snap_share",
            in_snap as f64 / in_execute.max(1) as f64,
        ),
        (
            "core.universal.allocs_per_op",
            allocs as f64 / EPOCH_OPS as f64,
        ),
        ("core.lingraph.build_ns", lingraph_ns),
        ("core.lingraph.canonical_order_ns", order_ns),
        ("core.graph.add_edge_ns", add_edge),
    ]);
}
