//! `serve::table`: the `serve_steady` stream replayed through
//! `SlotSessions::execute` in-process — dispatch, routing and the
//! cross-shard merge with no wire in between.

use super::{ns_per_call, ns_per_fresh, Rows};
use crate::alloc::count_allocs;
use crate::stream::{self, Op};
use crate::workloads::serve;
use apram_serve::{ObjectTable, SlotSessions};
use std::hint::black_box;

const STREAM_LEN: usize = 1 << 14;

const PER_OBJECT: [[&str; 2]; 4] = [
    [
        "serve.table.counter.update_ns",
        "serve.table.counter.read_ns",
    ],
    ["serve.table.maxreg.update_ns", "serve.table.maxreg.read_ns"],
    [
        "serve.table.lwwmap-direct.update_ns",
        "serve.table.lwwmap-direct.read_ns",
    ],
    ["serve.table.afek.update_ns", "serve.table.afek.read_ns"],
];

fn replay(sessions: &mut [SlotSessions], ops: &[Op]) {
    for op in ops {
        black_box(sessions[op.object as usize].execute(op.opcode, op.a as u64, op.b as u64));
    }
}

/// Returns `serve.table.execute_ns`.
pub fn probe(seed: u64, rows: &mut Rows) -> f64 {
    let cfg = serve::table_config(1);
    let build_ns = ns_per_fresh(
        8,
        || (),
        |_| {
            black_box(ObjectTable::build(&cfg).expect("known objects"));
        },
    );
    let table = ObjectTable::build(&cfg).expect("known objects");
    let mut sessions: Vec<SlotSessions> = table.objects().iter().map(|o| o.sessions(0)).collect();
    let ops = stream::generate(&serve::mix(), seed, 0, STREAM_LEN);

    let execute_ns = ns_per_call(10, 1, || replay(&mut sessions, &ops)) / ops.len() as f64;
    let ((), allocs) = count_allocs(|| replay(&mut sessions, &ops));
    rows.extend([
        ("serve.table.build_ms", build_ns / 1e6),
        ("serve.table.execute_ns", execute_ns),
        (
            "serve.table.allocs_per_op",
            allocs as f64 / ops.len() as f64,
        ),
    ]);

    for (object, names) in PER_OBJECT.iter().enumerate() {
        for (opcode, name) in names.iter().enumerate() {
            let mine = stream::select(&ops, object, opcode == 0);
            let ns = ns_per_call(10, 1, || replay(&mut sessions, &mine)) / mine.len() as f64;
            rows.push((name, ns));
        }
    }
    execute_ns
}
