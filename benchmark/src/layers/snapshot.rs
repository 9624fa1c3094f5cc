//! `snapshot`: the Section 6 scan and the snapshot built on it, on the
//! native register file, three processes, one driving thread.

use super::{ns_per_call, Rows};
use apram_lattice::MaxU64;
use apram_model::NativeMemory;
use apram_snapshot::{ScanHandle, ScanObject, Snapshot};
use std::hint::black_box;

const N: usize = 3;

pub fn probe(rows: &mut Rows) {
    let snap = Snapshot::new(N);
    let mem = NativeMemory::new(N, snap.registers::<u64>()).with_owners(snap.owners());
    let mut ctx = mem.ctx(0);
    let mut h = snap.handle::<u64>();
    let mut v = 0u64;
    let update_ns = ns_per_call(10, 2_000, || {
        v += 1;
        h.update(&mut ctx, v);
    });
    let snap_ns = ns_per_call(10, 2_000, || {
        black_box(h.snap(&mut ctx));
    });
    let before = ctx.counts().reads;
    black_box(h.snap(&mut ctx));
    let snap_reads = ctx.counts().reads - before;

    let obj = ScanObject::new(N);
    let mem = NativeMemory::new(N, obj.registers::<MaxU64>()).with_owners(obj.owners());
    let mut ctx = mem.ctx(0);
    let mut h: ScanHandle<MaxU64> = ScanHandle::new(obj);
    let scan_ns = ns_per_call(10, 2_000, || {
        v += 1;
        black_box(h.scan(&mut ctx, MaxU64(v)));
    });
    let before = ctx.counts().reads;
    black_box(h.scan(&mut ctx, MaxU64(v)));
    let scan_reads = ctx.counts().reads - before;

    rows.extend([
        ("snapshot.snap_ns", snap_ns),
        ("snapshot.update_ns", update_ns),
        ("snapshot.snap_reads", snap_reads as f64),
        ("snapshot.scan_ns", scan_ns),
        ("snapshot.scan_reads", scan_reads as f64),
    ]);
}
