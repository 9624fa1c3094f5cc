//! `model::native`: the register tiers by themselves.

use super::{ns_per_call, ns_per_fresh, Rows};
use apram_model::{MemCtx, NativeMemory};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

const REGS: usize = 8;
const ITERS: usize = 20_000;

pub fn probe(rows: &mut Rows) {
    let owners: Vec<usize> = vec![0; REGS];

    let packed = NativeMemory::new_packed(2, vec![0u64; REGS]).with_owners(owners.clone());
    let mut ctx = packed.ctx(0);
    let mut i = 0usize;
    let packed_read = ns_per_call(10, ITERS, || {
        i = (i + 1) % REGS;
        black_box(ctx.read(i));
    });
    let packed_write = ns_per_call(10, ITERS, || {
        i = (i + 1) % REGS;
        ctx.write(i, i as u64);
    });

    let buffered = NativeMemory::new(2, vec![0u64; REGS]).with_owners(owners);
    let mut ctx = buffered.ctx(0);
    let buffered_read = ns_per_call(10, ITERS, || {
        i = (i + 1) % REGS;
        black_box(ctx.read(i));
    });
    let buffered_write = ns_per_call(10, ITERS, || {
        i = (i + 1) % REGS;
        ctx.write(i, i as u64);
    });

    // A reader on this (pinned) thread against a writer hammering the
    // same register from the next core.
    let stop = AtomicBool::new(false);
    let mut reader = buffered.ctx(1);
    let retries_before = buffered.read_retries();
    let mut reads = 0u64;
    let contended = std::thread::scope(|scope| {
        let mut writer = buffered.ctx(0);
        let stop = &stop;
        scope.spawn(move || {
            if let Some(cpu) = crate::host::other_cpu() {
                crate::host::pin_current_thread(cpu);
            }
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                writer.write(0, v);
            }
        });
        let ns = ns_per_call(10, ITERS, || {
            reads += 1;
            black_box(reader.read(0));
        });
        stop.store(true, Ordering::Relaxed);
        ns
    });
    let retries = buffered.read_retries() - retries_before;

    // Unowned registers are multi-writer: every write draws a ticket.
    let mwmr = NativeMemory::new(2, vec![0u64; REGS]);
    let mut ctx = mwmr.ctx(0);
    let writes = 10_000u64;
    for k in 0..writes {
        ctx.write(k as usize % REGS, k);
    }
    let draws = mwmr.ticket_draws();

    let many = 1024;
    let build_ns = ns_per_fresh(
        50,
        || vec![0u64; many],
        |regs| {
            black_box(NativeMemory::new(4, std::mem::take(regs)));
        },
    );

    rows.extend([
        ("model.native.packed.read_ns", packed_read),
        ("model.native.packed.write_ns", packed_write),
        ("model.native.buffered.read_ns", buffered_read),
        ("model.native.buffered.write_ns", buffered_write),
        ("model.native.buffered.read_ns_contended", contended),
        (
            "model.native.read_retries_per_kop",
            retries as f64 * 1e3 / reads as f64,
        ),
        (
            "model.native.ticket_draws_per_kop",
            draws as f64 * 1e3 / writes as f64,
        ),
        (
            "model.native.build_us_per_reg",
            build_ns / 1e3 / many as f64,
        ),
    ]);
}
