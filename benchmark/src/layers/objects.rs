//! `objects::spec` sessions driven by one thread: per-object update and
//! read cost, exact register step counts, build cost, and the tail of
//! individually timed ops. Then the same sessions driven by one real
//! thread per core: what overlap costs.

use super::{ns_per_call, ns_per_fresh, Rows};
use crate::host;
use crate::stats::{self, Better};
use crate::stream::{self, Mix, Op};
use crate::workloads::native::{build_objects, OBJECTS};
use apram_model::{FlightMode, MemCtx, NativeCtx, NativeMemory};
use apram_objects::spec::ObjectSession;
use apram_objects::{DirectLwwMap, DirectMaxRegister, StripedCounter};
use apram_snapshot::AfekSnapshot;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

const STREAM_LEN: usize = 1 << 14;
/// Processes the step counts are taken at, whatever the host: a step
/// count is a function of `n` and must repeat exactly everywhere.
const STEP_PROCS: usize = 4;
const TAIL_OPS: usize = 100_000;
/// Timed passes over its stream each contending thread makes.
const CONTENDED_BLOCKS: usize = 12;

const PER_OBJECT_NS: [[&str; 2]; 6] = [
    ["objects.counter.update_ns", "objects.counter.read_ns"],
    ["objects.maxreg.update_ns", "objects.maxreg.read_ns"],
    [
        "objects.lwwmap-direct.update_ns",
        "objects.lwwmap-direct.read_ns",
    ],
    ["objects.afek.update_ns", "objects.afek.read_ns"],
    ["objects.clock.update_ns", "objects.clock.read_ns"],
    ["objects.mwreg.update_ns", "objects.mwreg.read_ns"],
];

fn replay(sessions: &mut [Box<dyn ObjectSession>], ops: &[Op]) {
    for op in ops {
        black_box(sessions[op.object as usize].op(op.opcode as u32, op.a as u64, op.b as u64));
    }
}

/// Register accesses (reads + writes) `f` makes through `ctx`.
fn steps<T: Clone>(ctx: &mut NativeCtx<T>, f: impl FnOnce(&mut NativeCtx<T>)) -> f64 {
    let before = ctx.counts();
    f(ctx);
    let after = ctx.counts();
    ((after.reads + after.writes) - (before.reads + before.writes)) as f64
}

fn step_counts(rows: &mut Rows) {
    let n = STEP_PROCS;

    let counter = StripedCounter::new(n);
    let mem = NativeMemory::new_packed(n, counter.registers()).with_owners(counter.owners());
    let (mut ctx, mut h) = (mem.ctx(0), counter.handle());
    rows.push((
        "objects.counter.update_steps",
        steps(&mut ctx, |c| h.inc(c)),
    ));
    rows.push((
        "objects.counter.read_steps",
        steps(&mut ctx, |c| {
            let _ = h.read(c);
        }),
    ));

    let maxreg = DirectMaxRegister::new(n);
    let mem = NativeMemory::new_packed(n, maxreg.registers()).with_owners(maxreg.owners());
    let (mut ctx, mut h) = (mem.ctx(0), maxreg.handle());
    rows.push((
        "objects.maxreg.update_steps",
        steps(&mut ctx, |c| h.write_max(c, 7)),
    ));
    rows.push((
        "objects.maxreg.read_steps",
        steps(&mut ctx, |c| {
            let _ = h.read(c);
        }),
    ));

    let afek = AfekSnapshot::new(n);
    let mem = NativeMemory::new(n, afek.registers::<u64>()).with_owners(afek.owners());
    let mut ctx = mem.ctx(0);
    rows.push((
        "objects.afek.update_steps",
        steps(&mut ctx, |c| afek.update(c, 7u64)),
    ));
    rows.push((
        "objects.afek.read_steps",
        steps(&mut ctx, |c| drop(afek.snap::<u64, _>(c))),
    ));

    let map = DirectLwwMap::new(8);
    let mem = NativeMemory::new(n, map.registers());
    let (mut ctx, mut h) = (mem.ctx(0), map.handle());
    rows.push((
        "objects.lwwmap-direct.update_steps",
        steps(&mut ctx, |c| h.put(c, 3, 7)),
    ));
    rows.push((
        "objects.lwwmap-direct.read_steps",
        steps(&mut ctx, |c| {
            let _ = h.get(c, 3);
        }),
    ));
    debug_assert_eq!(ctx.n_procs(), n);
}

/// The native workloads' traffic from `procs` real threads, pinned one
/// per core, each walking its own stream through its own sessions on
/// the shared instances — the overlap the end-to-end workloads leave
/// out (rule 5): cache lines bounce, reads retry, ticket draws collide.
/// Returns ns per op of one thread, and the instances' read retries and
/// ticket draws per thousand ops.
fn contended(seed: u64, procs: usize, read_pct: u32) -> (f64, f64, f64) {
    let objects = build_objects(procs, FlightMode::Off);
    let mix = Mix {
        objects: &OBJECTS,
        read_pct,
        keys: 8,
        theta: 0.99,
    };
    let barrier = Barrier::new(procs);
    let blocks: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..procs)
            .map(|p| {
                let ops = stream::generate(&mix, seed, p, STREAM_LEN);
                let mut sessions: Vec<_> = objects.iter().map(|o| o.session(p)).collect();
                let barrier = &barrier;
                scope.spawn(move || {
                    if let Some(cpu) = host::cpu_of(p) {
                        host::pin_current_thread(cpu);
                    }
                    let timed = |_| {
                        barrier.wait();
                        let t0 = Instant::now();
                        replay(&mut sessions, &ops);
                        t0.elapsed().as_nanos() as f64 / ops.len() as f64
                    };
                    // The first pass is the warm-up.
                    (0..=CONTENDED_BLOCKS)
                        .map(timed)
                        .skip(1)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("contending thread"))
            .collect()
    });
    let kops = (procs * (CONTENDED_BLOCKS + 1) * STREAM_LEN) as f64 / 1e3;
    let retries: u64 = objects.iter().map(|o| o.read_retries()).sum();
    let draws: u64 = objects.iter().map(|o| o.ticket_draws()).sum();
    (
        stats::best_share_median(&blocks, 0.5, Better::Lower),
        retries as f64 / kops,
        draws as f64 / kops,
    )
}

pub fn probe(seed: u64, threads: usize, rows: &mut Rows) {
    let build_ns = ns_per_fresh(
        200,
        || (),
        |_| {
            black_box(build_objects(threads, FlightMode::Off));
        },
    );
    rows.push(("objects.spec.build_ms", build_ns / 1e6));

    let objects = build_objects(threads, FlightMode::Off);
    let mut sessions: Vec<Box<dyn ObjectSession>> = objects.iter().map(|o| o.session(0)).collect();
    let even = Mix {
        objects: &OBJECTS,
        read_pct: 50,
        keys: 8,
        theta: 0.99,
    };
    let ops = stream::generate(&even, seed, 0, STREAM_LEN);
    for (object, names) in PER_OBJECT_NS.iter().enumerate() {
        for (opcode, name) in names.iter().enumerate() {
            let mine = stream::select(&ops, object, opcode == 0);
            let ns = ns_per_call(10, 4, || replay(&mut sessions, &mine)) / mine.len() as f64;
            rows.push((name, ns));
        }
    }
    step_counts(rows);

    // Tail of single ops, each under its own clock pair.
    let mut lat: Vec<f32> = Vec::with_capacity(TAIL_OPS);
    for i in 0..TAIL_OPS {
        let op = ops[i % ops.len()];
        let t0 = Instant::now();
        black_box(sessions[op.object as usize].op(op.opcode as u32, op.a as u64, op.b as u64));
        lat.push(t0.elapsed().as_nanos() as f32);
    }
    lat.sort_unstable_by(f32::total_cmp);
    rows.push((
        "objects.session.op_p99_us",
        stats::quantile_sorted_f32(&lat, 0.99) as f64 / 1e3,
    ));
    rows.push((
        "objects.session.op_ptop_us",
        stats::ptop_sorted_f32(&lat).1 as f64 / 1e3,
    ));

    let (update_heavy_ns, retries, draws) = contended(seed, threads, 10);
    let (read_heavy_ns, _, _) = contended(seed, threads, 90);
    rows.extend([
        ("objects.contended.update_heavy_ns", update_heavy_ns),
        ("objects.contended.read_heavy_ns", read_heavy_ns),
        ("objects.contended.read_retries_per_kop", retries),
        ("objects.contended.ticket_draws_per_kop", draws),
    ]);
}
