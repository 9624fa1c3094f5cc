//! The allocation budget of one `execute`, pinned.
//!
//! Ninety-six operations, round-robin on three handles over the native
//! register file — the shape of the repo benchmark's `universal_lwwmap`
//! epoch, whose `core.universal.allocs_per_op` row reads 2.0. A register
//! write copies its value into storage the register already has
//! (`MemCtx::write_from`), the root array's slots name logs and lengths,
//! and the replay's scratch belongs to the handle: what an operation
//! allocates is what it publishes — its entry's view — plus, amortized
//! over the epoch, the logs and their chunks, the buffers' growth as
//! processes join, and whatever the sequential object's own state asks
//! for. The bound leaves that room and no more.
//!
//! And the allocation budget of building one universe, pinned: its
//! register file is built once, for the writers it has.
//!
//! Its own test binary: the counting allocator is the global one. It
//! counts per thread, so each test counts only what it allocates.

use apram_core::{AlgebraicSpec, CounterOp, CounterSpec, Universal};
use apram_model::native::buffered::SwmrFile;
use apram_model::NativeMemory;
use apram_objects::lwwmap::{LwwMapSpec, MapOp};
use apram_snapshot::Snapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and free of drop glue: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s contract is the one being upheld; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HANDLES: usize = 3;
const OPS: usize = 96;
const BUDGET_PER_OP: f64 = 2.0;

/// Allocations per operation of `OPS` round-robin operations on a fresh
/// universe over `spec`.
fn allocs_per_op<S>(spec: S, op: impl Fn(usize) -> S::Op) -> f64
where
    S: AlgebraicSpec + Clone,
    S::State: Clone + std::fmt::Debug,
{
    let uni = Universal::new(HANDLES, spec);
    let mem = NativeMemory::new(HANDLES, uni.registers()).with_owners(uni.owners());
    let mut ctxs: Vec<_> = (0..HANDLES).map(|p| mem.ctx(p)).collect();
    let mut handles: Vec<_> = (0..HANDLES).map(|_| uni.handle()).collect();
    let before = allocs();
    for k in 0..OPS {
        let h = k % HANDLES;
        std::hint::black_box(handles[h].execute(&mut ctxs[h], op(k)));
    }
    let allocs = allocs() - before;
    assert_eq!(handles[(OPS - 1) % HANDLES].last_history_len(), OPS - 1);
    allocs as f64 / OPS as f64
}

#[test]
fn an_execute_allocates_within_its_budget() {
    let counter = allocs_per_op(CounterSpec, |k| match k % 4 {
        0 => CounterOp::Inc(k as i64),
        1 => CounterOp::Read,
        2 => CounterOp::Dec(1),
        _ => CounterOp::Reset(k as i64),
    });
    let map = allocs_per_op(LwwMapSpec, |k| match k % 2 {
        0 => MapOp::Put(k as u32 % 8, k as u64),
        _ => MapOp::Get(k as u32 % 8),
    });
    assert!(
        counter <= BUDGET_PER_OP,
        "counter: {counter} allocations per op"
    );
    assert!(map <= BUDGET_PER_OP, "LWW map: {map} allocations per op");
    println!("allocations per op: counter {counter}, LWW map {map}");
    // What the bound no longer has to leave room for: a scan's `n + 1`
    // register writes. On handles that have been round once — every
    // cache column and slot buffer at its final size — a snap and an
    // update together allocate nothing at all.
    let snap = Snapshot::new(HANDLES);
    let mem = NativeMemory::new(HANDLES, snap.registers::<u64>()).with_owners(snap.owners());
    let mut ctxs: Vec<_> = (0..HANDLES).map(|p| mem.ctx(p)).collect();
    let mut handles: Vec<_> = (0..HANDLES).map(|_| snap.handle::<u64>()).collect();
    let mut round = |k: u64| {
        for (h, ctx) in handles.iter_mut().zip(&mut ctxs) {
            std::hint::black_box(h.snap_ref(ctx));
            h.update(ctx, k);
        }
    };
    (0..4).for_each(&mut round);
    let before = allocs();
    round(4);
    let allocs = allocs() - before;
    assert_eq!(allocs, 0, "{HANDLES} warmed snap + update pairs allocated");
    assert_eq!(ctxs[0].counts().writes, 5 * 2 * (HANDLES as u64 + 1));
    assert_eq!(handles[0].snap(&mut ctxs[0]), vec![Some(4); HANDLES]);
}

/// What one universe's build allocates — the repo benchmark's
/// `universal_lwwmap` builds one per epoch, and its `setup_s` builds 64:
/// the register file, given owners, plus three contexts and three
/// handles. Budget: the same registers built directly as single-writer
/// cells, plus the memory's own three shared blocks (register file,
/// export marks, owner map), plus at most one allocation per register.
///
/// Counts at three handles (fifteen registers): this build 45 — the
/// direct build's 39, the memory's three blocks, and the three blocks of
/// the multi-writer file that `new` builds and `with_owners` takes
/// apart (its heads, its writer entries, its announce words) — against
/// a budget of 57. A direct build is one slot box per register, the cell
/// array and the file's one block of announce words. While every cell
/// carried its own announce words, the direct build made 53 and this
/// one 58 (budget 71); when `NativeMemory::new` built every register as
/// a three-writer cell — three writer sub-cells, each with its slots and
/// announce words — and `with_owners` then rebuilt it as a single-writer
/// one, the same build made 161.
#[test]
fn a_universe_build_allocates_what_a_direct_build_does() {
    // The memory's `Arc`s: register file, export marks, owner map.
    const MEMORY_BLOCKS: u64 = 3;
    let uni = Universal::new(HANDLES, LwwMapSpec);
    let regs = uni.registers().len() as u64;

    let before = allocs();
    let mem = NativeMemory::new(HANDLES, uni.registers()).with_owners(uni.owners());
    let ctxs: [_; HANDLES] = std::array::from_fn(|p| mem.ctx(p));
    let handles: [_; HANDLES] = std::array::from_fn(|_| uni.handle());
    let built = allocs() - before;
    drop((ctxs, handles, mem));

    let before = allocs();
    let cells = SwmrFile::new(HANDLES, uni.registers());
    let owners = uni.owners();
    let handles: [_; HANDLES] = std::array::from_fn(|_| uni.handle());
    let direct = allocs() - before;
    drop((cells, owners, handles));

    let budget = direct + MEMORY_BLOCKS + regs;
    println!("a universe build: {built} allocations, budget {budget} (direct {direct}, {regs} registers)");
    assert!(built <= budget, "{built} allocations, budget {budget}");
}
