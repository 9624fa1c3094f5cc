//! The bytes of the buffered tier's cells, pinned.
//!
//! Opening a writer of a multi-writer file builds that writer's cell in
//! every register. A cell is its slots and its `published` index; the
//! announce words its readers use belong to the file, built once with
//! it. So opening a writer makes two kinds of block and no third: the
//! cell array (128-aligned, for `published`'s padded line) and one slot
//! box per cell. While every cell held `n + 1` padded announce words of
//! its own, opening a writer also made one `(n + 1)·128`-byte,
//! 128-aligned block per cell — 2 176 bytes a register at n = 16, three
//! in every four bytes a served `lwwmap-direct` slot cost.
//!
//! Its own test binary: the counting allocator is the global one. It
//! counts per thread, so the test counts only what it allocates.

use apram_model::native::buffered::MwmrFile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread has allocated: blocks, bytes, and blocks aligned
/// above the allocator's natural 16.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Allocs {
    blocks: u64,
    bytes: u64,
    aligned: u64,
}

thread_local! {
    // `const` and free of drop glue: reading it never allocates.
    static ALLOCS: Cell<Allocs> = const {
        Cell::new(Allocs { blocks: 0, bytes: 0, aligned: 0 })
    };
}

fn allocs() -> Allocs {
    ALLOCS.with(Cell::get)
}

fn count(layout: Layout) {
    ALLOCS.with(|a| {
        let mut now = a.get();
        now.blocks += 1;
        now.bytes += layout.size() as u64;
        now.aligned += u64::from(layout.align() > 16);
        a.set(now);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s contract is the one being upheld; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).expect("a valid layout"));
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One writer of a 4 096-register file of `Option<u64>` at n = 16, the
/// register file of one shard of a served `lwwmap-direct` at 16 slots.
#[test]
fn opening_a_writer_builds_its_cells_and_their_slots_only() {
    const REGS: u64 = 4096;
    const PROCS: u64 = 16;
    // `size_of::<SwmrCell<Stamp<Option<u64>>>>()`: the slots' box
    // pointer (16) and the retry count (8) beside `published`'s 128-byte
    // padded line, rounded up to its 128-byte alignment.
    const CELL: u64 = 256;
    // A slot holds a stamp: its ticket (8) and the `Option<u64>` (16).
    const SLOT: u64 = 24;

    let file = MwmrFile::new(PROCS as usize, vec![None::<u64>; REGS as usize]);
    let before = allocs();
    file.open(0);
    let after = allocs();
    let opened = Allocs {
        blocks: after.blocks - before.blocks,
        bytes: after.bytes - before.bytes,
        aligned: after.aligned - before.aligned,
    };
    println!(
        "opening one writer: {opened:?}, {} bytes a register",
        opened.bytes / REGS
    );
    assert_eq!(
        opened,
        Allocs {
            // The cell array, and one slot box per cell.
            blocks: 1 + REGS,
            bytes: REGS * CELL + REGS * (PROCS + 3) * SLOT,
            // The cell array alone.
            aligned: 1,
        }
    );
}
