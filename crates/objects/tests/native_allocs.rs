//! The allocation budget of every native object's op, pinned.
//!
//! Each row of the native object table, on each of its tiers, at two and
//! three processes, with the flight recorder off and always on: every
//! session is warmed by a few rounds of one update and one read, then
//! each op of more such round-robin rounds is counted on its own. A
//! register write copies its value into storage the register already
//! has (`MemCtx::write_from`), and a handle keeps its scratch from one op
//! to the next, so what an op allocates is what it hands out or
//! publishes: an afek snap's `View`, the universal LWW map's log entry
//! (and, at every doubling, the log's next chunk). Every other op
//! allocates nothing.
//!
//! Its own test binary: the counting allocator is process-wide.

use apram_model::FlightMode;
use apram_objects::spec::{native_specs, Args, BuildCtx, OP_READ, OP_UPDATE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s contract is the one being upheld; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Warm-up rounds, then counted ones. One round warms every handle but
/// the universal construction's, which sizes its replay scratch as the
/// other processes' entries reach it: three.
const WARM_ROUNDS: u64 = 3;
const COUNTED_ROUNDS: u64 = 16;

/// The most one op of the named row may allocate: `(update, read)`.
fn budget(name: &str) -> (u64, u64) {
    match name {
        // The view a snap returns.
        "afek" => (0, 1),
        // The entry an op publishes, and a chunk when the process's
        // append-only log crosses into a new one (its chunks double).
        "lwwmap" => (2, 2),
        _ => (0, 0),
    }
}

// One test, so that nothing else allocates while it counts.
#[test]
fn a_warmed_op_allocates_what_it_hands_out() {
    let mut failures = Vec::new();
    for spec in native_specs() {
        let name = spec.name();
        let (update_budget, read_budget) = budget(name);
        // A keyed row's process keeps to one key, which the warm-up puts.
        let keyed = spec.args == Args::KeyValue;
        for &tier in spec.tiers() {
            for procs in [2usize, 3] {
                for flight in [FlightMode::Off, FlightMode::Always] {
                    let b = BuildCtx::new(procs, tier).flight(flight, 1 << 12);
                    let inst = spec.build(&b);
                    let mut sessions: Vec<_> = (0..procs).map(|p| inst.session(p)).collect();
                    let mut worst = (0, 0);
                    for round in 0..WARM_ROUNDS + COUNTED_ROUNDS {
                        for (p, s) in sessions.iter_mut().enumerate() {
                            let v = 10 * round + p as u64;
                            let a = if keyed { p as u64 } else { v };
                            let before = ALLOCS.load(Ordering::Relaxed);
                            std::hint::black_box(s.op(OP_UPDATE, a, v));
                            let mid = ALLOCS.load(Ordering::Relaxed);
                            std::hint::black_box(s.op(OP_READ, a, 0));
                            let after = ALLOCS.load(Ordering::Relaxed);
                            if round >= WARM_ROUNDS {
                                worst.0 = worst.0.max(mid - before);
                                worst.1 = worst.1.max(after - mid);
                            }
                        }
                    }
                    let cell = format!("{name} {} n={procs} {flight:?}", tier.label());
                    println!("{cell}: update {}, read {}", worst.0, worst.1);
                    if worst.0 > update_budget || worst.1 > read_budget {
                        failures.push(format!(
                            "{cell}: update {} (budget {update_budget}), read {} (budget {read_budget})",
                            worst.0, worst.1
                        ));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "over budget:\n{}", failures.join("\n"));
}
