//! The buffered register tier: registers of arbitrary `Clone` width
//! realized without locks.
//!
//! # Single-writer cells ([`SwmrCell`])
//!
//! A SWMR register of arbitrary width is a multi-slot buffer (the
//! triple-buffer idiom, widened to one spare slot per reader): the
//! writer fills a spare slot and then swaps a single `published` index
//! word; readers load the index and clone out of a stable slot. The
//! protocol that keeps a slot stable while a reader clones it:
//!
//! * every process owns an **announce word** per cell; a reader stores
//!   the slot index it is about to clone there *before* re-validating
//!   `published`;
//! * the writer, before filling a slot, scans all announce words and the
//!   currently published index and picks a slot in neither set. With
//!   `n + 1` announce words (one per process plus one for out-of-band
//!   [`SwmrCell::peek`]) and one published slot, `n + 3` slots always
//!   leave one free.
//!
//! Soundness (no torn clone): a reader clones slot `s` only after
//! observing `published == s` *after* its announcement was globally
//! visible (all index traffic is `SeqCst`). Any write that targets `s`
//! either scanned announcements after that point — and saw the
//! announcement, so it avoided `s` — or published in between, in which
//! case the reader's re-validation fails and it retries. The writer is
//! wait-free with exactly `n + 2` index operations plus one value move
//! per write. A reader retries only when a publish lands inside its
//! two-instruction announce window, so reads are lock-free (and
//! wait-free for any writer that is not publishing at that instant);
//! the per-cell [`SwmrCell::retries`] counter measures how often this
//! happens in practice (it is vanishingly rare — the window is two
//! index operations wide).
//!
//! Nothing in that argument depends on *what* the reader does with the
//! slot between validation and clearing its announce word, only on its
//! doing it there: [`SwmrCell::read_with`] runs a caller's closure on
//! the slot by reference where [`SwmrCell::read`] clones it. A reader
//! still holds one announce word, hence at most one slot, for however
//! long the closure runs, so the `n + 3` bound and the writer's
//! wait-freedom are untouched; the word is cleared by a drop guard, so
//! a closure that unwinds pins nothing.
//!
//! # Multi-writer registers ([`MwmrFile`])
//!
//! Multi-writer registers are layered on per-writer SWMR slots exactly
//! as the model's `MwRegister` object does, except the native tier can
//! take its timestamps from a hardware `fetch_add` ticket instead of a
//! collect: `write` draws a ticket and publishes `(ticket, value)` in
//! the writer's own SWMR slot; `read` collects all slots and returns
//! the lexicographically largest `(ticket, writer)` stamp. The ticket
//! draw is the write's linearization point, so overlapping reads by
//! different processes can never disagree on the order of writes.
//!
//! They come as a file, not one by one: a register is its ticket and
//! its initial value, and each writer holds its SWMR cells for the
//! whole file in one array. The file is built with no writer's cells;
//! [`MwmrFile::open`] builds one writer's (the owning memory opens
//! process `p` when it makes `p`'s context, never inside an op). Until
//! then the writer reads as `(0, init)`, the stamp its cells would start
//! from, so a collect passes over it: every ticket-0 stamp holds `init`,
//! and `init` is what a read returns when no writer is open. A reader
//! finds the open writers in an `n`-entry array that stays in its
//! cache, so a collect touches each open writer's cell and nothing of
//! the register on the way.
//!
//! # Loom
//!
//! Under `--cfg loom` the index words and slots switch to `loom`'s
//! instrumented types so the publication ordering can be model-checked;
//! see `crates/model/tests/loom_native.rs` and `vendored/loom`.

#![allow(unsafe_code)]

use super::padded::CachePadded;
use std::sync::OnceLock;

#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One value slot. Mirrors the subset of `loom::cell::UnsafeCell`'s
/// closure API this module uses, so the same protocol code compiles
/// against raw `std` cells and against loom's instrumented ones.
struct Slot<T> {
    #[cfg(loom)]
    cell: loom::cell::UnsafeCell<T>,
    #[cfg(not(loom))]
    cell: std::cell::UnsafeCell<T>,
}

impl<T> Slot<T> {
    fn new(value: T) -> Self {
        Slot {
            #[cfg(loom)]
            cell: loom::cell::UnsafeCell::new(value),
            #[cfg(not(loom))]
            cell: std::cell::UnsafeCell::new(value),
        }
    }

    /// Run `f` on a shared pointer to the contents.
    fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        #[cfg(loom)]
        {
            self.cell.with(f)
        }
        #[cfg(not(loom))]
        {
            f(self.cell.get())
        }
    }

    /// Run `f` on an exclusive pointer to the contents.
    fn with_mut(&self, f: impl FnOnce(*mut T)) {
        #[cfg(loom)]
        {
            self.cell.with_mut(f)
        }
        #[cfg(not(loom))]
        {
            f(self.cell.get())
        }
    }
}

/// Announce-word sentinel: "not reading any slot".
const NONE: usize = usize::MAX;

/// The most processes a buffered-tier memory serves: a cell's writer
/// tracks its `n + 3` slots in one `u64` bitmask.
pub const MAX_PROCS: usize = 61;

/// Panics unless a cell's writer can track `n + 3` slots in its `u64`.
fn check_procs(n_procs: usize) {
    assert!(
        n_procs <= MAX_PROCS,
        "buffered cells track free slots in a u64 bitmask: at most {MAX_PROCS} processes"
    );
}

/// A single-writer multi-reader register of arbitrary `Clone` width.
///
/// Constructed per register by the buffered tier; the single-writer
/// discipline is enforced by the owning memory, not here.
pub struct SwmrCell<T> {
    /// `n + 3` value slots.
    slots: Box<[Slot<T>]>,
    /// Index of the slot holding the current value.
    published: CachePadded<AtomicUsize>,
    /// Per-process announce words (`announce[n]` backs [`SwmrCell::peek`]).
    announce: Box<[CachePadded<AtomicUsize>]>,
    /// Claims the peek announce word (peek is an out-of-band audit API).
    peek_claim: AtomicBool,
    /// Reader validation retries (one publish landed inside the window).
    retries: AtomicU64,
}

// Readers clone `&T` out of slots from many threads and the writer moves
// values in from its own; the announce/validate protocol above proves the
// two never overlap on a slot, which is exactly the `Send + Sync` contract.
unsafe impl<T: Send> Send for SwmrCell<T> {}
unsafe impl<T: Send + Sync> Sync for SwmrCell<T> {}

impl<T: Clone> SwmrCell<T> {
    /// A cell for `n_procs` processes holding `init`.
    pub fn new(n_procs: usize, init: T) -> Self {
        check_procs(n_procs);
        // `n + 2` clones, and `init` itself in the last slot.
        let mut slots = Vec::with_capacity(n_procs + 3);
        slots.extend((0..n_procs + 2).map(|_| Slot::new(init.clone())));
        slots.push(Slot::new(init));
        SwmrCell {
            slots: slots.into_boxed_slice(),
            published: CachePadded::new(AtomicUsize::new(0)),
            announce: (0..n_procs + 1)
                .map(|_| CachePadded::new(AtomicUsize::new(NONE)))
                .collect(),
            peek_claim: AtomicBool::new(false),
            retries: AtomicU64::new(0),
        }
    }

    /// Publish `val`. Must only be called by the cell's single writer
    /// (enforced by the owning memory). Wait-free: one announce scan,
    /// one value move, one index store.
    pub fn write(&self, val: T) {
        let _ = self.write_traced(val);
    }

    /// [`SwmrCell::write`], reporting which slot the announce scan
    /// chose (the flight recorder's slot-choice event).
    pub fn write_traced(&self, val: T) -> usize {
        self.write_via(|slot| *slot = val)
    }

    /// Publish a copy of `*val`, made in the chosen slot's own storage
    /// with `clone_from`; reports the slot like
    /// [`SwmrCell::write_traced`].
    pub fn write_from(&self, val: &T) -> usize {
        self.write_via(|slot| slot.clone_from(val))
    }

    /// The one write: choose a free slot, let `fill` put the new value
    /// there, publish it; returns the slot. `fill` is handed the slot's
    /// previous content — some value this cell held earlier, or a copy
    /// of the initial one — to overwrite or to reuse; it must leave the
    /// value to publish and do nothing else (bounded local work, like
    /// [`SwmrCell::read_with`]'s closure). The slot is neither the
    /// published one nor announced by any reader, so nobody else can
    /// reach it until the index store.
    pub fn write_via(&self, fill: impl FnOnce(&mut T)) -> usize {
        // Only this writer stores `published`, so a relaxed load reads
        // back its own last publish.
        let mut used: u64 = 1 << self.published.load(Ordering::Relaxed);
        for a in self.announce.iter() {
            let s = a.load(Ordering::SeqCst);
            if s != NONE {
                used |= 1 << s;
            }
        }
        let free = (!used).trailing_zeros() as usize;
        debug_assert!(free < self.slots.len(), "slot accounting broken");
        // SAFETY: `free` is not published and no reader announced it
        // before the scan above; a reader that announces it later fails
        // its re-validation (`published != free` until the store below).
        // The single writer is the only one to write slots, so the
        // exclusive reference is alone for as long as `fill` runs.
        self.slots[free].with_mut(|p| fill(unsafe { &mut *p }));
        self.published.store(free, Ordering::SeqCst);
        free
    }

    /// Read as process `proc`.
    pub fn read(&self, proc: usize) -> T {
        self.read_via(proc, |v, _| v.clone())
    }

    /// [`SwmrCell::read`], reporting how many validation retries this
    /// read performed (the flight recorder's read-retry event; also
    /// accumulated into [`SwmrCell::retries`]).
    pub fn read_traced(&self, proc: usize) -> (T, u64) {
        self.read_via(proc, |v, retries| (v.clone(), retries))
    }

    /// Read as process `proc` without cloning: `f` runs on the published
    /// slot itself, after validation and before the announce word is
    /// cleared. The same protocol as [`SwmrCell::read`] with the clone
    /// replaced by `f` — still one announce word per reader, so the
    /// `n + 3` slot bound and the writer's wait-freedom stand however
    /// long `f` runs; the reference cannot outlive the call. Beside the
    /// slot, `f` is handed the validation retries this read performed
    /// (what [`SwmrCell::read_traced`] returns): known once the slot is
    /// pinned, so nothing has to be carried across `f` to report it.
    pub fn read_with<R>(&self, proc: usize, f: impl FnOnce(&T, u64) -> R) -> R {
        self.read_via(proc, f)
    }

    fn read_via<R>(&self, announce_idx: usize, f: impl FnOnce(&T, u64) -> R) -> R {
        /// Clears the announce word on every way out of `f`, unwinding
        /// included: a panicking closure must not leave a slot pinned.
        struct Announced<'a>(&'a AtomicUsize);
        impl Drop for Announced<'_> {
            fn drop(&mut self) {
                self.0.store(NONE, Ordering::Release);
            }
        }
        let a = &self.announce[announce_idx];
        let mut tries = 0u64;
        loop {
            let p = self.published.load(Ordering::SeqCst);
            a.store(p, Ordering::SeqCst);
            if self.published.load(Ordering::SeqCst) == p {
                let _announced = Announced(a);
                // SAFETY: our announcement of `p` was visible before we
                // saw `published == p`, so every later slot choice
                // avoids `p` until `_announced` clears the word — after
                // `f` returns or unwinds. Nobody writes the slot while
                // the shared reference lives.
                return self.slots[p].with(|q| f(unsafe { &*q }, tries));
            }
            tries += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read from outside any process (test assertions, audits). Claims
    /// the dedicated peek announce word; concurrent peeks serialize on
    /// the claim (this path is *not* part of the register-access
    /// protocol and makes no wait-freedom promise).
    pub fn peek(&self) -> T {
        while self
            .peek_claim
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            #[cfg(loom)]
            loom::thread::yield_now();
            #[cfg(not(loom))]
            std::hint::spin_loop();
        }
        let v = self.read_via(self.announce.len() - 1, |v, _| v.clone());
        self.peek_claim.store(false, Ordering::Release);
        v
    }

    /// The current value, through exclusive access (no protocol needed).
    pub fn value_mut(&mut self) -> T {
        let p = self.published.load(Ordering::SeqCst);
        self.slots[p].with(|q| unsafe { (*q).clone() })
    }

    /// How many reader validation retries this cell has seen.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// A `(ticket, value)` stamp held in one writer's SWMR slot.
#[derive(Clone)]
struct Stamp<T> {
    ticket: u64,
    value: T,
}

/// One multi-writer register's own state: the ticket its writes draw
/// and the value it was built with.
struct MwmrHead<T> {
    ticket: AtomicU64,
    init: T,
}

/// A file of multi-writer multi-reader registers, layered on per-writer
/// [`SwmrCell`]s with a hardware ticket per register for timestamps. A
/// writer's cells are built by [`MwmrFile::open`]; until then the
/// writer reads as `(ticket 0, init)` in every register.
pub struct MwmrFile<T> {
    heads: Box<[CachePadded<MwmrHead<T>>]>,
    /// Per writer, its cells, once opened.
    writers: Box<[OnceLock<WriterCells<T>>]>,
}

/// One writer's SWMR cell in every register of an [`MwmrFile`].
type WriterCells<T> = Box<[SwmrCell<Stamp<T>>]>;

impl<T: Clone> MwmrFile<T> {
    /// A file of registers holding `init`, for `n_procs` processes, with
    /// no writer opened. The process ceiling is checked here, not at the
    /// first [`MwmrFile::open`].
    pub fn new(n_procs: usize, init: Vec<T>) -> Self {
        check_procs(n_procs);
        MwmrFile {
            heads: init
                .into_iter()
                .map(|init| {
                    CachePadded::new(MwmrHead {
                        ticket: AtomicU64::new(0),
                        init,
                    })
                })
                .collect(),
            writers: (0..n_procs).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the file has no register.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Build writer `proc`'s SWMR cell in every register, holding the
    /// register's `init` at ticket 0, if they are not built yet. A write
    /// by `proc` needs them; a read does not.
    pub fn open(&self, proc: usize) {
        self.writers[proc].get_or_init(|| {
            let n_procs = self.writers.len();
            (self.heads.iter())
                .map(|h| {
                    let stamp = Stamp {
                        ticket: 0,
                        value: h.init.clone(),
                    };
                    SwmrCell::new(n_procs, stamp)
                })
                .collect()
        });
    }

    /// Write `val` to register `reg` as process `proc`, which must be
    /// open. The ticket draw is the linearization point.
    pub fn write(&self, proc: usize, reg: usize, val: T) {
        let _ = self.write_traced(proc, reg, val);
    }

    /// [`MwmrFile::write`], reporting the ticket drawn and the slot the
    /// writer's own SWMR cell chose (the flight recorder's ticket-draw
    /// and slot-choice events).
    pub fn write_traced(&self, proc: usize, reg: usize, val: T) -> (u64, usize) {
        let cells = self.writers[proc]
            .get()
            .unwrap_or_else(|| panic!("writer {proc} of a multi-writer file is not open"));
        let ticket = self.heads[reg].ticket.fetch_add(1, Ordering::SeqCst) + 1;
        let slot = cells[reg].write_traced(Stamp { ticket, value: val });
        (ticket, slot)
    }

    /// Total tickets ever drawn (= completed or in-flight writes).
    pub fn tickets(&self) -> u64 {
        (self.heads.iter())
            .map(|h| h.ticket.load(Ordering::Relaxed))
            .sum()
    }

    /// Read register `reg` as process `proc`: collect every open
    /// writer's cell, return the value with the largest
    /// `(ticket, writer)` stamp.
    pub fn read(&self, proc: usize, reg: usize) -> T {
        self.collect(reg, |cell| cell.read(proc))
    }

    /// [`MwmrFile::read`], reporting the summed validation retries of
    /// the per-writer slot reads the collect performed.
    pub fn read_traced(&self, proc: usize, reg: usize) -> (T, u64) {
        let mut retries = 0;
        let v = self.collect(reg, |cell| {
            let (s, r) = cell.read_traced(proc);
            retries += r;
            s
        });
        (v, retries)
    }

    /// Read register `reg` from outside any process (see
    /// [`SwmrCell::peek`]).
    pub fn peek(&self, reg: usize) -> T {
        self.collect(reg, SwmrCell::peek)
    }

    fn collect(&self, reg: usize, mut read: impl FnMut(&SwmrCell<Stamp<T>>) -> Stamp<T>) -> T {
        let mut best: Option<Stamp<T>> = None;
        // An unopened writer is skipped: it reads as `(0, init)`, and
        // every ticket-0 stamp holds `init`, so it wins nothing that an
        // open writer's stamp or the fallback below does not give. `>=`
        // lets later writers win ticket ties, which only occur at 0.
        for cells in self.writers.iter().filter_map(OnceLock::get) {
            let s = read(&cells[reg]);
            if best.as_ref().is_none_or(|b| s.ticket >= b.ticket) {
                best = Some(s);
            }
        }
        best.map_or_else(|| self.heads[reg].init.clone(), |s| s.value)
    }

    /// Every register's current value, taking the file apart: a
    /// register's `init` moved out when no writer was opened, else its
    /// largest stamp's value.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        let mut writers = self.writers;
        (self.heads.into_vec().into_iter())
            .enumerate()
            .map(move |(reg, head)| {
                let mut best: Option<Stamp<T>> = None;
                for cells in writers.iter_mut().filter_map(OnceLock::get_mut) {
                    let s = cells[reg].value_mut();
                    if best.as_ref().is_none_or(|b| s.ticket >= b.ticket) {
                        best = Some(s);
                    }
                }
                best.map_or(head.into_inner().init, |s| s.value)
            })
    }

    /// Total reader validation retries across the open writers' cells.
    pub fn retries(&self) -> u64 {
        (self.writers.iter().filter_map(OnceLock::get))
            .flat_map(|cells| cells.iter().map(SwmrCell::retries))
            .sum()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn swmr_single_thread_roundtrip() {
        let c = SwmrCell::new(2, vec![0u8]);
        assert_eq!(c.read(0), vec![0]);
        c.write(vec![1, 2, 3]);
        assert_eq!(c.read(1), vec![1, 2, 3]);
        assert_eq!(c.peek(), vec![1, 2, 3]);
        c.write(vec![4]);
        assert_eq!(c.read(0), vec![4]);
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn swmr_value_mut_sees_last_publish() {
        let mut c = SwmrCell::new(1, String::from("a"));
        c.write(String::from("b"));
        assert_eq!(c.value_mut(), "b");
    }

    /// The writer cycles through slots but never more than the bound.
    #[test]
    fn swmr_writer_reuses_slots() {
        let c = SwmrCell::new(1, 0u64);
        for i in 0..100 {
            c.write(i);
            assert_eq!(c.read(0), i);
        }
        assert_eq!(c.slots.len(), 4);
    }

    /// One writer, many readers, arbitrary-width (heap) values: readers
    /// must never observe a torn clone. Sized down under miri, where
    /// this doubles as the UB check on the unsafe slot accesses.
    #[test]
    fn swmr_readers_never_tear() {
        #[cfg(miri)]
        const WRITES: u64 = 60;
        #[cfg(not(miri))]
        const WRITES: u64 = 20_000;
        let n_readers = 3;
        let c = SwmrCell::new(n_readers + 1, vec![0u64; 8]);
        std::thread::scope(|s| {
            for r in 0..n_readers {
                let c = &c;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..WRITES {
                        let v = c.read(r);
                        // Every slot write is `vec![k; 8]`: a torn clone
                        // would mix ks or break the length.
                        assert_eq!(v.len(), 8);
                        assert!(v.iter().all(|&x| x == v[0]), "torn value {v:?}");
                        assert!(v[0] >= last, "stale value after fresher one");
                        last = v[0];
                    }
                });
            }
            let c = &c;
            s.spawn(move || {
                for k in 1..=WRITES {
                    c.write(vec![k; 8]);
                }
            });
        });
        assert_eq!(c.peek(), vec![WRITES; 8]);
    }

    /// The borrowed read under the same traffic: the closure looks at
    /// the slot in place, twice with the writer given room in between —
    /// an announced slot must not change under it. Sized down under
    /// miri like the test above.
    #[test]
    fn swmr_borrowed_readers_never_tear() {
        #[cfg(miri)]
        const WRITES: u64 = 60;
        #[cfg(not(miri))]
        const WRITES: u64 = 20_000;
        let n_readers = 3;
        let c = SwmrCell::new(n_readers + 1, vec![0u64; 8]);
        std::thread::scope(|s| {
            for r in 0..n_readers {
                let c = &c;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..WRITES {
                        last = c.read_with(r, |v, _| {
                            let first = v[0];
                            assert!(first >= last, "stale value after fresher one");
                            std::thread::yield_now();
                            assert_eq!(v.len(), 8);
                            assert!(v.iter().all(|&x| x == first), "slot changed: {v:?}");
                            first
                        });
                    }
                });
            }
            let c = &c;
            s.spawn(move || {
                for k in 1..=WRITES {
                    c.write(vec![k; 8]);
                }
            });
        });
        assert_eq!(c.read_with(0, |v, retries| (v[0], retries)), (WRITES, 0));
    }

    /// A closure that unwinds leaves no slot pinned: the announce word
    /// is cleared on the way out, and the retry count is untouched.
    #[test]
    fn swmr_borrowed_read_unpins_when_the_closure_unwinds() {
        let c = SwmrCell::new(1, String::from("a"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.read_with(0, |v, _| assert_eq!(v, "not a"));
        }));
        assert!(unwound.is_err());
        assert_eq!(c.announce[0].load(Ordering::SeqCst), NONE);
        // The writer gets the borrowed slot (0, the initial one) back.
        let slots = ["b", "c", "d"].map(|v| c.write_traced(v.into()));
        assert!(slots.contains(&0), "{slots:?}");
        assert_eq!(c.read(0), "d");
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn mwmr_ticket_order_wins() {
        let f = MwmrFile::new(3, vec![0i64, -1]);
        assert_eq!(f.read(0, 0), 0);
        (0..3).for_each(|p| f.open(p));
        f.write(1, 0, 10);
        f.write(2, 0, 20);
        assert_eq!(f.read(0, 0), 20, "later ticket wins");
        f.write(0, 0, 30);
        assert_eq!((f.peek(0), f.peek(1)), (30, -1));
        assert_eq!(f.tickets(), 3);
        assert_eq!(f.into_values().collect::<Vec<_>>(), [30, -1]);
    }

    /// A writer's cells exist only once it is opened: before that it
    /// reads as the initial value, a write through it panics, and a file
    /// taken apart with no writer open hands each `init` back itself.
    #[test]
    fn mwmr_unopened_writers_read_as_init() {
        let f = MwmrFile::new(2, vec![String::from("init")]);
        assert_eq!(
            (f.read(0, 0), f.peek(0), f.retries()),
            ("init".into(), "init".into(), 0)
        );
        let init_at = f.heads[0].init.as_ptr();
        let values: Vec<_> = f.into_values().collect();
        assert_eq!(values[0].as_ptr(), init_at, "init was not moved out");

        let f = MwmrFile::new(2, vec![String::from("init")]);
        f.open(1);
        assert_eq!(f.read(0, 0), "init");
        let unopened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.write(0, 0, "lost".into());
        }));
        assert!(unopened.is_err());
        assert_eq!(f.tickets(), 0, "a refused write drew a ticket");
        f.write(1, 0, "one".into());
        assert_eq!(f.read(0, 0), "one");
        assert_eq!(f.into_values().collect::<Vec<_>>(), ["one"]);
    }

    #[test]
    #[should_panic(expected = "at most 61 processes")]
    fn mwmr_checks_the_process_ceiling_when_built() {
        let _ = MwmrFile::<u64>::new(MAX_PROCS + 1, Vec::new());
    }

    /// Concurrent multi-writer traffic: the final value must be the one
    /// holding the highest ticket, and readers must always see values
    /// that some write actually produced.
    #[test]
    fn mwmr_concurrent_writers_converge() {
        #[cfg(miri)]
        const PER: u64 = 20;
        #[cfg(not(miri))]
        const PER: u64 = 2_000;
        let n = 4;
        let f = MwmrFile::new(n, vec![(usize::MAX, 0u64)]);
        std::thread::scope(|s| {
            for p in 0..n {
                let f = &f;
                s.spawn(move || {
                    // Opened while the other writers write and collect.
                    f.open(p);
                    for k in 0..PER {
                        f.write(p, 0, (p, k));
                        let (wp, wk) = f.read(p, 0);
                        assert!(wp == usize::MAX || wp < n);
                        assert!(wk <= PER, "impossible payload {wk}");
                    }
                });
            }
        });
        let (p, k) = f.peek(0);
        assert!(
            p < n && k == PER - 1,
            "final value {p}/{k} not a last write"
        );
    }
}
