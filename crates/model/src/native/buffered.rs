//! The buffered register tier: registers of arbitrary `Clone` width
//! realized without locks.
//!
//! # Single-writer cells ([`SwmrFile`])
//!
//! A SWMR register of arbitrary width is a multi-slot buffer (the
//! triple-buffer idiom, widened to one spare slot per reader): the
//! writer fills a spare slot and then swaps a single `published` index
//! word; readers load the index and use a stable slot. What keeps a slot
//! stable while a reader uses it is the index protocol of
//! `native/index.rs`, written once over the words it touches:
//!
//! * every process owns one **announce word** in the memory, shared by
//!   all the memory's cells; a reader stores the cell and slot it is
//!   about to use there *before* re-validating `published`;
//! * the writer, before filling a slot, scans all announce words and the
//!   currently published index and picks a slot announced under neither
//!   its cell's key nor published. With `n + 1` announce words (one per
//!   process plus one for out-of-band peeks) and one published slot,
//!   `n + 3` slots always leave one free.
//!
//! The soundness argument is in `native/index.rs`. The writer is
//! wait-free with exactly `n + 2` index operations plus one value move
//! per write. A reader retries only when a publish lands inside its
//! two-instruction announce window, so reads are lock-free (and
//! wait-free for any writer that is not publishing at that instant);
//! the per-cell retry counter ([`SwmrFile::retries`] sums it) measures
//! how often this happens in practice (it is vanishingly rare — the
//! window is two index operations wide).
//!
//! Nothing in that argument depends on *what* the reader does with the
//! slot between validation and clearing its announce word, only on its
//! doing it there: [`SwmrFile::read_with`] runs a caller's closure on
//! the slot by reference where [`SwmrFile::read`] clones it. A reader
//! still holds one announce word, hence at most one slot, for however
//! long the closure runs, so the `n + 3` bound and the writer's
//! wait-freedom are untouched; the word is cleared by a drop guard, so
//! a closure that unwinds pins nothing. One word per process serves the
//! whole memory because a process reads one register at a time: the
//! owning memory gives each process one context, and a borrowed read's
//! closure cannot reach it.
//!
//! A cell holds only its slots, its `published` word and its retry
//! count; the announce words belong to the file ([`SwmrFile`],
//! [`MwmrFile`]), so a register costs the same announce bytes at any `n`.
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
//! the register on the way. Writer `w`'s cell of register `r` is keyed
//! `w · len + r` in the file's announce words.
//!
//! # Loom
//!
//! Under `--cfg loom` the index words and slots switch to `loom`'s
//! instrumented types so the publication ordering can be model-checked;
//! see `crates/model/tests/loom_native.rs` and `vendored/loom`.

#![allow(unsafe_code)]

use super::index::{self, IndexWords};
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

/// Panics unless each of `cells` cells can have an announce key.
fn check_keys(cells: usize) {
    assert!(
        cells <= index::MAX_KEYS,
        "announce words name at most {} cells",
        index::MAX_KEYS
    );
}

/// One memory's announce words: one per process, and the last for
/// [`Announce::peek`].
struct Announce {
    words: Box<[CachePadded<AtomicUsize>]>,
    /// Claims the peek word (peek is an out-of-band audit API).
    peek_claim: AtomicBool,
}

impl Announce {
    /// The words of a memory shared by `n_procs` processes.
    fn new(n_procs: usize) -> Self {
        Announce {
            words: (0..n_procs + 1)
                .map(|_| CachePadded::new(AtomicUsize::new(index::NONE)))
                .collect(),
            peek_claim: AtomicBool::new(false),
        }
    }

    /// Run `f` on the peek word's index, claimed for the call.
    /// Concurrent peeks serialize on the claim (this path is *not* part
    /// of the register-access protocol and makes no wait-freedom
    /// promise).
    fn peek<R>(&self, f: impl FnOnce(usize) -> R) -> R {
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
        let r = f(self.words.len() - 1);
        self.peek_claim.store(false, Ordering::Release);
        r
    }
}

/// One cell's index words on atomics, at the protocol's orderings: all
/// index traffic `SeqCst`, a clear `Release`.
struct Atomics<'a> {
    words: &'a [CachePadded<AtomicUsize>],
    published: &'a AtomicUsize,
}

impl IndexWords for Atomics<'_> {
    #[inline]
    fn words(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn load_word(&mut self, i: usize) -> usize {
        self.words[i].load(Ordering::SeqCst)
    }

    #[inline]
    fn announce(&mut self, i: usize, word: usize) {
        self.words[i].store(word, Ordering::SeqCst);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i].store(index::NONE, Ordering::Release);
    }

    #[inline]
    fn published(&mut self) -> usize {
        self.published.load(Ordering::SeqCst)
    }

    /// Only the writer stores `published`, so a relaxed load reads back
    /// its own last publish.
    #[inline]
    fn own_published(&mut self) -> usize {
        self.published.load(Ordering::Relaxed)
    }

    #[inline]
    fn publish(&mut self, slot: usize) {
        self.published.store(slot, Ordering::SeqCst);
    }
}

/// A single-writer multi-reader register of arbitrary `Clone` width:
/// `n + 3` value slots and the index of the published one. The announce
/// words it is read through belong to its file ([`SwmrFile`],
/// [`MwmrFile`]), which also enforces nothing of the single-writer
/// discipline: the owning memory does.
struct SwmrCell<T> {
    /// `n + 3` value slots.
    slots: Box<[Slot<T>]>,
    /// Index of the slot holding the current value.
    published: CachePadded<AtomicUsize>,
    /// Reader validation retries (one publish landed inside the window).
    retries: AtomicU64,
}

// Readers use `&T` in slots from many threads and the writer moves
// values in from its own; the index protocol proves the two never
// overlap on a slot, which is exactly the `Send + Sync` contract.
unsafe impl<T: Send> Send for SwmrCell<T> {}
unsafe impl<T: Send + Sync> Sync for SwmrCell<T> {}

impl<T: Clone> SwmrCell<T> {
    /// A cell for `n_procs` processes holding `init`.
    fn new(n_procs: usize, init: T) -> Self {
        // `n + 2` clones, and `init` itself in the last slot.
        let mut slots = Vec::with_capacity(n_procs + 3);
        slots.extend((0..n_procs + 2).map(|_| Slot::new(init.clone())));
        slots.push(Slot::new(init));
        SwmrCell {
            slots: slots.into_boxed_slice(),
            published: CachePadded::new(AtomicUsize::new(0)),
            retries: AtomicU64::new(0),
        }
    }

    fn index<'a>(&'a self, announce: &'a Announce) -> Atomics<'a> {
        Atomics {
            words: &announce.words,
            published: &self.published,
        }
    }

    /// The one write, as the cell's single writer, keyed `key` in
    /// `announce`: choose a free slot, let `fill` put the new value
    /// there, publish it; returns the slot. `fill` is handed the slot's
    /// previous content — some value this cell held earlier, or a copy
    /// of the initial one — to overwrite or to reuse; it must leave the
    /// value to publish and do nothing else (bounded local work, like a
    /// borrowed read's closure). The slot is neither the published one
    /// nor announced for this cell, so nobody else can reach it until
    /// the index store.
    fn write_via(&self, announce: &Announce, key: usize, fill: impl FnOnce(&mut T)) -> usize {
        let mut w = self.index(announce);
        let free = index::free_slot(&mut w, key);
        debug_assert!(free < self.slots.len(), "slot accounting broken");
        // SAFETY: `free` is not published and no reader announced it
        // under this cell's key before the scan; a reader that announces
        // it later fails its re-validation (`published != free` until
        // the publish below). The single writer is the only one to write
        // slots, so the exclusive reference is alone for as long as
        // `fill` runs.
        self.slots[free].with_mut(|p| fill(unsafe { &mut *p }));
        w.publish(free);
        free
    }

    /// Read as the process owning announce word `me`, keyed `key`: `f`
    /// runs on the published slot itself, after validation and before
    /// the word is cleared, and is handed the validation retries this
    /// read performed (also added to the cell's count).
    fn read_via<R>(
        &self,
        announce: &Announce,
        key: usize,
        me: usize,
        f: impl FnOnce(&T, u64) -> R,
    ) -> R {
        /// Clears the announce word on every way out of `f`, unwinding
        /// included: a panicking closure must not leave a slot pinned.
        struct Pinned<'a>(Atomics<'a>, usize);
        impl Drop for Pinned<'_> {
            fn drop(&mut self) {
                index::unpin(&mut self.0, self.1);
            }
        }
        let mut w = self.index(announce);
        let (p, retries) = index::pin(&mut w, key, me);
        let _pinned = Pinned(w, me);
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
        }
        // SAFETY: our announcement of this cell's `p` was visible before
        // we saw `published == p`, so every later slot choice of this
        // cell avoids `p` until `_pinned` clears the word — after `f`
        // returns or unwinds. Nobody writes the slot while the shared
        // reference lives.
        self.slots[p].with(|q| f(unsafe { &*q }, retries))
    }

    /// The current value, through exclusive access (no protocol needed).
    fn value_mut(&mut self) -> T {
        let p = self.published.load(Ordering::SeqCst);
        // SAFETY: `&mut self` excludes the writer and every reader, so
        // nothing else accesses the slot while it is cloned.
        self.slots[p].with(|q| unsafe { (*q).clone() })
    }

    /// How many reader validation retries this cell has seen.
    fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// A file of single-writer registers: one SWMR cell per register,
/// keyed by its index, and the announce words its readers share. The
/// single-writer discipline is the owning memory's to enforce.
pub struct SwmrFile<T> {
    cells: Box<[SwmrCell<T>]>,
    announce: Announce,
}

impl<T: Clone> SwmrFile<T> {
    /// A file of registers holding `init`, for `n_procs` processes.
    pub fn new(n_procs: usize, init: impl IntoIterator<Item = T>) -> Self {
        check_procs(n_procs);
        let cells: Box<[_]> = (init.into_iter())
            .map(|v| SwmrCell::new(n_procs, v))
            .collect();
        check_keys(cells.len());
        SwmrFile {
            cells,
            announce: Announce::new(n_procs),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the file has no register.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Publish `val` in register `reg`. Must only be called by the
    /// register's single writer (enforced by the owning memory).
    /// Wait-free: one announce scan, one value move, one index store.
    pub fn write(&self, reg: usize, val: T) {
        let _ = self.write_traced(reg, val);
    }

    /// [`SwmrFile::write`], reporting which slot the announce scan chose
    /// (the flight recorder's slot-choice event).
    pub fn write_traced(&self, reg: usize, val: T) -> usize {
        self.write_via(reg, |slot| *slot = val)
    }

    /// Publish a copy of `*val`, made in the chosen slot's own storage
    /// with `clone_from`; reports the slot like
    /// [`SwmrFile::write_traced`].
    pub fn write_from(&self, reg: usize, val: &T) -> usize {
        self.write_via(reg, |slot| slot.clone_from(val))
    }

    /// The one write of register `reg`: choose a free slot, let `fill`
    /// put the new value there — over the slot's previous content, some
    /// value the register held earlier — and publish it; returns the
    /// slot. `fill` must be bounded local work.
    pub fn write_via(&self, reg: usize, fill: impl FnOnce(&mut T)) -> usize {
        self.cells[reg].write_via(&self.announce, reg, fill)
    }

    /// Read register `reg` as process `proc`.
    pub fn read(&self, proc: usize, reg: usize) -> T {
        self.read_with(proc, reg, |v, _| v.clone())
    }

    /// [`SwmrFile::read`], reporting how many validation retries this
    /// read performed (the flight recorder's read-retry event; also
    /// accumulated into [`SwmrFile::retries`]).
    pub fn read_traced(&self, proc: usize, reg: usize) -> (T, u64) {
        self.read_with(proc, reg, |v, retries| (v.clone(), retries))
    }

    /// Read register `reg` as process `proc` without cloning: `f` runs
    /// on the published slot itself, after validation and before the
    /// announce word is cleared. The same protocol as
    /// [`SwmrFile::read`] with the clone replaced by `f` — still one
    /// announce word per reader, so the `n + 3` slot bound and the
    /// writer's wait-freedom stand however long `f` runs; the reference
    /// cannot outlive the call. Beside the slot, `f` is handed the
    /// validation retries this read performed (what
    /// [`SwmrFile::read_traced`] returns): known once the slot is
    /// pinned, so nothing has to be carried across `f` to report it.
    pub fn read_with<R>(&self, proc: usize, reg: usize, f: impl FnOnce(&T, u64) -> R) -> R {
        self.cells[reg].read_via(&self.announce, reg, proc, f)
    }

    /// Read register `reg` from outside any process (test assertions,
    /// audits), through the claimed peek word.
    pub fn peek(&self, reg: usize) -> T {
        (self.announce)
            .peek(|me| self.cells[reg].read_via(&self.announce, reg, me, |v, _| v.clone()))
    }

    /// Total reader validation retries across the file's cells.
    pub fn retries(&self) -> u64 {
        self.cells.iter().map(SwmrCell::retries).sum()
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
/// SWMR cells with a hardware ticket per register for timestamps. A
/// writer's cells are built by [`MwmrFile::open`]; until then the
/// writer reads as `(ticket 0, init)` in every register.
pub struct MwmrFile<T> {
    heads: Box<[CachePadded<MwmrHead<T>>]>,
    /// Per writer, its cells, once opened.
    writers: Box<[OnceLock<WriterCells<T>>]>,
    /// The announce words every writer's cells share.
    announce: Announce,
}

/// One writer's SWMR cell in every register of an [`MwmrFile`].
type WriterCells<T> = Box<[SwmrCell<Stamp<T>>]>;

impl<T: Clone> MwmrFile<T> {
    /// A file of registers holding `init`, for `n_procs` processes, with
    /// no writer opened. The process ceiling is checked here, not at the
    /// first [`MwmrFile::open`].
    pub fn new(n_procs: usize, init: Vec<T>) -> Self {
        check_procs(n_procs);
        check_keys(init.len().saturating_mul(n_procs));
        MwmrFile {
            announce: Announce::new(n_procs),
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

    /// The announce key of writer `proc`'s cell of register `reg`.
    fn key(&self, proc: usize, reg: usize) -> usize {
        proc * self.heads.len() + reg
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
        let stamp = Stamp { ticket, value: val };
        let slot = cells[reg].write_via(&self.announce, self.key(proc, reg), |s| *s = stamp);
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
        self.read_traced(proc, reg).0
    }

    /// [`MwmrFile::read`], reporting the summed validation retries of
    /// the per-writer slot reads the collect performed.
    pub fn read_traced(&self, proc: usize, reg: usize) -> (T, u64) {
        let mut retries = 0;
        let v = self.collect(reg, proc, &mut retries);
        (v, retries)
    }

    /// Read register `reg` from outside any process (see
    /// [`SwmrFile::peek`]).
    pub fn peek(&self, reg: usize) -> T {
        self.announce.peek(|me| self.collect(reg, me, &mut 0))
    }

    /// Collect register `reg` through announce word `me`, adding the
    /// reads' validation retries to `retries`.
    fn collect(&self, reg: usize, me: usize, retries: &mut u64) -> T {
        let mut best: Option<Stamp<T>> = None;
        // An unopened writer is skipped: it reads as `(0, init)`, and
        // every ticket-0 stamp holds `init`, so it wins nothing that an
        // open writer's stamp or the fallback below does not give. `>=`
        // lets later writers win ticket ties, which only occur at 0.
        for (w, cells) in self.writers.iter().enumerate() {
            let Some(cells) = cells.get() else { continue };
            let key = self.key(w, reg);
            let s = cells[reg].read_via(&self.announce, key, me, |s, r| {
                *retries += r;
                s.clone()
            });
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
        let MwmrFile {
            heads, mut writers, ..
        } = self;
        (heads.into_vec().into_iter())
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
        let f = SwmrFile::new(2, [vec![0u8]]);
        assert_eq!(f.read(0, 0), vec![0]);
        f.write(0, vec![1, 2, 3]);
        assert_eq!(f.read(1, 0), vec![1, 2, 3]);
        assert_eq!(f.peek(0), vec![1, 2, 3]);
        f.write(0, vec![4]);
        assert_eq!(f.read(0, 0), vec![4]);
        assert_eq!(f.retries(), 0);
    }

    #[test]
    fn swmr_value_mut_sees_last_publish() {
        let mut f = SwmrFile::new(1, [String::from("a")]);
        f.write(0, String::from("b"));
        assert_eq!(f.cells[0].value_mut(), "b");
    }

    /// The writer cycles through slots but never more than the bound.
    #[test]
    fn swmr_writer_reuses_slots() {
        let f = SwmrFile::new(1, [0u64]);
        for i in 0..100 {
            f.write(0, i);
            assert_eq!(f.read(0, 0), i);
        }
        assert_eq!(f.cells[0].slots.len(), 4);
    }

    /// A cell is its slots' pointer, its `published` line and its retry
    /// count: no announce word of its own, at any `n`. The file's words
    /// are `n + 1`, however many registers it has.
    #[test]
    fn announce_words_belong_to_the_file() {
        assert_eq!(size_of::<SwmrCell<Stamp<Option<u64>>>>(), 256);
        let f = SwmrFile::new(16, vec![0u64; 64]);
        assert_eq!(f.announce.words.len(), 17);
    }

    /// A pin holds its own cell's slot and no other's. With process 0
    /// pinned in register 0's initial slot, register 0's writer never
    /// picks that slot, and register 1's writer picks the same slot
    /// index: the word is keyed to register 0 alone.
    #[test]
    fn a_pin_holds_its_own_cell_only() {
        let f = SwmrFile::new(1, [0u64, 0]);
        let (own, other) = f.read_with(0, 0, |v, _| {
            let own: Vec<_> = (1..=4).map(|k| f.write_traced(0, k)).collect();
            let other: Vec<_> = (1..=4).map(|k| f.write_traced(1, k)).collect();
            assert_eq!(*v, 0, "the pinned slot changed");
            (own, other)
        });
        assert!(!own.contains(&0), "{own:?}");
        assert!(other.contains(&0), "{other:?}");
        assert_eq!((f.read(0, 0), f.read(0, 1)), (4, 4));
    }

    /// Two writers, each of its own register, and readers that alternate
    /// between the two through their one announce word each, with
    /// arbitrary-width (heap) values: readers must never observe a torn
    /// clone, nor a register going backwards. Sized down under miri,
    /// where this doubles as the UB check on the unsafe slot accesses.
    #[test]
    fn swmr_readers_never_tear() {
        #[cfg(miri)]
        const WRITES: u64 = 60;
        #[cfg(not(miri))]
        const WRITES: u64 = 20_000;
        let n_readers = 3;
        let f = SwmrFile::new(n_readers + 2, vec![vec![0u64; 8]; 2]);
        std::thread::scope(|s| {
            for r in 0..n_readers {
                let f = &f;
                s.spawn(move || {
                    let mut last = [0; 2];
                    for k in 0..WRITES as usize {
                        let reg = (k + r) % 2;
                        let v = f.read(r, reg);
                        // Every slot write is `vec![k; 8]`: a torn clone
                        // would mix ks or break the length.
                        assert_eq!(v.len(), 8);
                        assert!(v.iter().all(|&x| x == v[0]), "torn value {v:?}");
                        assert!(v[0] >= last[reg], "stale value after fresher one");
                        last[reg] = v[0];
                    }
                });
            }
            for reg in 0..2 {
                let f = &f;
                s.spawn(move || {
                    for k in 1..=WRITES {
                        f.write(reg, vec![k; 8]);
                    }
                });
            }
        });
        assert_eq!([f.peek(0), f.peek(1)], [vec![WRITES; 8], vec![WRITES; 8]]);
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
        let f = SwmrFile::new(n_readers + 1, [vec![0u64; 8]]);
        std::thread::scope(|s| {
            for r in 0..n_readers {
                let f = &f;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..WRITES {
                        last = f.read_with(r, 0, |v, _| {
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
            let f = &f;
            s.spawn(move || {
                for k in 1..=WRITES {
                    f.write(0, vec![k; 8]);
                }
            });
        });
        assert_eq!(f.read_with(0, 0, |v, retries| (v[0], retries)), (WRITES, 0));
    }

    /// A closure that unwinds leaves no slot pinned: the announce word
    /// is cleared on the way out, and the retry count is untouched.
    #[test]
    fn swmr_borrowed_read_unpins_when_the_closure_unwinds() {
        let f = SwmrFile::new(1, [String::from("a")]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.read_with(0, 0, |v, _| assert_eq!(v, "not a"));
        }));
        assert!(unwound.is_err());
        assert_eq!(f.announce.words[0].load(Ordering::SeqCst), index::NONE);
        // The writer gets the borrowed slot (0, the initial one) back.
        let slots = ["b", "c", "d"].map(|v| f.write_traced(0, v.into()));
        assert!(slots.contains(&0), "{slots:?}");
        assert_eq!(f.read(0, 0), "d");
        assert_eq!(f.retries(), 0);
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
