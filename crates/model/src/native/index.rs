//! The buffered tier's index protocol, written once: a cell writer's
//! slot choice and publish, and a reader's announce, validate and
//! clear. It touches words only — the announce words a memory shares
//! among its cells and the cell's `published` index — through
//! [`IndexWords`], so the same code runs on `std` atomics in the
//! product ([`super::buffered`]) and on simulated registers under the
//! schedule explorer (`native/index_tests.rs`).
//!
//! # Keyed announce words
//!
//! A memory has one announce word per process, plus one for
//! out-of-band peeks, and every cell of the memory shares them. A word
//! names a cell as well as a slot: `key << SLOT_BITS | slot`, where the
//! key tells the memory's cells apart. A process reads one register at
//! a time — a borrowed read's closure cannot reach its context — so it
//! pins at most one slot of the whole memory, and one word is enough to
//! say which. This is the hazard pointer (Michael, IEEE TPDS 2004)
//! applied to buffer slots.
//!
//! A writer scans every word and counts only those keyed to its own
//! cell. With `w` words and the published slot, `w + 2` slots always
//! leave it one free; the buffered tier has `n + 1` words and `n + 3`
//! slots. Six bits name a slot, since `n + 3 ≤ 64`.
//!
//! # Soundness
//!
//! A reader uses slot `p` of cell `k` only after observing
//! `published == p` *after* its announcement `(k, p)` was visible, and
//! clears the word only when it is done with the slot. A write of `k`
//! that fills `p` while the reader uses it picked `p`, so its scan came
//! before the announcement (a later scan sees `(k, p)`). Writes of a
//! cell are sequential, so it is the last write of `k` to scan before
//! that point: it fills `p`, then publishes `p`, and until that publish
//! `published` is not `p` — a writer never picks its published slot.
//! The reader validates after announcing: before that publish it sees
//! another slot and retries; after it, the fill is complete. Every
//! later write scans after the announcement and avoids `p` until the
//! word is cleared. Words keyed to other cells change nothing in the
//! argument: this cell's writer skips them, and theirs skip this cell's
//! announcement. All index traffic of the product is `SeqCst`, so this
//! is an argument in sequential consistency; so is the explorer's
//! check.

/// Bits of an announce word that name a slot: a cell has at most
/// `MAX_PROCS + 3 = 64` slots.
pub const SLOT_BITS: u32 = 6;

/// The slot part of an announce word.
const SLOT_MASK: usize = (1 << SLOT_BITS) - 1;

/// An announce word that announces nothing. Its key, `usize::MAX >>
/// SLOT_BITS`, is no cell's.
pub const NONE: usize = usize::MAX;

/// How many cells a memory's keys can name: `0..MAX_KEYS`.
pub const MAX_KEYS: usize = NONE >> SLOT_BITS;

/// The announcement of slot `slot` of cell `key`.
#[inline]
pub fn announcement(key: usize, slot: usize) -> usize {
    debug_assert!(key < MAX_KEYS && slot <= SLOT_MASK);
    key << SLOT_BITS | slot
}

/// The word accesses of the protocol, for one cell: the announce words
/// its memory shares, and its own `published` index.
pub trait IndexWords {
    /// How many announce words the memory has.
    fn words(&self) -> usize;
    /// Load announce word `i` (a writer's scan).
    fn load_word(&mut self, i: usize) -> usize;
    /// Store announcement `word` in announce word `i`.
    fn announce(&mut self, i: usize, word: usize);
    /// Clear announce word `i` to [`NONE`].
    fn clear(&mut self, i: usize);
    /// Load the published slot (a reader's).
    fn published(&mut self) -> usize;
    /// Load the published slot as the cell's writer, who stored it last.
    fn own_published(&mut self) -> usize;
    /// Publish `slot`.
    fn publish(&mut self, slot: usize);
}

/// The slot the writer of cell `key` fills next: neither the published
/// one nor one announced under `key`.
#[inline]
pub fn free_slot(w: &mut impl IndexWords, key: usize) -> usize {
    let mut used: u64 = 1 << w.own_published();
    for i in 0..w.words() {
        let a = w.load_word(i);
        if a >> SLOT_BITS == key {
            used |= 1 << (a & SLOT_MASK);
        }
    }
    (!used).trailing_zeros() as usize
}

/// Pin the published slot of cell `key` in announce word `me`: announce
/// it, then validate that it is still published, until the two agree.
/// Returns the slot and how many validations failed. The slot stays out
/// of the writer's reach until [`unpin`].
#[inline]
pub fn pin(w: &mut impl IndexWords, key: usize, me: usize) -> (usize, u64) {
    let mut retries = 0;
    loop {
        let p = w.published();
        w.announce(me, announcement(key, p));
        if w.published() == p {
            return (p, retries);
        }
        retries += 1;
    }
}

/// Release the slot announce word `me` pins.
#[inline]
pub fn unpin(w: &mut impl IndexWords, me: usize) {
    w.clear(me);
}
