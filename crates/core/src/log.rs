//! A process's entries, by index: the single-writer append-only log
//! behind a root-array slot.
//!
//! Figure 4 publishes an operation with `root[P] := address of e`. Here
//! an address is a pair *(P's log, index)*: P appends `e` to its own
//! [`Log`] and then writes, into its root slot, the log and how many
//! entries it now holds. A reader that finds `(log, k)` in a register
//! may look at entries `0..k` of that log and at nothing else; it copies
//! no entry and owns none — the log does, until the last [`LogRef`] to
//! it is dropped.
//!
//! # Layout
//!
//! Entries never move (readers hold `&E` into the log while the writer
//! appends), so the log is a table of chunks rather than one growing
//! array: chunk `k` has `4 << k` cells. The first chunk lies in the log
//! itself and the table of the others is allocated with the first of
//! them, so a log is one small allocation up to its fourth entry, and
//! each later chunk is allocated when its first cell is written. With [`CHUNKS`] chunks a log holds
//! [`CAPACITY`] entries, 134 217 724 of them; `push` beyond that panics
//! and says so. (Nothing is reclaimed yet, so memory ends long before:
//! at some 70 bytes a cell, a full log is over 9 GiB.)
//!
//! # Publication
//!
//! Cells, chunk pointers and the table pointer are [`OnceLock`]s — safe
//! code, and exactly the ordering needed: a cell is *set* (release) before the writer
//! makes its index known, and whoever learns the index *gets* it
//! (acquire). Making the index known is not this module's business:
//! [`Log::get`] of a cell that was never set answers `None`, and the
//! caller, who knows whose log it is and where it got the index from,
//! treats that as the protocol violation it is.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Cells in the first chunk; each further chunk doubles.
pub const FIRST_CHUNK: usize = 4;

/// Chunks a log can have, the first included.
pub const CHUNKS: usize = 25;

/// Entries a log can hold: `4 + 8 + … + (4 << 24)`.
pub const CAPACITY: u64 = (FIRST_CHUNK as u64) * ((1 << CHUNKS) - 1);

/// A chunk's cells.
type Cells<E> = [OnceLock<E>];

/// The chunks behind the first, each allocated by the push of its
/// first cell.
type Table<E> = [OnceLock<Box<Cells<E>>>; CHUNKS - 1];

/// One process's append-only sequence of entries `E`, addressed by
/// index. Single-writer: only the owning process calls
/// [`push`](Log::push), with consecutive indices from 0; anyone may
/// [`get`](Log::get) an index the writer has published to them.
pub struct Log<E> {
    /// Chunk 0.
    first: [OnceLock<E>; FIRST_CHUNK],
    /// Chunks `1..CHUNKS`, in a table allocated with the first of them.
    rest: OnceLock<Box<Table<E>>>,
}

/// Where entry `seq` lives: its chunk, and its cell within the chunk.
fn locate(seq: u64) -> (usize, usize) {
    // Counting from the start of an imaginary chunk −1 of 4 cells makes
    // chunk `k` begin at `4 << k`.
    let at = seq.saturating_add(FIRST_CHUNK as u64);
    let chunk = (at / FIRST_CHUNK as u64).ilog2();
    (
        chunk as usize,
        (at - ((FIRST_CHUNK as u64) << chunk)) as usize,
    )
}

impl<E> Default for Log<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Log<E> {
    /// An empty log.
    pub fn new() -> Self {
        Log {
            first: std::array::from_fn(|_| OnceLock::new()),
            rest: OnceLock::new(),
        }
    }

    /// Append `entry` as entry number `seq`. The writer counts: `seq`
    /// is how many entries it has pushed before.
    ///
    /// # Panics
    /// If entry `seq` is already there (two writers, or one that lost
    /// count), or if `seq` is beyond [`CAPACITY`].
    pub fn push(&self, seq: u64, entry: E) {
        let (chunk, cell) = locate(seq);
        assert!(
            chunk < CHUNKS,
            "the log is full: entry #{seq} is beyond its {CAPACITY} cells"
        );
        let cells = match chunk.checked_sub(1) {
            None => &self.first[..],
            Some(k) => {
                let table = self
                    .rest
                    .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
                table[k]
                    .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect())
            }
        };
        assert!(
            cells[cell].set(entry).is_ok(),
            "entry #{seq} pushed twice: a log has one writer, and it appends"
        );
    }

    /// Entry number `seq`, if it was ever pushed. A reader indexes a
    /// log only below a length it read from a register, and the writer
    /// sets the cell before it writes that register: `None` is for a
    /// reader that made an index up.
    pub fn get(&self, seq: u64) -> Option<&E> {
        let (chunk, cell) = locate(seq);
        let cells = match chunk.checked_sub(1) {
            None => &self.first[..],
            Some(k) => self.chunk(k)?,
        };
        cells[cell].get()
    }

    /// The cells of chunk `k + 1`, if it is allocated.
    fn chunk(&self, k: usize) -> Option<&Cells<E>> {
        Some(self.rest.get()?.get(k)?.get()?)
    }
}

/// A shared handle on a [`Log`]: what a root slot holds beside the
/// length.
///
/// `clone_from` a handle on the *same* log does nothing — same pointer,
/// same value, so the copy is exact and touches no reference count.
/// That is the common case by far: a process's slot names the same log
/// for as long as the process lives, and every register value, scan
/// cache column and slot buffer that has held the slot once keeps
/// holding it.
pub struct LogRef<E>(Arc<Log<E>>);

impl<E> LogRef<E> {
    /// A handle on a new, empty log.
    pub fn new() -> Self {
        LogRef(Arc::new(Log::new()))
    }
}

impl<E> Default for LogRef<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Clone for LogRef<E> {
    fn clone(&self) -> Self {
        LogRef(Arc::clone(&self.0))
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.0, &source.0) {
            self.0 = Arc::clone(&source.0);
        }
    }
}

impl<E> Deref for LogRef<E> {
    type Target = Log<E>;

    fn deref(&self) -> &Log<E> {
        &self.0
    }
}

/// Handles are equal when they name the same log.
impl<E> PartialEq for LogRef<E> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<E> Eq for LogRef<E> {}

impl<E> fmt::Debug for LogRef<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shallow on purpose: a log can hold a whole history.
        write!(f, "Log({:p})", Arc::as_ptr(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_lattice::laws;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_tile_the_indices() {
        let mut next = 0u64;
        for chunk in 0..6 {
            for cell in 0..FIRST_CHUNK << chunk {
                assert_eq!(locate(next), (chunk, cell), "entry {next}");
                next += 1;
            }
        }
        assert_eq!(
            locate(CAPACITY - 1),
            (CHUNKS - 1, (FIRST_CHUNK << (CHUNKS - 1)) - 1)
        );
        assert_eq!(locate(CAPACITY).0, CHUNKS);
        assert!(locate(u64::MAX).0 >= CHUNKS);
    }

    /// Sizes of the chunks behind the first, allocated or not.
    fn chunk_sizes<E>(log: &Log<E>) -> Vec<Option<usize>> {
        (0..CHUNKS - 1)
            .map(|k| log.chunk(k).map(<[_]>::len))
            .collect()
    }

    #[test]
    fn push_and_get_across_chunk_boundaries() {
        let log = Log::new();
        // Three boundaries: 4, 12, 28.
        let n = 40u64;
        for seq in 0..n {
            log.push(seq, seq * 3);
            // Everything pushed so far stays where it was.
            for earlier in [0, seq / 2, seq] {
                assert_eq!(log.get(earlier), Some(&(earlier * 3)));
            }
        }
        let allocated: Vec<_> = chunk_sizes(&log).into_iter().flatten().collect();
        assert_eq!(allocated, [8, 16, 32], "behind the first chunk");
    }

    #[test]
    fn a_chunk_is_allocated_by_its_first_cell() {
        let log: Log<String> = Log::new();
        for seq in 0..FIRST_CHUNK as u64 {
            log.push(seq, "a".into());
        }
        assert!(log.rest.get().is_none(), "the first chunk is inline");
        log.push(FIRST_CHUNK as u64, "b".into());
        assert_eq!(chunk_sizes(&log)[0], Some(2 * FIRST_CHUNK));
        assert!(chunk_sizes(&log)[1..].iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "entry #9 pushed twice")]
    fn a_double_push_panics() {
        let log = Log::new();
        for seq in 0..10 {
            log.push(seq, seq);
        }
        log.push(9, 0);
    }

    #[test]
    fn an_unpublished_index_is_none() {
        let log = Log::new();
        for seq in 0..5 {
            log.push(seq, seq);
        }
        assert_eq!(log.get(4), Some(&4));
        assert_eq!(log.get(5), None, "allocated, not set");
        assert_eq!(log.get(40), None, "in a chunk not allocated");
        assert_eq!(log.get(CAPACITY), None, "beyond the table");
        assert_eq!(log.get(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "log is full")]
    fn push_beyond_capacity_panics() {
        Log::new().push(CAPACITY, 0u8);
    }

    /// The writer appends, then publishes the new length; a reader that
    /// loads a length finds every entry below it, with its content.
    /// (The length plays the register's part. Sized down under miri.)
    #[test]
    fn a_reader_below_the_published_length_finds_its_entry() {
        #[cfg(miri)]
        const ENTRIES: u64 = 70;
        #[cfg(not(miri))]
        const ENTRIES: u64 = 20_000;
        let log = LogRef::new();
        let published = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let log = log.clone();
                let published = &published;
                s.spawn(move || {
                    let mut seen = 0;
                    while seen < ENTRIES {
                        let len = published.load(Ordering::SeqCst);
                        assert!(len >= seen, "the length went backwards");
                        for seq in seen.saturating_sub(1)..len {
                            assert_eq!(log.get(seq), Some(&vec![seq; 3]));
                        }
                        seen = len;
                    }
                });
            }
            let published = &published;
            let log = &log;
            s.spawn(move || {
                for seq in 0..ENTRIES {
                    log.push(seq, vec![seq; 3]);
                    published.store(seq + 1, Ordering::SeqCst);
                }
            });
        });
    }

    #[test]
    fn clone_from_agrees_with_clone() {
        let (a, b) = (LogRef::<u8>::new(), LogRef::<u8>::new());
        for (target, source) in [(&a, &a), (&a, &b), (&b, &a), (&a, &a.clone())] {
            laws::assert_clone_from_consistent(target, source);
        }
        // And onto the same log it leaves the count alone.
        let mut c = a.clone();
        let before = Arc::strong_count(&a.0);
        c.clone_from(&a);
        assert_eq!(Arc::strong_count(&a.0), before);
        c.clone_from(&b);
        assert_eq!(Arc::strong_count(&a.0), before - 1);
        assert!(c == b && c != a);
        assert_eq!(format!("{c:?}"), format!("{b:?}"));
    }
}
