//! The buffered tier's index protocol ([`super::index`]) explored on
//! simulated registers: the code the product runs on atomics, run here
//! over `SimCtx<u64>` words, one step per word access, under the
//! sleep-set-reduced explorer.
//!
//! This is a check in sequential consistency: every register access is
//! one atomic step in one total order, which is what the product's
//! `SeqCst` index traffic gives. It says nothing of weaker orderings
//! (TSO store buffers, C11 relaxed or release/acquire on their own).
//!
//! Each slot holds the sequence number of the write that filled it
//! (0 for the initial value), and a reader reads its slot twice: when it
//! has pinned it, and again before it clears its word. The properties
//! are assertions on those values, which the reduction preserves — every
//! Mazurkiewicz trace is explored, and a value read depends on nothing
//! else:
//!
//! * a pinned slot is never refilled (the two reads agree);
//! * every value read is one some write published (it is at most the
//!   last sequence number its cell published);
//! * the writer always finds a free slot, also with a reader crashed
//!   while it pinned one.
//!
//! Four seeded mutants of the protocol are each found, shrunk, and
//! replayed.

use super::index::{self, IndexWords, NONE};
use crate::ctx::{MemCtx, ProcId};
use crate::sim::strategy::Replay;
use crate::sim::{Budgeted, ExploreConfig, ExploreStats, ProcBody, SimBuilder, SimCtx, SimOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A memory of `cells` cells shared by `procs` processes, laid out in
/// registers: `procs + 1` announce words, each cell's `published` index,
/// then each cell's `procs + 3` slots.
#[derive(Clone, Copy, Debug)]
struct Shape {
    procs: usize,
    cells: usize,
}

impl Shape {
    fn words(self) -> usize {
        self.procs + 1
    }

    fn slots(self) -> usize {
        self.procs + 3
    }

    fn published(self, cell: usize) -> usize {
        self.words() + cell
    }

    fn slot(self, cell: usize, slot: usize) -> usize {
        self.words() + self.cells + cell * self.slots() + slot
    }

    /// Every word clear, every cell publishing slot 0, every slot
    /// holding the initial value.
    fn registers(self) -> Vec<u64> {
        let mut regs = vec![NONE as u64; self.words()];
        regs.resize(self.slot(self.cells, 0), 0);
        regs
    }
}

/// One cell's index words in a simulated memory.
struct SimWords<'a> {
    ctx: &'a mut SimCtx<u64>,
    shape: Shape,
    cell: usize,
}

impl IndexWords for SimWords<'_> {
    fn words(&self) -> usize {
        self.shape.words()
    }

    fn load_word(&mut self, i: usize) -> usize {
        self.ctx.read(i) as usize
    }

    fn announce(&mut self, i: usize, word: usize) {
        self.ctx.write(i, word as u64);
    }

    fn clear(&mut self, i: usize) {
        self.ctx.write(i, NONE as u64);
    }

    fn published(&mut self) -> usize {
        self.ctx.read(self.shape.published(self.cell)) as usize
    }

    fn own_published(&mut self) -> usize {
        self.published()
    }

    fn publish(&mut self, slot: usize) {
        self.ctx.write(self.shape.published(self.cell), slot as u64);
    }
}

/// The protocol as written, or with one seeded fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    None,
    /// The reader announces its slot under the next cell's key.
    WrongKey,
    /// The reader uses the slot it announced without re-validating.
    NoValidation,
    /// The reader clears its word before it uses the slot.
    EarlyClear,
    /// The writer ignores the announce words.
    BlindWriter,
}

/// Per cell, the last sequence number its writer published: local state
/// of the run, updated by the writer straight after its publish step.
type Published = Arc<[AtomicU64]>;

/// Write sequence numbers `1..=writes` to `cell`.
fn writer(shape: Shape, cell: usize, writes: u64, upto: Published, mutant: Mutant) -> Body {
    Box::new(move |ctx: &mut SimCtx<u64>| {
        let mut w = SimWords { ctx, shape, cell };
        for k in 1..=writes {
            let slot = if mutant == Mutant::BlindWriter {
                (!(1u64 << w.own_published())).trailing_zeros() as usize
            } else {
                index::free_slot(&mut w, cell)
            };
            assert!(slot < shape.slots(), "no free slot in cell {cell}");
            w.ctx.write(shape.slot(cell, slot), k);
            w.publish(slot);
            upto[cell].store(k, Ordering::SeqCst);
        }
    })
}

/// Read each of `cells` once, as the process owning word `me`.
fn reader(shape: Shape, me: ProcId, cells: Vec<usize>, upto: Published, mutant: Mutant) -> Body {
    Box::new(move |ctx: &mut SimCtx<u64>| {
        for cell in cells {
            let mut w = SimWords { ctx, shape, cell };
            let key = match mutant {
                Mutant::WrongKey => (cell + 1) % shape.cells,
                _ => cell,
            };
            let slot = if mutant == Mutant::NoValidation {
                let p = w.published();
                w.announce(me, index::announcement(key, p));
                p
            } else {
                index::pin(&mut w, key, me).0
            };
            if mutant == Mutant::EarlyClear {
                index::unpin(&mut w, me);
            }
            let at = shape.slot(cell, slot);
            let first = w.ctx.read(at);
            let published = upto[cell].load(Ordering::SeqCst);
            assert!(
                first <= published,
                "read write {first} of cell {cell}, which has published {published}"
            );
            let again = w.ctx.read(at);
            assert_eq!(
                first, again,
                "slot {slot} of cell {cell} refilled while pinned"
            );
            if mutant != Mutant::EarlyClear {
                index::unpin(&mut w, me);
            }
        }
    })
}

type Body = ProcBody<'static, u64, ()>;

/// A configuration: its memory and its processes.
#[derive(Clone, Copy, Debug)]
enum Config {
    /// One cell: P0 writes it twice, P1 and P2 read it once each.
    OneCell,
    /// Two cells: P0 writes cell 0 twice, P1 cell 1 twice, and P2 reads
    /// cell 0, then cell 1.
    TwoCells,
}

impl Config {
    fn shape(self) -> Shape {
        match self {
            Config::OneCell => Shape { procs: 3, cells: 1 },
            Config::TwoCells => Shape { procs: 3, cells: 2 },
        }
    }

    fn bodies(self, mutant: Mutant) -> Vec<Body> {
        let shape = self.shape();
        let upto: Published = (0..shape.cells).map(|_| AtomicU64::new(0)).collect();
        let up = || Arc::clone(&upto);
        match self {
            Config::OneCell => vec![
                writer(shape, 0, 2, up(), mutant),
                reader(shape, 1, vec![0], up(), mutant),
                reader(shape, 2, vec![0], up(), mutant),
            ],
            Config::TwoCells => vec![
                writer(shape, 0, 2, up(), mutant),
                writer(shape, 1, 2, up(), mutant),
                reader(shape, 2, vec![0, 1], up(), mutant),
            ],
        }
    }
}

fn clean(out: &SimOutcome<u64, ()>) -> bool {
    out.panics.iter().all(Option::is_none)
}

fn explore(config: Config, mutant: Mutant, econfig: &ExploreConfig) -> ExploreStats {
    SimBuilder::new(config.shape().registers()).explore_reduced(
        econfig,
        || config.bodies(mutant),
        clean,
    )
}

/// The protocol as written exhausts both configurations clean.
#[test]
fn the_index_protocol_exhausts_clean() {
    for config in [Config::OneCell, Config::TwoCells] {
        let stats = explore(config, Mutant::None, &ExploreConfig::new());
        assert!(stats.exhausted, "{config:?}: {stats:?}");
        println!(
            "{config:?}: {} runs, {} sleep skips",
            stats.runs, stats.sleep_skips
        );
    }
}

/// A reader that crashes with its slot pinned keeps its word forever;
/// the writer still finds a free slot at every write.
#[test]
fn the_writer_finds_a_slot_past_a_crashed_reader() {
    let econfig = ExploreConfig::new().max_crashes(1);
    let stats = explore(Config::OneCell, Mutant::None, &econfig);
    assert!(stats.exhausted, "{stats:?}");
    assert!(stats.crash_branches > 0);
    println!(
        "{} runs, {} crash branches",
        stats.runs, stats.crash_branches
    );
}

/// Each seeded mutant is found, shrunk, and its shrunk schedule replays
/// to the same failure.
#[test]
fn every_seeded_mutant_is_found_and_replays() {
    for (mutant, config) in [
        (Mutant::WrongKey, Config::TwoCells),
        (Mutant::NoValidation, Config::OneCell),
        (Mutant::EarlyClear, Config::OneCell),
        (Mutant::BlindWriter, Config::OneCell),
    ] {
        let stats = explore(config, mutant, &ExploreConfig::new().shrink(true));
        let report = (stats.violation)
            .unwrap_or_else(|| panic!("{mutant:?} not found in {} runs", stats.runs));
        assert!(report.schedule.len() <= report.original.len());
        let out = SimBuilder::new(config.shape().registers())
            .strategy(Replay::strict(report.schedule.clone()))
            .crashes(report.crashes.clone())
            .max_steps(report.schedule.len() as u64)
            .run(config.bodies(mutant));
        let failure = out.panics.iter().flatten().next();
        assert!(
            failure.is_some(),
            "{mutant:?}: the shrunk schedule replays clean"
        );
        println!(
            "{mutant:?}: {} runs, witness {} → {} steps: {}",
            stats.runs,
            report.original.len(),
            report.schedule.len(),
            failure.unwrap()
        );
    }
}
