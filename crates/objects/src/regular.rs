//! Regular registers, and Lamport's atomic-from-regular construction.
//!
//! The asynchronous PRAM model *assumes* atomic registers; the paper
//! opens by noting that "techniques for implementing these memory
//! locations, often called atomic registers, have also received
//! considerable attention \[13, 14, 32, 35, 40, 43, 44\]". This module
//! reproduces the bottom rung of that ladder:
//!
//! * [`RegularRegister`] — a single-writer *regular* register modelled on
//!   top of an atomic cell: the writer publishes in two steps
//!   (`Dirty{old, new}` then `Steady(new)`), and a reader that observes
//!   the dirty window resolves it through its [`Chooser`] — the
//!   old-or-new nondeterminism that distinguishes regular from atomic.
//!   Regular registers famously admit **new/old inversion**: two
//!   sequential reads overlapping one write may return the new value and
//!   then the old one, which no atomic register allows. A deterministic
//!   witness schedule below exhibits it, and the linearizability checker
//!   rejects the resulting history.
//! * [`AtomicFromRegular`] — Lamport's classic fix for the single-reader
//!   single-writer case: the writer attaches a growing timestamp; the
//!   reader remembers the highest-timestamped pair it has returned and
//!   never goes back. The construction is verified against the register
//!   spec under seeded schedules and choosers.
//!
//! Modelling note: a read overlapping several writes here returns a
//! value of the write it actually observes (or the preceding steady
//! value); that is a sub-relation of full regular semantics — it
//! exhibits the essential nondeterminism (and the inversion anomaly)
//! while staying deterministic per `(schedule, chooser seed)`, which is
//! what replay and exhaustive exploration need.

use apram_model::MemCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The atomic cell backing one regular register.
#[derive(Clone, Debug, PartialEq)]
pub enum RegCell<T> {
    /// No write in progress; holds the current `(timestamp, value)`.
    Steady(u64, Option<T>),
    /// A write is in progress: the old pair and the incoming pair.
    Dirty {
        /// The pair being replaced.
        old: (u64, Option<T>),
        /// The pair being written.
        new: (u64, Option<T>),
    },
}

impl<T> RegCell<T> {
    /// The initial (unwritten) cell.
    pub fn initial() -> Self {
        RegCell::Steady(0, None)
    }
}

/// Resolves the old-or-new choice a regular read must make when it
/// overlaps a write. Implementations must be deterministic per seed so
/// executions replay.
pub trait Chooser {
    /// `true` ⇒ the read returns the *new* value.
    fn pick_new(&mut self) -> bool;
}

/// A seeded pseudo-random chooser.
#[derive(Clone, Debug)]
pub struct SeededChooser(StdRng);

impl SeededChooser {
    /// A chooser with the given seed.
    pub fn new(seed: u64) -> Self {
        SeededChooser(StdRng::seed_from_u64(seed))
    }
}

impl Chooser for SeededChooser {
    fn pick_new(&mut self) -> bool {
        self.0.gen_bool(0.5)
    }
}

/// A fixed-script chooser for deterministic witnesses.
#[derive(Clone, Debug)]
pub struct ScriptChooser {
    script: Vec<bool>,
    pos: usize,
}

impl ScriptChooser {
    /// Answers `script[i]` at the i-th dirty read, then `false`.
    pub fn new(script: Vec<bool>) -> Self {
        ScriptChooser { script, pos: 0 }
    }
}

impl Chooser for ScriptChooser {
    fn pick_new(&mut self) -> bool {
        let v = self.script.get(self.pos).copied().unwrap_or(false);
        self.pos += 1;
        v
    }
}

/// A single-writer regular register at register index `reg` of a memory
/// of [`RegCell`]s.
#[derive(Clone, Copy, Debug)]
pub struct RegularRegister {
    reg: usize,
}

impl RegularRegister {
    /// A regular register stored in cell `reg`.
    pub fn new(reg: usize) -> Self {
        RegularRegister { reg }
    }

    /// Initial memory for `k` independent regular registers.
    pub fn registers<T: Clone>(k: usize) -> Vec<RegCell<T>> {
        (0..k).map(|_| RegCell::initial()).collect()
    }

    /// Write `(ts, v)` — two atomic steps (dirty, then steady). Only the
    /// owner may call this.
    pub fn write<T, C>(&self, ctx: &mut C, ts: u64, v: T)
    where
        T: Clone,
        C: MemCtx<RegCell<T>>,
    {
        let old = match ctx.read(self.reg) {
            RegCell::Steady(t, x) => (t, x),
            RegCell::Dirty { new, .. } => new, // previous write's final pair
        };
        let new = (ts, Some(v));
        ctx.write(
            self.reg,
            RegCell::Dirty {
                old,
                new: new.clone(),
            },
        );
        ctx.write(self.reg, RegCell::Steady(new.0, new.1));
    }

    /// A regular read: returns the steady pair, or — inside a write's
    /// dirty window — old or new as the chooser dictates.
    pub fn read<T, C, Ch>(&self, ctx: &mut C, chooser: &mut Ch) -> (u64, Option<T>)
    where
        T: Clone,
        C: MemCtx<RegCell<T>>,
        Ch: Chooser,
    {
        match ctx.read(self.reg) {
            RegCell::Steady(t, v) => (t, v),
            RegCell::Dirty { old, new } => {
                if chooser.pick_new() {
                    new
                } else {
                    old
                }
            }
        }
    }
}

/// Lamport's SRSW atomic register from a regular one: timestamps grow,
/// and the reader never returns a pair older than one it already
/// returned.
#[derive(Clone, Debug)]
pub struct AtomicFromRegular {
    reg: RegularRegister,
    /// Writer state: next timestamp.
    next_ts: u64,
    /// Reader state: highest pair returned so far.
    last: (u64, Option<u64>),
}

impl AtomicFromRegular {
    /// A handle on the regular register in cell `reg`. The writer and
    /// the (single) reader each hold their own handle; the writer uses
    /// [`Self::write`], the reader [`Self::read`].
    pub fn new(reg: usize) -> Self {
        AtomicFromRegular {
            reg: RegularRegister::new(reg),
            next_ts: 1,
            last: (0, None),
        }
    }

    /// Atomic write (writer only).
    pub fn write<C: MemCtx<RegCell<u64>>>(&mut self, ctx: &mut C, v: u64) {
        let ts = self.next_ts;
        self.next_ts += 1;
        self.reg.write(ctx, ts, v);
    }

    /// Atomic read (single reader only): monotone in timestamps.
    pub fn read<C, Ch>(&mut self, ctx: &mut C, chooser: &mut Ch) -> Option<u64>
    where
        C: MemCtx<RegCell<u64>>,
        Ch: Chooser,
    {
        let (ts, v) = self.reg.read(ctx, chooser);
        if ts > self.last.0 {
            self.last = (ts, v);
        }
        self.last.1
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::spec::{RegOp, RegResp, RegisterSpec};
    use apram_history::History;
    use apram_model::sim::strategy::Replay;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
    use apram_model::NativeMemory;

    #[test]
    fn steady_reads_see_last_write() {
        let mem = NativeMemory::new(2, RegularRegister::registers::<u64>(1));
        let reg = RegularRegister::new(0);
        let mut w = mem.ctx(0);
        let mut r = mem.ctx(1);
        let mut ch = SeededChooser::new(1);
        assert_eq!(reg.read::<u64, _, _>(&mut r, &mut ch), (0, None));
        reg.write(&mut w, 1, 42);
        assert_eq!(reg.read(&mut r, &mut ch), (1, Some(42)));
        reg.write(&mut w, 2, 43);
        assert_eq!(reg.read(&mut r, &mut ch), (2, Some(43)));
    }

    /// The defining anomaly: two sequential reads inside one write's
    /// dirty window return new then old — impossible for an atomic
    /// register, and duly rejected by the checker.
    #[test]
    fn new_old_inversion_witness() {
        let reg = RegularRegister::new(0);
        let bodies: Vec<ProcBody<'static, RegCell<u64>, Vec<(u64, Option<u64>)>>> = vec![
            // P0, the writer: one prior write (steady 7), then a write
            // of 8 whose dirty window the reads land in.
            Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                reg.write(ctx, 1, 7);
                reg.write(ctx, 2, 8);
                Vec::new()
            }),
            // P1, the reader: two sequential reads with a scripted
            // chooser (first picks new, second picks old).
            Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                let mut ch = ScriptChooser::new(vec![true, false]);
                let a = reg.read(ctx, &mut ch);
                let b = reg.read(ctx, &mut ch);
                vec![a, b]
            }),
        ];
        // Schedule: writer completes write(7) [read+2 writes = 3 steps],
        // then starts write(8): read + dirty write [2 steps]; reader's
        // two reads [2 steps]; writer commits.
        let out = SimBuilder::new(RegularRegister::registers::<u64>(1))
            .owners(vec![0])
            .strategy(Replay::strict(vec![0, 0, 0, 0, 0, 1, 1, 0]))
            .run(bodies);
        out.assert_no_panics();
        let reads = out.results[1].clone().unwrap();
        assert_eq!(
            reads,
            vec![(2, Some(8)), (1, Some(7))],
            "expected the new/old inversion"
        );
        // As a register history, this is not linearizable:
        let mut h: History<RegOp, RegResp> = History::new();
        h.invoke(0, RegOp::Write(7));
        h.respond(0, RegResp::Ack);
        h.invoke(0, RegOp::Write(8)); // overlaps both reads
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(8));
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(7));
        h.respond(0, RegResp::Ack);
        assert!(
            !check_linearizable(&RegisterSpec, &h, &CheckerConfig::default()).is_ok(),
            "checker must reject the inversion"
        );
    }

    /// Lamport's construction suppresses the inversion on the very same
    /// schedule and chooser script.
    #[test]
    fn lamport_construction_fixes_the_witness() {
        let bodies: Vec<ProcBody<'static, RegCell<u64>, Vec<Option<u64>>>> = vec![
            Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                let mut w = AtomicFromRegular::new(0);
                w.write(ctx, 7);
                w.write(ctx, 8);
                Vec::new()
            }),
            Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                let mut r = AtomicFromRegular::new(0);
                let mut ch = ScriptChooser::new(vec![true, false]);
                vec![r.read(ctx, &mut ch), r.read(ctx, &mut ch)]
            }),
        ];
        let out = SimBuilder::new(RegularRegister::registers::<u64>(1))
            .owners(vec![0])
            .strategy(Replay::strict(vec![0, 0, 0, 0, 0, 1, 1, 0]))
            .run(bodies);
        out.assert_no_panics();
        let reads = out.results[1].clone().unwrap();
        assert_eq!(
            reads,
            vec![Some(8), Some(8)],
            "the reader must never regress to the old value"
        );
    }

    /// Randomized SRSW verification: many seeds/choosers/schedules, full
    /// histories checked against the atomic register spec.
    #[test]
    fn lamport_construction_linearizable_randomized() {
        use apram_history::Recorder;
        use apram_model::sim::strategy::SeededRandom;
        for seed in 0..25u64 {
            let rec: Recorder<RegOp, RegResp> = Recorder::new();
            let (r1, r2) = (rec.clone(), rec.clone());
            let bodies: Vec<ProcBody<'static, RegCell<u64>, ()>> = vec![
                Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                    let mut w = AtomicFromRegular::new(0);
                    for v in [7u64, 8, 9] {
                        r1.invoke(0, RegOp::Write(v));
                        w.write(ctx, v);
                        r1.respond(0, RegResp::Ack);
                    }
                }),
                Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                    let mut r = AtomicFromRegular::new(0);
                    let mut ch = SeededChooser::new(seed ^ 0xDEAD);
                    for _ in 0..3 {
                        r2.invoke(1, RegOp::Read);
                        let v = r.read(ctx, &mut ch);
                        r2.respond(1, RegResp::Value(v.unwrap_or(0)));
                    }
                }),
            ];
            let out = SimBuilder::new(RegularRegister::registers::<u64>(1))
                .owners(vec![0])
                .strategy(SeededRandom::new(seed))
                .run(bodies);
            out.assert_no_panics();
            let hist = rec.snapshot();
            assert!(
                check_linearizable(&RegisterSpec, &hist, &CheckerConfig::default()).is_ok(),
                "seed {seed}: {hist:?}"
            );
        }
    }

    /// The raw regular register, same randomized setup, *does* produce
    /// non-linearizable histories for some seed — the anomaly is not an
    /// artifact of the witness schedule.
    #[test]
    fn raw_regular_register_fails_somewhere() {
        use apram_history::Recorder;
        use apram_model::sim::strategy::SeededRandom;
        let mut violated = false;
        for seed in 0..200u64 {
            let reg = RegularRegister::new(0);
            let rec: Recorder<RegOp, RegResp> = Recorder::new();
            let (r1, r2) = (rec.clone(), rec.clone());
            let bodies: Vec<ProcBody<'static, RegCell<u64>, ()>> = vec![
                Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                    for (i, v) in [7u64, 8, 9].into_iter().enumerate() {
                        r1.invoke(0, RegOp::Write(v));
                        reg.write(ctx, i as u64 + 1, v);
                        r1.respond(0, RegResp::Ack);
                    }
                }),
                Box::new(move |ctx: &mut SimCtx<RegCell<u64>>| {
                    let mut ch = SeededChooser::new(seed ^ 0xBEEF);
                    for _ in 0..3 {
                        r2.invoke(1, RegOp::Read);
                        let (_, v) = reg.read(ctx, &mut ch);
                        r2.respond(1, RegResp::Value(v.unwrap_or(0)));
                    }
                }),
            ];
            let out = SimBuilder::new(RegularRegister::registers::<u64>(1))
                .owners(vec![0])
                .strategy(SeededRandom::new(seed))
                .run(bodies);
            out.assert_no_panics();
            let hist = rec.snapshot();
            if !check_linearizable(&RegisterSpec, &hist, &CheckerConfig::default()).is_ok() {
                violated = true;
                break;
            }
        }
        assert!(
            violated,
            "regular semantics should violate atomicity on some seed"
        );
    }
}
