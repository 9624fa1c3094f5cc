//! A multi-writer multi-reader register from single-writer registers.
//!
//! The model (paper §3) assumes atomic registers; the single-writer
//! discipline is what the paper's own algorithms use, and building a
//! *multi-writer* register on top is the classic substrate exercise
//! (Vitányi–Awerbuch construction, unbounded-timestamp form — the paper
//! cites the atomic-register construction literature [13, 14, 35, 40,
//! 43, 44] as the foundation its model stands on).
//!
//! Representation: one SWMR slot per process holding a *stamped* value
//! `(tag, author, value)` ordered lexicographically by `(tag, author)`.
//!
//! * `write(v)`: collect all slots, pick `tag = max_tag + 1`, publish
//!   `(tag, me, v)` in the own slot — `n` reads + 1 write.
//! * `read()`: collect all slots, take the lexicographic maximum, **write
//!   it back** into the own slot, return its value — `n` reads + 1
//!   write. The write-back is what makes overlapping reads by different
//!   processes agree on an order (a later reader is guaranteed to see at
//!   least the stamp an earlier reader returned, because that stamp now
//!   also sits in the earlier reader's slot).
//!
//! Linearizability is verified by exhaustive schedule exploration and
//! randomized native stress against [`MwRegSpec`].

use apram_history::{DetSpec, ProcId};
use apram_model::{MatrixView, MemCtx};

/// A stamped value: ordered by `(tag, author)`, value carried along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped<T> {
    /// Monotone timestamp.
    pub tag: u64,
    /// The process that authored the value (tie-break).
    pub author: ProcId,
    /// The value; `None` only in the initial state.
    pub value: Option<T>,
}

impl<T> Stamped<T> {
    /// The initial (unwritten) stamp.
    pub fn initial() -> Self {
        Stamped {
            tag: 0,
            author: 0,
            value: None,
        }
    }

    fn key(&self) -> (u64, ProcId) {
        (self.tag, self.author)
    }
}

/// A multi-writer register for `n` processes over values `T`.
#[derive(Clone, Copy, Debug)]
pub struct MwRegister {
    n: usize,
}

impl MwRegister {
    /// A register shared by `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        MwRegister { n }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Initial register contents.
    pub fn registers<T: Clone>(&self) -> Vec<Stamped<T>> {
        vec![Stamped::initial(); self.n]
    }

    /// The register's layout: an `n × 1` matrix of SWMR slots, one row
    /// per process.
    pub fn view<T: Clone>(&self) -> MatrixView<Stamped<T>> {
        MatrixView::root(self.n, 1)
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        self.view::<()>().row_owners()
    }

    /// Analytic read cost of one [`write`](Self::write) or
    /// [`read`](Self::read): the full collect, exactly `n` reads.
    pub fn op_reads(n: usize) -> u64 {
        n as u64
    }

    /// Analytic write cost of one `write` or `read` (the read's
    /// write-back): exactly 1.
    pub fn op_writes() -> u64 {
        1
    }

    fn collect_max<T, C>(&self, ctx: &mut C) -> Stamped<T>
    where
        T: Clone,
        C: MemCtx<Stamped<T>>,
    {
        self.view()
            .collect_col(ctx, 0)
            .into_iter()
            .reduce(|best, s| if s.key() > best.key() { s } else { best })
            .expect("n >= 1")
    }

    /// Write `v` (n reads + 1 write).
    pub fn write<T, C>(&self, ctx: &mut C, v: T)
    where
        T: Clone,
        C: MemCtx<Stamped<T>>,
    {
        let p = ctx.proc();
        let best = self.collect_max(ctx);
        self.view().write_cell(
            ctx,
            p,
            0,
            Stamped {
                tag: best.tag + 1,
                author: p,
                value: Some(v),
            },
        );
    }

    /// Read the register (n reads + 1 write — the write-back). `None`
    /// before any write.
    pub fn read<T, C>(&self, ctx: &mut C) -> Option<T>
    where
        T: Clone,
        C: MemCtx<Stamped<T>>,
    {
        let p = ctx.proc();
        let best = self.collect_max(ctx);
        self.view().write_cell_from(ctx, p, 0, &best);
        best.value
    }
}

/// Register operations over `u64` payloads (for history checking).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MwRegOp {
    /// Write a value.
    Write(u64),
    /// Read the current value.
    Read,
}

/// Register responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MwRegResp {
    /// Acknowledgement of a write.
    Ack,
    /// The value read (`None` before any write).
    Value(Option<u64>),
}

/// The sequential specification: a plain read/write register.
#[derive(Clone, Copy, Debug, Default)]
pub struct MwRegSpec;

impl DetSpec for MwRegSpec {
    type State = Option<u64>;
    type Op = MwRegOp;
    type Resp = MwRegResp;

    fn initial(&self) -> Option<u64> {
        None
    }

    fn apply(&self, state: &mut Option<u64>, _proc: ProcId, op: &MwRegOp) -> MwRegResp {
        match op {
            MwRegOp::Write(v) => {
                *state = Some(*v);
                MwRegResp::Ack
            }
            MwRegOp::Read => MwRegResp::Value(*state),
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::explore::ExploreConfig;
    use apram_model::sim::strategy::SeededRandom;
    use apram_model::sim::Budgeted;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
    use apram_model::NativeMemory;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sequential_semantics() {
        let reg = MwRegister::new(3);
        let mem = NativeMemory::new(3, reg.registers::<u64>());
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        let mut c2 = mem.ctx(2);
        assert_eq!(reg.read::<u64, _>(&mut c0), None);
        reg.write(&mut c0, 10);
        assert_eq!(reg.read(&mut c1), Some(10));
        reg.write(&mut c1, 20);
        reg.write(&mut c2, 30);
        assert_eq!(reg.read(&mut c0), Some(30));
        assert_eq!(reg.n(), 3);
    }

    /// Exhaustive linearizability: a writer and a reader-then-writer,
    /// every schedule.
    #[test]
    fn exhaustive_two_processes() {
        let reg = MwRegister::new(2);
        let sim = SimBuilder::new(reg.registers::<u64>()).owners(reg.owners());
        let spec = MwRegSpec;
        let rec_cell: Rc<RefCell<Option<Recorder<MwRegOp, MwRegResp>>>> =
            Rc::new(RefCell::new(None));
        let rc = Rc::clone(&rec_cell);
        let make = move || {
            let rec: Recorder<MwRegOp, MwRegResp> = Recorder::new();
            *rc.borrow_mut() = Some(rec.clone());
            (0..2usize)
                .map(|p| {
                    let rec = rec.clone();
                    Box::new(move |ctx: &mut SimCtx<Stamped<u64>>| {
                        rec.invoke(p, MwRegOp::Write(p as u64 + 1));
                        reg.write(ctx, p as u64 + 1);
                        rec.respond(p, MwRegResp::Ack);
                        rec.invoke(p, MwRegOp::Read);
                        let v = reg.read(ctx);
                        rec.respond(p, MwRegResp::Value(v));
                    }) as ProcBody<'static, Stamped<u64>, ()>
                })
                .collect::<Vec<_>>()
        };
        let stats = sim.explore(&ExploreConfig::new().max_runs(200_000), make, |out| {
            out.assert_no_panics();
            let hist = rec_cell.borrow_mut().take().unwrap().snapshot();
            assert!(
                check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok(),
                "non-linearizable MW register history: {hist:?}"
            );
            true
        });
        assert!(stats.exhausted, "{stats:?}");
        assert!(stats.runs > 500); // C(12,6) = 924 complete schedules
                                   // Exploration telemetry: replay work exists and is properly
                                   // bounded, and the deepest path covers all 12 accesses.
        assert_eq!(stats.max_depth_reached, 12);
        assert!(stats.replayed_steps > 0);
        assert!(stats.replay_ratio() > 0.0 && stats.replay_ratio() < 1.0);
        assert_eq!(stats.sleep_skips, 0); // plain explore never prunes
    }

    /// Three processes (two writers + reader), randomized schedules.
    #[test]
    fn randomized_three_processes() {
        for seed in 0..20u64 {
            let n = 3;
            let reg = MwRegister::new(n);
            let rec: Recorder<MwRegOp, MwRegResp> = Recorder::new();
            let rec2 = rec.clone();
            let out = SimBuilder::new(reg.registers::<u64>())
                .owners(reg.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let p = ctx.proc();
                    for k in 0..2u64 {
                        let v = p as u64 * 10 + k;
                        rec2.invoke(p, MwRegOp::Write(v));
                        reg.write(ctx, v);
                        rec2.respond(p, MwRegResp::Ack);
                        rec2.invoke(p, MwRegOp::Read);
                        let got = reg.read(ctx);
                        rec2.respond(p, MwRegResp::Value(got));
                    }
                });
            out.assert_no_panics();
            let hist = rec.snapshot();
            assert!(
                check_linearizable(&MwRegSpec, &hist, &CheckerConfig::default()).is_ok(),
                "seed {seed}: {hist:?}"
            );
        }
    }

    /// Native stress with real threads.
    #[test]
    fn native_stress() {
        for trial in 0..5 {
            let n = 4;
            let reg = MwRegister::new(n);
            let mem = NativeMemory::new(n, reg.registers::<u64>()).with_owners(reg.owners());
            let rec: Recorder<MwRegOp, MwRegResp> = Recorder::new();
            std::thread::scope(|s| {
                for p in 0..n {
                    let mem = mem.clone();
                    let rec = rec.clone();
                    s.spawn(move || {
                        let mut ctx = mem.ctx(p);
                        let v = (trial * 10 + p) as u64;
                        rec.invoke(p, MwRegOp::Write(v));
                        reg.write(&mut ctx, v);
                        rec.respond(p, MwRegResp::Ack);
                        rec.invoke(p, MwRegOp::Read);
                        let got = reg.read(&mut ctx);
                        rec.respond(p, MwRegResp::Value(got));
                    });
                }
            });
            let hist = rec.into_history();
            assert!(
                check_linearizable(&MwRegSpec, &hist, &CheckerConfig::default()).is_ok(),
                "trial {trial}: {hist:?}"
            );
        }
    }

    /// Wait-freedom under crashes, with exact step accounting.
    #[test]
    fn crash_tolerant_with_fixed_step_cost() {
        let n = 3;
        let reg = MwRegister::new(n);
        let out = SimBuilder::new(reg.registers::<u64>())
            .owners(reg.owners())
            .crashes([(1, 3), (2, 7)])
            .run_symmetric(n, move |ctx| {
                reg.write(ctx, 9);
                reg.read(ctx)
            });
        out.assert_no_panics();
        assert_eq!(out.results[0], Some(Some(9)));
        // write: n reads + 1 write; read: n reads + 1 write.
        assert_eq!(out.counts[0].reads, 2 * n as u64);
        assert_eq!(out.counts[0].writes, 2);
    }
}
