//! The Afek–Attiya–Dolev–Gafni–Merritt–Shavit snapshot (unbounded-
//! sequence-number form) — the paper's contemporaneous rival.
//!
//! Paper §2: "Two other atomic scan algorithms were developed
//! independently of the one presented here: by Afek et al. \[2\] and by
//! Anderson \[4\]. The former has time complexity comparable to ours."
//! This module implements the former so the comparison can be *measured*
//! (experiment E4b): best-case scans are cheaper than the lattice scan
//! (two quiet collects: `2n` reads), worst-case scans borrow an
//! embedded view after at most `n+1` failed double collects (`O(n²)`
//! reads), and updates embed a full scan (`O(n²)`), against the lattice
//! scan's fixed `n²−1`.
//!
//! Algorithm (classic):
//!
//! * register `q` holds `(seq, value, view)`, written only by `q`;
//! * `scan`: repeat double collects. If nothing's sequence number moved,
//!   the second collect is a snapshot. Whenever `q` is seen to move for
//!   the **second** time, `q`'s *embedded view* was produced by a scan
//!   that ran entirely inside ours — return it ("borrowing").
//! * `update(v)`: perform a `scan`, then write
//!   `(seq+1, v, that scan)`.
//!
//! [`AfekHandle`] runs it in buffers a process keeps from one operation
//! to the next. A read copies the register's sequence number and value
//! into them, and its view only when that register lends it
//! (`MemCtx::read_with`); an update's write copies the handle's next
//! register value into the register's own storage (`MemCtx::write_from`).
//! [`AfekSnapshot::snap`] and [`AfekSnapshot::update`] run a fresh handle.
//!
//! Linearizability is verified by exhaustive exploration and randomized
//! stress against the same [`SnapshotSpec`](crate::snapshot::SnapshotSpec)
//! as the lattice snapshot.

use apram_history::ProcId;
use apram_model::MemCtx;

/// The register contents of one process in the Afek et al. snapshot.
///
/// `Clone` is written by hand so that `clone_from` copies field by field
/// into the value already there, as `TaggedVec`'s does: a register
/// overwritten in place (see `MemCtx::write_from`) refills the view's
/// buffer instead of allocating a new one.
#[derive(Debug, PartialEq)]
pub struct AfekReg<T> {
    /// Monotone per-writer sequence number (0 = never written).
    pub seq: u64,
    /// The writer's current value.
    pub value: Option<T>,
    /// The scan embedded in the write.
    pub view: Vec<Option<T>>,
}

impl<T: Clone> Clone for AfekReg<T> {
    fn clone(&self) -> Self {
        AfekReg {
            seq: self.seq,
            value: self.value.clone(),
            view: self.view.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.seq = source.seq;
        self.value.clone_from(&source.value);
        self.view.clone_from(&source.view);
    }
}

impl<T> AfekReg<T> {
    /// The initial register contents.
    pub fn initial(n: usize) -> Self {
        AfekReg {
            seq: 0,
            value: None,
            view: (0..n).map(|_| None).collect(),
        }
    }
}

/// The Afek et al. snapshot object for `n` processes.
#[derive(Clone, Copy, Debug)]
pub struct AfekSnapshot {
    n: usize,
}

impl AfekSnapshot {
    /// A snapshot object for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        AfekSnapshot { n }
    }

    /// Number of processes / slots.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Initial register contents.
    pub fn registers<T: Clone>(&self) -> Vec<AfekReg<T>> {
        vec![AfekReg::initial(self.n); self.n]
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        (0..self.n).collect()
    }

    /// A per-process handle: the buffers a scan works in, kept from one
    /// operation to the next. Making one allocates nothing.
    pub fn handle<T>(&self) -> AfekHandle<T> {
        AfekHandle {
            n: self.n,
            prev: Vec::new(),
            seqs: Vec::new(),
            values: Vec::new(),
            moved: Vec::new(),
            borrowed: Vec::new(),
            next: AfekReg {
                seq: 0,
                value: None,
                view: Vec::new(),
            },
        }
    }

    /// Analytic read cost of a quiet (uncontended) [`snap`](Self::snap):
    /// two collects, `2n` reads.
    pub fn quiet_snap_reads(n: usize) -> u64 {
        2 * n as u64
    }

    /// Analytic read bound of a [`snap`](Self::snap) when every other
    /// process performs at most one update during it: each failed
    /// double collect consumes at least one of the ≤ n sequence-number
    /// changes, so at most `n+2` collects run — `n(n+2)` reads.
    pub fn bounded_update_snap_reads(n: usize) -> u64 {
        (n * (n + 2)) as u64
    }

    /// Analytic read bound of an [`update`](Self::update) under the same
    /// at-most-one-concurrent-update-per-process assumption: the
    /// embedded snap plus one read of the own register.
    pub fn bounded_update_update_reads(n: usize) -> u64 {
        Self::bounded_update_snap_reads(n) + 1
    }

    /// An atomic snapshot of every process's latest value
    /// ([`AfekHandle::snap`] on a fresh handle).
    pub fn snap<T, C>(&self, ctx: &mut C) -> Vec<Option<T>>
    where
        T: Clone,
        C: MemCtx<AfekReg<T>>,
    {
        self.handle().snap(ctx)
    }

    /// Set the calling process's slot to `value` (embeds a scan, then
    /// one write; [`AfekHandle::update`] on a fresh handle).
    pub fn update<T, C>(&self, ctx: &mut C, value: T)
    where
        T: Clone,
        C: MemCtx<AfekReg<T>>,
    {
        self.handle().update(ctx, value)
    }
}

/// A per-process handle on an [`AfekSnapshot`]. It owns a scan's
/// buffers, so that its operations copy register contents into storage
/// they already have: a warmed handle's `update` allocates nothing, and
/// its `snap` only the view it returns. Every buffer starts empty and
/// takes its size at the first scan.
///
/// The accesses are the algorithm's, in its order: every collect reads
/// each register once and runs to the end, and an `update` reads its own
/// register before its one write.
#[derive(Clone, Debug)]
pub struct AfekHandle<T> {
    n: usize,
    /// The previous collect's sequence numbers.
    prev: Vec<u64>,
    /// This collect's sequence numbers.
    seqs: Vec<u64>,
    /// This collect's values; after a scan, the view it returns.
    values: Vec<Option<T>>,
    /// Which registers have moved since the scan began.
    moved: Vec<bool>,
    /// The embedded view lent by a register that moved twice.
    borrowed: Vec<Option<T>>,
    /// The register value the next update writes.
    next: AfekReg<T>,
}

impl<T: Clone> AfekHandle<T> {
    /// An atomic snapshot of every process's latest value.
    pub fn snap<C: MemCtx<AfekReg<T>>>(&mut self, ctx: &mut C) -> Vec<Option<T>> {
        self.scan(ctx);
        self.values.clone()
    }

    /// Set the calling process's slot to `value` (embeds a scan, then
    /// one write).
    pub fn update<C: MemCtx<AfekReg<T>>>(&mut self, ctx: &mut C, value: T) {
        self.scan(ctx);
        // The scan's result becomes the embedded view, and the buffer it
        // replaces is the next scan's to fill.
        std::mem::swap(&mut self.values, &mut self.next.view);
        let me = ctx.proc();
        self.next.seq = ctx.read_with(me, |cur| cur.seq) + 1;
        self.next.value = Some(value);
        ctx.write_from(me, &self.next);
    }

    /// Repeat double collects until one is quiet or a register lends its
    /// view; either way the result is left in `values`.
    fn scan<C: MemCtx<AfekReg<T>>>(&mut self, ctx: &mut C) {
        let n = self.n;
        self.prev.resize(n, 0);
        self.seqs.resize(n, 0);
        self.values.resize(n, None);
        self.moved.clear();
        self.moved.resize(n, false);
        self.collect(ctx);
        loop {
            std::mem::swap(&mut self.prev, &mut self.seqs);
            if self.collect(ctx) {
                // A register moved twice since we started: its embedded
                // view comes from a scan nested inside ours.
                std::mem::swap(&mut self.values, &mut self.borrowed);
                return;
            }
            if self.prev == self.seqs {
                // A quiet double collect is an instantaneous cut.
                return;
            }
            for q in 0..n {
                self.moved[q] |= self.prev[q] != self.seqs[q];
            }
        }
    }

    /// One collect: read every register once, in index order, copying
    /// its sequence number and value. The lowest register that moves
    /// here after having moved before in this scan lends its embedded
    /// view, copied inside that read alone; returns whether one did.
    fn collect<C: MemCtx<AfekReg<T>>>(&mut self, ctx: &mut C) -> bool {
        let mut lent = false;
        for q in 0..self.n {
            let lends = !lent && self.moved[q];
            lent |= ctx.read_with(q, |r| {
                self.seqs[q] = r.seq;
                self.values[q].clone_from(&r.value);
                let lends = lends && r.seq != self.prev[q];
                if lends {
                    self.borrowed.clone_from(&r.view);
                }
                lends
            });
        }
        lent
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapOp, SnapResp, SnapshotSpec};
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::explore::ExploreConfig;
    use apram_model::sim::strategy::{Decision, SchedView, Strategy as Schedule};
    use apram_model::sim::strategy::{Pct, SeededRandom};
    use apram_model::sim::Budgeted;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx, SimOutcome};
    use apram_model::NativeMemory;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The algorithm as it was first written, kept as the oracle: every
    /// read clones the whole register, view and all. Returns the view
    /// and whether it was borrowed.
    fn reference_snap<T, C>(n: usize, ctx: &mut C) -> (Vec<Option<T>>, bool)
    where
        T: Clone,
        C: MemCtx<AfekReg<T>>,
    {
        let collect = |ctx: &mut C| (0..n).map(|q| ctx.read(q)).collect::<Vec<_>>();
        let mut moved = vec![false; n];
        let mut a = collect(ctx);
        loop {
            let b = collect(ctx);
            if (0..n).all(|q| a[q].seq == b[q].seq) {
                return (b.into_iter().map(|r| r.value).collect(), false);
            }
            for q in 0..n {
                if a[q].seq != b[q].seq {
                    if moved[q] {
                        return (b[q].view.clone(), true);
                    }
                    moved[q] = true;
                }
            }
            a = b;
        }
    }

    /// The oracle's update; returns whether its scan borrowed.
    fn reference_update<T, C>(n: usize, ctx: &mut C, value: T) -> bool
    where
        T: Clone,
        C: MemCtx<AfekReg<T>>,
    {
        let (view, borrowed) = reference_snap(n, ctx);
        let me = ctx.proc();
        let cur = ctx.read(me);
        ctx.write(
            me,
            AfekReg {
                seq: cur.seq + 1,
                value: Some(value),
                view,
            },
        );
        borrowed
    }

    #[test]
    fn sequential_update_snap() {
        let snap = AfekSnapshot::new(2);
        let mem = NativeMemory::new(2, snap.registers::<u32>());
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        assert_eq!(snap.snap::<u32, _>(&mut c0), vec![None, None]);
        snap.update(&mut c0, 10);
        snap.update(&mut c1, 20);
        assert_eq!(snap.snap(&mut c0), vec![Some(10), Some(20)]);
        snap.update(&mut c1, 21);
        assert_eq!(snap.snap(&mut c1), vec![Some(10), Some(21)]);
        assert_eq!(snap.n(), 2);
    }

    /// Best-case cost: a quiet snap is exactly two collects (2n reads);
    /// an uncontended update is a quiet snap + 1 read + 1 write.
    #[test]
    fn quiet_operation_costs() {
        for n in [2usize, 4, 8] {
            let snap = AfekSnapshot::new(n);
            // One process runs alone (others never scheduled): quiet.
            let out = SimBuilder::new(snap.registers::<u32>())
                .owners(snap.owners())
                .strategy(apram_model::sim::strategy::PrioritizeLowest)
                .run_symmetric(1, move |ctx| {
                    let before = snap.snap::<u32, _>(ctx);
                    snap.update(ctx, 7);
                    before
                });
            out.assert_no_panics();
            // snap: 2n reads; update: 2n reads + 1 read + 1 write.
            assert_eq!(out.counts[0].reads, (2 * n + 2 * n + 1) as u64, "n={n}");
            assert_eq!(out.counts[0].writes, 1, "n={n}");
        }
    }

    /// Exhaustive linearizability on 2 processes (update + snap each),
    /// histories recorded in real time.
    #[test]
    fn exhaustive_two_processes() {
        let snap = AfekSnapshot::new(2);
        let spec = SnapshotSpec::<u32>::new(2);
        let rec_cell: Rc<RefCell<Option<Recorder<SnapOp<u32>, SnapResp<u32>>>>> =
            Rc::new(RefCell::new(None));
        let rc = Rc::clone(&rec_cell);
        let make = move || {
            let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
            *rc.borrow_mut() = Some(rec.clone());
            (0..2usize)
                .map(|p| {
                    let rec = rec.clone();
                    Box::new(move |ctx: &mut SimCtx<AfekReg<u32>>| {
                        rec.record(p, SnapOp::Update(p as u32 + 1), || {
                            snap.update(ctx, p as u32 + 1);
                            SnapResp::Ack
                        });
                        rec.invoke(p, SnapOp::Snap);
                        let view = snap.snap(ctx);
                        rec.respond(p, SnapResp::View(view));
                    }) as ProcBody<'static, AfekReg<u32>, ()>
                })
                .collect::<Vec<_>>()
        };
        let stats = SimBuilder::new(snap.registers::<u32>())
            .owners(snap.owners())
            .explore(
                &ExploreConfig::new().max_runs(100_000).max_depth(14),
                make,
                |out| {
                    out.assert_no_panics();
                    let hist = rec_cell.borrow_mut().take().unwrap().snapshot();
                    assert!(
                        check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok(),
                        "non-linearizable Afek snapshot history: {hist:?}"
                    );
                    true
                },
            );
        assert!(stats.runs > 100, "{stats:?}");
    }

    /// Randomized + PCT schedules, 3 processes.
    #[test]
    fn randomized_three_processes() {
        for seed in 0..12u64 {
            for use_pct in [false, true] {
                let n = 3;
                let snap = AfekSnapshot::new(n);
                let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
                let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
                let rec2 = rec.clone();
                let body = move |ctx: &mut SimCtx<AfekReg<u32>>| {
                    let p = ctx.proc();
                    for k in 0..2u32 {
                        let v = p as u32 * 10 + k;
                        rec2.invoke(p, SnapOp::Update(v));
                        snap.update(ctx, v);
                        rec2.respond(p, SnapResp::Ack);
                        rec2.invoke(p, SnapOp::Snap);
                        let view = snap.snap(ctx);
                        rec2.respond(p, SnapResp::View(view));
                    }
                };
                let mut sim = if use_pct {
                    sim.strategy(Pct::new(seed, n, 3, 400))
                } else {
                    sim.strategy(SeededRandom::new(seed))
                };
                let out = sim.run_symmetric(n, body);
                out.assert_no_panics();
                let hist = rec.snapshot();
                assert!(
                    check_linearizable(
                        &SnapshotSpec::<u32>::new(n),
                        &hist,
                        &CheckerConfig::default()
                    )
                    .is_ok(),
                    "seed {seed} pct={use_pct}: {hist:?}"
                );
            }
        }
    }

    /// Wait-freedom: the scan borrows an embedded view instead of
    /// looping forever under a perpetual-writer adversary.
    #[test]
    fn scanner_terminates_under_perpetual_writer() {
        let n = 2;
        let snap = AfekSnapshot::new(n);
        let bodies: Vec<ProcBody<'static, AfekReg<u64>, Option<Vec<Option<u64>>>>> = vec![
            Box::new(move |ctx: &mut SimCtx<AfekReg<u64>>| Some(snap.snap(ctx))),
            Box::new(move |ctx: &mut SimCtx<AfekReg<u64>>| {
                for v in 0..500u64 {
                    snap.update(ctx, v);
                }
                None
            }),
        ];
        let out = apram_model::sim::SimBuilder::new(snap.registers::<u64>())
            .owners(snap.owners())
            .max_steps(200_000)
            // Same interposing adversary that starves the double-collect
            // baseline (one writer step between the scanner's collects).
            .strategy(Cycle(&[0, 0, 1], 0))
            .run(bodies);
        out.assert_no_panics();
        let view = out.results[0].clone().expect("scanner must terminate");
        assert!(view.is_some(), "borrowed or quiet view returned");
        assert!(!out.halted, "must finish well within the step budget");
    }

    /// Crash tolerance mirrors the lattice snapshot's.
    #[test]
    fn survivor_completes_despite_crashes() {
        let n = 3;
        let snap = AfekSnapshot::new(n);
        let out = SimBuilder::new(snap.registers::<u32>())
            .owners(snap.owners())
            .crashes([(1, 5), (2, 9)])
            .run_symmetric(n, move |ctx| {
                snap.update(ctx, 1);
                snap.snap(ctx)
            });
        out.assert_no_panics();
        let view = out.results[0].clone().expect("survivor finishes");
        assert_eq!(view[0], Some(1));
    }

    /// What one process of a differential run saw: its snaps' views and
    /// how many of its scans borrowed (counted by the oracle alone).
    type Seen = (Vec<Vec<Option<u64>>>, u32);

    /// Process `p` runs `script` — `u` an update, `s` a snap — through
    /// one handle, or through the oracle.
    fn workload(ctx: &mut SimCtx<AfekReg<u64>>, n: usize, script: &str, oracle: bool) -> Seen {
        let p = ctx.proc() as u64;
        let mut h = AfekSnapshot::new(n).handle();
        let (mut views, mut borrows) = (Vec::new(), 0);
        for (k, op) in (0..).zip(script.chars()) {
            match (op, oracle) {
                ('u', true) => borrows += reference_update(n, ctx, p * 1000 + k) as u32,
                ('u', false) => h.update(ctx, p * 1000 + k),
                (_, true) => {
                    let (view, borrowed) = reference_snap(n, ctx);
                    views.push(view);
                    borrows += borrowed as u32;
                }
                (_, false) => views.push(h.snap(ctx)),
            }
        }
        (views, borrows)
    }

    /// Run one [`workload`] script per process under `strategy`, and
    /// check that the handle returns what the oracle returns with the
    /// same reads and writes per process, leaving the same registers.
    /// Returns the oracle's borrows.
    fn differential<S: Schedule + Send + 'static>(
        scripts: &[String],
        strategy: impl Fn() -> S,
    ) -> u32 {
        let n = scripts.len();
        let run = |oracle: bool| {
            let snap = AfekSnapshot::new(n);
            let bodies: Vec<ProcBody<'static, AfekReg<u64>, Seen>> = scripts
                .iter()
                .map(|script| {
                    let script = script.clone();
                    Box::new(move |ctx: &mut SimCtx<AfekReg<u64>>| {
                        workload(ctx, n, &script, oracle)
                    }) as ProcBody<'static, AfekReg<u64>, Seen>
                })
                .collect();
            SimBuilder::new(snap.registers::<u64>())
                .owners(snap.owners())
                .max_steps(200_000)
                .strategy(strategy())
                .run(bodies)
        };
        let (oracle, handle) = (run(true), run(false));
        oracle.assert_no_panics();
        assert!(!oracle.halted && !handle.halted);
        let views = |out: &SimOutcome<_, Seen>| -> Vec<_> {
            out.results
                .iter()
                .map(|r| r.as_ref().map(|(v, _)| v.clone()))
                .collect()
        };
        assert_eq!(views(&handle), views(&oracle), "returned views");
        for (h, o) in handle.counts.iter().zip(&oracle.counts) {
            assert_eq!(
                (h.reads, h.writes),
                (o.reads, o.writes),
                "per-process steps"
            );
        }
        assert_eq!(handle.memory, oracle.memory, "final registers");
        oracle.results.iter().flatten().map(|(_, b)| b).sum()
    }

    /// A fixed cyclic schedule: step `k` goes to `pattern[k % len]`, or
    /// to the lowest runnable process when that one is done.
    struct Cycle(&'static [usize], usize);

    impl Schedule for Cycle {
        fn decide(&mut self, view: &SchedView) -> Decision {
            let want = self.0[self.1 % self.0.len()];
            self.1 += 1;
            if view.runnable.contains(&want) {
                Decision::Step(want)
            } else {
                Decision::Step(view.runnable[0])
            }
        }
    }

    /// The handle is the clone-everything algorithm with its copies
    /// moved into buffers: on the same schedules it returns the same
    /// views after the same reads and writes, borrowed views included.
    #[test]
    fn handle_agrees_with_the_clone_based_algorithm() {
        for n in [2usize, 3] {
            let scripts = vec!["ususus".to_string(); n];
            for seed in 0..16u64 {
                differential(&scripts, || SeededRandom::new(seed));
                differential(&scripts, || Pct::new(seed, n, 3, 400));
            }
        }
        // A scanner against a perpetual writer, under the adversary of
        // `scanner_terminates_under_perpetual_writer` (one writer step
        // between two of the scanner's)...
        let scanner_and_writer = ["s".to_string(), "u".repeat(500)];
        differential(&scanner_and_writer, || Cycle(&[0, 0, 1], 0));
        // ...and under one that fits a whole update (six steps) between
        // the scanner's two-read collects: its third collect sees the
        // writer move for the second time, and borrows.
        let lapped = differential(&scanner_and_writer, || Cycle(&[0, 0, 1, 1, 1, 1, 1, 1], 0));
        assert!(lapped > 0, "the lapped scanner borrowed no view");
        // Two writers lapping a scanner (eight steps an update at n = 3)
        // both move twice by its third collect: the lower one lends.
        let two_writers = ["s".to_string(), "u".repeat(100), "u".repeat(100)];
        let lap = &[0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2];
        assert!(differential(&two_writers, || Cycle(lap, 0)) > 0);
    }

    /// Views of lengths 0–4, each slot `None` or `Some`.
    fn afek_reg() -> impl Strategy<Value = AfekReg<u64>> {
        let view = proptest::collection::vec(0u64..4, 0..5);
        (0u64..4, 0u64..3, view).prop_map(|(seq, value, view)| {
            let some = |k: u64| (k > 0).then_some(k * 10);
            AfekReg {
                seq,
                value: some(value),
                view: view.into_iter().map(some).collect(),
            }
        })
    }

    proptest! {
        /// The hand-written `clone_from` copies exactly what `clone`
        /// does, whatever the target held — on `u64` payloads and on
        /// payloads with a `clone_from` of their own.
        #[test]
        fn clone_from_agrees_with_clone(x in afek_reg(), y in afek_reg()) {
            apram_lattice::laws::assert_clone_from_consistent(&x, &y);
            let heap = |r: &AfekReg<u64>| {
                let boxed = |v: &Option<u64>| v.map(|k| vec![k; k as usize % 7]);
                AfekReg {
                    seq: r.seq,
                    value: boxed(&r.value),
                    view: r.view.iter().map(boxed).collect(),
                }
            };
            apram_lattice::laws::assert_clone_from_consistent(&heap(&x), &heap(&y));
        }
    }
}
