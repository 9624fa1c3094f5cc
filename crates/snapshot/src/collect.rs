//! Baseline snapshot algorithms.
//!
//! * [`DoubleCollect`] — the classic "repeated collect": read all `n`
//!   segments until two consecutive collects are identical. Linearizable
//!   (an unchanged double collect is a true instantaneous cut) but **not
//!   wait-free**: a perpetually-updating writer starves the scanner. The
//!   paper's scan exists precisely to beat this baseline; the benchmark
//!   harness compares them (experiment E7), and a test below exhibits the
//!   starvation schedule the adversary uses.
//! * [`naive_collect`] — a single collect, returned as if it were
//!   atomic. Wait-free but **not linearizable**; kept as the negative
//!   control that the linearizability checker must reject.
//!
//! Both operate on an `n`-register array of [`Tagged`] values, one
//! register per writer (a simpler layout than the scan matrix: collects
//! do not need the round columns).

use apram_history::ProcId;
use apram_lattice::Tagged;
use apram_model::MemCtx;

/// Register layout shared by the collect-based baselines: register `p`
/// holds writer `p`'s latest tagged value.
#[derive(Clone, Copy, Debug)]
pub struct CollectArray {
    n: usize,
}

impl CollectArray {
    /// An array for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        CollectArray { n }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Initial register contents.
    pub fn registers<T: Clone>(&self) -> Vec<Tagged<T>> {
        vec![Tagged::empty(); self.n]
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        (0..self.n).collect()
    }

    /// Analytic read cost of one [`collect`](Self::collect) (and of
    /// [`naive_collect`]): exactly `n` reads.
    pub fn collect_reads(n: usize) -> u64 {
        n as u64
    }

    /// One collect: read every register once (`n` reads).
    pub fn collect<T, C>(&self, ctx: &mut C) -> Vec<Tagged<T>>
    where
        T: Clone,
        C: MemCtx<Tagged<T>>,
    {
        (0..self.n).map(|q| ctx.read(q)).collect()
    }
}

/// A per-process handle for the double-collect snapshot baseline.
#[derive(Clone, Debug)]
pub struct DoubleCollect {
    arr: CollectArray,
    next_tag: u64,
}

impl DoubleCollect {
    /// A handle on the given array.
    pub fn new(arr: CollectArray) -> Self {
        DoubleCollect { arr, next_tag: 1 }
    }

    /// Analytic read bound of one [`snap`](Self::snap) when every
    /// process performs at most one update during it: each failed
    /// double collect consumes at least one of the ≤ n tag changes, so
    /// at most `n+2` collects run — `n(n+2)` reads.
    pub fn bounded_update_snap_reads(n: usize) -> u64 {
        (n * (n + 2)) as u64
    }

    /// Update the caller's slot (1 write).
    pub fn update<T, C>(&mut self, ctx: &mut C, value: T)
    where
        T: Clone,
        C: MemCtx<Tagged<T>>,
    {
        let tag = self.next_tag;
        self.next_tag += 1;
        ctx.write(ctx.proc(), Tagged::new(tag, value));
    }

    /// Snapshot by repeated collect: loops until two consecutive collects
    /// agree on every tag. **May not terminate** under adversarial
    /// schedules with concurrent writers (it is only obstruction-free).
    pub fn snap<T, C>(&mut self, ctx: &mut C) -> Vec<Option<T>>
    where
        T: Clone + PartialEq,
        C: MemCtx<Tagged<T>>,
    {
        let mut prev = self.arr.collect(ctx);
        loop {
            let cur = self.arr.collect(ctx);
            if prev.iter().zip(&cur).all(|(a, b)| a.tag == b.tag) {
                return cur.into_iter().map(|t| t.value).collect();
            }
            prev = cur;
        }
    }

    /// Like [`Self::snap`], but gives up after `max_collects` collects,
    /// returning `None`. Lets tests demonstrate starvation without
    /// hanging.
    pub fn snap_bounded<T, C>(&mut self, ctx: &mut C, max_collects: usize) -> Option<Vec<Option<T>>>
    where
        T: Clone + PartialEq,
        C: MemCtx<Tagged<T>>,
    {
        let mut prev = self.arr.collect(ctx);
        for _ in 1..max_collects {
            let cur = self.arr.collect(ctx);
            if prev.iter().zip(&cur).all(|(a, b)| a.tag == b.tag) {
                return Some(cur.into_iter().map(|t| t.value).collect());
            }
            prev = cur;
        }
        None
    }
}

/// The broken baseline: one collect, returned as a "snapshot". Wait-free,
/// `n` reads — and not linearizable (it can observe half of one update
/// and half of another).
pub fn naive_collect<T, C>(arr: &CollectArray, ctx: &mut C) -> Vec<Option<T>>
where
    T: Clone,
    C: MemCtx<Tagged<T>>,
{
    arr.collect(ctx).into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapOp, SnapResp, SnapshotSpec};
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::explore::ExploreConfig;
    use apram_model::sim::strategy::{Decision, SchedView, SeededRandom};
    use apram_model::sim::Budgeted;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
    use apram_model::NativeMemory;

    #[test]
    fn double_collect_sequential() {
        let arr = CollectArray::new(2);
        let mem = NativeMemory::new(2, arr.registers::<u32>());
        let mut h0 = DoubleCollect::new(arr);
        let mut h1 = DoubleCollect::new(arr);
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.update(&mut c0, 5);
        assert_eq!(h1.snap(&mut c1), vec![Some(5), None]);
        h1.update(&mut c1, 6);
        assert_eq!(h0.snap(&mut c0), vec![Some(5), Some(6)]);
        assert_eq!(arr.n(), 2);
    }

    /// The starvation schedule: a writer updates forever; the
    /// double-collect scanner never sees two identical collects.
    #[test]
    fn double_collect_starves_under_adversary() {
        let arr = CollectArray::new(2);
        // Adversary: let the scanner take one full collect (2 reads),
        // then interpose one writer step, forever. Consecutive collects
        // then always differ in slot 1's tag.
        let mut k = 0u64;
        let interpose = move |view: &SchedView| {
            let want = if k % 3 == 2 { 1 } else { 0 };
            k += 1;
            if view.runnable.contains(&want) {
                Decision::Step(want)
            } else {
                Decision::Step(view.runnable[0])
            }
        };
        let bodies: Vec<ProcBody<'static, Tagged<u64>, bool>> = vec![
            Box::new(move |ctx: &mut SimCtx<Tagged<u64>>| {
                let mut h = DoubleCollect::new(arr);
                h.snap_bounded(ctx, 200).is_some()
            }),
            Box::new(move |ctx: &mut SimCtx<Tagged<u64>>| {
                let mut h = DoubleCollect::new(arr);
                for k in 0..1_000u64 {
                    h.update(ctx, k);
                }
                true
            }),
        ];
        let out = SimBuilder::new(arr.registers::<u64>())
            .owners(arr.owners())
            .max_steps(5_000)
            .strategy(interpose)
            .run(bodies);
        out.assert_no_panics();
        // The scanner gave up: 200 collects, no clean double collect.
        assert_eq!(out.results[0], Some(false), "scanner should starve");
    }

    /// When it does return, double-collect is linearizable: exhaustive
    /// check on 2 processes.
    #[test]
    fn double_collect_linearizable_when_it_returns() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let arr = CollectArray::new(2);
        let spec = SnapshotSpec::<u32>::new(2);
        let rec_cell: Rc<RefCell<Option<Recorder<SnapOp<u32>, SnapResp<u32>>>>> =
            Rc::new(RefCell::new(None));
        let rec_for_make = Rc::clone(&rec_cell);
        let make = move || {
            let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
            *rec_for_make.borrow_mut() = Some(rec.clone());
            (0..2usize)
                .map(|p| {
                    let rec = rec.clone();
                    Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                        let mut h = DoubleCollect::new(arr);
                        rec.record(p, SnapOp::Update(p as u32 + 1), || {
                            h.update(ctx, p as u32 + 1);
                            SnapResp::Ack
                        });
                        rec.invoke(p, SnapOp::Snap);
                        let view = h.snap(ctx);
                        rec.respond(p, SnapResp::View(view));
                    }) as ProcBody<'static, Tagged<u32>, ()>
                })
                .collect::<Vec<_>>()
        };
        let stats = SimBuilder::new(arr.registers::<u32>())
            .owners(arr.owners())
            .explore(
                &ExploreConfig::new().max_runs(100_000).max_depth(12),
                make,
                |out| {
                    out.assert_no_panics();
                    let hist = rec_cell.borrow_mut().take().unwrap().snapshot();
                    assert!(
                        check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok(),
                        "double-collect produced non-linearizable history: {hist:?}"
                    );
                    true
                },
            );
        assert!(stats.runs > 50, "{stats:?}");
    }

    /// The naive collect is NOT linearizable. Deterministic witness
    /// schedule: the scanner's collect passes slot 1 while it is still
    /// empty; then P1's update completes, then P2's update begins and
    /// completes; then the collect reads slot 2 and sees P2's value. The
    /// resulting view `[None, None, Some(v2)]` contradicts the real-time
    /// order `update(P1) ≺ update(P2)`.
    #[test]
    fn naive_collect_violates_linearizability() {
        use apram_history::History;
        use apram_model::sim::strategy::Replay;
        let arr = CollectArray::new(3);
        let bodies: Vec<ProcBody<'static, Tagged<u32>, Option<Vec<Option<u32>>>>> = vec![
            Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| Some(naive_collect(&arr, ctx))),
            Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                DoubleCollect::new(arr).update(ctx, 1);
                None
            }),
            Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                DoubleCollect::new(arr).update(ctx, 2);
                None
            }),
        ];
        // Steps: P0 reads r0, r1 (empty); P1 writes r1 (completes);
        // P2 writes r2 (starts after P1 ended); P0 reads r2.
        let out = SimBuilder::new(arr.registers::<u32>())
            .owners(arr.owners())
            .strategy(Replay::strict(vec![0, 0, 1, 2, 0]))
            .run(bodies);
        out.assert_no_panics();
        let view = out.results[0].clone().unwrap().unwrap();
        assert_eq!(view, vec![None, None, Some(2)], "witness schedule changed?");
        // Faithful history of that execution: the snap spans everything,
        // update(P1) precedes update(P2).
        let mut h: History<SnapOp<u32>, SnapResp<u32>> = History::new();
        h.invoke(0, SnapOp::Snap);
        h.invoke(1, SnapOp::Update(1));
        h.respond(1, SnapResp::Ack);
        h.invoke(2, SnapOp::Update(2));
        h.respond(2, SnapResp::Ack);
        h.respond(0, SnapResp::View(view));
        let spec = SnapshotSpec::<u32>::new(3);
        assert!(
            !check_linearizable(&spec, &h, &CheckerConfig::default()).is_ok(),
            "checker failed to reject the naive-collect anomaly"
        );
    }

    /// Randomized agreement between double-collect and the spec under
    /// fair random schedules (it terminates there with overwhelming
    /// probability; bounded to be safe).
    #[test]
    fn double_collect_randomized() {
        for seed in 0..10u64 {
            let arr = CollectArray::new(3);
            let out = SimBuilder::new(arr.registers::<u64>())
                .owners(arr.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(3, move |ctx| {
                    let mut h = DoubleCollect::new(arr);
                    h.update(ctx, ctx.proc() as u64);
                    h.snap_bounded(ctx, 10_000)
                });
            let results = out.unwrap_results();
            for (p, r) in results.iter().enumerate() {
                let view = r.as_ref().expect("fair schedule should terminate");
                assert_eq!(view[p], Some(p as u64), "seed {seed}");
            }
        }
    }
}
