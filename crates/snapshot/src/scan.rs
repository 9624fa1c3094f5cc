//! The `Scan` procedure of Figure 5, generic over a join-semilattice.
//!
//! ```text
//! proc Scan(P: process, v: value) returns (value)
//!     scan[P]\[0\] := v ∨ scan[P]\[0\]
//!     for i in 1 .. n+1 do
//!         for Q in 1 .. n do
//!             scan[P][i] := scan[P][i] ∨ scan[Q][i-1]
//!     return scan[P][n+1]
//! ```
//!
//! `Write_L(P, v)` executes `Scan(P, v)` and discards the result;
//! `ReadMax(P)` executes `Scan(P, ⊥)`.
//!
//! Two implementations are provided, matching the paper's own operation
//! accounting (§6.2):
//!
//! * [`ScanObject::scan`] — the literal procedure: **`n²+n+1` reads and
//!   `n+2` writes** (within each pass the running join is a local
//!   accumulator, which is how the paper counts `n` reads + 1 write per
//!   pass).
//! * [`ScanHandle::scan`] — the optimized variant: the final write (to
//!   `scan[P][n+1]`) is dropped and a process never reads its own
//!   registers (it caches them), giving **`n²−1` reads and `n+1`
//!   writes**.
//!
//! Both are verified step-exact by the tests below, and both satisfy the
//! same linearizability proof: the optimization removes only operations
//! whose results the process already knows.

use apram_lattice::JoinSemilattice;
use apram_model::ctx::Matrix;
use apram_model::{MatrixView, MemCtx, ProcId};

/// The layout and procedures of one atomic scan object for `n` processes.
///
/// The object occupies `n × (n+2)` registers of lattice type `L`
/// (the paper's `scan[1..n][0..n+1]` matrix), each initialized to ⊥ and
/// writable only by its row owner. All register addressing goes through a
/// [`MatrixView`], so offsets never leak into the procedures.
#[derive(Clone, Copy, Debug)]
pub struct ScanObject {
    n: usize,
    /// Untyped view of the object's matrix within the register array
    /// (lets several objects share one array); retyped to the lattice at
    /// each access site.
    view: MatrixView<()>,
}

impl ScanObject {
    /// An object for `n` processes rooted at register `base`.
    pub fn at(n: usize, base: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        ScanObject {
            n,
            view: MatrixView::new(Matrix::new(n, n + 2), base),
        }
    }

    /// An object for `n` processes rooted at register 0.
    pub fn new(n: usize) -> Self {
        Self::at(n, 0)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of registers the object occupies.
    pub fn n_regs(&self) -> usize {
        self.view.matrix().len()
    }

    /// The object's register matrix as a typed [`MatrixView`]: row `p`,
    /// column `i` is the paper's `scan[p][i]`.
    pub fn view<L>(&self) -> MatrixView<L> {
        MatrixView::new(self.view.matrix(), self.view.reg(0, 0))
    }

    /// Initial register contents (all ⊥) for this object alone.
    pub fn registers<L: JoinSemilattice>(&self) -> Vec<L> {
        (0..self.n_regs()).map(|_| L::bottom()).collect()
    }

    /// Owner map realizing the single-writer discipline (`scan[P][i]` is
    /// written only by `P`), offset-free (for this object alone).
    pub fn owners(&self) -> Vec<ProcId> {
        self.view.row_owners()
    }

    /// Register index of `scan[p]\[0\]` — process `p`'s *input* register,
    /// which holds exactly the join of the values `p` has written. Test
    /// harnesses peek these to audit object state from outside.
    pub fn input_register(&self, p: ProcId) -> usize {
        self.view.reg(p, 0)
    }

    /// §6.2 analytic read cost of one literal [`scan`](Self::scan):
    /// `n²+n+1`. Schedule-independent — the distribution experiments
    /// assert measured p-max equals this exactly.
    pub fn literal_scan_reads(n: usize) -> u64 {
        (n * n + n + 1) as u64
    }

    /// §6.2 analytic write cost of one literal scan: `n+2`.
    pub fn literal_scan_writes(n: usize) -> u64 {
        (n + 2) as u64
    }

    /// §6.2 analytic read cost of one optimized
    /// [`ScanHandle::scan`]: `n²−1`.
    pub fn optimized_scan_reads(n: usize) -> u64 {
        (n * n - 1) as u64
    }

    /// §6.2 analytic write cost of one optimized scan: `n+1`.
    pub fn optimized_scan_writes(n: usize) -> u64 {
        (n + 1) as u64
    }

    /// The literal Figure 5 `Scan`: `n²+n+1` reads, `n+2` writes.
    pub fn scan<L, C>(&self, ctx: &mut C, v: L) -> L
    where
        L: JoinSemilattice,
        C: MemCtx<L>,
    {
        let p = ctx.proc();
        let n = self.n;
        let scan = self.view::<L>();
        // Line 2: scan[P][0] := v ∨ scan[P][0]
        let mut cur = scan.read_cell(ctx, p, 0);
        cur.join_assign(&v);
        scan.write_cell_from(ctx, p, 0, &cur);
        // Lines 3–7: n+1 passes, each reading column i−1 of every process
        // and writing the accumulated join to scan[P][i].
        for i in 1..=n + 1 {
            let mut acc = L::bottom();
            for q in 0..n {
                let x = scan.read_cell(ctx, q, i - 1);
                acc.join_assign(&x);
            }
            scan.write_cell_from(ctx, p, i, &acc);
            cur = acc;
        }
        // Line 8: return scan[P][n+1] — the value just written.
        cur
    }

    /// `Write_L(P, v)`: a scan whose return value is discarded.
    pub fn write_l<L, C>(&self, ctx: &mut C, v: L)
    where
        L: JoinSemilattice,
        C: MemCtx<L>,
    {
        let _ = self.scan(ctx, v);
    }

    /// `ReadMax(P)`: a scan of ⊥.
    pub fn read_max<L, C>(&self, ctx: &mut C) -> L
    where
        L: JoinSemilattice,
        C: MemCtx<L>,
    {
        self.scan(ctx, L::bottom())
    }
}

/// A per-process handle running the §6.2-optimized scan: own-register
/// reads are served from a cache and the final write is elided.
///
/// The cache is sound because `scan[P][i]` is single-writer: its content
/// is always the last value this handle wrote (or ⊥ before any write).
/// One handle per `(process, object)` pair; creating two handles for the
/// same process would desynchronize the cache.
#[derive(Clone, Debug)]
pub struct ScanHandle<L> {
    obj: ScanObject,
    /// `own[i]` mirrors `scan[P][i]`; `own[n+1]` mirrors the value the
    /// unoptimized algorithm *would* have written there.
    own: Vec<L>,
}

impl<L: JoinSemilattice> ScanHandle<L> {
    /// A handle for the calling process (identified at each call by the
    /// context) on `obj`.
    pub fn new(obj: ScanObject) -> Self {
        let own = (0..obj.n + 2).map(|_| L::bottom()).collect();
        ScanHandle { obj, own }
    }

    /// The underlying object.
    pub fn object(&self) -> &ScanObject {
        &self.obj
    }

    /// The optimized `Scan`: `n²−1` reads, `n+1` writes.
    ///
    /// Figure 5's line is `scan[P][i] := scan[P][i] ∨ scan[Q][i-1]`, a
    /// join *into* the register, and it is taken here as written: pass
    /// `i` joins column `i−1` into `own[i]` instead of accumulating it
    /// from `own[i−1]` into a fresh value. Both give the same value.
    /// Every register only grows (each write is a join onto what the
    /// register held), so what `own[i]` holds from the last scan — the
    /// join of column `i−1` as it stood then — lies below the join of
    /// column `i−1` as it stands now, and joining it in changes
    /// nothing. What it saves is the copying: a join that finds nothing
    /// new writes nothing, the other processes' registers are read by
    /// reference ([`MemCtx::read_with`]), and the cache columns are
    /// written by reference too ([`MemCtx::write_from`]), so that a
    /// backend with storage of its own copies them in place.
    pub fn scan<C: MemCtx<L>>(&mut self, ctx: &mut C, v: L) -> L {
        self.scan_in_place(ctx, &v).clone()
    }

    /// [`scan`](Self::scan), returning the result where it already
    /// lies: in the cache, as `scan[P][n+1]`.
    // Inlined, a word-sized lattice's whole scan stays in registers: the
    // packed-tier max-register read measured 78–82 ns without the hint,
    // 70–73 ns with it (the accumulating scan: 70).
    #[inline]
    pub(crate) fn scan_in_place<C: MemCtx<L>>(&mut self, ctx: &mut C, v: &L) -> &L {
        self.scan_joining(ctx, |first| first.join_assign(v))
    }

    /// The scan with line 2's `scan[P][0] := v ∨ scan[P][0]` left to
    /// `join`, which is handed the cached `scan[P][0]` and must leave it
    /// joined with the input — larger or equal in the lattice, never
    /// anything else. Lets a caller whose input differs from what the
    /// cache holds in one place change that place, rather than build
    /// the input to have it joined.
    #[inline]
    pub(crate) fn scan_joining<C: MemCtx<L>>(
        &mut self,
        ctx: &mut C,
        join: impl FnOnce(&mut L),
    ) -> &L {
        let p = ctx.proc();
        let n = self.obj.n;
        let scan = self.obj.view::<L>();
        let (first, rest) = self
            .own
            .split_first_mut()
            .expect("the cache has n + 2 columns");
        // scan[P][0] := v ∨ scan[P][0], with the read served by the cache.
        join(first);
        scan.write_cell_from(ctx, p, 0, first);
        let mut prev: &L = first;
        for (i, acc) in (1..).zip(rest) {
            // The cached own value of column i−1 replaces the Q = P read.
            acc.join_assign(prev);
            for q in (0..n).filter(|&q| q != p) {
                scan.read_cell_with(ctx, q, i - 1, |x| acc.join_assign(x));
            }
            if i <= n {
                scan.write_cell_from(ctx, p, i, acc);
            }
            prev = acc;
        }
        prev
    }

    /// Optimized `Write_L`.
    pub fn write_l<C: MemCtx<L>>(&mut self, ctx: &mut C, v: L) {
        self.scan_in_place(ctx, &v);
    }

    /// Optimized `ReadMax`.
    pub fn read_max<C: MemCtx<L>>(&mut self, ctx: &mut C) -> L {
        self.scan(ctx, L::bottom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_lattice::{MaxU64, SetUnion, TaggedVec};
    use apram_model::sim::strategy::{Pct, SeededRandom, Strategy};
    use apram_model::sim::SimCtx;
    use apram_model::{NativeMemory, SimBuilder, StepCounts};
    use std::sync::Mutex;

    /// The optimized scan as it was before the join moved in place:
    /// every register read by value, pass `i` accumulated from a copy
    /// of `own[i−1]` and stored over `own[i]`. Kept as the oracle the
    /// in-place scan is compared with.
    struct AccumulatingHandle<L> {
        obj: ScanObject,
        own: Vec<L>,
    }

    impl<L: JoinSemilattice> AccumulatingHandle<L> {
        fn new(obj: ScanObject) -> Self {
            let own = (0..obj.n + 2).map(|_| L::bottom()).collect();
            AccumulatingHandle { obj, own }
        }

        fn scan<C: MemCtx<L>>(&mut self, ctx: &mut C, v: L) -> L {
            let p = ctx.proc();
            let n = self.obj.n;
            let scan = self.obj.view::<L>();
            self.own[0].join_assign(&v);
            scan.write_cell(ctx, p, 0, self.own[0].clone());
            for i in 1..=n + 1 {
                let mut acc = self.own[i - 1].clone();
                for q in (0..n).filter(|&q| q != p) {
                    let x = scan.read_cell(ctx, q, i - 1);
                    acc.join_assign(&x);
                }
                if i <= n {
                    scan.write_cell(ctx, p, i, acc.clone());
                }
                self.own[i] = acc;
            }
            self.own[n + 1].clone()
        }
    }

    /// What one process did up to its crash: the value each scan
    /// returned, and every `(register, value)` it wrote.
    type Did<L> = (Vec<L>, Vec<(usize, L)>);

    /// A context that notes every value its process writes, as it
    /// writes it: a crash unwinds out of the scan.
    struct Taped<'a, L: Clone> {
        inner: &'a mut SimCtx<L>,
        did: &'a Mutex<Did<L>>,
    }

    impl<L: Clone> MemCtx<L> for Taped<'_, L> {
        fn proc(&self) -> ProcId {
            self.inner.proc()
        }
        fn n_procs(&self) -> usize {
            self.inner.n_procs()
        }
        fn n_regs(&self) -> usize {
            self.inner.n_regs()
        }
        fn read(&mut self, reg: usize) -> L {
            self.inner.read(reg)
        }
        fn write(&mut self, reg: usize, val: L) {
            self.did.lock().unwrap().1.push((reg, val.clone()));
            self.inner.write(reg, val);
        }
    }

    /// How a run is scheduled: the seed, PCT or uniformly random, and
    /// the `(process, global step)` crash plan.
    #[derive(Clone, Debug)]
    struct Plan {
        seed: u64,
        pct: bool,
        crashes: Vec<(ProcId, u64)>,
    }

    /// Run one script of scan inputs per process under `plan`; returns
    /// what each process did and the final register contents.
    fn run_scans<L, H>(
        inputs: &[Vec<L>],
        plan: &Plan,
        handle: impl Fn(ScanObject) -> H + Sync,
        scan: impl Fn(&mut H, &mut Taped<'_, L>, L) -> L + Sync,
    ) -> (Vec<Did<L>>, Vec<L>)
    where
        L: JoinSemilattice + Send + Sync,
    {
        let n = inputs.len();
        let obj = ScanObject::new(n);
        let schedule: Box<dyn Strategy + Send> = if plan.pct {
            Box::new(Pct::new(plan.seed, n, 3, 400))
        } else {
            Box::new(SeededRandom::new(plan.seed))
        };
        let did: Vec<Mutex<Did<L>>> = (0..n).map(|_| Mutex::default()).collect();
        let out = SimBuilder::new(obj.registers::<L>())
            .owners(obj.owners())
            .strategy(schedule)
            .crashes(plan.crashes.iter().copied().filter(|&(p, _)| p < n))
            .run_symmetric(n, |ctx| {
                let did = &did[ctx.proc()];
                let mut h = handle(obj);
                for v in &inputs[ctx.proc()] {
                    let mut taped = Taped { inner: ctx, did };
                    let returned = scan(&mut h, &mut taped, v.clone());
                    did.lock().unwrap().0.push(returned);
                }
            });
        out.assert_no_panics();
        let did = did.into_iter().map(|m| m.into_inner().unwrap()).collect();
        (did, out.memory)
    }

    /// The in-place scan against the accumulating one, under the same
    /// schedule and crash plan (both make the same accesses, so they
    /// take the same interleaving).
    fn assert_in_place_scan_agrees<L>(inputs: &[Vec<L>], plan: &Plan)
    where
        L: JoinSemilattice + PartialEq + std::fmt::Debug + Send + Sync,
    {
        let in_place = run_scans(inputs, plan, ScanHandle::new, |h, ctx, v| h.scan(ctx, v));
        let oracle = run_scans(inputs, plan, AccumulatingHandle::new, |h, ctx, v| {
            h.scan(ctx, v)
        });
        assert_eq!(in_place, oracle);
    }

    fn plan() -> impl proptest::strategy::Strategy<Value = Plan> {
        use proptest::prelude::*;
        let crashes = proptest::collection::vec((0usize..4, 0u64..150), 0..3);
        (0u64..1 << 32, any::<bool>(), crashes).prop_map(|(seed, pct, crashes)| Plan {
            seed,
            pct,
            crashes,
        })
    }

    /// One script per process, 2 ≤ n ≤ 4: what to write at each scan,
    /// `None` for a `ReadMax`.
    fn scripts() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Option<u32>>>> {
        use proptest::prelude::*;
        let input = prop_oneof![Just(None), (0u32..50).prop_map(Some)];
        proptest::collection::vec(proptest::collection::vec(input, 1..5), 2..=4)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The monotone in-place join changes no value: every scan
        /// returns, and every register is written with, exactly what
        /// the accumulate-from-`own[i−1]` rule gives — on a lattice
        /// whose join copies (sets), and on the snapshot's tagged
        /// arrays with the all-zero-tag slots left out.
        #[test]
        fn in_place_scan_agrees_with_accumulating_scan(scripts in scripts(), plan in plan()) {
            let sets: Vec<Vec<SetUnion<u32>>> = scripts
                .iter()
                .map(|s| s.iter().map(|v| v.iter().copied().collect()).collect())
                .collect();
            assert_in_place_scan_agrees(&sets, &plan);
            let tagged: Vec<Vec<TaggedVec<u32>>> = scripts
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    let writes = s.iter().enumerate().map(|(k, v)| match v {
                        Some(v) => TaggedVec::singleton(p + 1, p, k as u64 + 1, *v),
                        None => TaggedVec::bottom(),
                    });
                    writes.collect()
                })
                .collect();
            assert_in_place_scan_agrees(&tagged, &plan);
        }
    }

    #[test]
    fn layout_and_owners() {
        let obj = ScanObject::new(3);
        assert_eq!(obj.n(), 3);
        assert_eq!(obj.n_regs(), 15); // 3 × 5
        let owners = obj.owners();
        assert_eq!(owners.len(), 15);
        assert_eq!(owners[0], 0);
        assert_eq!(owners[5], 1);
        assert_eq!(owners[14], 2);
        let regs: Vec<MaxU64> = obj.registers();
        assert!(regs.iter().all(|r| *r == MaxU64::bottom()));
    }

    #[test]
    fn sequential_scan_returns_join_of_writes() {
        let obj = ScanObject::new(1);
        let mem = NativeMemory::new(1, obj.registers::<MaxU64>());
        let mut ctx = mem.ctx(0);
        assert_eq!(obj.scan(&mut ctx, MaxU64::new(5)), MaxU64::new(5));
        assert_eq!(obj.scan(&mut ctx, MaxU64::new(3)), MaxU64::new(5));
        assert_eq!(obj.read_max(&mut ctx), MaxU64::new(5));
        obj.write_l(&mut ctx, MaxU64::new(9));
        assert_eq!(obj.read_max(&mut ctx), MaxU64::new(9));
    }

    #[test]
    fn literal_scan_operation_counts_match_section_6_2() {
        // "a single Scan operation requires a total of n²+n+1 read and
        // n+2 write operations"
        for n in [1usize, 2, 3, 5, 8] {
            let obj = ScanObject::new(n);
            let out = SimBuilder::new(obj.registers::<MaxU64>())
                .owners(obj.owners())
                .run_symmetric(n, move |ctx| {
                    obj.scan(ctx, MaxU64::new(ctx.proc() as u64 + 1))
                });
            out.assert_no_panics();
            let expect = StepCounts {
                reads: (n * n + n + 1) as u64,
                writes: (n + 2) as u64,
            };
            for p in 0..n {
                assert_eq!(out.counts[p], expect, "n={n}, proc {p}");
            }
        }
    }

    #[test]
    fn optimized_scan_operation_counts_match_section_6_2() {
        // "After eliminating these operations, a Scan requires n²−1 read
        // and n+1 write operations."
        for n in [2usize, 3, 5, 8] {
            let obj = ScanObject::new(n);
            let out = SimBuilder::new(obj.registers::<MaxU64>())
                .owners(obj.owners())
                .run_symmetric(n, move |ctx| {
                    let mut h = ScanHandle::new(obj);
                    h.scan(ctx, MaxU64::new(ctx.proc() as u64 + 1))
                });
            out.assert_no_panics();
            let expect = StepCounts {
                reads: (n * n - 1) as u64,
                writes: (n + 1) as u64,
            };
            for p in 0..n {
                assert_eq!(out.counts[p], expect, "n={n}, proc {p}");
            }
        }
    }

    #[test]
    fn optimized_agrees_with_literal_sequentially() {
        let obj = ScanObject::new(2);
        let mem = NativeMemory::new(2, obj.registers::<SetUnion<u32>>());
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        let mut h0 = ScanHandle::new(obj);
        // Interleave literal (P1) and optimized (P0) scans sequentially.
        let a = h0.scan(&mut c0, SetUnion::singleton(1));
        assert_eq!(a, SetUnion::from_iter([1]));
        let b = obj.scan(&mut c1, SetUnion::singleton(2));
        assert_eq!(b, SetUnion::from_iter([1, 2]));
        let c = h0.read_max(&mut c0);
        assert_eq!(c, SetUnion::from_iter([1, 2]));
        let mut h0b = h0.clone();
        h0b.write_l(&mut c0, SetUnion::singleton(3));
        assert_eq!(obj.read_max(&mut c1), SetUnion::from_iter([1, 2, 3]));
        assert_eq!(h0b.object().n(), 2);
    }

    /// Lemma 32: any two values returned by Scan are comparable in L.
    #[test]
    fn lemma_32_returned_values_are_comparable() {
        for seed in 0..30u64 {
            let n = 4usize;
            let obj = ScanObject::new(n);
            let out = SimBuilder::new(obj.registers::<SetUnion<usize>>())
                .owners(obj.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let mut rets = Vec::new();
                    for k in 0..3 {
                        rets.push(obj.scan(ctx, SetUnion::singleton(ctx.proc() * 10 + k)));
                    }
                    rets
                });
            let all: Vec<SetUnion<usize>> = out.unwrap_results().into_iter().flatten().collect();
            for a in &all {
                for b in &all {
                    assert!(
                        a.comparable(b),
                        "seed {seed}: incomparable scan results {a:?} / {b:?}"
                    );
                }
            }
        }
    }

    /// Same comparability property for the optimized variant, mixed with
    /// literal scanners.
    #[test]
    fn lemma_32_holds_for_optimized_variant() {
        for seed in 100..120u64 {
            let n = 3usize;
            let obj = ScanObject::new(n);
            let out = SimBuilder::new(obj.registers::<SetUnion<usize>>())
                .owners(obj.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    // Even processes use the optimized handle (exclusively
                    // — the cache requires that all of a process's scans
                    // go through its handle), odd ones the literal
                    // procedure.
                    let mut h = ScanHandle::new(obj);
                    let optimized = ctx.proc() % 2 == 0;
                    let mut rets = Vec::new();
                    for k in 0..3 {
                        let v = SetUnion::singleton(ctx.proc() * 10 + k);
                        rets.push(if optimized {
                            h.scan(ctx, v)
                        } else {
                            obj.scan(ctx, v)
                        });
                    }
                    rets
                });
            let all: Vec<SetUnion<usize>> = out.unwrap_results().into_iter().flatten().collect();
            for a in &all {
                for b in &all {
                    assert!(a.comparable(b), "seed {seed}");
                }
            }
        }
    }

    /// Wait-freedom: crash all but one process mid-scan; the survivor
    /// still completes in its bounded step count.
    #[test]
    fn scan_is_wait_free_under_crashes() {
        let n = 4usize;
        let obj = ScanObject::new(n);
        let out = SimBuilder::new(obj.registers::<MaxU64>())
            .owners(obj.owners())
            .crashes([(1, 5), (2, 9), (3, 13)])
            .run_symmetric(n, move |ctx| {
                obj.scan(ctx, MaxU64::new(ctx.proc() as u64 + 1))
            });
        out.assert_no_panics();
        assert!(out.results[0].is_some(), "survivor must finish");
        assert!(out.crashed[1] && out.crashed[2] && out.crashed[3]);
        // The survivor's result includes its own value and respects the
        // step bound.
        assert!(out.results[0].unwrap().get() >= 1);
        assert_eq!(
            out.counts[0],
            StepCounts {
                reads: (n * n + n + 1) as u64,
                writes: (n + 2) as u64
            }
        );
    }

    /// Lemma 29, observably: if scan `a` completes before scan `b`
    /// begins (any processes), then `result(a) ≤ result(b)` in the
    /// lattice. Checked on native threads with real-time recording.
    #[test]
    fn lemma_29_real_time_ordered_scans_are_monotone() {
        use apram_history::Recorder;
        for trial in 0..10u64 {
            let n = 3;
            let obj = ScanObject::new(n);
            let mem = apram_model::NativeMemory::new(n, obj.registers::<SetUnion<u64>>())
                .with_owners(obj.owners());
            // Record (op_index, result) with invoke/respond events; the
            // op payload is the scan's result so precedence analysis can
            // compare values afterwards.
            let rec: Recorder<(), SetUnion<u64>> = Recorder::new();
            std::thread::scope(|s| {
                for p in 0..n {
                    let mem = mem.clone();
                    let rec = rec.clone();
                    s.spawn(move || {
                        let mut ctx = mem.ctx(p);
                        for k in 0..3u64 {
                            rec.invoke(p, ());
                            let r = obj.scan(
                                &mut ctx,
                                SetUnion::singleton(trial * 100 + p as u64 * 10 + k),
                            );
                            rec.respond(p, r);
                        }
                    });
                }
            });
            let hist = rec.into_history();
            let ops = apram_history::Ops::extract(&hist);
            let k = ops.len();
            for a in 0..k {
                for b in 0..k {
                    if ops.precedes(a, b) {
                        let ra = ops.records()[a].resp.as_ref().unwrap();
                        let rb = ops.records()[b].resp.as_ref().unwrap();
                        assert!(
                            ra.leq(rb),
                            "trial {trial}: scan {a} ≺ scan {b} but {ra:?} ⊄ {rb:?}"
                        );
                    }
                }
            }
        }
    }

    /// The scan result always contains the scanner's own contribution
    /// (validity) and only values actually written.
    #[test]
    fn scan_result_bounds() {
        for seed in 0..20u64 {
            let n = 3usize;
            let obj = ScanObject::new(n);
            let out = SimBuilder::new(obj.registers::<SetUnion<usize>>())
                .owners(obj.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| obj.scan(ctx, SetUnion::singleton(ctx.proc())));
            let results = out.unwrap_results();
            for (p, r) in results.iter().enumerate() {
                assert!(r.contains(&p), "seed {seed}: P{p} missing own value");
                for v in r.iter() {
                    assert!(*v < n, "seed {seed}: phantom value {v}");
                }
            }
        }
    }
}
