//! The atomic snapshot object, instantiating the scan at the tagged-array
//! lattice.
//!
//! End of paper Section 6: "To implement the atomic snapshot algorithm
//! used in the previous section, we make each value an n-element array of
//! pointers, where the entire array is kept in a single register. Each
//! array entry has an associated tag, and the maximum of two entries is
//! the one with the higher tag. ... P writes the Pth position in the
//! anchor array by initializing `scan[P][0]` to an array whose Pth element
//! has a higher tag than P's latest entry."
//!
//! The object exposes `update(v)` (set my slot to `v`) and `snap()`
//! (an instantaneous view of every process's latest value). Its
//! sequential specification, [`SnapshotSpec`], drives the linearizability
//! checker; [`ScanMaxSpec`] is the spec of the raw `Write_L`/`ReadMax`
//! object of Section 6.

use crate::scan::{ScanHandle, ScanObject};
use apram_history::{DetSpec, ProcId};
use apram_lattice::{JoinSemilattice, Tagged, TaggedVec};
use apram_model::MemCtx;
use std::fmt::Debug;

/// The atomic snapshot object for `n` processes over values `T`.
///
/// Shares its register layout with the underlying [`ScanObject`]
/// (registers hold `TaggedVec<T>` values).
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    obj: ScanObject,
}

impl Snapshot {
    /// A snapshot object for `n` processes rooted at register 0.
    pub fn new(n: usize) -> Self {
        Snapshot {
            obj: ScanObject::new(n),
        }
    }

    /// Number of processes / slots.
    pub fn n(&self) -> usize {
        self.obj.n()
    }

    /// Initial register contents.
    pub fn registers<T: Clone>(&self) -> Vec<TaggedVec<T>> {
        self.obj.registers()
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        self.obj.owners()
    }

    /// A per-process handle (tag generator + optimized scan cache).
    pub fn handle<T: Clone>(&self) -> SnapshotHandle<T> {
        SnapshotHandle {
            scan: ScanHandle::new(self.obj),
            next_tag: 1,
        }
    }
}

/// A per-process handle on a [`Snapshot`]. One handle per process — it
/// owns the process's monotone tag counter and scan cache.
#[derive(Clone, Debug)]
pub struct SnapshotHandle<T: Clone> {
    scan: ScanHandle<TaggedVec<T>>,
    next_tag: u64,
}

impl<T: Clone> SnapshotHandle<T> {
    /// Set the calling process's slot to `value`.
    pub fn update<C: MemCtx<TaggedVec<T>>>(&mut self, ctx: &mut C, value: T) {
        self.update_from(ctx, &value);
    }

    /// [`update`](Self::update) with a copy of `*value`, made where the
    /// slot already lies: the new tag and value are joined straight
    /// into slot `P` of the cached `scan[P][0]` (the paper's "simple
    /// optimization" — the all-zero-tag slots behind the writer's own
    /// are left out — with no singleton array built to carry them).
    pub fn update_from<C: MemCtx<TaggedVec<T>>>(&mut self, ctx: &mut C, value: &T) {
        let p = ctx.proc();
        let tag = self.next_tag;
        self.next_tag += 1;
        self.scan.scan_joining(ctx, |own: &mut TaggedVec<T>| {
            if own.0.len() <= p {
                own.0.resize(p + 1, Tagged::empty());
            }
            let slot = &mut own.0[p];
            debug_assert!(slot.tag < tag, "tags are handed out in order");
            slot.tag = tag;
            match &mut slot.value {
                Some(held) => held.clone_from(value),
                empty => *empty = Some(value.clone()),
            }
        });
    }

    /// An instantaneous snapshot: the latest value of every process
    /// (`None` for processes that never updated).
    pub fn snap<C: MemCtx<TaggedVec<T>>>(&mut self, ctx: &mut C) -> Vec<Option<T>> {
        let n = self.scan.object().n();
        let j = self.snap_ref(ctx);
        (0..n)
            .map(|i| j.0.get(i).and_then(|slot| slot.value.clone()))
            .collect()
    }

    /// [`snap`](Self::snap), returning the view where it already lies —
    /// in the handle's scan cache — tags included: slot `i` holds
    /// process `i`'s latest tag and value, and slots past the end are
    /// bottom (never written). The same scan, so the same steps.
    pub fn snap_ref<C: MemCtx<TaggedVec<T>>>(&mut self, ctx: &mut C) -> &TaggedVec<T> {
        self.scan.scan_in_place(ctx, &TaggedVec::bottom())
    }
}

/// Operations of the snapshot object (for history recording/checking).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SnapOp<T> {
    /// `update(v)`.
    Update(T),
    /// `snap()`.
    Snap,
}

/// Responses of the snapshot object.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SnapResp<T> {
    /// Acknowledgement of an update.
    Ack,
    /// The instantaneous view.
    View(Vec<Option<T>>),
}

/// The sequential specification of the snapshot object: an `n`-slot array
/// where `update` writes the caller's slot and `snap` returns the whole
/// array.
#[derive(Clone, Debug)]
pub struct SnapshotSpec<T> {
    /// Number of slots.
    pub n: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T> SnapshotSpec<T> {
    /// A spec over `n` slots of value type `T`.
    pub fn new(n: usize) -> Self {
        SnapshotSpec {
            n,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Clone + PartialEq + Eq + std::hash::Hash + Debug> DetSpec for SnapshotSpec<T>
where
    T: 'static,
{
    type State = Vec<Option<T>>;
    type Op = SnapOp<T>;
    type Resp = SnapResp<T>;

    fn initial(&self) -> Self::State {
        vec![None; self.n]
    }

    fn apply(&self, state: &mut Self::State, proc: ProcId, op: &Self::Op) -> Self::Resp {
        match op {
            SnapOp::Update(v) => {
                state[proc] = Some(v.clone());
                SnapResp::Ack
            }
            SnapOp::Snap => SnapResp::View(state.clone()),
        }
    }
}

/// Operations of the raw lattice object of Section 6.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScanMaxOp<L> {
    /// `Write_L(v)`.
    WriteL(L),
    /// `ReadMax()`.
    ReadMax,
}

/// Responses of the raw lattice object.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScanMaxResp<L> {
    /// Acknowledgement of a write.
    Ack,
    /// The join of all values written so far.
    Max(L),
}

/// Sequential spec of the Section 6 object: "the value returned by a
/// ReadMax(P) operation is the join of the values written by earlier
/// Write_L(Q, v) operations, for all Q."
#[derive(Clone, Debug, Default)]
pub struct ScanMaxSpec<L>(std::marker::PhantomData<L>);

impl<L> ScanMaxSpec<L> {
    /// The spec (stateless).
    pub fn new() -> Self {
        ScanMaxSpec(std::marker::PhantomData)
    }
}

impl<L> DetSpec for ScanMaxSpec<L>
where
    L: JoinSemilattice + PartialEq + Debug + 'static,
{
    type State = L;
    type Op = ScanMaxOp<L>;
    type Resp = ScanMaxResp<L>;

    fn initial(&self) -> L {
        L::bottom()
    }

    fn apply(&self, state: &mut L, _proc: ProcId, op: &Self::Op) -> Self::Resp {
        match op {
            ScanMaxOp::WriteL(v) => {
                state.join_assign(v);
                ScanMaxResp::Ack
            }
            ScanMaxOp::ReadMax => ScanMaxResp::Max(state.clone()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_lattice::MaxU64;
    use apram_model::sim::explore::ExploreConfig;
    use apram_model::sim::strategy::SeededRandom;
    use apram_model::sim::Budgeted;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
    use apram_model::NativeMemory;

    #[test]
    fn sequential_update_snap() {
        let snap = Snapshot::new(2);
        let mem = NativeMemory::new(2, snap.registers::<u32>());
        let mut h0 = snap.handle::<u32>();
        let mut h1 = snap.handle::<u32>();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        assert_eq!(h0.snap(&mut c0), vec![None, None]);
        h0.update(&mut c0, 10);
        h1.update(&mut c1, 20);
        assert_eq!(h0.snap(&mut c0), vec![Some(10), Some(20)]);
        h1.update(&mut c1, 21);
        assert_eq!(h1.snap(&mut c1), vec![Some(10), Some(21)]);
        assert_eq!(snap.n(), 2);
    }

    #[test]
    fn snapshot_spec_behaves() {
        let spec = SnapshotSpec::<u32>::new(2);
        let (state, resps) = spec.run(&[
            (0, SnapOp::Update(5u32)),
            (1, SnapOp::Snap),
            (1, SnapOp::Update(7)),
            (0, SnapOp::Snap),
        ]);
        assert_eq!(state, vec![Some(5), Some(7)]);
        assert_eq!(resps[1], SnapResp::View(vec![Some(5), None]));
        assert_eq!(resps[3], SnapResp::View(vec![Some(5), Some(7)]));
    }

    #[test]
    fn scan_max_spec_behaves() {
        let spec = ScanMaxSpec::<MaxU64>::new();
        let (state, resps) = spec.run(&[
            (0, ScanMaxOp::ReadMax),
            (0, ScanMaxOp::WriteL(MaxU64::new(4))),
            (1, ScanMaxOp::WriteL(MaxU64::new(2))),
            (1, ScanMaxOp::ReadMax),
        ]);
        assert_eq!(state, MaxU64::new(4));
        assert_eq!(resps[0], ScanMaxResp::Max(MaxU64::new(0)));
        assert_eq!(resps[3], ScanMaxResp::Max(MaxU64::new(4)));
    }

    /// Theorem 33 (exhaustive, small): every interleaving of two
    /// processes each doing update-then-snap yields a linearizable
    /// history of the snapshot spec. Histories are captured by a shared
    /// [`Recorder`], whose event order is a sound real-time order of the
    /// simulated execution (invoke recorded before an operation's first
    /// shared access, respond after its last).
    ///
    /// The full scan matrix makes each operation take O(n²) steps, so we
    /// bound the branching depth; the prefix still covers every
    /// qualitatively distinct overlap of the two updates.
    #[test]
    fn theorem_33_exhaustive_two_processes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let snap = Snapshot::new(2);
        let spec = SnapshotSpec::<u32>::new(2);
        let mut checked = 0u64;
        let rec_cell: Rc<RefCell<Option<Recorder<SnapOp<u32>, SnapResp<u32>>>>> =
            Rc::new(RefCell::new(None));
        let rec_for_make = Rc::clone(&rec_cell);
        let make = move || {
            let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
            *rec_for_make.borrow_mut() = Some(rec.clone());
            (0..2usize)
                .map(|p| {
                    let rec = rec.clone();
                    Box::new(move |ctx: &mut SimCtx<TaggedVec<u32>>| {
                        let mut h = snap.handle::<u32>();
                        rec.record(p, SnapOp::Update(p as u32 + 1), || {
                            h.update(ctx, p as u32 + 1);
                            SnapResp::Ack
                        });
                        rec.invoke(p, SnapOp::Snap);
                        let view = h.snap(ctx);
                        rec.respond(p, SnapResp::View(view));
                    }) as ProcBody<'static, TaggedVec<u32>, ()>
                })
                .collect::<Vec<_>>()
        };
        let stats = SimBuilder::new(snap.registers::<u32>())
            .owners(snap.owners())
            .explore(
                &ExploreConfig::new().max_runs(50_000).max_depth(14),
                make,
                |out| {
                    out.assert_no_panics();
                    let hist = rec_cell
                        .borrow_mut()
                        .take()
                        .expect("factory ran")
                        .snapshot();
                    checked += 1;
                    assert!(
                        check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok(),
                        "non-linearizable snapshot history: {hist:?}"
                    );
                    true
                },
            );
        assert!(stats.runs > 100, "exploration too shallow: {stats:?}");
        assert_eq!(checked, stats.runs);
    }

    /// Randomized Theorem 33 check with *real-time* history recording via
    /// the simulator's trace: record invoke/respond as trace-relative
    /// marks by wrapping operations in per-process histories and merging
    /// on operation boundaries observed through a shared recorder
    /// register would perturb the algorithm; instead we run natively with
    /// a lock-free Recorder, which preserves true real-time order.
    #[test]
    fn theorem_33_native_randomized() {
        for trial in 0..20 {
            let n = 3usize;
            let snap = Snapshot::new(n);
            let mem = NativeMemory::new(n, snap.registers::<u32>()).with_owners(snap.owners());
            let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
            std::thread::scope(|s| {
                for p in 0..n {
                    let mem = mem.clone();
                    let rec = rec.clone();
                    s.spawn(move || {
                        let mut ctx = mem.ctx(p);
                        let mut h = snap.handle::<u32>();
                        for k in 0..2u32 {
                            let v = (p as u32) * 100 + k + trial;
                            rec.invoke(p, SnapOp::Update(v));
                            h.update(&mut ctx, v);
                            rec.respond(p, SnapResp::Ack);
                            rec.invoke(p, SnapOp::Snap);
                            let view = h.snap(&mut ctx);
                            rec.respond(p, SnapResp::View(view));
                        }
                    });
                }
            });
            let hist = rec.into_history();
            let spec = SnapshotSpec::<u32>::new(n);
            let out = check_linearizable(&spec, &hist, &CheckerConfig::default());
            assert!(out.is_ok(), "trial {trial}: {hist:?}");
        }
    }

    /// Monotonicity invariant under random simulated schedules: a
    /// process's successive snaps are ordered (slot tags never regress),
    /// and every snap contains the snapper's own latest update.
    #[test]
    fn snaps_are_monotone_and_self_inclusive() {
        for seed in 0..25u64 {
            let n = 3usize;
            let snap = Snapshot::new(n);
            let out = SimBuilder::new(snap.registers::<u64>())
                .owners(snap.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let p = ctx.proc();
                    let mut h = snap.handle::<u64>();
                    let mut views = Vec::new();
                    for k in 0..3u64 {
                        h.update(ctx, (p as u64) * 10 + k);
                        views.push(h.snap(ctx));
                    }
                    views
                });
            let results = out.unwrap_results();
            for (p, views) in results.iter().enumerate() {
                for (k, view) in views.iter().enumerate() {
                    // Self-inclusion: my own slot holds my latest update.
                    assert_eq!(
                        view[p],
                        Some((p as u64) * 10 + k as u64),
                        "seed {seed} P{p} snap {k}"
                    );
                }
                // Monotonicity per slot across my successive snaps.
                for w in views.windows(2) {
                    for q in 0..n {
                        if let Some(prev) = w[0][q] {
                            let next = w[1][q].expect("slots never un-write");
                            assert!(next >= prev, "seed {seed}: slot {q} regressed");
                        }
                    }
                }
            }
        }
    }
}
