//! The Figure 4 universal wait-free construction.
//!
//! ```text
//! proc execute(p_i: invocation) returns (response)
//!     % Step 1: construct a response
//!     view := atomic scan of root array
//!     H := linearization of view
//!     e := new entry
//!     e.invocation := p_i
//!     e.response := p_r such that H · p_i · p_r is legal
//!     for i in 1..n do e.preceding[i] := view[i]
//!     % Step 2: write out the response
//!     root[P] := address of e
//!     return p_r
//! ```
//!
//! Each operation becomes an [`Entry`] — invocation, response, and its
//! view. The anchor (`root`) array is the Section 6 atomic snapshot: an
//! operation reads it with one scan (`snap`) and writes its entry with
//! the snapshot's `update`, which is a second scan (`Write_L`). So the
//! synchronization overhead per operation is two scans: `2(n² − 1)`
//! reads and `2(n + 1)` writes with the optimized scan, `O(n²)` either
//! way (measured in experiment E5).
//!
//! An *address* is a position in a per-process append-only log
//! ([`crate::log`]): process `P` appends `e` to its own log, and
//! `root[P]` holds *(P's log, how many entries it has)* — the snapshot's
//! tag is the length. `e.preceding[P]` of an entry of `P` is always
//! `P`'s previous entry, so whatever reaches an entry of `P` reaches
//! all of `P`'s earlier ones — which the log says by position. A view
//! is therefore fully described by its **signature** — per process,
//! how many of its entries the view holds — and that is what an entry
//! keeps of its view (`e.preceding`).
//! Registers, scan caches and handles hold counts and log handles,
//! never a pointer that owns an entry.
//!
//! # Publication order
//!
//! An entry is set in its log cell *before* the update scan's first
//! register write, and a reader indexes a log only below a length it
//! read from a register (directly, or inside the signature of an entry
//! it reached that way — whose author read it from a register first).
//! So the cell's release/acquire and the register's publish order the
//! entry before every reader; in the simulator the hub's mutex does.
//! A process that crashes between the append and the end of its scan
//! leaves an entry that is either visible through a tag some scan
//! carried off, or never read at all: the outcome of a half-propagated
//! update, which the snapshot object already has. Every lookup of an
//! entry asserts it, in release builds too: an index a view names and
//! its log does not hold is a panic naming `(process, index)`.

use crate::algebra::{dominates, AlgebraicSpec};
use crate::graph::ClosedDag;
use crate::lingraph::{canonical_order, lingraph};
use crate::log::LogRef;
use apram_history::{DetSpec, ProcId};
use apram_lattice::TaggedVec;
use apram_model::MemCtx;
use apram_snapshot::{Snapshot, SnapshotHandle};
use std::collections::VecDeque;
use std::fmt;

/// One operation record in the shared precedence graph.
pub struct Entry<O, R> {
    /// The process that executed the operation.
    pub proc: ProcId,
    /// The operation's index within its process (unique per process):
    /// its position in the process's log.
    pub seq: u64,
    /// The invocation (operation plus arguments).
    pub op: O,
    /// The chosen response.
    pub resp: R,
    /// The view (the paper's `e.preceding`), as its signature.
    seen: Box<[u64]>,
}

impl<O, R> Entry<O, R> {
    /// The signature of this operation's view: `seen()[p]` is how many
    /// of `p`'s entries lie in its past — `p`'s entries `0..seen()[p]`,
    /// the last of which is the paper's `e.preceding[p]`.
    pub fn seen(&self) -> &[u64] {
        &self.seen
    }

    /// Unique key of this operation.
    pub fn key(&self) -> (ProcId, u64) {
        (self.proc, self.seq)
    }
}

impl<O: fmt::Debug, R: fmt::Debug> fmt::Debug for Entry<O, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Entry(P{} #{} {:?} → {:?})",
            self.proc, self.seq, self.op, self.resp
        )
    }
}

/// A process's log of entries, as a root slot holds it.
pub type EntryLog<S> = LogRef<Entry<<S as DetSpec>::Op, <S as DetSpec>::Resp>>;

/// The register type backing a universal object for spec `S`: the
/// tagged array of Section 6, slot `P` holding `P`'s log tagged with
/// its length.
pub type UniversalReg<S> = TaggedVec<EntryLog<S>>;

/// A wait-free linearizable object for any [`AlgebraicSpec`] satisfying
/// Property 1.
#[derive(Clone, Debug)]
pub struct Universal<S> {
    spec: S,
    snap: Snapshot,
}

impl<S: AlgebraicSpec + Clone> Universal<S> {
    /// A universal object over `spec` for `n` processes.
    pub fn new(n: usize, spec: S) -> Self {
        Universal {
            spec,
            snap: Snapshot::new(n),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.snap.n()
    }

    /// Initial register contents (the snapshot object's registers).
    pub fn registers(&self) -> Vec<UniversalReg<S>> {
        self.snap.registers()
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        self.snap.owners()
    }

    /// A per-process handle. One per process: it owns the process's
    /// operation counter, snapshot cache, replayed history and log. The
    /// object itself stays layout: nothing is shared between the
    /// handles of two runs.
    pub fn handle(&self) -> UniversalHandle<S> {
        let n = self.n();
        UniversalHandle {
            spec: self.spec.clone(),
            snap: self.snap.handle(),
            seq: 0,
            last_history_len: 0,
            own_log: OwnLog(LogRef::new()),
            logs: vec![None; n],
            view: vec![0; n],
            base: self.spec.initial(),
            cut: vec![0; n],
            pending: vec![0; n],
            order: VecDeque::new(),
            last_state: self.spec.initial(),
            scratch: Scratch::default(),
            #[cfg(test)]
            replays: ReplayCounts::default(),
        }
    }
}

/// A per-process handle on a [`Universal`] object.
///
/// Beyond Figure 4's bookkeeping it keeps what it has already replayed,
/// so that "H := linearization of view" costs only what the view holds
/// that the last one did not. Everything kept is a pure function of
/// views the handle has taken: entries are immutable once published,
/// and a handle's views only grow.
#[derive(Clone)]
pub struct UniversalHandle<S: AlgebraicSpec> {
    spec: S,
    snap: SnapshotHandle<EntryLog<S>>,
    seq: u64,
    last_history_len: usize,
    /// The log this handle publishes in, made with the handle so that
    /// its first operation does not pay for it (one allocation; an
    /// empty log has no chunk).
    own_log: OwnLog<S>,
    /// Every process's log, learned from the first root slot of it this
    /// handle sees — its own included: a snapshot holds its own updates.
    logs: Vec<Option<EntryLog<S>>>,
    /// The signature of the view taken last: the root array's tags.
    view: Vec<u64>,
    /// The absorbed prefix: `base` is the state after replaying, in
    /// linearization order, the first `cut[p]` entries of every process
    /// `p`. Everything absorbed precedes every entry this handle can
    /// still come to see, so every later linearization starts with
    /// exactly this prefix (the cut lemma, DESIGN.md).
    base: S::State,
    cut: Vec<u64>,
    /// The working set — the entries beyond the cut of the last view
    /// replayed, own operations included — as it was linearized:
    /// `pending[p]` counts those of process `p` (its entries
    /// `cut[p]..cut[p] + pending[p]`), and `order` names, entry by
    /// entry, whose was applied next. (A process's entries are
    /// linearized in the order it published them, so the process ids
    /// say it all.) The last view's signature — per process, how many
    /// entries its closure holds — is the cut plus what is pending; a
    /// signature determines its closure, and views are monotone, so no
    /// other view can recur.
    pending: Vec<u64>,
    order: VecDeque<ProcId>,
    /// `base` with the pending entries applied in `order`.
    last_state: S::State,
    scratch: Scratch,
    #[cfg(test)]
    replays: ReplayCounts,
}

/// A handle's own log. It is cloned with the handle: a clone of a
/// handle that has published nothing is a fresh handle, for another
/// process, and gets a log of its own; a clone of one that has
/// published is that process's handle carried on, in the same log.
struct OwnLog<S: AlgebraicSpec>(EntryLog<S>);

impl<S: AlgebraicSpec> Clone for OwnLog<S> {
    fn clone(&self) -> Self {
        match self.0.get(0) {
            Some(_) => OwnLog(self.0.clone()),
            None => OwnLog(LogRef::new()),
        }
    }
}

/// Buffers a replay fills and empties again, kept between replays so
/// that an operation allocates only what it publishes.
#[derive(Clone, Default)]
struct Scratch {
    /// The entries of a view that are not held, by key.
    fresh: Vec<(ProcId, u64)>,
    /// The order to apply them in, as indices into `fresh`.
    order: Vec<usize>,
    /// The stable cut being computed.
    cut: Vec<u64>,
}

/// What the replays of one handle did, for the tests that drive each
/// case of [`UniversalHandle::replay_view`] on purpose.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ReplayCounts {
    /// Replays that started over from `(base, cut)`.
    from_cut: usize,
    /// Entries linearized.
    linearized: usize,
    /// Linearizations that needed the graph.
    graphs: usize,
}

impl<S: AlgebraicSpec + fmt::Debug> fmt::Debug for UniversalHandle<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UniversalHandle")
            .field("spec", &self.spec)
            .field("seq", &self.seq)
            .field("last_history_len", &self.last_history_len)
            .field("cut", &self.cut)
            .finish_non_exhaustive()
    }
}

/// Entry `seq` of process `p`, which some view made visible: `p`'s log
/// is known from the first slot that showed a tag above zero, and holds
/// every entry below a tag (the publication order, module docs).
fn entry<E>(logs: &[Option<LogRef<E>>], p: ProcId, seq: u64) -> &E {
    let published = logs[p].as_ref().and_then(|log| log.get(seq));
    published.unwrap_or_else(|| {
        panic!("P{p} #{seq} is in a view and not in P{p}'s log: an entry is appended before the register write that makes its index known")
    })
}

impl<S> UniversalHandle<S>
where
    S: AlgebraicSpec,
    S::State: Clone + fmt::Debug,
{
    /// Execute one operation (Figure 4). Exactly one atomic snapshot and
    /// one register write of shared-memory traffic.
    pub fn execute<C: MemCtx<UniversalReg<S>>>(&mut self, ctx: &mut C, op: S::Op) -> S::Resp {
        // Step 1: snapshot the root array and linearize the view.
        self.take_view(ctx);
        self.replay_view();
        let me = ctx.proc();
        assert_eq!(self.held(me), self.seq, "a snapshot holds its own updates");
        // The new entry follows everything in its view, so it comes
        // last in every linearization of the view whose root it is:
        // that view is replayed by applying the operation in place.
        let resp = self.spec.apply(&mut self.last_state, me, &op);
        let e = Entry {
            proc: me,
            seq: self.seq,
            op,
            resp: resp.clone(),
            seen: self.view.as_slice().into(),
        };
        // Step 2: write out the response. The entry is in its cell
        // before the scan's first register write makes its index known
        // (the publication order, module docs).
        let log = &self.own_log.0;
        log.push(self.seq, e);
        self.seq += 1;
        self.pending[me] += 1;
        self.order.push_back(me);
        self.snap.update_from(ctx, log);
        resp
    }

    /// Execute an operation *without publishing an entry* — sound only
    /// for operations that are overwritten by every operation (like the
    /// counter's `read`): such an operation leaves no trace in any
    /// legal history, so omitting its entry cannot invalidate anyone
    /// else's view. This is the kind of type-specific optimization the
    /// paper anticipates ("it should be possible to apply type-specific
    /// optimizations"); it halves the shared traffic of read-heavy
    /// workloads (no write, and no growth of the precedence graph).
    ///
    /// # Panics
    /// In debug builds, panics if some operation does **not** overwrite
    /// `op` (i.e. the optimization's precondition fails structurally:
    /// `op` must be universally overwritten; we check reflexively
    /// against itself and rely on [`crate::verify`] for the rest).
    pub fn execute_unpublished<C: MemCtx<UniversalReg<S>>>(
        &mut self,
        ctx: &mut C,
        op: S::Op,
    ) -> S::Resp {
        debug_assert!(
            self.spec.overwrites(&op, &op),
            "execute_unpublished requires an operation overwritten by everything"
        );
        self.take_view(ctx);
        self.replay_view();
        self.spec
            .apply(&mut self.last_state.clone(), ctx.proc(), &op)
    }

    /// Number of operations in the history the most recent execute
    /// answered from: the whole visible history, absorbed or not (used
    /// by the overhead experiments).
    pub fn last_history_len(&self) -> usize {
        self.last_history_len
    }

    /// Forget everything replayed so far, the working set and the
    /// absorbed prefix, so that the next execute linearizes its whole
    /// view from the empty graph (benchmarks and differential tests use
    /// this; there is no correctness reason to call it).
    pub fn clear_replay_memo(&mut self) {
        self.base = self.spec.initial();
        self.cut.fill(0);
        self.drop_pending();
    }

    /// Fall back to the absorbed prefix: nothing pending, `last_state`
    /// at `base`.
    fn drop_pending(&mut self) {
        self.pending.fill(0);
        self.order.clear();
        self.last_state.clone_from(&self.base);
    }

    /// How many of `p`'s entries this handle holds, absorbed or
    /// pending: the last view's signature at `p`.
    fn held(&self, p: ProcId) -> u64 {
        self.cut[p] + self.pending[p]
    }

    /// Figure 4's "view := atomic scan of root array": the signature
    /// goes to `view`, read off the tags where the scan left them, and
    /// the log of a process seen for the first time is remembered.
    fn take_view<C: MemCtx<UniversalReg<S>>>(&mut self, ctx: &mut C) {
        let root = self.snap.snap_ref(ctx);
        self.view.fill(0);
        // Slots the array leaves out are bottom.
        for ((seen, log), slot) in self.view.iter_mut().zip(&mut self.logs).zip(&root.0) {
            *seen = slot.tag;
            if log.is_none() {
                log.clone_from(&slot.value);
            }
        }
    }

    /// Figure 4's "H := linearization of view", replayed into
    /// `last_state` by extending the linearization already held: the
    /// entries of the view that are not held yet are linearized among
    /// themselves and applied on top. That is the linearization of the
    /// whole view exactly when everything held precedes everything new
    /// (the cut lemma, part 2); when it does not, what is pending is
    /// dropped first, and "held" shrinks to the absorbed prefix, which
    /// precedes everything (part 1). On the way out, absorb the stable
    /// prefix of what is pending.
    fn replay_view(&mut self) {
        // Of each process exactly the entries below its tag are visible.
        self.last_history_len = self.view.iter().sum::<u64>() as usize;
        if (0..self.view.len()).all(|p| self.view[p] == self.held(p)) {
            return;
        }
        let mut fresh = std::mem::take(&mut self.scratch.fresh);
        let mut order = std::mem::take(&mut self.scratch.order);
        self.beyond_held(&mut fresh);
        if !self.held_precedes(&fresh) {
            self.drop_pending();
            self.beyond_held(&mut fresh);
            #[cfg(test)]
            {
                self.replays.from_cut += 1;
            }
        }
        if !self.chain_order(&fresh, &mut order) {
            #[cfg(test)]
            {
                self.replays.graphs += 1;
            }
            order = self.graph_order(&fresh);
        }
        for &i in &order {
            let (p, seq) = fresh[i];
            Self::replay(&self.spec, &mut self.last_state, entry(&self.logs, p, seq));
            self.pending[p] += 1;
            self.order.push_back(p);
        }
        #[cfg(test)]
        {
            self.replays.linearized += fresh.len();
        }
        self.scratch.fresh = fresh;
        self.scratch.order = order;
        self.absorb();
    }

    /// The entry of this handle's world with key `(p, seq)`.
    fn entry(&self, (p, seq): (ProcId, u64)) -> &Entry<S::Op, S::Resp> {
        entry(&self.logs, p, seq)
    }

    /// The keys of the view's entries that are not held, one block per
    /// process, oldest first: of `p`, those from `held(p)` up to the
    /// view's tag.
    fn beyond_held(&self, fresh: &mut Vec<(ProcId, u64)>) {
        fresh.clear();
        for (p, &seen) in self.view.iter().enumerate() {
            fresh.extend((self.held(p)..seen).map(|seq| (p, seq)));
        }
    }

    /// Whether everything held lies in the past of every entry of
    /// `fresh` — the last view is a *clean cut* of the new one. Views
    /// along a process's log only grow, so the oldest fresh entry of
    /// each process answers for the rest: O(n²) on view vectors.
    fn held_precedes(&self, fresh: &[(ProcId, u64)]) -> bool {
        let mut oldest = fresh.iter().filter(|&&(p, seq)| seq == self.held(p));
        oldest.all(|&key| {
            let seen = self.entry(key).seen();
            (0..self.cut.len()).all(|p| seen[p] >= self.held(p))
        })
    }

    /// The order in which to apply `fresh` (left in `order`, as indices
    /// into it) when precedence alone decides it; `false` when it does
    /// not. An entry's past is a proper subset of the past of
    /// everything it precedes, so precedence can only order by size of
    /// past; if that order is a chain of precedence, precedence is
    /// total, has one topological order and leaves Figure 3 no pair to
    /// decide — the case of every operation that overlaps no other, and
    /// it needs no graph.
    fn chain_order(&self, fresh: &[(ProcId, u64)], order: &mut Vec<usize>) -> bool {
        let past = |i: usize| self.entry(fresh[i]).seen().iter().sum::<u64>();
        order.clear();
        order.extend(0..fresh.len());
        order.sort_by_key(|&i| past(i));
        let precedes = |a: usize, b: usize| {
            let (p, seq) = fresh[a];
            self.entry(fresh[b]).seen()[p] > seq
        };
        order.windows(2).all(|w| precedes(w[0], w[1]))
    }

    /// The order in which to apply `fresh` (as indices into it), in
    /// general: its precedence graph — the last entry of every process
    /// in an operation's view precedes it; transitivity through the
    /// views covers the full real-time order, see DESIGN.md — run
    /// through the Figure 3 construction and sorted topologically. Held
    /// entries precede all of `fresh` and need no edge.
    fn graph_order(&self, fresh: &[(ProcId, u64)]) -> Vec<usize> {
        let blocks: Vec<usize> = (0..self.cut.len())
            .map(|p| fresh.partition_point(|&(q, _)| q < p))
            .collect();
        let index = |p: ProcId, seq: u64| {
            let i = blocks[p] + seq.checked_sub(self.held(p))? as usize;
            debug_assert!(fresh[i] == (p, seq), "P{p} #{seq} is newer than its root");
            Some(i)
        };
        let mut prec = ClosedDag::new(fresh.len());
        for (f_idx, &f) in fresh.iter().enumerate() {
            let seen = self.entry(f).seen().iter().enumerate();
            let roots = seen.filter_map(|(p, &k)| index(p, k.checked_sub(1)?));
            for e_idx in roots {
                let acyclic = prec.add_edge(e_idx, f_idx);
                debug_assert!(acyclic, "views must be acyclic");
            }
        }
        // Figure 3 + canonical linearization.
        let key = |i: usize| fresh[i];
        let order = canonical_order(&prec, key);
        let lin = lingraph(&prec, &order, |a, b| {
            let (a, b) = (self.entry(fresh[a]), self.entry(fresh[b]));
            dominates(&self.spec, &a.op, a.proc, &b.op, b.proc)
        });
        lin.topo_sort_by_key(key)
    }

    /// Every stored response must match its replay (Theorem 26's
    /// invariant: the shared graph always has a legal linearization,
    /// and by Lemma 20 all linearizations are equivalent/legal).
    fn replay(spec: &S, state: &mut S::State, node: &Entry<S::Op, S::Resp>) {
        let r = spec.apply(state, node.proc, &node.op);
        debug_assert!(
            r == node.resp,
            "linearization illegal: replayed {r:?} but entry holds {:?} for {node:?}",
            node.resp
        );
    }

    /// Move the cut up to the stable cut: what lies below it is a
    /// prefix of the linearization held, and is replayed into `base`.
    fn absorb(&mut self) {
        let mut new_cut = std::mem::take(&mut self.scratch.cut);
        if self.stable_cut(&mut new_cut) {
            let beyond_old = new_cut.iter().zip(&self.cut).map(|(new, old)| new - old);
            for _ in 0..beyond_old.sum::<u64>() {
                let p = self
                    .order
                    .pop_front()
                    .filter(|&p| self.pending[p] > 0)
                    .expect("everything below the stable cut is pending");
                // Of `p`'s pending entries the oldest: the one at its cut.
                let e = entry(&self.logs, p, self.cut[p]);
                assert!(
                    e.seq < new_cut[p],
                    "the stable cut must be a prefix of the linearization, and {e:?} is not below it"
                );
                Self::replay(&self.spec, &mut self.base, e);
                self.cut[p] += 1;
                self.pending[p] -= 1;
            }
            debug_assert_eq!(self.cut, new_cut);
        }
        self.scratch.cut = new_cut;
    }

    /// The largest cut (per process, how many of its entries lie before
    /// it) that can be absorbed, left in `cut`: every pending entry
    /// beyond it has all of it in its view, and so does every root —
    /// hence, views being monotone, every entry still to be seen.
    /// `false` when some process has nothing pending (an empty slot, or
    /// an absorbed root): the next entry it publishes may carry a view
    /// as old as its absorbed root's, or no view at all.
    fn stable_cut(&self, cut: &mut Vec<u64>) -> bool {
        let n = self.cut.len();
        if self.pending.contains(&0) {
            return false;
        }
        cut.clear();
        cut.extend((0..n).map(|p| self.held(p)));
        loop {
            let mut stable = true;
            for q in 0..n {
                // Of the entries of `q` that must have the cut in their
                // view, the oldest: the first beyond the cut, else the
                // root.
                let oldest = cut[q].min(self.held(q) - 1);
                let seen = self.entry((q, oldest)).seen();
                for p in (0..n).filter(|&p| p != q) {
                    if seen[p] < cut[p] {
                        cut[p] = seen[p];
                        stable = false;
                    }
                }
            }
            if stable {
                return true;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::counter::{CounterOp, CounterResp, CounterSpec};
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::explore::ExploreConfig;
    use apram_model::sim::strategy::{Pct, SeededRandom, Strategy};
    use apram_model::sim::Budgeted;
    use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
    use apram_model::NativeMemory;
    use std::collections::HashMap;
    use std::sync::Mutex;

    type Reg = UniversalReg<CounterSpec>;

    /// The oracle: Figure 4's "H := linearization of view" taken
    /// literally — the whole closure of the root array, found by
    /// following every entry's view down to nothing, and linearized
    /// from the empty graph. Returns the replayed state and the history
    /// length.
    fn replay_from_scratch<S: AlgebraicSpec>(
        spec: &S,
        root: &UniversalReg<S>,
    ) -> (S::State, usize) {
        // `e.preceding[q]`: the last of `q`'s entries in `e`'s view.
        let preceding = |seen: &[u64]| {
            let last = seen.iter().enumerate();
            last.filter_map(|(q, &k)| Some((q, k.checked_sub(1)?)))
                .collect::<Vec<_>>()
        };
        let entry = |(p, seq): (ProcId, u64)| {
            let log = root.0[p].value.as_ref().expect("a tagged slot");
            log.get(seq).expect("an entry below a tag")
        };
        let tags: Vec<u64> = root.0.iter().map(|slot| slot.tag).collect();
        let mut index: HashMap<(ProcId, u64), usize> = HashMap::new();
        let mut nodes: Vec<&Entry<S::Op, S::Resp>> = Vec::new();
        let mut stack = preceding(&tags);
        while let Some(key) = stack.pop() {
            if index.contains_key(&key) {
                continue;
            }
            let e = entry(key);
            assert_eq!(e.key(), key, "an entry lies at its own address");
            index.insert(key, nodes.len());
            stack.extend(preceding(e.seen()));
            nodes.push(e);
        }
        let mut prec = ClosedDag::new(nodes.len());
        for (f_idx, f) in nodes.iter().enumerate() {
            for key in preceding(f.seen()) {
                assert!(prec.add_edge(index[&key], f_idx), "cyclic views");
            }
        }
        let order = canonical_order(&prec, |i| nodes[i].key());
        let lin = lingraph(&prec, &order, |a, b| {
            let (a, b) = (nodes[a], nodes[b]);
            dominates(spec, &a.op, a.proc, &b.op, b.proc)
        });
        let mut state = spec.initial();
        for i in lin.topo_sort_by_key(|i| nodes[i].key()) {
            let r = spec.apply(&mut state, nodes[i].proc, &nodes[i].op);
            assert!(
                r == nodes[i].resp,
                "illegal linearization at {:?}",
                nodes[i]
            );
        }
        // The closure is what the tags say: a process's entries chain.
        assert_eq!(nodes.len() as u64, tags.iter().sum::<u64>());
        (state, nodes.len())
    }

    /// Figure 4 answered by the oracle, with the shared-memory traffic
    /// of [`UniversalHandle`]: one snap, and one update when publishing.
    struct OracleHandle {
        snap: SnapshotHandle<EntryLog<CounterSpec>>,
        log: Option<EntryLog<CounterSpec>>,
        seq: u64,
    }

    /// One operation of a script: the invocation, and whether to
    /// publish it (`execute`) or not (`execute_unpublished`).
    type Step = (CounterOp, bool);
    /// What a process observed of one operation: the response and
    /// `last_history_len()`.
    type Seen = (CounterResp, usize);

    impl OracleHandle {
        fn step(&mut self, ctx: &mut SimCtx<Reg>, (op, publish): Step) -> Seen {
            let root = self.snap.snap_ref(ctx).clone();
            let (mut state, len) = replay_from_scratch(&CounterSpec, &root);
            let resp = CounterSpec.apply(&mut state, ctx.proc(), &op);
            if publish {
                let mut seen = vec![0; ctx.n_procs()];
                for (seen, slot) in seen.iter_mut().zip(&root.0) {
                    *seen = slot.tag;
                }
                let log = self.log.get_or_insert_with(LogRef::new);
                let e = Entry {
                    proc: ctx.proc(),
                    seq: self.seq,
                    op,
                    resp,
                    seen: seen.into(),
                };
                log.push(self.seq, e);
                self.seq += 1;
                self.snap.update(ctx, log.clone());
            }
            (resp, len)
        }
    }

    fn real_step(h: &mut UniversalHandle<CounterSpec>, ctx: &mut SimCtx<Reg>, step: Step) -> Seen {
        let resp = match step {
            (op, true) => h.execute(ctx, op),
            (op, false) => h.execute_unpublished(ctx, op),
        };
        (resp, h.last_history_len())
    }

    /// Run one script per process under `strategy` and the crash plan;
    /// returns what each process observed up to its crash.
    fn run_scripts<H: Send>(
        scripts: &[Vec<Step>],
        strategy: impl Strategy + Send + 'static,
        crashes: &[(ProcId, u64)],
        handle: impl Fn(&Universal<CounterSpec>) -> H + Sync,
        step: impl Fn(&mut H, &mut SimCtx<Reg>, Step) -> Seen + Sync,
    ) -> Vec<Vec<Seen>> {
        let uni = Universal::new(scripts.len(), CounterSpec);
        let seen: Vec<Mutex<Vec<Seen>>> = scripts.iter().map(|_| Mutex::default()).collect();
        let out = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .strategy(strategy)
            .crashes(crashes.iter().copied())
            .run_symmetric(scripts.len(), |ctx| {
                let mut h = handle(&uni);
                for &s in &scripts[ctx.proc()] {
                    let observed = step(&mut h, ctx, s);
                    seen[ctx.proc()].lock().unwrap().push(observed);
                }
            });
        out.assert_no_panics();
        seen.into_iter().map(|m| m.into_inner().unwrap()).collect()
    }

    fn script() -> impl proptest::strategy::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        let step = prop_oneof![
            (1i64..5).prop_map(|k| (CounterOp::Inc(k), true)),
            (1i64..5).prop_map(|k| (CounterOp::Dec(k), true)),
            (0i64..5).prop_map(|k| (CounterOp::Reset(k), true)),
            Just((CounterOp::Read, true)),
            Just((CounterOp::Read, false)),
        ];
        proptest::collection::vec(step, 0..7)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The absorbed prefix changes no observable: under the same
        /// schedule and crash plan, a handle answers every operation,
        /// published or not, exactly as the from-scratch oracle does,
        /// from a history of the same length.
        #[test]
        fn replay_agrees_with_from_scratch_oracle(
            scripts in proptest::collection::vec(script(), 2..=4),
            seed in 0u64..1 << 32,
            pct in proptest::prelude::any::<bool>(),
            crashes in proptest::collection::vec((0usize..4, 0u64..120), 0..3),
        ) {
            let n = scripts.len();
            let crashes: Vec<_> = crashes.into_iter().filter(|&(p, _)| p < n).collect();
            let schedule = || -> Box<dyn Strategy + Send> {
                if pct {
                    Box::new(Pct::new(seed, n, 3, 400))
                } else {
                    Box::new(SeededRandom::new(seed))
                }
            };
            let real = run_scripts(&scripts, schedule(), &crashes, Universal::handle, real_step);
            let oracle = run_scripts(
                &scripts,
                schedule(),
                &crashes,
                |uni| OracleHandle { snap: uni.snap.handle(), log: None, seq: 0 },
                OracleHandle::step,
            );
            proptest::prop_assert_eq!(real, oracle);
        }
    }

    #[test]
    fn sequential_counter_semantics() {
        let uni = Universal::new(2, CounterSpec);
        let mem = NativeMemory::new(2, uni.registers());
        let mut h0 = uni.handle();
        let mut h1 = uni.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        assert_eq!(h0.execute(&mut c0, CounterOp::Inc(5)), CounterResp::Ack);
        assert_eq!(h1.execute(&mut c1, CounterOp::Dec(2)), CounterResp::Ack);
        assert_eq!(h0.execute(&mut c0, CounterOp::Read), CounterResp::Value(3));
        assert_eq!(h1.execute(&mut c1, CounterOp::Reset(10)), CounterResp::Ack);
        assert_eq!(h1.execute(&mut c1, CounterOp::Read), CounterResp::Value(10));
        assert_eq!(h1.last_history_len(), 4);
        assert_eq!(uni.n(), 2);
    }

    /// A clone of a fresh handle is a fresh handle: it serves another
    /// process, in a log of its own.
    #[test]
    fn a_clone_of_a_fresh_handle_publishes_in_its_own_log() {
        let uni = Universal::new(2, CounterSpec);
        let mem = NativeMemory::new(2, uni.registers()).with_owners(uni.owners());
        let mut h0 = uni.handle();
        let mut h1 = h0.clone();
        let (mut c0, mut c1) = (mem.ctx(0), mem.ctx(1));
        for k in 0..6 {
            h0.execute(&mut c0, CounterOp::Inc(1));
            h1.execute(&mut c1, CounterOp::Inc(10));
            let read = h0.execute_unpublished(&mut c0, CounterOp::Read);
            assert_eq!(read, CounterResp::Value(11 * (k + 1)));
        }
        assert!(h0.own_log.0 != h1.own_log.0);
        // Once it has published, a clone is the same process carried on.
        let mut moved = h1.clone();
        assert!(moved.own_log.0 == h1.own_log.0);
        drop(h1);
        moved.execute(&mut c1, CounterOp::Inc(10));
        let read = h0.execute_unpublished(&mut c0, CounterOp::Read);
        assert_eq!(read, CounterResp::Value(76));
    }

    /// The replay memo is a pure cache: cached and uncached replays give
    /// identical responses throughout an interleaved workload.
    #[test]
    fn replay_memo_is_transparent() {
        let uni = Universal::new(2, CounterSpec);
        let mem = NativeMemory::new(2, uni.registers());
        let mut cached = uni.handle();
        let mut uncached = uni.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        for k in 0..10i64 {
            let a = cached.execute(&mut c0, CounterOp::Inc(k));
            assert_eq!(a, CounterResp::Ack);
            uncached.clear_replay_memo();
            let b = uncached.execute(&mut c1, CounterOp::Read);
            uncached.clear_replay_memo();
            let c = cached.execute_unpublished(&mut c0, CounterOp::Read);
            // Both observe all published ops so far; uncached's read ran
            // before cached's, so cached sees ≥.
            match (b, c) {
                (CounterResp::Value(x), CounterResp::Value(y)) => assert!(y >= x),
                other => panic!("{other:?}"),
            }
        }
        // Same world, warm cache: repeated reads are consistent.
        let r1 = cached.execute_unpublished(&mut c0, CounterOp::Read);
        let r2 = cached.execute_unpublished(&mut c0, CounterOp::Read);
        assert_eq!(r1, r2);
    }

    #[test]
    fn unpublished_reads_agree_with_published() {
        let uni = Universal::new(1, CounterSpec);
        let mem = NativeMemory::new(1, uni.registers());
        let mut h = uni.handle();
        let mut c = mem.ctx(0);
        h.execute(&mut c, CounterOp::Inc(7));
        let a = h.execute_unpublished(&mut c, CounterOp::Read);
        let b = h.execute(&mut c, CounterOp::Read);
        assert_eq!(a, CounterResp::Value(7));
        assert_eq!(a, b);
    }

    /// Corollary 27, exhaustively on a small instance: two processes,
    /// one update each plus a read, every schedule, every history
    /// checked against the counter's sequential spec.
    #[test]
    fn corollary_27_exhaustive_two_processes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let uni = Universal::new(2, CounterSpec);
        let rec_cell: Rc<RefCell<Option<Recorder<CounterOp, CounterResp>>>> =
            Rc::new(RefCell::new(None));
        let rec_for_make = Rc::clone(&rec_cell);
        let uni2 = uni.clone();
        let make = move || {
            let rec: Recorder<CounterOp, CounterResp> = Recorder::new();
            *rec_for_make.borrow_mut() = Some(rec.clone());
            (0..2usize)
                .map(|p| {
                    let rec = rec.clone();
                    let mut h = uni2.handle();
                    let ops = if p == 0 {
                        vec![CounterOp::Inc(1), CounterOp::Read]
                    } else {
                        vec![CounterOp::Reset(5), CounterOp::Read]
                    };
                    Box::new(move |ctx: &mut SimCtx<Reg>| {
                        for op in ops {
                            rec.invoke(p, op);
                            let r = h.execute(ctx, op);
                            rec.respond(p, r);
                        }
                    }) as ProcBody<'static, Reg, ()>
                })
                .collect::<Vec<_>>()
        };
        let spec = CounterSpec;
        let stats = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .explore(
                &ExploreConfig::new().max_runs(60_000).max_depth(10),
                make,
                |out| {
                    out.assert_no_panics();
                    let hist = rec_cell.borrow_mut().take().unwrap().snapshot();
                    assert!(
                        check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok(),
                        "non-linearizable universal-counter history: {hist:?}"
                    );
                    true
                },
            );
        assert!(stats.runs > 100, "{stats:?}");
    }

    /// Randomized Corollary 27 on 3 processes with mixed operations.
    #[test]
    fn corollary_27_randomized() {
        for seed in 0..15u64 {
            let n = 3;
            let uni = Universal::new(n, CounterSpec);
            let rec: Recorder<CounterOp, CounterResp> = Recorder::new();
            let rec2 = rec.clone();
            let uni2 = uni.clone();
            let out = SimBuilder::new(uni.registers())
                .owners(uni.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let p = ctx.proc();
                    let mut h = uni2.handle();
                    let ops = match p {
                        0 => vec![CounterOp::Inc(1), CounterOp::Read],
                        1 => vec![CounterOp::Dec(2), CounterOp::Read],
                        _ => vec![CounterOp::Reset(9), CounterOp::Read],
                    };
                    for op in ops {
                        rec2.invoke(p, op);
                        let r = h.execute(ctx, op);
                        rec2.respond(p, r);
                    }
                });
            out.assert_no_panics();
            let hist = rec.snapshot();
            assert!(
                check_linearizable(&CounterSpec, &hist, &CheckerConfig::default()).is_ok(),
                "seed {seed}: {hist:?}"
            );
        }
    }

    /// Wait-freedom: two of three processes crash mid-operation; the
    /// survivor completes all its operations.
    #[test]
    fn survivor_completes_despite_crashes() {
        let n = 3;
        let uni = Universal::new(n, CounterSpec);
        let uni2 = uni.clone();
        let out = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .crashes([(1, 9), (2, 17)])
            .run_symmetric(n, move |ctx| {
                let mut h = uni2.handle();
                let mut last = CounterResp::Ack;
                for k in 0..3 {
                    h.execute(ctx, CounterOp::Inc(1));
                    last = h.execute(ctx, CounterOp::Read);
                    let _ = k;
                }
                last
            });
        out.assert_no_panics();
        match out.results[0] {
            Some(CounterResp::Value(v)) => assert!(v >= 3, "survivor's incs visible: {v}"),
            ref other => panic!("survivor did not finish: {other:?}"),
        }
        assert!(out.crashed[1] && out.crashed[2]);
    }

    /// O(n²) shared-memory cost per operation (experiment E5's claim):
    /// exactly two scans per execute — the snap that reads the anchor
    /// array, then the update that writes the entry, itself a scan
    /// (`Write_L`). With the optimized scan each is n²−1 reads and n+1
    /// writes (the literal scan: n²+n+1 reads, n+2 writes).
    #[test]
    fn per_operation_shared_cost_is_two_scans() {
        for n in [2usize, 3, 5] {
            let uni = Universal::new(n, CounterSpec);
            let uni2 = uni.clone();
            let out = SimBuilder::new(uni.registers())
                .owners(uni.owners())
                .run_symmetric(n, move |ctx| {
                    let mut h = uni2.handle();
                    h.execute(ctx, CounterOp::Inc(1));
                });
            out.assert_no_panics();
            for p in 0..n {
                //   snap (scan):   n²−1 reads, n+1 writes
                //   update (scan): n²−1 reads, n+1 writes
                let reads = (n * n - 1) as u64 * 2;
                let writes = (n as u64 + 1) * 2;
                assert_eq!(out.counts[p].reads, reads, "n={n} P{p}");
                assert_eq!(out.counts[p].writes, writes, "n={n} P{p}");
            }
        }
    }

    /// Native-thread stress: heavier interleavings, checked windows.
    #[test]
    fn native_stress_linearizable() {
        for trial in 0..5 {
            let n = 3;
            let uni = Universal::new(n, CounterSpec);
            let mem = NativeMemory::new(n, uni.registers()).with_owners(uni.owners());
            let rec: Recorder<CounterOp, CounterResp> = Recorder::new();
            std::thread::scope(|s| {
                for p in 0..n {
                    let mem = mem.clone();
                    let rec = rec.clone();
                    let mut h = uni.handle();
                    s.spawn(move || {
                        let mut ctx = mem.ctx(p);
                        let ops = [
                            CounterOp::Inc(p as i64 + 1),
                            CounterOp::Read,
                            if p == 0 {
                                CounterOp::Reset(100)
                            } else {
                                CounterOp::Dec(1)
                            },
                            CounterOp::Read,
                        ];
                        for op in ops {
                            rec.invoke(p, op);
                            let r = h.execute(&mut ctx, op);
                            rec.respond(p, r);
                        }
                    });
                }
            });
            let hist = rec.into_history();
            assert!(
                check_linearizable(&CounterSpec, &hist, &CheckerConfig::default()).is_ok(),
                "trial {trial}: {hist:?}"
            );
        }
    }

    /// `n` handles on one native memory, driven one whole operation at
    /// a time: histories without overlap, so the sequential spec run
    /// over the same operations predicts every response.
    struct Lockstep {
        handles: Vec<UniversalHandle<CounterSpec>>,
        ctxs: Vec<apram_model::NativeCtx<Reg>>,
        model: i64,
    }

    impl Lockstep {
        fn new(n: usize) -> Self {
            let uni = Universal::new(n, CounterSpec);
            let mem = NativeMemory::new(n, uni.registers()).with_owners(uni.owners());
            Lockstep {
                handles: (0..n).map(|_| uni.handle()).collect(),
                ctxs: (0..n).map(|p| mem.ctx(p)).collect(),
                model: CounterSpec.initial(),
            }
        }

        /// Execute `op` as process `p`, check the response, and return
        /// the size of the working set the view was replayed over and
        /// how many of its entries the replay linearized.
        fn step(&mut self, p: usize, op: CounterOp) -> (usize, usize) {
            let absorbed = self.absorbed(p);
            let linearized = self.handles[p].replays.linearized;
            let resp = self.handles[p].execute(&mut self.ctxs[p], op);
            assert_eq!(
                resp,
                CounterSpec.apply(&mut self.model, p, &op),
                "P{p} {op:?}"
            );
            (
                self.handles[p].last_history_len() - absorbed,
                self.handles[p].replays.linearized - linearized,
            )
        }

        fn absorbed(&self, p: usize) -> usize {
            self.handles[p].cut.iter().sum::<u64>() as usize
        }
    }

    fn some_op(k: usize) -> CounterOp {
        match k % 7 {
            0 => CounterOp::Reset(k as i64),
            1 | 4 => CounterOp::Read,
            2 | 5 => CounterOp::Dec(2),
            _ => CounterOp::Inc(k as i64),
        }
    }

    /// While every process keeps publishing, what is left to linearize
    /// stays bounded however long the history grows — and so does the
    /// cost of an operation, which is what lets this test finish.
    #[test]
    fn long_round_robin_keeps_the_working_set_small() {
        let n = 3;
        let mut sys = Lockstep::new(n);
        for k in 0..30_000 {
            let (working_set, linearized) = sys.step(k % n, some_op(k));
            assert!(working_set <= 2 * n, "op {k}: {working_set} entries");
            assert!(linearized < n, "op {k}: {linearized} entries");
        }
        assert_eq!(sys.handles[(30_000 - 1) % n].last_history_len(), 30_000 - 1);
    }

    /// A process that has published nothing may yet publish an entry
    /// with an empty view, which nothing can be said to precede: the
    /// others absorb nothing, and still answer correctly — each from
    /// what it held plus the one entry that is new, however much has
    /// piled up beyond the cut.
    #[test]
    fn a_silent_process_pins_the_cut() {
        let mut sys = Lockstep::new(3);
        for k in 0..60 {
            let (working_set, linearized) = sys.step(k % 2, some_op(k));
            assert_eq!(sys.absorbed(k % 2), 0, "op {k}");
            assert_eq!((working_set, linearized), (k, k.min(1)), "op {k}");
        }
        // Once it speaks, everything is in everyone's past again.
        for k in 60..72 {
            sys.step(k % 3, some_op(k));
        }
        assert!(sys.absorbed(0) > 60, "{}", sys.absorbed(0));
    }

    /// A process that stops after its first operation pins the cut too:
    /// its next entry would carry a view no newer than the one it
    /// crashed with, so absorption stops just past its only entry.
    #[test]
    fn a_crashed_process_pins_the_cut() {
        let mut sys = Lockstep::new(3);
        for p in 0..3 {
            sys.step(p, some_op(p)); // the third is P2's only operation
        }
        for k in 0..20 {
            sys.step(k % 2, some_op(k));
        }
        let pinned = [sys.absorbed(0), sys.absorbed(1)];
        assert!(pinned.iter().all(|&a| a > 0 && a <= 3), "{pinned:?}");
        for k in 20..80 {
            let (working_set, linearized) = sys.step(k % 2, some_op(k));
            assert_eq!(sys.absorbed(k % 2), pinned[k % 2], "op {k}");
            assert_eq!(working_set, 3 + k - pinned[k % 2], "op {k}");
            assert_eq!(linearized, 1, "op {k}: only the other's last entry is new");
        }
        let restarts: Vec<_> = sys.handles.iter().map(|h| h.replays.from_cut).collect();
        assert_eq!(restarts, [0, 0, 0], "nothing overlapped");
    }

    /// Every case of `replay_view`, driven on purpose. Three processes
    /// take turns of half an operation — the scan of `snap`, then the
    /// scan of `update` — under a scripted schedule, so which entries
    /// overlap is decided here. Operations that overlap another are
    /// increments, so the sequential model, advanced when an operation
    /// publishes, predicts every response.
    #[test]
    fn each_start_of_the_replay_is_taken_when_it_should_be() {
        use apram_model::sim::strategy::Replay;
        use apram_snapshot::ScanObject;
        use CounterOp::{Inc, Read};
        let n = 3;
        let turns: Vec<ProcId> = [
            // P0 alone: nothing to replay.
            &[0, 0][..],
            // P1, then P2: P0 finds a chain of two.
            &[1, 1, 2, 2, 0, 0],
            // P1 and P2 overlap each other, both after all P0 holds:
            // a clean cut, and a graph over the two.
            &[1, 2, 1, 2, 0, 0],
            // P1 takes its snapshot, P0 runs a whole operation, P1
            // publishes: an entry that missed P0's last operation.
            &[1, 0, 0, 1, 0, 0],
            // P2 has stopped, its last entry overlapped P1's: the cut is
            // pinned below both for good. P1 and P0 alternate.
            &[1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
        ]
        .concat();
        let scripts = [
            vec![Inc(1), Read, Read, Inc(7), Read, Read, Read, Read],
            vec![Inc(2), Inc(4), Inc(6), Inc(8), Inc(10), Inc(12)],
            vec![Inc(3), Inc(5)],
        ];
        for (p, script) in scripts.iter().enumerate() {
            let halves = turns.iter().filter(|&&q| q == p).count();
            assert_eq!(
                halves,
                2 * script.len(),
                "P{p}: every operation gets both turns"
            );
        }
        // What the sequential model answers, operation by operation.
        let mut expected = vec![Vec::new(); n];
        let (mut model, mut halves) = (CounterSpec.initial(), vec![0; n]);
        for &p in &turns {
            halves[p] += 1;
            if halves[p] % 2 == 0 {
                let op = scripts[p][halves[p] / 2 - 1];
                expected[p].push(CounterSpec.apply(&mut model, p, &op));
            }
        }

        let uni = Universal::new(n, CounterSpec);
        let half = ScanObject::optimized_scan_reads(n) + ScanObject::optimized_scan_writes(n);
        let schedule = turns
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, half as usize));
        // Per operation: the response, the handle's counts, how much it
        // has absorbed.
        type Seen = (CounterResp, ReplayCounts, u64);
        let seen: Vec<Mutex<Vec<Seen>>> = (0..n).map(|_| Mutex::default()).collect();
        let out = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .strategy(Replay::strict(schedule.collect()))
            .run_symmetric(n, |ctx| {
                let mut h = uni.handle();
                for &op in &scripts[ctx.proc()] {
                    let resp = h.execute(ctx, op);
                    let observed = (resp, h.replays, h.cut.iter().sum());
                    seen[ctx.proc()].lock().unwrap().push(observed);
                }
            });
        out.assert_no_panics();
        let seen: Vec<Vec<Seen>> = seen.into_iter().map(|m| m.into_inner().unwrap()).collect();
        for p in 0..n {
            let resps: Vec<_> = seen[p].iter().map(|s| s.0).collect();
            assert_eq!(resps, expected[p], "P{p}");
        }

        // P0, operation by operation: (restarts from the cut, entries
        // linearized, graphs built) so far.
        let counts = |from_cut, linearized, graphs| ReplayCounts {
            from_cut,
            linearized,
            graphs,
        };
        let p0: Vec<_> = seen[0].iter().map(|s| s.1).collect();
        assert_eq!(p0[0], counts(0, 0, 0), "alone");
        assert_eq!(p0[1], counts(0, 2, 0), "a chain of two");
        assert_eq!(p0[2], counts(0, 4, 1), "two concurrent entries");
        assert_eq!(p0[3], p0[2], "nothing new");
        // Not clean: everything beyond the cut is linearized again, P0's
        // last operation and the entry that missed it among it.
        // It sees four entries of its own, three of P1 and P2's two.
        let beyond_cut = (4 + 3 + 2) - seen[0][3].2 as usize;
        assert_eq!(p0[4], counts(1, 4 + beyond_cut, 2), "a restart");
        assert!(beyond_cut > 2, "{beyond_cut}");
        for k in 5..8 {
            assert_eq!(
                p0[k],
                counts(1, p0[k - 1].linearized + 1, 2),
                "op {k}: one new entry"
            );
            assert_eq!(seen[0][k].2, seen[0][4].2, "op {k}: the cut is pinned");
        }
        // P1 met two entries that had missed its last operation: P2's
        // from the overlap, P0's from inside its own. P2 met none.
        assert_eq!(seen[1].last().unwrap().1.from_cut, 2);
        assert_eq!(seen[2].last().unwrap().1.from_cut, 0);
    }

    /// The publication order, asserted: a root slot whose tag runs ahead
    /// of its log — an index made known before the entry was appended —
    /// is refused by the first handle that follows it, by name.
    #[test]
    #[should_panic(expected = "P1 #3 is in a view and not in P1's log")]
    fn an_index_made_known_before_its_entry_is_refused() {
        let n = 2;
        let uni = Universal::new(n, CounterSpec);
        let logs: Vec<EntryLog<CounterSpec>> = (0..n).map(|_| LogRef::new()).collect();
        for (p, log) in logs.iter().enumerate() {
            for seq in 0..3 {
                let e = Entry {
                    proc: p,
                    seq,
                    op: CounterOp::Inc(1),
                    resp: CounterResp::Ack,
                    seen: (0..n).map(|q| seq + (q < p) as u64).collect(),
                };
                log.push(seq, e);
            }
        }
        // P1's slot claims four entries; its log holds three.
        let tagged = |(log, tag): (&EntryLog<CounterSpec>, u64)| {
            apram_lattice::Tagged::new(tag, log.clone())
        };
        let root = TaggedVec(logs.iter().zip([3, 4]).map(tagged).collect());
        let mem = NativeMemory::new(n, vec![root; uni.registers().len()]);
        uni.handle()
            .execute_unpublished(&mut mem.ctx(0), CounterOp::Read);
    }

    /// A universe whose logs hold 200 k entries drops in a loop over
    /// their cells: no entry owns another, so there is no chain for a
    /// recursive drop to follow. Built directly, without the snapshot
    /// traffic of 200 k `execute`s: the logs, the root array naming
    /// them in every register, and a handle that has seen it.
    #[test]
    fn a_universe_with_long_logs_drops() {
        let (n, per_log) = (2usize, 100_000u64);
        let uni = Universal::new(n, CounterSpec);
        let logs: Vec<EntryLog<CounterSpec>> = (0..n).map(|_| LogRef::new()).collect();
        for seq in 0..per_log {
            for (p, log) in logs.iter().enumerate() {
                let e = Entry {
                    proc: p,
                    seq,
                    op: CounterOp::Inc(1),
                    resp: CounterResp::Ack,
                    seen: (0..n).map(|q| seq + (q < p) as u64).collect(),
                };
                log.push(seq, e);
            }
        }
        let root = TaggedVec(
            logs.iter()
                .map(|log| apram_lattice::Tagged::new(per_log, log.clone()))
                .collect(),
        );
        drop(logs);
        let mem = NativeMemory::new(n, vec![root; uni.registers().len()]);
        let mut h = uni.handle();
        let read = h.execute_unpublished(&mut mem.ctx(0), CounterOp::Read);
        assert_eq!(read, CounterResp::Value((n as u64 * per_log) as i64));
        assert_eq!(h.last_history_len(), (n as u64 * per_log) as usize);
        drop(h);
        drop(mem); // the last handles on the logs go here
    }
}
