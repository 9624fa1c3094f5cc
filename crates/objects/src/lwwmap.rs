//! A last-writer-wins map: a richer Property 1 instance.
//!
//! The §5.1 examples (counter, clocks, sets) have *global* overwrite
//! structure (`reset`/`clear` overwrite everything). A map with
//! `put(k, v)` / `get(k)` / `remove(k)` / `keys()` shows the
//! characterization's finer grain:
//!
//! * `put`/`remove` on **different** keys commute;
//! * `put(k, _)` and `remove(k)` **overwrite** any earlier `put(k, _)`
//!   or `remove(k)` (last writer wins on each key);
//! * every operation overwrites the read-only `get`/`keys`.
//!
//! Every pair is covered, so Property 1 holds and the Figure 4
//! construction hosts the map; [`apram_core::verify`] validates the
//! algebra, and the construction's linearizability is checked under
//! randomized schedules.
//!
//! The universal form pays for its generality: each operation takes an
//! atomic snapshot and linearizes what the snapshot holds that the last
//! one did not — a handful of entries, but everything not yet settled
//! over again when one of them overlapped an operation already
//! replayed — microseconds per operation at best. The [`DirectLwwMap`]
//! is the type-specific optimization for the put/get/remove core: one
//! atomic multi-writer register per key slot,
//! so every operation is a single register access. Linearizability is
//! per-key register atomicity (last writer wins *is* the register's
//! semantics); what the direct form gives up is `keys()` — a consistent
//! key listing needs a snapshot scan, which is exactly the overhead the
//! universal construction exists to pay.

use apram_core::AlgebraicSpec;
use apram_history::{DetSpec, ProcId};
use apram_model::MemCtx;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Map operations over small integer keys/values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapOp {
    /// Bind `key` to `value`.
    Put(u32, u64),
    /// Unbind `key`.
    Remove(u32),
    /// Look up `key`.
    Get(u32),
    /// List the bound keys.
    Keys,
}

impl MapOp {
    /// The key an operation touches, if it is key-specific.
    fn key(&self) -> Option<u32> {
        match self {
            MapOp::Put(k, _) | MapOp::Remove(k) | MapOp::Get(k) => Some(*k),
            MapOp::Keys => None,
        }
    }

    /// `true` for the read-only operations.
    fn is_read(&self) -> bool {
        matches!(self, MapOp::Get(_) | MapOp::Keys)
    }
}

/// Map responses.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MapResp {
    /// Acknowledgement of an update.
    Ack,
    /// The binding, if any.
    Value(Option<u64>),
    /// The bound keys.
    Keys(BTreeSet<u32>),
}

/// The sequential specification with its algebra.
#[derive(Clone, Copy, Debug, Default)]
pub struct LwwMapSpec;

impl DetSpec for LwwMapSpec {
    type State = BTreeMap<u32, u64>;
    type Op = MapOp;
    type Resp = MapResp;

    fn initial(&self) -> Self::State {
        BTreeMap::new()
    }

    fn apply(&self, state: &mut Self::State, _proc: ProcId, op: &MapOp) -> MapResp {
        match op {
            MapOp::Put(k, v) => {
                state.insert(*k, *v);
                MapResp::Ack
            }
            MapOp::Remove(k) => {
                state.remove(k);
                MapResp::Ack
            }
            MapOp::Get(k) => MapResp::Value(state.get(k).copied()),
            MapOp::Keys => MapResp::Keys(state.keys().copied().collect()),
        }
    }
}

impl AlgebraicSpec for LwwMapSpec {
    fn commutes(&self, p: &MapOp, q: &MapOp) -> bool {
        // Reads commute with everything (they change nothing);
        // key-specific updates commute iff the keys differ; identical
        // updates commute trivially.
        p.is_read() || q.is_read() || p.key() != q.key() || p == q
    }

    fn overwrites(&self, overwriter: &MapOp, overwritten: &MapOp) -> bool {
        if overwritten.is_read() {
            return true; // everything overwrites a read
        }
        if overwriter.is_read() {
            return false;
        }
        // Same-key update after update: last writer wins.
        overwriter.key() == overwritten.key()
    }
}

/// The direct last-writer-wins map: one atomic multi-writer register
/// per key slot (keys hash-mod into slots), every operation a single
/// register access. This is the map the serving path uses; see the
/// [module docs](self) for what it trades against the universal form.
#[derive(Clone, Copy, Debug)]
pub struct DirectLwwMap {
    keys: usize,
}

impl DirectLwwMap {
    /// A map with `keys` register slots (keys reduce modulo `keys`, so
    /// distinct keys may share a slot — size the slot count to the key
    /// universe when exact per-key semantics matter).
    pub fn new(keys: usize) -> Self {
        assert!(keys > 0, "a map needs at least one key slot");
        DirectLwwMap { keys }
    }

    /// Number of key slots.
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// Initial register contents: every slot unbound. Registers stay
    /// unowned (multi-writer): any process may put to any key.
    pub fn registers(&self) -> Vec<Option<u64>> {
        vec![None; self.keys]
    }

    /// A per-process handle.
    pub fn handle(&self) -> DirectLwwMapHandle {
        DirectLwwMapHandle { keys: self.keys }
    }
}

/// Per-process handle on a [`DirectLwwMap`].
#[derive(Clone, Copy, Debug)]
pub struct DirectLwwMapHandle {
    keys: usize,
}

impl DirectLwwMapHandle {
    fn slot(&self, key: u32) -> usize {
        key as usize % self.keys
    }

    /// Bind `key` to `v` (one atomic register write).
    pub fn put<C: MemCtx<Option<u64>>>(&mut self, ctx: &mut C, key: u32, v: u64) {
        let slot = self.slot(key);
        ctx.write(slot, Some(v));
    }

    /// Unbind `key` (an overwrite like any other — the slot register is
    /// atomic, so removal is as linearizable as a put).
    pub fn remove<C: MemCtx<Option<u64>>>(&mut self, ctx: &mut C, key: u32) {
        let slot = self.slot(key);
        ctx.write(slot, None);
    }

    /// Look up `key` (one atomic register read).
    pub fn get<C: MemCtx<Option<u64>>>(&mut self, ctx: &mut C, key: u32) -> Option<u64> {
        let slot = self.slot(key);
        ctx.read(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_core::verify::verify_property1;
    use apram_core::Universal;
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::strategy::{Pct, SeededRandom};
    use apram_model::sim::SimBuilder;
    use apram_model::NativeMemory;

    fn op_pool() -> Vec<MapOp> {
        vec![
            MapOp::Put(1, 10),
            MapOp::Put(1, 11),
            MapOp::Put(2, 20),
            MapOp::Remove(1),
            MapOp::Remove(3),
            MapOp::Get(1),
            MapOp::Get(2),
            MapOp::Keys,
        ]
    }

    fn state_pool() -> Vec<BTreeMap<u32, u64>> {
        vec![
            BTreeMap::new(),
            BTreeMap::from([(1, 5)]),
            BTreeMap::from([(1, 5), (2, 6), (3, 7)]),
        ]
    }

    #[test]
    fn algebra_verified() {
        assert_eq!(
            verify_property1(&LwwMapSpec, &state_pool(), &op_pool()),
            Ok(())
        );
    }

    #[test]
    fn algebra_cases() {
        let s = LwwMapSpec;
        // Different keys commute.
        assert!(s.commutes(&MapOp::Put(1, 10), &MapOp::Put(2, 20)));
        assert!(s.commutes(&MapOp::Remove(1), &MapOp::Put(2, 20)));
        // Same key: overwrite, not commute (unless identical).
        assert!(!s.commutes(&MapOp::Put(1, 10), &MapOp::Put(1, 11)));
        assert!(s.overwrites(&MapOp::Put(1, 11), &MapOp::Put(1, 10)));
        assert!(s.overwrites(&MapOp::Remove(1), &MapOp::Put(1, 10)));
        assert!(s.overwrites(&MapOp::Put(1, 10), &MapOp::Remove(1)));
        assert!(s.commutes(&MapOp::Put(1, 10), &MapOp::Put(1, 10)));
        // Reads.
        assert!(s.overwrites(&MapOp::Put(1, 10), &MapOp::Get(1)));
        assert!(!s.overwrites(&MapOp::Get(1), &MapOp::Put(1, 10)));
        assert!(s.commutes(&MapOp::Keys, &MapOp::Remove(9)));
    }

    #[test]
    fn sequential_semantics() {
        let spec = LwwMapSpec;
        let (state, resps) = spec.run(&[
            (0, MapOp::Put(1, 10)),
            (1, MapOp::Put(2, 20)),
            (0, MapOp::Get(2)),
            (1, MapOp::Remove(1)),
            (0, MapOp::Get(1)),
            (0, MapOp::Keys),
        ]);
        assert_eq!(state, BTreeMap::from([(2, 20)]));
        assert_eq!(resps[2], MapResp::Value(Some(20)));
        assert_eq!(resps[4], MapResp::Value(None));
        assert_eq!(resps[5], MapResp::Keys(BTreeSet::from([2])));
    }

    #[test]
    fn universal_map_native() {
        let n = 2;
        let uni = Universal::new(n, LwwMapSpec);
        let mem = NativeMemory::new(n, uni.registers());
        let mut h0 = uni.handle();
        let mut h1 = uni.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.execute(&mut c0, MapOp::Put(1, 10));
        h1.execute(&mut c1, MapOp::Put(2, 20));
        assert_eq!(h0.execute(&mut c0, MapOp::Get(2)), MapResp::Value(Some(20)));
        h1.execute(&mut c1, MapOp::Remove(1));
        assert_eq!(h0.execute(&mut c0, MapOp::Get(1)), MapResp::Value(None));
        assert_eq!(
            h0.execute_unpublished(&mut c0, MapOp::Keys),
            MapResp::Keys(BTreeSet::from([2]))
        );
    }

    #[test]
    fn direct_map_native() {
        let map = DirectLwwMap::new(4);
        let mem = NativeMemory::new(2, map.registers());
        let mut h0 = map.handle();
        let mut h1 = map.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.put(&mut c0, 1, 10);
        h1.put(&mut c1, 2, 20);
        assert_eq!(h0.get(&mut c0, 2), Some(20));
        h1.remove(&mut c1, 1);
        assert_eq!(h0.get(&mut c0, 1), None);
        // Keys reduce modulo the slot count: key 5 aliases key 1.
        h0.put(&mut c0, 5, 50);
        assert_eq!(h1.get(&mut c1, 1), Some(50));
    }

    /// Per-key linearizability of the direct map under random simulated
    /// schedules: each slot is one atomic register, so a history of
    /// puts/gets on one key must linearize against the sequential map.
    #[test]
    fn direct_map_linearizable() {
        for seed in 0..8u64 {
            let n = 3;
            let map = DirectLwwMap::new(2);
            let rec: Recorder<MapOp, MapResp> = Recorder::new();
            let rec2 = rec.clone();
            let out = SimBuilder::new(map.registers())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let p = ctx.proc();
                    let mut h = map.handle();
                    let key = 1u32;
                    rec2.record(p, MapOp::Put(key, 10 + p as u64), || {
                        h.put(ctx, key, 10 + p as u64);
                        MapResp::Ack
                    });
                    rec2.record(p, MapOp::Get(key), || MapResp::Value(h.get(ctx, key)));
                });
            out.assert_no_panics();
            let hist = rec.snapshot();
            assert!(
                check_linearizable(&LwwMapSpec, &hist, &CheckerConfig::default()).is_ok(),
                "seed {seed}: {hist:?}"
            );
        }
    }

    /// Linearizability under random + PCT simulated schedules.
    #[test]
    fn universal_map_linearizable() {
        for seed in 0..8u64 {
            for use_pct in [false, true] {
                let n = 3;
                let uni = Universal::new(n, LwwMapSpec);
                let sim = SimBuilder::new(uni.registers()).owners(uni.owners());
                let rec: Recorder<MapOp, MapResp> = Recorder::new();
                let rec2 = rec.clone();
                let uni2 = uni.clone();
                let body = move |ctx: &mut apram_model::SimCtx<
                    apram_core::universal::UniversalReg<LwwMapSpec>,
                >| {
                    let p = ctx.proc();
                    let mut h = uni2.handle();
                    let ops = match p {
                        0 => vec![MapOp::Put(1, 10), MapOp::Get(1)],
                        1 => vec![MapOp::Put(1, 11), MapOp::Keys],
                        _ => vec![MapOp::Remove(1), MapOp::Get(1)],
                    };
                    for op in ops {
                        rec2.invoke(p, op);
                        let r = h.execute(ctx, op);
                        rec2.respond(p, r);
                    }
                };
                let mut sim = if use_pct {
                    sim.strategy(Pct::new(seed, n, 3, 200))
                } else {
                    sim.strategy(SeededRandom::new(seed))
                };
                let out = sim.run_symmetric(n, body);
                out.assert_no_panics();
                let hist = rec.snapshot();
                assert!(
                    check_linearizable(&LwwMapSpec, &hist, &CheckerConfig::default()).is_ok(),
                    "seed {seed} pct={use_pct}: {hist:?}"
                );
            }
        }
    }
}
