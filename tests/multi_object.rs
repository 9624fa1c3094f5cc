//! Multiple objects sharing one register array (via base offsets), and
//! linearizability's locality across them.
//!
//! The paper's §3.2 locality claim means independently-implemented
//! objects compose freely; here a max-register scan object and a
//! grow-set scan object live side by side in a single simulated memory
//! (exercising `ScanObject::at`), processes interleave operations on
//! both, and the composed behaviour is checked object by object.

use apram_history::check::{check_linearizable, CheckerConfig};
use apram_history::Recorder;
use apram_lattice::{JoinSemilattice, MaxU64, SetUnion};
use apram_model::sim::strategy::{Pct, SeededRandom};
use apram_model::sim::SimBuilder;
use apram_model::{MemCtx, OffsetCtx};
use apram_objects::maxreg::{MaxRegOp, MaxRegResp, MaxRegSpec};
use apram_snapshot::snapshot::{ScanMaxOp, ScanMaxResp, ScanMaxSpec};
use apram_snapshot::{ScanHandle, ScanObject};

/// Both objects' registers carry the same lattice type so they can share
/// one memory: a product of the max lattice and the set lattice (each
/// object only uses its component).
type L = (MaxU64, SetUnion<u64>);

#[test]
fn two_scan_objects_share_one_memory() {
    for seed in 0..10u64 {
        let n = 3;
        let max_obj = ScanObject::new(n);
        let set_obj = ScanObject::new(n);
        let set_base = max_obj.n_regs();
        let total = max_obj.n_regs() + set_obj.n_regs();
        let init: Vec<L> = (0..total).map(|_| JoinSemilattice::bottom()).collect();
        let mut owners = max_obj.owners();
        owners.extend(set_obj.owners());

        let set_rec: Recorder<ScanMaxOp<SetUnion<u64>>, ScanMaxResp<SetUnion<u64>>> =
            Recorder::new();
        let sr = set_rec.clone();

        let out = SimBuilder::new(init)
            .owners(owners)
            .strategy(SeededRandom::new(seed))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut max_h: ScanHandle<L> = ScanHandle::new(max_obj);
                let mut set_h: ScanHandle<L> = ScanHandle::new(set_obj);
                // Interleave operations on the two objects; the set object's
                // history is recorded and checked, the max object is
                // exercised alongside (its own checks live elsewhere).
                max_h.write_l(ctx, (MaxU64::new(p as u64 + 1), SetUnion::new()));

                sr.invoke(p, ScanMaxOp::WriteL(SetUnion::singleton(p as u64)));
                {
                    let mut off = OffsetCtx {
                        inner: ctx,
                        base: set_base,
                    };
                    set_h.write_l(&mut off, (MaxU64::new(0), SetUnion::singleton(p as u64)));
                }
                sr.respond(p, ScanMaxResp::Ack);

                let (m, _) = max_h.read_max(ctx);
                assert!(m.get() > p as u64, "own max write visible");

                sr.invoke(p, ScanMaxOp::ReadMax);
                let got = {
                    let mut off = OffsetCtx {
                        inner: ctx,
                        base: set_base,
                    };
                    set_h.read_max(&mut off).1
                };
                sr.respond(p, ScanMaxResp::Max(got));
            });
        out.assert_no_panics();

        // Each object's history checks against its own spec — locality.
        let set_hist = set_rec.snapshot();
        assert!(
            check_linearizable(
                &ScanMaxSpec::<SetUnion<u64>>::new(),
                &set_hist,
                &CheckerConfig::default()
            )
            .is_ok(),
            "seed {seed}: set object violated: {set_hist:?}"
        );
    }
}

/// The max-register component checked separately, under PCT schedules,
/// with the value encoding handled carefully (MaxU64's bottom is 0, so
/// use strictly positive payloads).
#[test]
fn shared_memory_max_component_linearizable() {
    for seed in 0..10u64 {
        let n = 3;
        let max_obj = ScanObject::new(n);
        let init: Vec<(MaxU64, SetUnion<u64>)> = (0..max_obj.n_regs())
            .map(|_| JoinSemilattice::bottom())
            .collect();
        let rec: Recorder<MaxRegOp, MaxRegResp> = Recorder::new();
        let rec2 = rec.clone();
        let out = SimBuilder::new(init)
            .owners(max_obj.owners())
            .strategy(Pct::new(seed, n, 3, 200))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut h: ScanHandle<(MaxU64, SetUnion<u64>)> = ScanHandle::new(max_obj);
                let v = (p as i64 + 1) * 10;
                rec2.invoke(p, MaxRegOp::WriteMax(v));
                h.write_l(ctx, (MaxU64::new(v as u64), SetUnion::new()));
                rec2.respond(p, MaxRegResp::Ack);
                rec2.invoke(p, MaxRegOp::Read);
                let (m, _) = h.read_max(ctx);
                rec2.respond(
                    p,
                    MaxRegResp::Value((m != MaxU64::new(0)).then(|| m.get() as i64)),
                );
            });
        out.assert_no_panics();
        let hist = rec.snapshot();
        assert!(
            check_linearizable(&MaxRegSpec, &hist, &CheckerConfig::default()).is_ok(),
            "seed {seed}: {hist:?}"
        );
    }
}
