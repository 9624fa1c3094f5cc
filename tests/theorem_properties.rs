//! Cross-crate checks of the paper's theorem statements, at the level a
//! user of the library observes them.

use apram_agreement::spec::outputs_valid;
use apram_agreement::{AgreementProto, OneShotAgreement};
use apram_core::{CounterOp, CounterResp, CounterSpec, Universal};
use apram_lattice::{JoinSemilattice, SetUnion};
use apram_model::sim::strategy::{Pct, SeededRandom};
use apram_model::sim::SimBuilder;
use apram_model::MemCtx;
use apram_snapshot::{ScanHandle, ScanObject};

/// Theorem 5 for two processes, swept over ε and seeds: termination,
/// validity, ε-agreement, and the step envelope, all at once.
#[test]
fn theorem_5_two_process_sweep() {
    for k in 1..=6u32 {
        let eps = 2f64.powi(-(k as i32));
        let proto = AgreementProto::new(2, eps);
        for seed in 0..6u64 {
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(2, move |ctx| {
                    let mut h = proto.handle();
                    h.input(ctx, ctx.proc() as f64);
                    h.output(ctx)
                });
            let counts: Vec<u64> = out.counts.iter().map(|c| c.total()).collect();
            let ys = out.unwrap_results();
            assert!(
                outputs_valid(eps, &[0.0, 1.0], &ys),
                "k={k} seed={seed}: {ys:?}"
            );
            // Envelope: per round ≤ 3 snapshot-ish phases of (n²+n) ops.
            let scan_cost = (2 * 2 + 2) as u64;
            let bound = (3 * (k as u64 + 4) + 4) * scan_cost;
            for c in counts {
                assert!(c <= bound, "k={k} seed={seed}: {c} > {bound}");
            }
        }
    }
}

/// Lemma 32 at n = 4 under PCT schedules, with literal and optimized
/// scanners mixed: all returned joins are pairwise comparable.
#[test]
fn lemma_32_mixed_scanners_under_pct() {
    for seed in 0..12u64 {
        let n = 4;
        let obj = ScanObject::new(n);
        let out = SimBuilder::new(obj.registers::<SetUnion<usize>>())
            .owners(obj.owners())
            .strategy(Pct::new(seed, n, 4, 300))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut handle = ScanHandle::new(obj);
                let optimized = p % 2 == 0;
                let mut rets = Vec::new();
                for k in 0..2 {
                    let v = SetUnion::singleton(p * 10 + k);
                    rets.push(if optimized {
                        handle.scan(ctx, v)
                    } else {
                        obj.scan(ctx, v)
                    });
                }
                rets
            });
        let all: Vec<SetUnion<usize>> = out.unwrap_results().into_iter().flatten().collect();
        for a in &all {
            for b in &all {
                assert!(a.comparable(b), "seed {seed}: {a:?} / {b:?}");
            }
        }
    }
}

/// Corollary 27's determinism consequence: once the system is quiescent,
/// every process's next read of the universal counter returns the same
/// value — the canonical linearization is a pure function of the shared
/// graph, not of who computes it.
#[test]
fn universal_quiescent_reads_agree_exactly() {
    for seed in 0..10u64 {
        let n = 3;
        let uni = Universal::new(n, CounterSpec);
        let uni2 = uni.clone();
        // Phase 1 (concurrent): mixed updates. Phase 2 is modelled by
        // reading at the end of each body; since bodies may still
        // interleave, we instead check agreement after the run using
        // fresh reads against the final memory.
        let out = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .strategy(SeededRandom::new(seed))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut h = uni2.handle();
                match p {
                    0 => {
                        h.execute(ctx, CounterOp::Inc(3));
                        h.execute(ctx, CounterOp::Dec(1));
                    }
                    1 => {
                        h.execute(ctx, CounterOp::Reset(100));
                    }
                    _ => {
                        h.execute(ctx, CounterOp::Inc(10));
                    }
                }
            });
        out.assert_no_panics();
        // Quiescence: replay the final shared graph from each process's
        // perspective via unpublished reads on the final memory.
        let mem = apram_model::NativeMemory::new(n, out.memory.clone());
        let mut values = Vec::new();
        for p in 0..n {
            let mut h = uni.handle();
            let mut ctx = mem.ctx(p);
            match h.execute_unpublished(&mut ctx, CounterOp::Read) {
                CounterResp::Value(v) => values.push(v),
                other => panic!("{other:?}"),
            }
        }
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: quiescent reads disagree: {values:?}"
        );
    }
}

/// The one-shot variant's round formula: R = ⌈log₂(Δ/ε)⌉ + 1, clamped
/// to 1 when the range is already below ε; and the output spread indeed
/// shrinks with R.
#[test]
fn oneshot_round_formula_and_convergence() {
    assert_eq!(OneShotAgreement::new(3, 1.0, 0.0, 0.5).rounds(), 1);
    assert_eq!(OneShotAgreement::new(3, 0.5, 0.0, 1.0).rounds(), 2);
    assert_eq!(OneShotAgreement::new(3, 0.125, 0.0, 1.0).rounds(), 4);
    assert_eq!(OneShotAgreement::new(3, 0.1, 0.0, 1.0).rounds(), 5);

    for eps in [0.5, 0.1, 0.01] {
        let inputs = [0.0f64, 0.37, 1.0];
        let n = inputs.len();
        let obj = OneShotAgreement::new(n, eps, 0.0, 1.0);
        let obj_ref = &obj;
        let inputs_ref = &inputs;
        let out = SimBuilder::new(obj.registers())
            .owners(obj.owners())
            .strategy(SeededRandom::new(42))
            .run_symmetric(n, move |ctx| obj_ref.run(ctx, inputs_ref[ctx.proc()]));
        let ys = out.unwrap_results();
        assert!(outputs_valid(eps, &inputs, &ys), "eps={eps}: {ys:?}");
    }
}

/// Register-operation budgets compose: a universal counter execute costs
/// exactly two optimized scans regardless of which spec it hosts —
/// checked here for the grow-set spec (E5 generalizes beyond counters).
#[test]
fn universal_cost_is_spec_independent() {
    use apram_objects::growset::{GrowSetSpec, SetOp};
    for n in [2usize, 4] {
        let uni = Universal::new(n, GrowSetSpec);
        let uni2 = uni.clone();
        let out = SimBuilder::new(uni.registers())
            .owners(uni.owners())
            .strategy(apram_model::sim::strategy::RoundRobin::new())
            .run_symmetric(n, move |ctx| {
                let mut h = uni2.handle();
                h.execute(ctx, SetOp::Add(ctx.proc() as u64));
            });
        out.assert_no_panics();
        for p in 0..n {
            assert_eq!(out.counts[p].reads, 2 * (n * n - 1) as u64, "n={n} P{p}");
            assert_eq!(out.counts[p].writes, 2 * (n as u64 + 1), "n={n} P{p}");
        }
    }
}
