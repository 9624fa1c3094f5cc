//! The impossibility side of the paper's §1: "any object X that solves
//! consensus for two or more processes cannot be implemented without
//! randomization in a model that provides only simple reads and writes".
//!
//! Impossibility cannot be *tested* in general — but its footprint can:
//! every natural attempt at deterministic register-based binary
//! consensus must give up either agreement, validity, or wait-free
//! termination, and the exhaustive schedule explorer finds the failing
//! schedule mechanically. Three classic attempts are falsified below;
//! each failure is exactly the bivalence phenomenon the FLP-style
//! argument formalizes.

use apram_model::sim::explore::ExploreConfig;
use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
use apram_model::MemCtx;

/// Attempt 1 — "write mine, read theirs, defer to the smaller id":
/// P writes its preference, reads the other's register, and returns the
/// other's value if visible (tie-break toward P0's value). Plausible —
/// and wrong: some interleaving makes the two processes return
/// different values.
#[test]
fn attempt_defer_to_peer_violates_agreement() {
    // Register p holds Option<bool>: process p's published preference.
    let prefs = [false, true];
    let make = move || {
        (0..2usize)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<Option<bool>>| {
                    let my = prefs[p];
                    ctx.write(p, Some(my));
                    match ctx.read(1 - p) {
                        // Deterministic rule: adopt P0's published value
                        // when both are visible.
                        Some(other) => {
                            if p == 0 {
                                my
                            } else {
                                other
                            }
                        }
                        None => my, // ran alone: must decide own input
                    }
                }) as ProcBody<'static, Option<bool>, bool>
            })
            .collect::<Vec<_>>()
    };
    let mut disagreement = false;
    SimBuilder::new(vec![None; 2]).owners(vec![0, 1]).explore(
        &ExploreConfig::default(),
        make,
        |out| {
            let (a, b) = (out.results[0].unwrap(), out.results[1].unwrap());
            if a != b {
                disagreement = true;
                return false;
            }
            true
        },
    );
    assert!(
        disagreement,
        "the explorer must find a disagreeing schedule"
    );
}

/// Attempt 2 — symmetric deference ("adopt whatever I see"): both adopt
/// the peer's value when visible. The schedule where both see each
/// other makes them *swap* preferences — disagreement again.
#[test]
fn attempt_mutual_deference_violates_agreement() {
    let prefs = [false, true];
    let make = move || {
        (0..2usize)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<Option<bool>>| {
                    let my = prefs[p];
                    ctx.write(p, Some(my));
                    match ctx.read(1 - p) {
                        Some(other) => other, // defer to the peer
                        None => my,
                    }
                }) as ProcBody<'static, Option<bool>, bool>
            })
            .collect::<Vec<_>>()
    };
    let mut disagreement = false;
    SimBuilder::new(vec![None; 2]).owners(vec![0, 1]).explore(
        &ExploreConfig::default(),
        make,
        |out| {
            let (a, b) = (out.results[0].unwrap(), out.results[1].unwrap());
            if a != b {
                disagreement = true;
                return false;
            }
            true
        },
    );
    assert!(disagreement, "the swap schedule must disagree");
}

/// Attempt 3 — "wait until I see the other": achieves agreement-or-
/// deadlock by spinning, i.e. it gives up wait-freedom instead. Under a
/// crash (the other process never writes), the waiter exceeds any step
/// bound — exactly the trade the paper's introduction rules out
/// ("the failure or delay of a single process ... will prevent the
/// non-faulty processes from making progress").
#[test]
fn attempt_waiting_gives_up_wait_freedom() {
    let bodies: Vec<ProcBody<'static, Option<bool>, bool>> = vec![
        Box::new(move |ctx: &mut SimCtx<Option<bool>>| {
            ctx.write(0, Some(false));
            loop {
                // Spin until the peer's preference appears, then take
                // the pair's minimum — a correct *blocking* consensus.
                if let Some(other) = ctx.read(1) {
                    return false & other;
                }
            }
        }),
        Box::new(move |ctx: &mut SimCtx<Option<bool>>| {
            ctx.write(1, Some(true));
            loop {
                if let Some(other) = ctx.read(0) {
                    return other;
                }
            }
        }),
    ];
    // Crash P1 before its write: P0 spins forever; the step budget is
    // the only thing that stops the run.
    let out = SimBuilder::new(vec![None; 2])
        .owners(vec![0, 1])
        .max_steps(500)
        .crashes([(1, 0)])
        .run(bodies);
    out.assert_no_panics();
    assert!(
        out.halted,
        "the waiter must still be spinning at the budget"
    );
    assert_eq!(out.results[0], None, "P0 never decides");
    assert!(out.counts[0].total() >= 490, "P0 burned the whole budget");
}

/// Contrast: the *sticky register* (write-once) would solve consensus in
/// two steps — which is exactly why `apram_core::verify` rejects it from
/// the constructible class (see `apram_objects::sticky`). Simulated here
/// directly on its sequential spec to close the loop.
#[test]
fn sticky_register_would_solve_consensus() {
    use apram_history::{DetSpec, ProcId};
    use apram_objects::sticky::{StickyOp, StickyResp, StickySpec};
    // A sequential sanity: first write wins, so "write mine, read the
    // winner" decides consistently regardless of order.
    let spec = StickySpec;
    for order in [[0usize, 1], [1, 0]] {
        let mut state = <StickySpec as DetSpec>::initial(&spec);
        let mut decisions = Vec::new();
        for &p in &order {
            spec.apply(&mut state, p as ProcId, &StickyOp::Write(p as u64));
        }
        for &p in &order {
            match spec.apply(&mut state, p as ProcId, &StickyOp::Read) {
                StickyResp::Value(Some(v)) => decisions.push(v),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(decisions[0], decisions[1], "sticky register agrees");
        assert_eq!(decisions[0], order[0] as u64, "first writer wins");
    }
}
