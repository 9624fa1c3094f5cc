//! The universal construction's absorbed prefix, observed from outside
//! on every algebra the crate hosts: a handle that keeps what it has
//! replayed must answer exactly as one made to forget it before every
//! operation (`clear_replay_memo`), which linearizes its whole view
//! from the empty graph each time — Figure 4 read literally. (`core`
//! compares the counter against an independent from-scratch oracle;
//! here the reference shares the linearization code and none of the
//! absorption.)
//!
//! Both runs make the same register accesses, so under one seeded
//! schedule and crash plan they take the same interleaving, and every
//! response and every `last_history_len()` must coincide.

use apram_core::universal::UniversalReg;
use apram_core::{AlgebraicSpec, CounterOp, CounterSpec, Universal};
use apram_history::DetSpec;
use apram_model::sim::strategy::{Pct, SeededRandom, Strategy as Schedule};
use apram_model::sim::{SimBuilder, SimCtx};
use apram_model::MemCtx;
use apram_objects::growset::{GrowSetSpec, SetOp};
use apram_objects::lwwmap::{LwwMapSpec, MapOp};
use apram_objects::maxreg::{MaxRegOp, MaxRegSpec};
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Mutex;

/// How a run is scheduled: the seed, PCT or uniformly random, and the
/// `(process, global step)` crash plan.
#[derive(Clone, Debug)]
struct Plan {
    seed: u64,
    pct: bool,
    crashes: Vec<(usize, u64)>,
}

fn plan() -> impl Strategy<Value = Plan> {
    let crashes = proptest::collection::vec((0usize..4, 0u64..150), 0..3);
    (0u64..1 << 32, any::<bool>(), crashes).prop_map(|(seed, pct, crashes)| Plan {
        seed,
        pct,
        crashes,
    })
}

/// One script per process, 2 ≤ n ≤ 4; a step is an invocation and
/// whether to publish it (`execute`) or not (`execute_unpublished`).
fn scripts<Op: Debug>(
    op: impl Strategy<Value = (Op, bool)>,
) -> impl Strategy<Value = Vec<Vec<(Op, bool)>>> {
    proptest::collection::vec(proptest::collection::vec(op, 2..10), 2..=4)
}

/// What one process observed, operation by operation, up to its crash:
/// each response and `last_history_len()`.
type Observed<S> = Vec<(<S as DetSpec>::Resp, usize)>;

fn observe<S>(
    spec: S,
    scripts: &[Vec<(S::Op, bool)>],
    plan: &Plan,
    forgetful: bool,
) -> Vec<Observed<S>>
where
    S: AlgebraicSpec + Clone + Sync,
    S::State: Debug,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    let n = scripts.len();
    let uni = Universal::new(n, spec);
    let schedule: Box<dyn Schedule + Send> = if plan.pct {
        Box::new(Pct::new(plan.seed, n, 3, 400))
    } else {
        Box::new(SeededRandom::new(plan.seed))
    };
    let seen: Vec<Mutex<Observed<S>>> = (0..n).map(|_| Mutex::default()).collect();
    let out = SimBuilder::new(uni.registers())
        .owners(uni.owners())
        .strategy(schedule)
        .crashes(plan.crashes.iter().copied().filter(|&(p, _)| p < n))
        .run_symmetric(n, |ctx: &mut SimCtx<UniversalReg<S>>| {
            let mut h = uni.handle();
            for (op, publish) in &scripts[ctx.proc()] {
                if forgetful {
                    h.clear_replay_memo();
                }
                let resp = if *publish {
                    h.execute(ctx, op.clone())
                } else {
                    h.execute_unpublished(ctx, op.clone())
                };
                let observed = (resp, h.last_history_len());
                seen[ctx.proc()].lock().unwrap().push(observed);
            }
        });
    out.assert_no_panics();
    seen.into_iter().map(|m| m.into_inner().unwrap()).collect()
}

fn counter_step() -> impl Strategy<Value = (CounterOp, bool)> {
    prop_oneof![
        (1i64..5).prop_map(|k| (CounterOp::Inc(k), true)),
        (1i64..5).prop_map(|k| (CounterOp::Dec(k), true)),
        (0i64..5).prop_map(|k| (CounterOp::Reset(k), true)),
        any::<bool>().prop_map(|publish| (CounterOp::Read, publish)),
    ]
}

fn map_step() -> impl Strategy<Value = (MapOp, bool)> {
    prop_oneof![
        (0u32..3, 0u64..9).prop_map(|(k, v)| (MapOp::Put(k, v), true)),
        (0u32..3).prop_map(|k| (MapOp::Remove(k), true)),
        (0u32..3, any::<bool>()).prop_map(|(k, publish)| (MapOp::Get(k), publish)),
        any::<bool>().prop_map(|publish| (MapOp::Keys, publish)),
    ]
}

fn set_step() -> impl Strategy<Value = (SetOp, bool)> {
    prop_oneof![
        (0u64..4).prop_map(|v| (SetOp::Add(v), true)),
        Just((SetOp::Clear, true)),
        (0u64..4, any::<bool>()).prop_map(|(v, publish)| (SetOp::Contains(v), publish)),
        any::<bool>().prop_map(|publish| (SetOp::Elements, publish)),
    ]
}

fn maxreg_step() -> impl Strategy<Value = (MaxRegOp, bool)> {
    prop_oneof![
        (0i64..6).prop_map(|v| (MaxRegOp::WriteMax(v), true)),
        any::<bool>().prop_map(|publish| (MaxRegOp::Read, publish)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counter_answers_as_from_scratch(scripts in scripts(counter_step()), plan in plan()) {
        prop_assert_eq!(
            observe(CounterSpec, &scripts, &plan, false),
            observe(CounterSpec, &scripts, &plan, true)
        );
    }

    #[test]
    fn lwwmap_answers_as_from_scratch(scripts in scripts(map_step()), plan in plan()) {
        prop_assert_eq!(
            observe(LwwMapSpec, &scripts, &plan, false),
            observe(LwwMapSpec, &scripts, &plan, true)
        );
    }

    #[test]
    fn growset_answers_as_from_scratch(scripts in scripts(set_step()), plan in plan()) {
        prop_assert_eq!(
            observe(GrowSetSpec, &scripts, &plan, false),
            observe(GrowSetSpec, &scripts, &plan, true)
        );
    }

    #[test]
    fn maxreg_answers_as_from_scratch(scripts in scripts(maxreg_step()), plan in plan()) {
        prop_assert_eq!(
            observe(MaxRegSpec, &scripts, &plan, false),
            observe(MaxRegSpec, &scripts, &plan, true)
        );
    }
}
