//! A brute-force reference checker.
//!
//! Enumerates *every* permutation of the operations it is asked to
//! order, keeping those that extend the real-time order, and replays each
//! through the spec. Exponentially slower than [`crate::check`], but it
//! shares no code with it, so the two are property-tested against each
//! other on small random histories. It asks nothing of a spec's state
//! beyond `Clone`, so it also checks specs whose states cannot be hashed
//! for [`crate::check`]'s memo (the `f64` sets of approximate agreement).

use crate::event::{History, ProcId};
use crate::ops::Ops;
use crate::spec::{DetSpec, NondetSpec};

/// `true` iff some precedence-respecting permutation of the completed
/// operations of `h` is legal under `spec`. Pending operations are
/// dropped (strict mode, matching
/// [`crate::check::check_linearizable`]).
pub fn brute_force_linearizable<Sp: NondetSpec>(spec: &Sp, h: &History<Sp::Op, Sp::Resp>) -> bool {
    if !h.well_formed() {
        return false;
    }
    let ops = Ops::extract(h);
    let completed = ops.completed();
    some_order(&ops, &completed, &mut Vec::new(), &mut |perm| {
        replay(spec, &ops, perm, &|_, _, _| {
            unreachable!("strict orders hold completed operations only")
        })
    })
}

/// `true` iff, for some subset of the pending operations of `h`, some
/// precedence-respecting permutation of the completed operations and
/// that subset is legal under `spec`, each chosen pending operation
/// taking the response [`DetSpec::apply`] gives it where it stands
/// (completion mode, matching [`crate::check::check_linearizable_det`]).
pub fn brute_force_linearizable_det<Sp: DetSpec>(spec: &Sp, h: &History<Sp::Op, Sp::Resp>) -> bool {
    if !h.well_formed() {
        return false;
    }
    let ops = Ops::extract(h);
    let pending = ops.pending();
    let complete = |state: &mut Sp::State, proc: ProcId, op: &Sp::Op| {
        spec.apply(state, proc, op);
    };
    (0u64..1 << pending.len()).any(|subset| {
        let mut chosen = ops.completed();
        chosen.extend(
            (0..pending.len())
                .filter(|k| subset >> k & 1 == 1)
                .map(|k| pending[k]),
        );
        some_order(&ops, &chosen, &mut Vec::new(), &mut |perm| {
            replay(spec, &ops, perm, &complete)
        })
    })
}

/// `true` iff `legal` accepts some permutation of `chosen` that extends
/// `perm` and respects real-time precedence.
fn some_order<O: Clone, R: Clone>(
    ops: &Ops<O, R>,
    chosen: &[usize],
    perm: &mut Vec<usize>,
    legal: &mut dyn FnMut(&[usize]) -> bool,
) -> bool {
    if perm.len() == chosen.len() {
        return legal(perm);
    }
    for &i in chosen {
        if perm.contains(&i) {
            continue;
        }
        // Precedence filter: every op that must precede i is already in.
        let ok = chosen
            .iter()
            .all(|&j| j == i || !ops.precedes(j, i) || perm.contains(&j));
        if !ok {
            continue;
        }
        perm.push(i);
        if some_order(ops, chosen, perm, legal) {
            return true;
        }
        perm.pop();
    }
    false
}

/// Applies a pending operation at its place in an order.
type Complete<'a, S, O> = &'a dyn Fn(&mut S, ProcId, &O);

/// Replay `perm` from the spec's initial state: a completed operation
/// must be a legal step with its recorded response, and a pending one
/// is applied by `complete`.
fn replay<Sp: NondetSpec>(
    spec: &Sp,
    ops: &Ops<Sp::Op, Sp::Resp>,
    perm: &[usize],
    complete: Complete<'_, Sp::State, Sp::Op>,
) -> bool {
    let mut state = spec.initial();
    for &i in perm {
        let r = &ops.records()[i];
        match &r.resp {
            Some(resp) => match spec.step(&state, r.proc, &r.op, resp) {
                Some(next) => state = next,
                None => return false,
            },
            None => complete(&mut state, r.proc, &r.op),
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{
        check_linearizable, check_linearizable_det, verify_witness, verify_witness_det,
        CheckOutcome, CheckerConfig,
    };
    use crate::spec::{QueueOp, QueueResp, QueueSpec, RegOp, RegResp, RegisterSpec};
    use proptest::prelude::*;

    #[test]
    fn agrees_on_hand_cases() {
        let mut good: History<RegOp, RegResp> = History::new();
        good.invoke(0, RegOp::Write(1));
        good.invoke(1, RegOp::Read);
        good.respond(1, RegResp::Value(1));
        good.respond(0, RegResp::Ack);
        assert!(brute_force_linearizable(&RegisterSpec, &good));

        let mut bad: History<RegOp, RegResp> = History::new();
        bad.invoke(0, RegOp::Write(1));
        bad.respond(0, RegResp::Ack);
        bad.invoke(1, RegOp::Read);
        bad.respond(1, RegResp::Value(0));
        assert!(!brute_force_linearizable(&RegisterSpec, &bad));
    }

    #[test]
    fn completion_mode_linearizes_an_observed_pending_write() {
        // The write never responds, but a read observes it.
        let mut h: History<RegOp, RegResp> = History::new();
        h.invoke(0, RegOp::Write(7));
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(7));
        assert!(!brute_force_linearizable(&RegisterSpec, &h));
        assert!(brute_force_linearizable_det(&RegisterSpec, &h));
        // A read that sees a value no write, pending or not, produces.
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(8));
        assert!(!brute_force_linearizable_det(&RegisterSpec, &h));
    }

    #[test]
    fn queue_fifo_violation_detected_by_both() {
        // enq(1) completes before enq(2) begins, yet deq returns 2 first.
        let mut h: History<QueueOp, QueueResp> = History::new();
        h.invoke(0, QueueOp::Enq(1));
        h.respond(0, QueueResp::Ack);
        h.invoke(0, QueueOp::Enq(2));
        h.respond(0, QueueResp::Ack);
        h.invoke(1, QueueOp::Deq);
        h.respond(1, QueueResp::Head(Some(2)));
        assert!(!brute_force_linearizable(&QueueSpec, &h));
        assert!(!check_linearizable(&QueueSpec, &h, &CheckerConfig::default()).is_ok());
    }

    /// Generate a small random well-formed register history: a sequence of
    /// (proc, op, resp, overlap, finish) drives an interleaving builder.
    /// An op still open at the end responds only when its `finish` flag
    /// says so, so some histories end with pending invocations.
    fn small_history() -> impl Strategy<Value = History<RegOp, RegResp>> {
        let step = (0usize..3, 0u8..2, 0u64..3, any::<bool>(), any::<bool>());
        proptest::collection::vec(step, 0..6).prop_map(|steps| {
            let mut h = History::new();
            let mut open: Vec<(usize, RegResp, bool)> = Vec::new();
            for (proc, kind, val, close_now, finish) in steps {
                if let Some(pos) = open.iter().position(|(p, ..)| *p == proc) {
                    // close this proc's pending op first
                    let (p, resp, _) = open.remove(pos);
                    h.respond(p, resp);
                }
                let (op, resp) = if kind == 0 {
                    (RegOp::Write(val), RegResp::Ack)
                } else {
                    (RegOp::Read, RegResp::Value(val))
                };
                h.invoke(proc, op);
                if close_now {
                    h.respond(proc, resp);
                } else {
                    open.push((proc, resp, finish));
                }
            }
            for (p, resp, finish) in open {
                if finish {
                    h.respond(p, resp);
                }
            }
            h
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Both checks, strict and completing, against their brute-force
        /// references; and every witness either returns verifies in its
        /// own mode.
        #[test]
        fn checker_agrees_with_brute_force(h in small_history()) {
            prop_assume!(h.well_formed());
            let cfg = CheckerConfig::default();
            let fast = check_linearizable(&RegisterSpec, &h, &cfg);
            let slow = brute_force_linearizable(&RegisterSpec, &h);
            prop_assert_eq!(fast.is_ok(), slow, "strict, history: {:?}", h);
            if let CheckOutcome::Linearizable(w) = &fast {
                prop_assert!(verify_witness(&RegisterSpec, &h, w), "strict {:?}, history: {:?}", w, h);
            }
            let fast = check_linearizable_det(&RegisterSpec, &h, &cfg);
            let slow = brute_force_linearizable_det(&RegisterSpec, &h);
            prop_assert_eq!(fast.is_ok(), slow, "completing, history: {:?}", h);
            if let CheckOutcome::Linearizable(w) = &fast {
                prop_assert!(verify_witness_det(&RegisterSpec, &h, w), "completing {:?}, history: {:?}", w, h);
            }
        }
    }
}
