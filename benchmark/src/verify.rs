//! Output checks for the object workloads (served and native).
//!
//! Each generator thread owns a [`Verifier`] that sees every op it
//! issued and what came back. The checks are the ones a concurrent
//! client can make without knowing the interleaving: reads of monotone
//! objects never go backwards and never miss the caller's own writes,
//! and every value read was written by whoever its tag names. The
//! [`check_final`] pass then reads each object once, quiescent, and
//! compares against the totals the verifiers kept.

use crate::stream::{tag_owner, value_key, Kind, Op};
use apram_objects::spec::OpOutput;
use apram_serve::OPC_UPDATE;

/// One thread's running view of what it wrote and last read.
pub struct Verifier {
    kinds: Vec<Kind>,
    /// This thread's process id / slot in snapshot views.
    me: usize,
    /// Number of processes sharing the objects.
    procs: usize,
    pub incs: u64,
    last_count: u64,
    pub max_written: Option<u64>,
    last_max: Option<u64>,
    own_put: Vec<bool>,
    last_segment: Option<u64>,
    pub last_tick: u64,
}

impl Verifier {
    pub fn new(kinds: Vec<Kind>, me: usize, procs: usize, keys: usize) -> Verifier {
        Verifier {
            kinds,
            me,
            procs,
            incs: 0,
            last_count: 0,
            max_written: None,
            last_max: None,
            own_put: vec![false; keys],
            last_segment: None,
            last_tick: 0,
        }
    }

    /// Record `op` and judge its output. `false` = a wrong response.
    #[inline]
    pub fn observe(&mut self, op: Op, out: &OpOutput) -> bool {
        let update = op.opcode == OPC_UPDATE;
        match (self.kinds[op.object as usize], update, out) {
            (Kind::Counter, true, OpOutput::Val(_)) => {
                self.incs += 1;
                true
            }
            (Kind::Counter, false, OpOutput::Val(v)) => {
                let ok = *v >= self.incs && *v >= self.last_count;
                self.last_count = *v;
                ok
            }
            (Kind::MaxReg, true, OpOutput::Val(_)) => {
                self.max_written = self.max_written.max(Some(op.a as u64));
                true
            }
            (Kind::MaxReg, false, OpOutput::Opt(v)) => {
                let ok = *v >= self.max_written && *v >= self.last_max;
                self.last_max = *v;
                ok
            }
            (Kind::Map, true, OpOutput::Val(_)) => {
                self.own_put[op.a as usize] = true;
                true
            }
            (Kind::Map, false, OpOutput::Opt(v)) => match v {
                Some(v) => value_key(*v) == op.a as u64,
                None => !self.own_put[op.a as usize],
            },
            (Kind::Afek, true, OpOutput::Val(_)) => {
                self.last_segment = Some(op.a as u64);
                true
            }
            (Kind::Afek, false, OpOutput::View(view)) => {
                view.len() == self.procs
                    && view[self.me] == self.last_segment
                    && view
                        .iter()
                        .enumerate()
                        .all(|(i, slot)| slot.is_none_or(|v| tag_owner(v) == Some(i)))
            }
            (Kind::Clock, true, OpOutput::Val(t)) => {
                let ok = *t > self.last_tick;
                self.last_tick = *t;
                ok
            }
            (Kind::Clock, false, OpOutput::Val(t)) => {
                let ok = *t >= self.last_tick;
                self.last_tick = *t;
                ok
            }
            (Kind::MwReg, true, OpOutput::Val(_)) => true,
            (Kind::MwReg, false, OpOutput::Val(v)) => {
                *v == 0 || tag_owner(*v).is_some_and(|o| o < self.procs)
            }
            // Wrong response shape for the op.
            _ => false,
        }
    }
}

/// What the quiescent reads after the run returned, per object family
/// present in the workload.
#[derive(Default)]
pub struct FinalReads {
    pub counter: Option<u64>,
    pub maxreg: Option<Option<u64>>,
    pub clock: Option<u64>,
}

/// Compare the final reads against the verifiers' totals; returns one
/// line per discrepancy (empty = correct).
pub fn check_final(verifiers: &[&Verifier], reads: &FinalReads) -> Vec<String> {
    let mut bad = Vec::new();
    let incs: u64 = verifiers.iter().map(|v| v.incs).sum();
    if let Some(c) = reads.counter {
        if c != incs {
            bad.push(format!("counter reads {c} after {incs} acknowledged incs"));
        }
    }
    let max_written = verifiers.iter().filter_map(|v| v.max_written).max();
    if let Some(m) = reads.maxreg {
        if m != max_written {
            bad.push(format!("maxreg reads {m:?}, max written {max_written:?}"));
        }
    }
    let max_tick = verifiers.iter().map(|v| v.last_tick).max().unwrap_or(0);
    if let Some(t) = reads.clock {
        if t != max_tick {
            bad.push(format!("clock reads {t}, largest stamp seen {max_tick}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{keyed, tagged};
    use apram_serve::OPC_READ;

    const KINDS: [Kind; 6] = [
        Kind::Counter,
        Kind::MaxReg,
        Kind::Map,
        Kind::Afek,
        Kind::Clock,
        Kind::MwReg,
    ];

    fn op(opcode: u8, object: u8, a: u32, b: u32) -> Op {
        Op {
            opcode,
            object,
            a,
            b,
        }
    }

    fn verifier() -> Verifier {
        Verifier::new(KINDS.to_vec(), 1, 2, 8)
    }

    #[test]
    fn honest_outputs_pass() {
        let mut v = verifier();
        assert!(v.observe(op(OPC_UPDATE, 0, 0, 0), &OpOutput::Val(0)));
        assert!(v.observe(op(OPC_READ, 0, 0, 0), &OpOutput::Val(3)));
        assert!(v.observe(op(OPC_READ, 1, 0, 0), &OpOutput::Opt(None)));
        assert!(v.observe(op(OPC_UPDATE, 1, 40, 0), &OpOutput::Val(0)));
        assert!(v.observe(op(OPC_READ, 1, 0, 0), &OpOutput::Opt(Some(41))));
        assert!(v.observe(op(OPC_READ, 2, 5, 0), &OpOutput::Opt(None)));
        assert!(v.observe(op(OPC_UPDATE, 2, 5, keyed(5, 9)), &OpOutput::Val(0)));
        assert!(v.observe(
            op(OPC_READ, 2, 5, 0),
            &OpOutput::Opt(Some(keyed(5, 77) as u64))
        ));
        let mine = tagged(1, 3);
        assert!(v.observe(op(OPC_UPDATE, 3, mine, 0), &OpOutput::Val(0)));
        assert!(v.observe(
            op(OPC_READ, 3, 0, 0),
            &OpOutput::View(vec![Some(tagged(0, 8) as u64), Some(mine as u64)])
        ));
        assert!(v.observe(op(OPC_UPDATE, 4, 0, 0), &OpOutput::Val(7)));
        assert!(v.observe(op(OPC_READ, 4, 0, 0), &OpOutput::Val(7)));
        assert!(v.observe(op(OPC_READ, 5, 0, 0), &OpOutput::Val(0)));
        assert!(v.observe(op(OPC_READ, 5, 0, 0), &OpOutput::Val(tagged(0, 1) as u64)));
    }

    #[test]
    fn a_get_of_a_never_written_value_fails() {
        let mut v = verifier();
        // Key 5 answered with a value bound to key 6: nobody wrote that.
        assert!(!v.observe(
            op(OPC_READ, 2, 5, 0),
            &OpOutput::Opt(Some(keyed(6, 1) as u64))
        ));
        // A miss after this thread's own completed put is a lost write.
        assert!(v.observe(op(OPC_UPDATE, 2, 3, keyed(3, 1)), &OpOutput::Val(0)));
        assert!(!v.observe(op(OPC_READ, 2, 3, 0), &OpOutput::Opt(None)));
    }

    #[test]
    fn reads_that_go_backwards_or_miss_own_writes_fail() {
        let mut v = verifier();
        v.observe(op(OPC_UPDATE, 0, 0, 0), &OpOutput::Val(0));
        v.observe(op(OPC_UPDATE, 0, 0, 0), &OpOutput::Val(0));
        assert!(!v.observe(op(OPC_READ, 0, 0, 0), &OpOutput::Val(1)));
        v.observe(op(OPC_UPDATE, 1, 90, 0), &OpOutput::Val(0));
        assert!(!v.observe(op(OPC_READ, 1, 0, 0), &OpOutput::Opt(Some(89))));
        // A snapshot slot holding a value tagged with another owner.
        assert!(!v.observe(
            op(OPC_READ, 3, 0, 0),
            &OpOutput::View(vec![Some(tagged(1, 1) as u64), None])
        ));
        // A tick that does not exceed the last time seen.
        v.observe(op(OPC_READ, 4, 0, 0), &OpOutput::Val(9));
        assert!(!v.observe(op(OPC_UPDATE, 4, 0, 0), &OpOutput::Val(9)));
        // A response of the wrong shape.
        assert!(!v.observe(op(OPC_READ, 0, 0, 0), &OpOutput::Opt(None)));
    }

    #[test]
    fn a_lost_increment_fails_the_final_check() {
        let mut a = verifier();
        let mut b = verifier();
        for _ in 0..3 {
            a.observe(op(OPC_UPDATE, 0, 0, 0), &OpOutput::Val(0));
            b.observe(op(OPC_UPDATE, 0, 0, 0), &OpOutput::Val(0));
        }
        a.observe(op(OPC_UPDATE, 1, 12, 0), &OpOutput::Val(0));
        b.observe(op(OPC_UPDATE, 4, 0, 0), &OpOutput::Val(5));
        let honest = FinalReads {
            counter: Some(6),
            maxreg: Some(Some(12)),
            clock: Some(5),
        };
        assert!(check_final(&[&a, &b], &honest).is_empty());
        let lost = FinalReads {
            counter: Some(5),
            ..honest
        };
        assert_eq!(check_final(&[&a, &b], &lost).len(), 1);
        let stale = FinalReads {
            counter: Some(6),
            maxreg: Some(None),
            clock: Some(4),
        };
        assert_eq!(check_final(&[&a, &b], &stale).len(), 2);
    }
}
