//! The Figure 1 sequential specification of approximate agreement.
//!
//! ```text
//! Object State: X, Y sets of reals, initially ∅.
//! input(P, x)     pre: true        post: X' = X ∪ {x}
//! y := output(P)  pre: X ≠ ∅       post: Y' = Y ∪ {y} ∧
//!                                        range(Y) ⊆ range(X) ∧
//!                                        |range(Y)| < ε
//! ```
//!
//! The `output` response is *constrained, not determined* — any `y`
//! keeping `Y` inside the input range and of diameter `< ε` is legal —
//! so the spec is expressed as an [`apram_history::NondetSpec`] relation.
//! Its real-valued states are not hashable, so histories are checked
//! against it with the brute-force reference,
//! [`apram_history::brute::brute_force_linearizable`], not the memoizing
//! checker.

use apram_history::{NondetSpec, ProcId};

/// `max(S) − min(S)`, with `|∅| = 0` (the paper's convention).
pub fn range_width(s: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in s {
        min = min.min(x);
        max = max.max(x);
    }
    if s.is_empty() {
        0.0
    } else {
        max - min
    }
}

/// `midpoint(S) = (min(S) + max(S)) / 2`; panics on the empty set.
pub fn midpoint(s: &[f64]) -> f64 {
    assert!(!s.is_empty(), "midpoint of the empty set");
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in s {
        min = min.min(x);
        max = max.max(x);
    }
    (min + max) / 2.0
}

/// Operations of the approximate agreement object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AaOp {
    /// `input(P, x)`.
    Input(f64),
    /// `output(P)`.
    Output,
}

/// Responses of the approximate agreement object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AaResp {
    /// Acknowledgement of an input.
    Ack,
    /// The agreed value.
    Value(f64),
}

/// Abstract state: the input and output sets (multisets, order
/// irrelevant; kept as vectors for simplicity).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AaState {
    /// All values input so far.
    pub xs: Vec<f64>,
    /// All values output so far.
    pub ys: Vec<f64>,
}

/// The approximate agreement specification for a given `ε`. Its states
/// hold `f64`s and are not hashable: check a history against it with
/// the brute-force reference (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct ApproxSpec {
    /// The agreement parameter; outputs must span `< ε`.
    pub eps: f64,
}

impl NondetSpec for ApproxSpec {
    type State = AaState;
    type Op = AaOp;
    type Resp = AaResp;

    fn initial(&self) -> AaState {
        AaState::default()
    }

    fn step(&self, state: &AaState, _proc: ProcId, op: &AaOp, resp: &AaResp) -> Option<AaState> {
        match (op, resp) {
            (AaOp::Input(x), AaResp::Ack) => {
                let mut next = state.clone();
                next.xs.push(*x);
                Some(next)
            }
            (AaOp::Output, AaResp::Value(y)) => {
                if state.xs.is_empty() {
                    return None; // pre: X ≠ ∅
                }
                let lo = state.xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = state.xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if *y < lo || *y > hi {
                    return None; // range(Y) ⊆ range(X)
                }
                let mut ys = state.ys.clone();
                ys.push(*y);
                if range_width(&ys) >= self.eps {
                    return None; // |range(Y)| < ε
                }
                let mut next = state.clone();
                next.ys = ys;
                Some(next)
            }
            _ => None, // mismatched op/resp shapes
        }
    }
}

/// Direct validity check on a completed run, used by tests that do not
/// need full linearizability: every output lies in the input range and
/// all outputs span `< ε`.
pub fn outputs_valid(eps: f64, inputs: &[f64], outputs: &[f64]) -> bool {
    outputs_in_range(inputs, outputs) && range_width(outputs) < eps
}

/// The validity half alone (Lemma 1's guarantee): every output lies in
/// the input range. Figure 2 satisfies this for every `n`, even in the
/// `n ≥ 3` executions where its ε-agreement fails (experiment E8).
pub fn outputs_in_range(inputs: &[f64], outputs: &[f64]) -> bool {
    if outputs.is_empty() {
        return true;
    }
    if inputs.is_empty() {
        return false;
    }
    let lo = inputs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = inputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    outputs.iter().all(|&y| y >= lo && y <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_history::brute::brute_force_linearizable;
    use apram_history::History;

    #[test]
    fn range_and_midpoint() {
        assert_eq!(range_width(&[]), 0.0);
        assert_eq!(range_width(&[3.0]), 0.0);
        assert_eq!(range_width(&[1.0, 4.0, 2.0]), 3.0);
        assert_eq!(midpoint(&[1.0, 4.0, 2.0]), 2.5);
        assert_eq!(midpoint(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn midpoint_rejects_empty() {
        let _ = midpoint(&[]);
    }

    #[test]
    fn spec_accepts_valid_outputs() {
        let spec = ApproxSpec { eps: 0.5 };
        let s0 = spec.initial();
        let s1 = spec.step(&s0, 0, &AaOp::Input(0.0), &AaResp::Ack).unwrap();
        let s2 = spec.step(&s1, 1, &AaOp::Input(1.0), &AaResp::Ack).unwrap();
        let s3 = spec
            .step(&s2, 0, &AaOp::Output, &AaResp::Value(0.4))
            .unwrap();
        assert!(spec
            .step(&s3, 1, &AaOp::Output, &AaResp::Value(0.6))
            .is_some());
        // 0.9 is within the input range but too far from 0.4:
        assert!(spec
            .step(&s3, 1, &AaOp::Output, &AaResp::Value(0.9))
            .is_none());
    }

    #[test]
    fn spec_rejects_out_of_range_and_empty_x() {
        let spec = ApproxSpec { eps: 0.5 };
        let s0 = spec.initial();
        assert!(spec
            .step(&s0, 0, &AaOp::Output, &AaResp::Value(0.0))
            .is_none());
        let s1 = spec.step(&s0, 0, &AaOp::Input(0.0), &AaResp::Ack).unwrap();
        assert!(spec
            .step(&s1, 0, &AaOp::Output, &AaResp::Value(-0.1))
            .is_none());
        assert!(spec
            .step(&s1, 0, &AaOp::Output, &AaResp::Value(0.0))
            .is_some());
        // Mismatched shapes:
        assert!(spec.step(&s1, 0, &AaOp::Output, &AaResp::Ack).is_none());
        assert!(spec
            .step(&s1, 0, &AaOp::Input(1.0), &AaResp::Value(1.0))
            .is_none());
    }

    #[test]
    fn checker_integration() {
        let spec = ApproxSpec { eps: 1.0 };
        let mut h: History<AaOp, AaResp> = History::new();
        h.invoke(0, AaOp::Input(0.0));
        h.respond(0, AaResp::Ack);
        h.invoke(1, AaOp::Input(10.0));
        h.respond(1, AaResp::Ack);
        h.invoke(0, AaOp::Output);
        h.respond(0, AaResp::Value(5.0));
        h.invoke(1, AaOp::Output);
        h.respond(1, AaResp::Value(5.5));
        assert!(brute_force_linearizable(&spec, &h));
        // Outputs ε apart in *sequential* order are rejected:
        let mut bad = h.clone();
        bad.invoke(0, AaOp::Output);
        bad.respond(0, AaResp::Value(7.0));
        assert!(!brute_force_linearizable(&spec, &bad));
    }

    #[test]
    fn outputs_valid_checks() {
        assert!(outputs_valid(0.5, &[0.0, 1.0], &[0.5, 0.6]));
        assert!(!outputs_valid(0.5, &[0.0, 1.0], &[0.2, 0.8]));
        assert!(!outputs_valid(0.5, &[0.0, 1.0], &[1.5]));
        assert!(outputs_valid(0.5, &[], &[]));
        assert!(!outputs_valid(0.5, &[], &[0.1]));
        assert!(outputs_valid(0.5, &[1.0], &[]));
    }
}
