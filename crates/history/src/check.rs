//! A Wing–Gong style linearizability checker.
//!
//! The checker searches for a legal sequential history `S` that (a) agrees
//! with `complete(H')` per process and (b) extends the real-time order
//! `≺_H` (Section 3.2). It explores linearization orders depth-first,
//! always choosing among *minimal* operations — those whose invocation
//! precedes every response still outstanding — which is exactly the
//! constraint `≺_H ⊆ ≺_S`.
//!
//! Pending invocations are handled per the definition: the deterministic
//! checker ([`check_linearizable_det`]) always lets each one be dropped
//! or completed with its unique enabled response and linearized. The
//! nondeterministic entry points are *strict*: pending operations are
//! dropped, which is sound whenever their effects were not observed by
//! any completed operation.
//!
//! Failed `(remaining-set, state)` configurations are always memoized, so
//! every entry point asks for a spec state that is `Hash + Eq`. A spec
//! whose state is not (the `f64` sets of the approximate agreement spec)
//! is checked with the brute-force reference, [`crate::brute`].

use crate::event::{History, ProcId};
use crate::explain::{BlockReason, BlockedOp, FailureExplanation};
use crate::ops::{OpRecord, Ops};
use crate::spec::{DetSpec, NondetSpec};
use apram_model::SpanRecorder;
use std::collections::HashSet;
use std::hash::Hash;

/// Maximum number of operations the bitmask-based search supports.
pub const MAX_OPS: usize = 128;

/// Checker tuning knobs.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Abort after exploring this many search nodes.
    pub node_budget: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            node_budget: 20_000_000,
        }
    }
}

/// Why a history failed the check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The event sequence itself is not well-formed.
    Malformed,
    /// Exhaustive search found no legal linearization.
    NotLinearizable {
        /// Number of search nodes explored before concluding.
        explored: u64,
        /// Structured account of the failure: the longest linearizable
        /// prefix, why each remaining operation is blocked, and the
        /// reduced real-time precedence edges.
        explanation: Box<FailureExplanation>,
    },
    /// The history has more than [`MAX_OPS`] operations.
    TooLarge {
        /// How many operations the refused history has.
        ops: usize,
    },
}

/// Result of a linearizability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// A witness linearization: indices into [`Ops::records`], in
    /// linearized order. Dropped pending operations do not appear.
    Linearizable(Vec<usize>),
    /// The history is not linearizable (or malformed / too large).
    Violation(Violation),
    /// The node budget was exhausted before the search concluded.
    BudgetExhausted,
}

impl CheckOutcome {
    /// `true` for the `Linearizable` case.
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckOutcome::Linearizable(_))
    }
}

/// The mask with a bit set for each of `n <= MAX_OPS` operations.
fn all_ops(n: usize) -> u128 {
    if n == MAX_OPS {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// Completion function for pending operations (deterministic specs):
/// applies the op of a process to the state.
type Completer<'a, S, O> = &'a dyn Fn(&mut S, ProcId, &O);

struct Search<'a, Sp: NondetSpec> {
    spec: &'a Sp,
    records: &'a [OpRecord<Sp::Op, Sp::Resp>],
    cfg: &'a CheckerConfig,
    /// `(remaining, state)` configurations already searched in vain.
    memo: HashSet<(u128, Sp::State)>,
    explored: u64,
    memo_hits: u64,
    backtracks: u64,
    witness: Vec<usize>,
    /// Longest witness prefix reached at any point in the search; on
    /// failure this is the frontier of the explanation.
    best_prefix: Vec<usize>,
    /// Completion function for pending ops (deterministic specs only).
    completer: Option<Completer<'a, Sp::State, Sp::Op>>,
}

enum SearchResult {
    Found,
    Exhausted,
    OverBudget,
}

impl<'a, Sp: NondetSpec> Search<'a, Sp>
where
    Sp::State: Hash + Eq,
{
    /// `remaining` has bit `i` set when op `i` is not yet linearized.
    fn dfs(&mut self, remaining: u128, state: &Sp::State) -> SearchResult {
        self.explored += 1;
        if self.explored > self.cfg.node_budget {
            return SearchResult::OverBudget;
        }
        // Done when every *completed* op has been linearized; remaining
        // pending ops are dropped (extending H with their responses is
        // optional).
        let mut any_completed_left = false;
        let mut min_respond = usize::MAX;
        for i in 0..self.records.len() {
            if remaining & (1u128 << i) != 0 {
                let r = &self.records[i];
                if !r.is_pending() {
                    any_completed_left = true;
                    min_respond = min_respond.min(r.respond_at);
                }
            }
        }
        if !any_completed_left {
            return SearchResult::Found;
        }
        if self.memo.contains(&(remaining, state.clone())) {
            self.memo_hits += 1;
            return SearchResult::Exhausted;
        }
        for i in 0..self.records.len() {
            if remaining & (1u128 << i) == 0 {
                continue;
            }
            let r = &self.records[i];
            // Minimality: no still-remaining op responded before `i`'s
            // invocation; otherwise that op must be linearized first.
            if r.invoke_at > min_respond {
                continue;
            }
            let next_remaining = remaining & !(1u128 << i);
            if let Some(resp) = &r.resp {
                if let Some(next) = self.spec.step(state, r.proc, &r.op, resp) {
                    self.push_witness(i);
                    match self.dfs(next_remaining, &next) {
                        SearchResult::Found => return SearchResult::Found,
                        SearchResult::OverBudget => return SearchResult::OverBudget,
                        SearchResult::Exhausted => {
                            self.witness.pop();
                            self.backtracks += 1;
                        }
                    }
                }
            } else if let Some(complete) = self.completer {
                // Try linearizing the pending op with its spec-computed
                // effect (the unique enabled response of a det spec).
                let mut next = state.clone();
                complete(&mut next, r.proc, &r.op);
                self.push_witness(i);
                match self.dfs(next_remaining, &next) {
                    SearchResult::Found => return SearchResult::Found,
                    SearchResult::OverBudget => return SearchResult::OverBudget,
                    SearchResult::Exhausted => {
                        self.witness.pop();
                        self.backtracks += 1;
                    }
                }
                // Also covered: *not* linearizing it, because the done
                // condition ignores pending ops.
            }
        }
        self.memo.insert((remaining, state.clone()));
        SearchResult::Exhausted
    }

    fn push_witness(&mut self, i: usize) {
        self.witness.push(i);
        if self.witness.len() > self.best_prefix.len() {
            self.best_prefix.clone_from(&self.witness);
        }
    }

    /// Build the failure explanation after an exhausted search: replay
    /// the longest legal prefix found, then classify every remaining
    /// operation by what blocks it at that frontier.
    fn explain(&self, init: &Sp::State) -> FailureExplanation {
        let n = self.records.len();
        let mut state = init.clone();
        let mut remaining = all_ops(n);
        for &i in &self.best_prefix {
            remaining &= !(1u128 << i);
            let r = &self.records[i];
            state = match (&r.resp, self.completer) {
                (Some(resp), _) => self
                    .spec
                    .step(&state, r.proc, &r.op, resp)
                    .expect("best prefix was legal when first explored"),
                (None, Some(complete)) => {
                    let mut next = state.clone();
                    complete(&mut next, r.proc, &r.op);
                    next
                }
                (None, None) => unreachable!("pending op linearized without a completer"),
            };
        }
        // The minimality frontier among what is left: the earliest
        // response of a still-remaining completed op bounds which
        // invocations may linearize next.
        let mut min_respond = usize::MAX;
        let mut min_idx = None;
        for i in 0..n {
            if remaining & (1u128 << i) != 0 {
                let r = &self.records[i];
                if !r.is_pending() && r.respond_at < min_respond {
                    min_respond = r.respond_at;
                    min_idx = Some(i);
                }
            }
        }
        let mut blocked = Vec::new();
        for i in 0..n {
            if remaining & (1u128 << i) == 0 {
                continue;
            }
            let r = &self.records[i];
            let reason = if r.invoke_at > min_respond {
                BlockReason::Precedence {
                    after: min_idx.expect("min_respond is finite"),
                }
            } else if let Some(resp) = &r.resp {
                match self.spec.step(&state, r.proc, &r.op, resp) {
                    None => BlockReason::SpecRejected,
                    Some(_) => BlockReason::DeadEnd,
                }
            } else if self.completer.is_some() {
                BlockReason::DeadEnd
            } else {
                BlockReason::Pending
            };
            blocked.push(BlockedOp { op: i, reason });
        }
        // Real-time precedence over all ops, transitively reduced.
        let precedes = |a: usize, b: usize| self.records[a].respond_at < self.records[b].invoke_at;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b
                    && precedes(a, b)
                    && !(0..n).any(|c| c != a && c != b && precedes(a, c) && precedes(c, b))
                {
                    edges.push((a, b));
                }
            }
        }
        FailureExplanation {
            frontier: self.best_prefix.clone(),
            blocked,
            edges,
        }
    }
}

/// Check `h` with one memoized search: pending operations are dropped,
/// or also tried completed through `completer` when there is one. The
/// search's counters go into `spans` when tracing, and an exhausted
/// search returns its failure explanation.
fn run_check<Sp>(
    spec: &Sp,
    h: &History<Sp::Op, Sp::Resp>,
    cfg: &CheckerConfig,
    completer: Option<Completer<'_, Sp::State, Sp::Op>>,
    spans: Option<&mut SpanRecorder>,
) -> CheckOutcome
where
    Sp: NondetSpec,
    Sp::State: Hash + Eq,
{
    if !h.well_formed() {
        return CheckOutcome::Violation(Violation::Malformed);
    }
    let ops = Ops::extract(h);
    if ops.len() > MAX_OPS {
        return CheckOutcome::Violation(Violation::TooLarge { ops: ops.len() });
    }
    let mut search = Search {
        spec,
        records: ops.records(),
        cfg,
        memo: HashSet::new(),
        explored: 0,
        memo_hits: 0,
        backtracks: 0,
        witness: Vec::new(),
        best_prefix: Vec::new(),
        completer,
    };
    let init = spec.initial();
    let result = search.dfs(all_ops(ops.len()), &init);
    if let Some(s) = spans {
        s.bump("nodes", search.explored);
        s.bump("memo_hits", search.memo_hits);
        s.bump("backtracks", search.backtracks);
    }
    match result {
        SearchResult::Found => CheckOutcome::Linearizable(search.witness),
        SearchResult::OverBudget => CheckOutcome::BudgetExhausted,
        SearchResult::Exhausted => CheckOutcome::Violation(Violation::NotLinearizable {
            explored: search.explored,
            explanation: Box::new(search.explain(&init)),
        }),
    }
}

/// Check a history against a nondeterministic spec. Pending operations
/// are dropped (strict mode).
pub fn check_linearizable<Sp>(
    spec: &Sp,
    h: &History<Sp::Op, Sp::Resp>,
    cfg: &CheckerConfig,
) -> CheckOutcome
where
    Sp: NondetSpec,
    Sp::State: Hash + Eq,
{
    run_check(spec, h, cfg, None, None)
}

/// [`check_linearizable`], reporting search telemetry into a span: a
/// `"check"` child span is recorded under the currently open span with
/// `nodes`, `memo_hits`, and `backtracks` counters.
pub fn check_linearizable_traced<Sp>(
    spec: &Sp,
    h: &History<Sp::Op, Sp::Resp>,
    cfg: &CheckerConfig,
    spans: &mut SpanRecorder,
) -> CheckOutcome
where
    Sp: NondetSpec,
    Sp::State: Hash + Eq,
{
    spans.enter("check");
    let out = run_check(spec, h, cfg, None, Some(spans));
    spans.exit();
    out
}

/// Check a history against a *deterministic* spec. Pending invocations
/// may be completed with their (unique) spec response and linearized,
/// per the "extended to a well-formed history H' by adding zero or more
/// responses" clause of the linearizability definition; the strict,
/// drop-pending check is [`check_linearizable`].
pub fn check_linearizable_det<Sp>(
    spec: &Sp,
    h: &History<Sp::Op, Sp::Resp>,
    cfg: &CheckerConfig,
) -> CheckOutcome
where
    Sp: DetSpec,
    Sp::State: Hash + Eq,
{
    let complete = |state: &mut Sp::State, proc: ProcId, op: &Sp::Op| {
        spec.apply(state, proc, op);
    };
    run_check(spec, h, cfg, Some(&complete), None)
}

/// Independently verify a strict witness (what [`check_linearizable`]
/// returns): replays it through the spec and checks that it extends the
/// real-time order and holds every completed operation and no pending
/// one. Used by tests to guard the checker itself.
pub fn verify_witness<Sp>(spec: &Sp, h: &History<Sp::Op, Sp::Resp>, witness: &[usize]) -> bool
where
    Sp: NondetSpec,
{
    verify(spec, h, witness, None)
}

/// Independently verify a completion witness (what
/// [`check_linearizable_det`] returns): as [`verify_witness`], except
/// that a pending operation may appear, and is replayed with the
/// response [`DetSpec::apply`] gives it where it stands.
pub fn verify_witness_det<Sp>(spec: &Sp, h: &History<Sp::Op, Sp::Resp>, witness: &[usize]) -> bool
where
    Sp: DetSpec,
{
    let complete = |state: &mut Sp::State, proc: ProcId, op: &Sp::Op| {
        spec.apply(state, proc, op);
    };
    verify(spec, h, witness, Some(&complete))
}

/// The one witness check: `complete` replays a pending operation, and
/// without it a witness may hold none.
fn verify<Sp>(
    spec: &Sp,
    h: &History<Sp::Op, Sp::Resp>,
    witness: &[usize],
    complete: Option<Completer<'_, Sp::State, Sp::Op>>,
) -> bool
where
    Sp: NondetSpec,
{
    let ops = Ops::extract(h);
    // Each operation of the history at most once.
    let pos: std::collections::HashMap<usize, usize> =
        witness.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    if pos.len() != witness.len() || witness.iter().any(|&i| i >= ops.records().len()) {
        return false;
    }
    // Precedence: for every pair of ops a ≺_H b that both appear, a must
    // come first.
    for &a in witness {
        for &b in witness {
            if a != b && ops.precedes(a, b) && pos[&a] > pos[&b] {
                return false;
            }
        }
    }
    // Every completed op must appear.
    for i in ops.completed() {
        if !pos.contains_key(&i) {
            return false;
        }
    }
    // Legality: replay.
    let mut state = spec.initial();
    for &i in witness {
        let r = &ops.records()[i];
        match (&r.resp, complete) {
            (Some(resp), _) => match spec.step(&state, r.proc, &r.op, resp) {
                Some(next) => state = next,
                None => return false,
            },
            (None, Some(complete)) => complete(&mut state, r.proc, &r.op),
            (None, None) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::spec::{RegOp, RegResp, RegisterSpec};
    use proptest::prelude::*;
    use std::collections::HashMap;

    type H = History<RegOp, RegResp>;

    fn cfg() -> CheckerConfig {
        CheckerConfig::default()
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h = H::new();
        assert_eq!(
            check_linearizable(&RegisterSpec, &h, &cfg()),
            CheckOutcome::Linearizable(vec![])
        );
    }

    #[test]
    fn sequential_legal_history_passes() {
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(1));
        let out = check_linearizable(&RegisterSpec, &h, &cfg());
        match &out {
            CheckOutcome::Linearizable(w) => {
                assert!(verify_witness(&RegisterSpec, &h, w));
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn stale_read_after_write_completes_fails() {
        // w(1) completes strictly before the read, yet the read sees 0.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(0));
        assert!(matches!(
            check_linearizable(&RegisterSpec, &h, &cfg()),
            CheckOutcome::Violation(Violation::NotLinearizable { .. })
        ));
    }

    #[test]
    fn concurrent_read_may_see_either_value() {
        // The read overlaps the write: both 0 and 1 are legal.
        for seen in [0u64, 1] {
            let mut h = H::new();
            h.invoke(0, RegOp::Write(1));
            h.invoke(1, RegOp::Read);
            h.respond(1, RegResp::Value(seen));
            h.respond(0, RegResp::Ack);
            assert!(
                check_linearizable(&RegisterSpec, &h, &cfg()).is_ok(),
                "value {seen} should be legal"
            );
        }
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads around a concurrent write: the first sees
        // the new value, the second the old one — not linearizable.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1)); // concurrent with both reads
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(1)); // sees new
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(0)); // then sees old
        h.respond(0, RegResp::Ack);
        assert!(matches!(
            check_linearizable(&RegisterSpec, &h, &cfg()),
            CheckOutcome::Violation(Violation::NotLinearizable { .. })
        ));
    }

    #[test]
    fn pending_write_effect_requires_completion_mode() {
        // The write never responds, but a later read observes it; only
        // the det checker, which may complete pending ops, accepts this.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(7)); // pending forever
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(7));
        // Strict mode drops the write, so Value(7) is illegal:
        assert!(matches!(
            check_linearizable(&RegisterSpec, &h, &cfg()),
            CheckOutcome::Violation(Violation::NotLinearizable { .. })
        ));
        // Completion accepts, with a witness that linearizes the write,
        // and that witness verifies:
        let CheckOutcome::Linearizable(w) = check_linearizable_det(&RegisterSpec, &h, &cfg())
        else {
            panic!("completion rejected a pending write its read observed");
        };
        assert_eq!(w, [0, 1]);
        assert!(verify_witness_det(&RegisterSpec, &h, &w));
        assert!(
            !verify_witness(&RegisterSpec, &h, &w),
            "a strict witness holds no pending op"
        );
        assert!(
            !verify_witness_det(&RegisterSpec, &h, &[1, 0]),
            "the read saw 7 before the write"
        );
    }

    #[test]
    fn malformed_history_is_flagged() {
        let mut h = H::new();
        h.respond(0, RegResp::Ack);
        assert_eq!(
            check_linearizable(&RegisterSpec, &h, &cfg()),
            CheckOutcome::Violation(Violation::Malformed)
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut h = H::new();
        for p in 0..6 {
            h.invoke(p, RegOp::Write(p as u64));
        }
        for p in 0..6 {
            h.respond(p, RegResp::Ack);
        }
        let tiny = CheckerConfig { node_budget: 2 };
        assert_eq!(
            check_linearizable(&RegisterSpec, &h, &tiny),
            CheckOutcome::BudgetExhausted
        );
    }

    #[test]
    fn failure_explanation_reports_frontier_and_reason() {
        // w(1) completes strictly before a read that sees 0: the write
        // linearizes, then the read's response is illegal.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(0));
        let out = check_linearizable(&RegisterSpec, &h, &cfg());
        let CheckOutcome::Violation(Violation::NotLinearizable { explanation, .. }) = out else {
            panic!("expected NotLinearizable, got {out:?}");
        };
        let e = *explanation;
        assert_eq!(e.frontier, vec![0]);
        assert_eq!(e.blocked.len(), 1);
        assert_eq!(e.blocked[0].op, 1);
        assert_eq!(e.blocked[0].reason, BlockReason::SpecRejected);
        assert_eq!(e.edges, vec![(0, 1)]);
        let ops = Ops::extract(&h);
        let text = e.render(&ops);
        assert!(text.contains("orders 1 of 2 operations"), "{text}");
        assert!(text.contains("spec rejects"), "{text}");
    }

    #[test]
    fn failure_explanation_names_blocking_precedence_edge() {
        // op 0: w(1) completes; op 1: read sees 0 (illegal after the
        // write); op 2: read sees 1, but its invocation follows op 1's
        // response, so the real-time edge op1 ≺ op2 blocks it from
        // rescuing the search.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(0));
        h.invoke(2, RegOp::Read);
        h.respond(2, RegResp::Value(1));
        let out = check_linearizable(&RegisterSpec, &h, &cfg());
        let CheckOutcome::Violation(Violation::NotLinearizable { explanation, .. }) = out else {
            panic!("expected NotLinearizable, got {out:?}");
        };
        let e = *explanation;
        assert_eq!(e.frontier, vec![0]);
        assert!(e.blocked.contains(&crate::explain::BlockedOp {
            op: 2,
            reason: BlockReason::Precedence { after: 1 },
        }));
        assert_eq!(e.blocking_edges(), vec![(1, 2)]);
        // Transitive reduction drops the implied (0, 2) edge.
        assert_eq!(e.edges, vec![(0, 1), (1, 2)]);
        let text = e.render(&Ops::extract(&h));
        assert!(text.contains("op 1 \u{227a} op 2"), "{text}");
    }

    #[test]
    fn pending_ops_are_explained_in_strict_mode() {
        // The pending write's effect is observed, so strict mode fails;
        // the pending op must be called out as dropped.
        let mut h = H::new();
        h.invoke(0, RegOp::Write(7));
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(7));
        let out = check_linearizable(&RegisterSpec, &h, &cfg());
        let CheckOutcome::Violation(Violation::NotLinearizable { explanation, .. }) = out else {
            panic!("expected NotLinearizable, got {out:?}");
        };
        let e = *explanation;
        assert!(e
            .blocked
            .iter()
            .any(|b| b.op == 0 && b.reason == BlockReason::Pending));
    }

    #[test]
    fn traced_check_records_search_counters() {
        use apram_model::SpanRecorder;
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(0));
        let mut spans = SpanRecorder::new("test");
        let out = check_linearizable_traced(&RegisterSpec, &h, &cfg(), &mut spans);
        let CheckOutcome::Violation(Violation::NotLinearizable { explored, .. }) = out else {
            panic!("{out:?}");
        };
        let tree = spans.finish();
        let check = &tree.children[0];
        assert_eq!(check.name, "check");
        assert_eq!(check.counter("nodes"), Some(explored));
        assert!(check.counter("backtracks").unwrap_or(0) >= 1);
        assert!(check.counter("memo_hits").is_some());
    }

    #[test]
    fn witness_respects_precedence() {
        let mut h = H::new();
        h.invoke(0, RegOp::Write(1));
        h.respond(0, RegResp::Ack);
        h.invoke(0, RegOp::Write(2));
        h.respond(0, RegResp::Ack);
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(2));
        match check_linearizable(&RegisterSpec, &h, &cfg()) {
            CheckOutcome::Linearizable(w) => {
                assert_eq!(w, vec![0, 1, 2]);
                assert!(verify_witness(&RegisterSpec, &h, &w));
            }
            other => panic!("{other:?}"),
        }
    }

    /// `writes` sequential writes of `0, 1, ..`, then a read that sees
    /// `last`.
    fn writes_then_read(writes: usize, last: u64) -> H {
        let mut h = H::new();
        for v in 0..writes as u64 {
            h.invoke(0, RegOp::Write(v));
            h.respond(0, RegResp::Ack);
        }
        h.invoke(1, RegOp::Read);
        h.respond(1, RegResp::Value(last));
        h
    }

    /// A history of exactly `MAX_OPS` operations fills the whole mask,
    /// in the search and in the failure explanation.
    #[test]
    fn a_history_of_max_ops_is_checked() {
        let last = (MAX_OPS - 2) as u64;
        let good = writes_then_read(MAX_OPS - 1, last);
        match check_linearizable(&RegisterSpec, &good, &cfg()) {
            CheckOutcome::Linearizable(w) => {
                assert_eq!(w, (0..MAX_OPS).collect::<Vec<_>>());
                assert!(verify_witness(&RegisterSpec, &good, &w));
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
        let bad = writes_then_read(MAX_OPS - 1, last + 1);
        let out = check_linearizable(&RegisterSpec, &bad, &cfg());
        let CheckOutcome::Violation(Violation::NotLinearizable { explanation, .. }) = out else {
            panic!("expected NotLinearizable, got {out:?}");
        };
        assert_eq!(explanation.frontier.len(), MAX_OPS - 1);
        assert_eq!(
            explanation.blocked,
            vec![BlockedOp {
                op: MAX_OPS - 1,
                reason: BlockReason::SpecRejected,
            }]
        );
    }

    #[test]
    fn a_history_over_max_ops_is_refused_with_its_size() {
        let h = writes_then_read(MAX_OPS, 0);
        for out in [
            check_linearizable(&RegisterSpec, &h, &cfg()),
            check_linearizable_det(&RegisterSpec, &h, &cfg()),
        ] {
            assert_eq!(
                out,
                CheckOutcome::Violation(Violation::TooLarge { ops: MAX_OPS + 1 })
            );
        }
    }

    /// Two registers as one object, for the locality tests: an operation
    /// names its register.
    struct TwoRegs;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op2 {
        Write(usize, u64),
        Read(usize),
    }

    impl DetSpec for TwoRegs {
        type State = [u64; 2];
        type Op = Op2;
        type Resp = RegResp;

        fn initial(&self) -> [u64; 2] {
            [0, 0]
        }

        fn apply(&self, s: &mut [u64; 2], _p: ProcId, op: &Op2) -> RegResp {
            match op {
                Op2::Write(r, v) => {
                    s[*r] = *v;
                    RegResp::Ack
                }
                Op2::Read(r) => RegResp::Value(s[*r]),
            }
        }
    }

    /// The history of register `reg` alone: every event of `h` whose
    /// operation touches `reg`, where it stands in `h`, so overlaps and
    /// pending invocations survive. A response belongs to its process's
    /// open invocation.
    fn project(h: &History<Op2, RegResp>, reg: usize) -> H {
        let mut open = HashMap::new();
        let mut out = H::new();
        for e in h.events() {
            match e {
                Event::Invoke { proc, op } => {
                    let (r, op) = match *op {
                        Op2::Write(r, v) => (r, RegOp::Write(v)),
                        Op2::Read(r) => (r, RegOp::Read),
                    };
                    open.insert(*proc, r);
                    if r == reg {
                        out.invoke(*proc, op);
                    }
                }
                Event::Respond { proc, resp } => {
                    if open.remove(proc) == Some(reg) {
                        out.respond(*proc, resp.clone());
                    }
                }
            }
        }
        out
    }

    /// Whole-history verdict and the conjunction of the per-register
    /// verdicts, under the strict and under the completion check.
    fn verdicts(h: &History<Op2, RegResp>) -> [(bool, bool); 2] {
        let (hx, hy) = (project(h, 0), project(h, 1));
        [
            (
                check_linearizable(&TwoRegs, h, &cfg()).is_ok(),
                check_linearizable(&RegisterSpec, &hx, &cfg()).is_ok()
                    && check_linearizable(&RegisterSpec, &hy, &cfg()).is_ok(),
            ),
            (
                check_linearizable_det(&TwoRegs, h, &cfg()).is_ok(),
                check_linearizable_det(&RegisterSpec, &hx, &cfg()).is_ok()
                    && check_linearizable_det(&RegisterSpec, &hy, &cfg()).is_ok(),
            ),
        ]
    }

    /// Random two-register histories of at most 8 operations by 3
    /// processes; an operation still open at the end responds only when
    /// its `finish` flag says so, so some invocations stay pending.
    fn two_reg_history() -> impl Strategy<Value = History<Op2, RegResp>> {
        let step = (
            0usize..3,
            0usize..2,
            any::<bool>(),
            0u64..3,
            any::<bool>(),
            any::<bool>(),
        );
        proptest::collection::vec(step, 0..=8).prop_map(|steps| {
            let mut h = History::new();
            let mut open: Vec<(ProcId, RegResp, bool)> = Vec::new();
            for (proc, reg, write, val, close_now, finish) in steps {
                if let Some(pos) = open.iter().position(|(p, ..)| *p == proc) {
                    let (p, resp, _) = open.remove(pos);
                    h.respond(p, resp);
                }
                let (op, resp) = if write {
                    (Op2::Write(reg, val), RegResp::Ack)
                } else {
                    (Op2::Read(reg), RegResp::Value(val))
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

        /// Linearizability is local (§3.2): a history of two registers is
        /// linearizable iff each register's projection is, under both
        /// treatments of pending operations.
        #[test]
        fn linearizability_is_local(h in two_reg_history()) {
            for (whole, parts) in verdicts(&h) {
                prop_assert_eq!(whole, parts, "history: {:?}", h);
            }
        }
    }

    /// The classic Dekker history, where each process writes one register
    /// and then misses the other's write: every per-register projection is
    /// sequentially consistent but the whole is not, so sequential
    /// consistency is not local. Linearizability already rejects each
    /// projection, agreeing with its verdict on the whole.
    #[test]
    fn linearizability_is_local_on_the_dekker_history() {
        let mut h: History<Op2, RegResp> = History::new();
        h.invoke(0, Op2::Write(0, 1));
        h.respond(0, RegResp::Ack);
        h.invoke(1, Op2::Write(1, 1));
        h.respond(1, RegResp::Ack);
        h.invoke(0, Op2::Read(1));
        h.respond(0, RegResp::Value(0));
        h.invoke(1, Op2::Read(0));
        h.respond(1, RegResp::Value(0));
        for reg in 0..2 {
            assert!(!check_linearizable(&RegisterSpec, &project(&h, reg), &cfg()).is_ok());
        }
        assert_eq!(verdicts(&h), [(false, false); 2]);
    }
}
