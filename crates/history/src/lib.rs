//! Histories, sequential specifications, and a linearizability checker.
//!
//! Section 3.2 of the paper defines the correctness condition every object
//! in this workspace is held to: **linearizability** (Herlihy & Wing). A
//! history is a sequence of invocation and response events; it is
//! linearizable when it can be extended (completing some pending
//! invocations) and reordered into a legal sequential history that
//! respects the real-time precedence order `≺_H`.
//!
//! This crate supplies:
//!
//! * [`event`] — invocation/response events, the [`History`] container,
//!   well-formedness, `complete(H)`, and a thread-safe [`Recorder`] for
//!   capturing histories from native multi-threaded runs.
//! * [`ops`] — extraction of operation records and the real-time
//!   precedence relation `≺_H`.
//! * [`spec`] — the [`DetSpec`] trait for the paper's *total,
//!   deterministic* sequential specifications (Section 3.2) and the more
//!   general [`NondetSpec`] relation used for specifications like
//!   approximate agreement whose responses are constrained rather than
//!   determined (Figure 1).
//! * [`check`] — a Wing–Gong style linearizability checker (DFS over
//!   minimal-operation choices, memoizing failed configurations, so spec
//!   states are hashable), returning a witness linearization or a
//!   violation with its explanation. Three entry points: the strict
//!   [`check_linearizable`] (pending operations dropped), the completion
//!   check [`check_linearizable_det`] (a pending operation may take its
//!   unique response), and the span-reporting
//!   [`check_linearizable_traced`].
//! * [`explain`] — structured failure explanations: the longest
//!   linearizable prefix, why each remaining operation is blocked (with
//!   the real-time precedence edge when that is the cause), and an
//!   operation-interval timeline renderer.
//! * [`brute`] — a brute-force reference checker, strict and completing,
//!   used to property-test the real one and to check specs whose states
//!   are not hashable.
//! * [`spans`] — reconstruction of checkable histories from the native
//!   flight recorder's op spans (shared by the E14 spot-checks and
//!   `apram-serve`'s offline audit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod check;
pub mod event;
pub mod explain;
pub mod ops;
pub mod parallel;
pub mod spans;
pub mod spec;

pub use check::{
    check_linearizable, check_linearizable_det, check_linearizable_traced, verify_witness,
    verify_witness_det, CheckOutcome, CheckerConfig, Violation,
};
pub use event::{Event, History, ProcId, Recorder};
pub use explain::{render_timeline, BlockReason, BlockedOp, FailureExplanation};
pub use ops::{OpRecord, Ops};
pub use parallel::check_histories_parallel;
pub use spans::history_from_spans;
pub use spec::{DetSpec, NondetSpec};
