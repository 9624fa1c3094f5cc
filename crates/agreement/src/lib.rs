//! Wait-free approximate agreement in asynchronous PRAM (paper Section 4).
//!
//! The approximate agreement object (Figure 1) accepts real *inputs* and
//! produces *outputs* that all lie within the input range and within `ε`
//! of each other. The paper proves:
//!
//! * **Theorem 5** (upper bound): the Figure 2 protocol is wait-free and
//!   finishes within `(2n+1)·log₂(Δ/ε) + O(n)` steps per process, where
//!   `Δ` bounds the input range.
//! * **Lemma 6** (lower bound): an adversary scheduler can force some
//!   process of *any* deterministic implementation to take at least
//!   `⌊log₃(Δ/ε)⌋` steps.
//! * **Theorems 7–8** (hierarchy): choosing `ε = 3⁻ᵏ` gives objects that
//!   are `K`-bounded wait-free but not `k`-bounded; an unbounded input
//!   range gives an object that is wait-free but not bounded wait-free.
//!
//! **Reproduction finding.** This crate's exhaustive and randomized
//! schedule searches show Figure 2's ε-agreement claim holds for two
//! processes (exhaustively verified) but **fails for n ≥ 3**, under both
//! the collect and the atomic-snapshot reading of "Scan r"; the gap is
//! in Lemma 4's proof (the claim `L'_Q ⊆ L_P`). Validity and the step
//! bounds are unaffected. See [`ablation`] for the frozen witnesses and
//! [`oneshot`] for a corrected fixed-round n-process variant. All the
//! two-process results above reproduce faithfully.
//!
//! Module map:
//!
//! * [`spec`] — the Figure 1 sequential specification as a
//!   nondeterministic transition relation. Its real-valued states are
//!   not hashable, so histories are checked against it with
//!   `apram_history`'s brute-force reference, not the memoizing checker.
//! * [`proto`] — the Figure 2 protocol, written against
//!   [`apram_model::MemCtx`] so it runs on the simulator and on native
//!   threads.
//! * [`machine`] — the same protocol as an explicit, cloneable state
//!   machine stepped one shared access at a time; this is what the
//!   adversary needs, since Lemma 6's strategy evaluates "the value `P`
//!   would return if it ran alone" (a lookahead on a copy of the state).
//! * [`adversary`] — the Lemma 6 adversary for two processes.
//! * [`hierarchy`] — the Theorem 7/8 experiments built from the two.
//! * [`ablation`] — the soundness-boundary searches (variants × scan
//!   modes, exhaustive and randomized) with the n ≥ 3 counterexamples.
//! * [`oneshot`] — the corrected fixed-round n-process variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adversary;
pub mod hierarchy;
pub mod machine;
pub mod oneshot;
pub mod proto;
pub mod spec;

pub use adversary::{run_adversary, AdversaryReport};
pub use machine::AgreementMachine;
pub use oneshot::OneShotAgreement;
pub use proto::{AaEntry, AgreementHandle, AgreementProto, CollectAgreement, ScanMode, Variant};
pub use spec::{range_width, ApproxSpec};
