//! The universal wait-free construction for commute/overwrite objects
//! (paper Section 5).
//!
//! The paper characterizes a class of objects implementable wait-free in
//! asynchronous PRAM by a purely algebraic property of their sequential
//! specifications (**Property 1**): every pair of operations either
//! *commutes* (Definition 10) or one *overwrites* the other
//! (Definition 11). For any such object, the Figure 4 algorithm turns a
//! sequential implementation into an `n`-process wait-free linearizable
//! one, at `O(n²)` reads and writes of synchronization overhead per
//! operation (the cost of two atomic scans: the snap that reads the
//! anchor array and the update that writes it).
//!
//! * [`algebra`] — the [`AlgebraicSpec`] trait (a deterministic
//!   sequential spec annotated with its commute/overwrite relations) and
//!   the *dominance* partial order of Definition 14.
//! * [`verify`] — a sampling-based falsifier for the annotations: checks
//!   Definitions 10/11 and Property 1 against concrete states, so a spec
//!   whose claimed algebra is wrong (e.g. a sticky register claiming
//!   Property 1) is rejected before it silently corrupts the
//!   construction.
//! * [`counter`] — the paper's running example (§5.1): a counter with
//!   `inc`/`dec` (commuting), `reset` (overwrites everything) and `read`
//!   (overwritten by everything).
//! * [`graph`] — precedence graphs with incremental transitive closure.
//! * [`lingraph`] — the Figure 3 `lingraph` construction and its
//!   linearization (topological sort), with the Lemma 16–18 invariants
//!   tested.
//! * [`log`] — a process's entries by index: the single-writer
//!   append-only log that makes "the address of an entry" a position.
//! * [`universal`] — the Figure 4 algorithm itself: operations become
//!   *entries* (invocation, response, the signature of the view)
//!   appended to their process's log and rooted in an anchor array that
//!   is read with the Section 6 atomic snapshot and written with a
//!   single register write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod counter;
pub mod graph;
pub mod lingraph;
pub mod log;
pub mod universal;
pub mod verify;

pub use algebra::{dominates, AlgebraicSpec};
pub use counter::{CounterOp, CounterResp, CounterSpec};
pub use universal::{Universal, UniversalHandle};
