//! Constructible objects (paper §5.1 and §7).
//!
//! "Examples of objects that can be implemented in this way include
//! counters, logical clocks \[33\], and certain kinds of set
//! abstractions." Each object here comes in up to two forms:
//!
//! * a **universal** form — an [`apram_core::AlgebraicSpec`] run through
//!   the Figure 4 construction, supporting the *full* operation set
//!   (including overwriters like `reset`/`clear`), at the cost of an
//!   unbounded precedence graph and replay work;
//! * a **direct** form — the type-specific optimization the paper
//!   anticipates ("it should be possible to apply type-specific
//!   optimizations to discard most of the precedence graph"): the
//!   object's commuting core is a join-semilattice, so one Section 6
//!   scan per operation suffices, with bounded memory and no replay.
//!   Direct forms drop the overwriting operations (a `reset` cannot live
//!   in a monotone lattice slot — that is *why* the universal
//!   construction earns its overhead).
//!
//! Inventory:
//!
//! * [`counter`] — inc/dec/reset/read counter (universal) and the
//!   inc/dec/read direct counter over per-process `(inc, dec)` pairs.
//! * [`striped`] — the increment-only counter on word-sized per-process
//!   stripes: one write per `inc`, one collect per `read`, and the
//!   workload that drives the native backend's packed register tier in
//!   experiment E13.
//! * [`maxreg`] — max-register: `write_max`/`read` (universal spec) and
//!   the direct lattice form, which *is* the Section 6 object.
//! * [`clock`] — Lamport logical clocks on top of the max-register.
//! * [`growset`] — grow-only set with `add`/`contains`/`elements` and a
//!   universal variant adding `clear`.
//! * [`lwwmap`] — a last-writer-wins map: per-key overwrite structure,
//!   the finest-grained Property 1 instance here.
//! * [`mwreg`] — a multi-writer register built from single-writer
//!   registers (the Vitányi–Awerbuch substrate exercise), exhaustively
//!   checked.
//! * [`prmw`] — pseudo read-modify-write registers over commuting
//!   function families (the §2 Anderson–Grošelj object), one scan per
//!   operation.
//! * [`regular`] — regular (non-atomic) registers with their new/old
//!   inversion anomaly, and Lamport's atomic-from-regular SRSW
//!   construction — the substrate rung below the model's assumption.
//! * [`sticky`] — the sticky (write-once) register: a *negative*
//!   example whose operations neither commute nor overwrite;
//!   [`apram_core::verify`] rejects it, and the paper's impossibility
//!   results (it solves consensus for two processes) explain why it
//!   must be rejected.
//!
//! Two registries make the inventory *constructible by name*:
//!
//! * [`spec`] — the native table: one [`spec::ObjectSpec`] row for
//!   every object the multi-threaded backend serves and benchmarks
//!   (counter, max-register, clock, snapshot, register, the LWW maps).
//!   A row holds the name, tiers and `build` that every consumer uses,
//!   the iteration budget and op labels of the E13/E14 grids, the
//!   argument convention the load driver issues ops by, the shard-merge
//!   algebra the `apram-serve` table routes and combines by, and the
//!   audit `apram-serve`, E14 and E15 check recorded spans with.
//! * [`simspec`] — the simulator's table: [`simspec::SimObjectSpec`]
//!   recipes for the five snapshot constructions the E10/E11 grids and
//!   the sweep harness certify and sample. It shares one name (`afek`)
//!   and no consumer with [`spec`], so it stays a table of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod counter;
pub mod growset;
pub mod lwwmap;
pub mod maxreg;
pub mod mwreg;
pub mod prmw;
pub mod regular;
pub mod simspec;
pub mod spec;
pub mod sticky;
pub mod striped;

pub use clock::LamportClock;
pub use counter::{DirectCounter, DirectCounterHandle, UniversalCounter, UniversalCounterHandle};
pub use growset::{DirectGrowSet, GrowSetSpec};
pub use lwwmap::{DirectLwwMap, DirectLwwMapHandle, LwwMapSpec};
pub use maxreg::{DirectMaxRegister, MaxRegSpec};
pub use mwreg::{MwRegSpec, MwRegister};
pub use prmw::{CommutingOp, PrmwRegister};
pub use regular::{AtomicFromRegular, RegularRegister};
pub use simspec::{sim_spec, sim_specs, SimObjectSpec, SIM_OBJECTS};
pub use spec::{
    native_spec, native_specs, Args, BuildCtx, Merge, ObjectInstance, ObjectSession, ObjectSpec,
    OpOutput, Tier, NATIVE_OBJECTS, OP_READ, OP_UPDATE,
};
pub use sticky::StickySpec;
pub use striped::{StripedCounter, StripedCounterHandle};
