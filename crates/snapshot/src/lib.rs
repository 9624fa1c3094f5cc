//! Atomic snapshot via the Aspnes–Herlihy lattice scan (paper Section 6).
//!
//! The paper's `Scan` procedure (Figure 5) lets each of `n` processes
//! atomically observe the join of all values ever written, using only
//! single-writer multi-reader atomic registers, in a wait-free
//! `O(n²)` reads and `O(n)` writes per operation. Instantiated at the
//! [`apram_lattice::TaggedVec`] lattice it yields the now-standard
//! **atomic snapshot** object: `update(v)` / `snap() -> [latest value per
//! process]`, every snap an instantaneous cut.
//!
//! * [`scan`] — the generic lattice scan: the literal Figure 5 procedure
//!   ([`scan::ScanObject`], `n²+n+1` reads and `n+2` writes) and the
//!   §6.2-optimized variant ([`scan::ScanHandle`], `n²−1` reads and
//!   `n+1` writes), plus the `Write_L` / `ReadMax` operations built on
//!   them.
//! * [`snapshot`] — the tagged-array snapshot object and the sequential
//!   specifications ([`snapshot::ScanMaxSpec`], [`snapshot::SnapshotSpec`])
//!   used by the linearizability checker.
//! * [`collect`] — baselines: the *double-collect* snapshot (linearizable
//!   but only obstruction-free: a concurrent writer can starve it) and
//!   the *naive collect* (wait-free but **not** linearizable — kept as a
//!   negative control the checker must reject).
//! * [`lock`] — a lock-based snapshot for native threads (linearizable
//!   but blocking: a crashed holder wedges everyone; the negative control
//!   for the crash-tolerance experiments).
//! * [`lattice_agreement`] — the lattice agreement task (paper §2's
//!   "closely related" technique), solved in one scan.
//! * [`afek`] — the Afek et al. snapshot (paper §2's independent rival,
//!   "time complexity comparable to ours"), for measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afek;
pub mod collect;
pub mod lattice_agreement;
pub mod lock;
pub mod scan;
pub mod snapshot;

pub use afek::{AfekHandle, AfekReg, AfekSnapshot};
pub use lattice_agreement::{lattice_agreement_valid, LatticeAgreement};
pub use lock::{LockSnapshot, SimLockSnapshot};
pub use scan::{ScanHandle, ScanObject};
pub use snapshot::{SnapOp, SnapResp, Snapshot, SnapshotHandle, SnapshotSpec};
