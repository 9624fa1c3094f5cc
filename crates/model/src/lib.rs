//! The asynchronous PRAM substrate.
//!
//! Section 3 of the paper: "asynchronous processes communicate by applying
//! atomic read and write operations to the shared memory"; processes'
//! relative speeds are unpredictable, and wait-freedom must hold "despite
//! failures of other processes".
//!
//! This crate makes that model executable:
//!
//! * [`ctx`] — the [`MemCtx`] trait every algorithm in the
//!   workspace is written against: a per-process handle whose only shared
//!   operations are atomic register reads and writes. The same algorithm
//!   code runs on both backends below.
//! * [`native`] — a real-threads backend: a tiered lock-free register
//!   file on `std::sync::atomic`. Word-packable value types (see
//!   [`AtomicPackable`]) live in single cache-padded `AtomicU64`s;
//!   arbitrary `Clone` values go through a multi-slot announce/validate
//!   buffer (single-writer) with a hardware ticket layered on top for
//!   multi-writer registers. No packed or buffered access ever takes a
//!   lock; the old lock-per-register backend survives as a third tier,
//!   E13's comparison baseline, which a memory is on only when built
//!   with [`NativeMemory::new_locked`]. Every build compiles all three,
//!   so the workspace and the repo benchmark measure one register file.
//!   Shared-memory step counters are kept per process.
//! * [`sim`] — the deterministic simulator. Every simulated process runs
//!   on an OS thread but blocks at each shared access until a scheduling
//!   decision picks it, so a *schedule* (a sequence of process ids)
//!   fully determines the execution. Schedulers implement
//!   [`Strategy`]: round-robin, seeded-random, replay,
//!   crash-injecting, and arbitrary adversaries. Whichever thread takes
//!   a decision applies the chosen access to the register vector under
//!   the run's one mutex, so executions are exactly the interleavings of
//!   atomic accesses the model defines. [`SimBuilder`] is the one way
//!   in: it describes the register vector, launches runs, and carries
//!   every schedule search below as a method.
//! * [`mod@sim::explore`] — stateless model checking: exhaustive enumeration
//!   of all schedules of a bounded execution ([`SimBuilder::explore`] and
//!   its reduced and `_parallel` forms), used to verify linearizability
//!   claims (paper Theorems 26/33) on small instances; the wait-freedom
//!   certifier ([`SimBuilder::certify`]) and the schedule sampler
//!   ([`SimBuilder::sample`]) are built on it.
//! * [`trace`] — step traces and per-process read/write counts; the
//!   operation-count experiments (paper §6.2) read these directly.
//! * [`mod@sim::shrink`] — delta-debugging schedule minimisation
//!   ([`SimBuilder::shrink`]): a failing schedule captured by the
//!   explorer is greedily reduced to a locally minimal one that still
//!   reproduces the violation under strict replay.
//! * [`span`] — lightweight span tracing (named intervals with counters);
//!   the explorer and the linearizability checker report their internal
//!   cost structure through it, and `--forensics` dumps the tree.
//! * [`telemetry`] — live telemetry: log-bucketed step histograms, a
//!   per-worker-sharded metrics registry, progress heartbeats for long
//!   explorations, and Prometheus / collapsed-stack exporters. The
//!   paper's step-complexity bounds are distributions, not means; this
//!   is the layer that records them losslessly.
//! * [`contention`] — contention profiling: per-cell hot-spot counters,
//!   stall attribution edges, and contention-charged step accounting
//!   (steps normalized by observed point contention, per Bender et
//!   al.) of one simulated run, exportable as a JSON heatmap and as
//!   labeled Prometheus series through the telemetry registry.
//! * [`flight`] — a wait-free flight recorder for the native backend:
//!   per-thread drop-oldest event rings (op begin/end, read retries,
//!   ticket draws, slot choices) drained into Chrome-trace/Perfetto
//!   JSON, the telemetry registry, or reconstructed op histories for
//!   online linearizability spot-checks. Op stamps are fenced
//!   cycle-counter reads ([`flight::stamp`]), so a recorded interval
//!   contains the op's true one with the threads running free.

// Unsafe is denied crate-wide and allowed back in exactly two places:
// `native::buffered`, whose multi-slot cells need `UnsafeCell` slot
// storage (each use is justified by the protocol proof in that module),
// and `flight::stamp::tsc`, the `rdtsc` and `lfence` intrinsics behind
// the flight recorder's stamps (no preconditions on x86-64, no memory
// touched). CI holds the list to those two files.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod crash;
pub mod ctx;
pub mod flight;
pub mod json;
pub mod native;
pub mod seed;
pub mod sim;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use contention::{CellStats, ContentionMap, ContentionProfiler, CHARGE_UNIT};
pub use ctx::{AccessKind, Matrix, MatrixView, MemCtx, OffsetCtx, ProcId};
pub use flight::{FlightEvent, FlightLog, FlightMode, FlightRecorder, FlightRing, OpSpan};
pub use json::Json;
pub use native::{AtomicPackable, CachePadded, NativeCtx, NativeMemory};
pub use sim::{
    resolve_threads, wilson_interval, Budget, Budgeted, CertViolation, Certificate, CertifyConfig,
    Decision, ExploreConfig, ExploreStats, FaultPlan, Faulty, ProcBody, SampleConfig, SampleReport,
    SampleViolation, Sampler, SchedView, ShrinkReport, SimBuilder, SimCtx, SimOutcome, Strategy,
    ViolationKind,
};
pub use span::{SpanNode, SpanRecorder};
pub use telemetry::{
    escape_label_value, validate_prometheus, CounterHandle, CountingCtx, Heartbeat,
    HistogramHandle, HistogramSnapshot, ProgressBeat, StepHistogram, TelemetryRegistry,
};
pub use trace::{StepCounts, Trace, TraceEvent};
