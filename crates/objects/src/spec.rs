//! The native object factory: one uniform way to build and drive every
//! servable object.
//!
//! Before this module, each call site that wanted "a counter on the
//! packed tier with a flight recorder" wrote its own constructor
//! plumbing — E13, E14, and any new consumer each grew a per-object
//! `match`. The factory collapses those into data:
//!
//! * [`ObjectSpec`] — a named recipe: which [`Tier`]s apply, the
//!   benchmark op budget, op labels, and [`ObjectSpec::build`], which
//!   assembles the object and its [`apram_model::NativeMemory`] from a
//!   [`BuildCtx`];
//! * [`ObjectInstance`] — a built object: hands out per-process
//!   [`ObjectSession`]s and exposes the memory-global observability
//!   surface (protocol counters, flight drain, Prometheus export);
//! * [`ObjectSession`] — a process's handle: every operation is
//!   `op(code, a, b) -> OpOutput` with the session bracketing the op in
//!   [`apram_model::NativeCtx::op_begin`]/`op_end` (one predictable
//!   branch when no recorder is attached, so raw-throughput cells pay
//!   nothing).
//!
//! The registry ([`native_specs`]/[`native_spec`]) is what lets the
//! `apram-serve` dispatch table, the E13/E14 grids, and the E15 load
//! driver instantiate objects from a name + params with no per-object
//! match arms.
//!
//! Op-argument conventions (what `a`/`b` mean and what the flight
//! recorder's `arg` stores) are per-object and documented on each
//! session; they are chosen so that a drained
//! [`apram_model::OpSpan`] alone suffices to reconstruct the logical
//! operation for linearizability audits.

use crate::clock::LamportClock;
use crate::lwwmap::{DirectLwwMap, LwwMapSpec, MapOp, MapResp};
use crate::maxreg::DirectMaxRegister;
use crate::striped::StripedCounter;
use apram_core::universal::UniversalReg;
use apram_core::Universal;
use apram_history::ProcId;
use apram_lattice::MaxI64;
use apram_model::flight::DEFAULT_FLIGHT_CAPACITY;
use apram_model::telemetry::TelemetryRegistry;
use apram_model::{AtomicPackable, FlightLog, FlightMode, MemCtx, NativeCtx, NativeMemory};
use apram_snapshot::afek::{AfekReg, AfekSnapshot};

/// Flight-op code: the object's update operation (inc / write_max /
/// tick / update / put / write).
pub const OP_UPDATE: u32 = 0;
/// Flight-op code: the object's read operation (read / now / snap /
/// get).
pub const OP_READ: u32 = 1;

/// A register-file tier, as a value the grids and the service config
/// can carry around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// One padded `AtomicU64` per register (word-packable values only).
    Packed,
    /// Announce/validate (SWMR) or ticketed (MWMR) multi-slot cells —
    /// the default for arbitrary `Clone` values.
    Buffered,
    /// The lock-per-register baseline. Building on this tier requires
    /// the `rwlock-baseline` feature; it exists in the enum
    /// unconditionally so tier grids are feature-independent data.
    Rwlock,
}

impl Tier {
    /// The canonical name (matches [`apram_model::NativeMemory::tier`]).
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Packed => "packed",
            Tier::Buffered => "buffered",
            Tier::Rwlock => "rwlock",
        }
    }

    /// Parse a canonical tier name.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "packed" => Some(Tier::Packed),
            "buffered" => Some(Tier::Buffered),
            "rwlock" => Some(Tier::Rwlock),
            _ => None,
        }
    }
}

/// Everything [`ObjectSpec::build`] needs to assemble an instance.
#[derive(Clone, Debug)]
pub struct BuildCtx {
    /// Processes sharing the object (one [`ObjectSession`] per id).
    pub procs: usize,
    /// Register-file tier (must be one of the spec's
    /// [`ObjectSpec::tiers`]).
    pub tier: Tier,
    /// Flight-recorder mode ([`FlightMode::Off`] costs one branch per
    /// op).
    pub flight: FlightMode,
    /// Per-process flight ring capacity (events).
    pub flight_capacity: usize,
    /// Key slots for the keyed objects (the LWW maps); ignored by the
    /// rest.
    pub keys: usize,
}

impl BuildCtx {
    /// A context with the recorder off and the default key-slot count.
    pub fn new(procs: usize, tier: Tier) -> Self {
        BuildCtx {
            procs,
            tier,
            flight: FlightMode::Off,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            keys: 8,
        }
    }

    /// Attach a flight recorder.
    pub fn flight(mut self, mode: FlightMode, capacity: usize) -> Self {
        self.flight = mode;
        self.flight_capacity = capacity;
        self
    }

    /// Set the key-slot count for keyed objects.
    pub fn keys(mut self, keys: usize) -> Self {
        self.keys = keys;
        self
    }
}

/// What one operation returned, before wire/flight encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutput {
    /// A plain value (counter totals, clock stamps, register reads).
    Val(u64),
    /// An optional value (max-register and map reads). Encoded with the
    /// `u64::MAX` sentinel, so stored values must stay below it.
    Opt(Option<u64>),
    /// A snapshot view (one slot per process).
    View(Vec<Option<u64>>),
}

impl OpOutput {
    /// The single-word encoding (what `op_end` records as the response:
    /// the value, the [`encode_opt`] sentinel form, or a view's length).
    pub fn encode(&self) -> u64 {
        match self {
            OpOutput::Val(v) => *v,
            OpOutput::Opt(v) => encode_opt_u64(*v),
            OpOutput::View(view) => view.len() as u64,
        }
    }
}

/// `None` ↦ `u64::MAX`, `Some(v)` ↦ `v as u64` — the span/wire encoding
/// of optional reads (workloads only store non-negative values, so the
/// sentinel is free).
pub fn encode_opt(v: Option<i64>) -> u64 {
    v.map(|x| x as u64).unwrap_or(u64::MAX)
}

/// Inverse of [`encode_opt`].
pub fn decode_opt(resp: u64) -> Option<i64> {
    (resp != u64::MAX).then_some(resp as i64)
}

fn encode_opt_u64(v: Option<u64>) -> u64 {
    v.unwrap_or(u64::MAX)
}

/// A process's handle on a built object: all operations funnel through
/// one uniform entry point. Implementations bracket each op with
/// `op_begin`/`op_end` so flight recording works identically across
/// objects and call sites.
pub trait ObjectSession: Send {
    /// Execute op `code` ([`OP_UPDATE`] / [`OP_READ`]) with arguments
    /// `a` and `b`; see each object's session docs for what the
    /// arguments mean. Panics on an unknown code (callers validate
    /// codes at their own boundary — the wire protocol rejects bad
    /// opcodes before dispatch).
    fn op(&mut self, code: u32, a: u64, b: u64) -> OpOutput;
}

/// A built object plus its shared memory: the factory's output.
pub trait ObjectInstance: Send + Sync {
    /// A session for process `proc` (at most one live session per id —
    /// the SWMR/flight-ring ownership discipline).
    fn session(&self, proc: ProcId) -> Box<dyn ObjectSession>;
    /// The memory's register-file tier label.
    fn tier(&self) -> &'static str;
    /// Buffered-tier reader validation retries (memory-global).
    fn read_retries(&self) -> u64;
    /// MWMR hardware tickets drawn (memory-global).
    fn ticket_draws(&self) -> u64;
    /// Drain the flight recorder (`None` when built with
    /// [`FlightMode::Off`]).
    fn flight_log(&self) -> Option<FlightLog>;
    /// Delta-aware Prometheus export + flight drain; see
    /// [`apram_model::NativeMemory::snapshot_prometheus`].
    fn snapshot_prometheus(&self, registry: &TelemetryRegistry, object: &str) -> Option<FlightLog>;
}

/// A named object recipe in the registry.
pub trait ObjectSpec: Sync {
    /// Registry name (`counter`, `maxreg`, `clock`, `afek`, `mwreg`,
    /// `lwwmap`, `lwwmap-direct`).
    fn name(&self) -> &'static str;
    /// Applicable tiers, preferred first (the grids iterate all of
    /// them; single-tier consumers take `tiers()[0]`).
    fn tiers(&self) -> &'static [Tier];
    /// Benchmark iteration budget `(base, floor)`: a grid cell runs
    /// `(base / threads).max(floor)` iterations per thread.
    fn ops_budget(&self, quick: bool) -> (u64, u64);
    /// Human-readable op label for traces and metrics.
    fn op_label(&self, code: u32) -> &'static str;
    /// Assemble the object and its memory.
    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance>;
}

/// The registry names, in canonical order.
pub const NATIVE_OBJECTS: [&str; 7] = [
    "counter",
    "maxreg",
    "clock",
    "afek",
    "mwreg",
    "lwwmap",
    "lwwmap-direct",
];

/// Every registered spec, in [`NATIVE_OBJECTS`] order.
pub fn native_specs() -> &'static [&'static dyn ObjectSpec] {
    static SPECS: [&dyn ObjectSpec; 7] = [
        &CounterObject,
        &MaxRegObject,
        &ClockObject,
        &AfekObject,
        &MwRegObject,
        &LwwMapObject,
        &LwwDirectObject,
    ];
    &SPECS
}

/// Look up a spec by registry name.
pub fn native_spec(name: &str) -> Option<&'static dyn ObjectSpec> {
    native_specs().iter().find(|s| s.name() == name).copied()
}

// ---------------------------------------------------------------------------
// Memory assembly helpers

fn attach<T: Clone>(mem: NativeMemory<T>, b: &BuildCtx) -> NativeMemory<T> {
    mem.with_flight(b.flight, b.flight_capacity)
}

/// A memory on `b.tier` for an arbitrary `Clone` register type (the
/// packed tier does not apply).
fn wide_mem<T: Clone>(b: &BuildCtx, regs: Vec<T>, owners: Option<Vec<ProcId>>) -> NativeMemory<T> {
    let mem = match b.tier {
        Tier::Buffered => NativeMemory::new(b.procs, regs),
        #[cfg(feature = "rwlock-baseline")]
        Tier::Rwlock => NativeMemory::new_locked(b.procs, regs),
        #[cfg(not(feature = "rwlock-baseline"))]
        Tier::Rwlock => panic!("the rwlock tier requires the `rwlock-baseline` feature"),
        Tier::Packed => panic!("this object's registers are not word-packable"),
    };
    let mem = match owners {
        Some(o) => mem.with_owners(o),
        None => mem,
    };
    attach(mem, b)
}

/// A memory on `b.tier` for a word-packable register type (all tiers
/// apply).
fn packable_mem<T: AtomicPackable + Clone>(
    b: &BuildCtx,
    regs: Vec<T>,
    owners: Vec<ProcId>,
) -> NativeMemory<T> {
    match b.tier {
        Tier::Packed => attach(
            NativeMemory::new_packed(b.procs, regs).with_owners(owners),
            b,
        ),
        _ => wide_mem(b, regs, Some(owners)),
    }
}

/// The one generic [`ObjectInstance`]: a shared memory plus a closure
/// that wraps a fresh per-process context into the object's session.
struct Instance<T: Clone + Send + Sync + 'static> {
    mem: NativeMemory<T>,
    make: Box<dyn Fn(NativeCtx<T>) -> Box<dyn ObjectSession> + Send + Sync>,
}

impl<T: Clone + Send + Sync + 'static> ObjectInstance for Instance<T> {
    fn session(&self, proc: ProcId) -> Box<dyn ObjectSession> {
        (self.make)(self.mem.ctx(proc))
    }

    fn tier(&self) -> &'static str {
        self.mem.tier()
    }

    fn read_retries(&self) -> u64 {
        self.mem.read_retries()
    }

    fn ticket_draws(&self) -> u64 {
        self.mem.ticket_draws()
    }

    fn flight_log(&self) -> Option<FlightLog> {
        self.mem.flight_log()
    }

    fn snapshot_prometheus(&self, registry: &TelemetryRegistry, object: &str) -> Option<FlightLog> {
        self.mem.snapshot_prometheus(registry, object)
    }
}

// ---------------------------------------------------------------------------
// counter — striped counter, packed tier preferred

/// `counter`: the striped increment-only counter. `a`/`b` are ignored;
/// update is `inc` (span arg 1 = the increment amount), read returns
/// the collected total.
pub struct CounterObject;

struct CounterSession {
    h: crate::striped::StripedCounterHandle,
    ctx: NativeCtx<u64>,
}

impl ObjectSession for CounterSession {
    fn op(&mut self, code: u32, _a: u64, _b: u64) -> OpOutput {
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, 1);
                self.h.inc(&mut self.ctx);
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, 0);
                let v = self.h.read(&mut self.ctx);
                self.ctx.op_end(OP_READ, v);
                OpOutput::Val(v)
            }
            other => panic!("counter: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for CounterObject {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Packed, Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        // The counter is the object the CI gates ratio on, so its quick
        // budget stays large enough to average out scheduler noise.
        (if quick { 16_000 } else { 48_000 }, 100)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "inc"
        } else {
            "read"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let c = StripedCounter::new(b.procs);
        let mem = packable_mem(b, c.registers(), c.owners());
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| Box::new(CounterSession { h: c.handle(), ctx })),
        })
    }
}

// ---------------------------------------------------------------------------
// maxreg — direct max-register, packed tier preferred

/// `maxreg`: the direct max-register. Update writes `max(a as i64)`
/// (span arg `a`); read returns the current max as [`OpOutput::Opt`].
pub struct MaxRegObject;

struct MaxRegSession {
    h: crate::maxreg::DirectMaxRegisterHandle,
    ctx: NativeCtx<MaxI64>,
}

impl ObjectSession for MaxRegSession {
    fn op(&mut self, code: u32, a: u64, _b: u64) -> OpOutput {
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, a);
                self.h.write_max(&mut self.ctx, a as i64);
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, 0);
                let v = self.h.read(&mut self.ctx);
                self.ctx.op_end(OP_READ, encode_opt(v));
                OpOutput::Opt(v.map(|x| x as u64))
            }
            other => panic!("maxreg: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for MaxRegObject {
    fn name(&self) -> &'static str {
        "maxreg"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Packed, Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        (if quick { 600 } else { 6_000 }, 20)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "write_max"
        } else {
            "read"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let r = DirectMaxRegister::new(b.procs);
        let mem = packable_mem(b, r.registers(), r.owners());
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| Box::new(MaxRegSession { h: r.handle(), ctx })),
        })
    }
}

// ---------------------------------------------------------------------------
// clock — Lamport logical clock over the max-register

/// `clock`: the Lamport clock. Update is `tick` (returns and records
/// the fresh stamp's time; `a` is ignored — the tick derives its own
/// timestamp); read is `now`.
pub struct ClockObject;

struct ClockSession {
    h: crate::clock::LamportClockHandle,
    ctx: NativeCtx<MaxI64>,
}

impl ObjectSession for ClockSession {
    fn op(&mut self, code: u32, _a: u64, _b: u64) -> OpOutput {
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, 0);
                let stamp = self.h.tick(&mut self.ctx);
                self.ctx.op_end(OP_UPDATE, stamp.time as u64);
                OpOutput::Val(stamp.time as u64)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, 0);
                let t = self.h.now(&mut self.ctx);
                self.ctx.op_end(OP_READ, t as u64);
                OpOutput::Val(t as u64)
            }
            other => panic!("clock: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for ClockObject {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Packed, Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        // A tick is one max-register scan + one write: maxreg's budget.
        (if quick { 600 } else { 6_000 }, 20)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "tick"
        } else {
            "now"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let clk = LamportClock::new(b.procs);
        let mem = packable_mem(b, clk.registers(), clk.owners());
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| {
                Box::new(ClockSession {
                    h: clk.handle(),
                    ctx,
                })
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// afek — Afek et al. bounded snapshot, buffered tier (owner-mapped)

/// `afek`: the bounded single-writer snapshot. Update writes `a` into
/// this process's segment (span arg `a`); read is a full `snap`
/// returning the view (span resp = view length).
pub struct AfekObject;

struct AfekSession {
    snap: AfekSnapshot,
    ctx: NativeCtx<AfekReg<u64>>,
}

impl ObjectSession for AfekSession {
    fn op(&mut self, code: u32, a: u64, _b: u64) -> OpOutput {
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, a);
                self.snap.update(&mut self.ctx, a);
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, 0);
                let view = self.snap.snap::<u64, _>(&mut self.ctx);
                self.ctx.op_end(OP_READ, view.len() as u64);
                OpOutput::View(view)
            }
            other => panic!("afek: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for AfekObject {
    fn name(&self) -> &'static str {
        "afek"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        (if quick { 300 } else { 3_000 }, 10)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "update"
        } else {
            "snap"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let snap = AfekSnapshot::new(b.procs);
        let mem = wide_mem(b, snap.registers::<u64>(), Some(snap.owners()));
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| Box::new(AfekSession { snap, ctx })),
        })
    }
}

// ---------------------------------------------------------------------------
// mwreg — one unowned buffered register (the MWMR ticket path)

/// `mwreg`: a single multi-writer register with no owner map — every
/// write draws an MWMR hardware ticket, which is the point. Update
/// writes `a` (span arg `a`); read returns the register.
pub struct MwRegObject;

struct MwRegSession {
    ctx: NativeCtx<u64>,
}

impl ObjectSession for MwRegSession {
    fn op(&mut self, code: u32, a: u64, _b: u64) -> OpOutput {
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, a);
                self.ctx.write(0, a);
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, 0);
                let v = self.ctx.read(0);
                self.ctx.op_end(OP_READ, v);
                OpOutput::Val(v)
            }
            other => panic!("mwreg: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for MwRegObject {
    fn name(&self) -> &'static str {
        "mwreg"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        // One ticketed MWMR register, all threads hammering it: cheap
        // per op, so the budget matches maxreg.
        (if quick { 600 } else { 6_000 }, 20)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "write"
        } else {
            "read"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let mem = wide_mem(b, vec![0u64], None);
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| Box::new(MwRegSession { ctx })),
        })
    }
}

// ---------------------------------------------------------------------------
// lwwmap — the universal-construction map (certification workloads)

/// Pack a map op's key and value into one span arg word (`key` in the
/// high 32 bits), so audits can reconstruct `Put(key, value)` from the
/// span alone. Values must fit in 32 bits on audited workloads.
pub fn encode_map_arg(key: u32, value: u64) -> u64 {
    ((key as u64) << 32) | (value & u32::MAX as u64)
}

/// Inverse of [`encode_map_arg`].
pub fn decode_map_arg(arg: u64) -> (u32, u64) {
    ((arg >> 32) as u32, arg & u32::MAX as u64)
}

/// `lwwmap`: the LWW map through the Figure 4 universal construction.
/// Update is `put(a % keys, b)` (span arg = [`encode_map_arg`]); read
/// is `get(a % keys)`. Kept in the grids because measuring the
/// universal construction's replay cost *is* the experiment; the
/// serving path uses `lwwmap-direct`.
pub struct LwwMapObject;

struct UniMapSession {
    h: apram_core::universal::UniversalHandle<LwwMapSpec>,
    ctx: NativeCtx<UniversalReg<LwwMapSpec>>,
    keys: usize,
}

impl ObjectSession for UniMapSession {
    fn op(&mut self, code: u32, a: u64, b: u64) -> OpOutput {
        let key = (a % self.keys as u64) as u32;
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, encode_map_arg(key, b));
                let _ = self.h.execute(&mut self.ctx, MapOp::Put(key, b));
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, encode_map_arg(key, 0));
                let resp = self.h.execute(&mut self.ctx, MapOp::Get(key));
                let v = match resp {
                    MapResp::Value(v) => v,
                    other => panic!("lwwmap: Get returned {other:?}"),
                };
                self.ctx.op_end(OP_READ, encode_opt_u64(v));
                OpOutput::Opt(v)
            }
            other => panic!("lwwmap: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for LwwMapObject {
    fn name(&self) -> &'static str {
        "lwwmap"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        // Sized when the universal construction linearized its whole
        // history on every op. It now linearizes only what lies beyond
        // its absorbed prefix, but the budget is part of E13's
        // deterministic skeleton, so it stays.
        (if quick { 48 } else { 96 }, 3)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "put"
        } else {
            "get"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let uni = Universal::new(b.procs, LwwMapSpec);
        let mem = wide_mem(b, uni.registers(), Some(uni.owners()));
        let keys = b.keys;
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| {
                Box::new(UniMapSession {
                    h: uni.handle(),
                    ctx,
                    keys,
                })
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// lwwmap-direct — one atomic MWMR register per key slot (serving path)

/// `lwwmap-direct`: the direct LWW map — one unowned multi-writer
/// register per key slot, one register access per op. Update is
/// `put(a % keys, b)` (span arg = [`encode_map_arg`] with the *slot*
/// as the key); read is `get(a % keys)`.
pub struct LwwDirectObject;

struct DirectMapSession {
    h: crate::lwwmap::DirectLwwMapHandle,
    ctx: NativeCtx<Option<u64>>,
    keys: usize,
}

impl ObjectSession for DirectMapSession {
    fn op(&mut self, code: u32, a: u64, b: u64) -> OpOutput {
        let key = (a % self.keys as u64) as u32;
        match code {
            OP_UPDATE => {
                self.ctx.op_begin(OP_UPDATE, encode_map_arg(key, b));
                self.h.put(&mut self.ctx, key, b);
                self.ctx.op_end(OP_UPDATE, 0);
                OpOutput::Val(0)
            }
            OP_READ => {
                self.ctx.op_begin(OP_READ, encode_map_arg(key, 0));
                let v = self.h.get(&mut self.ctx, key);
                self.ctx.op_end(OP_READ, encode_opt_u64(v));
                OpOutput::Opt(v)
            }
            other => panic!("lwwmap-direct: unknown op code {other}"),
        }
    }
}

impl ObjectSpec for LwwDirectObject {
    fn name(&self) -> &'static str {
        "lwwmap-direct"
    }

    fn tiers(&self) -> &'static [Tier] {
        &[Tier::Buffered, Tier::Rwlock]
    }

    fn ops_budget(&self, quick: bool) -> (u64, u64) {
        // One ticketed register access per op: mwreg's budget.
        (if quick { 600 } else { 6_000 }, 20)
    }

    fn op_label(&self, code: u32) -> &'static str {
        if code == OP_UPDATE {
            "put"
        } else {
            "get"
        }
    }

    fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        let map = DirectLwwMap::new(b.keys);
        let mem = wide_mem(b, map.registers(), None);
        let keys = b.keys;
        Box::new(Instance {
            mem,
            make: Box::new(move |ctx| {
                Box::new(DirectMapSession {
                    h: map.handle(),
                    ctx,
                    keys,
                })
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_consistent() {
        assert_eq!(native_specs().len(), NATIVE_OBJECTS.len());
        for (spec, name) in native_specs().iter().zip(NATIVE_OBJECTS) {
            assert_eq!(spec.name(), name);
            assert!(!spec.tiers().is_empty(), "{name}");
            let (base, floor) = spec.ops_budget(true);
            assert!(base >= floor && floor > 0, "{name}");
            assert_ne!(spec.op_label(OP_UPDATE), spec.op_label(OP_READ), "{name}");
        }
        assert!(native_spec("counter").is_some());
        assert!(native_spec("nope").is_none());
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in [Tier::Packed, Tier::Buffered, Tier::Rwlock] {
            assert_eq!(Tier::parse(tier.label()), Some(tier));
        }
        assert_eq!(Tier::parse("nope"), None);
    }

    #[test]
    fn map_arg_round_trips() {
        for (k, v) in [(0u32, 0u64), (7, 41), (u32::MAX, u32::MAX as u64)] {
            assert_eq!(decode_map_arg(encode_map_arg(k, v)), (k, v));
        }
    }

    /// Every spec builds on its preferred tier and serves coherent
    /// sessions: an update followed by a read observes *something*
    /// (exact semantics are each object's own tests' business).
    #[test]
    fn every_spec_builds_and_serves() {
        for spec in native_specs() {
            let b = BuildCtx::new(2, spec.tiers()[0]);
            let inst = spec.build(&b);
            assert_eq!(inst.tier(), spec.tiers()[0].label(), "{}", spec.name());
            let mut s0 = inst.session(0);
            let mut s1 = inst.session(1);
            s0.op(OP_UPDATE, 3, 7);
            s1.op(OP_UPDATE, 3, 9);
            let out = s0.op(OP_READ, 3, 0);
            match (spec.name(), &out) {
                ("counter", OpOutput::Val(v)) => assert_eq!(*v, 2),
                ("maxreg", OpOutput::Opt(v)) => assert_eq!(*v, Some(3)),
                ("clock", OpOutput::Val(v)) => assert!(*v >= 2),
                ("afek", OpOutput::View(view)) => {
                    assert_eq!(view.len(), 2);
                    assert_eq!(view[0], Some(3));
                }
                ("mwreg", OpOutput::Val(v)) => assert!(*v == 3 || *v == 9),
                ("lwwmap" | "lwwmap-direct", OpOutput::Opt(v)) => {
                    assert!(*v == Some(7) || *v == Some(9), "{:?}", out)
                }
                other => panic!("unexpected output shape: {other:?}"),
            }
            assert!(inst.flight_log().is_none(), "recorder off by default");
        }
    }

    /// Sessions bracket ops with `op_begin`/`op_end`: with the recorder
    /// always on, each iteration leaves reconstructable spans whose
    /// resp matches the session's encoded output.
    #[test]
    fn sessions_record_spans_when_flight_on() {
        for spec in native_specs() {
            let b = BuildCtx::new(1, spec.tiers()[0]).flight(FlightMode::Always, 1 << 10);
            let inst = spec.build(&b);
            let mut s = inst.session(0);
            s.op(OP_UPDATE, 5, 6);
            let out = s.op(OP_READ, 5, 0);
            let log = inst.flight_log().expect("recorder attached");
            assert_eq!(log.dropped, 0, "{}", spec.name());
            let spans = log.op_spans();
            assert_eq!(spans.len(), 2, "{}", spec.name());
            assert_eq!(spans[0].op, OP_UPDATE, "{}", spec.name());
            assert_eq!(spans[1].op, OP_READ, "{}", spec.name());
            assert_eq!(spans[1].resp, out.encode(), "{}", spec.name());
        }
    }

    #[test]
    fn snapshot_prometheus_is_delta_correct_across_scrapes() {
        let spec = native_spec("mwreg").unwrap();
        let inst = spec.build(&BuildCtx::new(2, Tier::Buffered));
        let reg = TelemetryRegistry::new(1);
        let mut s = inst.session(0);
        s.op(OP_UPDATE, 1, 0);
        inst.snapshot_prometheus(&reg, "mwreg");
        s.op(OP_UPDATE, 2, 0);
        s.op(OP_UPDATE, 3, 0);
        inst.snapshot_prometheus(&reg, "mwreg");
        // Three writes total; two scrapes must not double-count the
        // first one.
        assert_eq!(
            reg.labeled_counter_total("native_ticket_draws", &[("object", "mwreg")]),
            Some(3)
        );
    }
}
