//! The native object table: every servable object described once, and
//! one uniform way to build and drive it.
//!
//! An object *is* its algebra (paper §5): what its operations take, how
//! they combine across copies, and what sequential object they must
//! linearize to. [`ObjectSpec`] writes that down as one row of a
//! `static` table, and every consumer reads the row instead of
//! re-deriving it from the name:
//!
//! * `name`, `tiers`, `build` — what [`native_spec`] callers (the
//!   `apram-serve` table, the E13/E14 grids, the repo benchmark) need to
//!   assemble an [`ObjectInstance`] on a [`Tier`] from a [`BuildCtx`];
//! * `budget`, `labels` — E13/E14's iteration budget and the op names
//!   traces and metrics print;
//! * [`args`](ObjectSpec::args) — the argument convention ([`Args`]):
//!   what `a`/`b` mean to [`ObjectSession::op`], read by the load
//!   driver to issue ops and by the session to encode a span's `arg`;
//! * [`merge`](ObjectSpec::merge) — the shard-merge algebra ([`Merge`]),
//!   read by the serve table to route updates and combine reads;
//! * [`audit`](ObjectSpec::audit) — span → typed op reconstruction plus
//!   the check against the object's sequential spec, read by
//!   `apram-serve`'s offline audit, E14's spot-check and E15.
//!
//! A built [`ObjectInstance`] hands out per-process [`ObjectSession`]s
//! and exposes the memory-global observability surface (protocol
//! counters, flight drain, Prometheus export). There is one session
//! type: it brackets every op in [`NativeCtx::op_begin`]/`op_end` (one
//! predictable branch when no recorder is attached) and records as the
//! span's `resp` the encoding of the very [`OpOutput`] it returns, so a
//! drained [`OpSpan`] alone reconstructs the logical operation. Per
//! object there is a row, a `build` and the two operation bodies.

use crate::clock::{LamportClock, LamportClockHandle};
use crate::lwwmap::{DirectLwwMap, DirectLwwMapHandle, LwwMapSpec, MapOp, MapResp};
use crate::maxreg::{DirectMaxRegister, DirectMaxRegisterHandle, MaxRegOp, MaxRegResp, MaxRegSpec};
use crate::striped::{StripedCounter, StripedCounterHandle};
use apram_core::counter::{CounterOp, CounterResp};
use apram_core::universal::{UniversalHandle, UniversalReg};
use apram_core::{CounterSpec, Universal};
use apram_history::spec::{RegOp, RegResp, RegisterSpec};
use apram_history::{
    check_histories_parallel, history_from_spans, CheckOutcome, CheckerConfig, NondetSpec, ProcId,
};
use apram_lattice::MaxI64;
use apram_model::flight::DEFAULT_FLIGHT_CAPACITY;
pub use apram_model::native::Tier;
use apram_model::telemetry::TelemetryRegistry;
use apram_model::{AtomicPackable, FlightLog, FlightMode, MemCtx, NativeCtx, NativeMemory, OpSpan};
use apram_snapshot::afek::{AfekHandle, AfekReg, AfekSnapshot};
use apram_snapshot::{SnapOp, SnapResp, SnapshotSpec};

/// Flight-op code: the object's update operation (inc / write_max /
/// tick / update / put / write).
pub const OP_UPDATE: u32 = 0;
/// Flight-op code: the object's read operation (read / now / snap /
/// get).
pub const OP_READ: u32 = 1;

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
    /// Key slots for the [`Args::KeyValue`] objects (at least one);
    /// ignored by the rest.
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
    /// The single-word encoding (what the session records as the span's
    /// response: the value, the [`encode_opt`] sentinel form, or a
    /// view's length — a view is the one output a span cannot carry).
    pub fn encode(&self) -> u64 {
        match self {
            OpOutput::Val(v) => *v,
            OpOutput::Opt(v) => encode_opt(*v),
            OpOutput::View(view) => view.len() as u64,
        }
    }
}

/// `None` ↦ `u64::MAX`, `Some(v)` ↦ `v` — the span/wire encoding of
/// optional reads (workloads only store smaller values, so the sentinel
/// is free).
pub fn encode_opt(v: Option<u64>) -> u64 {
    v.unwrap_or(u64::MAX)
}

/// Inverse of [`encode_opt`].
pub fn decode_opt(resp: u64) -> Option<u64> {
    (resp != u64::MAX).then_some(resp)
}

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

/// A process's handle on a built object: all operations funnel through
/// one uniform entry point, bracketed with `op_begin`/`op_end` so flight
/// recording works identically across objects and call sites.
pub trait ObjectSession: Send {
    /// Execute op `code` ([`OP_UPDATE`] / [`OP_READ`]) with arguments
    /// `a` and `b`, which mean what the object's [`ObjectSpec::args`]
    /// says. Panics on an unknown code (callers validate codes at their
    /// own boundary — the wire protocol rejects bad opcodes before
    /// dispatch).
    fn op(&mut self, code: u32, a: u64, b: u64) -> OpOutput;
}

/// A built object plus its shared memory: the factory's output.
pub trait ObjectInstance: Send + Sync {
    /// A session for process `proc` (at most one live session per id —
    /// the SWMR/flight-ring ownership discipline).
    fn session(&self, proc: ProcId) -> Box<dyn ObjectSession>;
    /// The memory's register-file tier.
    fn tier(&self) -> Tier;
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

/// The argument convention: what `a` and `b` of [`ObjectSession::op`]
/// mean, and with them what a span's `arg` word records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Args {
    /// Neither op takes an argument; `a`, `b` are ignored, `arg` is 0.
    None,
    /// Update takes a value in `a` (recorded as `arg`); read takes
    /// nothing.
    Value,
    /// Update takes a key in `a` and a value in `b`, read a key in `a`.
    /// The key is reduced modulo [`BuildCtx::keys`]; `arg` is
    /// [`encode_map_arg`] of the reduced key and the value (0 on reads).
    KeyValue,
}

/// The shard-merge algebra: how an object striped over independent
/// copies routes its updates and combines its reads. Which one is sound
/// for which object is argued in `apram-serve`'s table module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Reads sum over shards (commuting increments).
    Sum,
    /// Reads take the lattice max over shards.
    Max,
    /// Both ops route by `a % shards`; no merge.
    Keyed,
    /// Both ops stay on the slot's affinity shard.
    Affinity,
    /// Sharding does not apply; everything on shard 0.
    Single,
}

/// One history for an [`ObjectSpec::audit`]: a drained recorder's op
/// spans, complete and per process in program order.
#[derive(Clone, Debug, Default)]
pub struct AuditWindow {
    /// The spans ([`FlightLog::op_spans`]).
    pub spans: Vec<OpSpan>,
    /// What the op of `spans[i]` returned, as `outputs[i]`. Only a row
    /// whose read does not fit a span's response word needs them (`afek`:
    /// the word holds the view's length); a caller that kept none leaves
    /// this empty.
    pub outputs: Vec<OpOutput>,
}

/// An audit: reconstruct each window's typed history and check the
/// batch against the object's sequential spec on `threads` checker
/// threads (0 = all available parallelism), one outcome per window.
pub type Audit = fn(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome>;

/// One servable object, described once: a row of the table behind
/// [`native_specs`].
pub struct ObjectSpec {
    name: &'static str,
    tiers: &'static [Tier],
    /// E13/E14 iteration budget: `(quick base, full base, floor)`.
    budget: (u64, u64, u64),
    /// Op labels, indexed by op code.
    labels: [&'static str; 2],
    /// What `a`/`b` mean to this object's sessions.
    pub args: Args,
    /// How shards of this object combine.
    pub merge: Merge,
    build: fn(&BuildCtx) -> Box<dyn ObjectInstance>,
    /// The check of recorded windows against the object's sequential
    /// spec: [`CounterSpec`], [`MaxRegSpec`], [`LwwMapSpec`] for both
    /// maps, [`RegisterSpec`] for `mwreg`, [`SnapshotSpec`] for `afek`
    /// (a snap whose view the caller did not supply reconstructs as the
    /// empty view, which no state returns: rejected, never passed).
    /// `None` where the repo has no sequential spec (`clock`).
    pub audit: Option<Audit>,
}

impl ObjectSpec {
    /// Registry name (one of [`NATIVE_OBJECTS`]).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Applicable tiers, preferred first (the grids iterate all of
    /// them; single-tier consumers take `tiers()[0]`).
    pub fn tiers(&self) -> &'static [Tier] {
        self.tiers
    }

    /// Benchmark iteration budget `(base, floor)`: a grid cell runs
    /// `(base / threads).max(floor)` iterations per thread.
    pub fn ops_budget(&self, quick: bool) -> (u64, u64) {
        let (quick_base, full_base, floor) = self.budget;
        (if quick { quick_base } else { full_base }, floor)
    }

    /// Human-readable op label for traces and metrics.
    pub fn op_label(&self, code: u32) -> &'static str {
        self.labels[(code != OP_UPDATE) as usize]
    }

    /// Assemble the object and its memory.
    pub fn build(&self, b: &BuildCtx) -> Box<dyn ObjectInstance> {
        (self.build)(b)
    }
}

const ALL_TIERS: &[Tier] = &[Tier::Packed, Tier::Buffered, Tier::Rwlock];
const WIDE_TIERS: &[Tier] = &[Tier::Buffered, Tier::Rwlock];

static SPECS: [ObjectSpec; 7] = [
    // The striped increment-only counter. The CI gates ratio on it, so
    // its quick budget stays large enough to average out scheduler noise.
    ObjectSpec {
        name: "counter",
        tiers: ALL_TIERS,
        budget: (16_000, 48_000, 100),
        labels: ["inc", "read"],
        args: StripedCounterHandle::ARGS,
        merge: Merge::Sum,
        build: build_counter,
        audit: Some(audit_counter),
    },
    // The direct max-register.
    ObjectSpec {
        name: "maxreg",
        tiers: ALL_TIERS,
        budget: (600, 6_000, 20),
        labels: ["write_max", "read"],
        args: DirectMaxRegisterHandle::ARGS,
        merge: Merge::Max,
        build: build_maxreg,
        audit: Some(audit_maxreg),
    },
    // The Lamport clock over the max-register. A tick is one scan + one
    // write: maxreg's budget.
    ObjectSpec {
        name: "clock",
        tiers: ALL_TIERS,
        budget: (600, 6_000, 20),
        labels: ["tick", "now"],
        args: LamportClockHandle::ARGS,
        merge: Merge::Max,
        build: build_clock,
        audit: None,
    },
    // The Afek et al. single-writer snapshot, unbounded-sequence-number
    // form (owner-mapped).
    ObjectSpec {
        name: "afek",
        tiers: WIDE_TIERS,
        budget: (300, 3_000, 10),
        labels: ["update", "snap"],
        args: AfekHandle::<u64>::ARGS,
        merge: Merge::Affinity,
        build: build_afek,
        audit: Some(audit_afek),
    },
    // One unowned buffered register, all threads hammering it — every
    // write draws an MWMR hardware ticket, which is the point. Cheap per
    // op, so the budget matches maxreg.
    ObjectSpec {
        name: "mwreg",
        tiers: WIDE_TIERS,
        budget: (600, 6_000, 20),
        labels: ["write", "read"],
        args: Register::ARGS,
        merge: Merge::Single,
        build: build_mwreg,
        audit: Some(audit_mwreg),
    },
    // The LWW map through the Figure 4 universal construction. Kept in
    // the grids because measuring the construction's replay cost *is*
    // the experiment; the serving path uses `lwwmap-direct`. The budget
    // was sized when every op linearized the whole history; it is part
    // of E13's deterministic skeleton, so it stays.
    ObjectSpec {
        name: "lwwmap",
        tiers: WIDE_TIERS,
        budget: (48, 96, 3),
        labels: ["put", "get"],
        args: UniversalHandle::<LwwMapSpec>::ARGS,
        merge: Merge::Keyed,
        build: build_lwwmap,
        audit: Some(audit_map),
    },
    // The direct LWW map: one unowned multi-writer register per key
    // slot, one ticketed register access per op — mwreg's budget.
    ObjectSpec {
        name: "lwwmap-direct",
        tiers: WIDE_TIERS,
        budget: (600, 6_000, 20),
        labels: ["put", "get"],
        args: DirectLwwMapHandle::ARGS,
        merge: Merge::Keyed,
        build: build_lwwmap_direct,
        audit: Some(audit_map),
    },
];

/// The registry names, in table order.
pub const NATIVE_OBJECTS: [&str; 7] = {
    let mut names = [""; 7];
    let mut i = 0;
    while i < names.len() {
        names[i] = SPECS[i].name;
        i += 1;
    }
    names
};

/// Every row of the table, in [`NATIVE_OBJECTS`] order.
pub fn native_specs() -> &'static [ObjectSpec] {
    &SPECS
}

/// Look up a row by registry name.
pub fn native_spec(name: &str) -> Option<&'static ObjectSpec> {
    SPECS.iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Memory assembly helpers

/// A memory on `b.tier` for an arbitrary `Clone` register type (the
/// packed tier does not apply).
fn wide_mem<T: Clone>(b: &BuildCtx, regs: Vec<T>, owners: Option<Vec<ProcId>>) -> NativeMemory<T> {
    let mem = match b.tier {
        Tier::Buffered => NativeMemory::new(b.procs, regs),
        Tier::Rwlock => NativeMemory::new_locked(b.procs, regs),
        Tier::Packed => panic!("this object's registers are not word-packable"),
    };
    let mem = match owners {
        Some(o) => mem.with_owners(o),
        None => mem,
    };
    mem.with_flight(b.flight, b.flight_capacity)
}

/// A memory on `b.tier` for a word-packable register type (all tiers
/// apply).
fn packable_mem<T: AtomicPackable + Clone>(
    b: &BuildCtx,
    regs: Vec<T>,
    owners: Vec<ProcId>,
) -> NativeMemory<T> {
    match b.tier {
        Tier::Packed => NativeMemory::new_packed(b.procs, regs)
            .with_owners(owners)
            .with_flight(b.flight, b.flight_capacity),
        _ => wide_mem(b, regs, Some(owners)),
    }
}

// ---------------------------------------------------------------------------
// The one instance and the one session

/// What is per object on the op path, implemented on the object's
/// per-process handle: its register type, its argument convention and
/// its two operation bodies. `a` arrives as [`Args`] defines it (a key
/// already reduced).
///
/// Every implementation marks both bodies `#[inline]`, so that each
/// lands in its session's `op` whatever code unit the compiler puts the
/// session in. A body left out of line returns its [`OpOutput`] through
/// memory, and `op` then assembles both bodies' results in one stack
/// temporary that it reloads whole, before the stores into it have
/// retired. On a 2-vCPU x86-64 VM that doubled a served counter read
/// (28 → 57 ns) with the counter's own instructions unchanged.
trait Body: Send + 'static {
    type Reg: Clone + Send + Sync + 'static;
    const ARGS: Args;
    fn update(&mut self, ctx: &mut NativeCtx<Self::Reg>, a: u64, b: u64) -> OpOutput;
    fn read(&mut self, ctx: &mut NativeCtx<Self::Reg>, a: u64) -> OpOutput;
}

/// The one [`ObjectInstance`]: a shared memory plus what makes a fresh
/// per-process handle.
struct Instance<B: Body, F> {
    mem: NativeMemory<B::Reg>,
    handle: F,
    keys: u64,
}

fn instance<B: Body>(
    b: &BuildCtx,
    mem: NativeMemory<B::Reg>,
    handle: impl Fn() -> B + Send + Sync + 'static,
) -> Box<dyn ObjectInstance> {
    let keys = b.keys as u64;
    assert!(
        B::ARGS != Args::KeyValue || keys > 0,
        "a keyed object needs at least one key slot"
    );
    Box::new(Instance { mem, handle, keys })
}

impl<B: Body, F: Fn() -> B + Send + Sync> ObjectInstance for Instance<B, F> {
    fn session(&self, proc: ProcId) -> Box<dyn ObjectSession> {
        Box::new(Session {
            body: (self.handle)(),
            ctx: self.mem.ctx(proc),
            keys: self.keys,
        })
    }

    fn tier(&self) -> Tier {
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

/// The one [`ObjectSession`]: it owns the bracket, so a span's `arg` is
/// the [`Args`] encoding of what the body was given and its `resp` the
/// encoding of what the caller got back.
struct Session<B: Body> {
    body: B,
    ctx: NativeCtx<B::Reg>,
    keys: u64,
}

impl<B: Body> ObjectSession for Session<B> {
    fn op(&mut self, code: u32, a: u64, b: u64) -> OpOutput {
        assert!(
            code == OP_UPDATE || code == OP_READ,
            "unknown op code {code}"
        );
        let update = code == OP_UPDATE;
        let (a, arg) = match B::ARGS {
            Args::None => (0, 0),
            Args::Value => (a, if update { a } else { 0 }),
            Args::KeyValue => {
                let key = a % self.keys;
                let value = if update { b } else { 0 };
                (key, encode_map_arg(key as u32, value))
            }
        };
        self.ctx.op_begin(code, arg);
        let out = if update {
            self.body.update(&mut self.ctx, a, b)
        } else {
            self.body.read(&mut self.ctx, a)
        };
        self.ctx.op_end(code, out.encode());
        out
    }
}

// ---------------------------------------------------------------------------
// Per object: the two bodies, the build, the audit

impl Body for StripedCounterHandle {
    type Reg = u64;
    const ARGS: Args = Args::None;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<u64>, _a: u64, _b: u64) -> OpOutput {
        self.inc(ctx);
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<u64>, _a: u64) -> OpOutput {
        OpOutput::Val(StripedCounterHandle::read(self, ctx))
    }
}

fn build_counter(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let c = StripedCounter::new(b.procs);
    let mem = packable_mem(b, c.registers(), c.owners());
    instance(b, mem, move || c.handle())
}

impl Body for DirectMaxRegisterHandle {
    type Reg = MaxI64;
    const ARGS: Args = Args::Value;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<MaxI64>, a: u64, _b: u64) -> OpOutput {
        self.write_max(ctx, a as i64);
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<MaxI64>, _a: u64) -> OpOutput {
        OpOutput::Opt(DirectMaxRegisterHandle::read(self, ctx).map(|v| v as u64))
    }
}

fn build_maxreg(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let r = DirectMaxRegister::new(b.procs);
    let mem = packable_mem(b, r.registers(), r.owners());
    instance(b, mem, move || r.handle())
}

/// Update is `tick` and returns the fresh stamp's time (the tick derives
/// its own timestamp); read is `now`.
impl Body for LamportClockHandle {
    type Reg = MaxI64;
    const ARGS: Args = Args::None;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<MaxI64>, _a: u64, _b: u64) -> OpOutput {
        OpOutput::Val(self.tick(ctx).time as u64)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<MaxI64>, _a: u64) -> OpOutput {
        OpOutput::Val(self.now(ctx) as u64)
    }
}

fn build_clock(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let clk = LamportClock::new(b.procs);
    let mem = packable_mem(b, clk.registers(), clk.owners());
    instance(b, mem, move || clk.handle())
}

/// Update writes `a` into this process's segment; read is a full `snap`,
/// and the view it returns is the one allocation either op makes.
impl Body for AfekHandle<u64> {
    type Reg = AfekReg<u64>;
    const ARGS: Args = Args::Value;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<AfekReg<u64>>, a: u64, _b: u64) -> OpOutput {
        AfekHandle::update(self, ctx, a);
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<AfekReg<u64>>, _a: u64) -> OpOutput {
        OpOutput::View(self.snap(ctx))
    }
}

fn build_afek(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let snap = AfekSnapshot::new(b.procs);
    let mem = wide_mem(b, snap.registers::<u64>(), Some(snap.owners()));
    instance(b, mem, move || snap.handle())
}

/// A handle on one raw register of the file (`mwreg` is register 0 of a
/// one-register memory with no owner map).
struct Register(usize);

impl Body for Register {
    type Reg = u64;
    const ARGS: Args = Args::Value;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<u64>, a: u64, _b: u64) -> OpOutput {
        ctx.write(self.0, a);
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<u64>, _a: u64) -> OpOutput {
        OpOutput::Val(ctx.read(self.0))
    }
}

fn build_mwreg(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    instance(b, wide_mem(b, vec![0u64], None), || Register(0))
}

impl Body for UniversalHandle<LwwMapSpec> {
    type Reg = UniversalReg<LwwMapSpec>;
    const ARGS: Args = Args::KeyValue;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<Self::Reg>, key: u64, value: u64) -> OpOutput {
        let _ = self.execute(ctx, MapOp::Put(key as u32, value));
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<Self::Reg>, key: u64) -> OpOutput {
        match self.execute(ctx, MapOp::Get(key as u32)) {
            MapResp::Value(v) => OpOutput::Opt(v),
            other => panic!("lwwmap: Get returned {other:?}"),
        }
    }
}

fn build_lwwmap(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let uni = Universal::new(b.procs, LwwMapSpec);
    let mem = wide_mem(b, uni.registers(), Some(uni.owners()));
    instance(b, mem, move || uni.handle())
}

/// The span's key is the *slot*: the reduced key.
impl Body for DirectLwwMapHandle {
    type Reg = Option<u64>;
    const ARGS: Args = Args::KeyValue;

    #[inline]
    fn update(&mut self, ctx: &mut NativeCtx<Option<u64>>, key: u64, value: u64) -> OpOutput {
        self.put(ctx, key as u32, value);
        OpOutput::Val(0)
    }

    #[inline]
    fn read(&mut self, ctx: &mut NativeCtx<Option<u64>>, key: u64) -> OpOutput {
        OpOutput::Opt(self.get(ctx, key as u32))
    }
}

fn build_lwwmap_direct(b: &BuildCtx) -> Box<dyn ObjectInstance> {
    let map = DirectLwwMap::new(b.keys);
    let mem = wide_mem(b, map.registers(), None);
    instance(b, mem, move || map.handle())
}

// ---------------------------------------------------------------------------
// Audits: span → typed op, checked against the sequential spec

/// Rebuild one history per window — `typed` reads a span, with the
/// output the caller kept for it if any, as the spec's `(op, response)`
/// — and check the batch against `spec`.
fn check_windows<Sp>(
    spec: &Sp,
    windows: &[AuditWindow],
    threads: usize,
    typed: impl Fn(&OpSpan, Option<&OpOutput>) -> (Sp::Op, Sp::Resp),
) -> Vec<CheckOutcome>
where
    Sp: NondetSpec + Sync,
    Sp::State: std::hash::Hash + Eq,
    Sp::Op: Send + Sync,
    Sp::Resp: Send + Sync,
{
    let history = |w: &AuditWindow| {
        // `history_from_spans` hands back spans, not positions: number a
        // copy, so that each finds its typed pair.
        let typed = |(i, s)| typed(s, w.outputs.get(i));
        let pairs: Vec<_> = w.spans.iter().enumerate().map(typed).collect();
        let mut spans = w.spans.clone();
        (0..).zip(&mut spans).for_each(|(i, s)| s.resp = i);
        let pair = |s: &OpSpan| &pairs[s.resp as usize];
        history_from_spans(&spans, |s| pair(s).0.clone(), |s| pair(s).1.clone())
    };
    let batch: Vec<_> = windows.iter().map(history).collect();
    check_histories_parallel(spec, &batch, &CheckerConfig::default(), threads)
}

fn audit_counter(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome> {
    check_windows(&CounterSpec, windows, threads, |s, _| match s.op {
        OP_UPDATE => (CounterOp::Inc(1), CounterResp::Ack),
        _ => (CounterOp::Read, CounterResp::Value(s.resp as i64)),
    })
}

fn audit_maxreg(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome> {
    let max = |s: &OpSpan| decode_opt(s.resp).map(|v| v as i64);
    check_windows(&MaxRegSpec, windows, threads, |s, _| match s.op {
        OP_UPDATE => (MaxRegOp::WriteMax(s.arg as i64), MaxRegResp::Ack),
        _ => (MaxRegOp::Read, MaxRegResp::Value(max(s))),
    })
}

fn audit_afek(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome> {
    let view = |out: Option<&OpOutput>| match out {
        Some(OpOutput::View(view)) => view.to_vec(),
        _ => Vec::new(),
    };
    // One slot per process: as many as the widest view kept, or else as
    // the highest process seen.
    let kept = windows.iter().flat_map(|w| &w.outputs);
    let seen = windows.iter().flat_map(|w| &w.spans).map(|s| s.proc + 1);
    let slots = kept.map(|out| view(Some(out)).len()).chain(seen).max();
    let spec = SnapshotSpec::<u64>::new(slots.unwrap_or(0));
    check_windows(&spec, windows, threads, |s, out| match s.op {
        OP_UPDATE => (SnapOp::Update(s.arg), SnapResp::Ack),
        _ => (SnapOp::Snap, SnapResp::View(view(out))),
    })
}

fn audit_mwreg(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome> {
    check_windows(&RegisterSpec, windows, threads, |s, _| match s.op {
        OP_UPDATE => (RegOp::Write(s.arg), RegResp::Ack),
        _ => (RegOp::Read, RegResp::Value(s.resp)),
    })
}

fn audit_map(windows: &[AuditWindow], threads: usize) -> Vec<CheckOutcome> {
    check_windows(&LwwMapSpec, windows, threads, |s, _| {
        let (key, value) = decode_map_arg(s.arg);
        match s.op {
            OP_UPDATE => (MapOp::Put(key, value), MapResp::Ack),
            _ => (MapOp::Get(key), MapResp::Value(decode_opt(s.resp))),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_consistent() {
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

    /// A tier's label — what the service table and the E13 rows print —
    /// names that tier and no other, and an instance built on a tier
    /// reports it back under the same label.
    #[test]
    fn tier_labels_round_trip() {
        let by_label = |label: &str| {
            ALL_TIERS
                .iter()
                .copied()
                .filter(|t| t.label() == label)
                .collect::<Vec<_>>()
        };
        for spec in native_specs() {
            for &tier in spec.tiers() {
                let inst = spec.build(&BuildCtx::new(2, tier));
                assert_eq!(by_label(inst.tier().label()), [tier], "{}", spec.name());
            }
        }
    }

    #[test]
    fn map_arg_round_trips() {
        for (k, v) in [(0u32, 0u64), (7, 41), (u32::MAX, u32::MAX as u64)] {
            assert_eq!(decode_map_arg(encode_map_arg(k, v)), (k, v));
        }
    }

    /// Every spec builds on each of its tiers and serves coherent
    /// sessions: an update followed by a read observes *something*
    /// (exact semantics are each object's own tests' business).
    #[test]
    fn every_spec_builds_and_serves() {
        let cells = native_specs()
            .iter()
            .flat_map(|s| s.tiers().iter().map(move |&t| (s, t)));
        for (spec, tier) in cells {
            let inst = spec.build(&BuildCtx::new(2, tier));
            assert_eq!(inst.tier(), tier, "{}", spec.name());
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
    /// always on, each iteration leaves reconstructable spans whose arg
    /// follows the row's convention, whose resp is the session's encoded
    /// output and — for a scalar output — decodes back to it.
    #[test]
    fn sessions_record_spans_when_flight_on() {
        for spec in native_specs() {
            let name = spec.name();
            let b = BuildCtx::new(1, spec.tiers()[0]).flight(FlightMode::Always, 1 << 10);
            let inst = spec.build(&b);
            let mut s = inst.session(0);
            s.op(OP_UPDATE, 13, 6);
            let out = s.op(OP_READ, 13, 0);
            let log = inst.flight_log().expect("recorder attached");
            assert_eq!(log.dropped, 0, "{name}");
            let spans = log.op_spans();
            assert_eq!(spans.len(), 2, "{name}");
            assert_eq!((spans[0].op, spans[1].op), (OP_UPDATE, OP_READ), "{name}");
            let key = 13 % b.keys as u32;
            let args = match spec.args {
                Args::None => (0, 0),
                Args::Value => (13, 0),
                Args::KeyValue => (encode_map_arg(key, 6), encode_map_arg(key, 0)),
            };
            assert_eq!((spans[0].arg, spans[1].arg), args, "{name}");
            assert_eq!(spans[1].resp, out.encode(), "{name}");
            match out {
                OpOutput::Val(v) => assert_eq!(spans[1].resp, v, "{name}"),
                OpOutput::Opt(v) => assert_eq!(decode_opt(spans[1].resp), v, "{name}"),
                OpOutput::View(view) => assert_eq!(view.len(), 1, "{name}"),
            }
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
