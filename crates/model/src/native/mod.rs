//! The native (real threads) backend: a tiered wait-free register file.
//!
//! Register values in this workspace range from machine words (counter
//! stripes, max-register timestamps) to arbitrary `Clone` lattice data,
//! so the register file has tiers:
//!
//! * **packed** ([`packed`]) — values implementing [`AtomicPackable`]
//!   live in one `CachePadded<AtomicU64>` each; reads and writes are
//!   single atomic instructions. Constructed with
//!   [`NativeMemory::new_packed`].
//! * **buffered** ([`buffered`]) — the default for arbitrary `Clone`
//!   values: single-writer registers are announce/validate multi-slot
//!   buffers, multi-writer registers layer a hardware ticket over
//!   per-writer slots. No locks anywhere; the writer is wait-free and
//!   readers are lock-free (retrying only when a publish lands inside a
//!   two-instruction window). Constructed with [`NativeMemory::new`],
//!   which builds the registers as multi-writer ones holding their
//!   initial values and no writer's slots; [`NativeMemory::ctx`] builds
//!   process `p`'s slots in every register, and until then `p` reads as
//!   the initial value. Attaching an owner map with
//!   [`NativeMemory::with_owners`] moves each initial value into a
//!   single-writer cell instead, and no writer's slots are ever built.
//!   The announce words a reader pins a slot with are the memory's,
//!   one per process, keyed by register (`index`). DESIGN.md ("Native
//!   register file") gives each tier's bytes per register.
//! * **rwlock** — the pre-register-file backend, one `std` `RwLock` per
//!   register, kept as the comparison baseline for the E13 scaling
//!   experiment. It lies outside the paper's model (a lock is not a
//!   register), so it is never a default: a memory is on it only when
//!   built with [`NativeMemory::new_locked`] ([`Tier::Rwlock`]), and no
//!   packed or buffered access ever takes a lock. It is compiled into
//!   every build, so every consumer compiles the same register file.
//!
//! Layout matters as much as the protocol: every index word and packed
//! cell is [`CachePadded`] so independent registers never false-share a
//! cache line.
//!
//! Per-context read/write counters let native benches report the same
//! step counts the simulator does.

pub mod buffered;
mod index;
pub mod packed;
pub mod padded;

use crate::ctx::{AccessKind, MemCtx, ProcId};
use crate::flight::stamp::{clock, Clock};
use crate::flight::{FlightEvent, FlightLog, FlightMode, FlightRecorder};
use crate::telemetry::TelemetryRegistry;
use crate::trace::StepCounts;
use buffered::{MwmrFile, SwmrFile};
use packed::PackedFile;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

pub use packed::AtomicPackable;
pub use padded::CachePadded;

/// A register-file tier, as a value the grids and the service config
/// can carry around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// One padded `AtomicU64` per register (word-packable values only).
    Packed,
    /// Announce/validate (SWMR) or ticketed (MWMR) multi-slot cells —
    /// the default for arbitrary `Clone` values.
    Buffered,
    /// The lock-per-register baseline.
    Rwlock,
}

impl Tier {
    /// The canonical name.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Packed => "packed",
            Tier::Buffered => "buffered",
            Tier::Rwlock => "rwlock",
        }
    }

    /// The most processes a memory on this tier can be shared by, if
    /// the tier bounds it: a buffered cell tracks its free slots in one
    /// word ([`buffered::MAX_PROCS`]).
    pub fn max_procs(&self) -> Option<usize> {
        match self {
            Tier::Buffered => Some(buffered::MAX_PROCS),
            Tier::Packed | Tier::Rwlock => None,
        }
    }
}

/// `*slot = val`, with a borrowed `val` copied into what `slot` holds.
fn assign<T: Clone>(slot: &mut T, val: Cow<'_, T>) {
    match val {
        Cow::Owned(v) => *slot = v,
        Cow::Borrowed(v) => slot.clone_from(v),
    }
}

/// The register file, by tier; the buffered tier's registers are
/// single-writer cells when an owner map is attached, a ticket-layered
/// multi-writer file otherwise.
enum Regs<T> {
    Packed(PackedFile<T>),
    Swmr(SwmrFile<T>),
    Mwmr(MwmrFile<T>),
    Locked(Vec<RwLock<T>>),
}

impl<T: Clone> Regs<T> {
    fn len(&self) -> usize {
        match self {
            Regs::Packed(f) => f.len(),
            Regs::Swmr(file) => file.len(),
            Regs::Mwmr(file) => file.len(),
            Regs::Locked(cells) => cells.len(),
        }
    }
}

/// High-water marks of what [`NativeMemory::snapshot_prometheus`] has
/// already exported, shared by all clones of a memory so repeated
/// scrapes add only the delta since the previous one.
#[derive(Default)]
struct ExportMark {
    read_retries: AtomicU64,
    ticket_draws: AtomicU64,
}

/// A shared array of atomic registers for native threads.
pub struct NativeMemory<T> {
    regs: Arc<Regs<T>>,
    owners: Option<Arc<Vec<ProcId>>>,
    n_procs: usize,
    flight: Option<Arc<FlightRecorder>>,
    exported: Arc<ExportMark>,
}

impl<T> Clone for NativeMemory<T> {
    fn clone(&self) -> Self {
        NativeMemory {
            regs: Arc::clone(&self.regs),
            owners: self.owners.clone(),
            n_procs: self.n_procs,
            flight: self.flight.clone(),
            exported: Arc::clone(&self.exported),
        }
    }
}

impl<T: Clone> NativeMemory<T> {
    /// A memory with the given initial register contents, shared by
    /// `n_procs` processes, on the buffered (arbitrary-width, lock-free)
    /// tier. Registers start multi-writer, with no writer's slots built
    /// ([`NativeMemory::ctx`] builds them); attach an owner map with
    /// [`NativeMemory::with_owners`] to make them the cheaper
    /// single-writer cells instead.
    pub fn new(n_procs: usize, init: Vec<T>) -> Self {
        NativeMemory {
            regs: Arc::new(Regs::Mwmr(MwmrFile::new(n_procs, init))),
            owners: None,
            n_procs,
            flight: None,
            exported: Arc::default(),
        }
    }

    /// The old lock-per-register backend, kept as the E13 comparison
    /// baseline: one `RwLock` per register, its poisoning recovered
    /// rather than propagated when a holder panicked — what the vendored
    /// `parking_lot` lock the baseline used to be does, so E13 measures
    /// the same lock. The only constructor of [`Tier::Rwlock`]; no other
    /// tier takes a lock.
    pub fn new_locked(n_procs: usize, init: Vec<T>) -> Self {
        NativeMemory {
            regs: Arc::new(Regs::Locked(init.into_iter().map(RwLock::new).collect())),
            owners: None,
            n_procs,
            flight: None,
            exported: Arc::default(),
        }
    }

    /// Attach a single-writer owner map (checked on every write). On
    /// the buffered tier this also makes every register a single-writer
    /// cell holding its current value — the initial one moved in, if no
    /// context was made before. Must be called before the memory is
    /// shared (i.e. directly after construction, before any `clone`).
    pub fn with_owners(mut self, owners: Vec<ProcId>) -> Self {
        assert_eq!(owners.len(), self.regs.len());
        let regs = Arc::get_mut(&mut self.regs)
            .expect("with_owners must be called before the memory is shared");
        let n_procs = self.n_procs;
        *regs = match std::mem::replace(regs, Regs::Locked(Vec::new())) {
            Regs::Mwmr(file) => Regs::Swmr(SwmrFile::new(n_procs, file.into_values())),
            other => other,
        };
        self.owners = Some(Arc::new(owners));
        self
    }

    /// Attach a flight recorder (see [`crate::flight`]): per-process
    /// wait-free event rings holding `capacity` events each (rounded up
    /// to a power of two; [`crate::flight::DEFAULT_FLIGHT_CAPACITY`] is
    /// a reasonable default). At [`FlightMode::Off`] nothing is
    /// allocated and every instrumentation site stays a single branch
    /// on a `None`.
    ///
    /// The rings are single-writer: with a recorder attached, create at
    /// most one live [`NativeCtx`] per process id (the same discipline
    /// SWMR register ownership already imposes).
    pub fn with_flight(mut self, mode: FlightMode, capacity: usize) -> Self {
        self.flight = mode
            .enabled()
            .then(|| Arc::new(FlightRecorder::new(mode, self.n_procs, capacity)));
        self
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Drain the flight recorder into a [`FlightLog`] (`None` when no
    /// recorder is attached). Callable mid-run; drain after joining the
    /// worker threads for the exact `recorded == drained + dropped`
    /// accounting.
    pub fn flight_log(&self) -> Option<FlightLog> {
        self.flight.as_ref().map(|f| f.drain())
    }

    /// Total MWMR tickets drawn across the buffered tier's multi-writer
    /// cells (0 on other tiers and on owner-mapped memories, whose
    /// cells are all single-writer).
    pub fn ticket_draws(&self) -> u64 {
        match &*self.regs {
            Regs::Mwmr(file) => file.tickets(),
            _ => 0,
        }
    }

    /// One-stop Prometheus export for a scrape or a bench report: add
    /// this memory's protocol counters to `registry` as labeled series —
    /// `native_read_retries{object=...}` (buffered-tier reader
    /// validation retries) and `native_ticket_draws{object=...}` (MWMR
    /// writes) — drain any attached flight recorder, and aggregate the
    /// drained events into the same registry (the `flight_*` series and
    /// the per-object latency histogram). Returns the drained
    /// [`FlightLog`] so callers can also derive op spans or traces from
    /// the same drain (`None` when no recorder is attached).
    ///
    /// Safe to call repeatedly against one long-lived registry: it
    /// exports only the delta of the protocol counters since the
    /// previous call (the first call's delta is the lifetime total),
    /// and flight drains are incremental by construction. Both E14 and
    /// `apram-serve`'s `/metrics` endpoint go through here, so the two
    /// exports cannot drift. Call after joining the worker threads for
    /// exact totals; concurrent calls on clones of one memory should be
    /// serialized by the caller (a scrape is not a hot path).
    pub fn snapshot_prometheus(
        &self,
        registry: &TelemetryRegistry,
        object: &str,
    ) -> Option<FlightLog> {
        let labels = [("object", object)];
        let retries = self.read_retries();
        let prev = self.exported.read_retries.swap(retries, Ordering::Relaxed);
        registry
            .labeled_counter("native_read_retries", &labels)
            .add(0, retries.saturating_sub(prev));
        let tickets = self.ticket_draws();
        let prev = self.exported.ticket_draws.swap(tickets, Ordering::Relaxed);
        registry
            .labeled_counter("native_ticket_draws", &labels)
            .add(0, tickets.saturating_sub(prev));
        let log = self.flight_log();
        if let Some(log) = &log {
            log.aggregate_into(registry, object);
        }
        log
    }

    /// Number of registers.
    pub fn n_regs(&self) -> usize {
        self.regs.len()
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Which register-file tier this memory runs on.
    pub fn tier(&self) -> Tier {
        match &*self.regs {
            Regs::Packed(_) => Tier::Packed,
            Regs::Swmr(_) | Regs::Mwmr(_) => Tier::Buffered,
            Regs::Locked(_) => Tier::Rwlock,
        }
    }

    /// Total reader validation retries across the buffered tier's cells
    /// (0 on other tiers): how often a reader's two-instruction
    /// announce window was hit by a concurrent publish.
    pub fn read_retries(&self) -> u64 {
        match &*self.regs {
            Regs::Swmr(file) => file.retries(),
            Regs::Mwmr(file) => file.retries(),
            _ => 0,
        }
    }

    /// A context for process `proc`, with fresh step counters. On a
    /// buffered memory with no owner map, the first context of `proc`
    /// builds its slots in every register, so that no op allocates
    /// them.
    ///
    /// A process has one context at a time: on the buffered tier its
    /// reads announce themselves in one word per process, shared by
    /// every register of the memory, so two live contexts of one process
    /// reading at once would overwrite each other's announcement.
    pub fn ctx(&self, proc: ProcId) -> NativeCtx<T> {
        assert!(proc < self.n_procs, "process {proc} out of range");
        if let Regs::Mwmr(file) = &*self.regs {
            file.open(proc);
        }
        NativeCtx {
            mem: self.clone(),
            proc,
            counts: StepCounts::default(),
            flight: self.flight.as_ref().map(|rec| FlightCtx {
                rec: Arc::clone(rec),
                clock: clock(),
                period: rec.mode().period(),
                until_next: 0,
                writes_at_begin: 0,
                active: false,
            }),
        }
    }

    /// Read a register from outside any process (e.g. test assertions).
    pub fn peek(&self, reg: usize) -> T {
        match &*self.regs {
            Regs::Packed(f) => f.read(reg),
            Regs::Swmr(file) => file.peek(reg),
            Regs::Mwmr(file) => file.peek(reg),
            Regs::Locked(cells) => cells[reg]
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

impl<T: AtomicPackable> NativeMemory<T> {
    /// A memory on the packed tier: every register is one padded
    /// `AtomicU64`, every access one atomic instruction. Only available
    /// for word-packable value types; registers are natively
    /// multi-writer (the hardware arbitrates), so no cell rebuild
    /// happens when an owner map is attached.
    pub fn new_packed(n_procs: usize, init: Vec<T>) -> Self {
        NativeMemory {
            regs: Arc::new(Regs::Packed(PackedFile::new(init))),
            owners: None,
            n_procs,
            flight: None,
            exported: Arc::default(),
        }
    }
}

/// Per-context flight recording state: the shared recorder, the
/// process's stamp clock and this process's sampling countdown.
/// `active` is flipped by [`NativeCtx::op_begin`]/[`NativeCtx::op_end`];
/// register-level events are emitted only inside a sampled op, so an
/// unsampled op costs one predictable branch per access.
struct FlightCtx {
    rec: Arc<FlightRecorder>,
    clock: &'static Clock,
    period: u64,
    /// Ops to skip before the next sampled one: op 0 is sampled, then
    /// every `period`-th.
    until_next: u64,
    /// `counts.writes` at the sampled `op_begin`: an op that has not
    /// moved it by `op_end` has no store for its end stamp to wait for.
    writes_at_begin: u64,
    active: bool,
}

// What a sampled op records. Kept out of line: these are inlined stamps
// and ring stores, and `NativeCtx`'s generic callers would otherwise
// carry a copy at every op and every access of every session type — on
// the path of contexts that record nothing, too.
impl FlightCtx {
    #[inline(never)]
    fn begin_sampled(&mut self, proc: ProcId, writes: u64, op: u32, arg: u64) {
        self.until_next = self.period - 1;
        self.active = true;
        self.writes_at_begin = writes;
        let t_ns = self.clock.begin();
        self.rec
            .record_ticks(proc, FlightEvent::OpBegin { t_ns, op, arg });
    }

    #[inline(never)]
    fn end_sampled(&mut self, proc: ProcId, writes: u64, op: u32, resp: u64) {
        self.active = false;
        let t_ns = self.clock.end(writes != self.writes_at_begin);
        self.rec
            .record_ticks(proc, FlightEvent::OpEnd { t_ns, op, resp });
    }

    /// The register-level events are instants on a trace, from which no
    /// precedence is inferred: one plain clock read per access.
    #[inline(never)]
    fn record_write(&self, proc: ProcId, reg: usize, ticket: Option<u64>, slot: u64) {
        let (t_ns, reg) = (self.clock.now(), reg as u32);
        if let Some(ticket) = ticket {
            let ev = FlightEvent::TicketDraw { t_ns, reg, ticket };
            self.rec.record_ticks(proc, ev);
        }
        let ev = FlightEvent::SlotChoice { t_ns, reg, slot };
        self.rec.record_ticks(proc, ev);
    }

    #[cold]
    #[inline(never)]
    fn record_retries(&self, proc: ProcId, reg: usize, retries: u64) {
        let ev = FlightEvent::ReadRetry {
            t_ns: self.clock.now(),
            reg: reg as u32,
            retries,
        };
        self.rec.record_ticks(proc, ev);
    }
}

/// A process's handle onto a [`NativeMemory`].
pub struct NativeCtx<T> {
    mem: NativeMemory<T>,
    proc: ProcId,
    counts: StepCounts,
    flight: Option<FlightCtx>,
}

impl<T: Clone> NativeCtx<T> {
    /// The read/write counts of this context so far.
    pub fn counts(&self) -> StepCounts {
        self.counts
    }

    /// Reset the counters (e.g. between benchmark phases).
    pub fn reset_counts(&mut self) {
        self.counts = StepCounts::default();
    }

    /// Mark the start of a logical operation for the flight recorder:
    /// `op` is a caller-chosen code, `arg` the encoded argument.
    /// Returns whether this op was sampled (recorded); with no recorder
    /// attached this is a single branch and always `false`. Between a
    /// sampled `op_begin` and its [`NativeCtx::op_end`], every register
    /// access also emits its protocol events (read retries, ticket
    /// draws, slot choices).
    pub fn op_begin(&mut self, op: u32, arg: u64) -> bool {
        let Some(f) = &mut self.flight else {
            return false;
        };
        if f.until_next != 0 {
            f.until_next -= 1;
            f.active = false;
            return false;
        }
        f.begin_sampled(self.proc, self.counts.writes, op, arg);
        true
    }

    /// Mark the end of the operation begun by the last
    /// [`NativeCtx::op_begin`], with its encoded response. A no-op
    /// unless that begin was sampled.
    pub fn op_end(&mut self, op: u32, resp: u64) {
        let Some(f) = &mut self.flight else {
            return;
        };
        if !f.active {
            return;
        }
        f.end_sampled(self.proc, self.counts.writes, op, resp);
    }

    /// The recorder, if a sampled op is open.
    fn sampled(&self) -> Option<&FlightCtx> {
        self.flight.as_ref().filter(|f| f.active)
    }

    /// A read of `reg` retried its validation: an event, if a sampled
    /// op is open.
    fn record_retries(&self, reg: usize, retries: u64) {
        if let Some(f) = self.sampled() {
            f.record_retries(self.proc, reg, retries);
        }
    }

    /// The write step behind [`MemCtx::write`] (an owned value, moved
    /// in) and [`MemCtx::write_from`] (a borrowed one, copied in place
    /// where the tier keeps storage). Only the buffered tier has
    /// anything to tell the recorder: inside a sampled op, the slot
    /// chosen and the MWMR ticket drawn.
    #[inline]
    fn store(&mut self, reg: usize, val: Cow<'_, T>) {
        if let Some(owners) = &self.mem.owners {
            assert_eq!(
                owners[reg], self.proc,
                "SWMR violation: P{} wrote register {reg} owned by P{}",
                self.proc, owners[reg]
            );
        }
        self.counts.bump(AccessKind::Write);
        match &*self.mem.regs {
            Regs::Packed(file) => file.write(reg, &val),
            Regs::Swmr(file) => {
                let slot = file.write_via(reg, |slot| assign(slot, val));
                if let Some(f) = self.sampled() {
                    f.record_write(self.proc, reg, None, slot as u64);
                }
            }
            Regs::Mwmr(file) => {
                let (ticket, slot) = file.write_traced(self.proc, reg, val.into_owned());
                if let Some(f) = self.sampled() {
                    f.record_write(self.proc, reg, Some(ticket), slot as u64);
                }
            }
            Regs::Locked(cells) => {
                let mut guard = cells[reg].write().unwrap_or_else(PoisonError::into_inner);
                assign(&mut *guard, val)
            }
        }
    }
}

impl<T: Clone> MemCtx<T> for NativeCtx<T> {
    fn proc(&self) -> ProcId {
        self.proc
    }

    fn n_procs(&self) -> usize {
        self.mem.n_procs
    }

    fn n_regs(&self) -> usize {
        self.mem.regs.len()
    }

    fn read(&mut self, reg: usize) -> T {
        self.counts.bump(AccessKind::Read);
        match &*self.mem.regs {
            Regs::Packed(file) => file.read(reg),
            Regs::Swmr(file) => {
                let (v, retries) = file.read_traced(self.proc, reg);
                if retries > 0 {
                    self.record_retries(reg, retries);
                }
                v
            }
            Regs::Mwmr(file) => {
                let (v, retries) = file.read_traced(self.proc, reg);
                if retries > 0 {
                    self.record_retries(reg, retries);
                }
                v
            }
            Regs::Locked(cells) => cells[reg]
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    fn write(&mut self, reg: usize, val: T) {
        self.store(reg, Cow::Owned(val));
    }

    /// One write step, like [`write`](MemCtx::write), and the same
    /// value readable afterwards. On a single-writer buffered cell the
    /// copy is made with `clone_from` in the free slot the write chose
    /// ([`SwmrFile::write_via`]) — storage the cell owns and no reader
    /// can reach until it is published — instead of being built outside
    /// and moved in. Owner check, counters and the recorder's
    /// `SlotChoice` are `write`'s: both are one `store`.
    // Out of line on purpose. Inlined into the generic sessions' scan
    // loops it cost `native_read_heavy` 2.4 % and `native_update_heavy`
    // 1–7 % (four pairs each, none won) — their scans run on the packed
    // tier, where there is nothing to copy in place, and carried the
    // buffered tier's slot choice and `clone_from` with them — while
    // `universal_lwwmap`, which it is for, reads the same either way.
    #[inline(never)]
    fn write_from(&mut self, reg: usize, val: &T) {
        self.store(reg, Cow::Borrowed(val));
    }

    /// One read step, like [`read`](MemCtx::read), and the same value.
    /// On a single-writer buffered cell `f` runs on the published slot
    /// itself ([`SwmrFile::read_with`]) instead of on a clone; `f` must
    /// be bounded local work — the slot stays out of the writer's reach
    /// until it returns — and cannot re-enter the memory (`&mut self`).
    /// A sampled flight op takes the same path (the cell hands over the
    /// read's retry count for the `ReadRetry` event), so a recorded op
    /// differs from an unrecorded one by the recorder and nothing else.
    // Inlined into the caller's loop, `f` and the tier dispatch fold
    // into it: a packed-tier scan measured a fifth faster with this hint
    // than without.
    #[inline]
    fn read_with<R>(&mut self, reg: usize, f: impl FnOnce(&T) -> R) -> R {
        self.counts.bump(AccessKind::Read);
        match &*self.mem.regs {
            Regs::Packed(file) => f(&file.read(reg)),
            Regs::Swmr(file) => file.read_with(self.proc, reg, |v, retries| {
                if retries > 0 {
                    self.record_retries(reg, retries);
                }
                f(v)
            }),
            Regs::Mwmr(file) => {
                let (v, retries) = file.read_traced(self.proc, reg);
                if retries > 0 {
                    self.record_retries(reg, retries);
                }
                f(&v)
            }
            Regs::Locked(cells) => f(&cells[reg].read().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

// Tens of thousands of simulated runs: not under loom's or miri's
// instrumentation.
#[cfg(all(test, not(loom), not(miri)))]
mod index_tests;
#[cfg(test)]
mod tests;
