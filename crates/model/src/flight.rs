//! A wait-free flight recorder for the native backend: one
//! fixed-capacity event ring per thread, drained into Chrome-trace
//! JSON, the [`TelemetryRegistry`], or reconstructed op histories.
//!
//! # Why a ring per thread
//!
//! The native hot path is a handful of atomic instructions per register
//! access; any shared tracing structure (a global MPSC queue, a mutexed
//! buffer) would cost more than the thing it measures and — worse —
//! would reintroduce the coordination the register file exists to
//! avoid. So each process records into its own [`FlightRing`]: a
//! power-of-two array of small fixed-width slots plus a single
//! cache-padded head counter that only this process writes. The record
//! path is a few plain stores and one relaxed head bump — no CAS loop,
//! no allocation, no branch on other processes' state — so recording is
//! *wait-free with a constant bound* and a stalled reader can never
//! slow a recording writer.
//!
//! # Drop-oldest, with exact accounting
//!
//! A bounded ring must shed load somehow. Blocking the writer
//! (backpressure) would forfeit wait-freedom; dropping the *newest*
//! event would bias every trace toward startup. The ring therefore
//! overwrites the oldest slot and keeps the writer oblivious: the head
//! counter is *absolute* (never wrapped), so a drainer can compute
//! exactly how many events it missed — `head - capacity` beyond its
//! cursor — and report an exact `dropped` count rather than a guess.
//! The invariant `recorded == drained + dropped` holds exactly once the
//! writer has stopped (and is momentarily conservative while it runs).
//!
//! # The record/drain protocol
//!
//! Slots carry a sequence word beside the payload words. Writing event
//! number `i` (0-based, absolute): store `seq = 0` (busy), a release
//! fence, store the payload words, store `seq = i + 1` (release), bump
//! `head` to `i + 1` (release). A drainer reads slot `i` by loading
//! `seq` (acquire), copying the payload, an acquire fence, then
//! re-loading `seq`; the copy is valid iff both loads returned `i + 1`.
//! If the writer lapped the drainer mid-copy, the second load sees
//! either the busy marker or a later sequence number — the fences make
//! the busy marker visible to any drainer that observed the overwriting
//! payload — and the drainer counts the event as dropped instead of
//! surfacing a torn one. Validation failure is the *drainer's* problem
//! by design: the writer never waits, never retries, never knows.
//!
//! # Event encoding
//!
//! Events are typed ([`FlightEvent`]) and packed into three words: a
//! timestamp, a tag + code word, and a payload word. Fixed width keeps
//! the record path allocation-free and the ring's memory bounded at
//! construction.
//!
//! # Timestamps
//!
//! A [`FlightEvent`] a caller hands to [`FlightRecorder::record`] carries
//! whatever nanoseconds the caller put in it. The events
//! [`NativeCtx`](crate::native::NativeCtx) records itself are stamped
//! from the process's [`stamp`] clock — a fenced cycle-counter read where
//! the kernel trusts the counter, `Instant` elsewhere — and sit in the
//! ring as raw ticks (a flag bit in the tag word says so); the drain
//! converts them to monotonic nanoseconds since the process's stamp
//! anchor, so the logs of every recorder in a process share one time
//! base. [`stamp`] states why a span built from those stamps contains
//! the operation it brackets.

use crate::ctx::ProcId;
use crate::json::Json;
use crate::native::CachePadded;
use crate::telemetry::TelemetryRegistry;

pub mod stamp;

#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Default per-thread ring capacity (events) when the caller does not
/// choose one: large enough to hold a 1-in-64-sampled benchmark cell,
/// small enough that a 32-thread recorder stays under a few megabytes.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 13;

/// How much of the native execution the recorder captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightMode {
    /// No recorder attached; every instrumentation site is a single
    /// predictable branch on a `None`.
    Off,
    /// Record one operation in `N` (each sampled op records all of its
    /// register-level events; unsampled ops record nothing).
    Sampled(u32),
    /// Record every operation.
    Always,
}

impl FlightMode {
    /// Whether this mode records anything at all.
    pub fn enabled(self) -> bool {
        !matches!(self, FlightMode::Off)
    }

    /// The sampling period: every `period()`-th op is recorded.
    /// (`Always` is period 1; `Off` never asks.)
    pub fn period(self) -> u64 {
        match self {
            FlightMode::Off => u64::MAX,
            FlightMode::Sampled(n) => u64::from(n.max(1)),
            FlightMode::Always => 1,
        }
    }

    /// Stable label for reports (`off`, `sampled64`, `always`).
    pub fn label(self) -> String {
        match self {
            FlightMode::Off => "off".into(),
            FlightMode::Sampled(n) => format!("sampled{n}"),
            FlightMode::Always => "always".into(),
        }
    }
}

/// One recorded event. Timestamps are monotonic nanoseconds (since the
/// process's [`stamp`] anchor, for the events `NativeCtx` records); the
/// recording process is implied by which ring the event sits in.
///
/// Only `OpBegin`/`OpEnd` stamps are fenced against the accesses around
/// them, because only they carry a precedence claim. The register-level
/// events are instants on a trace: one plain clock read each, and
/// nothing is inferred from where exactly between its op's two stamps
/// one falls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// An operation began (`op` is a caller-chosen code, `arg` its
    /// argument). The timestamp is taken *before* the op's first shared
    /// access can start, so reconstructed intervals contain the true
    /// ones.
    OpBegin {
        /// Nanoseconds since the stamp anchor.
        t_ns: u64,
        /// Caller-chosen operation code.
        op: u32,
        /// Operation argument, encoded by the caller.
        arg: u64,
    },
    /// The operation completed with response `resp` (timestamp taken
    /// after the op's last shared access has taken effect on every
    /// core).
    OpEnd {
        /// Nanoseconds since the stamp anchor.
        t_ns: u64,
        /// Caller-chosen operation code (matches the begin).
        op: u32,
        /// Operation response, encoded by the caller.
        resp: u64,
    },
    /// A buffered-tier read validated `retries` times before returning
    /// (a publish landed inside the reader's announce window). An
    /// unfenced instant, read after the access.
    ReadRetry {
        /// Nanoseconds since the stamp anchor.
        t_ns: u64,
        /// Register index.
        reg: u32,
        /// Validation retries this read performed.
        retries: u64,
    },
    /// A multi-writer register write drew hardware ticket `ticket` (the
    /// write's linearization point). An unfenced instant, read after
    /// the write: the draws' order is the tickets', not the stamps'.
    TicketDraw {
        /// Nanoseconds since the stamp anchor.
        t_ns: u64,
        /// Register index.
        reg: u32,
        /// The ticket drawn.
        ticket: u64,
    },
    /// A buffered-tier write's announce scan chose slot `slot`. An
    /// unfenced instant, read after the write.
    SlotChoice {
        /// Nanoseconds since the stamp anchor.
        t_ns: u64,
        /// Register index.
        reg: u32,
        /// The free slot the scan picked.
        slot: u64,
    },
}

const TAG_OP_BEGIN: u64 = 1;
const TAG_OP_END: u64 = 2;
const TAG_READ_RETRY: u64 = 3;
const TAG_TICKET_DRAW: u64 = 4;
const TAG_SLOT_CHOICE: u64 = 5;
/// Set in the tag word when the timestamp word holds raw [`stamp`]
/// ticks, which the drain converts, and not nanoseconds.
const RAW_STAMP: u64 = 1 << 63;

impl FlightEvent {
    /// The event timestamp.
    pub fn t_ns(&self) -> u64 {
        match *self {
            FlightEvent::OpBegin { t_ns, .. }
            | FlightEvent::OpEnd { t_ns, .. }
            | FlightEvent::ReadRetry { t_ns, .. }
            | FlightEvent::TicketDraw { t_ns, .. }
            | FlightEvent::SlotChoice { t_ns, .. } => t_ns,
        }
    }

    /// Pack into the ring's three payload words:
    /// `[t_ns, tag << 32 | code, payload]`.
    fn encode(&self) -> [u64; 3] {
        let (tag, t, code, payload) = match *self {
            FlightEvent::OpBegin { t_ns, op, arg } => (TAG_OP_BEGIN, t_ns, op, arg),
            FlightEvent::OpEnd { t_ns, op, resp } => (TAG_OP_END, t_ns, op, resp),
            FlightEvent::ReadRetry { t_ns, reg, retries } => (TAG_READ_RETRY, t_ns, reg, retries),
            FlightEvent::TicketDraw { t_ns, reg, ticket } => (TAG_TICKET_DRAW, t_ns, reg, ticket),
            FlightEvent::SlotChoice { t_ns, reg, slot } => (TAG_SLOT_CHOICE, t_ns, reg, slot),
        };
        [t, (tag << 32) | u64::from(code), payload]
    }

    /// Unpack, converting a raw stamp to nanoseconds; `None` on an
    /// unknown tag (only reachable if the slot validation protocol were
    /// broken, so drains treat it as a drop).
    fn decode(w: [u64; 3]) -> Option<FlightEvent> {
        let t_ns = if w[1] & RAW_STAMP != 0 {
            stamp::clock().to_ns(w[0])
        } else {
            w[0]
        };
        let code = (w[1] & 0xFFFF_FFFF) as u32;
        let payload = w[2];
        Some(match (w[1] & !RAW_STAMP) >> 32 {
            TAG_OP_BEGIN => FlightEvent::OpBegin {
                t_ns,
                op: code,
                arg: payload,
            },
            TAG_OP_END => FlightEvent::OpEnd {
                t_ns,
                op: code,
                resp: payload,
            },
            TAG_READ_RETRY => FlightEvent::ReadRetry {
                t_ns,
                reg: code,
                retries: payload,
            },
            TAG_TICKET_DRAW => FlightEvent::TicketDraw {
                t_ns,
                reg: code,
                ticket: payload,
            },
            TAG_SLOT_CHOICE => FlightEvent::SlotChoice {
                t_ns,
                reg: code,
                slot: payload,
            },
            _ => return None,
        })
    }
}

/// One ring slot: a sequence word (0 = busy/empty, `i + 1` = holds
/// absolute event `i`) beside three payload words.
struct EventSlot {
    seq: AtomicU64,
    words: [AtomicU64; 3],
}

impl EventSlot {
    fn new() -> Self {
        EventSlot {
            seq: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// A single-writer event ring (see the [module docs](self) for the
/// protocol). The writer is the owning process; any *one* thread at a
/// time may drain (the drain cursor is not multi-drainer safe — the
/// [`FlightRecorder`] serializes drains for you).
pub struct FlightRing {
    slots: Box<[EventSlot]>,
    mask: u64,
    /// Absolute count of events ever recorded. Written only by the
    /// owning process; padded so head bumps never false-share with
    /// another ring's traffic.
    head: CachePadded<AtomicU64>,
    /// Next absolute index a drain will examine (drainer-owned).
    cursor: CachePadded<AtomicU64>,
    /// Events lost to overwrites or mid-copy laps, counted at drain.
    dropped: CachePadded<AtomicU64>,
    /// Events successfully drained.
    drained: CachePadded<AtomicU64>,
}

impl FlightRing {
    /// A ring holding `capacity` events, rounded up to a power of two
    /// (minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        FlightRing {
            slots: (0..cap).map(|_| EventSlot::new()).collect(),
            mask: cap as u64 - 1,
            head: CachePadded::new(AtomicU64::new(0)),
            cursor: CachePadded::new(AtomicU64::new(0)),
            dropped: CachePadded::new(AtomicU64::new(0)),
            drained: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The ring's capacity in events (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record `ev`. Must only be called by the ring's single writer.
    /// Wait-free: five stores and one fence, no CAS, no allocation.
    pub fn record(&self, ev: &FlightEvent) {
        self.record_words(ev.encode());
    }

    /// [`FlightRing::record`] for an event whose timestamp field holds
    /// raw [`stamp`] ticks: flagged, so that the drain converts it.
    // Inlined into `NativeCtx`'s generic callers downstream, the
    // event's variant is known and `encode` folds to three moves.
    #[inline]
    pub(crate) fn record_ticks(&self, ev: &FlightEvent) {
        let mut w = ev.encode();
        w[1] |= RAW_STAMP;
        self.record_words(w);
    }

    #[inline]
    fn record_words(&self, w: [u64; 3]) {
        // Only this writer stores `head`, so a relaxed load reads back
        // its own last bump.
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        // Busy-mark, then fence: any drainer that observes the payload
        // stores below also observes the marker on its re-validation
        // load (release fence → acquire fence synchronization).
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.words[0].store(w[0], Ordering::Relaxed);
        slot.words[1].store(w[1], Ordering::Relaxed);
        slot.words[2].store(w[2], Ordering::Relaxed);
        // Publish: orders the payload stores before the new sequence.
        slot.seq.store(h + 1, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Total events ever recorded (absolute, never wraps).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwrites, exact as of the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events successfully drained so far.
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Validated copy of absolute event `abs`, or `None` if the writer
    /// overwrote (or was overwriting) the slot.
    fn read_slot(&self, abs: u64) -> Option<FlightEvent> {
        let slot = &self.slots[(abs & self.mask) as usize];
        let want = abs + 1;
        if slot.seq.load(Ordering::Acquire) != want {
            return None;
        }
        let w = [
            slot.words[0].load(Ordering::Relaxed),
            slot.words[1].load(Ordering::Relaxed),
            slot.words[2].load(Ordering::Relaxed),
        ];
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != want {
            return None;
        }
        FlightEvent::decode(w)
    }

    /// Drain every event recorded since the last drain into `out`,
    /// returning `(drained, dropped)` for this call. Safe concurrently
    /// with the writer (a mid-copy lap counts the event as dropped, it
    /// never surfaces torn); at most one drainer at a time.
    pub fn drain_into(&self, out: &mut Vec<FlightEvent>) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let cur = self.cursor.load(Ordering::Relaxed);
        // Everything the writer has already lapped is gone for sure.
        let start = cur.max(head.saturating_sub(cap));
        let mut dropped = start - cur;
        let mut drained = 0;
        for abs in start..head {
            match self.read_slot(abs) {
                Some(ev) => {
                    out.push(ev);
                    drained += 1;
                }
                None => dropped += 1,
            }
        }
        self.cursor.store(head, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        self.drained.fetch_add(drained, Ordering::Relaxed);
        (drained, dropped)
    }
}

/// The per-process rings. Cloned handles (via `Arc`) share them.
pub struct FlightRecorder {
    mode: FlightMode,
    rings: Box<[CachePadded<FlightRing>]>,
    /// Serializes drains (the per-ring cursor is single-drainer).
    drain_gate: std::sync::Mutex<()>,
}

impl FlightRecorder {
    /// A recorder for `n_procs` processes with `capacity` events per
    /// ring (rounded up to a power of two). All ring memory is
    /// allocated here; the record path never allocates.
    pub fn new(mode: FlightMode, n_procs: usize, capacity: usize) -> Self {
        FlightRecorder {
            mode,
            rings: (0..n_procs)
                .map(|_| CachePadded::new(FlightRing::new(capacity)))
                .collect(),
            drain_gate: std::sync::Mutex::new(()),
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// Number of per-process rings.
    pub fn n_procs(&self) -> usize {
        self.rings.len()
    }

    /// Process `proc`'s ring.
    pub fn ring(&self, proc: ProcId) -> &FlightRing {
        &self.rings[proc]
    }

    /// Record `ev` into `proc`'s ring. Must only be called from the
    /// single thread acting as `proc`.
    pub fn record(&self, proc: ProcId, ev: FlightEvent) {
        self.rings[proc].record(&ev);
    }

    /// [`FlightRecorder::record`] for an event stamped in raw
    /// [`stamp`] ticks (see [`FlightRing::record_ticks`]).
    #[inline]
    pub(crate) fn record_ticks(&self, proc: ProcId, ev: FlightEvent) {
        self.rings[proc].record_ticks(&ev);
    }

    /// Total events recorded across all rings.
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.recorded()).sum()
    }

    /// Drain all rings into a fresh [`FlightLog`]. Callable while
    /// writers are still recording (their in-flight events simply land
    /// in the next drain); concurrent drains serialize internally.
    pub fn drain(&self) -> FlightLog {
        let mut log = FlightLog::new(self.n_procs());
        self.drain_into(&mut log);
        log
    }

    /// Drain all rings, appending to `log` (which accumulates across
    /// repeated drains of the same recorder).
    pub fn drain_into(&self, log: &mut FlightLog) {
        let _gate = self.drain_gate.lock().unwrap();
        assert_eq!(
            log.events.len(),
            self.n_procs(),
            "log/recorder proc mismatch"
        );
        for (proc, ring) in self.rings.iter().enumerate() {
            let (drained, dropped) = ring.drain_into(&mut log.events[proc]);
            log.drained += drained;
            log.dropped += dropped;
        }
        log.recorded = self.recorded();
    }
}

/// A completed operation reconstructed from a begin/end event pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpan {
    /// The process that ran the op.
    pub proc: ProcId,
    /// Caller-chosen operation code.
    pub op: u32,
    /// Operation argument (from the begin event).
    pub arg: u64,
    /// Operation response (from the end event).
    pub resp: u64,
    /// Begin timestamp (ns), taken before the op's first shared access.
    pub begin_ns: u64,
    /// End timestamp, taken after the op's last shared access.
    pub end_ns: u64,
}

/// Drained events, per process in recording order, plus the exact
/// accounting triple. Once the writers have stopped and a final drain
/// ran, `recorded == drained + dropped`.
pub struct FlightLog {
    /// Per-process events in the order they were recorded.
    pub events: Vec<Vec<FlightEvent>>,
    /// Total events the writers recorded (including overwritten ones).
    pub recorded: u64,
    /// Events successfully drained (sum of `events` lengths).
    pub drained: u64,
    /// Events lost to drop-oldest overwrites.
    pub dropped: u64,
}

impl FlightLog {
    /// An empty log for `n_procs` processes.
    pub fn new(n_procs: usize) -> Self {
        FlightLog {
            events: vec![Vec::new(); n_procs],
            recorded: 0,
            drained: 0,
            dropped: 0,
        }
    }

    /// Completed ops per process, in program order: each `OpBegin`
    /// paired with the next `OpEnd` of the same code. Begins whose end
    /// was dropped (or is still in flight) and ends whose begin was
    /// overwritten are skipped — a sampled trace reconstructs only the
    /// ops it saw both edges of.
    ///
    /// A span's `end_ns` is clamped up to its `begin_ns` (callers
    /// subtract the two); [`FlightLog::clamped_spans`] counts how often
    /// that was needed.
    pub fn op_spans(&self) -> Vec<OpSpan> {
        let mut spans = Vec::new();
        self.for_each_pair(|mut span| {
            span.end_ns = span.end_ns.max(span.begin_ns);
            spans.push(span);
        });
        spans
    }

    /// How many of [`FlightLog::op_spans`]' spans had an end stamp
    /// *before* their begin stamp. Never, for the stamps `NativeCtx`
    /// takes: one thread's clock does not run backwards.
    pub fn clamped_spans(&self) -> u64 {
        let mut clamped = 0;
        self.for_each_pair(|span| clamped += u64::from(span.end_ns < span.begin_ns));
        clamped
    }

    /// Every begin/end pair as a span, stamps as recorded.
    fn for_each_pair(&self, mut f: impl FnMut(OpSpan)) {
        for (proc, events) in self.events.iter().enumerate() {
            let mut pending: Option<(u32, u64, u64)> = None;
            for ev in events {
                match *ev {
                    FlightEvent::OpBegin { t_ns, op, arg } => pending = Some((op, arg, t_ns)),
                    FlightEvent::OpEnd { t_ns, op, resp } => {
                        if let Some((bop, arg, begin_ns)) = pending.take() {
                            if bop == op {
                                f(OpSpan {
                                    proc,
                                    op,
                                    arg,
                                    resp,
                                    begin_ns,
                                    end_ns: t_ns,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Total validation retries across all drained `ReadRetry` events.
    pub fn read_retries(&self) -> u64 {
        self.fold(|ev| match *ev {
            FlightEvent::ReadRetry { retries, .. } => retries,
            _ => 0,
        })
    }

    /// Number of drained `TicketDraw` events.
    pub fn ticket_draws(&self) -> u64 {
        self.fold(|ev| matches!(ev, FlightEvent::TicketDraw { .. }) as u64)
    }

    /// Number of drained `SlotChoice` events.
    pub fn slot_choices(&self) -> u64 {
        self.fold(|ev| matches!(ev, FlightEvent::SlotChoice { .. }) as u64)
    }

    /// Ticket draws that landed within `window_ns` of another process's
    /// draw — a direct contention measure for the MWMR write path (two
    /// draws in one window means the tickets actually raced). The
    /// draws' stamps are plain unfenced clock reads taken right after
    /// the write, which is exact enough here: the window is real time,
    /// and wide next to the few nanoseconds a stamp can slide.
    pub fn contended_draws(&self, window_ns: u64) -> u64 {
        let mut draws: Vec<(u64, ProcId)> = Vec::new();
        for (proc, events) in self.events.iter().enumerate() {
            for ev in events {
                if let FlightEvent::TicketDraw { t_ns, .. } = *ev {
                    draws.push((t_ns, proc));
                }
            }
        }
        draws.sort_unstable();
        draws
            .iter()
            .enumerate()
            .filter(|&(i, &(t, p))| {
                let near = |&&(u, q): &&(u64, ProcId)| q != p && t.abs_diff(u) <= window_ns;
                draws[..i]
                    .iter()
                    .rev()
                    .take_while(|d| t.abs_diff(d.0) <= window_ns)
                    .any(|d| near(&d))
                    || draws[i + 1..]
                        .iter()
                        .take_while(|d| t.abs_diff(d.0) <= window_ns)
                        .any(|d| near(&d))
            })
            .count() as u64
    }

    fn fold(&self, f: impl Fn(&FlightEvent) -> u64) -> u64 {
        self.events.iter().flatten().map(f).sum()
    }

    /// Chrome-trace (Perfetto-loadable) JSON: one track per process
    /// under process id `pid`, completed ops as `"X"` duration events,
    /// retries/tickets/slot choices as `"i"` instant events. `op_name`
    /// maps the caller's op codes to display names. Timestamps are
    /// microseconds, as the trace format specifies.
    pub fn chrome_trace_events(&self, pid: u64, op_name: &dyn Fn(u32) -> String) -> Vec<Json> {
        let us = |ns: u64| Json::Float(ns as f64 / 1000.0);
        let mut out = Vec::new();
        for proc in 0..self.events.len() {
            out.push(Json::obj([
                ("ph", Json::Str("M".into())),
                ("name", Json::Str("thread_name".into())),
                ("pid", Json::UInt(pid)),
                ("tid", Json::UInt(proc as u64)),
                ("args", Json::obj([("name", Json::Str(format!("P{proc}")))])),
            ]));
        }
        for span in self.op_spans() {
            out.push(Json::obj([
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(op_name(span.op))),
                ("cat", Json::Str("op".into())),
                ("pid", Json::UInt(pid)),
                ("tid", Json::UInt(span.proc as u64)),
                ("ts", us(span.begin_ns)),
                ("dur", us(span.end_ns - span.begin_ns)),
                (
                    "args",
                    Json::obj([
                        ("arg", Json::UInt(span.arg)),
                        ("resp", Json::UInt(span.resp)),
                    ]),
                ),
            ]));
        }
        for (proc, events) in self.events.iter().enumerate() {
            for ev in events {
                let (name, key, val, reg) = match *ev {
                    FlightEvent::ReadRetry { reg, retries, .. } => {
                        ("read_retry", "retries", retries, reg)
                    }
                    FlightEvent::TicketDraw { reg, ticket, .. } => {
                        ("ticket_draw", "ticket", ticket, reg)
                    }
                    FlightEvent::SlotChoice { reg, slot, .. } => ("slot_choice", "slot", slot, reg),
                    _ => continue,
                };
                out.push(Json::obj([
                    ("ph", Json::Str("i".into())),
                    ("name", Json::Str(name.into())),
                    ("s", Json::Str("t".into())),
                    ("pid", Json::UInt(pid)),
                    ("tid", Json::UInt(proc as u64)),
                    ("ts", us(ev.t_ns())),
                    (
                        "args",
                        Json::obj([("reg", Json::UInt(u64::from(reg))), (key, Json::UInt(val))]),
                    ),
                ]));
            }
        }
        out
    }

    /// A complete single-log Chrome-trace document (see
    /// [`FlightLog::chrome_trace_events`] to merge several logs under
    /// distinct pids first).
    pub fn chrome_trace(&self, op_name: &dyn Fn(u32) -> String) -> Json {
        Json::obj([
            (
                "traceEvents",
                Json::Arr(self.chrome_trace_events(0, op_name)),
            ),
            ("displayTimeUnit", Json::Str("ns".into())),
        ])
    }

    /// Aggregate the log into `registry` under the `object` label:
    /// labeled counters `flight_ops{object}`, `flight_read_retries`,
    /// `flight_ticket_draws`, `flight_slot_choices`,
    /// `flight_events_dropped`, plus a per-object op-latency
    /// `StepHistogram` (`flight_op_latency_ns_<object>`).
    pub fn aggregate_into(&self, registry: &TelemetryRegistry, object: &str) {
        let labels = [("object", object)];
        let spans = self.op_spans();
        registry
            .labeled_counter("flight_ops", &labels)
            .add(0, spans.len() as u64);
        registry
            .labeled_counter("flight_read_retries", &labels)
            .add(0, self.read_retries());
        registry
            .labeled_counter("flight_ticket_draws", &labels)
            .add(0, self.ticket_draws());
        registry
            .labeled_counter("flight_slot_choices", &labels)
            .add(0, self.slot_choices());
        registry
            .labeled_counter("flight_events_dropped", &labels)
            .add(0, self.dropped);
        let hist = registry.histogram(&format!("flight_op_latency_ns_{object}"));
        let shards = registry.shards().max(1);
        for span in &spans {
            hist.record(span.proc % shards, span.end_ns - span.begin_ns);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::seed::split;
    use crate::telemetry::validate_prometheus;

    fn ev(t: u64, op: u32, arg: u64) -> FlightEvent {
        FlightEvent::OpBegin { t_ns: t, op, arg }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRing::new(0).capacity(), 2);
        assert_eq!(FlightRing::new(3).capacity(), 4);
        assert_eq!(FlightRing::new(64).capacity(), 64);
        assert_eq!(FlightRing::new(65).capacity(), 128);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let events = [
            FlightEvent::OpBegin {
                t_ns: 1,
                op: 7,
                arg: u64::MAX,
            },
            FlightEvent::OpEnd {
                t_ns: 2,
                op: u32::MAX,
                resp: 0,
            },
            FlightEvent::ReadRetry {
                t_ns: 3,
                reg: 5,
                retries: 9,
            },
            FlightEvent::TicketDraw {
                t_ns: u64::MAX,
                reg: 0,
                ticket: 42,
            },
            FlightEvent::SlotChoice {
                t_ns: 0,
                reg: 61,
                slot: 3,
            },
        ];
        for e in events {
            assert_eq!(FlightEvent::decode(e.encode()), Some(e), "{e:?}");
        }
        assert_eq!(FlightEvent::decode([0, 99 << 32, 0]), None);
    }

    #[test]
    fn drop_oldest_keeps_newest_with_exact_count() {
        let ring = FlightRing::new(4);
        for i in 0..10u64 {
            ring.record(&ev(i, 0, i));
        }
        let mut out = Vec::new();
        let (drained, dropped) = ring.drain_into(&mut out);
        assert_eq!((drained, dropped), (4, 6));
        let args: Vec<u64> = out
            .iter()
            .map(|e| match e {
                FlightEvent::OpBegin { arg, .. } => *arg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            args,
            vec![6, 7, 8, 9],
            "drop-oldest keeps the newest events"
        );
        assert_eq!(ring.recorded(), ring.drained() + ring.dropped());
        // A second drain with nothing new is empty and exact.
        let (d2, x2) = ring.drain_into(&mut out);
        assert_eq!((d2, x2), (0, 0));
    }

    #[test]
    fn repeated_drains_accumulate_exactly() {
        let ring = FlightRing::new(8);
        let mut out = Vec::new();
        for round in 0..5u64 {
            for i in 0..13u64 {
                ring.record(&ev(round * 13 + i, 0, i));
            }
            ring.drain_into(&mut out);
        }
        assert_eq!(ring.recorded(), 65);
        assert_eq!(ring.recorded(), ring.drained() + ring.dropped());
        assert_eq!(out.len() as u64, ring.drained());
    }

    /// The satellite property test: `recorded == drained + dropped`
    /// exactly, across seeds and thread counts, with a drainer running
    /// concurrently with the writers.
    #[test]
    fn accounting_exact_under_concurrent_recording() {
        #[cfg(miri)]
        const SEEDS: u64 = 2;
        #[cfg(not(miri))]
        const SEEDS: u64 = 12;
        for seed in 0..SEEDS {
            let n_procs = 1 + (split(seed, 1) % 4) as usize;
            let per_proc = 64 + (split(seed, 2) % 512);
            #[cfg(miri)]
            let per_proc = per_proc.min(96);
            let cap = 1usize << (3 + (split(seed, 3) % 5));
            let rec = FlightRecorder::new(FlightMode::Always, n_procs, cap);
            let mut log = FlightLog::new(n_procs);
            std::thread::scope(|s| {
                for p in 0..n_procs {
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..per_proc {
                            rec.record(p, ev(i, p as u32, i));
                        }
                    });
                }
                // Drain concurrently with the writers a few times.
                for _ in 0..4 {
                    rec.drain_into(&mut log);
                    std::thread::yield_now();
                }
            });
            // Final drain after all writers stopped: exact accounting.
            rec.drain_into(&mut log);
            assert_eq!(
                log.recorded,
                log.drained + log.dropped,
                "seed {seed}: {n_procs} procs × {per_proc} events, cap {cap}"
            );
            assert_eq!(log.recorded, n_procs as u64 * per_proc);
            assert_eq!(
                log.drained,
                log.events.iter().map(|e| e.len() as u64).sum::<u64>()
            );
            // Drained events are untorn and in recording order per proc.
            for (p, events) in log.events.iter().enumerate() {
                let mut last = None;
                for e in events {
                    let FlightEvent::OpBegin { t_ns, op, arg } = *e else {
                        panic!("unexpected event {e:?}");
                    };
                    assert_eq!(op, p as u32, "event from the wrong writer");
                    assert_eq!(t_ns, arg, "torn payload: {t_ns} vs {arg}");
                    assert!(last.is_none_or(|l| arg > l), "out of order");
                    last = Some(arg);
                }
            }
        }
    }

    #[test]
    fn op_spans_pair_and_skip_orphans() {
        let mut log = FlightLog::new(2);
        log.events[0] = vec![
            FlightEvent::OpBegin {
                t_ns: 10,
                op: 1,
                arg: 5,
            },
            FlightEvent::OpEnd {
                t_ns: 20,
                op: 1,
                resp: 7,
            },
            // Begin whose end was dropped: skipped.
            FlightEvent::OpBegin {
                t_ns: 30,
                op: 2,
                arg: 0,
            },
        ];
        // Orphan end (its begin was overwritten): skipped.
        log.events[1] = vec![FlightEvent::OpEnd {
            t_ns: 15,
            op: 1,
            resp: 9,
        }];
        let spans = log.op_spans();
        assert_eq!(
            spans,
            vec![OpSpan {
                proc: 0,
                op: 1,
                arg: 5,
                resp: 7,
                begin_ns: 10,
                end_ns: 20
            }]
        );
    }

    /// An end stamped before its begin is clamped for the callers that
    /// subtract, and counted, not hidden.
    #[test]
    fn backwards_spans_are_clamped_and_counted() {
        let mut log = FlightLog::new(1);
        let pair = |begin, end| {
            [
                FlightEvent::OpBegin {
                    t_ns: begin,
                    op: 1,
                    arg: 0,
                },
                FlightEvent::OpEnd {
                    t_ns: end,
                    op: 1,
                    resp: 0,
                },
            ]
        };
        log.events[0] = [pair(10, 20), pair(40, 30), pair(50, 50)].concat();
        let spans: Vec<(u64, u64)> = log
            .op_spans()
            .iter()
            .map(|s| (s.begin_ns, s.end_ns))
            .collect();
        assert_eq!(spans, vec![(10, 20), (40, 40), (50, 50)]);
        assert_eq!(log.clamped_spans(), 1);
    }

    /// A raw-stamped event comes out of the drain in nanoseconds, by the
    /// process clock's conversion; a caller's own nanoseconds beside it
    /// come out as they went in.
    #[test]
    fn raw_stamps_are_converted_at_drain() {
        let clock = stamp::clock();
        let ring = FlightRing::new(4);
        let ticks = clock.now();
        ring.record_ticks(&FlightEvent::OpBegin {
            t_ns: ticks,
            op: u32::MAX,
            arg: 7,
        });
        ring.record(&FlightEvent::OpEnd {
            t_ns: ticks,
            op: u32::MAX,
            resp: 8,
        });
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), (2, 0));
        assert_eq!(
            out,
            vec![
                FlightEvent::OpBegin {
                    t_ns: clock.to_ns(ticks),
                    op: u32::MAX,
                    arg: 7,
                },
                FlightEvent::OpEnd {
                    t_ns: ticks,
                    op: u32::MAX,
                    resp: 8,
                },
            ]
        );
    }

    #[test]
    fn chrome_trace_shape() {
        let mut log = FlightLog::new(1);
        log.events[0] = vec![
            FlightEvent::OpBegin {
                t_ns: 1000,
                op: 0,
                arg: 1,
            },
            FlightEvent::ReadRetry {
                t_ns: 1500,
                reg: 3,
                retries: 2,
            },
            FlightEvent::OpEnd {
                t_ns: 2000,
                op: 0,
                resp: 4,
            },
        ];
        let doc = log.chrome_trace(&|op| format!("op{op}"));
        let parsed = crate::json::parse(&doc.to_compact()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // One thread_name metadata + one X span + one instant.
        assert_eq!(events.len(), 3);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["M", "X", "i"]);
        let span = &events[1];
        assert_eq!(span.get("name").unwrap().as_str().unwrap(), "op0");
        assert_eq!(span.get("ts").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(span.get("dur").unwrap().as_f64().unwrap(), 1.0);
    }

    #[test]
    fn aggregation_exports_labeled_series() {
        let mut log = FlightLog::new(1);
        log.events[0] = vec![
            FlightEvent::OpBegin {
                t_ns: 0,
                op: 0,
                arg: 0,
            },
            FlightEvent::TicketDraw {
                t_ns: 5,
                reg: 0,
                ticket: 1,
            },
            FlightEvent::ReadRetry {
                t_ns: 8,
                reg: 0,
                retries: 3,
            },
            FlightEvent::OpEnd {
                t_ns: 10,
                op: 0,
                resp: 0,
            },
        ];
        log.dropped = 2;
        let reg = TelemetryRegistry::new(1);
        log.aggregate_into(&reg, "mwreg");
        assert_eq!(
            reg.labeled_counter_total("flight_ops", &[("object", "mwreg")]),
            Some(1)
        );
        assert_eq!(
            reg.labeled_counter_total("flight_read_retries", &[("object", "mwreg")]),
            Some(3)
        );
        assert_eq!(
            reg.labeled_counter_total("flight_ticket_draws", &[("object", "mwreg")]),
            Some(1)
        );
        assert_eq!(
            reg.labeled_counter_total("flight_events_dropped", &[("object", "mwreg")]),
            Some(2)
        );
        let hist = reg
            .histogram_snapshot("flight_op_latency_ns_mwreg")
            .unwrap();
        assert_eq!(hist.count, 1);
        validate_prometheus(&reg.to_prometheus()).unwrap();
    }

    #[test]
    fn contended_draws_windows() {
        let mut log = FlightLog::new(3);
        log.events[0] = vec![FlightEvent::TicketDraw {
            t_ns: 100,
            reg: 0,
            ticket: 1,
        }];
        log.events[1] = vec![FlightEvent::TicketDraw {
            t_ns: 150,
            reg: 0,
            ticket: 2,
        }];
        log.events[2] = vec![FlightEvent::TicketDraw {
            t_ns: 10_000,
            reg: 0,
            ticket: 3,
        }];
        assert_eq!(log.contended_draws(100), 2, "the two near draws contend");
        assert_eq!(log.contended_draws(5), 0);
        assert_eq!(log.contended_draws(1_000_000), 3);
    }

    #[test]
    fn mode_labels_and_periods() {
        assert!(!FlightMode::Off.enabled());
        assert!(FlightMode::Sampled(64).enabled());
        assert_eq!(FlightMode::Sampled(64).period(), 64);
        assert_eq!(FlightMode::Sampled(0).period(), 1, "period clamps to 1");
        assert_eq!(FlightMode::Always.period(), 1);
        assert_eq!(FlightMode::Sampled(64).label(), "sampled64");
        assert_eq!(FlightMode::Always.label(), "always");
        assert_eq!(FlightMode::Off.label(), "off");
    }
}
