//! The deterministic asynchronous-PRAM simulator.
//!
//! Every simulated process runs on its own OS thread but performs **no**
//! shared-memory access itself: each [`SimCtx::read`]/[`SimCtx::write`]
//! posts the access to the run's shared state and waits to be picked. An
//! execution is completely determined by the [`Strategy`]'s decisions —
//! a sequence of process ids — which is what makes replay, adversaries
//! and exhaustive exploration possible.
//!
//! [`SimBuilder`] is the one way in: it describes the register vector
//! (initial contents, owners, step budget) and launches everything on
//! it — single runs ([`SimBuilder::run`]), the schedule searches
//! ([`SimBuilder::explore`] and its reduced and `_parallel` forms,
//! [`SimBuilder::certify`], [`SimBuilder::sample`]) and the shrinker
//! ([`SimBuilder::shrink`]). Each search is a builder method defined in
//! its own module: [`mod@explore`], [`mod@parallel`], [`mod@certify`],
//! [`mod@sample`], [`mod@shrink`].
//!
//! ## Who schedules: the baton
//!
//! There is no scheduler thread. One run's whole state — registers,
//! pending accesses, flags, trace, counters, profiler *and the
//! strategy* — sits behind one mutex, with one reply slot per process.
//! A decision point is reached when every live process has posted its
//! next access (or finished); the thread whose post or completion
//! brought that about holds the **baton** and takes decisions itself,
//! in a loop, until one of them
//!
//! * names the holder — it applies its own access and returns to its
//!   body: no thread switch, no system call;
//! * names another process — the holder applies that access, stores the
//!   reply in the other's slot, unparks it and parks on its own slot;
//! * ends the run — it wakes the thread that called `run`.
//!
//! So a schedule that picks the same process k times in a row costs one
//! hand-off, not k. At most one thread is ever unparked and unblocked
//! per run, so the mutex is never contended while the run is live. The
//! calling thread only starts the run, waits (checking every 30 s that
//! some process made progress) and tears it down.
//!
//! No wake-up is lost: a reply is stored under the mutex *before* the
//! `unpark`, and a woken thread re-checks its slot under the mutex
//! after every `park` — an `unpark` that comes first leaves a token
//! that makes the next `park` return at once, and a stale token only
//! costs one more look at an empty slot.
//!
//! Because [`SimCtx`] carries no lifetime, the shared state cannot
//! borrow: every strategy travels into the run **by value** (`Send +
//! 'static`) and is handed back after it. That is how the explorers
//! keep theirs across runs, and how [`SimBuilder`] does: it moves its
//! strategy into each run and takes it back with the outcome.
//!
//! A failure on the scheduling side (a single-writer violation, a
//! strategy naming a process that cannot run, a panic inside `decide`)
//! is caught on the thread that hit it, ends the run, and is re-raised
//! with its original payload from the `run*`/`explore*`/`certify*` call
//! on the caller's thread once every process thread has unwound.
//!
//! Crashing a process (the model's notion of failure — it simply stops
//! taking steps) is a scheduling decision; the victim's thread stays
//! parked and is unwound at teardown via [`crate::crash::CrashSignal`].

pub mod budget;
pub mod certify;
pub mod explore;
pub mod fault;
#[cfg(test)]
mod handoff_tests;
pub mod parallel;
pub mod sample;
pub mod shrink;
pub mod strategy;

pub use budget::{Budget, Budgeted};
pub use certify::{CertViolation, Certificate, CertifyConfig, ViolationKind};
pub use explore::{ExecutionWitness, ExploreConfig, ExploreStats};
pub use fault::{FaultPlan, Faulty};
pub use parallel::resolve_threads;
pub use sample::{wilson_interval, SampleConfig, SampleReport, SampleViolation, Sampler};
pub use shrink::{ShrinkReport, ShrinkStats, SHRINK_MAX_ATTEMPTS};
pub use strategy::{Decision, SchedView, Strategy};

use crate::contention::{ContentionMap, ContentionProfiler};
use crate::crash::{self, CrashSignal};
use crate::ctx::{AccessKind, MemCtx, ProcId};
use crate::trace::{StepCounts, Trace, TraceEvent};
use parallel::ProcPool;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A shared-memory access request, carrying the written value.
enum Access<T> {
    Read(usize),
    Write(usize, T),
}

/// What a waiting process finds in its slot.
enum Reply<T> {
    Value(T),
    Ack,
    Crash,
}

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// A strategy the run can own for its duration: `Send`, so that
/// whichever thread holds the baton may call it, and recoverable by its
/// concrete type once the run is over.
trait Traveling: Strategy + Send {
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<S: Strategy + Send + 'static> Traveling for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What one scheduling decision did to the run.
enum Advance<T> {
    /// The pending access of this process was applied; here is its reply.
    Served(ProcId, Reply<T>),
    /// A process was crashed; the same thread decides again.
    Again,
    /// The run is over.
    Over,
}

/// One run's state; everything a decision reads or writes.
struct RunState<T> {
    /// Bumped at every [`Hub::begin`], so that a thread left over from a
    /// run its caller gave up on cannot touch a later one.
    epoch: u64,
    owners: Option<Vec<ProcId>>,
    max_steps: u64,
    /// The thread to wake when the run is over.
    caller: Option<Thread>,
    /// `threads[p]` hosts process `p` (see [`ProcPool`]).
    threads: Vec<Thread>,
    /// `slots[p]` is where process `p` finds the reply it parked for.
    slots: Vec<Option<Reply<T>>>,
    strategy: Option<Box<dyn Traveling>>,
    memory: Vec<T>,
    /// For each process, its posted access (a crashed process keeps the
    /// one it was crashed on). Kept across decisions: only the entry
    /// that changed is updated.
    pending: Vec<Option<(AccessKind, usize)>>,
    /// The value of a posted write.
    write_vals: Vec<Option<T>>,
    /// Uncrashed processes with a posted access, ascending; kept like
    /// `pending`.
    runnable: Vec<ProcId>,
    finished: Vec<bool>,
    crashed: Vec<bool>,
    crashed_at: Vec<Option<u64>>,
    /// Processes running their bodies: each owes the run a post or a
    /// completion. A decision point is `computing == 0`.
    computing: usize,
    /// Process threads that have not reported completion yet.
    unfinished: usize,
    steps: u64,
    halted: bool,
    trace: Trace,
    counts: Vec<StepCounts>,
    /// The run's contention profile, when it is profiled.
    profiler: Option<ContentionProfiler>,
    /// The payload of a panic on the scheduling side.
    failure: Option<Payload>,
}

impl<T: Clone> RunState<T> {
    /// Take one scheduling decision and carry it out.
    fn advance(&mut self) -> Advance<T> {
        if self.runnable.is_empty() {
            return Advance::Over; // every process finished or crashed
        }
        if self.steps >= self.max_steps {
            self.halted = true;
            return Advance::Over;
        }
        let view = SchedView {
            step: self.steps,
            runnable: &self.runnable,
            pending: &self.pending,
            finished: &self.finished,
            crashed: &self.crashed,
        };
        let strategy = self.strategy.as_mut().expect("a live run has a strategy");
        match strategy.decide(&view) {
            Decision::Step(p) => {
                let at = self.runnable.binary_search(&p).unwrap_or_else(|_| {
                    panic!(
                        "strategy chose non-runnable process {p} (runnable: {:?})",
                        self.runnable
                    )
                });
                let (kind, reg) = self.pending[p].expect("runnable implies pending");
                self.trace.push(TraceEvent {
                    step: self.steps,
                    proc: p,
                    kind,
                    reg,
                });
                self.counts[p].bump(kind);
                if let Some(prof) = &mut self.profiler {
                    // Every process blocked on the same register right
                    // now; all posted accesses are in view, so this is
                    // exact. Point contention counts the serviced
                    // process too.
                    let rivals = self
                        .runnable
                        .iter()
                        .filter(|&&q| q != p && self.pending[q].is_some_and(|(_, r)| r == reg));
                    prof.record(p, reg, kind, 1 + rivals.count() as u64);
                }
                self.steps += 1;
                let reply = match kind {
                    AccessKind::Read => Reply::Value(self.memory[reg].clone()),
                    AccessKind::Write => {
                        if let Some(owners) = &self.owners {
                            assert_eq!(
                                owners[reg], p,
                                "SWMR violation: P{p} wrote register {reg} owned by P{}",
                                owners[reg]
                            );
                        }
                        self.memory[reg] = self.write_vals[p].take().expect("a posted write");
                        Reply::Ack
                    }
                };
                self.pending[p] = None;
                self.runnable.remove(at);
                self.computing += 1;
                Advance::Served(p, reply)
            }
            Decision::Crash(p) => {
                assert!(
                    !self.crashed[p] && !self.finished[p],
                    "cannot crash {p} twice"
                );
                self.crashed[p] = true;
                self.crashed_at[p] = Some(self.steps);
                // At a decision point a live process has a posted access.
                self.runnable.retain(|&q| q != p);
                Advance::Again
            }
            Decision::Halt => {
                self.halted = true;
                Advance::Over
            }
        }
    }
}

/// The shared side of a run: its state behind the run's one mutex, plus
/// the two words the waiting caller reads without it. A [`ProcPool`]
/// keeps one hub for all its runs.
pub(crate) struct Hub<T> {
    state: Mutex<RunState<T>>,
    /// Set (under the mutex) by the decision that ends the run, or by a
    /// caller giving up on it.
    over: AtomicBool,
    /// Posts and completions so far: the caller's evidence that no
    /// process is computing forever.
    progress: AtomicU64,
}

/// How long the caller sleeps when the timeout is too large to add to
/// an `Instant`.
const FAR: Duration = Duration::from_secs(365 * 24 * 3600);

impl<T: Clone> Hub<T> {
    pub(crate) fn new() -> Self {
        Hub {
            state: Mutex::new(RunState {
                epoch: 0,
                owners: None,
                max_steps: 0,
                caller: None,
                threads: Vec::new(),
                slots: Vec::new(),
                strategy: None,
                memory: Vec::new(),
                pending: Vec::new(),
                write_vals: Vec::new(),
                runnable: Vec::new(),
                finished: Vec::new(),
                crashed: Vec::new(),
                crashed_at: Vec::new(),
                computing: 0,
                unfinished: 0,
                steps: 0,
                halted: false,
                trace: Trace::new(),
                counts: Vec::new(),
                profiler: None,
                failure: None,
            }),
            over: AtomicBool::new(true),
            progress: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunState<T>> {
        // Every panic that can start under the mutex is caught under it
        // (see `drive`), so it is never poisoned.
        self.state
            .lock()
            .expect("the run's mutex is never poisoned")
    }

    /// Record the thread that hosts the next process id.
    pub(crate) fn seat(&self, thread: Thread) {
        self.lock().threads.push(thread);
    }

    /// Reset the state for a run of `n` processes on the calling thread
    /// (with a fresh contention profiler when `profile` is set) and mint
    /// their handles.
    fn begin(
        self: &Arc<Self>,
        cfg: &SimConfig<T>,
        strategy: Box<dyn Traveling>,
        n: usize,
        profile: bool,
    ) -> Vec<SimCtx<T>> {
        let n_regs = cfg.registers.len();
        let profiler = profile.then(|| ContentionProfiler::new(n, n_regs));
        let mut st = self.lock();
        let st = &mut *st;
        debug_assert!(st.threads.len() >= n, "a seated thread per process");
        st.epoch += 1;
        st.owners.clone_from(&cfg.owners);
        st.max_steps = cfg.max_steps;
        st.caller = Some(std::thread::current());
        st.slots.clear();
        st.slots.resize_with(n, || None);
        st.strategy = Some(strategy);
        st.memory.clone_from(&cfg.registers);
        st.pending.clear();
        st.pending.resize(n, None);
        st.write_vals.clear();
        st.write_vals.resize_with(n, || None);
        st.runnable.clear();
        st.finished.clear();
        st.finished.resize(n, false);
        st.crashed = vec![false; n];
        st.crashed_at = vec![None; n];
        st.computing = n;
        st.unfinished = n;
        st.steps = 0;
        st.halted = false;
        st.trace = Trace::new();
        st.counts = vec![StepCounts::default(); n];
        st.profiler = profiler;
        st.failure = None;
        // With nobody to reach a decision point the run is over already.
        self.over.store(n == 0, Ordering::Release);
        (0..n)
            .map(|proc| SimCtx {
                proc,
                n_procs: n,
                n_regs,
                epoch: st.epoch,
                hub: Arc::clone(self),
            })
            .collect()
    }

    /// Process `proc` asks for `access`; returns when it was serviced
    /// (or the run ended). Takes the decisions itself when this post is
    /// the one every other process was waiting for.
    fn post(&self, proc: ProcId, epoch: u64, access: Access<T>) -> Reply<T> {
        let mut guard = self.lock();
        let st = &mut *guard;
        if st.epoch != epoch || self.over.load(Ordering::Relaxed) {
            return Reply::Crash;
        }
        self.progress.fetch_add(1, Ordering::Relaxed);
        debug_assert!(st.pending[proc].is_none(), "duplicate request from P{proc}");
        st.pending[proc] = Some(match access {
            Access::Read(reg) => (AccessKind::Read, reg),
            Access::Write(reg, val) => {
                st.write_vals[proc] = Some(val);
                (AccessKind::Write, reg)
            }
        });
        let at = st.runnable.partition_point(|&q| q < proc);
        st.runnable.insert(at, proc);
        st.computing -= 1;
        if st.computing > 0 {
            drop(guard);
            return self.await_reply(proc);
        }
        self.drive(guard, Some(proc))
            .expect("a posting process gets a reply")
    }

    /// Process `proc`'s body returned or unwound.
    pub(crate) fn finish(&self, proc: ProcId, epoch: u64) {
        let mut st = self.lock();
        if st.epoch != epoch {
            return;
        }
        self.progress.fetch_add(1, Ordering::Relaxed);
        st.finished[proc] = true;
        st.unfinished -= 1;
        if self.over.load(Ordering::Relaxed) {
            // Unwound at teardown; the caller waits for the last one.
            if st.unfinished == 0 {
                st.caller.as_ref().expect("a run has a caller").unpark();
            }
            return;
        }
        st.computing -= 1;
        if st.computing == 0 {
            self.drive(st, None);
        }
    }

    /// Hold the baton: decide until a decision names `me` (its reply is
    /// returned), hands the baton to another process (then wait for
    /// `me`'s own turn, if it has one coming), or ends the run.
    fn drive(&self, mut st: MutexGuard<'_, RunState<T>>, me: Option<ProcId>) -> Option<Reply<T>> {
        loop {
            // Caught here, under the mutex, so that a failing strategy
            // or a single-writer violation poisons nothing.
            match catch_unwind(AssertUnwindSafe(|| st.advance())) {
                Ok(Advance::Again) => {}
                Ok(Advance::Served(p, reply)) if Some(p) == me => return Some(reply),
                Ok(Advance::Served(p, reply)) => {
                    st.slots[p] = Some(reply);
                    let next = st.threads[p].clone();
                    drop(st);
                    next.unpark();
                    return me.map(|me| self.await_reply(me));
                }
                over => {
                    st.failure = over.err();
                    self.over.store(true, Ordering::Release);
                    let caller = st.caller.clone().expect("a run has a caller");
                    drop(st);
                    caller.unpark();
                    // A process still mid-body unwinds right away.
                    return me.map(|_| Reply::Crash);
                }
            }
        }
    }

    /// Park until `slots[proc]` is filled. The slot is written under the
    /// mutex before the `unpark`, and re-read under it after every
    /// `park`, so neither a wake-up nor a reply can be lost.
    fn await_reply(&self, proc: ProcId) -> Reply<T> {
        loop {
            std::thread::park();
            if let Some(reply) = self.lock().slots[proc].take() {
                return reply;
            }
        }
    }

    /// Answer every parked process with `Crash` so its thread unwinds.
    fn crash_parked(&self) -> MutexGuard<'_, RunState<T>> {
        let mut guard = self.lock();
        let st = &mut *guard;
        for (p, slot) in st.slots.iter_mut().enumerate() {
            if !st.finished[p] && st.pending[p].is_some() {
                *slot = Some(Reply::Crash);
                st.threads[p].unpark();
            }
        }
        guard
    }

    /// The calling thread's part of a run: wait for it to end, then
    /// unwind every process that did not finish and wait for them all.
    fn attend(&self, timeout: Duration) {
        let until = |now: Instant| now.checked_add(timeout).unwrap_or(now + FAR);
        let mut seen = self.progress.load(Ordering::Relaxed);
        let mut deadline = until(Instant::now());
        while !self.over.load(Ordering::Acquire) {
            #[cfg(test)]
            handoff_tests::dump_if_asked(self);
            let now = Instant::now();
            let progress = self.progress.load(Ordering::Relaxed);
            if progress != seen {
                seen = progress;
                deadline = until(now);
                continue;
            }
            if now >= deadline {
                self.over.store(true, Ordering::Release);
                drop(self.crash_parked());
                panic!(
                    "simulated process computed for {timeout:?} without a shared-memory \
                     access or completion; bodies must not loop locally forever"
                );
            }
            std::thread::park_timeout(deadline - now);
        }
        let mut st = self.crash_parked();
        let deadline = until(Instant::now());
        while st.unfinished > 0 {
            drop(st);
            #[cfg(test)]
            handoff_tests::dump_if_asked(self);
            let now = Instant::now();
            assert!(
                now < deadline,
                "simulated process failed to unwind during teardown"
            );
            std::thread::park_timeout(deadline - now);
            st = self.lock();
        }
    }

    /// Move the finished run out: the outcome and the strategy — or, if
    /// the run failed on the scheduling side, the failure, re-raised here
    /// on the caller.
    fn end<R>(
        &self,
        results: Vec<Option<R>>,
        panics: Vec<Option<String>>,
    ) -> (SimOutcome<T, R>, Box<dyn Traveling>) {
        let mut guard = self.lock();
        let st = &mut *guard;
        let contention = st.profiler.take().map(ContentionProfiler::into_map);
        if let Some(payload) = st.failure.take() {
            drop(guard);
            resume_unwind(payload);
        }
        let outcome = SimOutcome {
            results,
            panics,
            crashed: std::mem::take(&mut st.crashed),
            crashed_at: std::mem::take(&mut st.crashed_at),
            trace: std::mem::take(&mut st.trace),
            counts: std::mem::take(&mut st.counts),
            contention,
            memory: std::mem::take(&mut st.memory),
            halted: st.halted,
        };
        let strategy = st.strategy.take().expect("the run had a strategy");
        (outcome, strategy)
    }
}

/// The per-process handle handed to simulated process bodies.
pub struct SimCtx<T> {
    proc: ProcId,
    n_procs: usize,
    n_regs: usize,
    epoch: u64,
    hub: Arc<Hub<T>>,
}

impl<T: Clone> SimCtx<T> {
    /// Report that the body returned or unwound; the last word of a
    /// process thread to its run.
    pub(crate) fn finish(self) {
        self.hub.finish(self.proc, self.epoch);
    }
}

impl<T: Clone> MemCtx<T> for SimCtx<T> {
    fn proc(&self) -> ProcId {
        self.proc
    }

    fn n_procs(&self) -> usize {
        self.n_procs
    }

    fn n_regs(&self) -> usize {
        self.n_regs
    }

    fn read(&mut self, reg: usize) -> T {
        assert!(reg < self.n_regs, "register {reg} out of range");
        match self.hub.post(self.proc, self.epoch, Access::Read(reg)) {
            Reply::Value(v) => v,
            Reply::Crash => std::panic::panic_any(CrashSignal),
            Reply::Ack => unreachable!("read answered with ack"),
        }
    }

    fn write(&mut self, reg: usize, val: T) {
        assert!(reg < self.n_regs, "register {reg} out of range");
        match self
            .hub
            .post(self.proc, self.epoch, Access::Write(reg, val))
        {
            Reply::Ack => {}
            Reply::Crash => std::panic::panic_any(CrashSignal),
            Reply::Value(_) => unreachable!("write answered with value"),
        }
    }
}

/// A simulated process body.
pub type ProcBody<'a, T, R> = Box<dyn FnOnce(&mut SimCtx<T>) -> R + Send + 'a>;

/// The part of a [`SimBuilder`] that every run on it reads: the register
/// vector and its limits. The workers of a `_parallel` search share it
/// (the builder's strategy is not `Sync`).
#[derive(Clone, Debug)]
pub(crate) struct SimConfig<T> {
    /// Initial register contents; the length fixes the register count.
    pub(crate) registers: Vec<T>,
    /// Optional single-writer discipline: `owners[r]` is the only process
    /// allowed to write register `r`. Violations panic (they are bugs in
    /// the algorithm under test, not schedulable behaviours).
    pub(crate) owners: Option<Vec<ProcId>>,
    /// Hard step budget; the run halts (crashing all processes) when
    /// exceeded. Guards against livelock under pathological schedules.
    pub(crate) max_steps: u64,
    /// How long a run may go without any process posting an access or
    /// completing before it is declared wedged.
    pub(crate) local_timeout: Duration,
}

impl<T> SimConfig<T> {
    /// The defaults: no owner map, 10M-step budget, 30s local timeout.
    pub(crate) fn base(registers: Vec<T>) -> Self {
        SimConfig {
            registers,
            owners: None,
            max_steps: 10_000_000,
            local_timeout: Duration::from_secs(30),
        }
    }
}

/// The result of a simulated execution.
#[derive(Debug)]
pub struct SimOutcome<T, R> {
    /// Per-process results; `None` when the process crashed or the run
    /// halted before it finished.
    pub results: Vec<Option<R>>,
    /// Per-process panic messages for *genuine* panics (not crashes).
    pub panics: Vec<Option<String>>,
    /// Which processes were crashed by the strategy (or at halt).
    pub crashed: Vec<bool>,
    /// For each process crashed by an explicit `Decision::Crash`, the
    /// global step number at which the crash fired (`None` for survivors
    /// and for processes merely torn down at halt). Crash decisions do
    /// not consume a step number, so replaying the schedule with a
    /// [`fault::FaultPlan`] carrying these pairs reproduces the run.
    pub crashed_at: Vec<Option<u64>>,
    /// The full access trace.
    pub trace: Trace,
    /// Per-process read/write counts.
    pub counts: Vec<StepCounts>,
    /// Contention profile of the run (`None` unless profiling was
    /// enabled via [`SimBuilder::profile`]). Exact: point contention is
    /// the number of processes with a pending request on the same
    /// register at the instant each access is serviced.
    pub contention: Option<ContentionMap>,
    /// Final register contents.
    pub memory: Vec<T>,
    /// `true` when the run was stopped by `Decision::Halt` or the step
    /// budget rather than by every process finishing or crashing.
    pub halted: bool,
}

impl<T, R> SimOutcome<T, R> {
    /// Panic (propagating the first recorded message) if any process body
    /// panicked. Call this in tests before inspecting results.
    pub fn assert_no_panics(&self) {
        for (p, msg) in self.panics.iter().enumerate() {
            if let Some(m) = msg {
                panic!("process {p} panicked: {m}");
            }
        }
    }

    /// The `(proc, step)` pairs of every explicit crash decision taken
    /// in this run, in process order. Replaying the schedule with a
    /// [`fault::FaultPlan`] carrying these pairs reproduces the
    /// execution (crashes at equal steps commute: a crashed process
    /// takes no further steps either way).
    pub fn executed_crashes(&self) -> Vec<(ProcId, u64)> {
        self.crashed_at
            .iter()
            .enumerate()
            .filter_map(|(p, s)| s.map(|s| (p, s)))
            .collect()
    }

    /// The results of an execution in which every process finished.
    pub fn unwrap_results(mut self) -> Vec<R> {
        self.assert_no_panics();
        self.results
            .iter_mut()
            .enumerate()
            .map(|(p, r)| {
                r.take()
                    .unwrap_or_else(|| panic!("process {p} did not finish"))
            })
            .collect()
    }
}

/// Run one execution on `pool`'s threads with a strategy that travels
/// with the run, and hand the strategy back with the outcome. This is
/// the one way a simulated execution happens; every driver that runs
/// more than once keeps a pool and calls it per run.
///
/// With `profile` set the run is profiled on its own, into
/// [`SimOutcome::contention`]; only [`SimBuilder::run`] asks for that.
pub(crate) fn run_sim<'env, T, R, S>(
    pool: &mut ProcPool<'_, 'env, T, R>,
    cfg: &SimConfig<T>,
    strategy: S,
    bodies: Vec<ProcBody<'env, T, R>>,
    profile: bool,
) -> (SimOutcome<T, R>, S)
where
    T: Clone + Send,
    R: Send,
    S: Strategy + Send + 'static,
{
    crash::install_quiet_crash_hook();
    let n = bodies.len();
    let hub = Arc::clone(pool.hub(n));
    let ctxs = hub.begin(cfg, Box::new(strategy), n, profile);
    pool.dispatch(ctxs.into_iter().zip(bodies));
    hub.attend(cfg.local_timeout);
    let (results, panics) = pool.collect(n);
    let (outcome, strategy) = hub.end(results, panics);
    let strategy = strategy
        .into_any()
        .downcast()
        .expect("a run hands back the strategy it was given");
    (outcome, *strategy)
}

/// Fluent construction of simulated executions — the front door of the
/// simulator.
///
/// Every knob is a named method, the strategy defaults to
/// [`strategy::RoundRobin`], and runs are launched from the builder
/// itself — single runs with `run*`, schedule searches with the
/// methods the [module docs](self) list.
///
/// ```
/// use apram_model::sim::SimBuilder;
/// use apram_model::sim::strategy::SeededRandom;
/// use apram_model::MemCtx;
///
/// let out = SimBuilder::new(vec![0u64; 2])
///     .owners(vec![0, 1])               // SWMR: register p owned by P(p)
///     .profile(true)                    // per-cell contention, exact
///     .strategy(SeededRandom::new(42))
///     .crashes([(1, 3)])                // crash P1 at step 3
///     .run_symmetric(2, |ctx| {
///         let me = ctx.proc();
///         ctx.write(me, me as u64 + 1);
///         ctx.read(1 - me)
///     });
/// assert_eq!(out.contention.unwrap().total_steps(), out.trace.len() as u64);
/// ```
///
/// `run*` take `&mut self`, so one builder can launch many runs; the
/// strategy travels into each run and comes back with its outcome, so
/// a stateful strategy carries its state across them. (A run that
/// fails on the scheduling side does not hand it back: the builder is
/// then back on round robin.)
pub struct SimBuilder<T> {
    cfg: SimConfig<T>,
    faults: fault::FaultPlan,
    strategy: Box<dyn Strategy + Send>,
    profile: bool,
}

impl<T: Clone + Send> SimBuilder<T> {
    /// A builder over the given initial register contents (the length
    /// fixes the register count). Defaults: no owner map, 10M-step
    /// budget, 30s local timeout, round-robin strategy, profiling off.
    pub fn new(registers: Vec<T>) -> Self {
        SimBuilder {
            cfg: SimConfig::base(registers),
            faults: fault::FaultPlan::new(),
            strategy: Box::new(strategy::RoundRobin::new()),
            profile: false,
        }
    }

    /// Single-writer discipline: `owners[r]` is the only process allowed
    /// to write register `r`. Violations panic.
    pub fn owners(mut self, owners: Vec<ProcId>) -> Self {
        assert_eq!(
            owners.len(),
            self.cfg.registers.len(),
            "owner map length must equal register count"
        );
        self.cfg.owners = Some(owners);
        self
    }

    /// Hard step budget; the run halts (crashing all processes) when
    /// exceeded.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.cfg.max_steps = max_steps;
        self
    }

    /// Profile each `run*` on its own into a [`ContentionMap`] (surfaced
    /// on [`SimOutcome::contention`]): per-cell hot-spot counters, stall
    /// attribution edges, and contention-charged step accounting, with
    /// point contention attributed exactly at each decision.
    ///
    /// A profile is of one run: the schedule searches never profile,
    /// just as they ignore the builder's strategy and crash plan. To
    /// profile a witness a search found, replay it the way the certifier
    /// does — halting on its schedule under its crash plan. For a
    /// [`CertViolation`] `v`:
    ///
    /// ```text
    /// SimBuilder::new(registers)
    ///     .profile(true)
    ///     .strategy(Replay::halting(v.report.schedule))
    ///     .crashes(v.report.crashes)
    ///     .run(factory())
    /// ```
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Schedule with `strategy`. Replaces any previous strategy.
    pub fn strategy(mut self, strategy: impl Strategy + Send + 'static) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Extend the fault plan with `(proc, step)` pairs: each listed
    /// process is crashed at the first decision point at or after its
    /// given global step, on top of whatever the strategy decides. The
    /// plan applies to every subsequent run, which refuses to start if
    /// it names a process the run does not have.
    ///
    /// ```
    /// # use apram_model::sim::SimBuilder;
    /// # use apram_model::MemCtx;
    /// let out = SimBuilder::new(vec![0u64; 3])
    ///     .crashes([(1, 5), (2, 9)])
    ///     .run_symmetric(3, |ctx| { ctx.write(ctx.proc(), 1); ctx.read(0) });
    /// ```
    pub fn crashes(mut self, crashes: impl IntoIterator<Item = (ProcId, u64)>) -> Self {
        for (p, k) in crashes {
            self.faults = std::mem::take(&mut self.faults).crash(p, k);
        }
        self
    }

    /// Run one execution with the given process bodies.
    pub fn run<R, F>(&mut self, bodies: Vec<F>) -> SimOutcome<T, R>
    where
        R: Send,
        F: FnOnce(&mut SimCtx<T>) -> R + Send,
    {
        let n = bodies.len();
        if let Some(&(p, _)) = self.faults.crashes().iter().find(|&&(p, _)| p >= n) {
            panic!("the crash plan names P{p}, but the run has {n} processes");
        }
        let strategy = std::mem::replace(&mut self.strategy, Box::new(strategy::RoundRobin::new()));
        let strategy = self.faults.over(strategy);
        let bodies = bodies
            .into_iter()
            .map(|body| Box::new(body) as ProcBody<'_, T, R>)
            .collect();
        // Bodies may borrow the environment, so their threads live in a
        // scope that ends with the run.
        let (out, strategy) = std::thread::scope(|scope| {
            let mut pool = ProcPool::new(scope);
            run_sim(&mut pool, &self.cfg, strategy, bodies, self.profile)
        });
        self.strategy = strategy.into_inner();
        out
    }

    /// Run `n` copies of the same body (each told its process id via
    /// [`SimCtx::proc`]).
    pub fn run_symmetric<R, F>(&mut self, n: usize, body: F) -> SimOutcome<T, R>
    where
        R: Send,
        F: Fn(&mut SimCtx<T>) -> R + Send + Sync,
    {
        let body = &body;
        let bodies: Vec<_> = (0..n)
            .map(|_| Box::new(move |ctx: &mut SimCtx<T>| body(ctx)) as ProcBody<'_, T, R>)
            .collect();
        self.run(bodies)
    }
}

#[cfg(test)]
mod tests {
    use super::strategy::{Replay, SeededRandom};
    use super::*;
    use crate::contention::CellStats;

    /// Two processes each write their id+1 then read the other's slot.
    fn body(ctx: &mut SimCtx<u64>) -> u64 {
        let me = ctx.proc();
        let other = 1 - me;
        ctx.write(me, me as u64 + 1);
        ctx.read(other)
    }

    #[test]
    fn round_robin_interleaves_deterministically() {
        // RoundRobin is the builder default.
        let out = SimBuilder::new(vec![0u64; 2]).run_symmetric(2, body);
        let res = out.unwrap_results();
        // RR order: P0 w, P1 w, P0 r, P1 r — both see the other's write.
        assert_eq!(res, vec![2, 1]);
    }

    #[test]
    fn replay_reproduces_a_trace() {
        let out1 = SimBuilder::new(vec![0u64; 2])
            .strategy(SeededRandom::new(42))
            .run_symmetric(2, body);
        out1.assert_no_panics();
        let sched = out1.trace.schedule();
        let out2 = SimBuilder::new(vec![0u64; 2])
            .strategy(Replay::strict(sched.clone()))
            .run_symmetric(2, body);
        assert_eq!(out1.results, out2.results);
        assert_eq!(out2.trace.schedule(), sched);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = || {
            SimBuilder::new(vec![0u64; 2])
                .strategy(SeededRandom::new(7))
                .run_symmetric(2, body)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.results, b.results);
        assert_eq!(a.trace.schedule(), b.trace.schedule());
    }

    #[test]
    fn sequential_schedule_serializes() {
        // Run P0 to completion before P1 starts.
        let out = SimBuilder::new(vec![0u64; 2])
            .strategy(Replay::strict(vec![0, 0, 1, 1]))
            .run_symmetric(2, body);
        let res = out.unwrap_results();
        assert_eq!(res, vec![0, 1]); // P0 reads before P1 writes
    }

    #[test]
    fn step_counts_are_exact() {
        let out = SimBuilder::new(vec![0u64; 2]).run_symmetric(2, body);
        for p in 0..2 {
            assert_eq!(
                out.counts[p],
                StepCounts {
                    reads: 1,
                    writes: 1
                }
            );
        }
        assert_eq!(out.trace.len(), 4);
        assert_eq!(out.trace.counts(2), out.counts);
    }

    #[test]
    fn crash_makes_survivors_proceed() {
        struct CrashP1ThenRR {
            crashed: bool,
        }
        impl Strategy for CrashP1ThenRR {
            fn decide(&mut self, view: &SchedView) -> Decision {
                if !self.crashed {
                    self.crashed = true;
                    return Decision::Crash(1);
                }
                Decision::Step(view.runnable[0])
            }
        }
        let out = SimBuilder::new(vec![0u64; 2])
            .strategy(CrashP1ThenRR { crashed: false })
            .run_symmetric(2, body);
        out.assert_no_panics();
        assert_eq!(out.results[0], Some(0)); // P1 never wrote
        assert_eq!(out.results[1], None);
        assert!(out.crashed[1]);
        assert!(!out.halted);
    }

    #[test]
    fn builder_crash_plan_fires() {
        // Crash P1 before it takes a single step; P0 proceeds alone.
        let out = SimBuilder::new(vec![0u64; 2])
            .crashes([(1, 0)])
            .run_symmetric(2, body);
        out.assert_no_panics();
        assert_eq!(out.results[0], Some(0));
        assert_eq!(out.results[1], None);
        assert!(out.crashed[1]);
    }

    #[test]
    #[should_panic(expected = "the crash plan names P5, but the run has 2 processes")]
    fn a_crash_plan_naming_a_missing_process_is_refused() {
        SimBuilder::new(vec![0u64; 2])
            .crashes([(5, 0)])
            .run_symmetric(2, body);
    }

    /// The schedule searches own the schedule and the crash pattern, and
    /// never profile: a builder's strategy, crash plan and profiling
    /// switch change none of their reports, and no run they hand a
    /// callback carries a contention map.
    #[test]
    fn engines_ignore_the_builders_strategy_and_crash_plan() {
        let bare = SimBuilder::new(vec![0u64; 2]);
        let dressed = SimBuilder::new(vec![0u64; 2])
            .strategy(SeededRandom::new(11))
            .crashes([(0, 0)])
            .profile(true);
        let unprofiled = |out: &SimOutcome<u64, u64>| out.contention.is_none();
        let factory = || {
            (0..2)
                .map(|_| Box::new(body) as ProcBody<'static, u64, u64>)
                .collect()
        };
        let explored = |sim: &SimBuilder<u64>| {
            let econfig = ExploreConfig::new().max_crashes(1);
            let stats = sim.explore(&econfig, factory, unprofiled);
            ExploreStats {
                elapsed: Duration::ZERO,
                ..stats
            }
        };
        assert_eq!(explored(&bare), explored(&dressed));
        let ccfg = CertifyConfig::new([2, 2]).max_crashes(1);
        let certified = |sim: &SimBuilder<u64>| sim.certify(&ccfg, factory, unprofiled).to_json();
        assert_eq!(
            certified(&bare).to_compact(),
            certified(&dressed).to_compact()
        );
        let scfg = SampleConfig::new([2, 2])
            .seed(5)
            .max_runs(64)
            .max_crashes(1);
        let sampled = |sim: &SimBuilder<u64>| sim.sample(&scfg, factory, unprofiled).to_json();
        assert_eq!(sampled(&bare).to_compact(), sampled(&dressed).to_compact());
    }

    #[test]
    fn builder_fault_plan_records_crash_steps() {
        let out = SimBuilder::new(vec![0u64; 2])
            .crashes([(1, 1)])
            .run_symmetric(2, body);
        out.assert_no_panics();
        assert!(out.crashed[1]);
        // Crash decisions do not consume a step number; P1 died at the
        // first decision point with step >= 1.
        assert_eq!(out.crashed_at, vec![None, Some(1)]);
        assert_eq!(out.executed_crashes(), vec![(1, 1)]);
    }

    #[test]
    fn halt_stops_everyone() {
        struct HaltNow;
        impl Strategy for HaltNow {
            fn decide(&mut self, _: &SchedView) -> Decision {
                Decision::Halt
            }
        }
        let out = SimBuilder::new(vec![0u64; 2])
            .strategy(HaltNow)
            .run_symmetric(2, body);
        assert!(out.halted);
        assert_eq!(out.results, vec![None, None]);
    }

    #[test]
    fn step_budget_halts() {
        let out = SimBuilder::new(vec![0u64; 2])
            .max_steps(1)
            .run_symmetric(2, body);
        assert!(out.halted);
        assert_eq!(out.trace.len(), 1);
    }

    #[test]
    #[should_panic(expected = "SWMR violation")]
    fn swmr_violation_is_caught() {
        // The SWMR assertion fires on the process thread holding the
        // baton; run re-raises it on the calling thread.
        let _: SimOutcome<u64, ()> =
            SimBuilder::new(vec![0u64; 2])
                .owners(vec![0, 1])
                .run(vec![Box::new(|ctx: &mut SimCtx<u64>| {
                    ctx.write(1, 9); // P0 writes P1's register
                }) as ProcBody<'_, u64, ()>]);
    }

    #[test]
    fn genuine_panics_are_reported() {
        let out: SimOutcome<u64, ()> =
            SimBuilder::new(vec![0u64; 1]).run(vec![Box::new(|ctx: &mut SimCtx<u64>| {
                let _ = ctx.read(0);
                panic!("algorithm bug");
            }) as ProcBody<'_, u64, ()>]);
        assert_eq!(out.panics[0].as_deref(), Some("algorithm bug"));
        assert_eq!(out.results[0], None);
    }

    #[test]
    fn memory_reflects_final_state() {
        let out = SimBuilder::new(vec![0u64; 2]).run_symmetric(2, body);
        assert_eq!(out.memory, vec![1, 2]);
    }

    #[test]
    fn bodies_may_borrow_environment() {
        let data = vec![10u64, 20];
        let data_ref = &data;
        let out = SimBuilder::new(vec![0u64; 2]).run_symmetric(2, move |ctx| {
            let v = data_ref[ctx.proc()];
            ctx.write(ctx.proc(), v);
            v
        });
        assert_eq!(out.unwrap_results(), vec![10, 20]);
    }

    #[test]
    fn borrowed_strategy_carries_state_across_runs() {
        // One Replay strategy driven through two runs: the builder gets
        // it back after each, so the second run continues where the
        // first left off (then falls back to RR).
        let replay = Replay::lenient(vec![0, 0, 1, 1, 1, 1, 0, 0]);
        let mut builder = SimBuilder::new(vec![0u64; 2]).strategy(replay);
        let a = builder.run_symmetric(2, body);
        let b = builder.run_symmetric(2, body);
        assert_eq!(a.trace.schedule(), vec![0, 0, 1, 1]);
        assert_eq!(b.trace.schedule(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn builder_is_reusable_and_deterministic() {
        let mut builder = SimBuilder::new(vec![0u64; 2]);
        let a = builder.run_symmetric(2, body);
        let b = builder.run_symmetric(2, body);
        // RoundRobin keeps its cursor between runs, but with all
        // processes always runnable the interleaving repeats.
        assert_eq!(a.trace.schedule(), b.trace.schedule());
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn metrics_agree_with_trace_counts() {
        let out = SimBuilder::new(vec![0u64; 2])
            .profile(true)
            .strategy(SeededRandom::new(9))
            .run_symmetric(2, body);
        out.assert_no_panics();
        let map = out.contention.as_ref().expect("profiled");
        // The per-process step totals are exactly Trace::counts.
        assert_eq!(out.counts, out.trace.counts(2));
        let steps: Vec<u64> = out.counts.iter().map(StepCounts::total).collect();
        assert_eq!(map.proc_steps, steps);
        // Register totals tally with the trace length.
        let cells: u64 = map.cells.iter().map(CellStats::accesses).sum();
        assert_eq!(cells, out.trace.len() as u64);
    }

    #[test]
    fn contention_is_attributed_exactly() {
        // Under strict replay both processes are blocked on register 0
        // at every decision point, so every serviced access is contended
        // ... except the final step, where only one process remains.
        let run = |profile| {
            SimBuilder::new(vec![0u64; 1])
                .profile(profile)
                .strategy(Replay::strict(vec![0, 1, 0, 1]))
                .run_symmetric(2, |ctx: &mut SimCtx<u64>| {
                    let v = ctx.read(0);
                    ctx.write(0, v + 1);
                })
        };
        let out = run(true);
        out.assert_no_panics();
        let cell = &out.contention.as_ref().expect("profiled").cells[0];
        assert_eq!((cell.reads, cell.writes, cell.contended), (2, 2, 3));
        // Unprofiled, the same run attributes nothing and counts the same.
        let out2 = run(false);
        assert!(out2.contention.is_none());
        assert_eq!(out2.counts, out.counts);
    }

    #[test]
    fn builder_explore_covers_all_interleavings() {
        let builder = SimBuilder::new(vec![0u64; 2]);
        let mut runs = 0u64;
        let stats = builder.explore(
            &ExploreConfig::default(),
            || {
                (0..2)
                    .map(|p| {
                        Box::new(move |ctx: &mut SimCtx<u64>| {
                            ctx.write(p, p as u64 + 1);
                            ctx.read(1 - p)
                        }) as ProcBody<'static, u64, u64>
                    })
                    .collect()
            },
            |out| {
                out.assert_no_panics();
                runs += 1;
                true
            },
        );
        assert!(stats.exhausted);
        assert_eq!(stats.runs, 6); // C(4,2) interleavings
        assert_eq!(runs, 6);
    }
}
