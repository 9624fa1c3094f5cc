//! The schedule-tree search — the one engine behind
//! [`SimBuilder::explore`], [`SimBuilder::explore_reduced`], the
//! [certifier](mod@super::certify) and their `_parallel` forms, the
//! last defined here — and the process pools every driver executes its
//! runs on. (DESIGN.md,
//! "Simulator hand-off", has the argument at length.)
//!
//! ## One search
//!
//! The schedule tree of a deterministic execution is itself
//! deterministic: the node reached by a sequence of *pick indices*
//! (which branch was taken at each decision point) is a pure function of
//! that sequence, including its sleep set and its `explored` mask at the
//! moment a given sibling is entered (every explorable branch before it
//! counts as explored, in ascending order). A unit of work is therefore
//! just a **pick prefix**, no node state attached. A worker pops one,
//! executes it as exactly **one run** — replay the prefix, then descend
//! first-branch (`PrefixStrategy`) — and pushes every other explorable
//! sibling of each fresh node back as a prefix of its own, keeping the
//! nodes themselves for the runs that share their picks.
//!
//! The frontier is a LIFO stack, and a run's siblings are pushed so that
//! the deepest node's lowest pick ends up on top: one worker visits the
//! leaves in depth-first order. That *is* the sequential explorer —
//! `explore`, `explore_reduced` and `certify` run this module's `worker`
//! on the calling thread against a frontier nobody else pops, which lets
//! them keep their weaker bounds (callbacks need not be `Send`, `T` need
//! not be `'static`, one pair of callbacks serves search and shrinking);
//! what that thread does besides searching (spans, the heartbeat) is
//! stated once, in `Observer`. The `_parallel` forms spawn `threads`
//! workers, each with its own pair of callbacks, around one frontier.
//!
//! ## Determinism
//!
//! Counters ([`ExploreStats::runs`], `sleep_skips`, `executed_steps`,
//! `replayed_steps`, `max_depth_reached`) are aggregated atomically and
//! are **bit-identical** for any number of workers — the calling thread
//! alone included — whenever the tree is explored to exhaustion,
//! regardless of timing. Under a run cap one worker executes exactly the
//! first [`max_runs`](super::Budget::max_runs) leaves in depth-first
//! order; several execute some `max_runs` leaves, which ones depending
//! on timing. When a `visit` callback rejects a run, the engine records
//! the violation with the **lowest pick path in canonical order**:
//! workers keep draining only tasks that could still contain a
//! canonically smaller leaf (everything else is cancelled), so the
//! reported — and shrunk — counterexample is the depth-first first one,
//! reproducibly. One worker stops right there: nothing it has queued
//! can precede it. With several, runs canonically *after* a violation
//! may still be visited while the news propagates; `visit` callbacks
//! must tolerate out-of-order invocation (each worker gets its own pair
//! precisely so per-run state needs no locking).
//!
//! ## Process pools
//!
//! Every driver that executes more than one run — the workers here, the
//! sampler and the shrinker — owns a `ProcPool`: scoped OS threads,
//! thread `p` hosting process `p` of run after run, wired once to one
//! shared run state. Starting a run is a reset of that state plus one
//! `unpark` per process; nothing is spawned, joined or allocated for the
//! wiring per run. A worker's pool lives in the same thread scope as the
//! worker itself.

use super::explore::{ExecutionWitness, ExploreConfig, ExploreStats, SleepNode};
use super::shrink::{shrink_on, SHRINK_MAX_ATTEMPTS};
use super::strategy::{Decision, SchedView, Strategy};
use super::{run_sim, Hub, ProcBody, SimBuilder, SimConfig, SimCtx, SimOutcome};
use crate::crash;
use crate::span::SpanRecorder;
use crate::telemetry::{Heartbeat, ProgressBeat};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{Scope, Thread};
use std::time::{Duration, Instant};

/// Resolve a requested worker count: 0 means "all available
/// parallelism" (the `--threads` default in the experiment harness).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What a process thread leaves behind per run: the body's return
/// value, or `Err(Some(message))` for a genuine panic, `Err(None)` for a
/// crash unwind.
type Report<R> = Result<R, Option<String>>;

/// The mailbox between a pool and one of its threads.
struct Seat<'a, T, R> {
    /// The next run's handle and body, left by [`ProcPool::dispatch`].
    job: Option<(SimCtx<T>, ProcBody<'a, T, R>)>,
    /// The last run's report, until [`ProcPool::collect`] takes it.
    report: Option<Report<R>>,
    /// The pool is gone; the thread returns.
    closed: bool,
}

/// Scoped OS threads hosting simulated processes, so that successive
/// runs reuse threads — and their wiring to one shared [`Hub`] —
/// instead of spawning fresh ones. Thread `p` hosts process `p` of
/// every run dispatched through the pool. The threads end when the pool
/// is dropped and are joined by the scope.
pub(crate) struct ProcPool<'scope, 'env, T: 'scope, R: 'scope> {
    scope: &'scope Scope<'scope, 'env>,
    hub: Arc<Hub<T>>,
    seats: Vec<Arc<Mutex<Seat<'env, T, R>>>>,
    threads: Vec<Thread>,
}

impl<'scope, 'env, T, R> ProcPool<'scope, 'env, T, R>
where
    T: Clone + Send,
    R: Send,
{
    pub(crate) fn new(scope: &'scope Scope<'scope, 'env>) -> Self {
        ProcPool {
            scope,
            hub: Arc::new(Hub::new()),
            seats: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// The pool's hub, with at least `n` process threads seated at it.
    pub(crate) fn hub(&mut self, n: usize) -> &Arc<Hub<T>> {
        while self.seats.len() < n {
            let seat = Arc::new(Mutex::new(Seat {
                job: None,
                report: None,
                closed: false,
            }));
            self.seats.push(Arc::clone(&seat));
            let handle = std::thread::Builder::new()
                .name(format!("apram-sim-{}", self.threads.len()))
                .spawn_scoped(self.scope, move || seat_loop(&seat))
                .expect("spawn simulated-process pool thread");
            self.hub.seat(handle.thread().clone());
            self.threads.push(handle.thread().clone());
        }
        &self.hub
    }

    /// Start process `p` of a run on thread `p`, for every `p`.
    pub(crate) fn dispatch(
        &mut self,
        jobs: impl Iterator<Item = (SimCtx<T>, ProcBody<'env, T, R>)>,
    ) {
        for (p, job) in jobs.enumerate() {
            self.seats[p].lock().expect("seat lock").job = Some(job);
            self.threads[p].unpark();
        }
    }

    /// The reports of a run all of whose `n` processes have finished,
    /// as the results and panic messages of a [`SimOutcome`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn collect(&mut self, n: usize) -> (Vec<Option<R>>, Vec<Option<String>>) {
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panics: Vec<Option<String>> = vec![None; n];
        for p in 0..n {
            match self.seats[p].lock().expect("seat lock").report.take() {
                Some(Ok(r)) => results[p] = Some(r),
                Some(Err(Some(msg))) => panics[p] = Some(msg),
                Some(Err(None)) | None => {}
            }
        }
        (results, panics)
    }
}

impl<T, R> Drop for ProcPool<'_, '_, T, R> {
    fn drop(&mut self) {
        for (seat, thread) in self.seats.iter().zip(&self.threads) {
            // A poisoned seat has no thread left to tell.
            if let Ok(mut seat) = seat.lock() {
                seat.closed = true;
            }
            thread.unpark();
        }
    }
}

/// The loop of one pool thread: take the next job, run the body, leave
/// the report, tell the run. Crash unwinds are swallowed, genuine panics
/// reported by message, and completion is always the last word.
fn seat_loop<T: Clone, R>(seat: &Mutex<Seat<'_, T, R>>) {
    loop {
        let (mut ctx, body) = loop {
            {
                let mut seat = seat.lock().expect("seat lock");
                if let Some(job) = seat.job.take() {
                    break job;
                }
                if seat.closed {
                    return;
                }
            }
            std::thread::park();
        };
        let report = match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
            Ok(r) => Ok(r),
            Err(payload) if crash::is_crash(payload.as_ref()) => Err(None),
            Err(payload) => Err(Some(crash::describe_panic(payload.as_ref()))),
        };
        seat.lock().expect("seat lock").report = Some(report);
        ctx.finish();
    }
}

/// Owner marker for the root task, which no worker produced.
const NO_OWNER: usize = usize::MAX;

/// A pick prefix: the pick index taken at each decision point from the
/// root down to (and including) the branch this task owns, tagged with
/// the worker that delegated it so steals are countable.
struct Task {
    path: Vec<u32>,
    /// Index of the worker that published this task ([`NO_OWNER`] for
    /// the root). A worker popping a task it did not publish itself is
    /// a *steal*.
    owner: usize,
}

/// The canonical first violation found so far: its pick path and the
/// execution itself.
type Candidate = (Vec<u32>, ExecutionWitness);

/// The shared work stack plus termination bookkeeping.
struct Frontier {
    tasks: Vec<Task>,
    idle: usize,
    done: bool,
}

/// What one run adds to the search's totals.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Tally {
    executed_steps: u64,
    replayed_steps: u64,
    sleep_skips: u64,
    crash_branches: u64,
    max_pos: usize,
    truncated: bool,
}

/// One search: its configuration, its frontier and its totals — what
/// the workers share, be they `threads` spawned ones or the calling
/// thread alone.
struct Shared<'a, T> {
    cfg: &'a SimConfig<T>,
    econfig: &'a ExploreConfig,
    reduce: bool,
    start: Instant,
    threads: usize,
    queue: Mutex<Frontier>,
    work: Condvar,
    runs: AtomicU64,
    sleep_skips: AtomicU64,
    crash_branches: AtomicU64,
    executed_steps: AtomicU64,
    replayed_steps: AtomicU64,
    max_depth: AtomicU64,
    truncated: AtomicBool,
    budget_hit: AtomicBool,
    has_violation: AtomicBool,
    violation: Mutex<Option<Candidate>>,
    /// Complete runs per worker, for load-imbalance telemetry.
    worker_runs: Vec<AtomicU64>,
    /// Tasks each worker popped that another worker had delegated.
    worker_steals: Vec<AtomicU64>,
}

impl<'a, T> Shared<'a, T> {
    fn new(
        cfg: &'a SimConfig<T>,
        econfig: &'a ExploreConfig,
        reduce: bool,
        threads: usize,
    ) -> Self {
        Shared {
            cfg,
            econfig,
            reduce,
            start: Instant::now(),
            threads,
            queue: Mutex::new(Frontier {
                tasks: vec![Task {
                    path: Vec::new(), // the root: an empty prefix
                    owner: NO_OWNER,
                }],
                idle: 0,
                done: false,
            }),
            work: Condvar::new(),
            runs: AtomicU64::new(0),
            sleep_skips: AtomicU64::new(0),
            crash_branches: AtomicU64::new(0),
            executed_steps: AtomicU64::new(0),
            replayed_steps: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            budget_hit: AtomicBool::new(false),
            has_violation: AtomicBool::new(false),
            violation: Mutex::new(None),
            worker_runs: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Block until a task is available or the exploration is over.
    /// Termination: when every worker is idle on an empty queue, no task
    /// can ever appear again (only running workers publish).
    fn next_task(&self) -> Option<Task> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if q.done {
                return None;
            }
            if let Some(task) = q.tasks.pop() {
                return Some(task);
            }
            q.idle += 1;
            if q.idle == self.threads {
                q.done = true;
                self.work.notify_all();
                return None;
            }
            q = self.work.wait(q).unwrap();
            q.idle -= 1;
        }
    }

    /// Publish the sibling prefixes a run of worker `owner` delegated,
    /// in the order the run produced them — nodes in ascending depth,
    /// each node's siblings highest pick first — so that the top of the
    /// stack is the deepest node's lowest pick. After a violation, tasks
    /// that cannot contain a canonically smaller leaf are dropped; that
    /// is decided under the queue's lock, so nothing slips in behind the
    /// purge of [`record_violation`](Self::record_violation).
    fn publish(&self, owner: usize, paths: &mut Vec<Vec<u32>>) {
        let mut q = self.queue.lock().unwrap();
        if let Some(best) = self.best_path() {
            paths.retain(|p| may_precede(p, &best));
        }
        q.tasks
            .extend(paths.drain(..).map(|path| Task { path, owner }));
        // A worker counts itself idle under this lock before it waits.
        let waiting = q.idle > 0;
        drop(q);
        if waiting {
            self.work.notify_all();
        }
    }

    /// Reserve one unit of the run budget; `false` when exhausted.
    fn reserve_run(&self) -> bool {
        let max = self.econfig.budget.max_runs;
        let claim = |runs| (runs < max).then_some(runs + 1);
        self.runs
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
            .is_ok()
    }

    /// Cancel everything (budget exhausted, or a worker is unwinding).
    fn stop(&self) {
        let mut q = self.queue.lock().unwrap();
        q.done = true;
        drop(q);
        self.work.notify_all();
    }

    /// Fold one run's tally into the totals.
    fn absorb(&self, tally: &Tally) {
        let add = |total: &AtomicU64, n: u64| total.fetch_add(n, Ordering::Relaxed);
        add(&self.sleep_skips, tally.sleep_skips);
        add(&self.crash_branches, tally.crash_branches);
        add(&self.executed_steps, tally.executed_steps);
        add(&self.replayed_steps, tally.replayed_steps);
        self.max_depth
            .fetch_max(tally.max_pos as u64, Ordering::Relaxed);
        if tally.truncated {
            self.truncated.store(true, Ordering::Relaxed);
        }
    }

    /// The search's progress right now (one brief queue lock for the
    /// depth reading).
    fn beat(&self) -> ProgressBeat {
        ProgressBeat {
            elapsed: self.start.elapsed(),
            runs: self.runs.load(Ordering::Relaxed),
            sleep_skips: self.sleep_skips.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().unwrap().tasks.len(),
            violation_found: self.has_violation.load(Ordering::Acquire),
        }
    }

    fn best_path(&self) -> Option<Vec<u32>> {
        if !self.has_violation.load(Ordering::Acquire) {
            return None;
        }
        let held = self.violation.lock().unwrap();
        held.as_ref().map(|(path, _)| path.clone())
    }

    /// Record a violating run; the lowest pick path in canonical order
    /// wins. Queued tasks that can no longer contain the winner are
    /// cancelled immediately.
    fn record_violation(&self, path: Vec<u32>, witness: ExecutionWitness) {
        let best = {
            let mut slot = self.violation.lock().unwrap();
            match slot.as_ref() {
                Some((held, _)) if *held <= path => held.clone(),
                _ => {
                    *slot = Some((path.clone(), witness));
                    path
                }
            }
        };
        self.has_violation.store(true, Ordering::Release);
        let mut q = self.queue.lock().unwrap();
        q.tasks.retain(|t| may_precede(&t.path, &best));
        drop(q);
        // Wake idle workers so emptied queues re-check termination.
        self.work.notify_all();
    }
}

/// Can the subtree of a task with pick path `prefix` contain a leaf
/// canonically smaller than `leaf`? True when the first differing pick
/// diverges below `leaf`, or `prefix` is a prefix of it. Distinct
/// executed leaves are never prefixes of one another, so `<=` on paths
/// is the canonical total order.
fn may_precede(prefix: &[u32], leaf: &[u32]) -> bool {
    for (p, l) in prefix.iter().zip(leaf) {
        if p != l {
            return p < l;
        }
    }
    prefix.len() <= leaf.len()
}

/// The search, as the strategy of one run after another: replay the
/// task's prefix (every explorable branch before a replayed pick counts
/// as explored — the depth-first search's state on arrival), then
/// descend first-branch, delegating the remaining explorable siblings
/// of every fresh node as new tasks. A worker keeps one for all its
/// runs, and with it the node stack (see [`begin`](Self::begin)).
#[derive(Default)]
struct PrefixStrategy {
    reduce: bool,
    max_depth: usize,
    /// Crash-branch budget for this exploration
    /// ([`Budget::max_crashes`](super::Budget::max_crashes)).
    max_crashes: usize,
    /// The task being run.
    prefix: Vec<u32>,
    /// One node per decision point of this run so far, down to
    /// `max_depth` or a barren node; between runs, the last run's.
    stack: Vec<SleepNode>,
    /// Picks taken this run; equals `prefix` after replay, then grows
    /// with each fresh node (stops at a barren node or `max_depth`).
    path: Vec<u32>,
    /// Delegated sibling prefixes, in publication order: nodes in
    /// ascending depth, each node's siblings highest pick first.
    spawned: Vec<Vec<u32>>,
    pos: usize,
    /// Crash decisions taken so far this run (replayed or fresh); nodes
    /// stop widening with crash branches once the budget is spent.
    crashes_used: usize,
    redundant_tail: bool,
    tally: Tally,
}

impl PrefixStrategy {
    fn new(econfig: &ExploreConfig, reduce: bool) -> Self {
        PrefixStrategy {
            reduce,
            max_depth: econfig.budget.max_depth,
            max_crashes: econfig.budget.max_crashes,
            ..PrefixStrategy::default()
        }
    }

    /// Set up the run of `prefix`. A node is a function of the picks
    /// leading to it, so the last run's nodes down to the first pick
    /// that differs are this run's too and are kept; that one gets its
    /// `pick` and `explored` set anew when replay reaches it, the ones
    /// above it are already right, everything below is rebuilt.
    fn begin(&mut self, prefix: Vec<u32>) {
        let same = self
            .path
            .iter()
            .zip(&prefix)
            .take_while(|(a, b)| a == b)
            .count();
        self.stack.truncate((same + 1).min(prefix.len()));
        self.prefix = prefix;
        self.path.clear();
        self.spawned.clear();
        self.pos = 0;
        self.crashes_used = 0;
        self.redundant_tail = false;
        self.tally = Tally::default();
    }
}

impl Strategy for PrefixStrategy {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let at = self.pos;
        self.pos += 1;
        self.tally.executed_steps += 1;
        self.tally.max_pos = self.tally.max_pos.max(self.pos);
        if self.redundant_tail || at >= self.max_depth {
            self.tally.truncated |= !self.redundant_tail;
            return Decision::Step(view.runnable[0]);
        }
        if at == self.stack.len() {
            let allow_crashes = self.crashes_used < self.max_crashes;
            let node = SleepNode::fresh(view, self.stack.last(), self.reduce, allow_crashes);
            self.stack.push(node);
        }
        let node = &mut self.stack[at];
        if let Some(&pick) = self.prefix.get(at) {
            // Replaying the delegated prefix, on a node that is either
            // kept from an earlier run — then this is where a body that
            // is not deterministic shows — or was built just now.
            let pick = pick as usize;
            assert_eq!(
                node.choices.as_slice(),
                view.runnable,
                "explore: runnable set diverged on replay at step {at}; \
                 process bodies must be deterministic"
            );
            assert!(
                pick < node.total() && !node.asleep(pick),
                "explore: pick {pick} diverged on replay at step {at}; \
                 process bodies must be deterministic"
            );
            self.tally.replayed_steps += 1;
            if node.pick != pick {
                node.pick = pick;
                node.explored = (0..pick)
                    .filter(|&j| !node.asleep(j))
                    .fold(0, |mask, j| mask | 1 << j);
            }
        } else {
            // Fresh frontier: every asleep choice is pruned here (each
            // node is created fresh in exactly one run, so this tallies
            // once per node).
            let total = node.total();
            self.tally.sleep_skips += (0..total).filter(|&i| node.asleep(i)).count() as u64;
            match (0..total).find(|&i| !node.asleep(i)) {
                None => {
                    // Every choice is asleep: the whole subtree is
                    // covered elsewhere. Complete this run
                    // deterministically; nothing is delegated.
                    node.barren = true;
                    self.redundant_tail = true;
                }
                Some(first) => {
                    node.pick = first;
                    for j in (first + 1..total).rev().filter(|&j| !node.asleep(j)) {
                        let mut task = self.path.clone();
                        task.push(j as u32);
                        self.spawned.push(task);
                    }
                }
            }
        }
        let decision = node.decision();
        if !node.barren {
            self.path.push(node.pick as u32);
        }
        if matches!(decision, Decision::Crash(_)) {
            self.crashes_used += 1;
            self.tally.crash_branches += 1;
        }
        decision
    }
}

/// Per-run child spans are recorded for at most this many runs; later
/// runs only contribute to the root span's counters. Keeps span trees
/// bounded on million-run explorations.
const SPAN_RUN_CAP: u64 = 32;

/// What the calling thread does besides searching when it is the worker
/// itself: per-run `run` spans for the first [`SPAN_RUN_CAP`] runs
/// ([`ExploreConfig::trace_spans`]; `assemble` adds the `shrink` span)
/// and the heartbeat, emitted from the loop. Spawned workers get the
/// default one — no spans, and their heartbeat is the monitor of
/// [`run_workers`].
#[derive(Default)]
struct Observer<'a> {
    /// The heartbeat and when its next beat is due.
    heartbeat: Option<(&'a Heartbeat, Instant)>,
    spans: Option<SpanRecorder>,
    runs: u64,
}

impl Observer<'_> {
    fn run_begins(&mut self) {
        if self.runs < SPAN_RUN_CAP {
            if let Some(s) = self.spans.as_mut() {
                s.enter("run");
            }
        }
    }

    fn run_ended<T>(&mut self, shared: &Shared<T>, steps: u64) {
        if let Some(s) = self.spans.as_mut() {
            if self.runs < SPAN_RUN_CAP {
                s.bump("steps", steps);
                s.exit();
            }
            s.bump("runs", 1);
            s.bump("steps", steps);
        }
        self.runs += 1;
        if let Some((hb, due)) = &mut self.heartbeat {
            hb.emit_if_due(due, || shared.beat());
        }
    }
}

/// Ends the search when the worker holding it unwinds (a scheduling-
/// side failure re-raised from its run), so that no other worker waits
/// for tasks that will never come.
struct StopOnUnwind<'a, T>(&'a Shared<'a, T>);

impl<T> Drop for StopOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// One worker: drain tasks, execute each as a single pooled run,
/// aggregate stats, publish delegated siblings, and report violations.
fn worker<'scope, T, R, FMake, Visit>(
    scope: &'scope Scope<'scope, '_>,
    shared: &Shared<T>,
    index: usize,
    mut factory: FMake,
    mut visit: Visit,
    observer: &mut Observer,
) where
    T: Clone + Send + 'scope,
    R: Send + 'scope,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Visit: FnMut(&SimOutcome<T, R>) -> bool,
{
    let _stop = StopOnUnwind(shared);
    let mut pool = ProcPool::new(scope);
    let mut strategy = PrefixStrategy::new(shared.econfig, shared.reduce);
    while let Some(task) = shared.next_task() {
        if !shared.reserve_run() {
            shared.budget_hit.store(true, Ordering::Relaxed);
            shared.stop();
            break;
        }
        shared.worker_runs[index].fetch_add(1, Ordering::Relaxed);
        if task.owner != index && task.owner != NO_OWNER {
            shared.worker_steals[index].fetch_add(1, Ordering::Relaxed);
        }
        observer.run_begins();
        strategy.begin(task.path);
        let outcome;
        (outcome, strategy) = run_sim(&mut pool, shared.cfg, strategy, factory(), false);
        assert!(
            strategy.path.len() >= strategy.prefix.len(),
            "explore: run diverged on replay: it ended {} steps into a prefix of {}; \
             process bodies must be deterministic",
            strategy.path.len(),
            strategy.prefix.len()
        );
        shared.absorb(&strategy.tally);
        observer.run_ended(shared, outcome.trace.len() as u64);
        if !visit(&outcome) {
            let witness = ExecutionWitness {
                schedule: outcome.trace.schedule(),
                crashes: outcome.executed_crashes(),
            };
            shared.record_violation(strategy.path.clone(), witness);
        }
        shared.publish(index, &mut strategy.spawned);
    }
}

/// Run each of `workers` on a scoped thread of its own and wait for them
/// all; a worker's panic is re-raised here, with its payload, once every
/// one of them is back. With a heartbeat, a monitor thread beside them
/// emits `beat()` every [`Heartbeat::every`]: it polls in short slices
/// and never blocks a worker.
pub(crate) fn run_workers<'scope, W>(
    scope: &'scope Scope<'scope, '_>,
    workers: impl IntoIterator<Item = W>,
    heartbeat: Option<&Heartbeat>,
    beat: impl Fn() -> ProgressBeat + Send + 'scope,
) where
    W: FnOnce() + Send + 'scope,
{
    let workers: Vec<_> = workers.into_iter().map(|w| scope.spawn(w)).collect();
    let done = Arc::new(AtomicBool::new(false));
    if let Some(hb) = heartbeat.cloned() {
        let done = Arc::clone(&done);
        scope.spawn(move || {
            let slice = hb
                .every
                .min(Duration::from_millis(20))
                .max(Duration::from_micros(100));
            let mut due = Instant::now() + hb.every;
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                hb.emit_if_due(&mut due, &beat);
            }
        });
    }
    let mut failed = None;
    for worker in workers {
        failed = failed.or(worker.join().err());
    }
    done.store(true, Ordering::Release);
    if let Some(payload) = failed {
        resume_unwind(payload);
    }
}

/// Turn a finished search into its [`ExploreStats`]: totals, the
/// canonical witness, its minimization — sequential (deterministic ddmin
/// over the canonical schedule), driven by the pair of callbacks
/// `shrinker` hands over — the final beat and the span tree.
fn assemble<T, R, FMake, Visit>(
    shared: Shared<T>,
    mut spans: Option<SpanRecorder>,
    shrinker: impl FnOnce() -> (FMake, Visit),
) -> ExploreStats
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Visit: FnMut(&SimOutcome<T, R>) -> bool,
{
    let load = |total: &AtomicU64| total.load(Ordering::Relaxed);
    let witness = shared.violation.lock().unwrap().take().map(|(_, w)| w);
    let mut stats = ExploreStats {
        runs: load(&shared.runs),
        exhausted: witness.is_none() && !shared.budget_hit.load(Ordering::Relaxed),
        truncated: shared.truncated.load(Ordering::Relaxed),
        executed_steps: load(&shared.executed_steps),
        replayed_steps: load(&shared.replayed_steps),
        max_depth_reached: load(&shared.max_depth) as usize,
        sleep_skips: load(&shared.sleep_skips),
        crash_branches: load(&shared.crash_branches),
        worker_runs: shared.worker_runs.iter().map(load).collect(),
        worker_steals: shared.worker_steals.iter().map(load).collect(),
        ..ExploreStats::default()
    };
    if let (Some(w), true) = (&witness, shared.econfig.shrink) {
        let (mut factory, mut visit) = shrinker();
        if let Some(s) = spans.as_mut() {
            s.enter("shrink");
        }
        let rejected = |o: &SimOutcome<T, R>| !visit(o);
        let report = std::thread::scope(|scope| {
            let (pool, cfg) = (&mut ProcPool::new(scope), shared.cfg);
            shrink_on(
                pool,
                cfg,
                SHRINK_MAX_ATTEMPTS,
                &w.schedule,
                &w.crashes,
                &mut factory,
                rejected,
            )
        });
        if let Some(s) = spans.as_mut() {
            s.bump("attempts", report.stats.attempts);
            s.bump("useful", report.stats.useful);
            s.bump("removed", report.removed() as u64);
            s.exit();
        }
        stats.violation = Some(report);
    }
    stats.witness = witness;
    let last = shared.beat();
    stats.elapsed = last.elapsed;
    if let Some(hb) = &shared.econfig.budget.heartbeat {
        hb.emit(&last);
    }
    if let Some(mut s) = spans {
        s.bump("replayed_steps", stats.replayed_steps);
        s.bump("max_depth", stats.max_depth_reached as u64);
        if stats.sleep_skips > 0 {
            s.bump("sleep_skips", stats.sleep_skips);
        }
        stats.spans = Some(s.finish());
    }
    stats
}

/// The sequential explorers: the search with the calling thread as its
/// one worker, which is why the callbacks need not be `Send` nor `T`
/// `'static`, and why one pair serves search and shrinking.
pub(super) fn explore_inline<T, R, FMake, Visit>(
    cfg: &SimConfig<T>,
    econfig: &ExploreConfig,
    reduce: bool,
    mut factory: FMake,
    mut visit: Visit,
) -> ExploreStats
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Visit: FnMut(&SimOutcome<T, R>) -> bool,
{
    let shared = Shared::new(cfg, econfig, reduce, 1);
    let root = if reduce { "explore_reduced" } else { "explore" };
    // The first beat is due at once.
    let mut observer = Observer {
        heartbeat: econfig
            .budget
            .heartbeat
            .as_ref()
            .map(|hb| (hb, shared.start)),
        spans: econfig.trace_spans.then(|| SpanRecorder::new(root)),
        ..Observer::default()
    };
    std::thread::scope(|scope| worker(scope, &shared, 0, &mut factory, &mut visit, &mut observer));
    assemble(shared, observer.spans, || (&mut factory, &mut visit))
}

/// Shared driver behind [`SimBuilder::explore_parallel`] and
/// [`SimBuilder::explore_reduced_parallel`].
fn explore_parallel_impl<T, R, FMake, Visit>(
    cfg: &SimConfig<T>,
    econfig: &ExploreConfig,
    threads: usize,
    mut make_worker: impl FnMut(usize) -> (FMake, Visit),
    reduce: bool,
) -> ExploreStats
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
    Visit: FnMut(&SimOutcome<T, R>) -> bool + Send,
{
    let threads = resolve_threads(threads);
    let shared = Shared::new(cfg, econfig, reduce, threads);
    let pairs: Vec<(FMake, Visit)> = (0..threads).map(&mut make_worker).collect();
    std::thread::scope(|scope| {
        let shared = &shared;
        let workers = pairs.into_iter().enumerate().map(|(index, (fmake, vis))| {
            move || worker(scope, shared, index, fmake, vis, &mut Observer::default())
        });
        let heartbeat = econfig.budget.heartbeat.as_ref();
        run_workers(scope, workers, heartbeat, move || shared.beat());
    });
    // One extra pair of callbacks drives the shrinking.
    assemble(shared, None, || make_worker(threads))
}

impl<T: Clone + Send> SimBuilder<T> {
    /// Parallel version of [`explore`](Self::explore): exhaustive
    /// exploration of the full schedule tree across `threads` workers
    /// (0 = all available parallelism).
    ///
    /// `make_worker` is called once per worker (index `0..threads`, plus
    /// once more — index `threads` — to drive shrinking when a violation
    /// is found and [`ExploreConfig::shrink`] is set) and returns that
    /// worker's private `(factory, visit)` pair; workers never share
    /// callback state. On full exhaustion the returned counters are
    /// bit-identical to the sequential explorer's — it is the same search
    /// with the calling thread as its one worker; see the [module
    /// docs](self) for violation determinism and out-of-order `visit`
    /// caveats. Span tracing ([`ExploreConfig::trace_spans`]) is for that
    /// inline worker only and ignored here.
    pub fn explore_parallel<R, FMake, Visit>(
        &self,
        econfig: &ExploreConfig,
        threads: usize,
        make_worker: impl FnMut(usize) -> (FMake, Visit),
    ) -> ExploreStats
    where
        T: Sync + 'static,
        R: Send + 'static,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
        Visit: FnMut(&SimOutcome<T, R>) -> bool + Send,
    {
        explore_parallel_impl(&self.cfg, econfig, threads, make_worker, false)
    }

    /// Parallel version of [`explore_reduced`](Self::explore_reduced):
    /// sleep-set partial-order reduction across `threads` workers (0 =
    /// all available parallelism). Same soundness caveat as the
    /// sequential form (memory-level behaviours are preserved, real-time
    /// orderings are not), same `make_worker` contract as
    /// [`explore_parallel`](Self::explore_parallel).
    pub fn explore_reduced_parallel<R, FMake, Visit>(
        &self,
        econfig: &ExploreConfig,
        threads: usize,
        make_worker: impl FnMut(usize) -> (FMake, Visit),
    ) -> ExploreStats
    where
        T: Sync + 'static,
        R: Send + 'static,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
        Visit: FnMut(&SimOutcome<T, R>) -> bool + Send,
    {
        explore_parallel_impl(&self.cfg, econfig, threads, make_worker, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::budget::Budgeted;

    fn two_proc_factory() -> Vec<ProcBody<'static, u64, u64>> {
        (0..2)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<u64>| {
                    use crate::ctx::MemCtx;
                    ctx.write(p, p as u64 + 1);
                    ctx.read(1 - p)
                }) as ProcBody<'static, u64, u64>
            })
            .collect()
    }

    fn independent_factory() -> Vec<ProcBody<'static, u64, u64>> {
        (0..3)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<u64>| {
                    use crate::ctx::MemCtx;
                    ctx.write(p, 1);
                    ctx.write(p, 2);
                    ctx.read(p)
                }) as ProcBody<'static, u64, u64>
            })
            .collect()
    }

    #[test]
    fn plain_parallel_matches_sequential_counts() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let seq = sim.explore(&ExploreConfig::default(), two_proc_factory, |_| true);
        for threads in [1, 2, 4] {
            let par = sim.explore_parallel(&ExploreConfig::default(), threads, |_| {
                (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                    true
                })
            });
            assert_eq!(par.runs, seq.runs, "threads={threads}");
            assert_eq!(par.executed_steps, seq.executed_steps);
            assert_eq!(par.replayed_steps, seq.replayed_steps);
            assert_eq!(par.max_depth_reached, seq.max_depth_reached);
            assert!(par.exhausted && !par.truncated);
            assert!(par.elapsed > Duration::ZERO);
        }
    }

    #[test]
    fn reduced_parallel_matches_sequential_counts() {
        let sim = SimBuilder::new(vec![0u64; 3]);
        let seq = sim.explore_reduced(&ExploreConfig::default(), independent_factory, |_| true);
        for threads in [1, 2, 4] {
            let par = sim.explore_reduced_parallel(&ExploreConfig::default(), threads, |_| {
                (
                    independent_factory as fn() -> _,
                    |out: &SimOutcome<u64, u64>| {
                        assert_eq!(out.results, vec![Some(2), Some(2), Some(2)]);
                        true
                    },
                )
            });
            assert_eq!(par.runs, seq.runs, "threads={threads}");
            assert_eq!(par.sleep_skips, seq.sleep_skips, "threads={threads}");
            assert_eq!(par.executed_steps, seq.executed_steps);
            assert_eq!(par.replayed_steps, seq.replayed_steps);
            assert!(par.exhausted);
        }
    }

    #[test]
    fn canonical_violation_matches_sequential_shrunk_schedule() {
        // Reject any run where P0 observed P1's write; the canonical
        // (sequential) counterexample shrinks to [1, 0, 0].
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().shrink(true);
        let seq = sim.explore(&econfig, two_proc_factory, |out| out.results[0] != Some(2));
        let seq_report = seq.violation.expect("sequential violation");
        for threads in [1, 2, 4] {
            let par = sim.explore_parallel(&econfig, threads, |_| {
                (
                    two_proc_factory as fn() -> _,
                    |out: &SimOutcome<u64, u64>| out.results[0] != Some(2),
                )
            });
            assert!(!par.exhausted);
            let report = par.violation.expect("parallel violation");
            assert_eq!(report.original, seq_report.original, "threads={threads}");
            assert_eq!(report.schedule, seq_report.schedule);
            assert_eq!(report.schedule, vec![1, 0, 0]);
        }
    }

    #[test]
    fn run_budget_is_exact() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_runs(3);
        for threads in [1, 2, 4] {
            let par = sim.explore_parallel(&econfig, threads, |_| {
                (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                    true
                })
            });
            assert_eq!(par.runs, 3, "threads={threads}");
            assert!(!par.exhausted);
        }
    }

    #[test]
    fn depth_truncation_matches_sequential() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_depth(1);
        let seq = sim.explore(&econfig, two_proc_factory, |_| true);
        let par = sim.explore_parallel(&econfig, 2, |_| {
            (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                true
            })
        });
        assert_eq!(par.runs, seq.runs);
        assert_eq!((par.exhausted, par.truncated), (true, true));
        assert_eq!(par.runs, 2);
    }

    #[test]
    fn pooled_runs_reuse_threads_across_runs() {
        // 1680 plain runs through one worker's pool: results must be
        // complete and deterministic every time.
        let sim = SimBuilder::new(vec![0u64; 3]);
        let par = sim.explore_parallel(&ExploreConfig::default(), 1, |_| {
            (
                independent_factory as fn() -> _,
                |out: &SimOutcome<u64, u64>| {
                    out.assert_no_panics();
                    out.results.iter().all(|r| r == &Some(2))
                },
            )
        });
        assert!(par.exhausted);
        assert_eq!(par.runs, 1680);
    }

    #[test]
    fn worker_runs_sum_to_total_and_steals_are_bounded() {
        let sim = SimBuilder::new(vec![0u64; 3]);
        for threads in [1, 2, 4] {
            let par = sim.explore_parallel(&ExploreConfig::default(), threads, |_| {
                (
                    independent_factory as fn() -> _,
                    |_: &SimOutcome<u64, u64>| true,
                )
            });
            assert_eq!(par.worker_runs.len(), threads, "threads={threads}");
            assert_eq!(par.worker_steals.len(), threads);
            assert_eq!(par.worker_runs.iter().sum::<u64>(), par.runs);
            assert!(par.worker_steals.iter().sum::<u64>() <= par.runs);
            if threads == 1 {
                // A lone worker has nobody to steal from.
                assert_eq!(par.worker_steals, vec![0]);
            }
        }
    }

    #[test]
    fn parallel_heartbeat_emits_a_final_beat() {
        use crate::telemetry::{buffer_sink, Heartbeat};
        let sim = SimBuilder::new(vec![0u64; 2]);
        let (sink, buf) = buffer_sink();
        let econfig =
            ExploreConfig::new().heartbeat(Heartbeat::shared(Duration::from_millis(1), sink));
        let par = sim.explore_parallel(&econfig, 2, |_| {
            (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                true
            })
        });
        assert!(par.exhausted);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "at least the final beat is emitted");
        let last = crate::json::parse(lines.last().unwrap()).unwrap();
        use crate::json::Json;
        assert_eq!(last.get("runs").and_then(Json::as_u64), Some(par.runs));
        assert_eq!(last.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(last.get("violation_found"), Some(&Json::Bool(false)));
    }

    #[test]
    fn crash_exploration_parallel_matches_sequential() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        for f in [1, 2] {
            let econfig = ExploreConfig::new().max_crashes(f);
            let seq = sim.explore(&econfig, two_proc_factory, |_| true);
            assert!(seq.crash_branches > 0, "f={f}");
            for threads in [1, 2, 4] {
                let par = sim.explore_parallel(&econfig, threads, |_| {
                    (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                        true
                    })
                });
                assert_eq!(par.runs, seq.runs, "f={f} threads={threads}");
                assert_eq!(par.crash_branches, seq.crash_branches, "f={f}");
                assert_eq!(par.executed_steps, seq.executed_steps);
                assert_eq!(par.replayed_steps, seq.replayed_steps);
                assert_eq!(par.max_depth_reached, seq.max_depth_reached);
                assert!(par.exhausted && !par.truncated);
            }
        }
    }

    #[test]
    fn reduced_crash_exploration_parallel_matches_sequential() {
        let sim = SimBuilder::new(vec![0u64; 3]);
        let econfig = ExploreConfig::new().max_crashes(1);
        let seq = sim.explore_reduced(&econfig, independent_factory, |_| true);
        assert!(seq.crash_branches > 0);
        for threads in [1, 2, 4] {
            let par = sim.explore_reduced_parallel(&econfig, threads, |_| {
                (
                    independent_factory as fn() -> _,
                    |_: &SimOutcome<u64, u64>| true,
                )
            });
            assert_eq!(par.runs, seq.runs, "threads={threads}");
            assert_eq!(par.sleep_skips, seq.sleep_skips, "threads={threads}");
            assert_eq!(par.crash_branches, seq.crash_branches);
            assert_eq!(par.executed_steps, seq.executed_steps);
            assert_eq!(par.replayed_steps, seq.replayed_steps);
            assert!(par.exhausted);
        }
    }

    #[test]
    fn crash_violation_parity_with_sequential() {
        // Reject runs where P1 crashed and P0 saw register 1 unwritten;
        // the shrunk witness (schedule *and* crash pattern) must match
        // the sequential explorer's exactly.
        let ok = |out: &SimOutcome<u64, u64>| !(out.crashed[1] && out.results[0] == Some(0));
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_crashes(1).shrink(true);
        let seq = sim.explore(&econfig, two_proc_factory, ok);
        let seq_report = seq.violation.expect("sequential violation");
        assert_eq!(seq_report.crashes.len(), 1);
        assert_eq!(seq_report.crashes[0].0, 1);
        for threads in [1, 2, 4] {
            let par =
                sim.explore_parallel(&econfig, threads, |_| (two_proc_factory as fn() -> _, ok));
            assert!(!par.exhausted);
            let report = par.violation.expect("parallel violation");
            assert_eq!(report.schedule, seq_report.schedule, "threads={threads}");
            assert_eq!(report.crashes, seq_report.crashes, "threads={threads}");
        }
    }

    /// The name is older than the rule it now pins: the config no longer
    /// carries a worker count, so the `threads` argument is the only one
    /// — an explicit count is taken as given, and 0 means all available
    /// parallelism.
    #[test]
    fn config_threads_is_the_fallback_worker_count() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let workers = |threads| {
            let ok = |_: &SimOutcome<u64, u64>| true;
            sim.explore_parallel(&ExploreConfig::new(), threads, |_| {
                (two_proc_factory as fn() -> _, ok)
            })
            .worker_runs
            .len()
        };
        assert_eq!(workers(3), 3, "an explicit count wins");
        assert_eq!(workers(0), resolve_threads(0), "0 is all available");
    }

    #[test]
    fn visit_sees_every_run_exactly_once() {
        use std::sync::atomic::AtomicU64 as Counter;
        let sim = SimBuilder::new(vec![0u64; 2]);
        let seen = Counter::new(0);
        let par = sim.explore_parallel(&ExploreConfig::default(), 4, |_| {
            let seen = &seen;
            (
                two_proc_factory as fn() -> _,
                move |out: &SimOutcome<u64, u64>| {
                    out.assert_no_panics();
                    seen.fetch_add(1, Ordering::Relaxed);
                    true
                },
            )
        });
        assert_eq!(seen.load(Ordering::Relaxed), par.runs);
        assert_eq!(par.runs, 6);
    }

    /// A worker that keeps its node stack from one task to the next and
    /// one that rebuilds every node end the second run in the same
    /// state, whatever the two tasks are.
    #[test]
    fn a_kept_stack_equals_a_rebuilt_one() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        type State<'a> = (&'a [SleepNode], &'a [u32], &'a [Vec<u32>], &'a Tally);
        fn state(s: &PrefixStrategy) -> (State<'_>, (usize, usize, bool)) {
            let flags = (s.pos, s.crashes_used, s.redundant_tail);
            ((&s.stack, &s.path, &s.spawned, &s.tally), flags)
        }
        // Three processes contending for two registers: with reduction
        // and a crash the tree has asleep picks, barren nodes and crash
        // branches at every depth.
        let contended = || -> Vec<ProcBody<'static, u64, u64>> {
            let body = |p: usize| {
                Box::new(move |ctx: &mut SimCtx<u64>| {
                    use crate::ctx::MemCtx;
                    let seen = ctx.read(p % 2);
                    ctx.write((p + 1) % 2, seen + p as u64 + 1);
                    ctx.read(p % 2)
                }) as ProcBody<'static, u64, u64>
            };
            (0..3).map(body).collect()
        };
        let cfg = SimConfig::base(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_crashes(1).max_depth(7);
        std::thread::scope(|scope| {
            let mut pool = ProcPool::new(scope);
            let mut run = |mut strategy: PrefixStrategy, prefix: &[u32]| {
                strategy.begin(prefix.to_vec());
                run_sim(&mut pool, &cfg, strategy, contended(), false).1
            };
            let fresh = || PrefixStrategy::new(&econfig, true);
            // Every task of the tree, by searching it.
            let mut tasks = vec![Vec::new()];
            let mut next = 0;
            while next < tasks.len() {
                tasks.extend(run(fresh(), &tasks[next]).spawned);
                next += 1;
            }
            assert!(tasks.len() > 100, "only {} tasks", tasks.len());
            let mut rng = StdRng::seed_from_u64(20);
            for _ in 0..1_000 {
                let first = &tasks[rng.gen_range(0..tasks.len())];
                let second = &tasks[rng.gen_range(0..tasks.len())];
                let carried = run(fresh(), first);
                let kept = run(carried, second);
                let rebuilt = run(fresh(), second);
                assert_eq!(state(&kept), state(&rebuilt), "{first:?} then {second:?}");
            }
        });
    }
}
