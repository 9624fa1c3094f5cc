//! Parallel schedule exploration: the sleep-set DFS of
//! [`mod@super::explore`] partitioned across OS threads.
//!
//! ## How the tree is partitioned
//!
//! The schedule tree of a deterministic execution is itself
//! deterministic: the node reached by a sequence of *pick indices*
//! (which branch was taken at each decision point) is a pure function of
//! that sequence, including its sleep set and its `explored` mask at the
//! moment a given sibling is entered (every explorable branch before it
//! is explored first, in ascending order). A unit of work can therefore
//! be just a **branch-path prefix** — a `Vec` of pick indices — with no
//! node state attached: the worker that picks it up replays the prefix,
//! rebuilding identical `SleepNode`s along the way, and continues
//! first-branch-descending from the frontier.
//!
//! Each worker keeps the canonically-first explorable branch of every
//! fresh node it creates and pushes the remaining explorable siblings
//! onto a shared LIFO as stealable prefix tasks, so **every task is
//! exactly one run** and depth-first order emerges from the stack
//! discipline. This costs no extra re-execution over the sequential
//! explorer: stateless model checking replays every run from the root
//! anyway, and a task's replayed prefix has exactly the length the
//! sequential DFS would have replayed for the same leaf.
//!
//! ## Determinism
//!
//! Counters ([`ExploreStats::runs`], `sleep_skips`, `executed_steps`,
//! `replayed_steps`, `max_depth_reached`) are aggregated atomically and
//! are **bit-identical** to the sequential explorer's whenever the tree
//! is explored to exhaustion, regardless of thread count or timing.
//! When a `visit` callback rejects a run, the engine records the
//! violation with the **lowest branch path in canonical order**: workers
//! keep draining only tasks that could still contain a canonically
//! smaller leaf (everything else is cancelled), so the reported — and
//! shrunk — counterexample is the same one the sequential explorer
//! finds, reproducibly. Runs canonically *after* a violation may still
//! be visited while the news propagates; `visit` callbacks must
//! tolerate out-of-order invocation (each worker gets its own pair of
//! callbacks precisely so per-run state needs no locking).
//!
//! ## Process pools
//!
//! Every driver that executes more than one run — the workers here, the
//! sequential explorers, the certifier, the sampler and the shrinker —
//! owns a `ProcPool`: scoped OS threads, thread `p` hosting process `p`
//! of run after run, wired once to one shared run state. Starting a run
//! is a reset of that state plus one `unpark` per process; nothing is
//! spawned, joined or allocated for the wiring per run. A worker's pool
//! lives in the same thread scope as the worker itself.

use super::explore::{
    emit_beat, independent, ExecutionWitness, ExploreConfig, ExploreStats, SleepNode,
};
use super::shrink::shrink_execution;
use super::strategy::{Decision, SchedView, Strategy};
use super::{run_sim, Hub, ProcBody, SimConfig, SimCtx, SimOutcome};
use crate::contention::{ContentionMap, ContentionProfiler};
use crate::crash;
use crate::ctx::ProcId;
use crate::metrics::MetricsLevel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// A branch-path prefix: the pick index taken at each decision point
/// from the root down to (and including) the branch this task owns,
/// tagged with the worker that delegated it so steals are countable.
struct Task {
    path: Vec<u32>,
    /// Index of the worker that published this task ([`NO_OWNER`] for
    /// the root). A worker popping a task it did not publish itself is
    /// a *steal*.
    owner: usize,
}

/// The canonical first violation found so far.
struct Candidate {
    path: Vec<u32>,
    schedule: Vec<ProcId>,
    crashes: Vec<(ProcId, u64)>,
}

/// The shared work queue plus termination bookkeeping.
struct Frontier {
    tasks: Vec<Task>,
    idle: usize,
    done: bool,
}

/// State shared by all exploration workers.
struct Shared {
    queue: Mutex<Frontier>,
    work: Condvar,
    threads: usize,
    max_runs: u64,
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
    /// Merged contention profile across workers (profiling only).
    /// [`ContentionMap::merge`] is commutative and partition-
    /// independent, so the merged map does not depend on which worker
    /// executed which run.
    contention: Mutex<Option<ContentionMap>>,
}

impl Shared {
    fn new(threads: usize, max_runs: u64) -> Self {
        Shared {
            queue: Mutex::new(Frontier {
                tasks: vec![Task {
                    path: Vec::new(), // the root: an empty prefix
                    owner: NO_OWNER,
                }],
                idle: 0,
                done: false,
            }),
            work: Condvar::new(),
            threads,
            max_runs,
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
            contention: Mutex::new(None),
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

    /// Publish delegated sibling tasks. After a violation, tasks that
    /// cannot contain a canonically smaller leaf are dropped here (and
    /// again at pop time — cancellation is best-effort but pruning is
    /// exact).
    fn publish(&self, mut tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        if let Some(best) = self.best_path() {
            tasks.retain(|t| may_precede(&t.path, &best));
            if tasks.is_empty() {
                return;
            }
        }
        let mut q = self.queue.lock().unwrap();
        // Reversed: the deepest (and within a node, lowest-pick) sibling
        // is popped first, approximating sequential DFS order.
        q.tasks.extend(tasks.drain(..).rev());
        drop(q);
        self.work.notify_all();
    }

    /// Reserve one unit of the run budget; `false` when exhausted.
    fn reserve_run(&self) -> bool {
        let mut cur = self.runs.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_runs {
                return false;
            }
            match self.runs.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Cancel everything (budget exhausted).
    fn stop(&self) {
        let mut q = self.queue.lock().unwrap();
        q.done = true;
        drop(q);
        self.work.notify_all();
    }

    fn best_path(&self) -> Option<Vec<u32>> {
        if !self.has_violation.load(Ordering::Acquire) {
            return None;
        }
        self.violation
            .lock()
            .unwrap()
            .as_ref()
            .map(|c| c.path.clone())
    }

    /// Record a violating run; the lowest branch path in canonical order
    /// wins. Queued tasks that can no longer contain the winner are
    /// cancelled immediately.
    fn record_violation(&self, path: Vec<u32>, schedule: Vec<ProcId>, crashes: Vec<(ProcId, u64)>) {
        let best = {
            let mut slot = self.violation.lock().unwrap();
            match slot.as_ref() {
                Some(existing) if existing.path <= path => existing.path.clone(),
                _ => {
                    let winner = path.clone();
                    *slot = Some(Candidate {
                        path,
                        schedule,
                        crashes,
                    });
                    winner
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

/// Can the subtree of a task with branch-path `prefix` contain a leaf
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

/// The per-run strategy of a worker: replay the task's prefix (marking
/// every explorable branch before each replayed pick as explored, which
/// is exactly the sequential DFS's state on arrival), then descend
/// first-branch, delegating the remaining explorable siblings of every
/// fresh node as new tasks.
struct PrefixStrategy {
    prefix: Vec<u32>,
    reduce: bool,
    max_depth: usize,
    /// Crash-branch budget for this exploration ([`Budget::max_crashes`](super::Budget::max_crashes)).
    max_crashes: usize,
    /// Crash decisions taken so far this run (replayed or fresh); nodes
    /// stop widening with crash branches once the budget is spent, which
    /// keeps rebuilt nodes identical to the sequential explorer's.
    crashes_used: usize,
    stack: Vec<SleepNode>,
    /// Picks taken this run; equals `prefix` after replay, then grows
    /// with each fresh node (stops at a barren node or `max_depth`).
    path: Vec<u32>,
    /// Delegated sibling prefixes, in (depth, pick) ascending order.
    spawned: Vec<Vec<u32>>,
    pos: usize,
    redundant_tail: bool,
    truncated: bool,
    executed_steps: u64,
    replayed_steps: u64,
    sleep_skips: u64,
    crash_branches: u64,
    max_pos: usize,
}

impl PrefixStrategy {
    fn new(prefix: Vec<u32>, reduce: bool, max_depth: usize, max_crashes: usize) -> Self {
        PrefixStrategy {
            path: Vec::with_capacity(prefix.len() + 8),
            prefix,
            reduce,
            max_depth,
            max_crashes,
            crashes_used: 0,
            stack: Vec::new(),
            spawned: Vec::new(),
            pos: 0,
            redundant_tail: false,
            truncated: false,
            executed_steps: 0,
            replayed_steps: 0,
            sleep_skips: 0,
            crash_branches: 0,
            max_pos: 0,
        }
    }
}

impl Strategy for PrefixStrategy {
    fn decide(&mut self, view: &SchedView) -> Decision {
        self.executed_steps += 1;
        self.pos += 1; // the position of *this* decision is pos - 1
        self.max_pos = self.max_pos.max(self.pos);
        let at = self.pos - 1;
        if self.redundant_tail || at >= self.max_depth {
            if !self.redundant_tail {
                self.truncated = true;
            }
            return Decision::Step(view.runnable[0]);
        }
        let allow_crashes = self.crashes_used < self.max_crashes;
        let mut node = SleepNode::fresh(view, self.stack.last(), self.reduce, allow_crashes);
        let pick = if at < self.prefix.len() {
            // Replaying the delegated prefix.
            self.replayed_steps += 1;
            let pick = self.prefix[at] as usize;
            debug_assert!(
                pick < node.total() && !node.asleep(pick),
                "parallel explore: prefix replay diverged at step {at}; \
                 process bodies must be deterministic"
            );
            for j in 0..pick {
                if !node.asleep(j) {
                    node.explored |= 1 << j;
                }
            }
            pick
        } else {
            // Fresh frontier: every asleep choice is pruned here (each
            // node is created fresh in exactly one run, so this tallies
            // once per node — the sequential pop-time count).
            self.sleep_skips += node.asleep_count();
            match node.next_explorable(0) {
                None => {
                    node.barren = true;
                    self.redundant_tail = true;
                    0
                }
                Some(first) => {
                    let mut sibling = node.next_explorable(first + 1);
                    while let Some(j) = sibling {
                        let mut task = self.path.clone();
                        task.push(j as u32);
                        self.spawned.push(task);
                        sibling = node.next_explorable(j + 1);
                    }
                    first
                }
            }
        };
        node.pick = pick;
        let decision = node.decision();
        if !node.barren {
            self.path.push(pick as u32);
        }
        self.stack.push(node);
        if matches!(decision, Decision::Crash(_)) {
            self.crashes_used += 1;
            self.crash_branches += 1;
        }
        decision
    }
}

/// One worker: drain tasks, execute each as a single pooled run,
/// aggregate stats, publish delegated siblings, and report violations.
#[allow(clippy::too_many_arguments)]
fn worker<'scope, T, R, FMake, Visit>(
    scope: &'scope Scope<'scope, '_>,
    index: usize,
    shared: &Shared,
    cfg: &SimConfig<T>,
    reduce: bool,
    max_depth: usize,
    max_crashes: usize,
    profile: bool,
    mut factory: FMake,
    mut visit: Visit,
) where
    T: Clone + Send + 'scope,
    R: Send + 'scope,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Visit: FnMut(&SimOutcome<T, R>) -> bool,
{
    let mut pool = ProcPool::new(scope);
    let mut prof: Option<ContentionProfiler> = None;
    while let Some(task) = shared.next_task() {
        if let Some(best) = shared.best_path() {
            if !may_precede(&task.path, &best) {
                continue; // cancelled: cannot beat the found violation
            }
        }
        if !shared.reserve_run() {
            shared.budget_hit.store(true, Ordering::Relaxed);
            shared.stop();
            break;
        }
        shared.worker_runs[index].fetch_add(1, Ordering::Relaxed);
        if task.owner != index && task.owner != NO_OWNER {
            shared.worker_steals[index].fetch_add(1, Ordering::Relaxed);
        }
        let strategy = PrefixStrategy::new(task.path, reduce, max_depth, max_crashes);
        let bodies = factory();
        if profile && prof.is_none() {
            prof = Some(ContentionProfiler::new(bodies.len(), cfg.registers.len()));
        }
        let (outcome, mut strategy) = run_sim(
            &mut pool,
            cfg,
            MetricsLevel::Off,
            strategy,
            bodies,
            &mut prof,
        );
        shared
            .sleep_skips
            .fetch_add(strategy.sleep_skips, Ordering::Relaxed);
        shared
            .crash_branches
            .fetch_add(strategy.crash_branches, Ordering::Relaxed);
        shared
            .executed_steps
            .fetch_add(strategy.executed_steps, Ordering::Relaxed);
        shared
            .replayed_steps
            .fetch_add(strategy.replayed_steps, Ordering::Relaxed);
        shared
            .max_depth
            .fetch_max(strategy.max_pos as u64, Ordering::Relaxed);
        if strategy.truncated {
            shared.truncated.store(true, Ordering::Relaxed);
        }
        let ok = visit(&outcome);
        if !ok {
            let path = std::mem::take(&mut strategy.path);
            shared.record_violation(path, outcome.trace.schedule(), outcome.executed_crashes());
        }
        shared.publish(
            std::mem::take(&mut strategy.spawned)
                .into_iter()
                .map(|path| Task { path, owner: index })
                .collect(),
        );
    }
    if let Some(map) = prof.map(ContentionProfiler::into_map) {
        let mut slot = shared.contention.lock().unwrap();
        match slot.as_mut() {
            Some(acc) => acc.merge(&map),
            None => *slot = Some(map),
        }
    }
}

/// Shared driver behind [`explore_parallel`] and
/// [`explore_reduced_parallel`].
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
    let start = Instant::now();
    // An explicit `threads` argument wins; 0 falls back to the config's
    // [`ExploreConfig::threads`], and 0 there means all available cores.
    let threads = resolve_threads(if threads == 0 {
        econfig.threads
    } else {
        threads
    });
    let shared = Shared::new(threads, econfig.budget.max_runs);
    let pairs: Vec<(FMake, Visit)> = (0..threads).map(&mut make_worker).collect();
    let live = AtomicUsize::new(threads);
    std::thread::scope(|scope| {
        for (index, (fmake, vis)) in pairs.into_iter().enumerate() {
            let (shared, live) = (&shared, &live);
            scope.spawn(move || {
                worker(
                    scope,
                    index,
                    shared,
                    cfg,
                    reduce,
                    econfig.budget.max_depth,
                    econfig.budget.max_crashes,
                    econfig.profile,
                    fmake,
                    vis,
                );
                live.fetch_sub(1, Ordering::Release);
            });
        }
        // The heartbeat monitor polls the shared counters in short
        // slices and exits once every worker has; it never outlives
        // the scope and never blocks a worker (one brief queue lock
        // per beat for the depth reading).
        if let Some(hb) = econfig.budget.heartbeat.clone() {
            let (shared, live) = (&shared, &live);
            scope.spawn(move || {
                let slice = hb
                    .every
                    .min(Duration::from_millis(20))
                    .max(Duration::from_micros(100));
                let mut last_beat = Instant::now();
                while live.load(Ordering::Acquire) > 0 {
                    std::thread::sleep(slice);
                    if last_beat.elapsed() >= hb.every {
                        let depth = shared.queue.lock().unwrap().tasks.len();
                        emit_beat(
                            &hb,
                            start.elapsed(),
                            shared.runs.load(Ordering::Relaxed),
                            shared.sleep_skips.load(Ordering::Relaxed),
                            depth,
                            shared.has_violation.load(Ordering::Acquire),
                        );
                        last_beat = Instant::now();
                    }
                }
            });
        }
    });

    let candidate = shared.violation.into_inner().unwrap();
    let budget_hit = shared.budget_hit.load(Ordering::Relaxed);
    let mut stats = ExploreStats {
        runs: shared.runs.load(Ordering::Relaxed),
        exhausted: candidate.is_none() && !budget_hit,
        truncated: shared.truncated.load(Ordering::Relaxed),
        executed_steps: shared.executed_steps.load(Ordering::Relaxed),
        replayed_steps: shared.replayed_steps.load(Ordering::Relaxed),
        max_depth_reached: shared.max_depth.load(Ordering::Relaxed) as usize,
        sleep_skips: shared.sleep_skips.load(Ordering::Relaxed),
        crash_branches: shared.crash_branches.load(Ordering::Relaxed),
        witness: None,
        violation: None,
        spans: None,
        elapsed: Duration::ZERO,
        worker_runs: shared
            .worker_runs
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect(),
        worker_steals: shared
            .worker_steals
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect(),
        contention: shared.contention.into_inner().unwrap(),
    };
    // Shrinking is sequential (deterministic ddmin over the canonical
    // schedule), driven by one extra worker pair.
    let violated = candidate.is_some();
    if let Some(cand) = &candidate {
        stats.witness = Some(ExecutionWitness {
            schedule: cand.schedule.clone(),
            crashes: cand.crashes.clone(),
        });
    }
    if let (Some(cand), Some(scfg)) = (candidate, &econfig.shrink) {
        let (mut fmake, mut vis) = make_worker(threads);
        let report = shrink_execution(cfg, scfg, &cand.schedule, &cand.crashes, &mut fmake, |o| {
            !vis(o)
        });
        stats.violation = Some(report);
    }
    stats.elapsed = start.elapsed();
    if let Some(hb) = &econfig.budget.heartbeat {
        emit_beat(
            hb,
            stats.elapsed,
            stats.runs,
            stats.sleep_skips,
            0,
            violated,
        );
    }
    stats
}

/// Parallel version of [`explore`](super::explore::explore): exhaustive
/// exploration of the full schedule tree across `threads` workers
/// (0 = all available parallelism).
///
/// `make_worker` is called once per worker (index `0..threads`, plus
/// once more — index `threads` — to drive shrinking when a violation is
/// found and [`ExploreConfig::shrink`] is set) and returns that worker's
/// private `(factory, visit)` pair; workers never share callback state.
/// On full exhaustion the returned counters are bit-identical to the
/// sequential explorer's; see the [module docs](self) for violation
/// determinism and out-of-order `visit` caveats. Span tracing
/// ([`ExploreConfig::trace_spans`]) is sequential-only and ignored here.
pub fn explore_parallel<T, R, FMake, Visit>(
    cfg: &SimConfig<T>,
    econfig: &ExploreConfig,
    threads: usize,
    make_worker: impl FnMut(usize) -> (FMake, Visit),
) -> ExploreStats
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
    Visit: FnMut(&SimOutcome<T, R>) -> bool + Send,
{
    explore_parallel_impl(cfg, econfig, threads, make_worker, false)
}

/// Parallel version of
/// [`explore_reduced`](super::explore::explore_reduced): sleep-set
/// partial-order reduction across `threads` workers (0 = all available
/// parallelism). Same soundness caveat as the sequential form (memory-
/// level behaviours are preserved, real-time orderings are not), same
/// `make_worker` contract as [`explore_parallel`].
pub fn explore_reduced_parallel<T, R, FMake, Visit>(
    cfg: &SimConfig<T>,
    econfig: &ExploreConfig,
    threads: usize,
    make_worker: impl FnMut(usize) -> (FMake, Visit),
) -> ExploreStats
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
    Visit: FnMut(&SimOutcome<T, R>) -> bool + Send,
{
    explore_parallel_impl(cfg, econfig, threads, make_worker, true)
}

// `independent` is re-used here only through `SleepNode::fresh`; keep a
// direct reference so the shared-internals contract is explicit.
const _: fn((crate::ctx::AccessKind, usize), (crate::ctx::AccessKind, usize)) -> bool = independent;

#[cfg(test)]
mod tests {
    use super::super::explore::{explore, explore_reduced};
    use super::*;
    use crate::sim::budget::Budgeted;
    use crate::sim::shrink::ShrinkConfig;

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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let seq = explore(&cfg, &ExploreConfig::default(), two_proc_factory, |_| true);
        for threads in [1, 2, 4] {
            let par = explore_parallel(&cfg, &ExploreConfig::default(), threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 3]);
        let seq = explore_reduced(&cfg, &ExploreConfig::default(), independent_factory, |_| {
            true
        });
        for threads in [1, 2, 4] {
            let par = explore_reduced_parallel(&cfg, &ExploreConfig::default(), threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let econfig = ExploreConfig::new().shrink(ShrinkConfig::default());
        let seq = explore(&cfg, &econfig, two_proc_factory, |out| {
            out.results[0] != Some(2)
        });
        let seq_report = seq.violation.expect("sequential violation");
        for threads in [1, 2, 4] {
            let par = explore_parallel(&cfg, &econfig, threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_runs(3);
        for threads in [1, 2, 4] {
            let par = explore_parallel(&cfg, &econfig, threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_depth(1);
        let seq = explore(&cfg, &econfig, two_proc_factory, |_| true);
        let par = explore_parallel(&cfg, &econfig, 2, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 3]);
        let par = explore_parallel(&cfg, &ExploreConfig::default(), 1, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 3]);
        for threads in [1, 2, 4] {
            let par = explore_parallel(&cfg, &ExploreConfig::default(), threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let (sink, buf) = buffer_sink();
        let econfig =
            ExploreConfig::new().heartbeat_with(Heartbeat::shared(Duration::from_millis(1), sink));
        let par = explore_parallel(&cfg, &econfig, 2, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        for f in [1, 2] {
            let econfig = ExploreConfig::new().max_crashes(f);
            let seq = explore(&cfg, &econfig, two_proc_factory, |_| true);
            assert!(seq.crash_branches > 0, "f={f}");
            for threads in [1, 2, 4] {
                let par = explore_parallel(&cfg, &econfig, threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 3]);
        let econfig = ExploreConfig::new().max_crashes(1);
        let seq = explore_reduced(&cfg, &econfig, independent_factory, |_| true);
        assert!(seq.crash_branches > 0);
        for threads in [1, 2, 4] {
            let par = explore_reduced_parallel(&cfg, &econfig, threads, |_| {
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
        let cfg = SimConfig::base(vec![0u64; 2]);
        let econfig = ExploreConfig::new()
            .max_crashes(1)
            .shrink(ShrinkConfig::default());
        let seq = explore(&cfg, &econfig, two_proc_factory, ok);
        let seq_report = seq.violation.expect("sequential violation");
        assert_eq!(seq_report.crashes.len(), 1);
        assert_eq!(seq_report.crashes[0].0, 1);
        for threads in [1, 2, 4] {
            let par = explore_parallel(&cfg, &econfig, threads, |_| {
                (two_proc_factory as fn() -> _, ok)
            });
            assert!(!par.exhausted);
            let report = par.violation.expect("parallel violation");
            assert_eq!(report.schedule, seq_report.schedule, "threads={threads}");
            assert_eq!(report.crashes, seq_report.crashes, "threads={threads}");
        }
    }

    #[test]
    fn config_threads_is_the_fallback_worker_count() {
        let cfg = SimConfig::base(vec![0u64; 2]);
        let par = explore_parallel(&cfg, &ExploreConfig::new().threads(2), 0, |_| {
            (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                true
            })
        });
        assert_eq!(par.worker_runs.len(), 2, "0 defers to the config");
        let par = explore_parallel(&cfg, &ExploreConfig::new().threads(2), 3, |_| {
            (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                true
            })
        });
        assert_eq!(par.worker_runs.len(), 3, "an explicit argument wins");
    }

    #[test]
    fn visit_sees_every_run_exactly_once() {
        use std::sync::atomic::AtomicU64 as Counter;
        let cfg = SimConfig::base(vec![0u64; 2]);
        let seen = Counter::new(0);
        let par = explore_parallel(&cfg, &ExploreConfig::default(), 4, |_| {
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
}
