//! Exhaustive schedule exploration (stateless model checking).
//!
//! Enumerates every schedule of a bounded execution by depth-first search
//! over the *schedule tree*: each node is a decision point, its children
//! the runnable processes. Each tree path is executed as an ordinary
//! simulated run (bodies are re-created per run and must be deterministic
//! functions of their reads — re-running a prefix then reaches the same
//! decision point with the same runnable set; a replay that does not
//! panics, in every build).
//!
//! This is how the paper's linearizability theorems (26 and 33) are
//! checked exhaustively on small instances: every interleaving of a
//! 2–3 process execution is generated and its history verified.
//!
//! Here: what an exploration is given and gives back ([`ExploreConfig`],
//! [`ExploreStats`]), the search tree's node with its sleep set, and the
//! sequential searches [`SimBuilder::explore`] and
//! [`SimBuilder::explore_reduced`]. The search itself is
//! [`mod@super::parallel`]'s for every explorer: these two are that
//! engine with the calling thread as its one worker.

use super::budget::{Budget, Budgeted};
use super::parallel::explore_inline;
use super::shrink::ShrinkReport;
use super::strategy::{Decision, SchedView};
use super::{ProcBody, SimBuilder, SimOutcome};
use crate::ctx::{AccessKind, ProcId};
use crate::json::Json;
use std::time::Duration;

/// Exploration limits and forensics hooks.
///
/// The shared limits (run cap, branching depth, crash budget,
/// heartbeat) live in an embedded [`Budget`] and are set through the
/// [`Budgeted`] vocabulary common to all exploration configs;
/// explorer-specific knobs (shrinking, span tracing) are
/// inherent methods. The parallel engines take their worker count as an
/// argument. Construct fluently in the `SimBuilder` idiom:
///
/// ```
/// use apram_model::sim::{Budgeted, ExploreConfig};
/// let cfg = ExploreConfig::new()
///     .max_runs(10_000)
///     .max_depth(8)
///     .max_crashes(1)
///     .trace_spans(true);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExploreConfig {
    /// Shared limits: [`Budget::max_runs`] stops the search even if the
    /// tree is not exhausted; [`Budget::max_depth`] restricts branching
    /// to the first `max_depth` decision points (beyond it the first
    /// runnable process is chosen deterministically — runs remain
    /// complete executions, coverage is exhaustive over the prefix);
    /// [`Budget::max_crashes`] is the fault budget `f` (at every
    /// decision point within `max_depth` where fewer than `f` crashes
    /// have fired, the tree also branches on crashing each runnable
    /// process); [`Budget::heartbeat`] streams live progress.
    pub budget: Budget,
    /// When set, a run rejected by the `visit` callback (a violation) is
    /// minimized with [`SimBuilder::shrink`] before exploration returns
    /// (the crash pattern is minimized alongside the schedule); the
    /// result lands in [`ExploreStats::violation`]. The
    /// [certifier](mod@super::certify) ignores it: it always minimizes
    /// its witness.
    pub shrink: bool,
    /// Record a span tree of the exploration (per-run spans for the
    /// first few runs, a `shrink` span, aggregate counters on the root)
    /// into [`ExploreStats::spans`]. Sequential explorers only: spans
    /// are recorded by a worker that is the calling thread, and ignored
    /// by the parallel engines' spawned workers.
    pub trace_spans: bool,
}

impl Budgeted for ExploreConfig {
    fn budget_mut(&mut self) -> &mut Budget {
        &mut self.budget
    }
}

impl ExploreConfig {
    /// Default limits (1M runs, unbounded depth, no crashes, no
    /// forensics hooks), ready for fluent chaining.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimize a rejected run before returning.
    pub fn shrink(mut self, on: bool) -> Self {
        self.shrink = on;
        self
    }

    /// Record a span tree of the exploration.
    pub fn trace_spans(mut self, on: bool) -> Self {
        self.trace_spans = on;
        self
    }
}

/// The canonical violating execution, exactly as first found — the
/// schedule and crash pattern of the rejected run, before any
/// minimization. Unlike [`ExploreStats::violation`] it is recorded even
/// with [`ExploreConfig::shrink`] off, so callers (e.g. the
/// [certifier](mod@super::certify)) can drive their own shrinking with a
/// stronger predicate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionWitness {
    /// The executed schedule of the rejected run.
    pub schedule: Vec<ProcId>,
    /// The crashes that fired during it, as replayable `(proc, step)`
    /// pairs.
    pub crashes: Vec<(ProcId, u64)>,
}

/// Exploration summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of complete runs executed.
    pub runs: u64,
    /// `true` when every leaf of the schedule tree (within `max_depth`)
    /// was executed: no `visit` rejected a run and the run budget never
    /// turned a leaf away — so also when the tree has exactly
    /// [`max_runs`](super::Budget::max_runs) leaves.
    pub exhausted: bool,
    /// `true` when some decision point beyond `max_depth` was truncated.
    pub truncated: bool,
    /// Total scheduler decisions made across all runs.
    pub executed_steps: u64,
    /// Decisions that merely replayed a previously recorded prefix to
    /// re-reach a branch point (the intrinsic overhead of stateless
    /// search; always `< executed_steps` once more than one run exists).
    pub replayed_steps: u64,
    /// Deepest decision point reached in any run (in steps).
    pub max_depth_reached: usize,
    /// Branch choices pruned by sleep sets — subtrees that
    /// [`SimBuilder::explore_reduced`] proved redundant and never
    /// entered, counted when the node they hang off is first reached.
    /// Always 0 for plain [`SimBuilder::explore`].
    pub sleep_skips: u64,
    /// Crash decisions taken across all runs (including replayed prefix
    /// crashes); 0 unless [`Budget::max_crashes`](super::Budget::max_crashes) is set.
    pub crash_branches: u64,
    /// The canonical rejected execution, unshrunk; recorded whenever a
    /// `visit` callback rejected a run (whether or not
    /// [`ExploreConfig::shrink`] is set).
    pub witness: Option<ExecutionWitness>,
    /// The minimized counterexample, when the `visit` callback rejected a
    /// run and [`ExploreConfig::shrink`] was set.
    pub violation: Option<ShrinkReport>,
    /// The exploration's span tree, when [`ExploreConfig::trace_spans`]
    /// was set.
    pub spans: Option<crate::span::SpanNode>,
    /// Wall-clock time the exploration took (including shrinking).
    pub elapsed: Duration,
    /// Complete runs executed by each worker (one entry per worker;
    /// the sequential explorers report a single entry equal to
    /// [`runs`](Self::runs)). Sums to `runs` up to budget-race slack,
    /// and exposes load imbalance across the parallel engine's workers.
    pub worker_runs: Vec<u64>,
    /// Tasks each worker popped that a *different* worker had
    /// delegated — actual steals, excluding the root task and
    /// self-produced work. All zeros for the sequential explorers.
    pub worker_steals: Vec<u64>,
}

impl ExploreStats {
    /// Fraction of discovered branch choices that sleep-set reduction
    /// pruned: `sleep_skips / (sleep_skips + runs)`. 0 when nothing was
    /// pruned (in particular for plain [`SimBuilder::explore`]).
    pub fn pruning_ratio(&self) -> f64 {
        let total = self.sleep_skips + self.runs;
        if total == 0 {
            0.0
        } else {
            self.sleep_skips as f64 / total as f64
        }
    }

    /// Replayed fraction of all executed steps — how much work stateless
    /// re-execution spent re-reaching branch points.
    pub fn replay_ratio(&self) -> f64 {
        if self.executed_steps == 0 {
            0.0
        } else {
            self.replayed_steps as f64 / self.executed_steps as f64
        }
    }

    /// Exploration throughput in complete runs per wall-clock second.
    /// 0 when no time was measured (e.g. a hand-built stats value).
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.runs as f64 / secs
        }
    }

    /// JSON summary (counters, flags, wall-clock timing, and the shrunk
    /// violation when present) — the stats side of BENCH reports, so
    /// reports and span traces agree on throughput.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::UInt(self.runs)),
            ("exhausted", Json::Bool(self.exhausted)),
            ("truncated", Json::Bool(self.truncated)),
            ("executed_steps", Json::UInt(self.executed_steps)),
            ("replayed_steps", Json::UInt(self.replayed_steps)),
            (
                "max_depth_reached",
                Json::UInt(self.max_depth_reached as u64),
            ),
            ("sleep_skips", Json::UInt(self.sleep_skips)),
            ("crash_branches", Json::UInt(self.crash_branches)),
            ("elapsed_secs", Json::Float(self.elapsed.as_secs_f64())),
            ("runs_per_sec", Json::Float(self.runs_per_sec())),
            (
                "worker_runs",
                Json::Arr(self.worker_runs.iter().map(|&r| Json::UInt(r)).collect()),
            ),
            (
                "worker_steals",
                Json::Arr(self.worker_steals.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "violation",
                match &self.violation {
                    Some(report) => report.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl<T: Clone + Send> SimBuilder<T> {
    /// Exhaustively explore the schedules of the execution defined by
    /// `factory` (called once per run; it must return equivalent,
    /// deterministic bodies every time), depth-first, on the calling
    /// thread. The builder's strategy and crash plan are *not* used:
    /// exploration owns the schedule.
    ///
    /// `visit` is called with each run's outcome; return `false` to stop
    /// early (e.g. on the first counterexample). When
    /// [`ExploreConfig::shrink`] is set, a rejected run's schedule is
    /// minimized (re-invoking `visit` on each shrink candidate) and
    /// returned in [`ExploreStats::violation`].
    pub fn explore<R, FMake, Visit>(
        &self,
        econfig: &ExploreConfig,
        factory: FMake,
        visit: Visit,
    ) -> ExploreStats
    where
        R: Send,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
        Visit: FnMut(&SimOutcome<T, R>) -> bool,
    {
        explore_inline(&self.cfg, econfig, false, factory, visit)
    }

    /// Exhaustive exploration with **sleep-set partial-order reduction**
    /// (Godefroid): schedules that differ only by swapping adjacent
    /// *independent* accesses (different registers, or read/read) are
    /// explored once. Typically exponentially fewer runs than
    /// [`explore`](Self::explore).
    ///
    /// Soundness caveat: reduction preserves all memory-level behaviours
    /// (per-process results and final register contents — every
    /// Mazurkiewicz trace is represented), but *not* every real-time
    /// event ordering: two commuting accesses may still order one
    /// operation's response against another's invocation. Use plain
    /// [`explore`](Self::explore) when the property under test is
    /// sensitive to real-time precedence between otherwise-independent
    /// operations (e.g. exhaustive linearizability certification); use
    /// this for result/state assertions and bug hunting.
    pub fn explore_reduced<R, FMake, Visit>(
        &self,
        econfig: &ExploreConfig,
        factory: FMake,
        visit: Visit,
    ) -> ExploreStats
    where
        R: Send,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
        Visit: FnMut(&SimOutcome<T, R>) -> bool,
    {
        explore_inline(&self.cfg, econfig, true, factory, visit)
    }
}

/// Are two pending accesses *independent* (they commute as memory
/// operations)? True when they touch different registers, or both read.
fn independent(a: (AccessKind, usize), b: (AccessKind, usize)) -> bool {
    a.1 != b.1 || (a.0 == AccessKind::Read && b.0 == AccessKind::Read)
}

/// The widest decision point a schedule-tree search can branch over, and
/// one more than the highest process id it can put to sleep: a node's
/// bitmasks are one `u64` each. A decision point offers a step per
/// runnable process, plus a crash per runnable process while the crash
/// budget lasts — so `n` processes fit when `n <= MAX_CHOICES`, or
/// `2 * n <= MAX_CHOICES` with a crash budget.
pub const MAX_CHOICES: usize = 64;

/// A decision point of the search ([`super::parallel`]), with its sleep
/// set. The widened choice list is `[Step(p) for p in choices] ++
/// [Crash(p) for p in choices]` — the crash suffix present only when the
/// crash budget had room at this node; steps come first, so exploration
/// without a crash budget never sees a crash pick.
///
/// Every field but `pick`, `explored` and `barren` is a pure function
/// of the picks leading to the node, and those three of the node's own
/// pick as well — which makes a pick prefix a self-contained task, and
/// a node reusable by every run that shares the picks leading to it.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct SleepNode {
    /// Runnable processes at this decision point (sorted).
    pub(crate) choices: Vec<ProcId>,
    /// The pending access of each runnable process, parallel to
    /// `choices`. Empty when built without reduction.
    pub(crate) accesses: Vec<(AccessKind, usize)>,
    /// Number of crash choices appended after the step choices: either
    /// `choices.len()` (crash budget had room at this node) or 0. Crash
    /// choice `choices.len() + i` crashes process `choices[i]`.
    pub(crate) crash_choices: usize,
    /// Bitmask over process ids: processes asleep at this node.
    /// Exploring them here is redundant (an independence-commuted
    /// schedule already covers it).
    pub(crate) sleep: u64,
    /// Bitmask over process ids: processes whose *crash* branch is
    /// asleep at this node. A crash is an action of the victim with no
    /// memory effect, so it commutes with every action of every other
    /// process; an already-explored crash branch therefore stays asleep
    /// until its victim itself acts.
    pub(crate) crash_sleep: u64,
    /// Bitmask over indices into the widened choice list (steps then
    /// crashes): branches already fully explored from this node.
    pub(crate) explored: u64,
    /// Index into the widened choice list currently being explored.
    pub(crate) pick: usize,
    /// `true` when every choice was asleep here: the whole subtree is
    /// redundant; one arbitrary completion run is performed and no
    /// sibling is explored.
    pub(crate) barren: bool,
}

impl SleepNode {
    /// Build the node for a fresh decision point reached by taking
    /// `parent.pick` at the previous one (`None` at the root). With
    /// `reduce == false` the sleep set stays empty and the node spans the
    /// full schedule tree (plain exploration). With `allow_crashes` the
    /// choice list is widened with one crash branch per runnable
    /// process.
    ///
    /// Its sleep set: a process q stays asleep while its pending access
    /// is independent of every executed action since q was put to sleep;
    /// executing a dependent action wakes it. Siblings explored before
    /// the parent's current pick fall asleep for this subtree when
    /// independent of the chosen action. Crashing a process is dependent
    /// exactly on that process's own actions — so a crash victim leaves
    /// the enabled set without waking any sleeping sibling, and explored
    /// crash branches sleep until their victim acts.
    pub(crate) fn fresh(
        view: &SchedView,
        parent: Option<&SleepNode>,
        reduce: bool,
        allow_crashes: bool,
    ) -> SleepNode {
        let max_id = *view.runnable.last().expect("runnable is non-empty");
        assert!(
            max_id < MAX_CHOICES,
            "sleep-set bitmasks support at most 64 processes"
        );
        let crash_choices = if allow_crashes {
            view.runnable.len()
        } else {
            0
        };
        assert!(
            view.runnable.len() + crash_choices <= MAX_CHOICES,
            "explored bitmask supports at most 64 widened choices"
        );
        let (sleep, crash_sleep) = match parent.filter(|_| reduce) {
            None => (0, 0),
            Some(parent) => {
                let n = parent.choices.len();
                // The chosen action at the parent: a step carrying its
                // access, or the crash of a victim.
                let chosen_access = (parent.pick < n).then(|| parent.accesses[parent.pick]);
                let chosen_proc = parent.choices[parent.pick % n];
                let mut sleep = 0u64;
                let mut crash_sleep = 0u64;
                for (i, &q) in parent.choices.iter().enumerate() {
                    let was_asleep = parent.sleep >> q & 1 == 1 || parent.explored >> i & 1 == 1;
                    let indep = match chosen_access {
                        Some(acc) => independent(parent.accesses[i], acc),
                        // crash(chosen_proc) commutes with any step of
                        // another process.
                        None => q != chosen_proc,
                    };
                    if was_asleep && indep {
                        sleep |= 1 << q;
                    }
                }
                for i in 0..parent.crash_choices {
                    let v = parent.choices[i];
                    let was_asleep =
                        parent.crash_sleep >> v & 1 == 1 || parent.explored >> (n + i) & 1 == 1;
                    // crash(v) commutes with any action whose process
                    // is not v (steps and crashes alike).
                    if was_asleep && v != chosen_proc {
                        crash_sleep |= 1 << v;
                    }
                }
                (sleep, crash_sleep)
            }
        };
        let accesses = if reduce {
            view.runnable
                .iter()
                .map(|&p| view.pending[p].expect("runnable implies pending"))
                .collect()
        } else {
            Vec::new()
        };
        SleepNode {
            choices: view.runnable.to_vec(),
            accesses,
            crash_choices,
            sleep,
            crash_sleep,
            explored: 0,
            pick: 0,
            barren: false,
        }
    }

    /// Widened choice count: steps plus crash branches.
    pub(crate) fn total(&self) -> usize {
        self.choices.len() + self.crash_choices
    }

    /// The scheduler decision encoded by the current pick.
    pub(crate) fn decision(&self) -> Decision {
        if self.pick < self.choices.len() {
            Decision::Step(self.choices[self.pick])
        } else {
            Decision::Crash(self.choices[self.pick - self.choices.len()])
        }
    }

    /// Is (widened) choice `i` asleep at this node?
    pub(crate) fn asleep(&self, i: usize) -> bool {
        if i < self.choices.len() {
            self.sleep >> self.choices[i] & 1 == 1
        } else {
            self.crash_sleep >> self.choices[i - self.choices.len()] & 1 == 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::MemCtx;
    use crate::sim::SimCtx;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn two_proc_bodies() -> Vec<ProcBody<'static, u64, u64>> {
        (0..2)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<u64>| {
                    ctx.write(p, p as u64 + 1);
                    ctx.read(1 - p)
                }) as ProcBody<'static, u64, u64>
            })
            .collect()
    }

    #[test]
    fn explores_all_interleavings_of_two_two_step_processes() {
        // Each process takes 2 steps; the number of interleavings of
        // 2+2 steps is C(4,2) = 6.
        let sim = SimBuilder::new(vec![0u64; 2]);
        let mut schedules = HashSet::new();
        let stats = sim.explore(&ExploreConfig::default(), two_proc_bodies, |out| {
            out.assert_no_panics();
            schedules.insert(out.trace.schedule());
            true
        });
        assert!(stats.exhausted);
        assert!(!stats.truncated);
        assert_eq!(stats.runs, 6);
        assert_eq!(schedules.len(), 6);
    }

    #[test]
    fn all_outcomes_observed() {
        // Across all interleavings, P0 must observe {0, 2}: 0 when it
        // reads before P1's write, 2 after.
        let sim = SimBuilder::new(vec![0u64; 2]);
        let mut seen = HashSet::new();
        sim.explore(&ExploreConfig::default(), two_proc_bodies, |out| {
            seen.insert((out.results[0].unwrap(), out.results[1].unwrap()));
            true
        });
        // Both reads can't miss both writes only in schedules where both
        // read first — impossible since each writes before reading. The
        // possible result pairs:
        assert!(seen.contains(&(2, 1)));
        assert!(seen.contains(&(0, 1)));
        assert!(seen.contains(&(2, 0)));
        assert!(
            !seen.contains(&(0, 0)),
            "both cannot miss the other's write"
        );
    }

    #[test]
    fn early_stop_works() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let stats = sim.explore(&ExploreConfig::default(), two_proc_bodies, |_| false);
        assert_eq!(stats.runs, 1);
        assert!(!stats.exhausted);
    }

    #[test]
    fn run_budget_respected() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_runs(3);
        let stats = sim.explore(&econfig, two_proc_bodies, |_| true);
        assert_eq!(stats.runs, 3);
        assert!(!stats.exhausted);
    }

    /// The sleep-set explorer covers exactly the same observable
    /// outcomes (results + final memory) as the full explorer, in fewer
    /// or equal runs.
    #[test]
    fn reduced_covers_all_outcomes() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let collect = |reduced: bool| {
            let mut outcomes = HashSet::new();
            let stats = if reduced {
                sim.explore_reduced(&ExploreConfig::default(), two_proc_bodies, |out| {
                    outcomes.insert((out.results.clone(), out.memory.clone()));
                    true
                })
            } else {
                sim.explore(&ExploreConfig::default(), two_proc_bodies, |out| {
                    outcomes.insert((out.results.clone(), out.memory.clone()));
                    true
                })
            };
            (outcomes, stats)
        };
        let (full, full_stats) = collect(false);
        let (reduced, reduced_stats) = collect(true);
        assert!(full_stats.exhausted && reduced_stats.exhausted);
        assert_eq!(full, reduced, "outcome sets must match");
        assert!(
            reduced_stats.runs <= full_stats.runs,
            "reduction must not add runs: {} vs {}",
            reduced_stats.runs,
            full_stats.runs
        );
    }

    /// Fully independent programs (each process touches only its own
    /// register) collapse to very few runs under reduction.
    #[test]
    fn reduced_collapses_independent_programs() {
        fn bodies() -> Vec<ProcBody<'static, u64, u64>> {
            (0..3)
                .map(|p| {
                    Box::new(move |ctx: &mut SimCtx<u64>| {
                        ctx.write(p, 1);
                        ctx.write(p, 2);
                        ctx.read(p)
                    }) as ProcBody<'static, u64, u64>
                })
                .collect()
        }
        let sim = SimBuilder::new(vec![0u64; 3]);
        let full = sim.explore(&ExploreConfig::default(), bodies, |_| true);
        let reduced = sim.explore_reduced(&ExploreConfig::default(), bodies, |out| {
            assert_eq!(out.results, vec![Some(2), Some(2), Some(2)]);
            true
        });
        assert!(full.exhausted && reduced.exhausted);
        // Full: multinomial(9; 3,3,3) = 1680 runs. Reduced: drastically
        // fewer (every interleaving is equivalent).
        assert_eq!(full.runs, 1680);
        assert!(
            reduced.runs * 50 <= full.runs,
            "expected ≥50× reduction, got {} vs {}",
            reduced.runs,
            full.runs
        );
    }

    /// Reduction on a contended program (everyone hammers one register)
    /// keeps every distinct outcome while pruning read/read commutation.
    #[test]
    fn reduced_contended_program_outcomes_match() {
        fn bodies() -> Vec<ProcBody<'static, u64, Vec<u64>>> {
            (0..2)
                .map(|p| {
                    Box::new(move |ctx: &mut SimCtx<u64>| {
                        let a = ctx.read(0);
                        ctx.write(0, a + 10 * (p as u64 + 1));
                        let b = ctx.read(0);
                        vec![a, b]
                    }) as ProcBody<'static, u64, Vec<u64>>
                })
                .collect()
        }
        let sim = SimBuilder::new(vec![0u64; 1]);
        let mut full_set = HashSet::new();
        let full = sim.explore(&ExploreConfig::default(), bodies, |out| {
            full_set.insert((out.results.clone(), out.memory.clone()));
            true
        });
        let mut red_set = HashSet::new();
        let reduced = sim.explore_reduced(&ExploreConfig::default(), bodies, |out| {
            red_set.insert((out.results.clone(), out.memory.clone()));
            true
        });
        assert!(full.exhausted && reduced.exhausted);
        assert_eq!(full_set, red_set);
        assert!(reduced.runs <= full.runs);
    }

    #[test]
    fn violation_is_captured_and_shrunk() {
        // Reject any run where P0 observed P1's write; exploration stops
        // there and hands back a minimized failing schedule.
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().shrink(true);
        let stats = sim.explore(&econfig, two_proc_bodies, |out| {
            out.results[0] != Some(2) // "violation": P0 read 2
        });
        assert!(!stats.exhausted);
        let report = stats.violation.as_ref().expect("violation captured");
        assert!(report.schedule.len() <= report.original.len());
        // The minimal reproduction: P1 writes (one step), P0 writes then
        // reads — 3 steps, but P0's write is its first access so it
        // cannot be skipped. Minimal = [1, 0, 0].
        assert_eq!(report.schedule, vec![1, 0, 0]);
        // Re-running the shrunk schedule still shows the violation.
        let out = crate::sim::SimBuilder::new(vec![0u64; 2])
            .strategy(crate::sim::strategy::Replay::strict(
                report.schedule.clone(),
            ))
            .max_steps(report.schedule.len() as u64)
            .run(two_proc_bodies());
        assert_eq!(out.results[0], Some(2));
    }

    #[test]
    fn no_shrink_config_leaves_violation_empty() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let stats = sim.explore(&ExploreConfig::default(), two_proc_bodies, |_| false);
        assert_eq!(stats.runs, 1);
        assert!(stats.violation.is_none());
    }

    #[test]
    fn spans_capture_run_structure() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().trace_spans(true);
        let stats = sim.explore(&econfig, two_proc_bodies, |_| true);
        let spans = stats.spans.as_ref().expect("spans recorded");
        assert_eq!(spans.name, "explore");
        assert_eq!(spans.counter("runs"), Some(stats.runs));
        assert_eq!(spans.counter("steps"), Some(stats.executed_steps));
        assert_eq!(spans.counter("replayed_steps"), Some(stats.replayed_steps));
        // 6 runs, all under the cap: one child span each.
        assert_eq!(spans.children.len(), stats.runs as usize);
        assert!(spans.children.iter().all(|c| c.name == "run"));
    }

    #[test]
    fn reduced_spans_count_sleep_skips() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().trace_spans(true);
        let stats = sim.explore_reduced(&econfig, two_proc_bodies, |_| true);
        let spans = stats.spans.as_ref().expect("spans recorded");
        assert_eq!(spans.name, "explore_reduced");
        assert_eq!(spans.counter("runs"), Some(stats.runs));
        if stats.sleep_skips > 0 {
            assert_eq!(spans.counter("sleep_skips"), Some(stats.sleep_skips));
        }
    }

    #[test]
    fn shrink_span_nested_under_exploration() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().shrink(true).trace_spans(true);
        let stats = sim.explore(&econfig, two_proc_bodies, |out| out.results[0] != Some(2));
        let spans = stats.spans.as_ref().expect("spans recorded");
        let shrink = spans
            .children
            .iter()
            .find(|c| c.name == "shrink")
            .expect("shrink span present");
        assert_eq!(
            shrink.counter("attempts"),
            Some(stats.violation.as_ref().unwrap().stats.attempts)
        );
    }

    /// `independent()` must be symmetric and agree with an execution
    /// oracle: two pending accesses are independent exactly when running
    /// them in either order yields the same observed values and the same
    /// final memory.
    #[test]
    fn independent_agrees_with_execution_oracle() {
        use crate::sim::strategy::Replay;
        use crate::sim::SimBuilder;
        let kinds = [AccessKind::Read, AccessKind::Write];
        let regs = [0usize, 1, 2];
        fn body(acc: (AccessKind, usize), val: u64) -> ProcBody<'static, u64, Option<u64>> {
            Box::new(move |ctx: &mut SimCtx<u64>| match acc.0 {
                AccessKind::Read => Some(ctx.read(acc.1)),
                AccessKind::Write => {
                    ctx.write(acc.1, val);
                    None
                }
            })
        }
        // P0 performs access `a` (writing 100), P1 access `b` (writing
        // 200); distinct written values so a swapped write order is
        // observable in memory.
        let run = |a, b, sched: Vec<ProcId>| {
            let out = SimBuilder::new(vec![7u64, 8, 9])
                .strategy(Replay::strict(sched))
                .run(vec![body(a, 100), body(b, 200)]);
            out.assert_no_panics();
            (out.results.clone(), out.memory.clone())
        };
        for a in kinds
            .iter()
            .flat_map(|&k| regs.iter().map(move |&r| (k, r)))
        {
            for b in kinds
                .iter()
                .flat_map(|&k| regs.iter().map(move |&r| (k, r)))
            {
                let commute = run(a, b, vec![0, 1]) == run(a, b, vec![1, 0]);
                assert_eq!(
                    independent(a, b),
                    commute,
                    "oracle disagrees on {a:?}/{b:?}"
                );
                assert_eq!(
                    independent(a, b),
                    independent(b, a),
                    "independence must be symmetric on {a:?}/{b:?}"
                );
            }
        }
    }

    #[test]
    fn stats_record_wall_clock_and_export_json() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let stats = sim.explore(&ExploreConfig::default(), two_proc_bodies, |_| true);
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.runs_per_sec() > 0.0);
        let doc = stats.to_json();
        assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(stats.runs));
        assert_eq!(doc.get("violation"), Some(&Json::Null));
        let secs = doc.get("elapsed_secs").and_then(Json::as_f64).unwrap();
        assert!((secs - stats.elapsed.as_secs_f64()).abs() < 1e-12);
        let rps = doc.get("runs_per_sec").and_then(Json::as_f64).unwrap();
        assert!((rps - stats.runs_per_sec()).abs() < 1e-6);
        // The export round-trips through the parser.
        let parsed = crate::json::parse(&doc.to_pretty(2)).unwrap();
        assert_eq!(parsed.get("runs").and_then(Json::as_u64), Some(stats.runs));
    }

    #[test]
    fn heartbeat_streams_progress_and_a_final_beat() {
        use crate::telemetry::{buffer_sink, Heartbeat};
        let sim = SimBuilder::new(vec![0u64; 2]);
        let (sink, buf) = buffer_sink();
        let econfig = ExploreConfig::new().heartbeat(Heartbeat::shared(Duration::ZERO, sink));
        let stats = sim.explore(&econfig, two_proc_bodies, |_| true);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // A zero interval beats after every run, plus the final beat.
        assert_eq!(lines.len() as u64, stats.runs + 1);
        for line in &lines {
            crate::json::parse(line).expect("every beat is valid JSON");
        }
        let last = crate::json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("runs").and_then(Json::as_u64), Some(stats.runs));
        assert_eq!(last.get("violation_found"), Some(&Json::Bool(false)));
        assert!(last.get("runs_per_sec").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn heartbeat_reports_violations_and_builder_api_works() {
        use crate::telemetry::{buffer_sink, Heartbeat};
        let sim = SimBuilder::new(vec![0u64; 2]);
        let (sink, buf) = buffer_sink();
        let econfig = ExploreConfig::new().heartbeat(Heartbeat::shared(Duration::ZERO, sink));
        let stats = sim.explore_reduced(&econfig, two_proc_bodies, |out| out.results[0] != Some(2));
        assert!(!stats.exhausted);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let last = crate::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("violation_found"), Some(&Json::Bool(true)));
        // A heartbeat over any sink is one call.
        let every = Duration::from_secs(1);
        let cfg2 = ExploreConfig::default().heartbeat(Heartbeat::new(every, std::io::sink()));
        assert!(cfg2.budget.heartbeat.is_some());
    }

    #[test]
    fn sequential_worker_stats_are_a_single_entry() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let stats = sim.explore(&ExploreConfig::default(), two_proc_bodies, |_| true);
        assert_eq!(stats.worker_runs, vec![stats.runs]);
        assert_eq!(stats.worker_steals, vec![0]);
        let doc = stats.to_json();
        let runs = doc.get("worker_runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs, &[Json::UInt(stats.runs)]);
        let steals = doc.get("worker_steals").and_then(Json::as_arr).unwrap();
        assert_eq!(steals, &[Json::UInt(0)]);
    }

    #[test]
    fn depth_truncation_flagged() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_runs(1_000).max_depth(1);
        let stats = sim.explore(&econfig, two_proc_bodies, |_| true);
        assert!(stats.truncated);
        assert!(stats.exhausted);
        assert_eq!(stats.runs, 2); // only the first step branches
    }

    #[test]
    fn fluent_config_sets_every_knob() {
        let cfg = ExploreConfig::new()
            .max_runs(7)
            .max_depth(3)
            .max_crashes(2)
            .shrink(true)
            .trace_spans(true);
        assert_eq!(cfg.budget.max_runs, 7);
        assert_eq!(cfg.budget.max_depth, 3);
        assert_eq!(cfg.budget.max_crashes, 2);
        assert!(cfg.shrink);
        assert!(cfg.trace_spans);
        assert!(cfg.budget.heartbeat.is_none());
        let cleared = cfg.heartbeat(None);
        assert!(cleared.budget.heartbeat.is_none());
    }

    /// Reduction-free oracle: count the leaves of the crash-widened
    /// schedule tree directly on a step-count model of the program
    /// (every process takes a fixed number of steps regardless of
    /// values, which holds for `two_proc_bodies`).
    fn crash_tree_oracle(remaining: &mut [u32], crashed: &mut [bool], budget: usize) -> u64 {
        let runnable: Vec<usize> = (0..remaining.len())
            .filter(|&p| !crashed[p] && remaining[p] > 0)
            .collect();
        if runnable.is_empty() {
            return 1;
        }
        let mut total = 0;
        for &p in &runnable {
            remaining[p] -= 1;
            total += crash_tree_oracle(remaining, crashed, budget);
            remaining[p] += 1;
        }
        if budget > 0 {
            for &p in &runnable {
                crashed[p] = true;
                total += crash_tree_oracle(remaining, crashed, budget - 1);
                crashed[p] = false;
            }
        }
        total
    }

    /// The regression test for the crash/sleep-set audit: exhaustive
    /// crash-branching counts must match a reduction-free oracle, and a
    /// crashed process must take no further steps in any run.
    #[test]
    fn crash_branching_matches_reduction_free_oracle() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        for f in 0..=2usize {
            let expected = crash_tree_oracle(&mut [2, 2], &mut [false, false], f);
            let econfig = ExploreConfig::new().max_crashes(f);
            let mut crash_counts = 0u64;
            let stats = sim.explore(&econfig, two_proc_bodies, |out| {
                out.assert_no_panics();
                let crashes = out.crashed.iter().filter(|&&c| c).count();
                assert!(crashes <= f, "crash budget exceeded: {crashes} > {f}");
                crash_counts += crashes as u64;
                // A crashed process's trace events all precede its
                // crash point.
                for (p, &at) in out.crashed_at.iter().enumerate() {
                    if let Some(at) = at {
                        assert!(out
                            .trace
                            .events()
                            .iter()
                            .all(|e| e.proc != p || e.step < at));
                    }
                }
                true
            });
            assert!(stats.exhausted, "f={f}");
            assert_eq!(stats.runs, expected, "f={f}");
            assert_eq!(stats.crash_branches, crash_counts, "f={f}");
            if f == 0 {
                assert_eq!(stats.runs, 6);
                assert_eq!(stats.crash_branches, 0);
            }
        }
    }

    /// Sleep-set reduction with crash branching stays sound: the
    /// observable outcome set (results, final memory, crash pattern)
    /// matches plain exploration, in no more runs.
    #[test]
    fn reduced_with_crashes_covers_all_outcomes() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        for f in 1..=2usize {
            let econfig = ExploreConfig::new().max_crashes(f);
            let mut full_set = HashSet::new();
            let full = sim.explore(&econfig, two_proc_bodies, |out| {
                full_set.insert((out.results.clone(), out.memory.clone(), out.crashed.clone()));
                true
            });
            let mut red_set = HashSet::new();
            let reduced = sim.explore_reduced(&econfig, two_proc_bodies, |out| {
                red_set.insert((out.results.clone(), out.memory.clone(), out.crashed.clone()));
                true
            });
            assert!(full.exhausted && reduced.exhausted, "f={f}");
            assert_eq!(full_set, red_set, "f={f}: outcome sets must match");
            assert!(
                reduced.runs <= full.runs,
                "f={f}: reduction must not add runs ({} vs {})",
                reduced.runs,
                full.runs
            );
        }
    }

    /// A violating run under crash branching shrinks to a minimized
    /// schedule *and* crash pattern, and the shrunk execution
    /// strict-replays with the crash plan applied.
    #[test]
    fn crash_violation_shrinks_schedule_and_crash_pattern() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let econfig = ExploreConfig::new().max_crashes(1).shrink(true);
        // "Violation": P0 survives but never saw P1's write AND P1
        // crashed — only reachable through a crash branch.
        let stats = sim.explore(&econfig, two_proc_bodies, |out| {
            !(out.crashed[1] && out.results[0] == Some(0))
        });
        assert!(!stats.exhausted);
        let report = stats.violation.as_ref().expect("violation captured");
        assert_eq!(
            report.crashes.len(),
            1,
            "the minimized crash pattern keeps the one necessary crash"
        );
        assert_eq!(report.crashes[0].0, 1);
        // Minimal surviving schedule: P0's write and read only.
        assert_eq!(report.schedule, vec![0, 0]);
        let out = crate::sim::SimBuilder::new(vec![0u64; 2])
            .strategy(crate::sim::strategy::Replay::strict(
                report.schedule.clone(),
            ))
            .crashes(report.crashes.clone())
            .max_steps(report.schedule.len() as u64)
            .run(two_proc_bodies());
        assert!(out.crashed[1]);
        assert_eq!(out.results[0], Some(0));
    }

    /// A straight-line program: per process, its accesses in order
    /// (`true` = write) over two registers. A write stores a value naming
    /// its process and position; a process returns what its reads saw.
    type Program = Vec<Vec<(bool, usize)>>;

    fn written(p: ProcId, at: usize) -> u64 {
        (10 * (p + 1) + at) as u64
    }

    fn program_bodies(prog: &Program) -> Vec<ProcBody<'static, u64, Vec<u64>>> {
        let body = |(p, accesses): (usize, &Vec<(bool, usize)>)| {
            let accesses = accesses.clone();
            Box::new(move |ctx: &mut SimCtx<u64>| {
                let mut seen = Vec::new();
                for (at, &(write, reg)) in accesses.iter().enumerate() {
                    if write {
                        ctx.write(reg, written(p, at));
                    } else {
                        seen.push(ctx.read(reg));
                    }
                }
                seen
            }) as ProcBody<'static, u64, Vec<u64>>
        };
        prog.iter().enumerate().map(body).collect()
    }

    /// A leaf of the oracle's tree — an execution — and on the way down
    /// the execution so far.
    #[derive(Clone)]
    struct Leaf {
        pc: Vec<usize>,
        seen: Vec<Vec<u64>>,
        memory: Vec<u64>,
        /// The pick at each decision within `max_depth`.
        picks: Vec<u32>,
        schedule: Vec<ProcId>,
        crashes: Vec<(ProcId, u64)>,
    }

    impl Leaf {
        fn crashed(&self, p: ProcId) -> bool {
            self.crashes.iter().any(|&(victim, _)| victim == p)
        }

        fn decisions(&self) -> usize {
            self.schedule.len() + self.crashes.len()
        }

        /// What a `visit` callback observes of this execution.
        fn outcome(&self) -> (Vec<Option<Vec<u64>>>, Vec<u64>) {
            let result = |p| (!self.crashed(p)).then(|| self.seen[p].clone());
            (
                (0..self.pc.len()).map(result).collect(),
                self.memory.clone(),
            )
        }
    }

    /// The oracle, which is not the engine: the leaves of `prog`'s
    /// crash-widened schedule tree below `at`, depth-first, by recursion
    /// on a model of the memory (`crash_tree_oracle`, with executions).
    fn tree_oracle(prog: &Program, f: usize, max_depth: usize, at: Leaf, leaves: &mut Vec<Leaf>) {
        let live = |&p: &usize| !at.crashed(p) && at.pc[p] < prog[p].len();
        let runnable: Vec<usize> = (0..prog.len()).filter(live).collect();
        if runnable.is_empty() {
            return leaves.push(at);
        }
        let branching = at.decisions() < max_depth;
        let choices = match (branching, at.crashes.len() < f) {
            (false, _) => 1,
            (true, false) => runnable.len(),
            (true, true) => 2 * runnable.len(),
        };
        for pick in 0..choices {
            let (mut next, p) = (at.clone(), runnable[pick % runnable.len()]);
            if branching {
                next.picks.push(pick as u32);
            }
            if pick >= runnable.len() {
                next.crashes.push((p, next.schedule.len() as u64));
            } else {
                match prog[p][next.pc[p]] {
                    (true, reg) => next.memory[reg] = written(p, next.pc[p]),
                    (false, reg) => next.seen[p].push(next.memory[reg]),
                }
                next.pc[p] += 1;
                next.schedule.push(p);
            }
            tree_oracle(prog, f, max_depth, next, leaves);
        }
    }

    fn oracle_leaves(prog: &Program, f: usize, max_depth: usize) -> Vec<Leaf> {
        let root = Leaf {
            pc: vec![0; prog.len()],
            seen: vec![Vec::new(); prog.len()],
            memory: vec![0; 2],
            picks: Vec::new(),
            schedule: Vec::new(),
            crashes: Vec::new(),
        };
        let mut leaves = Vec::new();
        tree_oracle(prog, f, max_depth, root, &mut leaves);
        leaves
    }

    fn programs() -> impl Strategy<Value = Program> {
        let access = (any::<bool>(), 0usize..2);
        proptest::collection::vec(proptest::collection::vec(access, 1..=3), 2..=3)
    }

    fn optional<S: Strategy>(some: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), some).prop_map(|(on, v)| on.then_some(v))
    }

    /// `stats` without what depends on time and on who ran which run.
    fn portable(stats: &ExploreStats) -> ExploreStats {
        ExploreStats {
            elapsed: Duration::ZERO,
            worker_runs: Vec::new(),
            worker_steals: Vec::new(),
            ..stats.clone()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The search with the calling thread as its one worker visits
        /// the oracle's leaves in the oracle's order, stops where a run
        /// cap or a rejecting `visit` stops the oracle, and reports the
        /// oracle's counts in every field. If that exhausted a small
        /// tree: 1, 2 and 4 spawned workers report the same stats, with
        /// and without reduction, which loses none of its outcomes.
        #[test]
        fn the_search_matches_a_recursive_oracle(
            prog in programs(),
            f in 0usize..=1,
            max_depth in optional(1usize..=6),
            max_runs in optional(1u64..=60),
            reject_at in optional(0usize..60),
        ) {
            let leaves = oracle_leaves(&prog, f, max_depth.unwrap_or(usize::MAX));
            let small = leaves.len() <= 250;
            prop_assume!(small || max_runs.is_some() || reject_at.is_some());
            let cap = max_runs.map_or(leaves.len(), |m| leaves.len().min(m as usize));
            let rejected = reject_at.filter(|&k| k < cap);
            let visited = &leaves[..rejected.map_or(cap, |k| k + 1)];
            // A run replays the picks it shares with the run before it,
            // and the one where they part.
            let replayed = |pair: &[Leaf]| {
                let same = pair[0].picks.iter().zip(&pair[1].picks).take_while(|(a, b)| a == b);
                same.count() as u64 + 1
            };
            let total = |of: fn(&Leaf) -> usize| visited.iter().map(of).sum::<usize>() as u64;
            let expected = ExploreStats {
                runs: visited.len() as u64,
                exhausted: rejected.is_none() && visited.len() == leaves.len(),
                truncated: visited.iter().any(|l| l.decisions() > l.picks.len()),
                executed_steps: total(Leaf::decisions),
                replayed_steps: visited.windows(2).map(replayed).sum(),
                max_depth_reached: visited.iter().map(Leaf::decisions).max().unwrap_or(0),
                crash_branches: total(|l| l.crashes.len()),
                witness: rejected.map(|k| ExecutionWitness {
                    schedule: leaves[k].schedule.clone(),
                    crashes: leaves[k].crashes.clone(),
                }),
                ..ExploreStats::default()
            };

            let sim = SimBuilder::new(vec![0u64; 2]);
            let econfig = ExploreConfig::new()
                .max_crashes(f)
                .max_depth(max_depth.unwrap_or(usize::MAX))
                .max_runs(max_runs.unwrap_or(u64::MAX));
            let mut outcomes = Vec::new();
            let stats = sim.explore(&econfig, || program_bodies(&prog), |out| {
                out.assert_no_panics();
                outcomes.push((out.results.clone(), out.memory.clone()));
                Some(outcomes.len() - 1) != reject_at
            });
            prop_assert_eq!(&outcomes, &visited.iter().map(Leaf::outcome).collect::<Vec<_>>());
            prop_assert_eq!(&stats.worker_runs, &[stats.runs]);
            prop_assert_eq!(portable(&stats), expected);

            prop_assume!(stats.exhausted && small);
            let mut seen = HashSet::new();
            let reduced = sim.explore_reduced(&econfig, || program_bodies(&prog), |out| {
                seen.insert((out.results.clone(), out.memory.clone()));
                true
            });
            prop_assert!(reduced.exhausted && reduced.runs <= stats.runs);
            if max_depth.is_none() {
                prop_assert_eq!(seen, outcomes.into_iter().collect::<HashSet<_>>());
            }
            for threads in [1, 2, 4] {
                let make_worker = |_| {
                    let prog = prog.clone();
                    (move || program_bodies(&prog), |_: &SimOutcome<u64, Vec<u64>>| true)
                };
                let spawned = sim.explore_parallel(&econfig, threads, make_worker);
                prop_assert_eq!(portable(&spawned), portable(&stats), "threads={}", threads);
                let spawned = sim.explore_reduced_parallel(&econfig, threads, make_worker);
                prop_assert_eq!(portable(&spawned), portable(&reduced), "threads={}", threads);
            }
        }
    }
}
