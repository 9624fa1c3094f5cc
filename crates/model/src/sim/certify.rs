//! Wait-freedom certification: exhaustive fault-aware exploration with
//! a per-process step-bound judge.
//!
//! A *certificate* is the outcome of exploring every schedule and crash
//! pattern of a configuration (up to the configured depth and crash
//! budget `f`) while asserting, on every run, that
//!
//! 1. no process panicked,
//! 2. every **surviving** (non-crashed) process finished within its
//!    analytic step bound ([`CertifyConfig::bounds`]), and
//! 3. the run passes a caller-supplied semantic check (typically:
//!    the crash-truncated history linearizes).
//!
//! When every run passes and the tree is exhausted, the object is
//! *certified wait-free* for that `(n, f)` box: no adversarial schedule
//! or crash pattern within the explored bounds can starve a survivor
//! past its bound. When a run fails, the violating execution is
//! minimized ([`SimBuilder::shrink`]) — schedule *and* crash pattern —
//! and the certificate carries the classified witness.
//!
//! The certifiers are [`SimBuilder::certify`] and
//! [`SimBuilder::certify_parallel`].
//!
//! Certification uses the **plain** (unreduced) explorer: step bounds
//! are a real-time property, and sleep-set reduction only preserves
//! memory-level behaviours.
//!
//! The sequential and parallel certifiers produce **bit-identical**
//! certificates: on exhaustion the exploration counters already agree,
//! and on violation both normalize the certificate to the canonical
//! shrunk witness (re-executed once, deterministically) instead of
//! reporting timing-dependent aggregates.
//!
//! ```
//! use apram_model::sim::{Budgeted, CertifyConfig, SimBuilder};
//! use apram_model::sim::{ProcBody, SimCtx};
//! use apram_model::MemCtx;
//!
//! let sim = SimBuilder::new(vec![0u64; 2]);
//! let factory = || {
//!     (0..2usize)
//!         .map(|p| {
//!             Box::new(move |ctx: &mut SimCtx<u64>| {
//!                 ctx.write(p, 1);
//!                 ctx.read(1 - p)
//!             }) as ProcBody<'static, u64, u64>
//!         })
//!         .collect()
//! };
//! // Each body performs exactly 2 shared-memory steps; certify that
//! // bound under every schedule with at most one crash.
//! let ccfg = CertifyConfig::new([2, 2]).max_crashes(1);
//! let cert = sim.certify(&ccfg, factory, |_| true);
//! assert!(cert.passed());
//! assert_eq!(cert.worst_steps, vec![2, 2]);
//! ```

use super::budget::{Budget, Budgeted};
use super::explore::{ExploreConfig, ExploreStats};
use super::fault::FaultPlan;
use super::parallel::ProcPool;
use super::shrink::{shrink_on, ShrinkReport, SHRINK_MAX_ATTEMPTS};
use super::strategy::Replay;
use super::{run_sim, ProcBody, SimBuilder, SimConfig, SimOutcome};
use crate::ctx::ProcId;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to certify: per-process step bounds plus exploration limits.
/// Every surviving process must also finish on every run (the liveness
/// half of wait-freedom).
#[derive(Clone, Debug)]
pub struct CertifyConfig {
    /// Analytic step bound per process: a surviving process `p` must
    /// complete within `bounds[p]` shared-memory steps on every run.
    pub bounds: Vec<u64>,
    /// Exploration limits — in particular
    /// [`max_crashes`](crate::sim::Budget::max_crashes) is the fault budget
    /// `f` the certificate covers. Its [`shrink`](ExploreConfig::shrink)
    /// switch is ignored: the certifier always minimizes its witness.
    pub explore: ExploreConfig,
}

impl Budgeted for CertifyConfig {
    /// The certifier's budget is its exploration's budget: chaining
    /// `.max_crashes(1)` on a `CertifyConfig` is the same as setting it
    /// on [`CertifyConfig::explore`].
    fn budget_mut(&mut self) -> &mut Budget {
        &mut self.explore.budget
    }
}

impl CertifyConfig {
    /// Certify the given per-process step bounds with default
    /// exploration limits (crash-free; chain the [`Budgeted`] setters —
    /// e.g. [`max_crashes`](Budgeted::max_crashes) — to set a fault
    /// budget, or [`explore`](Self::explore) to replace the limits
    /// wholesale).
    pub fn new(bounds: impl Into<Vec<u64>>) -> Self {
        CertifyConfig {
            bounds: bounds.into(),
            explore: ExploreConfig::default(),
        }
    }

    /// Replace the exploration limits.
    pub fn explore(mut self, explore: ExploreConfig) -> Self {
        self.explore = explore;
        self
    }
}

/// Why a run failed certification, in judging order: panics trump step
/// bounds, which trump incompleteness, which trumps the semantic check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A process panicked (a bug in the object under test).
    Panic {
        /// The panicking process.
        proc: ProcId,
        /// Its panic message.
        message: String,
    },
    /// A surviving process exceeded its analytic step bound.
    StepBound {
        /// The starved process.
        proc: ProcId,
        /// Shared-memory steps it executed.
        steps: u64,
        /// The bound it was certified against.
        bound: u64,
    },
    /// A surviving process never completed (run halted at the step
    /// budget with the process still pending).
    Unfinished {
        /// The incomplete process.
        proc: ProcId,
    },
    /// The caller's semantic check (e.g. linearizability of the
    /// crash-truncated history) rejected the run.
    HistoryRejected,
}

impl ViolationKind {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            ViolationKind::Panic { proc, message } => Json::obj([
                ("kind", Json::Str("panic".into())),
                ("proc", Json::UInt(*proc as u64)),
                ("message", Json::Str(message.clone())),
            ]),
            ViolationKind::StepBound { proc, steps, bound } => Json::obj([
                ("kind", Json::Str("step_bound".into())),
                ("proc", Json::UInt(*proc as u64)),
                ("steps", Json::UInt(*steps)),
                ("bound", Json::UInt(*bound)),
            ]),
            ViolationKind::Unfinished { proc } => Json::obj([
                ("kind", Json::Str("unfinished".into())),
                ("proc", Json::UInt(*proc as u64)),
            ]),
            ViolationKind::HistoryRejected => {
                Json::obj([("kind", Json::Str("history_rejected".into()))])
            }
        }
    }
}

/// A certification failure: the classified verdict plus the minimized
/// witness execution that reproduces it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertViolation {
    /// The judge's verdict on the witness execution.
    pub kind: ViolationKind,
    /// The minimized schedule and crash pattern.
    pub report: ShrinkReport,
    /// Which processes had crashed in the witness execution.
    pub crashed: Vec<bool>,
}

/// The result of certifying one configuration; see the [module
/// docs](self) for what "certified" means.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Runs examined. Normalized to 1 (the witness re-execution) when a
    /// violation was found, so sequential and parallel certification
    /// agree bit-for-bit.
    pub runs: u64,
    /// `true` when the schedule/crash tree was exhausted within the
    /// exploration limits.
    pub exhausted: bool,
    /// Crash decisions branched on. Normalized to the witness's crash
    /// count when a violation was found.
    pub crash_branches: u64,
    /// Worst observed survivor step count per process, across all runs
    /// (violation: across the witness execution alone).
    pub worst_steps: Vec<u64>,
    /// The bounds certified against (copied from [`CertifyConfig`]).
    pub bounds: Vec<u64>,
    /// The classified, minimized counterexample, when any run failed.
    pub violation: Option<CertViolation>,
}

impl Certificate {
    /// `true` when every explored run passed *and* the tree was
    /// exhausted — the configuration is certified.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && self.exhausted
    }

    /// JSON summary, the certificate side of BENCH reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("passed", Json::Bool(self.passed())),
            ("runs", Json::UInt(self.runs)),
            ("exhausted", Json::Bool(self.exhausted)),
            ("crash_branches", Json::UInt(self.crash_branches)),
            (
                "worst_steps",
                Json::Arr(self.worst_steps.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::UInt(b)).collect()),
            ),
            (
                "violation",
                match &self.violation {
                    Some(v) => Json::obj([
                        ("kind", v.kind.to_json()),
                        (
                            "crashed",
                            Json::Arr(v.crashed.iter().map(|&c| Json::Bool(c)).collect()),
                        ),
                        ("witness", v.report.to_json()),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Judge one run. `None` means the run passes; otherwise the
/// highest-priority violation, in a deterministic order (panics, then
/// step bounds by process id, then incompleteness by process id, then
/// the semantic check). `bounds: None` judges panics and the semantic
/// check alone — a tail-only sample, whose survivors may overrun any
/// bound and need not finish. Shared with the
/// [sampler](mod@super::sample), which applies the same verdicts to
/// randomly drawn schedules.
pub(crate) fn judge<T, R>(
    bounds: Option<&[u64]>,
    out: &SimOutcome<T, R>,
    check: &mut dyn FnMut(&SimOutcome<T, R>) -> bool,
) -> Option<ViolationKind> {
    for (proc, message) in out.panics.iter().enumerate() {
        if let Some(message) = message {
            return Some(ViolationKind::Panic {
                proc,
                message: message.clone(),
            });
        }
    }
    if let Some(bounds) = bounds {
        for proc in 0..out.crashed.len() {
            if out.crashed[proc] {
                continue;
            }
            let steps = out.counts[proc].total();
            let bound = bounds.get(proc).copied().unwrap_or(u64::MAX);
            if steps > bound {
                return Some(ViolationKind::StepBound { proc, steps, bound });
            }
        }
        for proc in 0..out.crashed.len() {
            if !out.crashed[proc] && out.results[proc].is_none() {
                return Some(ViolationKind::Unfinished { proc });
            }
        }
    }
    if !check(out) {
        return Some(ViolationKind::HistoryRejected);
    }
    None
}

/// Deterministically re-execute a witness: a halting replay of its
/// schedule under its crash plan.
fn replay_witness<T, R, FMake>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    schedule: &[ProcId],
    crashes: &[(ProcId, u64)],
    factory: &mut FMake,
) -> SimOutcome<T, R>
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
{
    let strat = FaultPlan::from(crashes.to_vec()).over(Replay::halting(schedule.to_vec()));
    run_sim(pool, cfg, strat, factory(), false).0
}

/// Turn a violating witness into a classified, minimized one: re-execute
/// it to pin its violation kind, minimize under a predicate that
/// preserves that kind (an unpinned shrink would drift to the easiest
/// failure mode — e.g. every halting replay of an *empty* schedule
/// leaves survivors unfinished), re-execute the result and classify it.
/// Returns that last execution too. Shared with the
/// [sampler](mod@super::sample).
pub(crate) fn minimize_witness<T, R, FMake, Check>(
    cfg: &SimConfig<T>,
    bounds: Option<&[u64]>,
    schedule: &[ProcId],
    crashes: &[(ProcId, u64)],
    factory: &mut FMake,
    check: &mut Check,
) -> (CertViolation, SimOutcome<T, R>)
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Check: FnMut(&SimOutcome<T, R>) -> bool,
{
    let (outcome, report) = std::thread::scope(|scope| {
        let mut pool = ProcPool::new(scope);
        let first = replay_witness(&mut pool, cfg, schedule, crashes, factory);
        let kind0 = judge(bounds, &first, check).expect("the witness must still violate on replay");
        let pin = std::mem::discriminant(&kind0);
        let report = shrink_on(
            &mut pool,
            cfg,
            SHRINK_MAX_ATTEMPTS,
            schedule,
            crashes,
            factory,
            |o| judge(bounds, o, check).is_some_and(|k| std::mem::discriminant(&k) == pin),
        );
        let outcome = replay_witness(&mut pool, cfg, &report.schedule, &report.crashes, factory);
        (outcome, report)
    });
    let kind = judge(bounds, &outcome, check).expect("the shrunk witness must still violate");
    let violation = CertViolation {
        kind,
        crashed: outcome.crashed.clone(),
        report,
    };
    (violation, outcome)
}

/// The `visit` callback of a certifying exploration: record each
/// survivor's step count in `worst`, then [`judge`] the run.
fn judging<'a, T, R>(
    ccfg: &'a CertifyConfig,
    worst: &'a [AtomicU64],
    mut check: impl FnMut(&SimOutcome<T, R>) -> bool + 'a,
) -> impl FnMut(&SimOutcome<T, R>) -> bool + 'a {
    move |out| {
        for (p, c) in out.counts.iter().enumerate() {
            if !out.crashed[p] {
                worst[p].fetch_max(c.total(), Ordering::Relaxed);
            }
        }
        judge(Some(&ccfg.bounds), out, &mut check).is_none()
    }
}

/// Turn exploration results into a certificate. On a violation the
/// canonical witness is minimized and classified
/// ([`minimize_witness`], driven by the pair of callbacks `shrinker`
/// hands over); the certificate then depends only on that witness, never
/// on how many runs the finding engine happened to execute first — which
/// is what makes sequential and parallel certification bit-identical.
fn build_certificate<T, R, FMake, Check>(
    cfg: &SimConfig<T>,
    ccfg: &CertifyConfig,
    stats: ExploreStats,
    worst: &[AtomicU64],
    shrinker: impl FnOnce() -> (FMake, Check),
) -> Certificate
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Check: FnMut(&SimOutcome<T, R>) -> bool,
{
    let Some(w) = stats.witness else {
        return Certificate {
            runs: stats.runs,
            exhausted: stats.exhausted,
            crash_branches: stats.crash_branches,
            worst_steps: worst.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
            bounds: ccfg.bounds.clone(),
            violation: None,
        };
    };
    let (mut factory, mut check) = shrinker();
    let (violation, outcome) = minimize_witness(
        cfg,
        Some(&ccfg.bounds),
        &w.schedule,
        &w.crashes,
        &mut factory,
        &mut check,
    );
    let worst = outcome
        .counts
        .iter()
        .enumerate()
        .map(|(p, c)| if outcome.crashed[p] { 0 } else { c.total() })
        .collect();
    Certificate {
        runs: 1,
        exhausted: false,
        crash_branches: violation.report.crashes.len() as u64,
        worst_steps: worst,
        bounds: ccfg.bounds.clone(),
        violation: Some(violation),
    }
}

impl<T: Clone + Send> SimBuilder<T> {
    /// Certify wait-freedom of this configuration sequentially; see the
    /// [module docs](self). The builder's strategy and crash plan are
    /// *not* used: certification owns the schedule and crash pattern.
    ///
    /// `check` is the semantic acceptance predicate evaluated on every
    /// run (after the structural judges); return `false` to reject, e.g.
    /// when the run's crash-truncated history fails linearizability.
    pub fn certify<R, FMake, Check>(
        &self,
        ccfg: &CertifyConfig,
        mut factory: FMake,
        mut check: Check,
    ) -> Certificate
    where
        R: Send,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
        Check: FnMut(&SimOutcome<T, R>) -> bool,
    {
        // The certifier minimizes its witness itself, under a predicate
        // that pins the violation kind: the engine does not shrink.
        let ecfg = ExploreConfig {
            shrink: false,
            ..ccfg.explore.clone()
        };
        let worst: Vec<AtomicU64> = (0..ccfg.bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let visit = judging(ccfg, &worst, &mut check);
        let stats = self.explore(&ecfg, &mut factory, visit);
        build_certificate(&self.cfg, ccfg, stats, &worst, || {
            (&mut factory, &mut check)
        })
    }

    /// Certify the configuration across `threads` workers (0 = all
    /// available parallelism).
    ///
    /// `make_worker` follows the
    /// [`explore_parallel`](Self::explore_parallel) contract: it is
    /// called once per worker — plus once more (index `threads`) to drive
    /// witness shrinking and classification when a violation is found —
    /// and returns that worker's private `(factory, check)` pair.
    ///
    /// The certificate is bit-identical to [`certify`](Self::certify)'s
    /// on the same configuration: exploration counters agree on
    /// exhaustion, and a violation is normalized to the canonical
    /// minimized witness.
    pub fn certify_parallel<R, FMake, Check>(
        &self,
        ccfg: &CertifyConfig,
        threads: usize,
        mut make_worker: impl FnMut(usize) -> (FMake, Check),
    ) -> Certificate
    where
        T: Sync + 'static,
        R: Send + 'static,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
        Check: FnMut(&SimOutcome<T, R>) -> bool + Send,
    {
        let ecfg = ExploreConfig {
            shrink: false,
            ..ccfg.explore.clone()
        };
        let worst: Vec<AtomicU64> = (0..ccfg.bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let stats = self.explore_parallel(&ecfg, threads, |i| {
            let (factory, check) = make_worker(i);
            (factory, judging(ccfg, &worst, check))
        });
        build_certificate(&self.cfg, ccfg, stats, &worst, || make_worker(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::MemCtx;
    use crate::sim::SimCtx;

    fn two_proc_factory() -> Vec<ProcBody<'static, u64, u64>> {
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
    fn certifies_two_step_bodies_under_crashes() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let ccfg = CertifyConfig::new([2, 2]).explore(ExploreConfig::new().max_crashes(1));
        let cert = sim.certify(&ccfg, two_proc_factory, |_| true);
        assert!(cert.passed());
        assert!(cert.exhausted);
        assert!(cert.crash_branches > 0);
        assert_eq!(cert.worst_steps, vec![2, 2]);
        assert_eq!(cert.bounds, vec![2, 2]);
    }

    #[test]
    fn step_bound_violation_carries_a_minimal_witness() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        // Bound 1 is violated by every complete run (each body takes 2
        // steps); the minimal witness is the 2-step completion of one
        // process.
        let ccfg = CertifyConfig::new([1, 1]);
        let cert = sim.certify(&ccfg, two_proc_factory, |_| true);
        assert!(!cert.passed());
        assert_eq!(cert.runs, 1, "violation certificates are normalized");
        let v = cert.violation.expect("violation");
        match v.kind {
            ViolationKind::StepBound { steps, bound, .. } => {
                assert_eq!(bound, 1);
                assert!(steps > bound);
            }
            ref k => panic!("expected StepBound, got {k:?}"),
        }
        assert!(!v.report.schedule.is_empty());
    }

    #[test]
    fn history_rejection_is_classified() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let ccfg = CertifyConfig::new([2, 2]);
        let cert = sim.certify(&ccfg, two_proc_factory, |_| false);
        let v = cert.violation.expect("violation");
        assert_eq!(v.kind, ViolationKind::HistoryRejected);
    }

    #[test]
    fn unfinished_survivor_is_classified() {
        // A 1-step budget halts every run with both processes pending.
        let sim = SimBuilder::new(vec![0u64; 2]).max_steps(1);
        let ccfg = CertifyConfig::new([2, 2]);
        let cert = sim.certify(&ccfg, two_proc_factory, |_| true);
        let v = cert.violation.expect("violation");
        assert!(matches!(v.kind, ViolationKind::Unfinished { .. }), "{v:?}");
    }

    #[test]
    fn parallel_certificate_is_bit_identical() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        for ccfg in [
            CertifyConfig::new([2, 2]).explore(ExploreConfig::new().max_crashes(1)),
            CertifyConfig::new([1, 1]).explore(ExploreConfig::new().max_crashes(1)),
        ] {
            let seq = sim.certify(&ccfg, two_proc_factory, |_| true);
            for threads in [1, 2, 4] {
                let par = sim.certify_parallel(&ccfg, threads, |_| {
                    (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                        true
                    })
                });
                assert_eq!(par, seq, "threads={threads}");
            }
        }
    }

    #[test]
    fn certificate_json_has_the_verdict() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let ccfg = CertifyConfig::new([2, 2]);
        let json = sim.certify(&ccfg, two_proc_factory, |_| true).to_json();
        assert_eq!(json.get("passed"), Some(&Json::Bool(true)));
        assert_eq!(json.get("violation"), Some(&Json::Null));
    }
}
