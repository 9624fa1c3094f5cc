//! Monte-Carlo schedule sampling: the "practically wait-free" explorer.
//!
//! Exhaustive exploration dies combinatorially past small `(n, f)`.
//! This module trades certainty for scale: it draws
//! [`Budget::max_runs`] schedules at random — uniform
//! ([`Sampler::Random`]) or PCT priority-based ([`Sampler::Pct`], with
//! its probabilistic bug-depth guarantee) — runs each on the pooled
//! simulator threads of [`mod@super::parallel`], records every
//! surviving process's per-run step count into a
//! [`StepHistogram`], and reports the tail (p50/p99/p999/max) against
//! the analytic step bounds with a Wilson confidence interval on the
//! exceedance probability. A [`SampleReport`] is the stochastic
//! complement of the certifier's
//! [`Certificate`](super::certify::Certificate): where a certificate
//! proves a bound over *every* schedule in a bounded box, a sample
//! report estimates `P(steps > bound)` over millions of schedules far
//! beyond the box the certifier can exhaust.
//!
//! Violations flow into the same pipeline as the certifier's: a judged
//! failure (panic / bound breach / unfinished survivor / rejected
//! history) is re-executed, pinned, minimized like
//! [`SimBuilder::shrink`] does, and classified into a [`CertViolation`]
//! — so a sampled counterexample is exactly as actionable (and as
//! replayable) as a certified one. A run is judged exactly as the
//! certifier judges it unless the config is
//! [`tail_only`](SampleConfig::tail_only), the one judging switch: a
//! tail-only sample judges panics and the semantic check alone.
//!
//! The samplers are [`SimBuilder::sample`] and
//! [`SimBuilder::sample_parallel`]. A sampled schedule's length is
//! bounded by [`SimBuilder::max_steps`], never by
//! [`Budget::max_depth`]: the sampler refuses a config that sets it.
//!
//! # Determinism
//!
//! Run `i` is a pure function of `(root seed, i)` via the documented
//! [seed-split scheme](crate::seed): the schedule stream is
//! `split(seed, i)` and the crash plan (when
//! [`Budget::max_crashes`] `> 0`) derives from
//! `split(split(seed, i), STREAM_CRASHES)`. All budgeted runs are
//! always executed — there is no early stop — and the canonical
//! violation is the one with the **lowest run index**, so
//! `sample` and `sample_parallel` produce identical reports for
//! any thread count ([`SampleReport::to_json`] is byte-identical;
//! wall-clock time lives outside the serialized report).
//!
//! ```
//! use apram_model::sim::{Budgeted, SampleConfig, SimBuilder};
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
//! let scfg = SampleConfig::new([2, 2]).seed(42).max_runs(200);
//! let report = sim.sample(&scfg, factory, |_| true);
//! assert!(report.passed());
//! assert_eq!(report.hist.max, 2);
//! ```

use super::budget::{Budget, Budgeted};
use super::certify::{judge, minimize_witness, CertViolation};
use super::fault::FaultPlan;
use super::parallel::{resolve_threads, run_workers, ProcPool};
use super::strategy::{Decision, Pct, SchedView, SeededRandom, Strategy};
use super::{run_sim, ProcBody, SimBuilder, SimConfig, SimOutcome};
use crate::ctx::ProcId;
use crate::json::Json;
use crate::seed::{split, STREAM_CRASHES};
use crate::telemetry::{HistogramSnapshot, ProgressBeat, StepHistogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which schedule distribution to draw each run from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampler {
    /// Uniform random choice among runnable processes at every decision
    /// point ([`SeededRandom`]): the "stochastic scheduler" regime in
    /// which lock-free algorithms behave practically wait-free.
    Random,
    /// PCT ([`Pct`]): random distinct priorities with `depth − 1`
    /// random change points, giving a `≥ 1/(n·kᵈ⁻¹)` per-run detection
    /// guarantee for ordering bugs of depth `d`.
    Pct {
        /// The targeted bug depth (number of priority change points
        /// plus one). Depth 3 is the PCT literature's sweet spot.
        depth: u32,
    },
}

impl Sampler {
    /// Stable label used in reports and sweep plans
    /// (`"random"` / `"pct(d)"`).
    pub fn label(&self) -> String {
        match self {
            Sampler::Random => "random".into(),
            Sampler::Pct { depth } => format!("pct({depth})"),
        }
    }
}

/// What to sample: per-process step bounds, the schedule distribution,
/// the root seed, and the shared [`Budget`] vocabulary
/// ([`max_runs`](Budgeted::max_runs) = schedules drawn,
/// [`max_crashes`](Budgeted::max_crashes) = random crash victims per
/// run, [`heartbeat`](Budgeted::heartbeat) = live progress).
#[derive(Clone, Debug)]
pub struct SampleConfig {
    /// Shared limits. `max_runs` is the number of schedules sampled
    /// (every one is executed; there is no early stop, so tail
    /// statistics cover the full budget). `max_crashes` is the number
    /// of random crash victims injected per run. `max_depth` must stay
    /// unbounded: the sampler refuses it (schedule length is bounded by
    /// [`SimBuilder::max_steps`]).
    pub budget: Budget,
    /// Analytic step bound per process: survivor samples above their
    /// process's bound count as *exceedances* (and, unless
    /// [`tail_only`](Self::tail_only) is set, fail the run as a
    /// [`StepBound`](super::ViolationKind::StepBound) violation).
    pub bounds: Vec<u64>,
    /// The schedule distribution (default [`Sampler::Random`]).
    pub sampler: Sampler,
    /// Root seed; run `i` derives its schedule and crash plan from
    /// `split(seed, i)` per the [seed-split scheme](crate::seed).
    pub seed: u64,
    /// Record tail statistics only: bound breaches still count as
    /// exceedances, but neither they nor a survivor that does not
    /// finish is judged a violation; only panics and the semantic
    /// check are (used for negative controls whose tail is expected to
    /// blow past the reference bound). Defaults to `false`: every
    /// survivor must finish within its bound.
    pub tail_only: bool,
}

impl SampleConfig {
    /// Sample against the given per-process step bounds with default
    /// limits (1M schedules, crash-free, uniform random scheduler,
    /// seed 0).
    pub fn new(bounds: impl Into<Vec<u64>>) -> Self {
        SampleConfig {
            budget: Budget::default(),
            bounds: bounds.into(),
            sampler: Sampler::Random,
            seed: 0,
            tail_only: false,
        }
    }

    /// Replace the schedule distribution.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record tails only; judge neither bound breaches nor unfinished
    /// survivors as violations.
    pub fn tail_only(mut self, on: bool) -> Self {
        self.tail_only = on;
        self
    }

    /// The schedule-length hint (in global steps) for PCT change points
    /// and random crash steps: the sum of the bounds, at least 16.
    fn hint(&self) -> u64 {
        self.bounds.iter().sum::<u64>().max(16)
    }

    /// Refuse a depth bound: nothing in a sampled run reads it, so a
    /// caller relying on it would get unbounded schedules.
    fn refuse_depth(&self) {
        assert!(
            self.budget.max_depth == usize::MAX,
            "SampleConfig::max_depth does not bound a sampled schedule; \
             bound its length with SimBuilder::max_steps"
        );
    }

    /// The bounds [`judge`] holds survivors to: none when `tail_only`
    /// is set.
    fn judged_bounds(&self) -> Option<&[u64]> {
        (!self.tail_only).then_some(self.bounds.as_slice())
    }
}

impl Budgeted for SampleConfig {
    fn budget_mut(&mut self) -> &mut Budget {
        &mut self.budget
    }
}

/// The Wilson score interval for a binomial proportion: a `[lo, hi]`
/// estimate of the underlying probability after observing `successes`
/// out of `trials`, at critical value `z` (1.96 ≈ 95% confidence).
///
/// `(p̂ + z²/2n ± z·√(p̂(1−p̂)/n + z²/4n²)) / (1 + z²/n)` — unlike the
/// normal approximation it stays inside `[0, 1]` and behaves at p̂ = 0,
/// which is exactly the regime a passing tail report lives in.
/// `(0.0, 1.0)` when `trials` is 0.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At the boundaries the interval endpoint is exactly the observed
    // proportion; don't let float rounding report 1e-17 instead of 0.
    let lo = if successes == 0 {
        0.0
    } else {
        ((center - margin) / denom).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        ((center + margin) / denom).min(1.0)
    };
    (lo, hi)
}

/// A sampled violation: the certifier's classified minimized witness
/// ([`CertViolation`]) plus the run index that drew it — enough to
/// regenerate the whole failing run from the root seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleViolation {
    /// The run index whose schedule produced the violation (the lowest
    /// violating index — canonical across thread counts).
    pub run: u64,
    /// The classified, minimized counterexample.
    pub cert: CertViolation,
}

/// The result of a sampling exploration: tail statistics with a
/// confidence interval, plus (at most) one canonical minimized
/// violation. Serialize with [`to_json`](Self::to_json); the JSON is
/// byte-identical for a given `(config, seed)` regardless of thread
/// count or timing ([`elapsed`](Self::elapsed) is deliberately *not*
/// serialized).
#[derive(Clone, Debug)]
pub struct SampleReport {
    /// Schedules sampled (always the full configured budget).
    pub runs: u64,
    /// The sampler label ([`Sampler::label`]).
    pub scheduler: String,
    /// The root seed the sample derived from.
    pub seed: u64,
    /// The bounds sampled against (copied from [`SampleConfig`]).
    pub bounds: Vec<u64>,
    /// Histogram of per-run step counts of every surviving process
    /// (one sample per survivor per run).
    pub hist: HistogramSnapshot,
    /// Worst observed survivor step count per process.
    pub worst_steps: Vec<u64>,
    /// Survivor samples measured (`Σ runs · survivors-per-run`).
    pub samples: u64,
    /// Survivor samples that exceeded their process's bound.
    pub exceedances: u64,
    /// Runs judged as violations (0 when `tail_only` tails past the
    /// bound without failing).
    pub violations: u64,
    /// The canonical (lowest-run-index) violation, minimized through
    /// the certifier's shrink pipeline.
    pub violation: Option<SampleViolation>,
    /// Wall-clock time of the sampling (not serialized; excluded from
    /// determinism comparisons).
    pub elapsed: Duration,
}

impl SampleReport {
    /// `true` when no sampled run was judged a violation.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }

    /// Observed exceedance proportion `exceedances / samples` (0.0 when
    /// nothing was measured).
    pub fn exceed_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.exceedances as f64 / self.samples as f64
        }
    }

    /// 95% Wilson confidence interval on `P(steps > bound)` for a
    /// survivor sample; see [`wilson_interval`].
    pub fn exceed_ci(&self) -> (f64, f64) {
        wilson_interval(self.exceedances, self.samples, 1.96)
    }

    /// JSON summary — the sampling side of BENCH reports and sweep cell
    /// files. Deterministic: no timing fields, so two runs with the
    /// same config serialize to identical bytes.
    pub fn to_json(&self) -> Json {
        let (ci_lo, ci_hi) = self.exceed_ci();
        Json::obj([
            ("passed", Json::Bool(self.passed())),
            ("runs", Json::UInt(self.runs)),
            ("scheduler", Json::Str(self.scheduler.clone())),
            ("seed", Json::UInt(self.seed)),
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::UInt(b)).collect()),
            ),
            ("hist", self.hist.to_json()),
            (
                "worst_steps",
                Json::Arr(self.worst_steps.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            ("samples", Json::UInt(self.samples)),
            ("exceedances", Json::UInt(self.exceedances)),
            ("exceed_rate", Json::Float(self.exceed_rate())),
            ("exceed_ci95_lo", Json::Float(ci_lo)),
            ("exceed_ci95_hi", Json::Float(ci_hi)),
            ("violations", Json::UInt(self.violations)),
            (
                "violation",
                match &self.violation {
                    Some(v) => Json::obj([
                        ("run", Json::UInt(v.run)),
                        ("kind", v.cert.kind.to_json()),
                        (
                            "crashed",
                            Json::Arr(v.cert.crashed.iter().map(|&c| Json::Bool(c)).collect()),
                        ),
                        ("witness", v.cert.report.to_json()),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// One run's schedule stream, drawn per [`Sampler`].
enum Drawn {
    Random(SeededRandom),
    Pct(Pct),
}

impl Strategy for Drawn {
    fn decide(&mut self, view: &SchedView) -> Decision {
        match self {
            Drawn::Random(s) => s.decide(view),
            Drawn::Pct(s) => s.decide(view),
        }
    }
}

/// Build run `i`'s strategy: the sampler's schedule stream under the
/// run's crash plan, all derived from `split(root_seed, i)`.
fn run_strategy(
    scfg: &SampleConfig,
    n_procs: usize,
    run_index: u64,
) -> super::fault::Faulty<Drawn> {
    let run_seed = split(scfg.seed, run_index);
    let hint = scfg.hint();
    let inner = match scfg.sampler {
        Sampler::Random => Drawn::Random(SeededRandom::new(run_seed)),
        Sampler::Pct { depth } => Drawn::Pct(Pct::new(run_seed, n_procs, depth, hint)),
    };
    let mut plan = FaultPlan::new();
    let f = scfg.budget.max_crashes.min(n_procs);
    if f > 0 {
        let mut rng = StdRng::seed_from_u64(split(run_seed, STREAM_CRASHES));
        // f distinct victims (partial Fisher-Yates over the proc ids),
        // each at a uniformly random step below the length hint.
        let mut procs: Vec<ProcId> = (0..n_procs).collect();
        for k in 0..f {
            let j = rng.gen_range(k..n_procs);
            procs.swap(k, j);
            let step = rng.gen_range(0..hint);
            plan = plan.crash(procs[k], step);
        }
    }
    plan.over(inner)
}

/// Per-run bookkeeping shared between the sequential and parallel
/// engines: record survivor step counts, tally exceedances, and judge.
/// Returns the violation verdict (`Some` when the run failed).
fn observe_run<T, R>(
    scfg: &SampleConfig,
    out: &SimOutcome<T, R>,
    hist: &StepHistogram,
    worst: &[AtomicU64],
    samples: &AtomicU64,
    exceedances: &AtomicU64,
    check: &mut dyn FnMut(&SimOutcome<T, R>) -> bool,
) -> bool {
    let mut measured = 0u64;
    let mut exceeded = 0u64;
    for (p, c) in out.counts.iter().enumerate() {
        if out.crashed[p] {
            continue;
        }
        let steps = c.total();
        hist.record(steps);
        measured += 1;
        if steps > scfg.bounds.get(p).copied().unwrap_or(u64::MAX) {
            exceeded += 1;
        }
        if let Some(w) = worst.get(p) {
            w.fetch_max(steps, Ordering::Relaxed);
        }
    }
    samples.fetch_add(measured, Ordering::Relaxed);
    exceedances.fetch_add(exceeded, Ordering::Relaxed);
    judge(scfg.judged_bounds(), out, check).is_some()
}

/// The canonical violating run found so far: lowest run index wins.
struct FirstViolation {
    run: u64,
    schedule: Vec<ProcId>,
    crashes: Vec<(ProcId, u64)>,
}

/// Record `cand` unless an earlier-indexed violation is already held.
fn keep_first(slot: &Mutex<Option<FirstViolation>>, cand: FirstViolation) {
    let mut held = slot.lock().unwrap();
    match held.as_ref() {
        Some(existing) if existing.run <= cand.run => {}
        _ => *held = Some(cand),
    }
}

/// Shared aggregation state for both engines.
struct SampleState {
    hist: StepHistogram,
    worst: Vec<AtomicU64>,
    samples: AtomicU64,
    exceedances: AtomicU64,
    violations: AtomicU64,
    first: Mutex<Option<FirstViolation>>,
    next_run: AtomicU64,
}

impl SampleState {
    fn new(n_procs: usize) -> Self {
        SampleState {
            hist: StepHistogram::new(),
            worst: (0..n_procs).map(|_| AtomicU64::new(0)).collect(),
            samples: AtomicU64::new(0),
            exceedances: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            first: Mutex::new(None),
            next_run: AtomicU64::new(0),
        }
    }

    /// The sampling's progress right now, in the explorer's schema (the
    /// sampler has no sleep sets and no work queue: explicit zeros).
    fn beat(&self, scfg: &SampleConfig, start: Instant) -> ProgressBeat {
        ProgressBeat {
            elapsed: start.elapsed(),
            runs: self
                .next_run
                .load(Ordering::Relaxed)
                .min(scfg.budget.max_runs),
            sleep_skips: 0,
            queue_depth: 0,
            violation_found: self.violations.load(Ordering::Relaxed) > 0,
        }
    }
}

/// One worker — the only one, for `sample`: claim run indices from
/// the shared counter until the budget is drained, executing each on
/// `pool`; `after_run` is called after each.
#[allow(clippy::too_many_arguments)]
fn sample_worker<T, R, FMake, Check>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    scfg: &SampleConfig,
    state: &SampleState,
    n_procs: usize,
    factory: &mut FMake,
    check: &mut Check,
    mut after_run: impl FnMut(),
) where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Check: FnMut(&SimOutcome<T, R>) -> bool,
{
    loop {
        let run = state.next_run.fetch_add(1, Ordering::Relaxed);
        if run >= scfg.budget.max_runs {
            break;
        }
        let strat = run_strategy(scfg, n_procs, run);
        let (out, _) = run_sim(pool, cfg, strat, factory(), false);
        let violated = observe_run(
            scfg,
            &out,
            &state.hist,
            &state.worst,
            &state.samples,
            &state.exceedances,
            check,
        );
        if violated {
            state.violations.fetch_add(1, Ordering::Relaxed);
            keep_first(
                &state.first,
                FirstViolation {
                    run,
                    schedule: out.trace.schedule(),
                    crashes: out.executed_crashes(),
                },
            );
        }
        after_run();
    }
}

/// Assemble the final report (shared tail of both engines), minimizing
/// the canonical violation if one was found.
fn finish_report<T, R, FMake, Check>(
    cfg: &SimConfig<T>,
    scfg: &SampleConfig,
    state: SampleState,
    start: Instant,
    factory: &mut FMake,
    check: &mut Check,
) -> SampleReport
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Check: FnMut(&SimOutcome<T, R>) -> bool,
{
    // The canonical violating run goes through the certifier's pipeline
    // (pin the verdict kind, shrink schedule and crash pattern,
    // re-classify).
    let first = state.first.lock().unwrap().take();
    let violation = first.map(|fv| {
        let (cert, _) = minimize_witness(
            cfg,
            scfg.judged_bounds(),
            &fv.schedule,
            &fv.crashes,
            factory,
            check,
        );
        SampleViolation { run: fv.run, cert }
    });
    let beat = state.beat(scfg, start);
    let report = SampleReport {
        runs: scfg.budget.max_runs,
        scheduler: scfg.sampler.label(),
        seed: scfg.seed,
        bounds: scfg.bounds.clone(),
        hist: state.hist.snapshot(),
        worst_steps: state
            .worst
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect(),
        samples: state.samples.load(Ordering::Relaxed),
        exceedances: state.exceedances.load(Ordering::Relaxed),
        violations: state.violations.load(Ordering::Relaxed),
        violation,
        elapsed: beat.elapsed,
    };
    if let Some(hb) = &scfg.budget.heartbeat {
        hb.emit(&beat);
    }
    report
}

impl<T: Clone + Send> SimBuilder<T> {
    /// Monte-Carlo sample schedules of this configuration, sequentially:
    /// randomized / PCT scheduling with tail-percentile reporting against
    /// the step bounds; see the [module docs](self). The builder's
    /// strategy and crash plan are *not* used: sampling derives both
    /// from the sample seed.
    ///
    /// `check` is the semantic acceptance predicate evaluated on every
    /// run (after the structural judges); return `false` to reject, e.g.
    /// when the run's crash-truncated history fails linearizability.
    pub fn sample<R, FMake, Check>(
        &self,
        scfg: &SampleConfig,
        mut factory: FMake,
        mut check: Check,
    ) -> SampleReport
    where
        T: 'static,
        R: Send + 'static,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
        Check: FnMut(&SimOutcome<T, R>) -> bool,
    {
        scfg.refuse_depth();
        let start = Instant::now();
        let n_procs = factory().len();
        let state = SampleState::new(n_procs);
        // The first beat is due one interval in.
        let mut heartbeat = scfg
            .budget
            .heartbeat
            .as_ref()
            .map(|hb| (hb, Instant::now() + hb.every));
        let beat = || {
            if let Some((hb, due)) = &mut heartbeat {
                hb.emit_if_due(due, || state.beat(scfg, start));
            }
        };
        std::thread::scope(|scope| {
            sample_worker(
                &mut ProcPool::new(scope),
                &self.cfg,
                scfg,
                &state,
                n_procs,
                &mut factory,
                &mut check,
                beat,
            )
        });
        finish_report(&self.cfg, scfg, state, start, &mut factory, &mut check)
    }

    /// Sample across `threads` workers (0 = all available parallelism).
    ///
    /// `make_worker` returns a private `(factory, check)` pair per call,
    /// as in [`explore_parallel`](Self::explore_parallel). It is called
    /// first with index `threads`, to probe the process count; then once
    /// per worker (indices `0..threads`); then once more with index
    /// `threads + 1`, to build the report — shrinking and classifying the
    /// witness when a violation was found.
    ///
    /// The report is identical to [`sample`](Self::sample)'s on the same
    /// configuration for any thread count: every run index in the budget
    /// is executed exactly once, histogram merging commutes, and the
    /// canonical violation is the lowest violating run index.
    pub fn sample_parallel<R, FMake, Check>(
        &self,
        scfg: &SampleConfig,
        threads: usize,
        mut make_worker: impl FnMut(usize) -> (FMake, Check),
    ) -> SampleReport
    where
        T: Sync + 'static,
        R: Send + 'static,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>> + Send,
        Check: FnMut(&SimOutcome<T, R>) -> bool + Send,
    {
        scfg.refuse_depth();
        let start = Instant::now();
        let threads = resolve_threads(threads);
        let (mut probe_factory, _probe_check) = make_worker(threads);
        let n_procs = probe_factory().len();
        let state = SampleState::new(n_procs);
        let pairs: Vec<(FMake, Check)> = (0..threads).map(&mut make_worker).collect();
        let cfg = &self.cfg;
        std::thread::scope(|scope| {
            let state = &state;
            let workers = pairs.into_iter().map(|(mut factory, mut check)| {
                move || {
                    sample_worker(
                        &mut ProcPool::new(scope),
                        cfg,
                        scfg,
                        state,
                        n_procs,
                        &mut factory,
                        &mut check,
                        || {},
                    )
                }
            });
            let heartbeat = scfg.budget.heartbeat.as_ref();
            run_workers(scope, workers, heartbeat, move || state.beat(scfg, start));
        });
        let (mut factory, mut check) = make_worker(threads + 1);
        finish_report(cfg, scfg, state, start, &mut factory, &mut check)
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
    fn within_bounds_sampling_passes() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([2, 2]).seed(7).max_runs(100);
        let report = sim.sample(&scfg, two_proc_factory, |_| true);
        assert!(report.passed());
        assert_eq!(report.runs, 100);
        assert_eq!(report.samples, 200);
        assert_eq!(report.exceedances, 0);
        assert_eq!(report.worst_steps, vec![2, 2]);
        assert_eq!(report.hist.max, 2);
        let (lo, hi) = report.exceed_ci();
        assert_eq!(lo, 0.0);
        assert!(hi < 0.05, "0/200 exceedances should bound p below 5%");
    }

    #[test]
    fn bound_breach_is_shrunk_and_classified() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([1, 1]).seed(3).max_runs(50);
        let report = sim.sample(&scfg, two_proc_factory, |_| true);
        assert!(!report.passed());
        assert_eq!(report.violations, 50, "every run breaches bound 1");
        let v = report.violation.expect("violation");
        assert_eq!(v.run, 0, "canonical violation is the lowest run index");
        assert!(matches!(
            v.cert.kind,
            super::super::ViolationKind::StepBound { bound: 1, .. }
        ));
    }

    #[test]
    fn tail_only_records_exceedances_without_violations() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([1, 1])
            .seed(3)
            .max_runs(20)
            .tail_only(true);
        let report = sim.sample(&scfg, two_proc_factory, |_| true);
        assert!(report.passed());
        assert_eq!(report.exceedances, report.samples);
        assert!(report.violation.is_none());

        // P1 spins on a register nobody writes, so under a step cap
        // every run halts with P1 unfinished and over its bound.
        fn spinner() -> Vec<ProcBody<'static, u64, u64>> {
            vec![
                Box::new(|ctx: &mut SimCtx<u64>| {
                    ctx.write(0, 1);
                    0
                }),
                Box::new(|ctx: &mut SimCtx<u64>| {
                    while ctx.read(1) == 0 {}
                    0
                }),
            ]
        }
        let capped = SimBuilder::new(vec![0u64; 2]).max_steps(32);
        let tail = SampleConfig::new([4, 4])
            .seed(3)
            .max_runs(20)
            .tail_only(true);
        let report = capped.sample(&tail, spinner, |_| true);
        assert!(report.passed());
        assert_eq!(report.violations, 0);
        assert!(report.exceedances > 0);
        assert!(report.violation.is_none());
        // The same cell judged: every run is a violation.
        let report = capped.sample(&tail.tail_only(false), spinner, |_| true);
        assert_eq!(report.violations, 20);
        let v = report.violation.expect("violation");
        assert!(
            matches!(
                v.cert.kind,
                super::super::ViolationKind::Unfinished { proc: 1 }
                    | super::super::ViolationKind::StepBound { proc: 1, .. }
            ),
            "{:?}",
            v.cert.kind
        );
    }

    #[test]
    fn crash_budget_injects_random_crashes() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([2, 2])
            .seed(11)
            .max_runs(50)
            .max_crashes(1);
        let report = sim.sample(&scfg, two_proc_factory, |_| true);
        assert!(report.passed());
        // With one victim per run, exactly one survivor is measured per
        // run whenever the crash fires before completion.
        assert!(report.samples < 100, "crashes must remove samples");
        assert!(report.samples >= 50);
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        for sampler in [Sampler::Random, Sampler::Pct { depth: 3 }] {
            let scfg = SampleConfig::new([2, 2])
                .sampler(sampler)
                .seed(42)
                .max_runs(200)
                .max_crashes(1);
            let seq = sim
                .sample(&scfg, two_proc_factory, |_| true)
                .to_json()
                .to_compact();
            for threads in [1, 2, 4] {
                let par = sim
                    .sample_parallel(&scfg, threads, |_| {
                        (two_proc_factory as fn() -> _, |_: &SimOutcome<u64, u64>| {
                            true
                        })
                    })
                    .to_json()
                    .to_compact();
                assert_eq!(par, seq, "sampler={sampler:?} threads={threads}");
            }
        }
    }

    #[test]
    fn pct_differs_from_random_but_both_are_seed_stable() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let base = SampleConfig::new([2, 2]).seed(5).max_runs(64);
        let random = sim.sample(&base, two_proc_factory, |_| true);
        let random2 = sim.sample(&base, two_proc_factory, |_| true);
        assert_eq!(
            random.to_json().to_compact(),
            random2.to_json().to_compact()
        );
        let pcfg = base.clone().sampler(Sampler::Pct { depth: 2 });
        let pct = sim.sample(&pcfg, two_proc_factory, |_| true);
        assert_eq!(pct.scheduler, "pct(2)");
        assert_eq!(pct.runs, random.runs);
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        for (s, n) in [(0u64, 100u64), (1, 100), (50, 100), (100, 100), (3, 7)] {
            let (lo, hi) = wilson_interval(s, n, 1.96);
            let p = s as f64 / n as f64;
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
            assert!(
                lo <= p + 1e-12 && p <= hi + 1e-12,
                "({s},{n}): {lo} {p} {hi}"
            );
        }
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // More trials at the same rate tighten the interval.
        let (lo1, hi1) = wilson_interval(5, 50, 1.96);
        let (lo2, hi2) = wilson_interval(50, 500, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn sampling_heartbeat_schema_matches_explorer() {
        use crate::telemetry::{buffer_sink, Heartbeat};
        use std::time::Duration;
        let (sink, buf) = buffer_sink();
        let hb = Heartbeat::shared(Duration::from_millis(1), sink);
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([2, 2]).seed(7).max_runs(50).heartbeat(hb);
        let report = sim.sample(&scfg, two_proc_factory, |_| true);
        assert!(report.passed());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "sampling emits at least the final beat");
        // Every beat carries the full explorer schema: `sleep_skips`
        // and `queue_depth` are explicit zeros in sampling mode (the
        // sampler has no sleep sets and no work queue), never omitted,
        // so one JSONL parser serves explore/sample/sweep heartbeats.
        for line in lines {
            let beat = crate::json::parse(line).unwrap();
            for key in [
                "elapsed_secs",
                "elapsed_ms",
                "runs",
                "runs_per_sec",
                "sleep_skips",
                "queue_depth",
                "violation_found",
            ] {
                assert!(beat.get(key).is_some(), "missing {key} in {line}");
            }
            assert_eq!(beat.get("sleep_skips").and_then(Json::as_u64), Some(0));
            assert_eq!(beat.get("queue_depth").and_then(Json::as_u64), Some(0));
        }
    }

    #[test]
    #[should_panic(
        expected = "SampleConfig::max_depth does not bound a sampled schedule; \
                               bound its length with SimBuilder::max_steps"
    )]
    fn a_depth_bound_is_refused() {
        let scfg = SampleConfig::new([2, 2]).max_runs(10).max_depth(4);
        SimBuilder::new(vec![0u64; 2]).sample(&scfg, two_proc_factory, |_| true);
    }

    #[test]
    fn rejected_history_flows_into_the_witness_pipeline() {
        let sim = SimBuilder::new(vec![0u64; 2]);
        let scfg = SampleConfig::new([2, 2]).seed(1).max_runs(10);
        let report = sim.sample(&scfg, two_proc_factory, |_| false);
        let v = report.violation.expect("violation");
        assert_eq!(v.cert.kind, super::super::ViolationKind::HistoryRejected);
        assert_eq!(report.violations, 10);
    }
}
