//! Delta-debugging schedule minimization.
//!
//! A counterexample schedule found by exploration (or by a random
//! adversary) is usually much longer than it needs to be: most steps are
//! incidental, and the violation survives when they are removed. This
//! module shrinks a failing schedule to a *locally minimal* one — no
//! single step can be removed without losing the violation — in the
//! classic ddmin style (Zeller & Hildebrandt): remove chunks of
//! geometrically decreasing size, re-execute, keep any candidate that
//! still fails. A final *segment-merge* pass reduces context switches by
//! swapping adjacent steps of different processes, so the surviving
//! schedule reads as a few long per-process bursts — the shape the
//! paper's adversary arguments are written in.
//!
//! Candidates are re-executed with [`Replay::halting`]: entries naming a
//! non-runnable process are skipped and the run *halts* when the schedule
//! is exhausted, so a truncated candidate yields a genuine partial
//! execution rather than a round-robin tail. After every successful
//! candidate the *executed* schedule ([`crate::trace::Trace::schedule`])
//! is adopted, so every entry of the final schedule was actually
//! serviced — replaying it with [`Replay::strict`] (plus a step budget
//! equal to its length) reproduces the execution bit-identically.

use super::fault::FaultPlan;
use super::parallel::ProcPool;
use super::strategy::Replay;
use super::{run_sim, ProcBody, SimConfig, SimOutcome};
use crate::ctx::ProcId;
use crate::json::Json;

/// Shrinker tuning knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkConfig {
    /// Hard cap on candidate re-executions across both passes.
    pub max_attempts: u64,
    /// Run the context-switch-reducing segment-merge pass after step
    /// removal.
    pub merge_segments: bool,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            max_attempts: 4096,
            merge_segments: true,
        }
    }
}

/// What the shrinker did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate schedules re-executed.
    pub attempts: u64,
    /// Candidates that still reproduced the violation (and were adopted).
    pub useful: u64,
    /// Context switches eliminated by the segment-merge pass.
    pub merges: u64,
}

/// A minimized counterexample execution: schedule plus crash pattern.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShrinkReport {
    /// The schedule of the original failing run.
    pub original: Vec<ProcId>,
    /// The locally-minimal failing schedule. Every entry was serviced in
    /// the run that produced it, so [`Replay::strict`] with a step budget
    /// of `schedule.len`, combined with a [`FaultPlan`] carrying
    /// [`crashes`](Self::crashes), reproduces the violation exactly.
    pub schedule: Vec<ProcId>,
    /// The locally-minimal crash pattern: the `(proc, step)` crashes
    /// that actually fired in the run that produced `schedule`, with
    /// every removable crash removed. Empty for crash-free violations.
    pub crashes: Vec<(ProcId, u64)>,
    /// Work accounting.
    pub stats: ShrinkStats,
}

impl ShrinkReport {
    /// Steps removed relative to the original schedule.
    pub fn removed(&self) -> usize {
        self.original.len().saturating_sub(self.schedule.len())
    }

    /// Serialise to JSON (schedules inline as arrays of process ids).
    pub fn to_json(&self) -> Json {
        let sched = |s: &[ProcId]| Json::Arr(s.iter().map(|&p| Json::UInt(p as u64)).collect());
        Json::obj([
            ("original_len", Json::UInt(self.original.len() as u64)),
            ("shrunk_len", Json::UInt(self.schedule.len() as u64)),
            ("original", sched(&self.original)),
            ("schedule", sched(&self.schedule)),
            (
                "context_switches",
                Json::UInt(switches(&self.schedule) as u64),
            ),
            (
                "crashes",
                Json::Arr(
                    self.crashes
                        .iter()
                        .map(|&(p, s)| Json::Arr(vec![Json::UInt(p as u64), Json::UInt(s)]))
                        .collect(),
                ),
            ),
            ("attempts", Json::UInt(self.stats.attempts)),
            ("useful", Json::UInt(self.stats.useful)),
            ("merges", Json::UInt(self.stats.merges)),
        ])
    }
}

/// Number of adjacent same-process boundaries broken: `[0,0,1,0]` has 2.
fn switches(s: &[ProcId]) -> usize {
    s.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Re-execute `candidate` (schedule + crash plan) with a halting
/// replay; when `failing` still holds, return the *executed* schedule
/// (every entry serviced) and the *executed* crash pattern (every crash
/// actually fired, at its actual step).
#[allow(clippy::type_complexity)]
fn attempt<T, R, FMake, Fail>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    candidate: Vec<ProcId>,
    crashes: &[(ProcId, u64)],
    factory: &mut FMake,
    failing: &mut Fail,
) -> Option<(Vec<ProcId>, Vec<(ProcId, u64)>)>
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    let strat = FaultPlan::from(crashes.to_vec()).over(Replay::halting(candidate));
    let (outcome, _) = run_sim(pool, cfg, strat, factory(), &mut None);
    if failing(&outcome) {
        Some((outcome.trace.schedule(), outcome.executed_crashes()))
    } else {
        None
    }
}

/// One crash-removal sweep: try dropping each planned crash; a
/// candidate that still fails adopts the executed schedule and crash
/// pattern.
#[allow(clippy::too_many_arguments)]
fn drop_crashes<T, R, FMake, Fail>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    scfg: &ShrinkConfig,
    current: &mut Vec<ProcId>,
    crashes: &mut Vec<(ProcId, u64)>,
    stats: &mut ShrinkStats,
    factory: &mut FMake,
    failing: &mut Fail,
) where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    let mut i = 0;
    while i < crashes.len() {
        if stats.attempts >= scfg.max_attempts {
            break;
        }
        let mut cand = crashes.clone();
        cand.remove(i);
        stats.attempts += 1;
        match attempt(pool, cfg, current.clone(), &cand, factory, failing) {
            Some((sched, executed_crashes)) => {
                stats.useful += 1;
                *current = sched;
                *crashes = executed_crashes;
                // The crash now at `i` is new; retry in place.
            }
            None => i += 1,
        }
    }
}

/// One crash-advance sweep: try re-firing each crash at step 0 (the
/// earliest decision point its victim is alive). An earlier crash
/// shortens its victim's live window, which lets the ddmin pass remove
/// the victim's steps — without this, a witness can be forced to keep
/// steps whose only purpose is advancing the clock to the crash's
/// recorded firing step. A candidate that still fails adopts the
/// executed schedule and crash pattern (the crash's *actual* fired step
/// is what gets recorded).
#[allow(clippy::too_many_arguments)]
fn advance_crashes<T, R, FMake, Fail>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    scfg: &ShrinkConfig,
    current: &mut Vec<ProcId>,
    crashes: &mut Vec<(ProcId, u64)>,
    stats: &mut ShrinkStats,
    factory: &mut FMake,
    failing: &mut Fail,
) where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    let mut i = 0;
    while i < crashes.len() {
        if stats.attempts >= scfg.max_attempts {
            break;
        }
        if crashes[i].1 == 0 {
            i += 1;
            continue;
        }
        let mut cand = crashes.clone();
        cand[i].1 = 0;
        stats.attempts += 1;
        if let Some((sched, executed_crashes)) =
            attempt(pool, cfg, current.clone(), &cand, factory, failing)
        {
            stats.useful += 1;
            *current = sched;
            *crashes = executed_crashes;
        }
        i += 1;
    }
}

/// Minimize a failing schedule by delta debugging. Crash-free
/// convenience wrapper over [`shrink_execution`].
pub fn shrink_schedule<T, R, FMake, Fail>(
    cfg: &SimConfig<T>,
    scfg: &ShrinkConfig,
    original: &[ProcId],
    factory: &mut FMake,
    failing: Fail,
) -> ShrinkReport
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    shrink_execution(cfg, scfg, original, &[], factory, failing)
}

/// Minimize a failing *execution* — schedule and crash pattern — by
/// delta debugging.
///
/// `factory` must produce the same deterministic process bodies as the
/// run that recorded `original` (the explorer's contract); `failing`
/// decides whether an outcome still exhibits the violation — it is
/// called once per candidate and must be a pure function of the outcome.
/// `original_crashes` is the executed crash pattern of the failing run
/// (see [`SimOutcome::executed_crashes`]).
///
/// The returned [`ShrinkReport`] is locally minimal: removing any
/// single step — or any single crash — loses the violation (or the
/// attempt budget ran out first). It may equal the original when
/// nothing could be removed.
pub fn shrink_execution<T, R, FMake, Fail>(
    cfg: &SimConfig<T>,
    scfg: &ShrinkConfig,
    original: &[ProcId],
    original_crashes: &[(ProcId, u64)],
    factory: &mut FMake,
    failing: Fail,
) -> ShrinkReport
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    std::thread::scope(|scope| {
        let mut pool = ProcPool::new(scope);
        shrink_on(
            &mut pool,
            cfg,
            scfg,
            original,
            original_crashes,
            factory,
            failing,
        )
    })
}

/// [`shrink_execution`] proper, every candidate re-executed on `pool`.
fn shrink_on<T, R, FMake, Fail>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    scfg: &ShrinkConfig,
    original: &[ProcId],
    original_crashes: &[(ProcId, u64)],
    factory: &mut FMake,
    mut failing: Fail,
) -> ShrinkReport
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    let mut stats = ShrinkStats::default();
    let mut current: Vec<ProcId> = original.to_vec();
    let mut crashes: Vec<(ProcId, u64)> = original_crashes.to_vec();

    // Pass 0 — crash removal: drop each crash in turn; a candidate that
    // still fails adopts both the executed schedule and the executed
    // crash pattern (a dropped crash can change the whole tail).
    drop_crashes(
        pool,
        cfg,
        scfg,
        &mut current,
        &mut crashes,
        &mut stats,
        factory,
        &mut failing,
    );

    // Pass 0b — crash advancing: fire each surviving crash as early as
    // possible, so the ddmin pass can drop its victim's steps.
    advance_crashes(
        pool,
        cfg,
        scfg,
        &mut current,
        &mut crashes,
        &mut stats,
        factory,
        &mut failing,
    );

    // Pass 1 — ddmin: drop chunks of halving size until even single
    // steps are all load-bearing.
    let mut chunk = current.len().div_ceil(2).max(1);
    'ddmin: loop {
        let mut progress = false;
        let mut start = 0;
        while start < current.len() {
            if stats.attempts >= scfg.max_attempts {
                break 'ddmin;
            }
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            stats.attempts += 1;
            match attempt(pool, cfg, candidate, &crashes, factory, &mut failing) {
                Some((executed, executed_crashes)) => {
                    stats.useful += 1;
                    current = executed;
                    crashes = executed_crashes;
                    progress = true;
                    // The element now at `start` is new; retry in place.
                }
                None => start = end,
            }
        }
        if !progress {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    // Passes 0 and 0b again: a shorter schedule may no longer need some
    // crash, and a dropped step may unlock an earlier firing point.
    drop_crashes(
        pool,
        cfg,
        scfg,
        &mut current,
        &mut crashes,
        &mut stats,
        factory,
        &mut failing,
    );
    advance_crashes(
        pool,
        cfg,
        scfg,
        &mut current,
        &mut crashes,
        &mut stats,
        factory,
        &mut failing,
    );

    // Pass 2 — segment merging: swap adjacent steps of different
    // processes when doing so joins two segments of the same process,
    // reducing context switches without changing the step count.
    if scfg.merge_segments {
        loop {
            let before = switches(&current);
            let mut improved = false;
            let mut i = 0;
            while i + 1 < current.len() {
                if stats.attempts >= scfg.max_attempts {
                    break;
                }
                let joins_left = i > 0 && current[i - 1] == current[i + 1];
                let joins_right = i + 2 < current.len() && current[i] == current[i + 2];
                if current[i] != current[i + 1] && (joins_left || joins_right) {
                    let mut candidate = current.clone();
                    candidate.swap(i, i + 1);
                    if switches(&candidate) < before {
                        stats.attempts += 1;
                        if let Some((executed, executed_crashes)) =
                            attempt(pool, cfg, candidate, &crashes, factory, &mut failing)
                        {
                            stats.useful += 1;
                            let saved = before.saturating_sub(switches(&executed));
                            stats.merges += saved as u64;
                            current = executed;
                            crashes = executed_crashes;
                            improved = true;
                            break; // restart the scan on the new schedule
                        }
                    }
                }
                i += 1;
            }
            if !improved || stats.attempts >= scfg.max_attempts {
                break;
            }
        }
    }

    ShrinkReport {
        original: original.to_vec(),
        schedule: current,
        crashes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::MemCtx;
    use crate::sim::SimCtx;

    /// Two writers and a reader on one register; the "violation" is the
    /// reader observing P1's write (register value 2 at its read).
    fn bodies() -> Vec<ProcBody<'static, u64, u64>> {
        vec![
            Box::new(|ctx: &mut SimCtx<u64>| {
                ctx.write(0, 1);
                ctx.write(0, 1);
                0
            }),
            Box::new(|ctx: &mut SimCtx<u64>| {
                ctx.write(0, 2);
                0
            }),
            Box::new(|ctx: &mut SimCtx<u64>| ctx.read(0)),
        ]
    }

    fn failing(out: &SimOutcome<u64, u64>) -> bool {
        out.results[2] == Some(2)
    }

    #[test]
    fn shrinks_to_minimal_failing_schedule() {
        // A bloated failing schedule: both P0 writes, then P1, then the
        // read. Only [1, 2] is needed.
        let cfg = SimConfig::base(vec![0u64; 1]);
        let original = vec![0, 0, 1, 2];
        let report = shrink_schedule(
            &cfg,
            &ShrinkConfig::default(),
            &original,
            &mut bodies,
            failing,
        );
        assert_eq!(report.schedule, vec![1, 2]);
        assert_eq!(report.removed(), 2);
        assert!(report.stats.attempts > 0);
        assert!(report.stats.useful > 0);
    }

    #[test]
    fn shrunk_schedule_replays_strictly() {
        let cfg = SimConfig::base(vec![0u64; 1]);
        let report = shrink_schedule(
            &cfg,
            &ShrinkConfig::default(),
            &[0, 0, 1, 2],
            &mut bodies,
            failing,
        );
        // Strict replay with the schedule length as budget reproduces the
        // exact execution — no fallback steps, same trace.
        let out = crate::sim::SimBuilder::new(vec![0u64; 1])
            .strategy(Replay::strict(report.schedule.clone()))
            .max_steps(report.schedule.len() as u64)
            .run(bodies());
        assert!(failing(&out));
        assert_eq!(out.trace.schedule(), report.schedule);
    }

    #[test]
    fn merge_pass_reduces_context_switches() {
        // Alternating failing schedule: [1,2] is minimal; force the
        // ddmin pass off by already being minimal, then check merging on
        // a longer artificial case where all steps are needed.
        fn bodies2() -> Vec<ProcBody<'static, u64, u64>> {
            vec![
                Box::new(|ctx: &mut SimCtx<u64>| {
                    ctx.write(0, 1);
                    ctx.write(1, 1);
                    0
                }),
                Box::new(|ctx: &mut SimCtx<u64>| {
                    let a = ctx.read(0);
                    let b = ctx.read(1);
                    a + b
                }),
            ]
        }
        // Failing = P1 saw both writes. Interleaved schedule works but
        // has 3 switches; [0,0,1,1] has 1.
        let cfg = SimConfig::base(vec![0u64; 2]);
        let report = shrink_schedule(
            &cfg,
            &ShrinkConfig::default(),
            &[0, 1, 0, 1],
            &mut bodies2,
            |out: &SimOutcome<u64, u64>| out.results[1] == Some(2),
        );
        assert_eq!(report.schedule, vec![0, 0, 1, 1]);
        assert!(report.stats.merges > 0);
        // Without merging the interleaving survives untouched.
        let no_merge = ShrinkConfig {
            merge_segments: false,
            ..Default::default()
        };
        let report2 = shrink_schedule(
            &cfg,
            &no_merge,
            &[0, 1, 0, 1],
            &mut bodies2,
            |out: &SimOutcome<u64, u64>| out.results[1] == Some(2),
        );
        assert_eq!(report2.schedule, vec![0, 1, 0, 1]);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let cfg = SimConfig::base(vec![0u64; 1]);
        let tight = ShrinkConfig {
            max_attempts: 1,
            merge_segments: true,
        };
        let report = shrink_schedule(&cfg, &tight, &[0, 0, 1, 2], &mut bodies, failing);
        assert!(report.stats.attempts <= 1);
    }

    #[test]
    fn report_json_round_trips() {
        let report = ShrinkReport {
            original: vec![0, 0, 1, 2],
            schedule: vec![1, 2],
            crashes: vec![(0, 2)],
            stats: ShrinkStats {
                attempts: 5,
                useful: 2,
                merges: 0,
            },
        };
        let doc = report.to_json();
        assert_eq!(doc.get("shrunk_len").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("original_len").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("context_switches").and_then(Json::as_u64), Some(1));
        let crashes = doc.get("crashes").and_then(Json::as_arr).unwrap();
        assert_eq!(crashes.len(), 1);
        assert!(crate::json::parse(&doc.to_compact()).is_ok());
    }

    #[test]
    fn crash_pattern_is_minimized_alongside_schedule() {
        // P2's read sees 2 only when P1 wrote and P0's second write was
        // prevented — here by crashing P0 after its first write. The
        // spurious P1 crash at a late step never fires usefully and must
        // be dropped; the P0 crash is load-bearing and must survive.
        fn bodies3() -> Vec<ProcBody<'static, u64, u64>> {
            vec![
                Box::new(|ctx: &mut SimCtx<u64>| {
                    ctx.write(0, 1);
                    ctx.write(0, 1);
                    0
                }),
                Box::new(|ctx: &mut SimCtx<u64>| {
                    ctx.write(0, 2);
                    0
                }),
                Box::new(|ctx: &mut SimCtx<u64>| ctx.read(0)),
            ]
        }
        let cfg = SimConfig::base(vec![0u64; 1]);
        // Violation: the reader saw 2 AND P0 crashed (so the violation
        // genuinely needs the crash to be minimal wrt failing()).
        let fail = |out: &SimOutcome<u64, u64>| out.results[2] == Some(2) && out.crashed[0];
        let report = shrink_execution(
            &cfg,
            &ShrinkConfig::default(),
            &[0, 1, 2],
            &[(0, 1), (2, 3)],
            &mut bodies3,
            fail,
        );
        // P0's write is removable (the crash still fires with P0 never
        // scheduled); the minimal schedule is P1's write + P2's read.
        assert_eq!(report.schedule, vec![1, 2]);
        assert_eq!(report.crashes.len(), 1, "spurious crash dropped");
        assert_eq!(report.crashes[0].0, 0, "load-bearing crash kept");
        // The minimized execution strict-replays with its fault plan.
        let out = crate::sim::SimBuilder::new(vec![0u64; 1])
            .strategy(Replay::strict(report.schedule.clone()))
            .fault_plan(FaultPlan::from(report.crashes.clone()))
            .max_steps(report.schedule.len() as u64)
            .run(bodies3());
        assert!(fail(&out));
        assert_eq!(out.trace.schedule(), report.schedule);
        assert_eq!(out.executed_crashes(), report.crashes);
    }
}
