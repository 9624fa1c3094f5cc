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
//!
//! The policy is fixed: every minimization runs all of its passes,
//! segment merge included, and stops after [`SHRINK_MAX_ATTEMPTS`]
//! candidate re-executions.

use super::fault::FaultPlan;
use super::parallel::ProcPool;
use super::strategy::Replay;
use super::{run_sim, ProcBody, SimBuilder, SimConfig, SimOutcome};
use crate::ctx::ProcId;
use crate::json::Json;

/// Hard cap on candidate re-executions across all passes of one
/// minimization.
pub const SHRINK_MAX_ATTEMPTS: u64 = 4096;

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

/// A minimization in progress: the execution it has reached, the work
/// it has spent, and what re-executes a candidate.
struct Shrinker<'a, 's, 'e, T, R, FMake, Fail> {
    pool: &'a mut ProcPool<'s, 'e, T, R>,
    cfg: &'a SimConfig<T>,
    max_attempts: u64,
    factory: &'a mut FMake,
    failing: Fail,
    /// The failing schedule so far; every entry was serviced.
    current: Vec<ProcId>,
    /// The failing crash pattern so far; every crash fired.
    crashes: Vec<(ProcId, u64)>,
    stats: ShrinkStats,
}

impl<T, R, FMake, Fail> Shrinker<'_, '_, '_, T, R, FMake, Fail>
where
    T: Clone + Send,
    R: Send,
    FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
    Fail: FnMut(&SimOutcome<T, R>) -> bool,
{
    /// The attempt budget is used up.
    fn spent(&self) -> bool {
        self.stats.attempts >= self.max_attempts
    }

    /// Re-execute a candidate (schedule + crash plan) with a halting
    /// replay; when `failing` still holds, adopt the *executed* schedule
    /// (every entry serviced) and the *executed* crash pattern (every
    /// crash actually fired, at its actual step) and return `true`.
    fn adopt(&mut self, schedule: Vec<ProcId>, crashes: Vec<(ProcId, u64)>) -> bool {
        self.stats.attempts += 1;
        let strat = FaultPlan::from(crashes).over(Replay::halting(schedule));
        let (outcome, _) = run_sim(self.pool, self.cfg, strat, (self.factory)(), false);
        if !(self.failing)(&outcome) {
            return false;
        }
        self.stats.useful += 1;
        self.current = outcome.trace.schedule();
        self.crashes = outcome.executed_crashes();
        true
    }

    /// One crash-removal sweep: try dropping each crash in turn. A
    /// dropped crash can change the whole tail, so a candidate that
    /// still fails adopts both the executed schedule and crash pattern.
    fn drop_crashes(&mut self) {
        let mut i = 0;
        while i < self.crashes.len() && !self.spent() {
            let mut cand = self.crashes.clone();
            cand.remove(i);
            // Adopted, the crash now at `i` is new: retry in place.
            if !self.adopt(self.current.clone(), cand) {
                i += 1;
            }
        }
    }

    /// One crash-advance sweep: try re-firing each crash at step 0 (the
    /// earliest decision point its victim is alive). An earlier crash
    /// shortens its victim's live window, which lets the ddmin pass
    /// remove the victim's steps — without this, a witness can be forced
    /// to keep steps whose only purpose is advancing the clock to the
    /// crash's recorded firing step. The crash's *actual* fired step is
    /// what gets recorded.
    fn advance_crashes(&mut self) {
        let mut i = 0;
        while i < self.crashes.len() && !self.spent() {
            if self.crashes[i].1 != 0 {
                let mut cand = self.crashes.clone();
                cand[i].1 = 0;
                self.adopt(self.current.clone(), cand);
            }
            i += 1;
        }
    }

    /// Drop chunks of halving size until even single steps are all
    /// load-bearing.
    fn ddmin(&mut self) {
        let mut chunk = self.current.len().div_ceil(2).max(1);
        loop {
            let mut progress = false;
            let mut start = 0;
            while start < self.current.len() {
                if self.spent() {
                    return;
                }
                let end = (start + chunk).min(self.current.len());
                let mut candidate = Vec::with_capacity(self.current.len() - (end - start));
                candidate.extend_from_slice(&self.current[..start]);
                candidate.extend_from_slice(&self.current[end..]);
                // Adopted, the element now at `start` is new: retry in
                // place.
                if self.adopt(candidate, self.crashes.clone()) {
                    progress = true;
                } else {
                    start = end;
                }
            }
            if !progress {
                if chunk == 1 {
                    return;
                }
                chunk = (chunk / 2).max(1);
            }
        }
    }

    /// Swap adjacent steps of different processes when doing so joins
    /// two segments of the same process, reducing context switches
    /// without changing the step count.
    fn merge_bursts(&mut self) {
        loop {
            let before = switches(&self.current);
            let mut improved = false;
            let mut i = 0;
            while i + 1 < self.current.len() && !self.spent() {
                let c = &self.current;
                let joins_left = i > 0 && c[i - 1] == c[i + 1];
                let joins_right = i + 2 < c.len() && c[i] == c[i + 2];
                if c[i] != c[i + 1] && (joins_left || joins_right) {
                    let mut candidate = c.clone();
                    candidate.swap(i, i + 1);
                    if switches(&candidate) < before && self.adopt(candidate, self.crashes.clone())
                    {
                        let saved = before.saturating_sub(switches(&self.current));
                        self.stats.merges += saved as u64;
                        improved = true;
                        break; // restart the scan on the new schedule
                    }
                }
                i += 1;
            }
            if !improved || self.spent() {
                return;
            }
        }
    }
}

impl<T: Clone + Send> SimBuilder<T> {
    /// Minimize a failing *execution* — schedule and crash pattern — by
    /// delta debugging. The builder's strategy and crash plan are *not*
    /// used: every candidate is a halting replay of its own schedule
    /// under its own crashes.
    ///
    /// `factory` must produce the same deterministic process bodies as
    /// the run that recorded `original` (the explorer's contract);
    /// `failing` decides whether an outcome still exhibits the violation
    /// — it is called once per candidate and must be a pure function of
    /// the outcome. `original_crashes` is the executed crash pattern of
    /// the failing run (see [`SimOutcome::executed_crashes`]; empty for a
    /// crash-free one).
    ///
    /// The returned [`ShrinkReport`] is locally minimal: removing any
    /// single step — or any single crash — loses the violation (or the
    /// attempt budget ran out first). It may equal the original when
    /// nothing could be removed. At most [`SHRINK_MAX_ATTEMPTS`]
    /// candidates are re-executed.
    pub fn shrink<R, FMake, Fail>(
        &self,
        original: &[ProcId],
        original_crashes: &[(ProcId, u64)],
        factory: &mut FMake,
        failing: Fail,
    ) -> ShrinkReport
    where
        R: Send,
        FMake: FnMut() -> Vec<ProcBody<'static, T, R>>,
        Fail: FnMut(&SimOutcome<T, R>) -> bool,
    {
        std::thread::scope(|scope| {
            let pool = &mut ProcPool::new(scope);
            shrink_on(
                pool,
                &self.cfg,
                SHRINK_MAX_ATTEMPTS,
                original,
                original_crashes,
                factory,
                failing,
            )
        })
    }
}

/// [`SimBuilder::shrink`] proper, every candidate re-executed on
/// `pool`; the explorers and the certifier call it with a pool of their
/// own. Every caller outside this module's tests passes
/// [`SHRINK_MAX_ATTEMPTS`] as `max_attempts`.
pub(super) fn shrink_on<T, R, FMake, Fail>(
    pool: &mut ProcPool<'_, '_, T, R>,
    cfg: &SimConfig<T>,
    max_attempts: u64,
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
    let mut shrinker = Shrinker {
        pool,
        cfg,
        max_attempts,
        factory,
        failing,
        current: original.to_vec(),
        crashes: original_crashes.to_vec(),
        stats: ShrinkStats::default(),
    };
    // Pass 0: remove crashes, then fire the survivors as early as
    // possible, so that pass 1 can drop their victims' steps.
    shrinker.drop_crashes();
    shrinker.advance_crashes();
    // Pass 1: ddmin over the schedule.
    shrinker.ddmin();
    // Pass 0 again: a shorter schedule may no longer need some crash,
    // and a dropped step may unlock an earlier firing point.
    shrinker.drop_crashes();
    shrinker.advance_crashes();
    // Pass 2: segment merging.
    shrinker.merge_bursts();
    ShrinkReport {
        original: original.to_vec(),
        schedule: shrinker.current,
        crashes: shrinker.crashes,
        stats: shrinker.stats,
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
        let sim = SimBuilder::new(vec![0u64; 1]);
        let original = vec![0, 0, 1, 2];
        let report = sim.shrink(&original, &[], &mut bodies, failing);
        assert_eq!(report.schedule, vec![1, 2]);
        assert_eq!(report.removed(), 2);
        assert!(report.stats.attempts > 0);
        assert!(report.stats.useful > 0);
    }

    #[test]
    fn shrunk_schedule_replays_strictly() {
        let sim = SimBuilder::new(vec![0u64; 1]);
        let report = sim.shrink(&[0, 0, 1, 2], &[], &mut bodies, failing);
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
        let sim = SimBuilder::new(vec![0u64; 2]);
        let report = sim.shrink(
            &[0, 1, 0, 1],
            &[],
            &mut bodies2,
            |out: &SimOutcome<u64, u64>| out.results[1] == Some(2),
        );
        assert_eq!(report.schedule, vec![0, 0, 1, 1]);
        assert!(report.stats.merges > 0);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let sim = SimBuilder::new(vec![0u64; 1]);
        let report = std::thread::scope(|scope| {
            let pool = &mut ProcPool::new(scope);
            shrink_on(pool, &sim.cfg, 1, &[0, 0, 1, 2], &[], &mut bodies, failing)
        });
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
        let sim = SimBuilder::new(vec![0u64; 1]);
        // Violation: the reader saw 2 AND P0 crashed (so the violation
        // genuinely needs the crash to be minimal wrt failing()).
        let fail = |out: &SimOutcome<u64, u64>| out.results[2] == Some(2) && out.crashed[0];
        let report = sim.shrink(&[0, 1, 2], &[(0, 1), (2, 3)], &mut bodies3, fail);
        // P0's write is removable (the crash still fires with P0 never
        // scheduled); the minimal schedule is P1's write + P2's read.
        assert_eq!(report.schedule, vec![1, 2]);
        assert_eq!(report.crashes.len(), 1, "spurious crash dropped");
        assert_eq!(report.crashes[0].0, 0, "load-bearing crash kept");
        // The minimized execution strict-replays with its fault plan.
        let out = crate::sim::SimBuilder::new(vec![0u64; 1])
            .strategy(Replay::strict(report.schedule.clone()))
            .crashes(report.crashes.clone())
            .max_steps(report.schedule.len() as u64)
            .run(bodies3());
        assert!(fail(&out));
        assert_eq!(out.trace.schedule(), report.schedule);
        assert_eq!(out.executed_crashes(), report.crashes);
    }
}
