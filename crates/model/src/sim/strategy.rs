//! Scheduling strategies: the adversary interface.
//!
//! In the asynchronous PRAM model the scheduler is an adversary; a
//! wait-free algorithm must terminate under *every* strategy expressible
//! here, including ones that crash processes ("despite failures of other
//! processes"). Lower-bound experiments (paper Lemma 6) implement
//! [`Strategy`] directly.

use crate::ctx::{AccessKind, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the scheduler should do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Service the pending access of this (runnable) process.
    Step(ProcId),
    /// Crash this process: it takes no further steps, ever.
    Crash(ProcId),
    /// Stop the whole run.
    Halt,
}

/// The scheduler state visible to a strategy at a decision point.
#[derive(Debug)]
pub struct SchedView<'a> {
    /// Global step number of the decision about to be made.
    pub step: u64,
    /// Processes with a pending access, sorted ascending. Non-empty.
    pub runnable: &'a [ProcId],
    /// For each process, its pending access (kind, register), if any.
    pub pending: &'a [Option<(AccessKind, usize)>],
    /// Which processes have completed their bodies.
    pub finished: &'a [bool],
    /// Which processes have been crashed.
    pub crashed: &'a [bool],
}

/// A scheduling strategy (adversary).
pub trait Strategy {
    /// Choose the next scheduler action. `view.runnable` is non-empty;
    /// `Decision::Step` must name one of its members.
    fn decide(&mut self, view: &SchedView) -> Decision;
}

impl<F: FnMut(&SchedView) -> Decision> Strategy for F {
    fn decide(&mut self, view: &SchedView) -> Decision {
        self(view)
    }
}

impl Strategy for Box<dyn Strategy + Send> {
    fn decide(&mut self, view: &SchedView) -> Decision {
        (**self).decide(view)
    }
}

/// Fair round-robin: cycles through processes, skipping non-runnable
/// ones. The "most synchronous" schedule, useful as a baseline.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    last: Option<ProcId>,
}

impl RoundRobin {
    /// A fresh round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Strategy for RoundRobin {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let next = match self.last {
            None => view.runnable[0],
            Some(last) => *view
                .runnable
                .iter()
                .find(|&&p| p > last)
                .unwrap_or(&view.runnable[0]),
        };
        self.last = Some(next);
        Decision::Step(next)
    }
}

/// Uniform random choice among runnable processes, from a fixed seed, so
/// "random" executions are reproducible.
#[derive(Clone, Debug)]
pub struct SeededRandom {
    rng: StdRng,
}

impl SeededRandom {
    /// A random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        SeededRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Strategy for SeededRandom {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let i = self.rng.gen_range(0..view.runnable.len());
        Decision::Step(view.runnable[i])
    }
}

/// What [`Replay`] does when a scheduled process is not runnable, and
/// when the recorded schedule runs out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplayMode {
    /// Divergence panics; exhaustion falls back to round-robin.
    Strict,
    /// Non-runnable entries are skipped; exhaustion falls back to
    /// round-robin.
    Lenient,
    /// Non-runnable entries are skipped; exhaustion halts the run.
    Halting,
}

/// Replay a recorded schedule.
///
/// In `strict` mode, a scheduled process that is not runnable is an error
/// (the execution diverged from the recording). In `lenient` mode the
/// entry is skipped. When the schedule is exhausted, both fall back to
/// round-robin. `halting` mode skips like `lenient` but issues
/// [`Decision::Halt`] at exhaustion, producing a *partial* execution that
/// covers exactly the recorded prefix — this is what the schedule
/// shrinker uses to test truncated candidates.
#[derive(Clone, Debug)]
pub struct Replay {
    schedule: Vec<ProcId>,
    pos: usize,
    mode: ReplayMode,
    fallback: RoundRobin,
}

impl Replay {
    fn with_mode(schedule: Vec<ProcId>, mode: ReplayMode) -> Self {
        Replay {
            schedule,
            pos: 0,
            mode,
            fallback: RoundRobin::new(),
        }
    }

    /// Strict replay: divergence from the recorded schedule panics.
    pub fn strict(schedule: Vec<ProcId>) -> Self {
        Self::with_mode(schedule, ReplayMode::Strict)
    }

    /// Lenient replay: non-runnable entries are skipped.
    pub fn lenient(schedule: Vec<ProcId>) -> Self {
        Self::with_mode(schedule, ReplayMode::Lenient)
    }

    /// Halting replay: non-runnable entries are skipped and the run halts
    /// when the schedule is exhausted, instead of falling back to
    /// round-robin. The resulting execution takes no steps beyond the
    /// recorded ones.
    pub fn halting(schedule: Vec<ProcId>) -> Self {
        Self::with_mode(schedule, ReplayMode::Halting)
    }
}

impl Strategy for Replay {
    fn decide(&mut self, view: &SchedView) -> Decision {
        while self.pos < self.schedule.len() {
            let p = self.schedule[self.pos];
            self.pos += 1;
            if view.runnable.contains(&p) {
                return Decision::Step(p);
            }
            if self.mode == ReplayMode::Strict {
                panic!(
                    "strict replay: scheduled P{p} at step {} but runnable set is {:?}",
                    view.step, view.runnable
                );
            }
        }
        match self.mode {
            ReplayMode::Halting => Decision::Halt,
            ReplayMode::Strict | ReplayMode::Lenient => self.fallback.decide(view),
        }
    }
}

/// Always runs the lowest-numbered runnable process; starves everyone
/// else whenever possible. A simple "maximally unfair" adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrioritizeLowest;

impl Strategy for PrioritizeLowest {
    fn decide(&mut self, view: &SchedView) -> Decision {
        Decision::Step(view.runnable[0])
    }
}

/// Runs one victim process solo in long bursts, letting the others in
/// only one step at a time: a starvation-style adversary for stress
/// tests.
#[derive(Clone, Debug)]
pub struct BurstAdversary {
    victim: ProcId,
    burst: u64,
    in_burst: u64,
}

impl BurstAdversary {
    /// Prefer `victim` for `burst` consecutive steps between single steps
    /// of the others.
    pub fn new(victim: ProcId, burst: u64) -> Self {
        BurstAdversary {
            victim,
            burst,
            in_burst: 0,
        }
    }
}

impl Strategy for BurstAdversary {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let victim_runnable = view.runnable.contains(&self.victim);
        if victim_runnable && self.in_burst < self.burst {
            self.in_burst += 1;
            return Decision::Step(self.victim);
        }
        self.in_burst = 0;
        let other = view
            .runnable
            .iter()
            .find(|&&p| p != self.victim)
            .copied()
            .unwrap_or(self.victim);
        Decision::Step(other)
    }
}

/// PCT — probabilistic concurrency testing (Burckhardt et al.):
/// processes get random distinct priorities; the scheduler always runs
/// the highest-priority runnable process, and at `d−1` pre-chosen random
/// step indices it demotes the current leader to the lowest priority.
/// For a bug of *depth* `d` in a program with `n` processes and `k`
/// steps, one PCT run finds it with probability ≥ 1/(n·k^(d−1)) — far
/// better than uniform random walks for ordering bugs, which makes it
/// the workhorse schedule sampler for stress tests.
#[derive(Clone, Debug)]
pub struct Pct {
    priorities: Vec<u64>,
    change_points: Vec<u64>,
    next_low: u64,
}

impl Pct {
    /// A PCT scheduler for `n_procs` processes with bug depth `depth`
    /// (number of priority change points + 1) over executions of about
    /// `max_steps` steps, derived deterministically from `seed`.
    pub fn new(seed: u64, n_procs: usize, depth: u32, max_steps: u64) -> Self {
        assert!(depth >= 1);
        assert!(max_steps >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Random distinct starting priorities: a shuffled range, offset
        // so demotions (which count down from 0 requires signed… we use
        // a descending counter below the initial minimum).
        let mut priorities: Vec<u64> = (0..n_procs as u64).map(|i| i + max_steps).collect();
        for i in (1..priorities.len()).rev() {
            let j = rng.gen_range(0..=i);
            priorities.swap(i, j);
        }
        let mut change_points: Vec<u64> = (0..depth - 1)
            .map(|_| rng.gen_range(0..max_steps))
            .collect();
        change_points.sort_unstable();
        Pct {
            priorities,
            change_points,
            next_low: max_steps, // counts down: max_steps-1, …
        }
    }
}

impl Strategy for Pct {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let leader = *view
            .runnable
            .iter()
            .max_by_key(|&&p| self.priorities[p])
            .expect("runnable is non-empty");
        // Consume any change point scheduled at or before this step.
        if self
            .change_points
            .first()
            .is_some_and(|&cp| view.step >= cp)
        {
            self.change_points.remove(0);
            self.next_low -= 1;
            self.priorities[leader] = self.next_low;
            // Re-pick with the demotion applied.
            let leader = *view
                .runnable
                .iter()
                .max_by_key(|&&p| self.priorities[p])
                .unwrap();
            return Decision::Step(leader);
        }
        Decision::Step(leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(
        step: u64,
        runnable: &'a [ProcId],
        pending: &'a [Option<(AccessKind, usize)>],
        finished: &'a [bool],
        crashed: &'a [bool],
    ) -> SchedView<'a> {
        SchedView {
            step,
            runnable,
            pending,
            finished,
            crashed,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let pend = [Some((AccessKind::Read, 0)); 3];
        let fin = [false; 3];
        let cr = [false; 3];
        let v = view(0, &[0, 1, 2], &pend, &fin, &cr);
        assert_eq!(rr.decide(&v), Decision::Step(0));
        assert_eq!(rr.decide(&v), Decision::Step(1));
        assert_eq!(rr.decide(&v), Decision::Step(2));
        assert_eq!(rr.decide(&v), Decision::Step(0));
        // Skips non-runnable:
        let v2 = view(4, &[0, 2], &pend, &fin, &cr);
        assert_eq!(rr.decide(&v2), Decision::Step(2));
    }

    #[test]
    fn replay_lenient_skips_and_falls_back() {
        let mut r = Replay::lenient(vec![5, 1]);
        let pend = [Some((AccessKind::Read, 0)); 3];
        let fin = [false; 3];
        let cr = [false; 3];
        let v = view(0, &[0, 1], &pend, &fin, &cr);
        assert_eq!(r.decide(&v), Decision::Step(1)); // 5 skipped
        assert_eq!(r.decide(&v), Decision::Step(0)); // fallback RR
    }

    #[test]
    fn replay_halting_halts_at_exhaustion() {
        let mut r = Replay::halting(vec![5, 1]);
        let pend = [Some((AccessKind::Read, 0)); 3];
        let fin = [false; 3];
        let cr = [false; 3];
        let v = view(0, &[0, 1], &pend, &fin, &cr);
        assert_eq!(r.decide(&v), Decision::Step(1)); // 5 skipped
        assert_eq!(r.decide(&v), Decision::Halt); // exhausted
        assert_eq!(r.decide(&v), Decision::Halt); // stays halted
    }

    #[test]
    #[should_panic(expected = "strict replay")]
    fn replay_strict_panics_on_divergence() {
        let mut r = Replay::strict(vec![2]);
        let pend = [Some((AccessKind::Read, 0)); 3];
        let fin = [false; 3];
        let cr = [false; 3];
        let v = view(0, &[0, 1], &pend, &fin, &cr);
        let _ = r.decide(&v);
    }

    #[test]
    fn closure_strategies_work() {
        let mut s = |view: &SchedView| Decision::Step(*view.runnable.last().unwrap());
        let pend = [Some((AccessKind::Write, 1)); 2];
        let fin = [false; 2];
        let cr = [false; 2];
        let v = view(0, &[0, 1], &pend, &fin, &cr);
        assert_eq!(Strategy::decide(&mut s, &v), Decision::Step(1));
    }

    #[test]
    fn pct_runs_highest_priority_and_demotes() {
        let pend = [Some((AccessKind::Read, 0)); 3];
        let fin = [false; 3];
        let cr = [false; 3];
        // depth 1: no change points — the same leader runs throughout.
        let mut s = Pct::new(1, 3, 1, 100);
        let v0 = view(0, &[0, 1, 2], &pend, &fin, &cr);
        let first = match s.decide(&v0) {
            Decision::Step(p) => p,
            other => panic!("{other:?}"),
        };
        for step in 1..20 {
            let v = view(step, &[0, 1, 2], &pend, &fin, &cr);
            assert_eq!(s.decide(&v), Decision::Step(first), "leader must be stable");
        }
        // With the leader not runnable, the next-priority process runs.
        let others: Vec<ProcId> = (0..3).filter(|&p| p != first).collect();
        let v = view(20, &others, &pend, &fin, &cr);
        let second = match s.decide(&v) {
            Decision::Step(p) => p,
            other => panic!("{other:?}"),
        };
        assert_ne!(second, first);
        // depth 2 with an early change point: the leader eventually
        // changes even though everyone stays runnable.
        let mut s = Pct::new(1, 3, 2, 10);
        let mut leaders = std::collections::HashSet::new();
        for step in 0..10 {
            let v = view(step, &[0, 1, 2], &pend, &fin, &cr);
            if let Decision::Step(p) = s.decide(&v) {
                leaders.insert(p);
            }
        }
        assert!(leaders.len() >= 2, "demotion must change the leader");
    }

    #[test]
    fn pct_is_deterministic_per_seed() {
        let pend = [Some((AccessKind::Write, 0)); 4];
        let fin = [false; 4];
        let cr = [false; 4];
        let run = |seed: u64| -> Vec<ProcId> {
            let mut s = Pct::new(seed, 4, 3, 50);
            (0..50)
                .map(|step| {
                    let v = view(step, &[0, 1, 2, 3], &pend, &fin, &cr);
                    match s.decide(&v) {
                        Decision::Step(p) => p,
                        other => panic!("{other:?}"),
                    }
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        // Different seeds give different schedules (overwhelmingly).
        assert!((0..10).any(|s| run(s) != run(s + 100)));
    }

    #[test]
    fn burst_adversary_prefers_victim() {
        let mut s = BurstAdversary::new(0, 2);
        let pend = [Some((AccessKind::Read, 0)); 2];
        let fin = [false; 2];
        let cr = [false; 2];
        let v = view(0, &[0, 1], &pend, &fin, &cr);
        assert_eq!(s.decide(&v), Decision::Step(0));
        assert_eq!(s.decide(&v), Decision::Step(0));
        assert_eq!(s.decide(&v), Decision::Step(1));
        assert_eq!(s.decide(&v), Decision::Step(0));
    }
}
