//! First-class fault plans: declarative crash injection.
//!
//! A [`FaultPlan`] is a set of `(proc, step)` pairs: each listed process
//! is crashed at the first scheduler decision point at or after the
//! given global step. A plan composes over an inner [`Strategy`] with
//! [`FaultPlan::over`], which takes the strategy by value; the
//! composition travels into a run like any strategy. That is how
//! [`SimBuilder::run`](crate::sim::SimBuilder::run) applies the plan
//! declared with [`SimBuilder::crashes`](crate::sim::SimBuilder::crashes)
//! to every run: it wraps its strategy, and unwraps it after the run to
//! keep the strategy's state for the next one.
//!
//! # Declaring faults
//!
//! Declare the faults on the builder and leave the strategy alone:
//!
//! ```
//! use apram_model::sim::SimBuilder;
//! use apram_model::MemCtx;
//!
//! let out = SimBuilder::new(vec![0u64; 3]).crashes([(1, 5), (2, 9)]).run_symmetric(3, |ctx| {
//!     for _ in 0..4 {
//!         ctx.write(ctx.proc(), 1);
//!     }
//!     ctx.read(0)
//! });
//! assert_eq!(out.crashed, vec![false, true, true]);
//! ```
//!
//! or composes an explicit plan over an owned strategy:
//!
//! ```
//! use apram_model::sim::fault::FaultPlan;
//! use apram_model::sim::strategy::SeededRandom;
//!
//! let faulty = FaultPlan::new().crash(1, 5).crash(2, 9).over(SeededRandom::new(42));
//! # let _ = faulty;
//! ```
//!
//! (The deprecated `CrashAt` shim that previously wrapped this firing
//! logic was removed in 0.6; `FaultPlan` is the only spelling.)

use super::strategy::{Decision, SchedView, Strategy};
use crate::ctx::ProcId;

/// A declarative crash plan: `(proc, step)` pairs, each firing once.
///
/// Firing semantics: a
/// listed process `p` is crashed at the first decision point with
/// `view.step >= step`, provided it has not already crashed or
/// finished. Crash decisions do not consume a global step number, so a
/// plan composes deterministically with
/// [`Replay`](crate::sim::strategy::Replay) schedules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    crashes: Vec<(ProcId, u64)>,
}

impl FaultPlan {
    /// An empty plan (no crashes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one crash: `proc` dies at the first decision point at or
    /// after global step `step`.
    pub fn crash(mut self, proc: ProcId, step: u64) -> Self {
        self.crashes.push((proc, step));
        self
    }

    /// The planned `(proc, step)` pairs, in insertion order.
    pub fn crashes(&self) -> &[(ProcId, u64)] {
        &self.crashes
    }

    /// `true` when the plan contains no crashes.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// Number of planned crashes.
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// Compose this plan over an owned inner strategy: crashes fire per
    /// the plan, all other decisions are delegated to `inner`.
    pub fn over<S: Strategy>(&self, inner: S) -> Faulty<S> {
        Faulty {
            inner,
            pending: self.crashes.clone(),
        }
    }
}

impl From<Vec<(ProcId, u64)>> for FaultPlan {
    fn from(crashes: Vec<(ProcId, u64)>) -> Self {
        FaultPlan { crashes }
    }
}

impl FromIterator<(ProcId, u64)> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = (ProcId, u64)>>(iter: I) -> Self {
        FaultPlan {
            crashes: iter.into_iter().collect(),
        }
    }
}

/// A strategy composed from a [`FaultPlan`] and an owned inner strategy;
/// built with [`FaultPlan::over`].
#[derive(Clone, Debug)]
pub struct Faulty<S> {
    inner: S,
    pending: Vec<(ProcId, u64)>,
}

impl<S> Faulty<S> {
    /// The inner strategy, with whatever state it gathered.
    pub(crate) fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Strategy> Strategy for Faulty<S> {
    fn decide(&mut self, view: &SchedView) -> Decision {
        let due = |&(p, s): &(ProcId, u64)| view.step >= s && !view.crashed[p] && !view.finished[p];
        match self.pending.iter().position(due) {
            Some(i) => Decision::Crash(self.pending.remove(i).0),
            None => self.inner.decide(view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::AccessKind;
    use crate::sim::strategy::PrioritizeLowest;

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
    fn plan_fires_once_per_victim() {
        let mut s = FaultPlan::new().crash(1, 2).over(PrioritizeLowest);
        let pend = [Some((AccessKind::Read, 0)); 2];
        let fin = [false; 2];
        let cr = [false; 2];
        let v0 = view(0, &[0, 1], &pend, &fin, &cr);
        assert_eq!(s.decide(&v0), Decision::Step(0));
        let v2 = view(2, &[0, 1], &pend, &fin, &cr);
        assert_eq!(s.decide(&v2), Decision::Crash(1));
        let crashed = [false, true];
        let v3 = view(3, &[0], &pend, &fin, &crashed);
        assert_eq!(s.decide(&v3), Decision::Step(0));
    }

    #[test]
    fn plan_skips_finished_victims() {
        let mut s = FaultPlan::new().crash(0, 0).over(PrioritizeLowest);
        let pend = [None, Some((AccessKind::Read, 0))];
        let fin = [true, false];
        let cr = [false; 2];
        let v = view(5, &[1], &pend, &fin, &cr);
        assert_eq!(s.decide(&v), Decision::Step(1));
    }

    #[test]
    fn plan_collects_and_converts() {
        let a: FaultPlan = vec![(0, 1), (2, 3)].into();
        let b: FaultPlan = [(0, 1), (2, 3)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.crashes(), &[(0, 1), (2, 3)]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
