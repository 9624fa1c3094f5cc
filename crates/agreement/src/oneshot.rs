//! A provably-correct n-process variant with a known input-range bound.
//!
//! Experiment E8 shows that Figure 2's *adaptive termination* (the
//! round-window test of lines 11–13) is unsound for n ≥ 3: a process
//! whose pending write derives from an arbitrarily old view can land a
//! far-away preference at round `r` after another process has already
//! returned at round `r` (the gap in Lemma 4's proof is the claim
//! "L′_Q ⊆ L_P"). This module keeps the paper's iterative-midpoint
//! engine but replaces the adaptive termination with a *fixed* round
//! count derived from the a-priori range bound Δ — exactly the quantity
//! Theorem 5 already assumes ("Let Δ be an upper bound on the size of
//! the range of the inputs").
//!
//! Protocol (per process): for rounds `r = 1..=R` with
//! `R = ⌈log₂(Δ/ε)⌉ + 1`:
//!
//! 1. write the current value into the round-`r` snapshot object;
//! 2. atomically snapshot the round-`r` values;
//! 3. next value := midpoint of the values seen.
//!
//! Return the value after round `R`.
//!
//! **Why it is correct.** Within one round, the Section 6 snapshot makes
//! any two views comparable (Lemma 32), each containing the viewer's own
//! value; midpoints of nested non-empty sets `V_p ⊆ V_q` differ by at
//! most `|range(V_q)|/2`, so the diameter of round-`r+1` values is at
//! most half the diameter of round-`r` values — the same halving as the
//! paper's Lemma 3, but now unconditional. After `R` rounds the diameter
//! is `< ε`. Validity holds because every midpoint lies inside the
//! previous round's range (Lemma 1's argument). Wait-freedom is
//! immediate: exactly `R` rounds of two scans each, crash-tolerant
//! because rounds never wait for anyone.
//!
//! Cost: `2R` scans = `O(n² · log(Δ/ε))` register operations — the same
//! asymptotics as realizing Figure 2's scans atomically.

use crate::spec::midpoint;
use apram_lattice::TaggedVec;
use apram_model::{MemCtx, OffsetCtx, ProcId};
use apram_snapshot::{Snapshot, SnapshotHandle};

/// Register value: `f64` preferences, one slot array per round.
pub type OneShotReg = TaggedVec<f64>;

/// The fixed-round approximate agreement object.
#[derive(Clone, Debug)]
pub struct OneShotAgreement {
    n: usize,
    eps: f64,
    lo: f64,
    hi: f64,
    rounds: u32,
    /// One snapshot object per round, laid out consecutively.
    per_round_regs: usize,
}

impl OneShotAgreement {
    /// An object for `n` processes whose inputs are promised to lie in
    /// `[lo, hi]`, with agreement parameter `eps`.
    pub fn new(n: usize, eps: f64, lo: f64, hi: f64) -> Self {
        assert!(n >= 1);
        assert!(eps > 0.0);
        assert!(hi >= lo);
        let delta = hi - lo;
        let rounds = if delta < eps {
            1
        } else {
            (delta / eps).log2().ceil() as u32 + 1
        };
        OneShotAgreement {
            n,
            eps,
            lo,
            hi,
            rounds,
            per_round_regs: Snapshot::new(n).registers::<f64>().len(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of halving rounds each process executes.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The agreement parameter.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Initial register contents (all rounds' snapshot objects).
    pub fn registers(&self) -> Vec<OneShotReg> {
        let mut out = Vec::with_capacity(self.per_round_regs * self.rounds as usize);
        for _ in 0..self.rounds {
            out.extend(Snapshot::new(self.n).registers::<f64>());
        }
        out
    }

    /// Single-writer owner map (per-round snapshot owners, repeated).
    pub fn owners(&self) -> Vec<ProcId> {
        let mut out = Vec::with_capacity(self.per_round_regs * self.rounds as usize);
        for _ in 0..self.rounds {
            out.extend(Snapshot::new(self.n).owners());
        }
        out
    }

    /// Run the protocol to completion for the calling process.
    ///
    /// # Panics
    /// Panics when `x` is outside the promised `[lo, hi]` range (the
    /// range bound is this variant's precondition, not a soft hint).
    pub fn run<C: MemCtx<OneShotReg>>(&self, ctx: &mut C, x: f64) -> f64 {
        assert!(
            (self.lo..=self.hi).contains(&x),
            "input {x} outside the promised range [{}, {}]",
            self.lo,
            self.hi
        );
        let mut value = x;
        for r in 0..self.rounds {
            // Each round has its own snapshot object at a register
            // offset; SnapshotHandle caches are per (process, object),
            // and each object is used exactly once per process, so a
            // fresh handle per round is sound.
            let mut handle: SnapshotHandle<f64> = Snapshot::new(self.n).handle();
            let base = r as usize * self.per_round_regs;
            let mut shifted = OffsetCtx { inner: ctx, base };
            handle.update(&mut shifted, value);
            let view = handle.snap(&mut shifted);
            let seen: Vec<f64> = view.into_iter().flatten().collect();
            debug_assert!(!seen.is_empty(), "a view contains its own write");
            value = midpoint(&seen);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::outputs_valid;
    use apram_model::sim::strategy::SeededRandom;
    use apram_model::sim::SimBuilder;
    use apram_model::NativeMemory;

    #[test]
    fn solo_returns_input() {
        let obj = OneShotAgreement::new(1, 0.5, 0.0, 10.0);
        let mem = NativeMemory::new(1, obj.registers());
        let mut ctx = mem.ctx(0);
        assert_eq!(obj.run(&mut ctx, 7.25), 7.25);
        assert!(obj.rounds() >= 1);
        assert_eq!(obj.n(), 1);
        assert_eq!(obj.eps(), 0.5);
    }

    #[test]
    fn tight_range_single_round() {
        let obj = OneShotAgreement::new(3, 1.0, 0.0, 0.5);
        assert_eq!(obj.rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the promised range")]
    fn out_of_range_input_rejected() {
        let obj = OneShotAgreement::new(1, 0.5, 0.0, 1.0);
        let mem = NativeMemory::new(1, obj.registers());
        let mut ctx = mem.ctx(0);
        let _ = obj.run(&mut ctx, 2.0);
    }

    /// The configurations that defeat Figure 2 for n ≥ 3 (E8) are safe
    /// here, under many random schedules.
    #[test]
    fn survives_figure_2_breaking_configs() {
        for seed in 0..30u64 {
            for (eps, inputs) in [
                (0.15f64, vec![0.0, 0.9, 1.0]),
                (0.08, vec![0.0, 0.5, 0.9, 1.0]),
                (0.1, vec![0.0, 0.7, 1.0]),
            ] {
                let n = inputs.len();
                let obj = OneShotAgreement::new(n, eps, 0.0, 1.0);
                let inputs_ref = &inputs;
                let obj_ref = &obj;
                let out = SimBuilder::new(obj.registers())
                    .owners(obj.owners())
                    .strategy(SeededRandom::new(seed))
                    .run_symmetric(n, move |ctx| obj_ref.run(ctx, inputs_ref[ctx.proc()]));
                let ys = out.unwrap_results();
                assert!(
                    outputs_valid(eps, &inputs, &ys),
                    "seed {seed} eps {eps}: {ys:?}"
                );
            }
        }
    }

    /// Broad schedule coverage via sleep-set-reduced exploration
    /// (result properties are sound under the reduction): two processes,
    /// capped run budget, every visited execution must satisfy validity
    /// and ε-agreement.
    #[test]
    fn reduced_exploration_result_check() {
        use apram_model::sim::explore::ExploreConfig;
        use apram_model::sim::Budgeted;
        use apram_model::sim::ProcBody;
        let eps = 0.6;
        let inputs = [0.0f64, 1.0];
        let obj = OneShotAgreement::new(2, eps, 0.0, 1.0);
        let obj2 = obj.clone();
        let make = move || {
            (0..2usize)
                .map(|p| {
                    let obj = obj2.clone();
                    Box::new(move |ctx: &mut apram_model::SimCtx<super::OneShotReg>| {
                        obj.run(ctx, p as f64)
                    }) as ProcBody<'static, super::OneShotReg, f64>
                })
                .collect::<Vec<_>>()
        };
        let mut checked = 0u64;
        let stats = SimBuilder::new(obj.registers())
            .owners(obj.owners())
            .explore_reduced(&ExploreConfig::new().max_runs(20_000), make, |out| {
                let ys: Vec<f64> = out.results.iter().map(|r| r.unwrap()).collect();
                assert!(outputs_valid(eps, &inputs, &ys), "{ys:?}");
                checked += 1;
                true
            });
        assert!(checked > 100, "{stats:?}");
    }

    /// Crash tolerance: survivors finish and agree.
    #[test]
    fn survivors_agree_despite_crashes() {
        let n = 4;
        let eps = 0.1;
        let obj = OneShotAgreement::new(n, eps, 0.0, 3.0);
        let obj_ref = &obj;
        let out = SimBuilder::new(obj.registers())
            .owners(obj.owners())
            .crashes([(1, 25), (3, 60)])
            .run_symmetric(n, move |ctx| obj_ref.run(ctx, ctx.proc() as f64));
        out.assert_no_panics();
        let survivors: Vec<f64> = [0usize, 2]
            .iter()
            .map(|&p| out.results[p].expect("survivor finishes"))
            .collect();
        assert!(
            (survivors[0] - survivors[1]).abs() < eps,
            "survivors disagree: {survivors:?}"
        );
        assert!(survivors.iter().all(|y| (0.0..=3.0).contains(y)));
    }

    /// Sequential sanity across n: all processes sequentially get the
    /// same deterministic fixed point.
    #[test]
    fn sequential_runs_converge() {
        let n = 3;
        let eps = 0.01;
        let obj = OneShotAgreement::new(n, eps, 0.0, 1.0);
        let mem = NativeMemory::new(n, obj.registers());
        let inputs = [0.0, 0.4, 1.0];
        let mut ys = Vec::new();
        for (p, &x) in inputs.iter().enumerate() {
            let mut ctx = mem.ctx(p);
            ys.push(obj.run(&mut ctx, x));
        }
        assert!(outputs_valid(eps, &inputs, &ys), "{ys:?}");
    }
}
