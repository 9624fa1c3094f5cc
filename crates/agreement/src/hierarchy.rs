//! The bounded wait-free hierarchy (Theorems 7 and 8).
//!
//! * **Theorem 7**: for every `k > 0` the approximate agreement object
//!   with unit input range and `ε = 3⁻ᵏ` has a `K`-bounded wait-free
//!   implementation for some `K = O(nk)` (Theorem 5) but no `k`-bounded
//!   one (Lemma 6). [`hierarchy_row`] measures both sides for one `k`.
//! * **Theorem 8**: with an *unbounded* input range the object is
//!   wait-free but not bounded wait-free: for any proposed bound the
//!   adversary picks inputs far enough apart to exceed it.
//!   [`unbounded_growth`] measures forced work as Δ grows.
//!
//! These functions are the workload generators for experiments E1–E3;
//! the `experiments` binary in `apram-bench` prints the tables recorded
//! in EXPERIMENTS.md.

use crate::adversary::{lemma6_bound, run_adversary};
use crate::machine::AgreementMachine;
use crate::proto::{ScanMode, Variant};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the Theorem 7 hierarchy table.
#[derive(Clone, Debug)]
pub struct HierarchyRow {
    /// The hierarchy level (`ε = 3⁻ᵏ`, unit input range).
    pub k: u32,
    /// The agreement parameter.
    pub eps: f64,
    /// Lemma 6 analytic lower bound `⌊log₃(Δ/ε)⌋ = k`.
    pub lower_bound: u64,
    /// Steps the Lemma 6 adversary actually forced on some process.
    pub forced_steps: u64,
    /// Confrontation rounds the adversary forced.
    pub forced_confrontations: u64,
    /// Worst per-process step count observed over the sampled schedules
    /// (the measured `K`).
    pub measured_upper: u64,
    /// Theorem 5 analytic upper bound `(2n+1)·log₂(Δ/ε) + O(n)`.
    pub theorem5_bound: u64,
}

/// Theorem 5's bound with an explicit constant for the `O(n)` term
/// (covering the input steps and the final verification rounds).
pub fn theorem5_bound(n: usize, delta_over_eps: f64) -> u64 {
    let rounds = delta_over_eps.log2().max(0.0).ceil() as u64 + 2;
    (2 * n as u64 + 1) * rounds + 6 * n as u64 + 10
}

/// Measure the worst per-process step count of the `n`-process
/// protocol with equally spaced inputs in \[0, 1\] over round-robin plus
/// `samples` random schedules. Uses collect scans, so every step is one
/// register access — the currency of Theorem 5's (2n+1)·log₂(Δ/ε) + O(n)
/// claim.
pub fn measured_worst_steps(n: usize, eps: f64, samples: u64, seed: u64) -> u64 {
    let inputs: Vec<f64> = (0..n).map(|p| p as f64 / (n - 1).max(1) as f64).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst = 0u64;
    for s in 0..=samples {
        let mut m =
            AgreementMachine::with_config(eps, inputs.clone(), Variant::Full, ScanMode::Collect);
        if s == 0 {
            m.run_all_round_robin(100_000_000);
        } else {
            m.run_random(&mut rng);
        }
        worst = (0..n).map(|p| m.steps_taken(p)).fold(worst, u64::max);
    }
    worst
}

/// Produce the Theorem 7 row for level `k`: the `ε = 3⁻ᵏ` object,
/// adversary-forced lower side vs measured/analytic upper side.
pub fn hierarchy_row(k: u32, samples: u64) -> HierarchyRow {
    let eps = 3.0f64.powi(-(k as i32));
    let rep = run_adversary(eps, 0.0, 1.0, 100_000_000);
    HierarchyRow {
        k,
        eps,
        lower_bound: lemma6_bound(1.0, eps),
        forced_steps: rep.max_steps(),
        forced_confrontations: rep.confrontations,
        measured_upper: measured_worst_steps(2, eps, samples, 0xA5F + k as u64),
        theorem5_bound: theorem5_bound(2, 1.0 / eps),
    }
}

/// Theorem 8's engine: fixed `ε = 1`, growing input gap Δ. Returns
/// `(Δ, forced_steps)` pairs; forced work grows without bound, so no
/// finite step bound covers all inputs.
pub fn unbounded_growth(deltas: &[f64]) -> Vec<(f64, u64)> {
    deltas
        .iter()
        .map(|&d| {
            let rep = run_adversary(1.0, 0.0, d, 100_000_000);
            (d, rep.max_steps())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theorem 7, measured: for each k the object separates — the
    /// adversary forces more than a constant independent of k, while the
    /// protocol stays within the Theorem 5 envelope.
    #[test]
    fn hierarchy_rows_separate() {
        for k in 1..=5u32 {
            let row = hierarchy_row(k, 10);
            assert_eq!(row.lower_bound, k as u64, "Δ/ε = 3^k exactly");
            assert!(
                row.forced_confrontations >= row.lower_bound,
                "k={k}: forced {} < lower bound {}",
                row.forced_confrontations,
                row.lower_bound
            );
            assert!(
                row.measured_upper <= row.theorem5_bound,
                "k={k}: measured {} exceeds Theorem 5 bound {}",
                row.measured_upper,
                row.theorem5_bound
            );
            assert!(row.forced_steps >= row.forced_confrontations);
        }
    }

    /// The upper side grows at most linearly in k (K = O(nk) for fixed
    /// n=2): successive increments are bounded by a constant.
    #[test]
    fn upper_side_grows_linearly_in_k() {
        let rows: Vec<HierarchyRow> = (1..=6).map(|k| hierarchy_row(k, 5)).collect();
        for w in rows.windows(2) {
            let inc = w[1].measured_upper.saturating_sub(w[0].measured_upper);
            assert!(
                inc <= 30,
                "k={}→{}: increment {} too large for O(nk)",
                w[0].k,
                w[1].k,
                inc
            );
        }
    }

    /// Theorem 8, measured: forced work grows monotonically and without
    /// apparent bound as Δ grows with ε fixed.
    #[test]
    fn unbounded_range_defeats_any_bound() {
        let deltas = [3.0, 27.0, 243.0, 2187.0];
        let growth = unbounded_growth(&deltas);
        for w in growth.windows(2) {
            assert!(w[1].1 > w[0].1, "forced steps must grow with Δ: {growth:?}");
        }
        // And it exceeds any fixed small bound for large Δ:
        assert!(growth.last().unwrap().1 > growth[0].1 + 6);
    }

    #[test]
    fn theorem5_bound_formula() {
        assert!(theorem5_bound(2, 2.0) >= 5 * 3);
        assert!(theorem5_bound(2, 1024.0) >= 5 * 12);
        // Monotone in both arguments.
        assert!(theorem5_bound(4, 16.0) > theorem5_bound(2, 16.0));
        assert!(theorem5_bound(2, 64.0) > theorem5_bound(2, 16.0));
    }
}
