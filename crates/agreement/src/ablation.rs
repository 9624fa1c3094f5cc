//! Ablation experiments (E8): which mechanisms of Figure 2 are
//! load-bearing — and the headline reproduction finding that the
//! protocol's *adaptive termination is unsound for n ≥ 3*.
//!
//! The machine-level explorer below enumerates (exhaustively for small
//! configurations, by seeded random search for larger ones) the
//! schedules of the [`AgreementMachine`] under every combination of
//! [`Variant`] (decision-logic ablations) and [`ScanMode`] (collect vs
//! atomic scans). Findings, frozen as tests:
//!
//! * **n = 2**: every variant/mode combination is exhaustively safe.
//!   The paper's two-process theorems (Lemma 6, Theorems 7–8) are on
//!   solid ground.
//! * **n ≥ 3, the full protocol, both scan modes**: ε-agreement fails.
//!   A process whose pending write was computed from an arbitrarily old
//!   view can land a destructive round-r midpoint *after* another
//!   process has returned at round r; the gap is Lemma 4's claim
//!   "L′_Q ⊆ L_P". Validity (Lemma 1) and convergence (Lemma 3) still
//!   hold, and the observed spread stays within a small multiple of ε
//!   (measured by [`max_spread`]).
//! * The [`crate::oneshot`] variant — fixed round count from the known
//!   Δ bound — is safe on every configuration that breaks Figure 2.
//! * Removing the midpoint-of-leaders choice (`MidpointOfAll`) makes
//!   the violation come almost at once and widens the spread (3.75ε
//!   against the full protocol's 1.5ε in E8). Removing the line 18–19
//!   double rescan (`NoRescan`) leaves the protocol violating in both
//!   scan modes; how soon a seeded search finds it goes either way (in
//!   E8 sooner than the full protocol with atomic scans, later with
//!   collects), so it is no measure of the rescan's worth.

use crate::machine::AgreementMachine;
use crate::proto::{ScanMode, Variant};
use crate::spec::outputs_valid;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of an exhaustive machine exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Complete executions enumerated.
    pub runs: u64,
    /// `true` when every schedule was covered within the budget.
    pub exhausted: bool,
    /// First violating execution found: `(schedule, outputs)`.
    pub violation: Option<(Vec<usize>, Vec<f64>)>,
    /// Worst per-process step count observed across all executions.
    pub worst_steps: u64,
}

/// Exhaustively explore every schedule of the machine with the given
/// inputs, checking validity + ε-agreement of each complete execution.
/// Stops at the first violation or after `max_runs` executions.
pub fn explore_machine(
    eps: f64,
    inputs: &[f64],
    variant: Variant,
    mode: ScanMode,
    max_runs: u64,
) -> ExploreOutcome {
    let mut out = ExploreOutcome {
        runs: 0,
        exhausted: true,
        violation: None,
        worst_steps: 0,
    };
    let m = AgreementMachine::with_config(eps, inputs.to_vec(), variant, mode);
    let mut schedule = Vec::new();
    dfs(&m, eps, inputs, max_runs, &mut schedule, &mut out);
    out
}

fn dfs(
    m: &AgreementMachine,
    eps: f64,
    inputs: &[f64],
    max_runs: u64,
    schedule: &mut Vec<usize>,
    out: &mut ExploreOutcome,
) -> bool {
    if out.violation.is_some() {
        return false;
    }
    if out.runs >= max_runs {
        out.exhausted = false;
        return false;
    }
    let live: Vec<usize> = (0..m.n()).filter(|&p| !m.is_done(p)).collect();
    if live.is_empty() {
        out.runs += 1;
        let ys = m.outputs();
        for p in 0..m.n() {
            out.worst_steps = out.worst_steps.max(m.steps_taken(p));
        }
        if !outputs_valid(eps, inputs, &ys) {
            out.violation = Some((schedule.clone(), ys));
            return false;
        }
        return true;
    }
    for p in live {
        let mut next = m.clone();
        next.step(p);
        schedule.push(p);
        let keep_going = dfs(&next, eps, inputs, max_runs, schedule, out);
        schedule.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

/// Randomized schedule search (for configurations too large to
/// exhaust): `samples` random executions, first violation returned.
pub fn random_search(
    eps: f64,
    inputs: &[f64],
    variant: Variant,
    mode: ScanMode,
    samples: u64,
    seed: u64,
) -> ExploreOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ExploreOutcome {
        runs: 0,
        exhausted: false,
        violation: None,
        worst_steps: 0,
    };
    for _ in 0..samples {
        let mut m = AgreementMachine::with_config(eps, inputs.to_vec(), variant, mode);
        let schedule = m.run_random(&mut rng);
        out.runs += 1;
        let ys = m.outputs();
        for p in 0..m.n() {
            out.worst_steps = out.worst_steps.max(m.steps_taken(p));
        }
        if !outputs_valid(eps, inputs, &ys) {
            out.violation = Some((schedule, ys));
            return out;
        }
    }
    out
}

/// Replay a schedule against a variant (to confirm and display found
/// counterexamples deterministically). Entries naming already-finished
/// processes are skipped, so one schedule can be replayed against
/// variants whose executions end earlier.
pub fn replay_schedule(
    eps: f64,
    inputs: &[f64],
    variant: Variant,
    mode: ScanMode,
    schedule: &[usize],
) -> Vec<f64> {
    let mut m = AgreementMachine::with_config(eps, inputs.to_vec(), variant, mode);
    for &p in schedule {
        if !m.is_done(p) {
            m.step(p);
        }
    }
    for p in 0..m.n() {
        if !m.is_done(p) {
            m.run_solo(p, 10_000_000);
        }
    }
    m.outputs()
}

/// Measure the worst observed outputs-spread over `samples` seeded
/// random schedules, as a multiple of ε (no early exit). Figure 2's
/// n ≥ 3 failures are bounded: the spread stays within a small constant
/// times ε; this measures the constant empirically.
pub fn max_spread(
    eps: f64,
    inputs: &[f64],
    variant: Variant,
    mode: ScanMode,
    samples: u64,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        let mut m = AgreementMachine::with_config(eps, inputs.to_vec(), variant, mode);
        m.run_random(&mut rng);
        worst = worst.max(crate::spec::range_width(&m.outputs()) / eps);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::outputs_in_range;

    /// n = 2: exhaustively safe for every variant and both scan modes.
    #[test]
    fn two_process_exhaustively_safe_all_variants_and_modes() {
        for variant in [Variant::Full, Variant::NoRescan, Variant::MidpointOfAll] {
            for mode in [ScanMode::Atomic, ScanMode::Collect] {
                let out = explore_machine(0.6, &[0.0, 1.0], variant, mode, 3_000_000);
                assert!(out.exhausted, "{variant:?}/{mode:?}: {} runs", out.runs);
                assert!(
                    out.violation.is_none(),
                    "{variant:?}/{mode:?}: {:?}",
                    out.violation
                );
                assert!(out.runs > 100);
            }
        }
    }

    /// The headline finding: the FULL protocol violates ε-agreement for
    /// n = 3 under both scan modes (seeded search, deterministic), and
    /// the violating runs still satisfy validity (Lemma 1 holds).
    #[test]
    fn full_protocol_violates_for_three_processes() {
        let eps = 0.15;
        let inputs = [0.0, 0.9, 1.0];
        for mode in [ScanMode::Collect, ScanMode::Atomic] {
            let out = random_search(eps, &inputs, Variant::Full, mode, 20_000, 1);
            let (schedule, ys) = out
                .violation
                .unwrap_or_else(|| panic!("{mode:?}: violation not found"));
            assert!(!outputs_valid(eps, &inputs, &ys), "{mode:?}");
            assert!(
                outputs_in_range(&inputs, &ys),
                "{mode:?}: validity broke too"
            );
            // Deterministic replay reproduces it.
            let replayed = replay_schedule(eps, &inputs, Variant::Full, mode, &schedule);
            assert_eq!(replayed, ys, "{mode:?}");
        }
    }

    /// Four processes fail as well (wider configuration).
    #[test]
    fn full_protocol_violates_for_four_processes() {
        let eps = 0.08;
        let inputs = [0.0, 0.5, 0.9, 1.0];
        let out = random_search(eps, &inputs, Variant::Full, ScanMode::Atomic, 20_000, 3);
        let (_, ys) = out.violation.expect("violation");
        assert!(!outputs_valid(eps, &inputs, &ys));
        assert!(outputs_in_range(&inputs, &ys));
    }

    /// The violations are bounded: measured spread stays well under 3ε
    /// on the witness configuration (convergence still halves ranges).
    #[test]
    fn violation_spread_is_bounded() {
        let worst = max_spread(
            0.15,
            &[0.0, 0.9, 1.0],
            Variant::Full,
            ScanMode::Atomic,
            10_000,
            3,
        );
        assert!(worst > 1.0, "should reproduce a violation: {worst}");
        assert!(
            worst < 3.0,
            "spread blew past the expected envelope: {worst}"
        );
    }

    /// The ablations violate too: NoRescan (here with collects, as the
    /// full protocol does) and MidpointOfAll, the latter almost
    /// immediately.
    #[test]
    fn ablated_variants_also_violate() {
        let no_rescan = random_search(
            0.15,
            &[0.0, 0.9, 1.0],
            Variant::NoRescan,
            ScanMode::Collect,
            20_000,
            1,
        );
        assert!(no_rescan.violation.is_some());
        let mid_all = random_search(
            0.1,
            &[0.0, 0.7, 1.0],
            Variant::MidpointOfAll,
            ScanMode::Atomic,
            20_000,
            2,
        );
        assert!(mid_all.violation.is_some());
        assert!(
            mid_all.runs <= 100,
            "MidpointOfAll should fail almost immediately, took {} runs",
            mid_all.runs
        );
    }

    /// The MidpointOfAll variant is no faster than Full on shared
    /// 2-process schedules either.
    #[test]
    fn midpoint_of_all_is_no_faster() {
        let worst_steps = |variant| {
            let inputs = [0.0, 1.0];
            random_search(1.0 / 64.0, &inputs, variant, ScanMode::Collect, 300, 7).worst_steps
        };
        let (full, variant) = (
            worst_steps(Variant::Full),
            worst_steps(Variant::MidpointOfAll),
        );
        assert!(
            variant >= full,
            "MidpointOfAll ({variant}) unexpectedly faster than Full ({full})"
        );
    }

    /// Replay determinism.
    #[test]
    fn replay_is_deterministic() {
        let a = replay_schedule(
            0.5,
            &[0.0, 1.0],
            Variant::Full,
            ScanMode::Collect,
            &[0, 1, 0, 1, 1, 0],
        );
        let b = replay_schedule(
            0.5,
            &[0.0, 1.0],
            Variant::Full,
            ScanMode::Collect,
            &[0, 1, 0, 1, 1, 0],
        );
        assert_eq!(a, b);
        assert!(outputs_valid(0.5, &[0.0, 1.0], &a));
    }
}
