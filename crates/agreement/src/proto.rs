//! The Figure 2 wait-free approximate agreement protocol.
//!
//! ```text
//! proc output(P: process)
//!     advance := false
//!     loop
//!         Scan r
//!         E := {r[Q].prefer : r[Q].round ≥ r[P].round − 1}
//!         L := {r[Q].prefer : r[Q].round = max_Q r[Q].round}
//!         if |range(E)| < ε/2 then return r[P].prefer
//!         elseif |range(L)| < ε/2 or advance then
//!             r := [prefer: midpoint(L), round: r.round + 1]
//!             advance := false
//!         else advance := ¬advance
//! ```
//!
//! ## What "Scan r" must mean (reproduction finding)
//!
//! Section 4's prose says "P scans the entries by reading them in an
//! arbitrary order", suggesting a plain collect. **For n ≥ 3 that
//! reading is unsound**: this repository exhibits a concrete schedule
//! (see `ablation::collect_scan_witness_violates_safety` and experiment
//! E8) on which two processes output values `0.225` apart with
//! `ε = 0.15`. The failing step is exactly Lemma 4's claim
//! "`L'_Q ⊆ L_P`", which silently assumes the scan is a consistent
//! (instantaneous) view — an inconsistent collect can observe an
//! all-round-1 leader set long after every leader has moved on. With an
//! **atomic** scan the counterexample evaporates, which matches both the
//! paper's own Section 6 (which constructs exactly this primitive) and
//! Hoest–Shavit's later translation of this algorithm into the
//! *iterated snapshot* model. (For n = 2 a collect of the single other
//! register is trivially a consistent view, and the collect protocol
//! survives exhaustive exploration.)
//!
//! Accordingly [`AgreementProto`] — the supported object — performs its
//! scans with the Section 6 atomic snapshot (each scan costs `n²−1`
//! reads and `n+1` writes), and [`CollectAgreement`] preserves the
//! literal collect reading for the ablation experiments.
//!
//! The decision logic is factored into [`decide`] so that the
//! [`crate::machine`] state-machine form (used by the Lemma 6 adversary)
//! provably runs the *same* protocol. [`Variant`] selects ablations of
//! the two design choices the proof of Lemma 4 leans on.

use crate::spec::{midpoint, range_width};
use apram_lattice::TaggedVec;
use apram_model::{MemCtx, ProcId};
use apram_snapshot::{Snapshot, SnapshotHandle};

/// One register of the protocol: a round counter and a preference
/// (the paper's `[prefer, round]` entry; `prefer` is initially ⊥).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AaEntry {
    /// Round number; 0 until `input`, then ≥ 1.
    pub round: u64,
    /// Current preference; `None` is the paper's ⊥.
    pub prefer: Option<f64>,
}

impl AaEntry {
    /// The initial (⊥) entry.
    pub fn bottom() -> Self {
        AaEntry {
            round: 0,
            prefer: None,
        }
    }
}

impl Default for AaEntry {
    fn default() -> Self {
        Self::bottom()
    }
}

/// How a scan observes the register array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanMode {
    /// An instantaneous view (Section 6 atomic snapshot; the sound
    /// interpretation — the default).
    Atomic,
    /// One register at a time ("reading them in an arbitrary order") —
    /// the literal Figure 2 prose; **unsafe for n ≥ 3** (experiment E8).
    Collect,
}

/// Protocol variants for the ablation experiments (E8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The paper's protocol, verbatim.
    Full,
    /// Lines 18–19 removed: when the leaders' range is still wide the
    /// process writes immediately instead of rescanning once. Breaks the
    /// second case of the Lemma 4 safety argument.
    NoRescan,
    /// Line 16 altered: new preference is `midpoint(E)` (all live
    /// entries) instead of `midpoint(L)` (leaders only). Stale trailing
    /// entries then pull midpoints apart.
    MidpointOfAll,
}

/// What the protocol does after evaluating one scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Terminate, returning the process's own preference (line 14).
    Return(f64),
    /// Advance: write this new entry (lines 16–17).
    Write(AaEntry),
    /// Rescan with the `advance` flag set (line 19).
    Rescan,
}

/// The pure decision function of lines 11–19, shared by both protocol
/// forms and the state machine. `snap` is the scanned register array,
/// `p` the deciding process, `advance` its flag.
pub fn decide(snap: &[AaEntry], p: ProcId, eps: f64, advance: bool, variant: Variant) -> Decision {
    let own = snap[p];
    let own_prefer = own
        .prefer
        .expect("output requires a prior input by this process");
    let own_round = own.round;
    debug_assert!(own_round >= 1);
    // Line 11 — E, written round ≥ own_round − 1 without underflow.
    // A ⊥ entry inside the window (possible only while own_round = 1)
    // stands for a process whose input we have not yet seen: its
    // presence makes range(E) effectively unbounded, so the termination
    // test cannot pass. This is what keeps a round-1 return from racing
    // a late joiner's far-away input. ⊥ entries are discarded by the
    // round filter itself once own_round ≥ 2, so wait-freedom is
    // unaffected.
    let mut e: Vec<f64> = Vec::with_capacity(snap.len());
    let mut e_has_bottom = false;
    for en in snap.iter().filter(|en| en.round + 1 >= own_round) {
        match en.prefer {
            Some(v) => e.push(v),
            None => e_has_bottom = true,
        }
    }
    // Line 12 — L, the leaders. max_round ≥ own_round ≥ 1 > 0, so ⊥
    // (round 0) entries are never leaders.
    let max_round = snap.iter().map(|en| en.round).max().unwrap_or(0);
    let l: Vec<f64> = snap
        .iter()
        .filter(|en| en.round == max_round)
        .filter_map(|en| en.prefer)
        .collect();
    if !e_has_bottom && range_width(&e) < eps / 2.0 {
        return Decision::Return(own_prefer);
    }
    let write_now = range_width(&l) < eps / 2.0 || advance || variant == Variant::NoRescan;
    if write_now {
        let target = match variant {
            Variant::MidpointOfAll => midpoint(&e),
            _ => midpoint(&l),
        };
        Decision::Write(AaEntry {
            round: own_round + 1,
            prefer: Some(target),
        })
    } else {
        Decision::Rescan
    }
}

/// The register type backing the (atomic-scan) agreement object.
pub type AgreementReg = TaggedVec<AaEntry>;

/// The approximate agreement object with atomic-snapshot scans — the
/// supported, provably-safe form. Registers are the Section 6 snapshot
/// matrix over [`AaEntry`] slots.
#[derive(Clone, Copy, Debug)]
pub struct AgreementProto {
    /// The agreement parameter ε.
    pub eps: f64,
    /// Which decision-logic variant to run.
    pub variant: Variant,
    snap: Snapshot,
}

impl AgreementProto {
    /// The protocol for `n` processes with parameter `eps`.
    pub fn new(n: usize, eps: f64) -> Self {
        Self::with_variant(n, eps, Variant::Full)
    }

    /// A decision-logic variant (for the ablation experiments).
    pub fn with_variant(n: usize, eps: f64, variant: Variant) -> Self {
        assert!(n >= 1);
        assert!(eps > 0.0, "ε must be positive");
        AgreementProto {
            eps,
            variant,
            snap: Snapshot::new(n),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.snap.n()
    }

    /// Initial register contents.
    pub fn registers(&self) -> Vec<AgreementReg> {
        self.snap.registers()
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        self.snap.owners()
    }

    /// A per-process handle (one per process for the object lifetime).
    pub fn handle(&self) -> AgreementHandle {
        AgreementHandle {
            eps: self.eps,
            variant: self.variant,
            snap: self.snap.handle(),
            entered: false,
        }
    }
}

/// Per-process handle on an [`AgreementProto`].
#[derive(Clone, Debug)]
pub struct AgreementHandle {
    eps: f64,
    variant: Variant,
    snap: SnapshotHandle<AaEntry>,
    entered: bool,
}

impl AgreementHandle {
    /// `input(P, x)` (lines 1–5): adopt `x` as the preference unless one
    /// was already set. (The ⊥-test on the own register is a local check:
    /// the register is single-writer and written only through this
    /// handle.)
    pub fn input<C: MemCtx<AgreementReg>>(&mut self, ctx: &mut C, x: f64) {
        if !self.entered {
            self.entered = true;
            self.snap.update(
                ctx,
                AaEntry {
                    round: 1,
                    prefer: Some(x),
                },
            );
        }
    }

    /// `output(P)` (lines 7–22), with atomic scans. Requires a prior
    /// `input` by this process (the paper leaves `output` on an empty
    /// input set unspecified; see DESIGN.md).
    pub fn output<C: MemCtx<AgreementReg>>(&mut self, ctx: &mut C) -> f64 {
        let p = ctx.proc();
        let n = ctx.n_procs();
        let mut advance = false;
        loop {
            // Line 10: an instantaneous view of every entry.
            let view = self.snap.snap(ctx);
            let entries: Vec<AaEntry> = (0..n)
                .map(|q| view[q].unwrap_or_else(AaEntry::bottom))
                .collect();
            match decide(&entries, p, self.eps, advance, self.variant) {
                Decision::Return(v) => return v,
                Decision::Write(entry) => {
                    self.snap.update(ctx, entry);
                    advance = false;
                }
                Decision::Rescan => advance = true,
            }
        }
    }
}

/// The literal Figure 2 protocol with collect scans: `n` plain SWMR
/// registers, scans read them one at a time. **Unsafe for n ≥ 3** (see
/// the module docs and experiment E8); retained for the ablation and for
/// the n = 2 analyses, where it is exhaustively safe and matches the
/// paper's step accounting exactly.
#[derive(Clone, Copy, Debug)]
pub struct CollectAgreement {
    /// Number of processes.
    pub n: usize,
    /// The agreement parameter ε.
    pub eps: f64,
    /// Which decision-logic variant to run.
    pub variant: Variant,
}

impl CollectAgreement {
    /// The collect-scan protocol for `n` processes.
    pub fn new(n: usize, eps: f64) -> Self {
        Self::with_variant(n, eps, Variant::Full)
    }

    /// A decision-logic variant.
    pub fn with_variant(n: usize, eps: f64, variant: Variant) -> Self {
        assert!(n >= 1);
        assert!(eps > 0.0, "ε must be positive");
        CollectAgreement { n, eps, variant }
    }

    /// Initial register contents.
    pub fn registers(&self) -> Vec<AaEntry> {
        vec![AaEntry::bottom(); self.n]
    }

    /// Single-writer owner map.
    pub fn owners(&self) -> Vec<ProcId> {
        (0..self.n).collect()
    }

    /// `input(P, x)`: one read plus at most one write.
    pub fn input<C: MemCtx<AaEntry>>(&self, ctx: &mut C, x: f64) {
        let p = ctx.proc();
        let cur = ctx.read(p);
        if cur.prefer.is_none() {
            ctx.write(
                p,
                AaEntry {
                    round: 1,
                    prefer: Some(x),
                },
            );
        }
    }

    /// `output(P)` with collect scans (`n` reads per scan, index order —
    /// the paper allows any order).
    pub fn output<C: MemCtx<AaEntry>>(&self, ctx: &mut C) -> f64 {
        let p = ctx.proc();
        let mut advance = false;
        loop {
            let snap: Vec<AaEntry> = (0..self.n).map(|q| ctx.read(q)).collect();
            match decide(&snap, p, self.eps, advance, self.variant) {
                Decision::Return(v) => return v,
                Decision::Write(entry) => {
                    ctx.write(p, entry);
                    advance = false;
                }
                Decision::Rescan => advance = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::outputs_valid;
    use apram_model::sim::strategy::{BurstAdversary, SeededRandom};
    use apram_model::sim::SimBuilder;
    use apram_model::NativeMemory;

    #[test]
    fn solo_process_returns_its_input() {
        let proto = AgreementProto::new(1, 0.5);
        let mem = NativeMemory::new(1, proto.registers());
        let mut h = proto.handle();
        let mut ctx = mem.ctx(0);
        h.input(&mut ctx, 3.25);
        assert_eq!(h.output(&mut ctx), 3.25);
        assert_eq!(proto.n(), 1);
    }

    #[test]
    fn second_input_is_ignored() {
        let proto = AgreementProto::new(1, 0.5);
        let mem = NativeMemory::new(1, proto.registers());
        let mut h = proto.handle();
        let mut ctx = mem.ctx(0);
        h.input(&mut ctx, 1.0);
        h.input(&mut ctx, 9.0);
        assert_eq!(h.output(&mut ctx), 1.0);
    }

    #[test]
    #[should_panic(expected = "requires a prior input")]
    fn output_without_input_is_rejected() {
        let proto = AgreementProto::new(1, 0.5);
        let mem = NativeMemory::new(1, proto.registers());
        let mut h = proto.handle();
        let mut ctx = mem.ctx(0);
        let _ = h.output(&mut ctx);
    }

    #[test]
    fn sequential_two_process_agreement() {
        let proto = AgreementProto::new(2, 0.5);
        let mem = NativeMemory::new(2, proto.registers());
        let mut h0 = proto.handle();
        let mut h1 = proto.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.input(&mut c0, 0.0);
        h1.input(&mut c1, 1.0);
        let y0 = h0.output(&mut c0);
        let y1 = h1.output(&mut c1);
        assert!(outputs_valid(0.5, &[0.0, 1.0], &[y0, y1]), "{y0} {y1}");
    }

    /// Full correctness (validity + ε-agreement) under many random
    /// schedules — **two processes**, where Figure 2 is exhaustively
    /// safe.
    #[test]
    fn two_process_agreement_under_random_schedules() {
        for seed in 0..25u64 {
            let eps = 0.2;
            let inputs = [0.0f64, 1.0];
            let proto = AgreementProto::new(2, eps);
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(2, move |ctx| {
                    let mut h = proto.handle();
                    h.input(ctx, ctx.proc() as f64);
                    h.output(ctx)
                });
            let ys = out.unwrap_results();
            assert!(
                outputs_valid(eps, &inputs, &ys),
                "seed {seed}: outputs {ys:?} invalid"
            );
        }
    }

    /// For n ≥ 3, Figure 2 guarantees validity and termination under
    /// every schedule (Lemmas 1 and 3 hold), but **not** ε-agreement —
    /// see the E8 counterexamples in `crate::ablation` and the corrected
    /// [`crate::oneshot`] variant. This test pins down exactly the part
    /// that does hold.
    #[test]
    fn n_ge_3_validity_and_termination_under_random_schedules() {
        use crate::spec::outputs_in_range;
        for seed in 0..15u64 {
            let eps = 0.15;
            let inputs = [0.0f64, 0.9, 1.0];
            let n = inputs.len();
            let proto = AgreementProto::new(n, eps);
            let inputs_ref = &inputs;
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let mut h = proto.handle();
                    h.input(ctx, inputs_ref[ctx.proc()]);
                    h.output(ctx)
                });
            let ys = out.unwrap_results(); // termination: everyone finished
            assert!(
                outputs_in_range(&inputs, &ys),
                "seed {seed}: validity violated: {ys:?}"
            );
        }
    }

    /// Step bound, atomic realization: per process at most
    /// (rounds+2) iterations, each one snapshot (n²+n reads+writes) plus
    /// one update, with rounds ≈ log₂(Δ/ε)+O(1).
    #[test]
    fn step_bound_with_snapshot_scans() {
        for (n, delta_over_eps) in [(2usize, 16.0f64), (3, 64.0)] {
            let eps = 1.0 / delta_over_eps;
            let proto = AgreementProto::new(n, eps);
            for seed in 0..6u64 {
                let out = SimBuilder::new(proto.registers())
                    .owners(proto.owners())
                    .strategy(SeededRandom::new(seed))
                    .run_symmetric(n, move |ctx| {
                        let mut h = proto.handle();
                        h.input(ctx, ctx.proc() as f64 / (n - 1).max(1) as f64);
                        h.output(ctx)
                    });
                out.assert_no_panics();
                let scan_cost = (n * n + n) as u64; // one optimized scan
                let rounds = delta_over_eps.log2().ceil() as u64 + 4;
                let bound = (3 * rounds + 4) * scan_cost;
                for p in 0..n {
                    assert!(
                        out.counts[p].total() <= bound,
                        "n={n} Δ/ε={delta_over_eps} seed={seed}: P{p} took {} > {bound}",
                        out.counts[p].total()
                    );
                }
            }
        }
    }

    /// Wait-freedom: all but one process crash mid-protocol; the
    /// survivor still terminates with a valid output.
    #[test]
    fn survivor_terminates_despite_crashes() {
        let n = 3;
        let eps = 0.1;
        let proto = AgreementProto::new(n, eps);
        let out = SimBuilder::new(proto.registers())
            .owners(proto.owners())
            .crashes([(1, 17), (2, 31)])
            .run_symmetric(n, move |ctx| {
                let mut h = proto.handle();
                h.input(ctx, ctx.proc() as f64);
                h.output(ctx)
            });
        out.assert_no_panics();
        let y0 = out.results[0].expect("survivor must finish");
        assert!((0.0..=2.0).contains(&y0), "validity violated: {y0}");
        assert!(out.crashed[1] && out.crashed[2]);
    }

    /// Lemma 4 flavor: whenever two outputs complete (under adversarial
    /// burst schedules), they are within ε.
    #[test]
    fn agreement_under_burst_adversary() {
        for victim in 0..2 {
            for burst in [3u64, 7, 23] {
                let eps = 0.125;
                let proto = AgreementProto::new(2, eps);
                let out = SimBuilder::new(proto.registers())
                    .owners(proto.owners())
                    .strategy(BurstAdversary::new(victim, burst))
                    .run_symmetric(2, move |ctx| {
                        let mut h = proto.handle();
                        h.input(ctx, ctx.proc() as f64);
                        h.output(ctx)
                    });
                let ys = out.unwrap_results();
                assert!(
                    (ys[0] - ys[1]).abs() < eps,
                    "victim={victim} burst={burst}: {ys:?}"
                );
            }
        }
    }

    /// The object is long-lived (Figure 1's Y is a *set*): repeated
    /// outputs by the same or different processes stay within ε of each
    /// other.
    #[test]
    fn repeated_outputs_stay_within_eps() {
        let eps = 0.3;
        let proto = AgreementProto::new(2, eps);
        let mem = NativeMemory::new(2, proto.registers());
        let mut h0 = proto.handle();
        let mut h1 = proto.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.input(&mut c0, 0.0);
        h1.input(&mut c1, 1.0);
        let mut ys = Vec::new();
        for _ in 0..3 {
            ys.push(h0.output(&mut c0));
            ys.push(h1.output(&mut c1));
        }
        assert!(
            crate::spec::range_width(&ys) < eps,
            "long-lived outputs spread: {ys:?}"
        );
        assert!(outputs_valid(eps, &[0.0, 1.0], &ys));
    }

    /// Regression for the late-joiner race: P0 runs to completion alone,
    /// then P1 arrives with a far input. P1 must converge to within ε of
    /// P0's already-returned output.
    #[test]
    fn late_joiner_converges_to_early_return() {
        let eps = 0.4;
        let proto = AgreementProto::new(2, eps);
        let mem = NativeMemory::new(2, proto.registers());
        let mut h0 = proto.handle();
        let mut h1 = proto.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        h0.input(&mut c0, 0.0);
        let y0 = h0.output(&mut c0);
        h1.input(&mut c1, 1.0);
        let y1 = h1.output(&mut c1);
        assert!((y0 - y1).abs() < eps, "outputs {y0}, {y1} span ≥ ε");
        assert!(outputs_valid(eps, &[0.0, 1.0], &[y0, y1]));
    }

    /// The collect form still works sequentially and for n = 2 random
    /// schedules (its unsoundness needs n ≥ 3; the E8 witness lives in
    /// the ablation module).
    #[test]
    fn collect_form_two_process_random() {
        for seed in 0..20u64 {
            let eps = 0.2;
            let proto = CollectAgreement::new(2, eps);
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(2, move |ctx| {
                    proto.input(ctx, ctx.proc() as f64);
                    proto.output(ctx)
                });
            let ys = out.unwrap_results();
            assert!(outputs_valid(eps, &[0.0, 1.0], &ys), "seed {seed}: {ys:?}");
        }
    }

    #[test]
    fn collect_form_sequential() {
        let proto = CollectAgreement::new(2, 0.5);
        let mem = NativeMemory::new(2, proto.registers());
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        proto.input(&mut c0, 0.0);
        proto.input(&mut c0, 5.0); // ignored
        proto.input(&mut c1, 1.0);
        let y0 = proto.output(&mut c0);
        let y1 = proto.output(&mut c1);
        assert!(outputs_valid(0.5, &[0.0, 1.0], &[y0, y1]));
    }

    #[test]
    fn bottom_entry_blocks_round_one_return() {
        // While P0 is at round 1, P1's ⊥ entry is inside the window and
        // must block termination; leaders are P0 alone, so P0 advances
        // carrying its own preference.
        let snap = [
            AaEntry {
                round: 1,
                prefer: Some(0.0),
            },
            AaEntry::bottom(),
        ];
        assert_eq!(
            decide(&snap, 0, 0.4, false, Variant::Full),
            Decision::Write(AaEntry {
                round: 2,
                prefer: Some(0.0)
            })
        );
        // Once P0 reaches round 2, the ⊥ entry falls out of the window
        // and P0 may return (wait-freedom).
        let snap = [
            AaEntry {
                round: 2,
                prefer: Some(0.0),
            },
            AaEntry::bottom(),
        ];
        assert_eq!(
            decide(&snap, 0, 0.4, false, Variant::Full),
            Decision::Return(0.0)
        );
    }

    #[test]
    fn decide_matches_paper_cases() {
        let eps = 0.5;
        // Termination: everything within ε/2.
        let snap = [
            AaEntry {
                round: 1,
                prefer: Some(0.0),
            },
            AaEntry {
                round: 1,
                prefer: Some(0.2),
            },
        ];
        assert_eq!(
            decide(&snap, 0, eps, false, Variant::Full),
            Decision::Return(0.0)
        );
        // Leaders tight but E wide: advance (write midpoint of leaders).
        let snap = [
            AaEntry {
                round: 2,
                prefer: Some(1.0),
            },
            AaEntry {
                round: 1,
                prefer: Some(0.0),
            },
        ];
        assert_eq!(
            decide(&snap, 0, eps, false, Variant::Full),
            Decision::Write(AaEntry {
                round: 3,
                prefer: Some(1.0)
            })
        );
        // Leaders wide, advance unset: rescan.
        let snap = [
            AaEntry {
                round: 1,
                prefer: Some(0.0),
            },
            AaEntry {
                round: 1,
                prefer: Some(1.0),
            },
        ];
        assert_eq!(
            decide(&snap, 0, eps, false, Variant::Full),
            Decision::Rescan
        );
        // Same but advance set: write midpoint of leaders.
        assert_eq!(
            decide(&snap, 0, eps, true, Variant::Full),
            Decision::Write(AaEntry {
                round: 2,
                prefer: Some(0.5)
            })
        );
        // NoRescan writes immediately.
        assert_eq!(
            decide(&snap, 0, eps, false, Variant::NoRescan),
            Decision::Write(AaEntry {
                round: 2,
                prefer: Some(0.5)
            })
        );
        // Stale entries (round ≤ own−2) are discarded from E.
        let snap = [
            AaEntry {
                round: 3,
                prefer: Some(0.0),
            },
            AaEntry {
                round: 1,
                prefer: Some(100.0),
            },
        ];
        assert_eq!(
            decide(&snap, 0, eps, false, Variant::Full),
            Decision::Return(0.0)
        );
    }
}
