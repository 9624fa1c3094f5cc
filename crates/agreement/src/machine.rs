//! The Figure 2 protocol as an explicit, cloneable state machine.
//!
//! Lemma 6's adversary strategy is defined in terms of each process's
//! *preference*: "the value it returns if it runs by itself until
//! termination". Evaluating a preference therefore requires running a
//! **copy** of the whole system forward — something the thread-based
//! simulator cannot do, but a pure state machine can: clone, run one
//! process solo, read off the return value.
//!
//! Each [`AgreementMachine::step`] performs exactly one shared-memory
//! access (one register read or write), so adversary step counts are
//! directly comparable with the simulator's step counts and with the
//! bounds of Theorem 5 / Lemma 6. The decision logic is
//! [`crate::proto::decide`], shared verbatim with the `MemCtx` protocol.
//!
//! The machine starts *before* the `input` writes (each process's first
//! steps perform lines 1–5). This matters for the lower bound: the
//! lemma's argument opens with "initially, each process's preference is
//! its input", which holds precisely because a process running solo from
//! the start has not yet seen any other input in shared memory.

use crate::proto::{decide, AaEntry, Decision, ScanMode, Variant};
use apram_model::ProcId;
use rand::Rng;

/// Per-process protocol state.
#[derive(Clone, Debug, PartialEq)]
enum MState {
    /// About to execute `input(x)`'s read of the own register (line 2).
    InputCheck { x: f64 },
    /// About to write `entry` to the own register (input line 3 or
    /// output lines 16–17).
    Write { entry: AaEntry },
    /// Scanning. In `Collect` mode, `buf` holds registers `0..idx`
    /// already read (one register per step); in `Atomic` mode a single
    /// step captures the whole array and `idx`/`buf` stay empty.
    Scan {
        idx: usize,
        buf: Vec<AaEntry>,
        advance: bool,
    },
    /// Returned `value`.
    Done { value: f64 },
}

/// A complete approximate-agreement system (registers plus every
/// process's control state), steppable one shared access at a time.
#[derive(Clone, Debug)]
pub struct AgreementMachine {
    n: usize,
    eps: f64,
    variant: Variant,
    mode: ScanMode,
    regs: Vec<AaEntry>,
    procs: Vec<MState>,
    steps: Vec<u64>,
    scans: Vec<u64>,
}

impl AgreementMachine {
    /// A machine in which process `p` is about to run
    /// `input(inputs[p]); output()`, with atomic scans (the sound
    /// default; see [`ScanMode`]).
    pub fn new(eps: f64, inputs: Vec<f64>) -> Self {
        Self::with_config(eps, inputs, Variant::Full, ScanMode::Atomic)
    }

    /// Same, for a protocol variant (atomic scans).
    pub fn with_variant(eps: f64, inputs: Vec<f64>, variant: Variant) -> Self {
        Self::with_config(eps, inputs, variant, ScanMode::Atomic)
    }

    /// Fully parameterized constructor.
    pub fn with_config(eps: f64, inputs: Vec<f64>, variant: Variant, mode: ScanMode) -> Self {
        assert!(!inputs.is_empty());
        assert!(eps > 0.0);
        let n = inputs.len();
        AgreementMachine {
            n,
            eps,
            variant,
            mode,
            regs: vec![AaEntry::bottom(); n],
            procs: inputs.iter().map(|&x| MState::InputCheck { x }).collect(),
            steps: vec![0; n],
            scans: vec![0; n],
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The agreement parameter ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// `true` when process `p` has returned.
    pub fn is_done(&self, p: ProcId) -> bool {
        matches!(self.procs[p], MState::Done { .. })
    }

    /// The value process `p` returned, if it is done.
    pub fn result(&self, p: ProcId) -> Option<f64> {
        match self.procs[p] {
            MState::Done { value } => Some(value),
            _ => None,
        }
    }

    /// Machine steps taken by process `p` so far. In `Collect` mode
    /// every step is one register access; in `Atomic` mode a whole scan
    /// counts as one step (realizing it with the Section 6 snapshot
    /// costs `n²−1` reads and `n+1` writes per scan — see
    /// [`Self::register_ops_taken`]).
    pub fn steps_taken(&self, p: ProcId) -> u64 {
        self.steps[p]
    }

    /// Completed scans by process `p` (both modes).
    pub fn scans_taken(&self, p: ProcId) -> u64 {
        self.scans[p]
    }

    /// Shared-register operations `p` has cost *when every atomic scan
    /// is realized with the Section 6 snapshot* (`n²−1` reads + `n+1`
    /// writes per scan; non-scan steps are single accesses). In
    /// `Collect` mode this equals [`Self::steps_taken`].
    pub fn register_ops_taken(&self, p: ProcId) -> u64 {
        match self.mode {
            ScanMode::Collect => self.steps[p],
            ScanMode::Atomic => {
                let scan_cost = (self.n * self.n + self.n) as u64;
                self.steps[p] - self.scans[p] + self.scans[p] * scan_cost
            }
        }
    }

    /// The current register array (for assertions and experiments).
    pub fn registers(&self) -> &[AaEntry] {
        &self.regs
    }

    /// Advance process `p` by exactly one shared-memory access.
    ///
    /// # Panics
    /// Panics if `p` is already done (a done process takes no steps).
    pub fn step(&mut self, p: ProcId) {
        self.steps[p] += 1;
        match std::mem::replace(&mut self.procs[p], MState::Done { value: f64::NAN }) {
            MState::InputCheck { x } => {
                // Line 2: read own register; adopt x only if still ⊥.
                let cur = self.regs[p];
                self.procs[p] = if cur.prefer.is_none() {
                    MState::Write {
                        entry: AaEntry {
                            round: 1,
                            prefer: Some(x),
                        },
                    }
                } else {
                    MState::Scan {
                        idx: 0,
                        buf: Vec::new(),
                        advance: false,
                    }
                };
            }
            MState::Write { entry } => {
                self.regs[p] = entry;
                self.procs[p] = MState::Scan {
                    idx: 0,
                    buf: Vec::new(),
                    advance: false,
                };
            }
            MState::Scan {
                mut idx,
                mut buf,
                advance,
            } => {
                match self.mode {
                    ScanMode::Collect => {
                        buf.push(self.regs[idx]);
                        idx += 1;
                        if idx < self.n {
                            self.procs[p] = MState::Scan { idx, buf, advance };
                            return;
                        }
                    }
                    ScanMode::Atomic => {
                        // One step captures an instantaneous view.
                        buf = self.regs.clone();
                    }
                }
                // Scan complete: evaluate lines 11–19 locally.
                self.scans[p] += 1;
                self.procs[p] = match decide(&buf, p, self.eps, advance, self.variant) {
                    Decision::Return(value) => MState::Done { value },
                    Decision::Write(entry) => MState::Write { entry },
                    Decision::Rescan => MState::Scan {
                        idx: 0,
                        buf: Vec::new(),
                        advance: true,
                    },
                };
            }
            MState::Done { .. } => panic!("process {p} already returned"),
        }
    }

    /// Run process `p` solo until it returns; the return value is `p`'s
    /// *preference* in the sense of Lemma 6. Bounded by `max_steps` as a
    /// safety net against livelock bugs.
    pub fn run_solo(&mut self, p: ProcId, max_steps: u64) -> f64 {
        let mut taken = 0;
        while !self.is_done(p) {
            self.step(p);
            taken += 1;
            assert!(
                taken <= max_steps,
                "process {p} exceeded {max_steps} solo steps — livelock?"
            );
        }
        self.result(p).unwrap()
    }

    /// `p`'s preference: the value it would return running alone from
    /// the current state. Pure lookahead on a clone.
    pub fn preference(&self, p: ProcId) -> f64 {
        let mut copy = self.clone();
        copy.run_solo(p, 10_000_000)
    }

    /// Run every process to completion under round-robin and return the
    /// outputs (a quick way to get a full execution from any state).
    pub fn run_all_round_robin(&mut self, max_steps: u64) -> Vec<f64> {
        let mut taken = 0;
        loop {
            let mut any = false;
            for p in 0..self.n {
                if !self.is_done(p) {
                    self.step(p);
                    any = true;
                    taken += 1;
                    assert!(taken <= max_steps, "round-robin exceeded {max_steps} steps");
                }
            }
            if !any {
                break;
            }
        }
        self.outputs()
    }

    /// Run every process to completion under a uniformly random
    /// schedule — each step goes to a process drawn uniformly from the
    /// ones still running — and return the schedule taken.
    pub fn run_random(&mut self, rng: &mut impl Rng) -> Vec<ProcId> {
        let mut schedule = Vec::new();
        loop {
            let live: Vec<ProcId> = (0..self.n).filter(|&p| !self.is_done(p)).collect();
            if live.is_empty() {
                return schedule;
            }
            let p = live[rng.gen_range(0..live.len())];
            self.step(p);
            schedule.push(p);
        }
    }

    /// Every process's return value.
    ///
    /// # Panics
    /// Panics if a process is still running.
    pub fn outputs(&self) -> Vec<f64> {
        (0..self.n).map(|p| self.result(p).unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{AgreementProto, CollectAgreement, ScanMode};
    use crate::spec::outputs_valid;
    use apram_model::sim::strategy::Replay;
    use apram_model::sim::SimBuilder;
    use apram_model::MemCtx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solo_machine_returns_input() {
        let mut m = AgreementMachine::new(0.5, vec![2.5]);
        let v = m.run_solo(0, 1000);
        assert_eq!(v, 2.5);
        assert!(m.is_done(0));
        assert_eq!(m.result(0), Some(2.5));
        assert_eq!(m.n(), 1);
        assert_eq!(m.eps(), 0.5);
    }

    /// Lemma 6's opening claim: "Initially, each process's preference is
    /// its input" — a solo run from the start sees no other input.
    #[test]
    fn initial_preference_is_the_input() {
        let m = AgreementMachine::new(0.25, vec![0.0, 1.0]);
        assert_eq!(m.preference(0), 0.0);
        assert_eq!(m.preference(1), 1.0);
        // Lookahead is non-destructive:
        assert!(!m.is_done(0) && !m.is_done(1));
        assert_eq!(m.steps_taken(0), 0);
    }

    /// A preference changes only via *another* process's steps.
    #[test]
    fn own_steps_preserve_preference() {
        let mut m = AgreementMachine::new(0.25, vec![0.0, 1.0]);
        for _ in 0..5 {
            let before = m.preference(0);
            m.step(0);
            if m.is_done(0) {
                break;
            }
            assert_eq!(m.preference(0), before, "own step changed preference");
        }
    }

    #[test]
    fn round_robin_run_agrees() {
        for eps in [0.5, 0.1, 0.01] {
            let mut m = AgreementMachine::new(eps, vec![0.0, 1.0, 0.3]);
            let ys = m.run_all_round_robin(1_000_000);
            assert!(
                outputs_valid(eps, &[0.0, 1.0, 0.3], &ys),
                "eps={eps}: {ys:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "already returned")]
    fn stepping_done_process_panics() {
        let mut m = AgreementMachine::new(0.5, vec![1.0]);
        m.run_solo(0, 1000);
        m.step(0);
    }

    /// The collect-mode machine and the collect `MemCtx` protocol are
    /// the same algorithm: drive both with the same schedule (including
    /// the input steps) and compare outputs and step counts exactly.
    /// (n = 2 only: the collect form is the sound one there.)
    #[test]
    fn machine_matches_collect_proto_under_identical_schedules() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..25usize {
            let n = 2;
            let eps = [0.5, 0.25, 0.125][trial % 3];
            let inputs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();

            // Drive the machine with a random schedule, recording it.
            let mut m = AgreementMachine::with_config(
                eps,
                inputs.clone(),
                Variant::Full,
                ScanMode::Collect,
            );
            let schedule = m.run_random(&mut rng);
            let machine_results = m.outputs();
            let machine_steps: Vec<u64> = (0..n).map(|p| m.steps_taken(p)).collect();

            // Replay the same schedule through the simulator, running
            // the full input-then-output bodies on ⊥ registers.
            let proto = CollectAgreement::new(n, eps);
            let inputs_ref = &inputs;
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(Replay::strict(schedule))
                .run_symmetric(n, move |ctx| {
                    proto.input(ctx, inputs_ref[ctx.proc()]);
                    proto.output(ctx)
                });
            let sim_counts = out.counts.clone();
            let proto_results = out.unwrap_results();
            assert_eq!(machine_results, proto_results, "trial {trial}");
            for p in 0..n {
                assert_eq!(
                    machine_steps[p],
                    sim_counts[p].total(),
                    "trial {trial} P{p} step counts diverge"
                );
            }
        }
    }

    /// The atomic-mode machine and the snapshot-based protocol both
    /// terminate with *valid* outputs on the same inputs (ε-agreement
    /// is asserted only for n = 2 elsewhere; for n ≥ 3 it can fail —
    /// the E8 finding — so this checks the guarantees that do hold).
    #[test]
    fn atomic_machine_and_proto_both_valid() {
        use crate::spec::outputs_in_range;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = 3;
            let eps = 0.15;
            let inputs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let mut m = AgreementMachine::new(eps, inputs.clone());
            let ys = m.run_all_round_robin(10_000_000);
            assert!(outputs_in_range(&inputs, &ys), "machine: {ys:?}");
            assert!(m.scans_taken(0) >= 1);
            assert!(m.register_ops_taken(0) >= m.steps_taken(0));

            let proto = AgreementProto::new(n, eps);
            let inputs_ref = &inputs;
            let out = SimBuilder::new(proto.registers())
                .owners(proto.owners())
                .strategy(apram_model::sim::strategy::RoundRobin::new())
                .run_symmetric(n, move |ctx| {
                    let mut h = proto.handle();
                    h.input(ctx, inputs_ref[ctx.proc()]);
                    h.output(ctx)
                });
            let ys = out.unwrap_results();
            assert!(outputs_in_range(&inputs, &ys), "proto: {ys:?}");
        }
    }

    #[test]
    fn variants_construct() {
        let m = AgreementMachine::with_variant(0.5, vec![0.0, 1.0], Variant::NoRescan);
        assert_eq!(m.registers().len(), 2);
        let m2 = AgreementMachine::with_variant(0.5, vec![0.0, 1.0], Variant::MidpointOfAll);
        assert!(
            m2.registers()[1].prefer.is_none(),
            "pre-input registers are ⊥"
        );
        let m3 =
            AgreementMachine::with_config(0.5, vec![0.0, 1.0], Variant::Full, ScanMode::Collect);
        assert_eq!(m3.n(), 2);
    }
}
