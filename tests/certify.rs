//! End-to-end wait-freedom certification (the tier-1 face of E10): the
//! certifier passes the paper's scan object under crashes, convicts the
//! lock-based snapshot with a minimized crash-pattern witness, the
//! witness replays into its contention profile, and the parallel
//! certifier is bit-identical to the sequential one.

use apram_lattice::MaxU64;
use apram_model::sim::strategy::Replay;
use apram_model::sim::{
    Budgeted, Certificate, CertifyConfig, ExploreConfig, SimBuilder, ViolationKind,
};
use apram_objects::simspec::{lock_pair, scan_pair};
use apram_snapshot::{ScanObject, SimLockSnapshot};

/// Certify the sim table's scan workload (`simspec::scan_pair`): every
/// process contributes `p + 1` with one `WriteL` and returns one
/// `ReadMax`, each an optimized scan of `n² − 1` reads and `n + 1`
/// writes — so the analytic per-process bound is `2(n² + n)`.
fn scan_certify(n: usize, f: usize, depth: usize) -> Certificate {
    let obj = ScanObject::new(n);
    let sim = SimBuilder::new(obj.registers::<MaxU64>()).owners(obj.owners());
    let bound = (2 * (n * n + n)) as u64;
    let ccfg = CertifyConfig::new(vec![bound; n])
        .explore(ExploreConfig::new().max_depth(depth).max_crashes(f));
    let (factory, check) = scan_pair(n);
    sim.certify(&ccfg, factory, check)
}

#[test]
fn scan_object_certifies_under_crashes() {
    for (n, f, depth) in [(2, 0, 8), (2, 1, 7), (2, 2, 7), (3, 1, 4), (3, 2, 4)] {
        let cert = scan_certify(n, f, depth);
        assert!(
            cert.passed(),
            "scan object failed certification at n={n} f={f}: {cert:?}"
        );
        assert!(cert.runs > 1, "n={n} f={f}: {cert:?}");
        if f > 0 {
            assert!(cert.crash_branches > 0, "n={n} f={f}: {cert:?}");
        }
        // Survivor latency respects (and under crashes stays within) the
        // analytic bound.
        let bound = (2 * (n * n + n)) as u64;
        assert!(
            cert.worst_steps.iter().all(|&s| s <= bound),
            "n={n} f={f}: {cert:?}"
        );
    }
}

fn lock_config() -> CertifyConfig {
    CertifyConfig::new([18u64; 2]).explore(ExploreConfig::new().max_depth(6).max_crashes(1))
}

#[test]
fn lock_snapshot_fails_with_minimized_crash_witness() {
    let sim = SimBuilder::new(SimLockSnapshot::registers()).max_steps(64);
    let (factory, check) = lock_pair();
    let cert = sim.certify(&lock_config(), factory, check);
    assert!(!cert.passed(), "a lock is not wait-free: {cert:?}");
    let v = cert.violation.as_ref().expect("violation witness");
    // The survivor starves on the lock spin: a step-bound conviction.
    let ViolationKind::StepBound { proc, steps, bound } = &v.kind else {
        panic!("expected a step-bound conviction, got {:?}", v.kind)
    };
    assert!(steps > bound, "{:?}", v.kind);
    assert_eq!(*proc, 1, "the spinner is the second process: {v:?}");
    // The shrinker minimizes the crash pattern *alongside* the schedule
    // — here all the way to empty: once the lock holder is simply never
    // scheduled again, the crash adds nothing. (A crash in this model
    // is permanent descheduling, so every crash-starvation witness has
    // a crash-free core.)
    assert!(v.report.crashes.is_empty(), "minimal crash pattern: {v:?}");
    assert!(v.crashed.iter().all(|&c| !c), "{v:?}");
    // Shrinking kept the witness schedule locally minimal: the holder
    // takes a step or two, the survivor spins just past its bound.
    assert!((v.report.schedule.len() as u64) <= bound + 3, "{v:?}");
}

/// The one route to a witness's contention profile: replay it, halting
/// on its schedule under its crash plan (as the certifier does), on a
/// builder that profiles.
#[test]
fn a_witness_is_profiled_by_a_halting_replay() {
    let sim = SimBuilder::new(SimLockSnapshot::registers()).max_steps(64);
    let (factory, check) = lock_pair();
    let cert = sim.certify(&lock_config(), factory, check);
    let v = cert.violation.expect("violation witness");
    let ViolationKind::StepBound { proc, steps, bound } = v.kind else {
        panic!("expected a step-bound conviction, got {:?}", v.kind)
    };
    let (mut factory, _) = lock_pair();
    let out = SimBuilder::new(SimLockSnapshot::registers())
        .max_steps(64)
        .profile(true)
        .strategy(Replay::halting(v.report.schedule.clone()))
        .crashes(v.report.crashes.clone())
        .run(factory());
    out.assert_no_panics();
    // The replay takes the witness's schedule…
    assert_eq!(out.trace.schedule(), v.report.schedule);
    // …the map covers exactly that one run…
    let map = out.contention.as_ref().expect("profiled");
    assert_eq!(map.runs, 1);
    assert_eq!(map.total_steps(), out.trace.len() as u64);
    // …and the survivor exceeds its bound as the certificate said.
    assert!(!out.crashed[proc]);
    assert_eq!(out.counts[proc].total(), steps);
    assert_eq!(map.proc_steps[proc], steps);
    assert!(steps > bound);
}

#[test]
fn parallel_certification_is_bit_identical() {
    // A passing cell…
    let obj = ScanObject::new(2);
    let sim = SimBuilder::new(obj.registers::<MaxU64>()).owners(obj.owners());
    let ccfg =
        CertifyConfig::new([12u64; 2]).explore(ExploreConfig::new().max_depth(7).max_crashes(2));
    let (factory, check) = scan_pair(2);
    let seq = sim.certify(&ccfg, factory, check);
    let par = sim.certify_parallel(&ccfg, 4, |_| scan_pair(2));
    assert!(seq.passed());
    assert_eq!(seq, par, "parallel certificate differs on the passing cell");

    // …and the failing one.
    let sim = SimBuilder::new(SimLockSnapshot::registers()).max_steps(64);
    let (factory, check) = lock_pair();
    let seq = sim.certify(&lock_config(), factory, check);
    let par = sim.certify_parallel(&lock_config(), 4, |_| lock_pair());
    assert!(!seq.passed());
    assert_eq!(seq, par, "parallel certificate differs on the failing cell");
}
