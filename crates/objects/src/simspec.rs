//! The simulator object factory: the sim-side twin of [`crate::spec`].
//!
//! The E10 certification grid, the E11 tail-latency grid, and the
//! config-driven sweep harness all instantiate the same five snapshot
//! constructions under the deterministic simulator. Before this module
//! each harness carried its own per-object `match` (object name → build
//! the registers, plant the recorder, pick the bound). Here each object
//! is one [`SimObjectSpec`]: its analytic step bound, its exploration
//! quirks (the lock control's step cap and tail-only sampling), and how
//! to run a sampled or exhaustive cell over it.
//!
//! The recorder-backed `(factory, check)` workload machinery
//! ([`e10_pair`] and the per-object bodies) lives here too, public, so
//! the E10 driver's sequential/parallel agreement check can reuse the
//! identical workloads the registry dispatches.

use apram_history::check::{check_linearizable_det, CheckerConfig};
use apram_history::Recorder;
use apram_lattice::{MaxU64, Tagged, TaggedVec};
use apram_model::sim::{
    Certificate, CertifyConfig, ProcBody, SampleConfig, SampleReport, SimBuilder, SimCtx,
    SimOutcome,
};
use apram_snapshot::afek::{AfekReg, AfekSnapshot};
use apram_snapshot::collect::{CollectArray, DoubleCollect};
use apram_snapshot::lock::SimLockSnapshot;
use apram_snapshot::snapshot::{SnapOp, SnapResp, SnapshotSpec};
use apram_snapshot::{ScanHandle, ScanObject, Snapshot};
use std::sync::{Arc, Mutex};

/// The sim-checkable objects, in canonical grid order (`lock` is the
/// negative control).
pub const SIM_OBJECTS: [&str; 5] = ["snapshot", "afek", "double-collect", "scan", "lock"];

/// One sim-checkable object: bounds, exploration quirks, and cell
/// runners.
pub trait SimObjectSpec: Sync {
    /// Registry name (one of [`SIM_OBJECTS`]).
    fn name(&self) -> &'static str;

    /// Analytic per-process step bound at `n` processes (the bound the
    /// E10 grid certifies against; `lock`'s is the reference bound its
    /// tail is expected to blow through).
    fn bound(&self, n: usize) -> u64;

    /// Step cap for *sampled* runs: wait-free objects terminate on
    /// their own under any schedule; the lock control needs a hard cap
    /// or a crashed lock holder starves the survivor forever.
    fn max_steps_sampled(&self) -> Option<u64> {
        None
    }

    /// Whether sampled cells only record the tail (the lock control:
    /// its breaches are the *finding*, not a counterexample worth
    /// shrinking on every sweep).
    fn tail_only(&self) -> bool {
        false
    }

    /// Some objects only instantiate at one size (the lock control is a
    /// 2-process object).
    fn fixed_n(&self) -> Option<usize> {
        None
    }

    /// Default exhaustive branching depth for an `(n, f)` cell.
    fn default_depth(&self, n: usize, f: usize) -> usize {
        e10_depth(n, f)
    }

    /// Run one sampled cell (`threads` workers, shared `scfg`).
    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport;

    /// Run one exhaustive cell through the fault-aware certifier
    /// (bit-identical across thread counts by the certifier's own
    /// guarantee).
    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate;
}

/// Every registered sim spec, in [`SIM_OBJECTS`] order.
pub fn sim_specs() -> &'static [&'static dyn SimObjectSpec] {
    static SPECS: [&dyn SimObjectSpec; 5] = [
        &SnapshotSim,
        &AfekSim,
        &DoubleCollectSim,
        &ScanSim,
        &LockSim,
    ];
    &SPECS
}

/// Look up a sim spec by registry name.
pub fn sim_spec(name: &str) -> Option<&'static dyn SimObjectSpec> {
    sim_specs().iter().find(|s| s.name() == name).copied()
}

// ---------------------------------------------------------------------------
// The shared recorder-backed workload machinery (E10's cells)

/// A fresh `(factory, check)` pair wired through a recorder cell: the
/// factory plants a new [`Recorder`] per run, the check linearizes the
/// (possibly crash-truncated) history against [`SnapshotSpec`]. Each
/// call builds an independent cell, so `certify_parallel` workers never
/// share state.
#[allow(clippy::type_complexity)]
pub fn e10_pair<T, FBodies>(
    n: usize,
    mut bodies: FBodies,
) -> (
    impl FnMut() -> Vec<ProcBody<'static, T, ()>> + Send,
    impl FnMut(&SimOutcome<T, ()>) -> bool + Send,
)
where
    T: Clone + Send + Sync + 'static,
    FBodies: FnMut(Recorder<SnapOp<u32>, SnapResp<u32>>) -> Vec<ProcBody<'static, T, ()>> + Send,
{
    let cell: Arc<Mutex<Option<Recorder<SnapOp<u32>, SnapResp<u32>>>>> = Arc::new(Mutex::new(None));
    let fcell = Arc::clone(&cell);
    let factory = move || {
        let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
        *fcell.lock().unwrap() = Some(rec.clone());
        bodies(rec)
    };
    let spec = SnapshotSpec::<u32>::new(n);
    let check = move |_out: &SimOutcome<T, ()>| {
        // The det checker: a crashed process's pending op may have taken
        // visible effect, so the check must be allowed to complete it,
        // which the det checker always does; the strict nondet entry
        // point would reject such histories.
        let hist = cell.lock().unwrap().take().unwrap().snapshot();
        check_linearizable_det(&spec, &hist, &CheckerConfig::default()).is_ok()
    };
    (factory, check)
}

/// Workload bodies for the lattice-based atomic snapshot: each process
/// records one `update(p+1)` then one `snap`.
pub fn e10_snapshot_bodies(
    snap: Snapshot,
    rec: Recorder<SnapOp<u32>, SnapResp<u32>>,
) -> Vec<ProcBody<'static, TaggedVec<u32>, ()>> {
    (0..snap.n())
        .map(|p| {
            let rec = rec.clone();
            Box::new(move |ctx: &mut SimCtx<TaggedVec<u32>>| {
                let mut h = snap.handle::<u32>();
                rec.record(p, SnapOp::Update(p as u32 + 1), || {
                    h.update(ctx, p as u32 + 1);
                    SnapResp::Ack
                });
                rec.invoke(p, SnapOp::Snap);
                let view = h.snap(ctx);
                rec.respond(p, SnapResp::View(view));
            }) as ProcBody<'static, TaggedVec<u32>, ()>
        })
        .collect()
}

/// Same workload over Afek et al.'s single-writer snapshot, in its
/// unbounded-sequence-number form.
pub fn e10_afek_bodies(
    snap: AfekSnapshot,
    rec: Recorder<SnapOp<u32>, SnapResp<u32>>,
) -> Vec<ProcBody<'static, AfekReg<u32>, ()>> {
    (0..snap.n())
        .map(|p| {
            let rec = rec.clone();
            Box::new(move |ctx: &mut SimCtx<AfekReg<u32>>| {
                rec.record(p, SnapOp::Update(p as u32 + 1), || {
                    snap.update(ctx, p as u32 + 1);
                    SnapResp::Ack
                });
                rec.invoke(p, SnapOp::Snap);
                let view = snap.snap(ctx);
                rec.respond(p, SnapResp::View(view));
            }) as ProcBody<'static, AfekReg<u32>, ()>
        })
        .collect()
}

/// Same workload over the double-collect snapshot (wait-free here
/// because every process performs exactly one update).
pub fn e10_collect_bodies(
    arr: CollectArray,
    rec: Recorder<SnapOp<u32>, SnapResp<u32>>,
) -> Vec<ProcBody<'static, Tagged<u32>, ()>> {
    (0..arr.n())
        .map(|p| {
            let rec = rec.clone();
            Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                let mut h = DoubleCollect::new(arr);
                rec.record(p, SnapOp::Update(p as u32 + 1), || {
                    h.update(ctx, p as u32 + 1);
                    SnapResp::Ack
                });
                rec.invoke(p, SnapOp::Snap);
                let view = h.snap(ctx);
                rec.respond(p, SnapResp::View(view));
            }) as ProcBody<'static, Tagged<u32>, ()>
        })
        .collect()
}

/// Branching depth per cell, chosen so the depth-truncated tree
/// exhausts well inside the run budget (the certificate demands
/// `exhausted`). Crash branches widen the tree, so the depth shrinks
/// with `n` and `f`.
pub fn e10_depth(n: usize, f: usize) -> usize {
    match (n, f) {
        (2, 0) => 10,
        (2, _) => 8,
        (_, 0) => 7,
        (_, 1) => 6,
        _ => 5,
    }
}

/// Workload factory/check pair for the paper's scan object: one
/// `write_l` + one `read_max` per process (an optimized scan each), the
/// check validating every survivor's max against its own contribution.
#[allow(clippy::type_complexity)]
pub fn scan_pair(
    n: usize,
) -> (
    impl FnMut() -> Vec<ProcBody<'static, MaxU64, MaxU64>> + Send,
    impl FnMut(&SimOutcome<MaxU64, MaxU64>) -> bool + Send,
) {
    let obj = ScanObject::new(n);
    let factory = move || {
        (0..n)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<MaxU64>| {
                    let mut h: ScanHandle<MaxU64> = ScanHandle::new(obj);
                    h.write_l(ctx, MaxU64(p as u64 + 1));
                    h.read_max(ctx)
                }) as ProcBody<'static, MaxU64, MaxU64>
            })
            .collect()
    };
    let check = move |out: &SimOutcome<MaxU64, MaxU64>| {
        (0..n).all(|p| match &out.results[p] {
            Some(MaxU64(v)) => *v > p as u64 && *v <= n as u64,
            None => out.crashed[p] || out.panics[p].is_some(),
        })
    };
    (factory, check)
}

/// Workload pair for the lock-based snapshot negative control (n = 2;
/// the step-bound judge alone is in question, so the semantic check
/// accepts everything).
#[allow(clippy::type_complexity)]
pub fn lock_pair() -> (
    impl FnMut() -> Vec<ProcBody<'static, u64, ()>> + Send,
    impl FnMut(&SimOutcome<u64, ()>) -> bool + Send,
) {
    let factory = || {
        (0..2usize)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<u64>| {
                    let _ = SimLockSnapshot::update_snap(ctx, p as u64 + 1);
                }) as ProcBody<'static, u64, ()>
            })
            .collect::<Vec<_>>()
    };
    (factory, |_: &SimOutcome<u64, ()>| true)
}

// ---------------------------------------------------------------------------
// The five specs

struct SnapshotSim;

impl SimObjectSpec for SnapshotSim {
    fn name(&self) -> &'static str {
        "snapshot"
    }

    fn bound(&self, n: usize) -> u64 {
        (2 * (n * n + n)) as u64
    }

    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport {
        let snap = Snapshot::new(n);
        let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
        sim.sample_parallel(scfg, threads, |_| {
            e10_pair(n, move |rec| e10_snapshot_bodies(snap, rec))
        })
    }

    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate {
        let snap = Snapshot::new(n);
        let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
        sim.certify_parallel(ccfg, threads, |_| {
            e10_pair(n, move |rec| e10_snapshot_bodies(snap, rec))
        })
    }
}

struct AfekSim;

impl SimObjectSpec for AfekSim {
    fn name(&self) -> &'static str {
        "afek"
    }

    fn bound(&self, n: usize) -> u64 {
        (2 * n * (n + 2) + 2) as u64
    }

    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport {
        let afek = AfekSnapshot::new(n);
        let sim = SimBuilder::new(afek.registers::<u32>()).owners(afek.owners());
        sim.sample_parallel(scfg, threads, |_| {
            e10_pair(n, move |rec| e10_afek_bodies(afek, rec))
        })
    }

    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate {
        let afek = AfekSnapshot::new(n);
        let sim = SimBuilder::new(afek.registers::<u32>()).owners(afek.owners());
        sim.certify_parallel(ccfg, threads, |_| {
            e10_pair(n, move |rec| e10_afek_bodies(afek, rec))
        })
    }
}

struct DoubleCollectSim;

impl SimObjectSpec for DoubleCollectSim {
    fn name(&self) -> &'static str {
        "double-collect"
    }

    fn bound(&self, n: usize) -> u64 {
        (n * (n + 2) + 1) as u64
    }

    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport {
        let arr = CollectArray::new(n);
        let sim = SimBuilder::new(arr.registers::<u32>()).owners(arr.owners());
        sim.sample_parallel(scfg, threads, |_| {
            e10_pair(n, move |rec| e10_collect_bodies(arr, rec))
        })
    }

    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate {
        let arr = CollectArray::new(n);
        let sim = SimBuilder::new(arr.registers::<u32>()).owners(arr.owners());
        sim.certify_parallel(ccfg, threads, |_| {
            e10_pair(n, move |rec| e10_collect_bodies(arr, rec))
        })
    }
}

struct ScanSim;

impl SimObjectSpec for ScanSim {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn bound(&self, n: usize) -> u64 {
        (2 * (n * n + n)) as u64
    }

    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport {
        let obj = ScanObject::new(n);
        let sim = SimBuilder::new(obj.registers::<MaxU64>()).owners(obj.owners());
        sim.sample_parallel(scfg, threads, |_| scan_pair(n))
    }

    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate {
        let obj = ScanObject::new(n);
        let sim = SimBuilder::new(obj.registers::<MaxU64>()).owners(obj.owners());
        sim.certify_parallel(ccfg, threads, |_| scan_pair(n))
    }
}

struct LockSim;

impl SimObjectSpec for LockSim {
    fn name(&self) -> &'static str {
        "lock"
    }

    fn bound(&self, _n: usize) -> u64 {
        18
    }

    fn max_steps_sampled(&self) -> Option<u64> {
        Some(512)
    }

    fn tail_only(&self) -> bool {
        true
    }

    fn fixed_n(&self) -> Option<usize> {
        Some(2)
    }

    fn default_depth(&self, _n: usize, _f: usize) -> usize {
        6
    }

    fn sample(&self, scfg: &SampleConfig, n: usize, threads: usize) -> SampleReport {
        assert_eq!(n, 2, "the lock control is a 2-process object");
        let sim = SimBuilder::new(SimLockSnapshot::registers())
            .max_steps(self.max_steps_sampled().unwrap());
        sim.sample_parallel(scfg, threads, |_| lock_pair())
    }

    fn certify(&self, ccfg: &CertifyConfig, n: usize, threads: usize) -> Certificate {
        assert_eq!(n, 2, "the lock control is a 2-process object");
        // Exhaustive cells cap tighter than sampled ones: the certifier
        // must exhaust the tree, and 64 steps already convicts.
        let sim = SimBuilder::new(SimLockSnapshot::registers()).max_steps(64);
        sim.certify_parallel(ccfg, threads, |_| lock_pair())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_model::sim::{Budgeted, ExploreConfig};

    #[test]
    fn registry_is_complete_and_consistent() {
        assert_eq!(sim_specs().len(), SIM_OBJECTS.len());
        for (spec, name) in sim_specs().iter().zip(SIM_OBJECTS) {
            assert_eq!(spec.name(), name);
            let n = spec.fixed_n().unwrap_or(3);
            assert!(spec.bound(n) > 0, "{name}");
            assert!(spec.default_depth(n, 0) > 0, "{name}");
        }
        assert!(sim_spec("lock").is_some());
        assert!(sim_spec("nope").is_none());
    }

    /// Every wait-free spec certifies a small cell; the lock control
    /// fails its (that's the point of the negative control).
    #[test]
    fn small_cells_certify_as_expected() {
        for spec in sim_specs() {
            let n = spec.fixed_n().unwrap_or(2);
            let depth = spec.default_depth(n, 0).min(6);
            let ccfg = CertifyConfig::new(vec![spec.bound(n); n])
                .explore(ExploreConfig::new().max_depth(depth).max_crashes(0));
            let cert = spec.certify(&ccfg, n, 2);
            let expect_pass = spec.name() != "lock";
            assert_eq!(cert.passed(), expect_pass, "{}", spec.name());
        }
    }
}
