//! PR acceptance: sequential-vs-parallel exploration equivalence.
//!
//! The parallel explorer must be a drop-in replacement for the
//! sequential one: identical `runs` counts, identical exhaustion and
//! truncation flags, bit-identical step accounting, identical sleep-set
//! pruning totals, and — when the workload violates — the same
//! canonical-order first violation, for every thread count. The batch
//! history checker must likewise agree with a sequential map. The
//! certifier and the shrinker run on the same pooled engine as the
//! explorers, and are held to the same equality.

use apram_bench::{e9_factory, E9RecCell, E9_PROCS};
use apram_history::{check_histories_parallel, check_linearizable, CheckerConfig};
use apram_lattice::{Tagged, TaggedVec};
use apram_model::sim::{
    Budgeted, CertifyConfig, ExploreConfig, ProcBody, SimBuilder, SimCtx, SimOutcome, ViolationKind,
};
use apram_snapshot::collect::CollectArray;
use apram_snapshot::snapshot::SnapshotSpec;
use apram_snapshot::Snapshot;
use std::sync::{Arc, Mutex};

/// A clean (always linearizable) 2-process snapshot workload whose
/// written values vary with `seed`, so distinct seeds produce distinct
/// executions over the same tree shape.
fn snapshot_make(
    snap: Snapshot,
    seed: u64,
) -> impl FnMut() -> Vec<ProcBody<'static, TaggedVec<u32>, ()>> + Copy + Send {
    move || {
        (0..2usize)
            .map(|p| {
                let v = (seed as u32).wrapping_mul(31) + p as u32 + 1;
                Box::new(move |ctx: &mut SimCtx<TaggedVec<u32>>| {
                    let mut h = snap.handle::<u32>();
                    h.update(ctx, v);
                    let _ = h.snap(ctx);
                }) as ProcBody<'static, TaggedVec<u32>, ()>
            })
            .collect()
    }
}

#[test]
fn clean_snapshot_counts_match_sequential_across_seeds_and_threads() {
    for seed in [0u64, 1, 2] {
        let snap = Snapshot::new(2);
        // Vary the truncation depth with the seed so each seed explores
        // a differently sized tree.
        let econfig = ExploreConfig::new().max_depth(9 + seed as usize);
        let make = snapshot_make(snap, seed);
        let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
        let seq = sim.explore(&econfig, make, |out| {
            out.assert_no_panics();
            true
        });
        assert!(seq.violation.is_none());
        assert!(seq.runs > 100, "tree unexpectedly small: {seq:?}");
        for threads in [1usize, 2, 4] {
            let par = sim.explore_parallel(&econfig, threads, |_| {
                (make, |out: &SimOutcome<TaggedVec<u32>, ()>| {
                    out.assert_no_panics();
                    true
                })
            });
            let tag = format!("seed={seed} threads={threads}");
            assert_eq!(par.runs, seq.runs, "{tag}");
            assert_eq!(par.exhausted, seq.exhausted, "{tag}");
            assert_eq!(par.truncated, seq.truncated, "{tag}");
            assert_eq!(par.executed_steps, seq.executed_steps, "{tag}");
            assert_eq!(par.replayed_steps, seq.replayed_steps, "{tag}");
            assert_eq!(par.max_depth_reached, seq.max_depth_reached, "{tag}");
            assert!(par.violation.is_none(), "{tag}");
        }
    }
}

/// PR acceptance: sequential and parallel exploration of the same tree
/// produce *identical merged telemetry* — the per-run step histograms
/// (bucket-exact, hence every quantile) and run counters recorded
/// through a sharded [`TelemetryRegistry`] agree regardless of how the
/// schedules were distributed over workers.
#[test]
fn merged_telemetry_is_identical_across_sequential_and_parallel() {
    use apram_model::TelemetryRegistry;
    let snap = Snapshot::new(2);
    let econfig = ExploreConfig::new().max_depth(10);
    let make = snapshot_make(snap, 3);
    let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());

    // Sequential reference: one shard records every run.
    let seq_reg = TelemetryRegistry::new(1);
    let hist = seq_reg.histogram("run_steps");
    let runs = seq_reg.counter("runs");
    let seq = sim.explore(&econfig, make, |out| {
        out.assert_no_panics();
        let steps: u64 = out.counts.iter().map(|c| c.reads + c.writes).sum();
        hist.record(0, steps);
        runs.inc(0);
        true
    });
    assert!(seq.runs > 100, "tree unexpectedly small: {seq:?}");
    let seq_hist = seq_reg.histogram_snapshot("run_steps").unwrap();
    assert_eq!(seq_hist.count, seq.runs);

    // Parallel: four workers, each recording into its own shard; the
    // merged view must be bit-identical to the sequential one.
    let threads = 4;
    let par_reg = TelemetryRegistry::new(threads);
    let par = sim.explore_parallel(&econfig, threads, |worker| {
        let hist = par_reg.histogram("run_steps");
        let runs = par_reg.counter("runs");
        let visit = move |out: &SimOutcome<TaggedVec<u32>, ()>| {
            out.assert_no_panics();
            let steps: u64 = out.counts.iter().map(|c| c.reads + c.writes).sum();
            hist.record(worker, steps);
            runs.inc(worker);
            true
        };
        (make, visit)
    });
    assert_eq!(par.runs, seq.runs);
    let par_hist = par_reg.histogram_snapshot("run_steps").unwrap();
    assert_eq!(
        par_hist, seq_hist,
        "merged histograms must be bit-identical"
    );
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(par_hist.quantile(q), seq_hist.quantile(q), "q={q}");
    }
    assert_eq!(par_hist.max, seq_hist.max);
    assert_eq!(par_reg.counter_total("runs"), seq_reg.counter_total("runs"));

    // Per-worker accounting: every run is owned by exactly one worker.
    assert_eq!(par.worker_runs.len(), threads);
    assert_eq!(par.worker_runs.iter().sum::<u64>(), par.runs);
    assert_eq!(
        (0..threads)
            .map(|w| { par_reg.histogram("run_steps").shard_snapshot(w).count })
            .sum::<u64>(),
        par.runs
    );
}

#[test]
fn reduced_counts_and_pruning_match_sequential() {
    let snap = Snapshot::new(2);
    let econfig = ExploreConfig::new().max_depth(10);
    let make = snapshot_make(snap, 7);
    let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
    let seq = sim.explore_reduced(&econfig, make, |out| {
        out.assert_no_panics();
        true
    });
    assert!(seq.sleep_skips > 0, "reduction must prune: {seq:?}");
    for threads in [1usize, 2, 4] {
        let par = sim.explore_reduced_parallel(&econfig, threads, |_| {
            (make, |out: &SimOutcome<TaggedVec<u32>, ()>| {
                out.assert_no_panics();
                true
            })
        });
        assert_eq!(par.runs, seq.runs, "threads={threads}");
        assert_eq!(par.exhausted, seq.exhausted, "threads={threads}");
        assert_eq!(par.truncated, seq.truncated, "threads={threads}");
        assert_eq!(par.executed_steps, seq.executed_steps, "threads={threads}");
        assert_eq!(par.replayed_steps, seq.replayed_steps, "threads={threads}");
        assert_eq!(par.sleep_skips, seq.sleep_skips, "threads={threads}");
    }
}

#[test]
fn naive_collect_violator_yields_identical_first_violation() {
    let arr = CollectArray::new(E9_PROCS);
    let spec = SnapshotSpec::<u32>::new(E9_PROCS);
    let econfig = ExploreConfig::new().shrink(true);

    // Sequential reference: first violation in canonical DFS order.
    let cell: E9RecCell = Arc::new(Mutex::new(None));
    let visit_cell = Arc::clone(&cell);
    let seq = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .explore(&econfig, e9_factory(arr, Arc::clone(&cell)), |out| {
            out.assert_no_panics();
            let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
            check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok()
        });
    let seq_report = seq.violation.expect("naive collect must violate");

    for threads in [1usize, 2, 4] {
        let spec = &spec;
        let par = SimBuilder::new(arr.registers::<u32>())
            .owners(arr.owners())
            .explore_parallel(&econfig, threads, |_| {
                let cell: E9RecCell = Arc::new(Mutex::new(None));
                let visit_cell = Arc::clone(&cell);
                let make = e9_factory(arr, cell);
                let visit = move |out: &SimOutcome<Tagged<u32>, ()>| {
                    out.assert_no_panics();
                    let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
                    check_linearizable(spec, &hist, &CheckerConfig::default()).is_ok()
                };
                (make, visit)
            });
        let report = par.violation.expect("parallel must find the violation");
        // Canonical first-violation selection: the captured schedule —
        // and hence the shrunk one — is the sequential explorer's,
        // regardless of which worker stumbled on a violation first.
        assert_eq!(report.original, seq_report.original, "threads={threads}");
        assert_eq!(report.schedule, seq_report.schedule, "threads={threads}");
        assert!(!par.exhausted, "threads={threads}");
    }
}

/// Sequential and parallel certification agree bit for bit — counters,
/// worst steps, and on a violation the whole classified, minimized
/// witness with its shrink accounting — on a passing box and on a
/// failing one.
#[test]
fn certificates_match_sequential_on_pass_and_on_violation() {
    let snap = Snapshot::new(2);
    let make = snapshot_make(snap, 11);
    let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
    let explore = ExploreConfig::new().max_depth(8).max_crashes(1);
    for (bound, passes) in [(10_000u64, true), (3, false)] {
        let ccfg = CertifyConfig::new(vec![bound; 2]).explore(explore.clone());
        let seq = sim.certify(&ccfg, make, |out| {
            out.assert_no_panics();
            true
        });
        assert_eq!(seq.passed(), passes, "bound={bound}: {seq:?}");
        if let Some(v) = &seq.violation {
            assert!(matches!(v.kind, ViolationKind::StepBound { .. }), "{v:?}");
            assert!(v.report.stats.attempts > 0);
        }
        for threads in [1usize, 2, 4] {
            let par = sim.certify_parallel(&ccfg, threads, |_| {
                (make, |out: &SimOutcome<TaggedVec<u32>, ()>| {
                    out.assert_no_panics();
                    true
                })
            });
            assert_eq!(par, seq, "bound={bound} threads={threads}");
        }
    }
}

/// The shrinker is deterministic wherever it runs: the report the
/// sequential explorer attaches to its violation, the one the parallel
/// engine attaches, and a direct `SimBuilder::shrink` of the same witness
/// are equal in every field, attempt counts included.
#[test]
fn shrink_reports_match_across_drivers() {
    let arr = CollectArray::new(E9_PROCS);
    let spec = SnapshotSpec::<u32>::new(E9_PROCS);
    let econfig = ExploreConfig::new().shrink(true);
    let sim = SimBuilder::new(arr.registers::<u32>()).owners(arr.owners());
    // One (factory, visit) pair per driver, each with its own recorder.
    let worker = || {
        let cell: E9RecCell = Arc::new(Mutex::new(None));
        let visit_cell = Arc::clone(&cell);
        let spec = &spec;
        let visit = move |out: &SimOutcome<Tagged<u32>, ()>| {
            out.assert_no_panics();
            let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
            check_linearizable(spec, &hist, &CheckerConfig::default()).is_ok()
        };
        (e9_factory(arr, cell), visit)
    };

    let (make, visit) = worker();
    let seq = sim.explore(&econfig, make, visit);
    let witness = seq.witness.expect("naive collect must violate");
    let seq_report = seq.violation.expect("shrinking was configured");
    assert!(seq_report.stats.useful > 0, "{seq_report:?}");

    let (mut make, visit) = worker();
    let direct = sim.shrink(&witness.schedule, &witness.crashes, &mut make, |out| {
        !visit(out)
    });
    assert_eq!(direct, seq_report);

    for threads in [1usize, 2, 4] {
        let par = sim.explore_parallel(&econfig, threads, |_| worker());
        assert_eq!(par.witness.as_ref(), Some(&witness), "threads={threads}");
        assert_eq!(par.violation, Some(seq_report.clone()), "threads={threads}");
    }
}

#[test]
fn parallel_batch_check_matches_sequential_checks() {
    // Collect every history of a budget-capped naive-collect exploration
    // (the batch mixes linearizable and pending-heavy runs), then check
    // it sequentially and in parallel at several thread counts.
    let arr = CollectArray::new(E9_PROCS);
    let spec = SnapshotSpec::<u32>::new(E9_PROCS);
    let cfg = CheckerConfig::default();
    let sink: Arc<Mutex<Vec<_>>> = Arc::new(Mutex::new(Vec::new()));
    let stats = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .explore_parallel(&ExploreConfig::new().max_runs(300), 2, |_| {
            let cell: E9RecCell = Arc::new(Mutex::new(None));
            let visit_cell = Arc::clone(&cell);
            let make = e9_factory(arr, cell);
            let sink = Arc::clone(&sink);
            let visit = move |out: &SimOutcome<Tagged<u32>, ()>| {
                out.assert_no_panics();
                let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
                sink.lock().unwrap().push(hist);
                true
            };
            (make, visit)
        });
    let batch = std::mem::take(&mut *sink.lock().unwrap());
    assert_eq!(batch.len() as u64, stats.runs, "one history per run");
    let sequential: Vec<_> = batch
        .iter()
        .map(|h| check_linearizable(&spec, h, &cfg))
        .collect();
    assert!(sequential.iter().any(|o| o.is_ok()));
    for threads in [0usize, 1, 2, 4, 8] {
        let parallel = check_histories_parallel(&spec, &batch, &cfg, threads);
        assert_eq!(parallel, sequential, "threads={threads}");
    }
}
