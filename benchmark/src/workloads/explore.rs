//! `explore_verify`: a fixed forest of schedule trees, each explored in
//! parallel and every run's history checked for linearizability.
//!
//! One op is one schedule executed *and* checked. The forest never
//! changes, so the run counts are constants ([`EXPECTED_RUNS`]) and a
//! different count is a failure. The seed only changes the values the
//! processes write, never the shape of a tree.

use super::{Outcome, RunCtx, Trace};
use crate::harness::{self, Worker};
use crate::host;
use crate::plan::WorkloadPlan;
use crate::stream::Rng;
use crate::trace::{SpanBuf, ROOT};
use apram_core::counter::{CounterOp, CounterResp, CounterSpec};
use apram_history::{check_linearizable, check_linearizable_det, CheckerConfig, Recorder};
use apram_lattice::{MaxI64, Tagged};
use apram_model::sim::{Budgeted, CertifyConfig, ExploreConfig, ProcBody, SimBuilder, SimCtx};
use apram_model::{MemCtx, SimOutcome};
use apram_objects::maxreg::{DirectMaxRegister, MaxRegOp, MaxRegResp, MaxRegSpec};
use apram_objects::simspec::{e10_afek_bodies, e10_pair};
use apram_objects::StripedCounter;
use apram_snapshot::collect::{naive_collect, CollectArray, DoubleCollect};
use apram_snapshot::{AfekSnapshot, SnapOp, SnapResp, SnapshotSpec};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Processes in every tree of the forest.
const N: usize = 2;
/// Branching depth of the snapshot tree (beyond it the first runnable
/// process is scheduled deterministically).
const AFEK_DEPTH: usize = 10;
/// Branching depth of the crash tree.
const MAXREG_DEPTH: usize = 8;
/// Forests per segment.
pub const FORESTS_PER_SEGMENT: u64 = 1;
/// One checked run in this many carries a span in traced segments.
pub const SPAN_EVERY: u64 = 16;

/// Runs of each tree, in [`SPAN_NAMES`] order: counter, afek, maxreg
/// with one crash. A change to the explorer that alters these has
/// changed what is explored, and the workload refuses to call it equal.
pub const EXPECTED_RUNS: [u64; 3] = [8, 1024, 177];

pub const SPAN_NAMES: [&str; 4] = [
    "model.sim.explore.counter",
    "model.sim.certify.afek",
    "model.sim.explore.maxreg_crash",
    "history.check",
];

/// Check intervals gathered from the explorer's worker threads.
pub type CheckSink = Arc<Mutex<Vec<(u16, u64, u64)>>>;

/// Wraps a visitor's check so that sampled calls leave an interval.
#[derive(Clone)]
struct CheckTimer {
    epoch: Instant,
    sink: CheckSink,
    tid: u16,
    calls: u64,
}

impl CheckTimer {
    fn time<R>(timer: &mut Option<CheckTimer>, f: impl FnOnce() -> R) -> R {
        let Some(t) = timer else { return f() };
        t.calls += 1;
        if t.calls % SPAN_EVERY != 0 {
            return f();
        }
        let start = t.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end = t.epoch.elapsed().as_nanos() as u64;
        t.sink
            .lock()
            .expect("check sink lock")
            .push((t.tid, start, end));
        r
    }
}

/// What exploring one tree produced.
pub struct TreeResult {
    pub runs: u64,
    pub violated: bool,
    /// Share of branch choices sleep sets pruned (0 for the certifier).
    pub pruning_ratio: f64,
    /// Share of executed steps that only re-reached a branch point.
    pub replay_ratio: f64,
}

/// Per-worker recorder cell: the factory plants a fresh recorder per
/// run, the visitor takes its history.
type Cell<O, R> = Arc<Mutex<Option<Recorder<O, R>>>>;

fn timer_for(timing: &Option<(Instant, CheckSink)>, worker: usize) -> Option<CheckTimer> {
    timing.as_ref().map(|(epoch, sink)| CheckTimer {
        epoch: *epoch,
        sink: Arc::clone(sink),
        tid: worker as u16 + 1,
        calls: 0,
    })
}

/// Counter, two processes, each `inc` then `read`, sleep-set reduced.
pub fn counter_tree(threads: usize, timing: &Option<(Instant, CheckSink)>) -> TreeResult {
    let counter = StripedCounter::new(N);
    let sim = SimBuilder::new(counter.registers()).owners(counter.owners());
    let stats = sim.explore_reduced_parallel(&ExploreConfig::new(), threads, |w| {
        let cell: Cell<CounterOp, CounterResp> = Arc::new(Mutex::new(None));
        let fcell = Arc::clone(&cell);
        let factory = move || {
            let rec = Recorder::new();
            *fcell.lock().expect("recorder cell") = Some(rec.clone());
            (0..N)
                .map(|p| {
                    let rec = rec.clone();
                    Box::new(move |ctx: &mut SimCtx<u64>| {
                        let mut h = counter.handle();
                        rec.record(p, CounterOp::Inc(1), || {
                            h.inc(ctx);
                            CounterResp::Ack
                        });
                        rec.invoke(p, CounterOp::Read);
                        let v = h.read(ctx);
                        rec.respond(p, CounterResp::Value(v as i64));
                    }) as ProcBody<'static, u64, ()>
                })
                .collect()
        };
        let mut timer = timer_for(timing, w);
        let visit = move |_: &SimOutcome<u64, ()>| {
            let rec = cell.lock().expect("recorder cell").take();
            let hist = rec.expect("factory ran before visit").snapshot();
            CheckTimer::time(&mut timer, || {
                check_linearizable(&CounterSpec, &hist, &CheckerConfig::default()).is_ok()
            })
        };
        (factory, visit)
    });
    TreeResult {
        runs: stats.runs,
        violated: stats.witness.is_some() || !stats.exhausted,
        pruning_ratio: stats.pruning_ratio(),
        replay_ratio: stats.replay_ratio(),
    }
}

/// Afek et al.'s snapshot, two processes, `update` then `snap`,
/// certified against its step bound with the checker as the semantic
/// judge (E10's cell).
pub fn afek_tree(threads: usize, timing: &Option<(Instant, CheckSink)>) -> TreeResult {
    let afek = AfekSnapshot::new(N);
    let sim = SimBuilder::new(afek.registers::<u32>()).owners(afek.owners());
    let bound = (2 * N * (N + 2) + 2) as u64;
    let ccfg =
        CertifyConfig::new(vec![bound; N]).explore(ExploreConfig::new().max_depth(AFEK_DEPTH));
    let cert = sim.certify_parallel(&ccfg, threads, |w| {
        let (factory, mut check) = e10_pair(N, move |rec| e10_afek_bodies(afek, rec));
        let mut timer = timer_for(timing, w);
        (factory, move |out: &SimOutcome<_, ()>| {
            CheckTimer::time(&mut timer, || check(out))
        })
    });
    TreeResult {
        runs: cert.runs,
        violated: !cert.passed(),
        pruning_ratio: 0.0,
        replay_ratio: 0.0,
    }
}

/// Max-register, two processes, `write_max(v)` then `read`, with one
/// crash allowed anywhere within the branching depth.
pub fn maxreg_crash_tree(
    threads: usize,
    values: [i64; N],
    timing: &Option<(Instant, CheckSink)>,
) -> TreeResult {
    let reg = DirectMaxRegister::new(N);
    let sim = SimBuilder::new(reg.registers()).owners(reg.owners());
    let econfig = ExploreConfig::new().max_depth(MAXREG_DEPTH).max_crashes(1);
    let stats = sim.explore_reduced_parallel(&econfig, threads, |w| {
        let cell: Cell<MaxRegOp, MaxRegResp> = Arc::new(Mutex::new(None));
        let fcell = Arc::clone(&cell);
        let factory = move || {
            let rec = Recorder::new();
            *fcell.lock().expect("recorder cell") = Some(rec.clone());
            (0..N)
                .map(|p| {
                    let rec = rec.clone();
                    let v = values[p];
                    Box::new(move |ctx: &mut SimCtx<MaxI64>| {
                        let mut h = reg.handle();
                        rec.record(p, MaxRegOp::WriteMax(v), || {
                            h.write_max(ctx, v);
                            MaxRegResp::Ack
                        });
                        rec.invoke(p, MaxRegOp::Read);
                        let m = h.read(ctx);
                        rec.respond(p, MaxRegResp::Value(m));
                    }) as ProcBody<'static, MaxI64, ()>
                })
                .collect()
        };
        let mut timer = timer_for(timing, w);
        let visit = move |_: &SimOutcome<MaxI64, ()>| {
            let rec = cell.lock().expect("recorder cell").take();
            let hist = rec.expect("factory ran before visit").snapshot();
            // A crashed process's pending op may have taken effect: the
            // det checker is allowed to complete it.
            CheckTimer::time(&mut timer, || {
                check_linearizable_det(&MaxRegSpec, &hist, &CheckerConfig::default()).is_ok()
            })
        };
        (factory, visit)
    });
    TreeResult {
        runs: stats.runs,
        violated: stats.witness.is_some() || !stats.exhausted,
        pruning_ratio: stats.pruning_ratio(),
        replay_ratio: stats.replay_ratio(),
    }
}

/// The negative control: a single collect passed off as a snapshot,
/// beside two updaters. Exploration must find a schedule whose history
/// the checker rejects; returns whether it did.
pub fn naive_collect_is_caught() -> bool {
    let arr = CollectArray::new(3);
    let spec = SnapshotSpec::<u32>::new(3);
    let cell: Cell<SnapOp<u32>, SnapResp<u32>> = Arc::new(Mutex::new(None));
    let fcell = Arc::clone(&cell);
    let factory = move || {
        let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
        *fcell.lock().expect("recorder cell") = Some(rec.clone());
        let collector = rec.clone();
        let mut bodies: Vec<ProcBody<'static, Tagged<u32>, ()>> =
            vec![Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                collector.invoke(0, SnapOp::Snap);
                let view = naive_collect(&arr, ctx);
                collector.respond(0, SnapResp::View(view));
            })];
        for p in 1..3usize {
            let rec = rec.clone();
            bodies.push(Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                // A scheduling point before the invocation: process
                // threads run ahead to their first shared access, so
                // without it every update would be invoked at time zero
                // and no real-time order between the two would exist.
                let _ = ctx.read(p);
                rec.record(p, SnapOp::Update(p as u32), || {
                    DoubleCollect::new(arr).update(ctx, p as u32);
                    SnapResp::Ack
                });
            }));
        }
        bodies
    };
    let stats = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .explore(&ExploreConfig::new(), factory, |_| {
            let rec = cell.lock().expect("recorder cell").take();
            let hist = rec.expect("factory ran before visit").snapshot();
            check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok()
        });
    stats.witness.is_some()
}

/// The values the max-register processes write, from the seed.
fn values(seed: u64) -> [i64; N] {
    let mut rng = Rng::new(seed, 0xE7);
    [1 + rng.below(1 << 20) as i64, 1 + rng.below(1 << 20) as i64]
}

pub fn stream_hash(ctx: &RunCtx) -> u64 {
    let v = values(ctx.seed);
    apram_model::seed::fnv1a(&[v[0].to_le_bytes(), v[1].to_le_bytes()].concat())
}

/// Everything the forest must satisfy; one line per failure.
pub fn forest_problems(wrong_counts: u64, violations: u64, control_caught: bool) -> Vec<String> {
    let mut problems = Vec::new();
    if wrong_counts > 0 {
        problems.push(format!(
            "{wrong_counts} trees did not explore their expected run count {EXPECTED_RUNS:?}"
        ));
    }
    if violations > 0 {
        problems.push(format!("{violations} trees reported a violation"));
    }
    if !control_caught {
        problems.push("the naive_collect control explored without a violation".into());
    }
    problems
}

struct Forest {
    threads: usize,
    forests: u64,
    values: [i64; N],
    epoch: Instant,
    spans: Option<SpanBuf>,
    wrong_counts: u64,
    violations: u64,
    trees_done: u64,
}

impl Forest {
    fn tree(&mut self, which: usize, traced: bool, lat: &mut Vec<f32>) -> u64 {
        let timing = (traced && self.spans.is_some())
            .then(|| (self.epoch, Arc::new(Mutex::new(Vec::new()))));
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = match which {
            0 => counter_tree(self.threads, &timing),
            1 => afek_tree(self.threads, &timing),
            _ => maxreg_crash_tree(self.threads, self.values, &timing),
        };
        let end = self.epoch.elapsed().as_nanos() as u64;
        lat.push((end - start) as f32 / result.runs.max(1) as f32);
        self.trees_done += 1;
        if let (Some((_, sink)), Some(spans)) = (timing, self.spans.as_mut()) {
            let root = spans.push(which as u16, ROOT, self.trees_done, start, end);
            for (tid, s, e) in sink.lock().expect("check sink lock").drain(..) {
                spans.push_from(tid, 3, root, self.trees_done, s, e);
            }
        }
        self.violations += result.violated as u64;
        if result.runs != EXPECTED_RUNS[which] {
            self.wrong_counts += 1;
            return EXPECTED_RUNS[which];
        }
        if result.violated {
            result.runs
        } else {
            0
        }
    }
}

impl Worker for Forest {
    fn segment(&mut self, traced: bool, lat: &mut Vec<f32>) -> u64 {
        let mut failed = 0;
        for _ in 0..self.forests {
            for which in 0..EXPECTED_RUNS.len() {
                failed += self.tree(which, traced, lat);
            }
        }
        failed
    }

    fn segment_ops(&self) -> u64 {
        self.forests * EXPECTED_RUNS.iter().sum::<u64>()
    }

    fn segment_samples(&self) -> usize {
        self.forests as usize * EXPECTED_RUNS.len()
    }

    /// The explorer's worker and process threads inherit this mask:
    /// the whole exploration stays on one core. A schedule step is a
    /// thread hand-off, and on the reference VM a hand-off that crosses
    /// cores costs tens of µs of hypervisor time that varies 3× from
    /// run to run (measured: 950–8000 runs/s free, 11.5–12k on one
    /// core), which would drown every change to the explorer itself.
    fn pin(&self) -> Option<usize> {
        host::load_cpu()
    }
}

/// One set-up rep: how long a fresh `explore_parallel` call takes to
/// reach its first visit. The rest of the (20-run) tree is explored
/// outside the clock.
fn time_to_first_visit(threads: usize) -> Duration {
    let counter = StripedCounter::new(N);
    let sim = SimBuilder::new(counter.registers()).owners(counter.owners());
    let first_visit: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let t0 = Instant::now();
    sim.explore_parallel(&ExploreConfig::new(), threads, |_| {
        let first_visit = Arc::clone(&first_visit);
        let factory = move || {
            (0..N)
                .map(|_| {
                    Box::new(move |ctx: &mut SimCtx<u64>| {
                        let mut h = counter.handle();
                        h.inc(ctx);
                        h.read(ctx);
                    }) as ProcBody<'static, u64, ()>
                })
                .collect()
        };
        let visit = move |_: &SimOutcome<u64, ()>| {
            first_visit
                .lock()
                .expect("first-visit lock")
                .get_or_insert_with(Instant::now);
            true
        };
        (factory, visit)
    });
    let seen = first_visit.lock().expect("first-visit lock").take();
    seen.expect("at least one run was visited") - t0
}

pub fn run(plan: &WorkloadPlan, ctx: &RunCtx) -> Outcome {
    let forests = FORESTS_PER_SEGMENT;

    let traced_segments = ctx.segment_plan().iter().filter(|&&t| t).count();
    let epoch = Instant::now();
    let span_capacity = traced_segments
        * forests as usize
        * (EXPECTED_RUNS.len() + (EXPECTED_RUNS.iter().sum::<u64>() / SPAN_EVERY) as usize + 3);
    let mut workers = vec![Forest {
        threads: ctx.procs,
        forests,
        values: values(ctx.seed),
        epoch,
        spans: ctx.trace.then(|| SpanBuf::new(epoch, 0, span_capacity)),
        wrong_counts: 0,
        violations: 0,
        trees_done: 0,
    }];

    // Rule 1: a set-up rep is a fresh `explore_parallel` call up to its
    // first visit (worker pool spawned, first schedule executed), on
    // the main thread, which holds the forest's one-core mask too.
    let segment_plan = ctx.segment_plan();
    let mut setup = harness::SetupReps::new(ctx.setup_reps(plan), segment_plan.len() + 1);
    let measured = harness::run_segments(&mut workers, &segment_plan, ctx.trace, || {
        setup.chunk(|| (time_to_first_visit(ctx.procs), ()), drop);
    });

    let forest = &mut workers[0];
    let problems = forest_problems(
        forest.wrong_counts,
        forest.violations,
        naive_collect_is_caught(),
    );
    let trace = ctx.trace.then(|| Trace {
        names: &SPAN_NAMES,
        bufs: forest.spans.take().into_iter().collect(),
    });
    Outcome {
        measured,
        setup_s: setup.into_samples(),
        problems,
        stream_hash: stream_hash(ctx),
        segment_ops: forest.segment_ops(),
        trace,
        // The forest has no op stream to replay.
        gen_ns_per_op: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_explores_its_constant_run_counts_cleanly() {
        for threads in [1, 2] {
            let c = counter_tree(threads, &None);
            let a = afek_tree(threads, &None);
            let m = maxreg_crash_tree(threads, [5, 9], &None);
            assert_eq!([c.runs, a.runs, m.runs], EXPECTED_RUNS, "threads {threads}");
            assert!(!c.violated && !a.violated && !m.violated);
        }
        // The written values never change a tree's shape.
        assert_eq!(
            maxreg_crash_tree(2, [1_000_000, 3], &None).runs,
            EXPECTED_RUNS[2]
        );
    }

    #[test]
    fn control_is_caught_and_a_missing_violation_fails_the_check() {
        assert!(naive_collect_is_caught());
        assert!(forest_problems(0, 0, true).is_empty());
        // Doctored: the control explored cleanly — the checker is blind.
        assert_eq!(forest_problems(0, 0, false).len(), 1);
        assert_eq!(forest_problems(2, 1, true).len(), 2);
    }

    #[test]
    fn sampled_checks_land_in_the_sink() {
        let sink: CheckSink = Arc::new(Mutex::new(Vec::new()));
        let timing = Some((Instant::now(), Arc::clone(&sink)));
        let a = afek_tree(1, &timing);
        let got = sink.lock().unwrap().len() as u64;
        // One worker (plus the idle shrink pair): every 16th check.
        assert_eq!(got, a.runs / SPAN_EVERY);
        assert!(sink.lock().unwrap().iter().all(|&(_, s, e)| s <= e));
    }
}
