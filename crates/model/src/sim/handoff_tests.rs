//! Tests of the hand-off itself rather than of what is scheduled: a
//! failure on the scheduling side surfaces on the caller and leaves the
//! pool usable, a builder run and a pooled run produce the same run, and
//! under stress no wake-up is lost and no thread is left over.
//!
//! A lost `unpark` shows as a hang, not as a wrong answer, so everything
//! here runs under a deadline — and a missed deadline says what the run
//! was waiting for, because a slow machine misses it too.

use super::explore::ExploreConfig;
use super::fault::FaultPlan;
use super::parallel::ProcPool;
use super::strategy::{Pct, Replay, RoundRobin, SeededRandom};
use super::*;
use std::process::Command;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::thread::ThreadId;

const DEADLINE: Duration = Duration::from_secs(60);

/// The thread [`within`] gave up on, and what it said.
static DUMP: Mutex<(Option<ThreadId>, Option<String>)> = Mutex::new((None, None));

/// `Hub::attend` calls this at every wake-up (test builds only): the
/// thread `within` gave up on leaves the state of the run it attends.
pub(super) fn dump_if_asked<T: Clone>(hub: &Hub<T>) {
    let mut dump = DUMP.lock().unwrap();
    if dump.0 != Some(std::thread::current().id()) {
        return;
    }
    let st = hub.lock();
    let state = format!(
        "progress {}, over {}, unfinished {}, computing {}, steps {}, runnable {:?}",
        hub.progress.load(Ordering::Relaxed),
        hub.over.load(Ordering::Acquire),
        st.unfinished,
        st.computing,
        st.steps,
        st.runnable,
    );
    *dump = (None, Some(state));
}

/// Ask `caller` what the run it attends looks like.
fn ask_for_dump(caller: &Thread) -> String {
    *DUMP.lock().unwrap() = (Some(caller.id()), None);
    caller.unpark();
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(100));
        if let Some(state) = DUMP.lock().unwrap().1.take() {
            return state;
        }
    }
    "the calling thread attends no run (no answer in 2 s): it is busy elsewhere — \
     symbolizing a backtrace, say — or waiting for worker threads"
        .into()
}

/// Run `f` on a thread of its own; fail if it has not returned in time,
/// saying whether a run is stuck (and where) or the thread is just slow.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            worker.join().expect("the worker caught its panic");
            result.unwrap_or_else(|payload| resume_unwind(payload))
        }
        Err(_) => panic!(
            "no result within {limit:?}: {}",
            ask_for_dump(worker.thread())
        ),
    }
}

#[test]
fn a_missed_deadline_says_what_the_run_was_waiting_for() {
    // One process that computes for a second before its only access.
    let text = panic_text(|| {
        within(Duration::from_millis(200), || {
            SimBuilder::new(vec![0u64; 1]).run(vec![|ctx: &mut SimCtx<u64>| {
                std::thread::sleep(Duration::from_secs(1));
                ctx.read(0)
            }]);
        })
    });
    let state = "no result within 200ms: progress 0, over false, unfinished 1, computing 1, \
                 steps 0, runnable []";
    assert!(text.contains(state), "{text:?}");
}

/// What `f` panicked with.
fn panic_text(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    crash::describe_panic(payload.as_ref())
}

/// Two processes: write the own register, read the other's.
fn pair() -> Vec<ProcBody<'static, u64, u64>> {
    (0..2)
        .map(|p| {
            Box::new(move |ctx: &mut SimCtx<u64>| {
                ctx.write(p, p as u64 + 1);
                ctx.read(1 - p)
            }) as ProcBody<'static, u64, u64>
        })
        .collect()
}

fn pair_cfg() -> SimConfig<u64> {
    let mut cfg = SimConfig::base(vec![0u64; 2]);
    cfg.owners = Some(vec![0, 1]);
    cfg
}

type Pool<'scope, 'env> = ProcPool<'scope, 'env, u64, u64>;

fn run_pair<S: Strategy + Send + 'static>(
    pool: &mut Pool<'_, '_>,
    cfg: &SimConfig<u64>,
    strategy: S,
) -> SimOutcome<u64, u64> {
    run_sim(pool, cfg, strategy, pair(), false).0
}

/// One pool, three steps, all under the deadline: `broken` runs on it;
/// then a clean run on the same pool gives the round-robin answer; then
/// the pool is dropped and the scope joins its threads, which it cannot
/// do if one of them is still parked.
fn then_runs_cleanly(broken: impl FnOnce(&mut Pool<'_, '_>) + Send + 'static) {
    within(DEADLINE, move || {
        std::thread::scope(|scope| {
            let mut pool = ProcPool::new(scope);
            broken(&mut pool);
            let out = run_pair(&mut pool, &pair_cfg(), RoundRobin::new());
            assert_eq!(out.unwrap_results(), vec![2, 1]);
        })
    })
}

/// `broken` must panic on this thread with `expect` in its message.
fn fails_with(expect: &'static str, broken: impl FnOnce(&mut Pool<'_, '_>) + Send + 'static) {
    then_runs_cleanly(move |pool| {
        let text = panic_text(|| broken(pool));
        assert!(text.contains(expect), "expected {expect:?} in {text:?}");
    })
}

#[test]
fn swmr_violation_surfaces_from_a_pooled_run() {
    fails_with("SWMR violation: P0 wrote register 0 owned by P1", |pool| {
        let mut cfg = pair_cfg();
        cfg.owners = Some(vec![1, 0]);
        run_pair(pool, &cfg, RoundRobin::new());
    });
}

#[test]
fn swmr_violation_surfaces_from_explore() {
    within(DEADLINE, || {
        let swapped = SimBuilder::new(vec![0u64; 2]).owners(vec![1, 0]);
        let text = panic_text(|| {
            swapped.explore(&ExploreConfig::default(), pair, |_| true);
        });
        assert!(text.contains("SWMR violation"), "{text:?}");
        // Nothing global is left behind: the next exploration is whole.
        let sim = SimBuilder::new(vec![0u64; 2]).owners(vec![0, 1]);
        let stats = sim.explore(&ExploreConfig::default(), pair, |_| true);
        assert!(stats.exhausted);
        assert_eq!(stats.runs, 6);
    })
}

#[test]
fn naming_a_process_that_cannot_run_surfaces() {
    fails_with("strategy chose non-runnable process 7", |pool| {
        run_pair(pool, &pair_cfg(), |_: &SchedView| Decision::Step(7));
    });
}

#[test]
fn crashing_a_process_twice_surfaces() {
    fails_with("cannot crash 1 twice", |pool| {
        run_pair(pool, &pair_cfg(), |_: &SchedView| Decision::Crash(1));
    });
}

/// A factory that is not deterministic: P1 takes its steps in the first
/// run only, so the second run's replay meets a different runnable set
/// at the root.
fn forgetful_factory() -> impl FnMut() -> Vec<ProcBody<'static, u64, u64>> + Send {
    let runs = AtomicUsize::new(0);
    move || {
        let first = runs.fetch_add(1, Ordering::Relaxed) == 0;
        let mut bodies = pair();
        if !first {
            bodies[1] = Box::new(|_: &mut SimCtx<u64>| 0);
        }
        bodies
    }
}

/// In every build — CI runs this file with `--release` too — and from
/// every explorer: they share the one search that makes the check.
#[test]
fn replay_divergence_inside_decide_surfaces_from_explore() {
    within(DEADLINE, || {
        let sim = SimBuilder::new(vec![0u64; 2]).owners(vec![0, 1]);
        let econfig = ExploreConfig::default();
        let accept = |_: &SimOutcome<u64, u64>| true;
        let searches: [&dyn Fn(); 4] = [
            &|| drop(sim.explore(&econfig, forgetful_factory(), accept)),
            &|| drop(sim.explore_reduced(&econfig, forgetful_factory(), accept)),
            &|| drop(sim.explore_parallel(&econfig, 1, |_| (forgetful_factory(), accept))),
            // Two workers, six leaves: one of them gets a second run and
            // fails. It must neither hide its message nor leave the other
            // waiting for tasks.
            &|| drop(sim.explore_parallel(&econfig, 2, |_| (forgetful_factory(), accept))),
        ];
        for (i, search) in searches.iter().enumerate() {
            let text = panic_text(search);
            let diverged = "explore: runnable set diverged on replay at step 0";
            assert!(text.contains(diverged), "search {i}: {text:?}");
        }
    })
}

#[test]
fn borrowed_strategy_panic_surfaces_with_its_message() {
    within(DEADLINE, || {
        // Strict replay of a process that never becomes runnable panics
        // inside `decide`, on whichever thread holds the baton; the
        // builder's run re-raises it here.
        let text = panic_text(|| {
            SimBuilder::new(vec![0u64; 2])
                .strategy(Replay::strict(vec![5]))
                .run(pair());
        });
        assert!(text.contains("strict replay: scheduled P5"), "{text:?}");
    })
}

#[test]
fn body_panic_is_reported_and_the_pool_lives_on() {
    then_runs_cleanly(|pool| {
        let mut bodies = pair();
        bodies[0] = Box::new(|ctx: &mut SimCtx<u64>| {
            ctx.write(0, 9);
            panic!("algorithm bug");
        });
        let (out, _) = run_sim(pool, &pair_cfg(), RoundRobin::new(), bodies, false);
        assert_eq!(out.panics[0].as_deref(), Some("algorithm bug"));
        assert_eq!(out.results, vec![None, Some(9)]);
    });
}

#[test]
fn halt_at_step_zero_unwinds_everyone() {
    then_runs_cleanly(|pool| {
        let out = run_pair(pool, &pair_cfg(), |_: &SchedView| Decision::Halt);
        assert!(out.halted);
        assert!(out.trace.is_empty());
        assert_eq!(out.results, vec![None, None]);
        out.assert_no_panics();
    });
}

#[test]
fn crashing_every_process_at_step_zero_ends_the_run() {
    then_runs_cleanly(|pool| {
        let out = run_pair(pool, &pair_cfg(), |view: &SchedView| {
            Decision::Crash(view.runnable[0])
        });
        assert!(!out.halted);
        assert!(out.trace.is_empty());
        assert_eq!(out.crashed, vec![true, true]);
        assert_eq!(out.crashed_at, vec![Some(0), Some(0)]);
        assert_eq!(out.results, vec![None, None]);
    });
}

/// Three processes hammering each other's registers: every step reads
/// or writes a register another process is about to touch, so metrics
/// and the contention map have something to disagree about.
fn trio() -> Vec<ProcBody<'static, u64, u64>> {
    (0..3usize)
        .map(|p| {
            Box::new(move |ctx: &mut SimCtx<u64>| {
                let mut seen = 0;
                for round in 0..4u64 {
                    ctx.write(p, 10 * round + p as u64);
                    seen += ctx.read((p + 1 + round as usize % 2) % 3);
                }
                seen
            }) as ProcBody<'static, u64, u64>
        })
        .collect()
}

/// The same strategy, once handed to a builder (its fault plan, one-shot
/// threads) and once to a pooled `run_sim` under `plan.over`, as the
/// explorers drive it: everything observable of the two runs must be
/// equal. Returns the schedule.
fn both_routes<S: Strategy + Clone + Send + 'static>(
    pool: &mut Pool<'_, '_>,
    strategy: S,
    plan: &FaultPlan,
    tag: &str,
) -> Vec<ProcId> {
    let owners = vec![0, 1, 2];
    let a = SimBuilder::new(vec![0u64; 3])
        .owners(owners.clone())
        .profile(true)
        .crashes(plan.crashes().iter().copied())
        .strategy(strategy.clone())
        .run(trio());
    let mut cfg = SimConfig::base(vec![0u64; 3]);
    cfg.owners = Some(owners);
    let (b, _) = run_sim(pool, &cfg, plan.over(strategy), trio(), true);
    assert_eq!(a.results, b.results, "{tag}");
    assert_eq!(a.panics, b.panics, "{tag}");
    assert_eq!(a.trace, b.trace, "{tag}");
    assert_eq!(a.counts, b.counts, "{tag}");
    assert_eq!(a.memory, b.memory, "{tag}");
    assert_eq!(a.crashed, b.crashed, "{tag}");
    assert_eq!(a.crashed_at, b.crashed_at, "{tag}");
    assert_eq!(a.halted, b.halted, "{tag}");
    assert_eq!(a.contention, b.contention, "{tag}");
    a.trace.schedule()
}

#[test]
fn adapter_and_inline_routes_yield_identical_runs() {
    within(DEADLINE, || {
        std::thread::scope(|scope| {
            let mut pool = ProcPool::new(scope);
            let none = FaultPlan::new();
            let mut distinct = std::collections::HashSet::new();
            for seed in 0..200u64 {
                let tag = |name: &str| format!("{name}, seed {seed}");
                both_routes(&mut pool, RoundRobin::new(), &none, &tag("round robin"));
                let random = SeededRandom::new(seed);
                let schedule = both_routes(&mut pool, random.clone(), &none, &tag("random"));
                assert_eq!(schedule.len(), 24);
                both_routes(&mut pool, Pct::new(seed, 3, 3, 24), &none, &tag("pct"));
                let replay = Replay::strict(schedule.clone());
                let replayed = both_routes(&mut pool, replay, &none, &tag("replay"));
                assert_eq!(replayed, schedule);
                let plan = FaultPlan::new()
                    .crash((seed % 3) as usize, seed % 7)
                    .crash(((seed + 1) % 3) as usize, 5 + seed % 11);
                both_routes(&mut pool, random, &plan, &tag("two crashes"));
                distinct.insert(schedule);
            }
            assert!(distinct.len() > 150, "the seeds must not all agree");
        })
    })
}

/// Tasks of this process (`None` off Linux).
fn task_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Four processes, 200 accesses each, every one to a register some other
/// process also uses.
fn stress_bodies() -> Vec<ProcBody<'static, u64, u64>> {
    (0..4usize)
        .map(|p| {
            Box::new(move |ctx: &mut SimCtx<u64>| {
                let mut sum = 0u64;
                for i in 0..100 {
                    ctx.write(p, i);
                    sum = sum
                        .wrapping_mul(31)
                        .wrapping_add(ctx.read((p + 1 + i as usize) % 4));
                }
                sum
            }) as ProcBody<'static, u64, u64>
        })
        .collect()
}

/// The stress proper. With random scheduling over four processes three
/// steps in four change process, so 2 000 seeds and their replays make
/// over two million hand-offs; one lost wake-up among them parks the run
/// until the 2 s watchdog fails it.
fn stress_and_hygiene() {
    let before = task_count();
    let mut cfg = SimConfig::base(vec![0u64; 4]);
    cfg.local_timeout = Duration::from_secs(2);
    std::thread::scope(|scope| {
        let mut pool = ProcPool::new(scope);
        for seed in 0..2_000u64 {
            let random = SeededRandom::new(seed);
            let (out, _) = run_sim(&mut pool, &cfg, random, stress_bodies(), false);
            out.assert_no_panics();
            assert_eq!(out.trace.len(), 800, "seed {seed}");
            let replay = Replay::strict(out.trace.schedule());
            let (again, _) = run_sim(&mut pool, &cfg, replay, stress_bodies(), false);
            assert_eq!(again.trace, out.trace, "seed {seed}");
            assert_eq!(again.results, out.results, "seed {seed}");
            assert_eq!(again.memory, out.memory, "seed {seed}");
        }
    });
    std::thread::scope(|scope| {
        let mut pool = ProcPool::new(scope);
        for _ in 0..10_000 {
            let out = run_pair(&mut pool, &pair_cfg(), RoundRobin::new());
            assert_eq!(out.results, vec![Some(2), Some(1)]);
        }
    });
    // A joined thread's task can outlive the join by a moment.
    let settle = Instant::now();
    while task_count() > before && settle.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(task_count(), before, "pool threads were left behind");
}

const CHILD: &str = "APRAM_HANDOFF_STRESS_CHILD";

/// The first CPU this process may run on (`None` off Linux).
fn first_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    Some(first.to_string())
}

/// Hand-off bugs are scheduling-sensitive, so the stress runs twice:
/// free across every core, where the woken thread races the waker, and
/// pinned to one CPU, where it cannot run until the waker parks. Each
/// pass is this test re-run alone in a child process, which is also what
/// makes the thread count its own.
#[test]
fn handoff_stress_and_thread_hygiene() {
    if std::env::var_os(CHILD).is_some() {
        return stress_and_hygiene();
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let pass = |pin: Option<&str>| {
        let mut cmd = match pin {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", cpu]).arg(&exe);
                cmd
            }
            None => Command::new(&exe),
        };
        cmd.args([
            "--exact",
            "sim::handoff_tests::handoff_stress_and_thread_hygiene",
            "--test-threads=1",
        ]);
        cmd.env(CHILD, "1").output()
    };
    let check = |name: &str, out: std::process::Output| {
        assert!(
            out.status.success() && String::from_utf8_lossy(&out.stdout).contains("1 passed"),
            "{name} pass failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    };
    check("free-running", pass(None).expect("re-run the test binary"));
    match first_allowed_cpu().map(|cpu| pass(Some(&cpu))) {
        Some(Ok(out)) => check("pinned", out),
        Some(Err(e)) => eprintln!("pinned pass skipped: taskset: {e}"),
        None => eprintln!("pinned pass skipped: no /proc/self/status"),
    }
}
