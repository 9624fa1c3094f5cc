//! The flight recorder's spans must carry a linearizability audit with
//! the threads left to run free: no turn-taking, no `SeqCst` hand-off
//! between ops, nothing but a barrier at the start of each window.
//!
//! That holds only if every recorded interval contains its op's true
//! one (`apram_model::flight::stamp` has the argument). With an end
//! stamp read while the op's store could still sit in the core's store
//! buffer, the packed-tier counter failed this audit in a handful of
//! windows in every thousand: a read stamped after an increment's end
//! did not see the increment. Only in a release build — the window is a
//! few nanoseconds wide and a debug build's ops are too slow to fall
//! into it — which is how CI runs this file.

use apram_model::{FlightLog, FlightMode};
use apram_objects::spec::{native_spec, BuildCtx, OP_READ, OP_UPDATE};
use apram_serve::run_audit;
use std::sync::{Barrier, Mutex};

const WINDOWS: u64 = 2_000;
const THREADS: usize = 2;
/// 120 ops a window, under the checker's 128-op ceiling.
const OPS_PER_THREAD: u64 = 60;

/// SplitMix64: the op mix is a function of (window, thread, index).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One window: a fresh always-recorded instance of `object` on its
/// first tier, `THREADS` free-running threads of coin-flipped updates
/// and reads, drained after the join.
fn window(object: &str, w: u64) -> FlightLog {
    let spec = native_spec(object).expect("registry name");
    let build = BuildCtx::new(THREADS, spec.tiers()[0]).flight(FlightMode::Always, 1 << 9);
    let inst = spec.build(&build);
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mut session = inst.session(t);
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for i in 0..OPS_PER_THREAD {
                    let r = mix(w << 20 | (t as u64) << 10 | i);
                    if r & 1 == 0 {
                        // Small positive values, distinct within a window.
                        session.op(OP_UPDATE, 1 + (r >> 1) % 1_000 * 128 + i * 2 + t as u64, 0);
                    } else {
                        session.op(OP_READ, 0, 0);
                    }
                }
            });
        }
    });
    let log = inst.flight_log().expect("recorder attached");
    assert_eq!(log.dropped, 0, "{object}: window {w} dropped events");
    assert_eq!(log.recorded, log.drained + log.dropped, "{object}: {w}");
    assert_eq!(
        log.op_spans().len() as u64,
        THREADS as u64 * OPS_PER_THREAD,
        "{object}: window {w} lost a span"
    );
    log
}

/// A window's threads must really run at once: the tests of this file
/// take turns, so that on a two-CPU host each has both.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `WINDOWS` free-running windows of `object`, each judged by the audit
/// of its registry row; none may fail.
fn audit_free_running(object: &str) {
    let _turn = ONE_TEST_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < THREADS {
        println!(
            "skipped: {cores} CPU available, and {THREADS} threads that never run \
             at once are trivially sequential"
        );
        return;
    }
    let linearizable = |log| {
        let audit = run_audit(object, &[log], 1);
        audit.histories == 1 && audit.all_linearizable
    };
    let failed: Vec<u64> = (0..WINDOWS)
        .filter(|&w| !linearizable(window(object, w)))
        .collect();
    assert!(
        failed.is_empty(),
        "{object}: {} of {WINDOWS} free-running windows are not linearizable \
         by their recorded spans (first: {:?})",
        failed.len(),
        &failed[..failed.len().min(8)]
    );
}

#[test]
fn free_running_packed_counter_audits_clean() {
    audit_free_running("counter");
}

#[test]
fn free_running_packed_maxreg_audits_clean() {
    audit_free_running("maxreg");
}

#[test]
fn free_running_buffered_mwreg_audits_clean() {
    audit_free_running("mwreg");
}
