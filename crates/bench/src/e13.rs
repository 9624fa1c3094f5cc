//! E13 — native register-file scaling: ops/sec and op-latency
//! percentiles across threads × objects × register tiers.
//!
//! The paper's cost model counts register accesses; E13 measures what
//! those accesses cost *on hardware* now that the native backend's
//! registers are genuinely non-blocking. The grid crosses:
//!
//! * **threads** — 1/2/4/8/16/32 real OS threads;
//! * **objects** — the striped counter (word registers, one write per
//!   inc), the direct max-register (a Section 6 scan per op), the Afek
//!   et al. bounded snapshot, and the last-writer-wins map through the
//!   Figure 4 universal construction (wide `Clone` registers);
//! * **tiers** — `packed` (one `AtomicU64` per register; word-packable
//!   objects only), `buffered` (announce/validate multi-slot cells, any
//!   `Clone` value), and `rwlock` (the pre-register-file backend, one
//!   lock per register: outside the paper's model, and kept purely as
//!   this baseline). Every build compiles all three — the workspace and
//!   the repo benchmark the same `apram-model` — but a memory is on the
//!   lock tier only when built on it: no packed or buffered access ever
//!   takes a lock.
//!
//! Objects, their applicable tiers and their iteration budgets come
//! from the [`apram_objects::spec`] table — one generic timed cell
//! drives any [`ObjectSpec`] row through its uniform session interface,
//! so the grid has no per-object code at all.
//!
//! Each cell reports throughput (ops/sec over the joined wall-clock)
//! and per-op latency p50/p99/p999 in nanoseconds through the shared
//! [`StepHistogram`], plus the buffered tier's reader-retry count (how
//! often a publish landed inside a reader's two-instruction announce
//! window — the protocol's only non-wait-free event).
//!
//! The accompanying gates (emitted into `BENCH_e13.json` and enforced
//! in CI on the quick grid via `scripts/compare_bench.py --e13-gate`):
//! the packed counter must beat the rwlock baseline at 8 threads, and —
//! on machines with real parallelism — 8-thread packed-counter
//! throughput must exceed 1-thread throughput. The report records
//! `available_parallelism` so the scaling gate can stand down on
//! single-core runners instead of asserting the impossible.

use crate::report::{Col, Report, Table, ToJson};
use crate::ExpOpts;
use apram_model::telemetry::HistogramSnapshot;
use apram_model::{Json, StepHistogram};
use apram_objects::spec::{
    native_spec, BuildCtx, ObjectInstance, ObjectSpec, Tier, OP_READ, OP_UPDATE,
};
use std::sync::Barrier;
use std::time::Instant;

/// The E13 object names, in emission order (each is an
/// [`apram_objects::spec`] registry name).
pub const E13_OBJECTS: [&str; 4] = ["counter", "maxreg", "afek", "lwwmap"];

/// One cell of the E13 grid.
#[derive(Clone, Debug)]
pub struct E13Row {
    /// Object name (one of [`E13_OBJECTS`]).
    pub object: &'static str,
    /// Register tier.
    pub tier: Tier,
    /// Concurrent OS threads (= processes).
    pub threads: usize,
    /// Total operations across all threads (one op = update + read).
    pub total_ops: u64,
    /// Wall-clock of the measured region (barrier release to last join).
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs`.
    pub ops_per_sec: f64,
    /// Per-op latency distribution in nanoseconds.
    pub hist: HistogramSnapshot,
    /// Buffered-tier reader validation retries (0 on other tiers).
    pub read_retries: u64,
}

// Wall-clock-derived fields (`elapsed_secs`, `ops_per_sec`, the `*_ns`
// percentiles) are volatile across runs; `scripts/compare_bench.py`
// excludes them from diffs and gates on their ratios instead.
const E13_COLS: &[Col<E13Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("tier", "tier", |r| r.tier.label().json()),
    Col::Same("threads", "threads", |r| r.threads.json()),
    Col::Same("ops", "total_ops", |r| r.total_ops.json()),
    Col::Json("elapsed_secs", |r| r.elapsed_secs.json()),
    Col::Both(
        "ops/sec",
        |r| format!("{:.0}", r.ops_per_sec),
        "ops_per_sec",
        |r| r.ops_per_sec.json(),
    ),
    Col::Same("p50 ns", "p50_ns", |r| r.hist.p50().json()),
    Col::Same("p99 ns", "p99_ns", |r| r.hist.p99().json()),
    Col::Same("p999 ns", "p999_ns", |r| r.hist.p999().json()),
    Col::Json("max_ns", |r| r.hist.max.json()),
    Col::Json("mean_ns", |r| r.hist.mean().json()),
    Col::Same("read retries", "read_retries", |r| r.read_retries.json()),
];

/// The E13 report: the grid and its gates.
pub fn e13_report(opts: &ExpOpts) -> Report {
    let rows = e13_rows(opts);
    Report::of(Table::of(E13_COLS, &rows)).gates(e13_gates(&rows))
}

/// The thread grid (always includes 1 and 8, which the gates compare).
pub fn e13_threads(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 2, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

/// Per-thread operations for one cell, scaled so a cell's total work is
/// roughly constant across thread counts (an op's cost also grows with
/// `n` for the scan-based objects, hence the per-object base budgets in
/// the registry).
pub fn spec_ops_per_thread(spec: &ObjectSpec, threads: usize, quick: bool) -> u64 {
    let (base, floor) = spec.ops_budget(quick);
    (base / threads as u64).max(floor)
}

/// The timed loop of one cell (E13's and E14's): `threads` sessions of
/// `inst`, one per thread, each performing `ops` iterations of update +
/// read, each iteration's latency recorded in nanoseconds. Returns the
/// wall-clock seconds of the measured region (barrier release to last
/// join — session setup is outside it) and the latency distribution.
/// Sessions bracket every op with `op_begin`/`op_end` themselves, so a
/// flight recorder attached to `inst` needs nothing here.
pub(crate) fn timed_cell(
    inst: &dyn ObjectInstance,
    threads: usize,
    ops: u64,
) -> (f64, HistogramSnapshot) {
    let hist = StepHistogram::new();
    let barrier = Barrier::new(threads + 1);
    let start = std::thread::scope(|s| {
        for t in 0..threads {
            let mut sess = inst.session(t);
            let (barrier, hist) = (&barrier, &hist);
            s.spawn(move || {
                barrier.wait();
                for k in 0..ops {
                    let t0 = Instant::now();
                    sess.op(OP_UPDATE, k, k);
                    sess.op(OP_READ, k, 0);
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
            });
        }
        // Start the clock *before* releasing the barrier: if main
        // started it after, a worker scheduled ahead of main's wake-up
        // (guaranteed on a single-core host) could finish its whole
        // loop before the clock ever started, under-measuring the cell
        // by orders of magnitude.
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    (start.elapsed().as_secs_f64(), hist.snapshot())
}

/// Run one E13 cell of any registered object on `tier`.
pub fn spec_cell(object: &'static str, tier: Tier, threads: usize, quick: bool) -> E13Row {
    let spec = native_spec(object).unwrap_or_else(|| panic!("unknown object '{object}'"));
    let ops = spec_ops_per_thread(spec, threads, quick);
    let inst = spec.build(&BuildCtx::new(threads, tier));
    let (elapsed, hist) = timed_cell(inst.as_ref(), threads, ops);
    let total_ops = ops * threads as u64;
    E13Row {
        object,
        tier,
        threads,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        hist,
        read_retries: inst.read_retries(),
    }
}

/// Tiers applicable to an object, from its registry spec: word-packable
/// objects take all three, wide-register objects skip `packed`.
pub fn e13_tiers_for(object: &str) -> &'static [Tier] {
    native_spec(object)
        .unwrap_or_else(|| panic!("unknown object '{object}'"))
        .tiers()
}

/// Run the full E13 grid. Wall-clock-dependent by nature (the one
/// experiment in the suite that is): rerunning reproduces the schema
/// and the gate relations, not the exact numbers.
pub fn e13_rows(opts: &ExpOpts) -> Vec<E13Row> {
    let mut rows = Vec::new();
    for &threads in e13_threads(opts.quick) {
        for object in E13_OBJECTS {
            for &tier in e13_tiers_for(object) {
                rows.push(spec_cell(object, tier, threads, opts.quick));
            }
        }
    }
    rows
}

/// The host's available parallelism (recorded so the CI scaling gate
/// can stand down on single-core runners).
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn find_ops(rows: &[E13Row], object: &str, tier: Tier, threads: usize) -> Option<f64> {
    rows.iter()
        .find(|r| r.object == object && r.tier == tier && r.threads == threads)
        .map(|r| r.ops_per_sec)
}

/// The gate section of `BENCH_e13.json`: the two accept ratios, plus
/// the host parallelism they are conditioned on.
///
/// * `packed_over_rwlock_8t` — packed-counter / rwlock-counter
///   throughput at 8 threads (acceptance: ≥ 2 on real hardware; CI
///   enforces > 1 to absorb runner noise);
/// * `packed_8t_over_1t` — packed-counter 8-thread / 1-thread
///   throughput (only meaningful when `available_parallelism > 1`).
pub fn e13_gates(rows: &[E13Row]) -> Json {
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Json::Float(n / d),
        _ => Json::Null,
    };
    Json::obj([
        ("available_parallelism", Json::UInt(host_parallelism())),
        (
            "packed_over_rwlock_8t",
            ratio(
                find_ops(rows, "counter", Tier::Packed, 8),
                find_ops(rows, "counter", Tier::Rwlock, 8),
            ),
        ),
        (
            "packed_8t_over_1t",
            ratio(
                find_ops(rows, "counter", Tier::Packed, 8),
                find_ops(rows, "counter", Tier::Packed, 1),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rows() -> Vec<E13Row> {
        // The quick grid at its smallest: structural checks only (unit
        // tests must not assert relative performance).
        let mut rows = Vec::new();
        for &threads in &[1usize, 8] {
            for object in E13_OBJECTS {
                for &tier in e13_tiers_for(object) {
                    rows.push(spec_cell(object, tier, threads, true));
                }
            }
        }
        rows
    }

    #[test]
    fn grid_shape_and_measurements() {
        let rows = tiny_rows();
        // 2 thread counts × (2 objects × 3 tiers + 2 objects × 2 tiers).
        assert_eq!(rows.len(), 2 * (2 * 3 + 2 * 2));
        for r in &rows {
            assert_eq!(r.hist.count, r.total_ops, "{}/{:?}", r.object, r.tier);
            assert!(r.ops_per_sec > 0.0, "{}/{:?}", r.object, r.tier);
            assert!(r.elapsed_secs > 0.0);
            assert!(r.hist.p50() <= r.hist.p99());
            assert!(r.hist.p99() <= r.hist.p999());
            assert!(r.hist.p999() <= r.hist.max);
            if r.tier != Tier::Buffered {
                assert_eq!(r.read_retries, 0, "{}/{:?} cannot retry", r.object, r.tier);
            }
        }
    }

    #[test]
    fn gates_report_ratios() {
        let rows = tiny_rows();
        let gates = e13_gates(&rows);
        let parsed = apram_model::json::parse(&gates.to_compact()).unwrap();
        // Both gate ratios must be real numbers (the tiny grid includes
        // the 1- and 8-thread cells they compare).
        for key in ["packed_over_rwlock_8t", "packed_8t_over_1t"] {
            let v = parsed.get(key).unwrap().as_f64().unwrap();
            assert!(v > 0.0, "{key} = {v}");
        }
        let par = parsed.get("available_parallelism").unwrap();
        assert!(par.as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn ops_scale_down_with_threads() {
        for object in E13_OBJECTS {
            let spec = native_spec(object).unwrap();
            assert!(
                spec_ops_per_thread(spec, 8, true) <= spec_ops_per_thread(spec, 1, true),
                "{object}"
            );
            assert!(spec_ops_per_thread(spec, 32, false) > 0, "{object}");
        }
    }
}
