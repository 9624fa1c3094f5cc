//! Per-operation step-count distributions (the E4 telemetry tables):
//! every snapshot implementation, the multi-writer register, and the
//! approximate-agreement protocol, measured op by op through
//! [`CountingCtx`] into the log-bucketed histograms of a
//! [`TelemetryRegistry`] (one shard per simulated process), then
//! compared against the paper's analytic bounds.
//!
//! The paper's step-complexity claims are *worst-case* bounds, so the
//! interesting statistic is the distribution tail: for the
//! schedule-independent operations (lattice scans, collects, the MW
//! register) p50 = p99 = max = the bound exactly; for the
//! contention-sensitive ones (Afek et al., double collect) max must
//! stay at or under the bound while the quantiles show how far typical
//! schedules sit below it.

use crate::experiments::ExpOpts;
use crate::report::{Col, ToJson};
use apram_agreement::hierarchy::theorem5_bound;
use apram_agreement::machine::AgreementMachine;
use apram_agreement::proto::{ScanMode, Variant};
use apram_lattice::MaxU64;
use apram_model::sim::strategy::SeededRandom;
use apram_model::sim::SimBuilder;
use apram_model::{CountingCtx, HistogramSnapshot, MemCtx, TelemetryRegistry};
use apram_objects::mwreg::MwRegister;
use apram_snapshot::afek::AfekSnapshot;
use apram_snapshot::collect::{naive_collect, CollectArray, DoubleCollect};
use apram_snapshot::lock::LockSnapshot;
use apram_snapshot::{ScanHandle, ScanObject};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One distribution row: an operation's measured step-count histogram
/// (merged over all processes and schedules) against its analytic bound.
#[derive(Clone, Debug)]
pub struct DistRow {
    /// Operation name, e.g. `scan_literal`.
    pub op: String,
    /// What was counted per op: `reads`, `writes`, `register_ops`, or
    /// `micros` (wall clock, for the lock-based baseline).
    pub metric: &'static str,
    /// Number of processes.
    pub n: usize,
    /// The paper's analytic per-op bound in the same unit, when one
    /// exists (`None` for wall-clock rows).
    pub bound: Option<u64>,
    /// The merged histogram.
    pub hist: HistogramSnapshot,
}

impl DistRow {
    /// Whether the observed maximum respects the bound (`None` when the
    /// row has no analytic bound).
    pub fn within_bound(&self) -> Option<bool> {
        self.bound.map(|b| self.hist.max <= b)
    }
}

/// The E4 telemetry table and the `distributions` section of
/// `BENCH_e4.json`.
pub(crate) const DIST_COLS: &[Col<DistRow>] = &[
    Col::Same("op", "op", |r| r.op.json()),
    Col::Same("metric", "metric", |r| r.metric.json()),
    Col::Same("n", "n", |r| r.n.json()),
    Col::Same("count", "count", |r| r.hist.count.json()),
    Col::Same("p50", "p50", |r| r.hist.p50().json()),
    Col::Json("p90", |r| r.hist.p90().json()),
    Col::Same("p99", "p99", |r| r.hist.p99().json()),
    Col::Same("max", "max", |r| r.hist.max.json()),
    Col::Json("mean", |r| r.hist.mean().json()),
    Col::Same("paper bound", "paper_bound", |r| r.bound.json()),
    Col::Same("within", "within_bound", |r| r.within_bound().json()),
];

/// The result of [`step_distributions`]: the summary rows plus the
/// registry that recorded them (kept so the CLI can export the raw
/// histograms as Prometheus text).
#[derive(Debug)]
pub struct StepDistributions {
    /// The sharded registry every histogram was recorded into (shard =
    /// process id).
    pub registry: TelemetryRegistry,
    /// One row per (operation, metric, n).
    pub rows: Vec<DistRow>,
}

/// How many ops each process performs per simulated run.
const OPS_PER_PROC: usize = 3;

/// Measure per-op step-count distributions for every snapshot
/// implementation, the MW register, and the agreement protocol, over
/// seeded-random schedules. Panics if any operation exceeds its
/// analytic bound — that is the E4 acceptance criterion.
pub fn step_distributions(opts: &ExpOpts) -> StepDistributions {
    let ns: &[usize] = if opts.quick { &[2, 3] } else { &[2, 3, 4, 6] };
    let seeds: u64 = if opts.quick { 2 } else { 4 };
    let registry = TelemetryRegistry::new(*ns.iter().max().unwrap());
    let mut rows = Vec::new();

    for &n in ns {
        scan_rows(opts, &registry, &mut rows, n, seeds);
        afek_rows(opts, &registry, &mut rows, n, seeds);
        collect_rows(opts, &registry, &mut rows, n, seeds);
        mwreg_rows(opts, &registry, &mut rows, n, seeds);
        agreement_rows(opts, &registry, &mut rows, n, seeds);
        lock_rows(opts, &registry, &mut rows, n);
    }

    for r in &rows {
        if let Some(false) = r.within_bound() {
            panic!(
                "E4 bound violated: {} {} n={} observed max {} > paper bound {}",
                r.op,
                r.metric,
                r.n,
                r.hist.max,
                r.bound.unwrap()
            );
        }
    }
    StepDistributions { registry, rows }
}

/// Close a row over the named registry histogram.
fn close_row(
    registry: &TelemetryRegistry,
    key: &str,
    op: &str,
    metric: &'static str,
    n: usize,
    bound: Option<u64>,
) -> DistRow {
    DistRow {
        op: op.into(),
        metric,
        n,
        bound,
        hist: registry.histogram_snapshot(key).unwrap_or_default(),
    }
}

/// Literal and optimized lattice scans: schedule-independent costs, so
/// the whole distribution collapses onto the §6.2 formulas.
fn scan_rows(
    opts: &ExpOpts,
    registry: &TelemetryRegistry,
    rows: &mut Vec<DistRow>,
    n: usize,
    seeds: u64,
) {
    let lit_r = registry.histogram(&format!("scan_literal_reads_n{n}"));
    let lit_w = registry.histogram(&format!("scan_literal_writes_n{n}"));
    let opt_r = registry.histogram(&format!("scan_optimized_reads_n{n}"));
    let opt_w = registry.histogram(&format!("scan_optimized_writes_n{n}"));
    for seed in 0..seeds {
        let obj = ScanObject::new(n);
        let (hr, hw) = (lit_r.clone(), lit_w.clone());
        let out = SimBuilder::new(obj.registers::<MaxU64>())
            .owners(obj.owners())
            .strategy(SeededRandom::new(opts.seed ^ (0xE4 + seed)))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut c = CountingCtx::new(ctx);
                for k in 0..OPS_PER_PROC {
                    c.begin_op();
                    let _ = obj.scan(&mut c, MaxU64::new((p * 10 + k) as u64 + 1));
                    hr.record(p, c.op_reads());
                    hw.record(p, c.op_writes());
                }
            });
        out.assert_no_panics();
        let (hr, hw) = (opt_r.clone(), opt_w.clone());
        let out = SimBuilder::new(obj.registers::<MaxU64>())
            .owners(obj.owners())
            .strategy(SeededRandom::new(opts.seed ^ (0xE40 + seed)))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut h = ScanHandle::new(obj);
                let mut c = CountingCtx::new(ctx);
                for k in 0..OPS_PER_PROC {
                    c.begin_op();
                    let _ = h.scan(&mut c, MaxU64::new((p * 10 + k) as u64 + 1));
                    hr.record(p, c.op_reads());
                    hw.record(p, c.op_writes());
                }
            });
        out.assert_no_panics();
    }
    for (op, metric, bound) in [
        ("scan_literal", "reads", ScanObject::literal_scan_reads(n)),
        ("scan_literal", "writes", ScanObject::literal_scan_writes(n)),
        (
            "scan_optimized",
            "reads",
            ScanObject::optimized_scan_reads(n),
        ),
        (
            "scan_optimized",
            "writes",
            ScanObject::optimized_scan_writes(n),
        ),
    ] {
        let key = format!("{op}_{metric}_n{n}");
        rows.push(close_row(registry, &key, op, metric, n, Some(bound)));
    }
}

/// Afek et al. snapshot: one update then two snaps per process, so every
/// snap overlaps at most one update per process and the `n(n+2)` bound
/// applies (the E4b comparison axis).
fn afek_rows(
    opts: &ExpOpts,
    registry: &TelemetryRegistry,
    rows: &mut Vec<DistRow>,
    n: usize,
    seeds: u64,
) {
    let hs = registry.histogram(&format!("afek_snap_reads_n{n}"));
    let hu = registry.histogram(&format!("afek_update_reads_n{n}"));
    for seed in 0..seeds {
        let snap = AfekSnapshot::new(n);
        let (hs, hu) = (hs.clone(), hu.clone());
        let out = SimBuilder::new(snap.registers::<u64>())
            .owners(snap.owners())
            .strategy(SeededRandom::new(opts.seed ^ (0xAF + seed)))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut c = CountingCtx::new(ctx);
                c.begin_op();
                snap.update(&mut c, p as u64 + 1);
                hu.record(p, c.op_reads());
                for _ in 0..2 {
                    c.begin_op();
                    let _ = snap.snap::<u64, _>(&mut c);
                    hs.record(p, c.op_reads());
                }
            });
        out.assert_no_panics();
    }
    rows.push(close_row(
        registry,
        &format!("afek_snap_reads_n{n}"),
        "afek_snap",
        "reads",
        n,
        Some(AfekSnapshot::bounded_update_snap_reads(n)),
    ));
    rows.push(close_row(
        registry,
        &format!("afek_update_reads_n{n}"),
        "afek_update",
        "reads",
        n,
        Some(AfekSnapshot::bounded_update_update_reads(n)),
    ));
}

/// Double collect and the naive single collect. Each process performs
/// one update before snapping, so at most `n` tag changes occur and the
/// double collect terminates within `n+2` collects.
fn collect_rows(
    opts: &ExpOpts,
    registry: &TelemetryRegistry,
    rows: &mut Vec<DistRow>,
    n: usize,
    seeds: u64,
) {
    let hd = registry.histogram(&format!("double_collect_snap_reads_n{n}"));
    let hn = registry.histogram(&format!("naive_collect_reads_n{n}"));
    for seed in 0..seeds {
        let arr = CollectArray::new(n);
        let (hd, hn) = (hd.clone(), hn.clone());
        let out = SimBuilder::new(arr.registers::<u64>())
            .owners(arr.owners())
            .strategy(SeededRandom::new(opts.seed ^ (0xDC + seed)))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut h = DoubleCollect::new(arr);
                let mut c = CountingCtx::new(ctx);
                c.begin_op();
                h.update(&mut c, p as u64 + 1);
                c.begin_op();
                let _ = h.snap(&mut c);
                hd.record(p, c.op_reads());
                c.begin_op();
                let _ = naive_collect(&arr, &mut c);
                hn.record(p, c.op_reads());
            });
        out.assert_no_panics();
    }
    rows.push(close_row(
        registry,
        &format!("double_collect_snap_reads_n{n}"),
        "double_collect_snap",
        "reads",
        n,
        Some(DoubleCollect::bounded_update_snap_reads(n)),
    ));
    rows.push(close_row(
        registry,
        &format!("naive_collect_reads_n{n}"),
        "naive_collect",
        "reads",
        n,
        Some(CollectArray::collect_reads(n)),
    ));
}

/// The multi-writer register: both ops are one collect plus one write,
/// schedule-independent.
fn mwreg_rows(
    opts: &ExpOpts,
    registry: &TelemetryRegistry,
    rows: &mut Vec<DistRow>,
    n: usize,
    seeds: u64,
) {
    let hw = registry.histogram(&format!("mwreg_write_reads_n{n}"));
    let hr = registry.histogram(&format!("mwreg_read_reads_n{n}"));
    for seed in 0..seeds {
        let reg = MwRegister::new(n);
        let (hw, hr) = (hw.clone(), hr.clone());
        let out = SimBuilder::new(reg.registers::<u64>())
            .owners(reg.owners())
            .strategy(SeededRandom::new(opts.seed ^ (0x3B + seed)))
            .run_symmetric(n, move |ctx| {
                let p = ctx.proc();
                let mut c = CountingCtx::new(ctx);
                for k in 0..OPS_PER_PROC {
                    c.begin_op();
                    reg.write(&mut c, (p * 10 + k) as u64);
                    hw.record(p, c.op_reads());
                    c.begin_op();
                    let _ = reg.read(&mut c);
                    hr.record(p, c.op_reads());
                }
            });
        out.assert_no_panics();
    }
    rows.push(close_row(
        registry,
        &format!("mwreg_write_reads_n{n}"),
        "mwreg_write",
        "reads",
        n,
        Some(MwRegister::op_reads(n)),
    ));
    rows.push(close_row(
        registry,
        &format!("mwreg_read_reads_n{n}"),
        "mwreg_read",
        "reads",
        n,
        Some(MwRegister::op_reads(n)),
    ));
}

/// Per-process register operations of a full approximate-agreement run
/// (collect mode) against the Theorem 5 bound, over round-robin plus
/// seeded-random schedules.
fn agreement_rows(
    opts: &ExpOpts,
    registry: &TelemetryRegistry,
    rows: &mut Vec<DistRow>,
    n: usize,
    seeds: u64,
) {
    let doe = 16.0;
    let eps = 1.0 / doe;
    let key = format!("agreement_register_ops_n{n}");
    let h = registry.histogram(&key);
    for s in 0..=seeds {
        let inputs: Vec<f64> = (0..n).map(|p| p as f64 / (n - 1).max(1) as f64).collect();
        let mut m = AgreementMachine::with_config(eps, inputs, Variant::Full, ScanMode::Collect);
        if s == 0 {
            m.run_all_round_robin(100_000_000);
        } else {
            m.run_random(&mut StdRng::seed_from_u64(opts.seed ^ (0xA6 + s)));
        }
        for p in 0..n {
            h.record(p, m.register_ops_taken(p));
        }
    }
    rows.push(close_row(
        registry,
        &key,
        "agreement_full_run",
        "register_ops",
        n,
        Some(theorem5_bound(n, doe)),
    ));
}

/// The lock-based baseline runs on native threads only, so its
/// histogram is wall-clock microseconds per snap — no analytic step
/// bound exists (that is the point of the comparison).
fn lock_rows(opts: &ExpOpts, registry: &TelemetryRegistry, rows: &mut Vec<DistRow>, n: usize) {
    let iters = if opts.quick { 20 } else { 100 };
    let key = format!("lock_snap_micros_n{n}");
    let h = registry.histogram(&key);
    let lock = LockSnapshot::<u64>::new(n);
    std::thread::scope(|s| {
        for p in 0..n {
            let lock = lock.clone();
            let h = h.clone();
            s.spawn(move || {
                for k in 0..iters {
                    lock.update(p, k as u64);
                    let t = Instant::now();
                    let _ = lock.snap();
                    h.record(p, t.elapsed().as_micros() as u64);
                }
            });
        }
    });
    rows.push(close_row(registry, &key, "lock_snap", "micros", n, None));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_distributions_respect_every_bound() {
        let opts = ExpOpts {
            seed: 7,
            quick: true,
            threads: 1,
        };
        let dist = step_distributions(&opts);
        assert!(dist.rows.len() >= 10, "expected a row per (op, n)");
        for r in &dist.rows {
            assert!(r.hist.count > 0, "{} n={} recorded nothing", r.op, r.n);
            assert_ne!(r.within_bound(), Some(false), "{} n={}", r.op, r.n);
        }
        // Schedule-independent ops collapse onto the formula exactly.
        let lit = dist
            .rows
            .iter()
            .find(|r| r.op == "scan_literal" && r.metric == "reads" && r.n == 3)
            .unwrap();
        assert_eq!(lit.hist.max, ScanObject::literal_scan_reads(3));
        assert_eq!(lit.hist.p50(), lit.hist.max);
        // Wall-clock rows carry no bound.
        assert!(dist
            .rows
            .iter()
            .all(|r| (r.op == "lock_snap") == r.bound.is_none()));
    }

    #[test]
    fn distribution_registry_exports_valid_prometheus() {
        let opts = ExpOpts {
            seed: 1,
            quick: true,
            threads: 1,
        };
        let dist = step_distributions(&opts);
        let text = dist.registry.to_prometheus();
        apram_model::validate_prometheus(&text).expect("generated text must parse");
        assert!(text.contains("scan_literal_reads_n2"));
    }

    #[test]
    fn dist_row_json_shape() {
        let r = DistRow {
            op: "x".into(),
            metric: "reads",
            n: 2,
            bound: Some(7),
            hist: HistogramSnapshot::default(),
        };
        let r2 = DistRow {
            bound: None,
            ..r.clone()
        };
        let table = crate::report::Table::of(DIST_COLS, &[r, r2]);
        let j = table.rows[0].to_compact();
        assert!(j.contains("\"paper_bound\":7"));
        assert!(j.contains("\"within_bound\":true"));
        let j2 = table.rows[1].to_compact();
        assert!(j2.contains("\"paper_bound\":null"));
        assert!(j2.contains("\"within_bound\":null"));
        // A row without a bound shows dashes in the table.
        assert_eq!(table.cells[0][7..], ["7", "yes"]);
        assert_eq!(table.cells[1][7..], ["-", "-"]);
    }
}
