//! E12 — contention profiling: hot-cell heatmaps and contention-charged
//! step accounting for the hot objects.
//!
//! The paper's step bounds are worst-case over all schedules, and E10/E11
//! confirm the measured worst cases meet them. E12 asks the complementary
//! Bender-et-al. question: *how much of that worst case is contention?*
//! Each cell of the grid runs `k` writers over one object under two
//! workloads:
//!
//! - **hot** — all `k` processes share one object instance, scheduled by
//!   the burst adversary, so every collect traverses cells other
//!   processes are pending on (the one-cell pile-up).
//! - **spread** — the same `k` processes and the same per-process
//!   operations, but each process owns a private copy of the object
//!   (disjoint register slabs, each through an [`OffsetCtx`] window), so
//!   point contention is identically 1.
//!
//! Both workloads execute the same code path, so the raw step counts are
//! comparable while the *charged* accounting (each access charged `1/k`
//! for observed point contention `k`) separates: under `spread` charged
//! equals raw **exactly** (a deterministic identity the tests assert),
//! while under `hot` the charged total collapses below the raw one. The
//! emitted `BENCH_e12.json` compares measured steps vs the
//! contention-sensitive bound (paper bound normalized by observed mean
//! contention) vs the paper's worst-case bound, and the per-cell
//! [`ContentionMap`] heatmaps export as validated Prometheus text.

use apram_lattice::Tagged;
use apram_model::sim::strategy::BurstAdversary;
use apram_model::sim::{ProcBody, SimBuilder, SimCtx};
use apram_model::{validate_prometheus, ContentionMap, Json, OffsetCtx, ProcId, TelemetryRegistry};
use apram_objects::counter::{CounterLattice, DirectCounter};
use apram_objects::mwreg::{MwRegister, Stamped};
use apram_snapshot::afek::{AfekReg, AfekSnapshot};
use apram_snapshot::collect::{CollectArray, DoubleCollect};

use crate::report::{Col, Report, Sink, Table, ToJson};
use crate::sweep::object_bound;
use crate::ExpOpts;

/// The E12 object names. Deliberately free of characters that need
/// Prometheus label escaping, so the exported heatmaps stay friendly to
/// line-oriented tooling (the CI smoke grep included).
pub const E12_OBJECTS: [&str; 4] = ["counter", "afek", "double_collect", "mwreg"];

/// One cell of the E12 grid.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Object name (one of [`E12_OBJECTS`]).
    pub object: &'static str,
    /// `"hot"` (shared instance, burst adversary) or `"spread"`
    /// (private instances, disjoint cells).
    pub workload: &'static str,
    /// Concurrent writers (= processes).
    pub k: usize,
    /// The paper's worst-case per-process step bound for the cell's
    /// operation pair.
    pub paper_bound: u64,
    /// Worst raw per-process steps observed.
    pub measured_steps: u64,
    /// Worst contention-charged per-process steps observed (each access
    /// charged `1/contention`).
    pub charged_steps: f64,
    /// Mean point contention over all accesses of the run.
    pub mean_contention: f64,
    /// Peak point contention any single access observed.
    pub peak_contention: u64,
    /// Total stalled re-reads attributed to intervening writers.
    pub stall_edges: u64,
    /// The full per-cell heatmap of the run.
    pub map: ContentionMap,
}

impl E12Row {
    /// The contention-sensitive bound: the paper bound normalized by the
    /// observed mean point contention — what the worst case collapses to
    /// once steps are charged against the contention they suffered.
    pub fn contention_bound(&self) -> f64 {
        self.paper_bound as f64 / self.mean_contention.max(1.0)
    }

    /// Total charged / total raw steps — 1.0 when uncontended, strictly
    /// below 1.0 whenever any access observed contention. Computed over
    /// totals (not the worst process) because the process with the worst
    /// raw count need not be the contended one.
    pub fn collapse_ratio(&self) -> f64 {
        let raw = self.map.total_steps();
        if raw == 0 {
            1.0
        } else {
            self.map.total_charged_steps() / raw as f64
        }
    }

    /// The cell's acceptance verdict: raw steps within the paper's
    /// worst-case bound, charged steps within it too (they can only
    /// collapse), the `spread` workload perfectly uncontended (charged
    /// equals raw exactly), and the `hot` workload visibly contended.
    pub fn ok(&self) -> bool {
        let charged_within = self.charged_steps <= self.paper_bound as f64 + 1e-9;
        let within = self.measured_steps <= self.paper_bound && charged_within;
        match self.workload {
            "spread" => within && self.peak_contention <= 1 && self.stall_edges == 0,
            _ => within && self.peak_contention >= 2,
        }
    }
}

const E12_COLS: &[Col<E12Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("workload", "workload", |r| r.workload.json()),
    Col::Same("k", "k", |r| r.k.json()),
    Col::Same("measured", "measured_steps", |r| r.measured_steps.json()),
    Col::Both(
        "charged",
        |r| format!("{:.1}", r.charged_steps),
        "charged_steps",
        |r| r.charged_steps.json(),
    ),
    Col::Both(
        "contention bound",
        |r| format!("{:.1}", r.contention_bound()),
        "contention_bound",
        |r| r.contention_bound().json(),
    ),
    Col::Same("paper bound", "paper_bound", |r| r.paper_bound.json()),
    Col::Both(
        "mean cont",
        |r| format!("{:.2}", r.mean_contention),
        "mean_contention",
        |r| r.mean_contention.json(),
    ),
    Col::Same("peak", "peak_contention", |r| r.peak_contention.json()),
    Col::Same("stalls", "stall_edges", |r| r.stall_edges.json()),
    Col::Both(
        "collapse",
        |r| format!("{:.2}", r.collapse_ratio()),
        "collapse_ratio",
        |r| r.collapse_ratio().json(),
    ),
    Col::Both(
        "verdict",
        |r| if r.ok() { "ok" } else { "UNEXPECTED" }.into(),
        "ok",
        |r| r.ok().json(),
    ),
    Col::Json("heatmap", |r| r.map.to_json()),
];

/// The E12 report, with the heatmaps as `contention.prom` and
/// `contention_heatmap.json`.
pub fn e12_report(opts: &ExpOpts) -> Report {
    let rows = e12_rows(opts);
    Report::of(Table::of(E12_COLS, &rows))
        .artifact(
            Sink::Telemetry,
            "contention.prom",
            e12_heatmap_prometheus(&rows),
        )
        .artifact(
            Sink::Telemetry,
            "contention_heatmap.json",
            e12_heatmap_json(&rows).to_compact() + "\n",
        )
}

/// Per-process worst-case step bound for one operation pair of `object`
/// at `k` processes — the analytic costs E10 certifies against, from the
/// same [`apram_objects::simspec`] registry: counter `inc`+`read` are
/// two optimized scans (the `scan` workload), Afek and double-collect
/// `update`+`snap` are their E10 workloads; an MW-register `write`+`read`
/// (not a snapshot, so not in that registry) are a collect plus a write
/// each.
pub fn e12_bound(object: &str, k: usize) -> u64 {
    match object {
        "counter" => object_bound("scan", k),
        "afek" => object_bound("afek", k),
        "double_collect" => object_bound("double-collect", k),
        "mwreg" => (2 * (k + 1)) as u64,
        other => panic!("unknown E12 object '{other}'"),
    }
}

/// Run one profiled execution and return its contention map. `hot`
/// selects the burst adversary (process 1 blasts through whole
/// operations between single steps of everyone else); otherwise the
/// default round-robin runs — for the `spread` workload the schedule is
/// irrelevant, disjoint slabs cannot contend under any interleaving.
fn profile_run<T: Clone + Send + Sync + 'static>(
    registers: Vec<T>,
    owners: Vec<ProcId>,
    bodies: Vec<ProcBody<'static, T, ()>>,
    hot: bool,
    burst: u64,
) -> ContentionMap {
    let sim = SimBuilder::new(registers)
        .owners(owners)
        .max_steps(10_000_000)
        .profile(true);
    let out = if hot {
        let mut sim = sim.strategy(BurstAdversary::new(1, burst));
        sim.run(bodies)
    } else {
        let mut sim = sim;
        sim.run(bodies)
    };
    out.assert_no_panics();
    assert!(
        out.results.iter().all(Option::is_some),
        "E12 workload must terminate within the step cap"
    );
    out.contention.expect("profiling was enabled")
}

/// Build the row for one `(object, workload, k)` cell from its map.
fn finish_row(
    object: &'static str,
    workload: &'static str,
    k: usize,
    map: ContentionMap,
) -> E12Row {
    let accesses: u64 = map.cells.iter().map(|c| c.accesses()).sum();
    let contention_sum: u64 = map.cells.iter().map(|c| c.contention_sum).sum();
    let mean = if accesses == 0 {
        0.0
    } else {
        contention_sum as f64 / accesses as f64
    };
    E12Row {
        object,
        workload,
        k,
        paper_bound: e12_bound(object, k),
        measured_steps: map.proc_steps.iter().copied().max().unwrap_or(0),
        charged_steps: map.worst_charged_steps(),
        mean_contention: mean,
        peak_contention: map
            .cells
            .iter()
            .map(|c| c.peak_contention)
            .max()
            .unwrap_or(0),
        stall_edges: map.stall_edges.values().sum(),
        map,
    }
}

/// The `(hot, spread)` maps of one object: `body(p, base)` is process
/// `p`'s operation pair over the instance whose registers start at
/// `base`. `hot` runs all `k` bodies on the one shared instance under
/// the burst adversary; `spread` gives each process its own copy of the
/// registers — `k` disjoint slabs, each owned wholesale by its process —
/// and runs the same bodies there.
fn hot_and_spread<T: Clone + Send + Sync + 'static>(
    k: usize,
    instance: Vec<T>,
    owners: Vec<ProcId>,
    burst: usize,
    body: impl Fn(usize, usize) -> ProcBody<'static, T, ()>,
) -> (ContentionMap, ContentionMap) {
    let m = instance.len();
    let bodies = |slab: usize| (0..k).map(|p| body(p, p * slab)).collect();
    let hot = profile_run(instance.clone(), owners, bodies(0), true, burst as u64);
    let registers: Vec<T> = (0..k).flat_map(|_| instance.iter().cloned()).collect();
    let owners: Vec<ProcId> = (0..k).flat_map(|p| std::iter::repeat_n(p, m)).collect();
    (hot, profile_run(registers, owners, bodies(m), false, 0))
}

/// The striped (direct lattice) counter: every process performs `inc`
/// then `read()` — two optimized scans.
fn e12_counter(k: usize) -> (ContentionMap, ContentionMap) {
    let c = DirectCounter::new(k);
    hot_and_spread(k, c.registers(), c.owners(), k * k + k, move |p, base| {
        Box::new(move |ctx: &mut SimCtx<CounterLattice>| {
            let mut ctx = OffsetCtx { inner: ctx, base };
            let mut h = c.handle();
            h.inc(&mut ctx, p as u64 + 1);
            let _ = h.read(&mut ctx);
        })
    })
}

/// The Afek et al. bounded snapshot: every process performs one
/// `update` then one `snap`.
fn e12_afek(k: usize) -> (ContentionMap, ContentionMap) {
    let snap = AfekSnapshot::new(k);
    let burst = k * (k + 2) + 2;
    hot_and_spread(
        k,
        snap.registers::<u32>(),
        snap.owners(),
        burst,
        move |p, base| {
            Box::new(move |ctx: &mut SimCtx<AfekReg<u32>>| {
                let mut ctx = OffsetCtx { inner: ctx, base };
                snap.update(&mut ctx, p as u32 + 1);
                let _ = snap.snap::<u32, _>(&mut ctx);
            })
        },
    )
}

/// The double-collect snapshot: one `update` then one `snap` per
/// process (wait-free at one update each).
fn e12_double_collect(k: usize) -> (ContentionMap, ContentionMap) {
    let arr = CollectArray::new(k);
    hot_and_spread(
        k,
        arr.registers::<u32>(),
        arr.owners(),
        k + 2,
        move |p, base| {
            Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                let mut ctx = OffsetCtx { inner: ctx, base };
                let mut h = DoubleCollect::new(arr);
                h.update(&mut ctx, p as u32 + 1);
                let _ = h.snap(&mut ctx);
            })
        },
    )
}

/// The multi-writer register — the closest thing this model has to a
/// literal one-cell pile-up: every `write` and `read` collects the whole
/// stamped column.
fn e12_mwreg(k: usize) -> (ContentionMap, ContentionMap) {
    let reg = MwRegister::new(k);
    hot_and_spread(
        k,
        reg.registers::<u64>(),
        reg.owners(),
        k + 1,
        move |p, base| {
            Box::new(move |ctx: &mut SimCtx<Stamped<u64>>| {
                let mut ctx = OffsetCtx { inner: ctx, base };
                reg.write(&mut ctx, p as u64 + 1);
                let _ = reg.read(&mut ctx);
            })
        },
    )
}

/// Run the E12 grid: for every object and every writer count `k`, the
/// hot (shared instance, burst adversary) and spread (private slabs)
/// workloads, profiled. Fully deterministic — both schedules are
/// deterministic and the profiler has no clock.
pub fn e12_rows(opts: &ExpOpts) -> Vec<E12Row> {
    let ks: &[usize] = if opts.quick { &[2, 3] } else { &[2, 3, 4] };
    let mut rows = Vec::new();
    for &k in ks {
        for object in E12_OBJECTS {
            let (hot, spread) = match object {
                "counter" => e12_counter(k),
                "afek" => e12_afek(k),
                "double_collect" => e12_double_collect(k),
                "mwreg" => e12_mwreg(k),
                _ => unreachable!(),
            };
            rows.push(finish_row(object, "hot", k, hot));
            rows.push(finish_row(object, "spread", k, spread));
        }
    }
    rows
}

/// All E12 heatmaps as one Prometheus exposition document, every series
/// labeled `object="<object>_<workload>_k<k>"`, exported through a
/// [`TelemetryRegistry`] so the text dedupes `# TYPE` headers. Panics if
/// the result fails [`validate_prometheus`] — the acceptance criterion.
pub fn e12_heatmap_prometheus(rows: &[E12Row]) -> String {
    let reg = TelemetryRegistry::new(1);
    for row in rows {
        let label = format!("{}_{}_k{}", row.object, row.workload, row.k);
        row.map.register_heatmap(&reg, 0, &label);
    }
    let text = reg.to_prometheus();
    validate_prometheus(&text).expect("E12 heatmap must pass validate_prometheus");
    text
}

/// All E12 heatmaps as one JSON document keyed `<object>/<workload>/k`.
pub fn e12_heatmap_json(rows: &[E12Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::obj([
                    ("object", Json::Str(row.object.into())),
                    ("workload", Json::Str(row.workload.into())),
                    ("k", Json::UInt(row.k as u64)),
                    ("heatmap", row.map.to_json()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_model::CHARGE_UNIT;

    fn quick_rows() -> Vec<E12Row> {
        e12_rows(&ExpOpts {
            seed: 0,
            quick: true,
            threads: 0,
        })
    }

    #[test]
    fn e12_grid_shape_and_verdicts() {
        let rows = quick_rows();
        // 4 objects × 2 workloads × k ∈ {2, 3}.
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(row.ok(), "cell failed: {row:?}");
            assert!(row.measured_steps > 0, "{row:?}");
            assert!(row.map.runs == 1, "{row:?}");
        }
    }

    #[test]
    fn spread_is_perfectly_uncontended() {
        for row in quick_rows().iter().filter(|r| r.workload == "spread") {
            // Disjoint slabs: every access is charged a full step, so
            // the fixed-point identity holds exactly per process.
            for p in 0..row.k {
                assert_eq!(
                    row.map.charged_total[p],
                    row.map.proc_steps[p] * CHARGE_UNIT,
                    "{}/{} proc {p}",
                    row.object,
                    row.k
                );
            }
            assert_eq!(row.mean_contention, 1.0, "{row:?}");
            assert!(row.stall_edges == 0, "{row:?}");
            // The CI gate: charged steps within the paper bound.
            assert!(row.charged_steps <= row.paper_bound as f64, "{row:?}");
        }
    }

    #[test]
    fn hot_collapses_below_raw_steps() {
        for row in quick_rows().iter().filter(|r| r.workload == "hot") {
            assert!(
                row.peak_contention >= 2,
                "adversary forced no contention: {row:?}"
            );
            assert!(
                row.collapse_ratio() < 1.0,
                "charged accounting did not collapse: {row:?}"
            );
            assert!(row.contention_bound() < row.paper_bound as f64, "{row:?}");
        }
    }

    #[test]
    fn hot_outweighs_spread_on_contention() {
        let rows = quick_rows();
        for hot in rows.iter().filter(|r| r.workload == "hot") {
            let spread = rows
                .iter()
                .find(|r| r.object == hot.object && r.k == hot.k && r.workload == "spread")
                .unwrap();
            assert!(
                hot.mean_contention > spread.mean_contention,
                "{}",
                hot.object
            );
            // Same code path: the quiet (spread) run can never take more
            // raw steps than the adversarial one.
            assert!(
                spread.measured_steps <= hot.measured_steps,
                "{}",
                hot.object
            );
        }
    }

    #[test]
    fn heatmap_artifacts_validate() {
        let rows = quick_rows();
        let prom = e12_heatmap_prometheus(&rows);
        assert!(prom.contains("apram_cell_accesses{object=\"counter_hot_k2\""));
        validate_prometheus(&prom).expect("the heatmap document must validate");
        for row in &rows {
            let label = format!("object=\"{}_{}_k{}\"", row.object, row.workload, row.k);
            assert!(prom.contains(&label), "no series for {label}");
        }
        let doc = e12_heatmap_json(&rows);
        let parsed = apram_model::json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), rows.len());
    }

    #[test]
    fn e12_is_deterministic() {
        let a = quick_rows();
        let b = quick_rows();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.map, y.map, "{}/{}/{}", x.object, x.workload, x.k);
        }
    }
}
