//! The simulator-side experiments — E1–E6, E8–E11 and the `explore`
//! throughput benchmark: for each, its row type, the function that
//! measures the rows, the column list that renders them, and the
//! `*_report` function the [registry](crate::registry) points at.

use crate::distributions::{step_distributions, DIST_COLS};
use crate::report::{counts, Col, Report, Sink, Table, ToJson};
use crate::sweep::{certify_cell, object_bound, run_sample_cell, CellSched, SweepCell};
use apram_agreement::ablation::{explore_machine, random_search};
use apram_agreement::adversary::{lemma6_bound, run_adversary};
use apram_agreement::hierarchy::{
    hierarchy_row, measured_worst_steps, theorem5_bound, unbounded_growth, HierarchyRow,
};
use apram_agreement::proto::{ScanMode, Variant};
use apram_core::{CounterOp, Universal};
use apram_history::check::{check_linearizable, check_linearizable_traced, CheckerConfig};
use apram_history::{
    check_histories_parallel, CheckOutcome, FailureExplanation, NondetSpec, Ops, Recorder,
    Violation,
};
use apram_lattice::Tagged;
use apram_model::sim::explore::{ExploreConfig, ExploreStats};
use apram_model::sim::strategy::Replay;
use apram_model::sim::{Budgeted, Certificate, ProcBody, SimBuilder, SimCtx, SimOutcome};
use apram_model::telemetry::buffer_sink;
use apram_model::{
    resolve_threads, validate_prometheus, Heartbeat, Json, MemCtx, SpanNode, SpanRecorder,
};
use apram_objects::simspec::{e10_afek_bodies, e10_snapshot_bodies};
use apram_snapshot::afek::{AfekReg, AfekSnapshot};
use apram_snapshot::collect::{naive_collect, CollectArray, DoubleCollect};
use apram_snapshot::snapshot::{SnapOp, SnapResp, SnapshotSpec};
use apram_snapshot::{ScanHandle, ScanObject, Snapshot};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shared experiment options, fed by the CLI's `--seed` / `--quick` /
/// `--threads` flags so every experiment honors the same knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExpOpts {
    /// Base seed mixed into every sampled schedule.
    pub seed: u64,
    /// Shrink grids and sample counts for a fast smoke run.
    pub quick: bool,
    /// Worker threads for parallel exploration and history checking
    /// (0 = all available parallelism).
    pub threads: usize,
}

/// E1 — Theorem 5 upper bound: measured worst per-process steps of the
/// approximate agreement protocol vs the analytic bound.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Number of processes.
    pub n: usize,
    /// Input range over ε.
    pub delta_over_eps: f64,
    /// Worst per-process step count over the sampled schedules.
    pub measured_worst: u64,
    /// Theorem 5 analytic bound (2n+1)·log₂(Δ/ε)+O(n).
    pub bound: u64,
    /// measured / log₂(Δ/ε) — should stay ~linear in n.
    pub per_round: f64,
}

/// Run E1 over the standard grid (shrunk under `--quick`).
pub fn e1_rows(opts: &ExpOpts) -> Vec<E1Row> {
    let (ns, ks, samples): (&[usize], &[u32], u64) = if opts.quick {
        (&[2, 4], &[2, 6], 5)
    } else {
        (&[2, 4, 8, 16], &[2, 6, 10, 14], 20)
    };
    let mut rows = Vec::new();
    for &n in ns {
        for &k in ks {
            let doe = 2f64.powi(k as i32);
            let eps = 1.0 / doe;
            let measured =
                measured_worst_steps(n, eps, samples, opts.seed + 0xE1 + n as u64 + k as u64);
            rows.push(E1Row {
                n,
                delta_over_eps: doe,
                measured_worst: measured,
                bound: theorem5_bound(n, doe),
                per_round: measured as f64 / doe.log2(),
            });
        }
    }
    rows
}

const E1_COLS: &[Col<E1Row>] = &[
    Col::Same("n", "n", |r| r.n.json()),
    Col::Same("Δ/ε", "delta_over_eps", |r| r.delta_over_eps.json()),
    Col::Same("measured worst steps", "measured_worst_steps", |r| {
        r.measured_worst.json()
    }),
    Col::Same("Theorem 5 bound", "paper_bound", |r| r.bound.json()),
    Col::Md("steps / log₂(Δ/ε)", |r| format!("{:.1}", r.per_round)),
    Col::Json("within_bound", |r| (r.measured_worst <= r.bound).json()),
];

/// The E1 report.
pub fn e1_report(opts: &ExpOpts) -> Report {
    Report::of(Table::of(E1_COLS, &e1_rows(opts)))
}

/// E2 — Lemma 6 lower bound: what the adversary forces vs ⌊log₃(Δ/ε)⌋.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Hierarchy level (Δ/ε = 3^k).
    pub k: u32,
    /// The analytic bound ⌊log₃(Δ/ε)⌋.
    pub bound: u64,
    /// Confrontations the adversary forced.
    pub forced_confrontations: u64,
    /// Worst per-process steps under the adversary.
    pub forced_steps: u64,
    /// Final output gap (must be < ε = 3^−k).
    pub final_gap: f64,
}

/// Run E2 for k = 1..=max_k.
pub fn e2_rows(max_k: u32) -> Vec<E2Row> {
    (1..=max_k)
        .map(|k| {
            let eps = 3f64.powi(-(k as i32));
            let rep = run_adversary(eps, 0.0, 1.0, 100_000_000);
            E2Row {
                k,
                bound: lemma6_bound(1.0, eps),
                forced_confrontations: rep.confrontations,
                forced_steps: rep.max_steps(),
                final_gap: rep.final_gap,
            }
        })
        .collect()
}

const E2_COLS: &[Col<E2Row>] = &[
    Col::Same("k (Δ/ε = 3^k)", "k", |r| r.k.json()),
    Col::Same("⌊log₃(Δ/ε)⌋", "paper_bound", |r| r.bound.json()),
    Col::Same("forced confrontations", "forced_confrontations", |r| {
        r.forced_confrontations.json()
    }),
    Col::Same("forced steps (max proc)", "forced_steps", |r| {
        r.forced_steps.json()
    }),
    Col::Both(
        "final gap",
        |r| format!("{:.2e}", r.final_gap),
        "final_gap",
        |r| r.final_gap.json(),
    ),
    Col::Json("meets_bound", |r| {
        (r.forced_confrontations >= r.bound).json()
    }),
];

/// The E2 report.
pub fn e2_report(opts: &ExpOpts) -> Report {
    Report::of(Table::of(
        E2_COLS,
        &e2_rows(if opts.quick { 5 } else { 10 }),
    ))
}

/// E3 — the Theorem 7 hierarchy table plus Theorem 8 growth.
pub fn e3_hierarchy(max_k: u32) -> Vec<HierarchyRow> {
    (1..=max_k).map(|k| hierarchy_row(k, 15)).collect()
}

/// E3b — Theorem 8: forced steps as Δ grows with ε = 1.
pub fn e3_unbounded() -> Vec<(f64, u64)> {
    unbounded_growth(&[3.0, 9.0, 27.0, 81.0, 243.0, 2187.0, 19683.0])
}

const E3_COLS: &[Col<HierarchyRow>] = &[
    Col::Same("k", "k", |r| r.k.json()),
    Col::Both("ε", |r| format!("{:.2e}", r.eps), "eps", |r| r.eps.json()),
    Col::Same("lower bound k", "paper_lower_bound", |r| {
        r.lower_bound.json()
    }),
    Col::Same("forced confrontations", "forced_confrontations", |r| {
        r.forced_confrontations.json()
    }),
    Col::Same("forced steps", "forced_steps", |r| r.forced_steps.json()),
    Col::Same("measured K (worst)", "measured_upper", |r| {
        r.measured_upper.json()
    }),
    Col::Same("Theorem 5 bound", "paper_upper_bound", |r| {
        r.theorem5_bound.json()
    }),
];

const E3B_COLS: &[Col<(f64, u64)>] = &[
    Col::Same("Δ", "delta", |(delta, _)| delta.json()),
    Col::Same("forced steps", "forced_steps", |(_, steps)| steps.json()),
];

/// The E3 report: the hierarchy table, then E3b under its own heading.
pub fn e3_report(opts: &ExpOpts) -> Report {
    let hierarchy = Table::of(E3_COLS, &e3_hierarchy(if opts.quick { 4 } else { 8 }));
    let unbounded = Table::of(E3B_COLS, &e3_unbounded());
    Report::new(Json::obj([
        ("hierarchy", hierarchy.json()),
        ("unbounded", unbounded.json()),
    ]))
    .table(hierarchy)
    .text("### E3b — Theorem 8: unbounded range defeats any bound (ε = 1)")
    .table(unbounded)
}

/// E4 — §6.2 operation counts of one `Scan`, literal and optimized.
#[derive(Clone, Debug)]
pub struct E4Row {
    /// Number of processes.
    pub n: usize,
    /// Measured (reads, writes) of the literal Figure 5 scan.
    pub literal: (u64, u64),
    /// Paper's claim: (n²+n+1, n+2).
    pub literal_claim: (u64, u64),
    /// Measured (reads, writes) of the §6.2-optimized scan.
    pub optimized: (u64, u64),
    /// Paper's claim: (n²−1, n+1).
    pub optimized_claim: (u64, u64),
}

/// Run E4 over a range of n.
pub fn e4_rows(ns: &[usize]) -> Vec<E4Row> {
    ns.iter()
        .map(|&n| {
            let obj = ScanObject::new(n);
            // Round-robin (the builder default) makes the counts exact
            // and schedule-independent for this object.
            let mut sim =
                SimBuilder::new(obj.registers::<apram_lattice::MaxU64>()).owners(obj.owners());
            let lit = sim.run_symmetric(n, move |ctx| obj.scan(ctx, apram_lattice::MaxU64::new(1)));
            let opt = sim.run_symmetric(n, move |ctx| {
                let mut h = ScanHandle::new(obj);
                h.scan(ctx, apram_lattice::MaxU64::new(1))
            });
            lit.assert_no_panics();
            opt.assert_no_panics();
            E4Row {
                n,
                literal: (lit.counts[0].reads, lit.counts[0].writes),
                literal_claim: ((n * n + n + 1) as u64, (n + 2) as u64),
                optimized: (opt.counts[0].reads, opt.counts[0].writes),
                optimized_claim: ((n * n - 1) as u64, (n + 1) as u64),
            }
        })
        .collect()
}

/// `reads/writes`, as the E4 table prints a count pair.
fn slashed((reads, writes): (u64, u64)) -> String {
    format!("{reads}/{writes}")
}

const E4_COLS: &[Col<E4Row>] = &[
    Col::Same("n", "n", |r| r.n.json()),
    Col::Both(
        "literal reads/writes",
        |r| slashed(r.literal),
        "literal",
        |r| counts(r.literal),
    ),
    Col::Both(
        "paper n²+n+1 / n+2",
        |r| slashed(r.literal_claim),
        "paper_literal",
        |r| counts(r.literal_claim),
    ),
    Col::Both(
        "optimized reads/writes",
        |r| slashed(r.optimized),
        "optimized",
        |r| counts(r.optimized),
    ),
    Col::Both(
        "paper n²−1 / n+1",
        |r| slashed(r.optimized_claim),
        "paper_optimized",
        |r| counts(r.optimized_claim),
    ),
    Col::Json("matches_paper", |r| {
        (r.literal == r.literal_claim && r.optimized == r.optimized_claim).json()
    }),
];

/// The E4 report: the §6.2 counts, then the per-op step distributions
/// (the report's `distributions` section, and `telemetry.prom` — the
/// Prometheus text of the histograms behind them).
pub fn e4_report(opts: &ExpOpts) -> Report {
    // Every n in 2..=8 is measured (the paper-bound acceptance grid);
    // the larger sizes confirm the quadratic/linear shape.
    let ns: Vec<usize> = if opts.quick {
        vec![2, 3, 4]
    } else {
        (2..=8).chain([16, 32]).collect()
    };
    let dist = step_distributions(opts);
    let prom = dist.registry.to_prometheus();
    validate_prometheus(&prom).expect("generated Prometheus text must parse");
    let distributions = Table::of(DIST_COLS, &dist.rows);
    Report::of(Table::of(E4_COLS, &e4_rows(&ns)))
        .text("### E4 telemetry — per-op step distributions vs analytic bounds")
        .section("distributions", distributions.json())
        .table(distributions)
        .artifact(Sink::Telemetry, "telemetry.prom", prom)
}

/// E4b — the Aspnes–Herlihy lattice scan vs the Afek et al. snapshot
/// (paper §2: "time complexity comparable to ours"), measured.
#[derive(Clone, Debug)]
pub struct E4bRow {
    /// Number of processes.
    pub n: usize,
    /// Lattice scan reads per operation (schedule-independent, §6.2
    /// optimized form): n²−1.
    pub lattice_reads: u64,
    /// Afek snapshot reads for a quiet (uncontended) snap: 2n.
    pub afek_quiet_reads: u64,
    /// Afek snapshot reads for a snap under an interposing writer
    /// (forces failed double collects until a view is borrowed).
    pub afek_contended_reads: u64,
}

/// Run E4b over a range of n.
pub fn e4b_rows(ns: &[usize]) -> Vec<E4bRow> {
    use apram_model::sim::strategy::{BurstAdversary, PrioritizeLowest};
    ns.iter()
        .map(|&n| {
            let snap = AfekSnapshot::new(n);
            // Quiet: the scanner runs alone.
            let quiet = SimBuilder::new(snap.registers::<u64>())
                .owners(snap.owners())
                .strategy(PrioritizeLowest)
                .run_symmetric(1, move |ctx| snap.snap::<u64, _>(ctx));
            quiet.assert_no_panics();
            // Contended: the writer gets a long burst between scanner
            // steps (an update embeds a scan, so it needs 2n+2 steps per
            // write); every scanner double collect then observes a moved
            // sequence number until a view is borrowed.
            let bodies: Vec<ProcBody<'static, AfekReg<u64>, ()>> = vec![
                Box::new(move |ctx: &mut SimCtx<AfekReg<u64>>| {
                    let _ = snap.snap::<u64, _>(ctx);
                }),
                Box::new(move |ctx: &mut SimCtx<AfekReg<u64>>| {
                    for v in 0..10_000u64 {
                        snap.update(ctx, v);
                    }
                }),
            ];
            let contended = SimBuilder::new(snap.registers::<u64>())
                .owners(snap.owners())
                .max_steps(10_000_000)
                .strategy(BurstAdversary::new(1, 2 * n as u64 + 2))
                .run(bodies);
            contended.assert_no_panics();
            E4bRow {
                n,
                lattice_reads: (n * n - 1) as u64,
                afek_quiet_reads: quiet.counts[0].reads,
                afek_contended_reads: contended.counts[0].reads,
            }
        })
        .collect()
}

const E4B_COLS: &[Col<E4bRow>] = &[
    Col::Same("n", "n", |r| r.n.json()),
    Col::Same("lattice scan (always)", "lattice_reads", |r| {
        r.lattice_reads.json()
    }),
    Col::Same("Afek quiet (2n)", "afek_quiet_reads", |r| {
        r.afek_quiet_reads.json()
    }),
    Col::Same(
        "Afek under interposing writer",
        "afek_contended_reads",
        |r| r.afek_contended_reads.json(),
    ),
];

/// The E4b report.
pub fn e4b_report(opts: &ExpOpts) -> Report {
    let ns: &[usize] = if opts.quick { &[2, 4] } else { &[2, 4, 8] };
    Report::of(Table::of(E4B_COLS, &e4b_rows(ns)))
}

/// E5 — universal construction synchronization overhead per operation.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Number of processes.
    pub n: usize,
    /// Measured shared reads per `execute`.
    pub reads: u64,
    /// Measured shared writes per `execute`.
    pub writes: u64,
    /// Expected: 2·(n²−1) reads (two optimized scans: snap + update).
    pub reads_claim: u64,
    /// Expected: 2·(n+1) writes.
    pub writes_claim: u64,
}

/// Run E5 over a range of n.
pub fn e5_rows(ns: &[usize]) -> Vec<E5Row> {
    ns.iter()
        .map(|&n| {
            let uni = Universal::new(n, apram_core::CounterSpec);
            let uni2 = uni.clone();
            let out = SimBuilder::new(uni.registers())
                .owners(uni.owners())
                .run_symmetric(n, move |ctx| {
                    let mut h = uni2.handle();
                    h.execute(ctx, CounterOp::Inc(1));
                });
            out.assert_no_panics();
            E5Row {
                n,
                reads: out.counts[0].reads,
                writes: out.counts[0].writes,
                reads_claim: 2 * (n * n - 1) as u64,
                writes_claim: 2 * (n as u64 + 1),
            }
        })
        .collect()
}

// The table shows the four counts side by side; the report pairs them
// as `measured` / `paper`, so only `n` is on both sides.
const E5_COLS: &[Col<E5Row>] = &[
    Col::Same("n", "n", |r| r.n.json()),
    Col::Md("measured reads/op", |r| r.reads.to_string()),
    Col::Md("2(n²−1)", |r| r.reads_claim.to_string()),
    Col::Md("measured writes/op", |r| r.writes.to_string()),
    Col::Md("2(n+1)", |r| r.writes_claim.to_string()),
    Col::Json("measured", |r| counts((r.reads, r.writes))),
    Col::Json("paper", |r| counts((r.reads_claim, r.writes_claim))),
    Col::Json("matches_paper", |r| {
        (r.reads == r.reads_claim && r.writes == r.writes_claim).json()
    }),
];

/// The E5 report.
pub fn e5_report(opts: &ExpOpts) -> Report {
    let ns: &[usize] = if opts.quick {
        &[2, 3, 4]
    } else {
        &[2, 3, 4, 8, 12, 16]
    };
    Report::of(Table::of(E5_COLS, &e5_rows(ns)))
}

/// E6 — linearizability verification summary: per object, its table
/// label and the full [`ExploreStats`] of its exploration, so the table
/// can report schedules explored alongside the search overheads (replay
/// ratio, deepest branch point).
#[derive(Clone, Debug)]
pub struct E6Summary {
    /// `(label, stats)` per explored object, in table order.
    pub objects: Vec<(&'static str, ExploreStats)>,
    /// Histories checked in total (all linearizable, or [`e6_summary`]
    /// panics).
    pub histories_checked: u64,
}

impl E6Summary {
    /// Add one object: explore every schedule of `bodies` on `threads`
    /// workers — each worker plants a fresh [`Recorder`] per run and
    /// pushes the run's history into a shared sink — then drain the sink
    /// and check the whole batch with [`check_histories_parallel`],
    /// panicking on the first non-linearizable history.
    fn explore<T, Sp, B>(
        &mut self,
        label: &'static str,
        sim: &SimBuilder<T>,
        econfig: &ExploreConfig,
        threads: usize,
        spec: &Sp,
        bodies: B,
    ) where
        T: Clone + Send + Sync + 'static,
        Sp: NondetSpec + Sync,
        Sp::State: std::hash::Hash + Eq,
        Sp::Op: Clone + Send + Sync + 'static,
        Sp::Resp: Clone + Send + Sync + 'static,
        B: Fn(Recorder<Sp::Op, Sp::Resp>) -> Vec<ProcBody<'static, T, ()>> + Clone + Send,
    {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let stats = sim.explore_parallel(econfig, threads, |_worker| {
            let cell = Arc::new(Mutex::new(None::<Recorder<Sp::Op, Sp::Resp>>));
            let (fcell, sink, bodies) = (Arc::clone(&cell), Arc::clone(&sink), bodies.clone());
            let make = move || {
                let rec = Recorder::new();
                *fcell.lock().unwrap() = Some(rec.clone());
                bodies(rec)
            };
            let visit = move |out: &SimOutcome<T, ()>| {
                out.assert_no_panics();
                let hist = cell.lock().unwrap().take().unwrap().snapshot();
                sink.lock().unwrap().push(hist);
                true
            };
            (make, visit)
        });
        let batch = std::mem::take(&mut *sink.lock().unwrap());
        let outcomes = check_histories_parallel(spec, &batch, &CheckerConfig::default(), threads);
        assert!(outcomes.iter().all(|o| o.is_ok()), "E6: {label}: violation");
        self.objects.push((label, stats));
        self.histories_checked += batch.len() as u64;
    }
}

/// Run the E6 exhaustive checks (smaller than the test-suite versions;
/// the suite is the authority, this reports the counts for the table).
/// With a `heartbeat`, all four explorations stream periodic JSONL
/// progress beats (and a final beat each) into its sink.
pub fn e6_summary(opts: &ExpOpts, heartbeat: Option<Heartbeat>) -> E6Summary {
    use apram_core::universal::UniversalReg;
    use apram_objects::mwreg::{MwRegOp, MwRegResp, MwRegSpec, MwRegister, Stamped};
    let threads = opts.threads;
    let budgeted = |depth| {
        ExploreConfig::new()
            .max_runs(if opts.quick { 2_000 } else { 20_000 })
            .max_depth(depth)
            .heartbeat(heartbeat.clone())
    };
    let spec = SnapshotSpec::<u32>::new(2);
    let mut s = E6Summary {
        objects: Vec::new(),
        histories_checked: 0,
    };

    // Snapshot object: update+snap per process (the E10 workload),
    // truncated depth.
    let snap = Snapshot::new(2);
    let sim = SimBuilder::new(snap.registers::<u32>()).owners(snap.owners());
    let bodies = move |rec| e10_snapshot_bodies(snap, rec);
    s.explore(
        "atomic snapshot (2 procs)",
        &sim,
        &budgeted(12),
        threads,
        &spec,
        bodies,
    );

    // Universal counter: one op each + read, truncated.
    let uni = Universal::new(2, apram_core::CounterSpec);
    let sim = SimBuilder::new(uni.registers()).owners(uni.owners());
    let bodies = move |rec: Recorder<_, _>| {
        [CounterOp::Inc(1), CounterOp::Reset(5)]
            .into_iter()
            .enumerate()
            .map(|(p, op)| {
                let rec = rec.clone();
                let mut h = uni.handle();
                Box::new(
                    move |ctx: &mut SimCtx<UniversalReg<apram_core::CounterSpec>>| {
                        for op in [op, CounterOp::Read] {
                            rec.invoke(p, op);
                            let r = h.execute(ctx, op);
                            rec.respond(p, r);
                        }
                    },
                ) as ProcBody<'static, _, ()>
            })
            .collect()
    };
    let counter = apram_core::CounterSpec;
    s.explore(
        "universal counter (2 procs)",
        &sim,
        &budgeted(10),
        threads,
        &counter,
        bodies,
    );

    // Afek et al. snapshot, same workload and depth as the first.
    let afek = AfekSnapshot::new(2);
    let sim = SimBuilder::new(afek.registers::<u32>()).owners(afek.owners());
    let bodies = move |rec| e10_afek_bodies(afek, rec);
    s.explore(
        "Afek et al. snapshot (2 procs)",
        &sim,
        &budgeted(12),
        threads,
        &spec,
        bodies,
    );

    // MW register: write+read per process, full depth (exhaustible).
    let reg = MwRegister::new(2);
    let sim = SimBuilder::new(reg.registers::<u64>()).owners(reg.owners());
    let full_depth = ExploreConfig::new().heartbeat(heartbeat.clone());
    let bodies = move |rec: Recorder<_, _>| {
        (0..2usize)
            .map(|p| {
                let rec = rec.clone();
                Box::new(move |ctx: &mut SimCtx<Stamped<u64>>| {
                    rec.invoke(p, MwRegOp::Write(p as u64 + 1));
                    reg.write(ctx, p as u64 + 1);
                    rec.respond(p, MwRegResp::Ack);
                    rec.invoke(p, MwRegOp::Read);
                    let v = reg.read(ctx);
                    rec.respond(p, MwRegResp::Value(v));
                }) as ProcBody<'static, Stamped<u64>, ()>
            })
            .collect()
    };
    s.explore(
        "MW register (2 procs, full depth)",
        &sim,
        &full_depth,
        threads,
        &MwRegSpec,
        bodies,
    );
    s
}

const E6_COLS: &[Col<(&str, ExploreStats)>] = &[
    Col::Same("object", "object", |(label, _)| label.json()),
    Col::Same("schedules explored", "schedules_explored", |(_, st)| {
        st.runs.json()
    }),
    Col::Json("exhausted", |(_, st)| st.exhausted.json()),
    Col::Json("truncated", |(_, st)| st.truncated.json()),
    Col::Json("executed_steps", |(_, st)| st.executed_steps.json()),
    Col::Json("replayed_steps", |(_, st)| st.replayed_steps.json()),
    Col::Both(
        "replay overhead",
        |(_, st)| format!("{:.1}%", 100.0 * st.replay_ratio()),
        "replay_ratio",
        |(_, st)| st.replay_ratio().json(),
    ),
    Col::Same("max depth", "max_depth_reached", |(_, st)| {
        st.max_depth_reached.json()
    }),
    // Always 0: `e6_summary` panics on a violation.
    Col::Same("violations", "violations", |_| 0u64.json()),
];

/// The E6 report, with `heartbeat.jsonl`: the progress beats of the four
/// explorations.
pub fn e6_report(opts: &ExpOpts) -> Report {
    let (sink, beats) = buffer_sink();
    let heartbeat = Heartbeat::shared(Duration::from_millis(100), sink);
    let s = e6_summary(opts, Some(heartbeat));
    let beats = String::from_utf8(beats.lock().unwrap().clone()).expect("heartbeat JSONL is UTF-8");
    let total = [
        "total histories checked",
        &s.histories_checked.to_string(),
        "-",
        "-",
        "0",
    ];
    let objects = Table::of(E6_COLS, &s.objects);
    Report::new(Json::obj([
        ("objects", objects.json()),
        ("histories_checked", s.histories_checked.json()),
    ]))
    .table(objects.footer(total.map(String::from).to_vec()))
    .artifact(Sink::Telemetry, "heartbeat.jsonl", beats)
}

/// Number of processes in the exploration-throughput benchmark.
pub const EXPLORE_BENCH_PROCS: usize = 3;

/// One row of the exploration-throughput benchmark (`explore` in the
/// CLI, `BENCH_explore.json` on disk).
#[derive(Clone, Debug)]
pub struct ExploreBenchRow {
    /// Engine label: `"sequential"` (`explore`: the one search with the
    /// calling thread as its only worker) or `"parallel"`
    /// (`explore_parallel`: that search across work-stealing workers).
    /// Both run on pooled sim threads.
    pub engine: &'static str,
    /// Worker threads (1 for the sequential engine).
    pub threads: usize,
    /// Schedules explored (identical for every row by construction).
    pub runs: u64,
    /// Wall-clock seconds of the exploration.
    pub wall_secs: f64,
    /// Schedules per second.
    pub runs_per_sec: f64,
    /// Throughput relative to the sequential engine.
    pub speedup: f64,
}

/// Run the exploration-throughput benchmark: the E4 scan object with
/// [`EXPLORE_BENCH_PROCS`] processes each performing one optimized scan,
/// plain exploration truncated at a fixed branching depth so every
/// engine enumerates exactly the same schedule tree. Rows report the
/// sequential explorer followed by the parallel one at each thread count
/// in the grid (`opts.threads` when set, else 1/2/4/8); speedups are
/// relative to the sequential row. Panics if any engine disagrees on the
/// number of schedules — the benchmark doubles as an equivalence check.
pub fn explore_bench_rows(opts: &ExpOpts) -> Vec<ExploreBenchRow> {
    let n = EXPLORE_BENCH_PROCS;
    let depth = if opts.quick { 5 } else { 7 };
    let econfig = ExploreConfig::new().max_depth(depth);
    let obj = ScanObject::new(n);
    let make = move || {
        (0..n)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<apram_lattice::MaxU64>| {
                    let mut h = ScanHandle::new(obj);
                    let _ = h.scan(ctx, apram_lattice::MaxU64::new(p as u64 + 1));
                }) as ProcBody<'static, apram_lattice::MaxU64, ()>
            })
            .collect::<Vec<_>>()
    };
    let sim = SimBuilder::new(obj.registers::<apram_lattice::MaxU64>()).owners(obj.owners());
    let seq = sim.explore(&econfig, make, |out| {
        out.assert_no_panics();
        true
    });
    let base_rps = seq.runs_per_sec();
    let mut rows = vec![ExploreBenchRow {
        engine: "sequential",
        threads: 1,
        runs: seq.runs,
        wall_secs: seq.elapsed.as_secs_f64(),
        runs_per_sec: base_rps,
        speedup: 1.0,
    }];
    let grid: Vec<usize> = if opts.threads != 0 {
        vec![opts.threads]
    } else {
        vec![1, 2, 4, 8]
    };
    for t in grid {
        let stats = sim.explore_parallel(&econfig, t, |_worker| {
            (make, |out: &SimOutcome<apram_lattice::MaxU64, ()>| {
                out.assert_no_panics();
                true
            })
        });
        assert_eq!(
            stats.runs, seq.runs,
            "parallel explorer must enumerate the sequential tree"
        );
        assert_eq!(stats.exhausted, seq.exhausted);
        assert_eq!(stats.truncated, seq.truncated);
        rows.push(ExploreBenchRow {
            engine: "parallel",
            threads: resolve_threads(t),
            runs: stats.runs,
            wall_secs: stats.elapsed.as_secs_f64(),
            runs_per_sec: stats.runs_per_sec(),
            speedup: if base_rps > 0.0 {
                stats.runs_per_sec() / base_rps
            } else {
                0.0
            },
        });
    }
    rows
}

const EXPLORE_COLS: &[Col<ExploreBenchRow>] = &[
    Col::Same("engine", "engine", |r| r.engine.json()),
    Col::Same("threads", "threads", |r| r.threads.json()),
    Col::Same("schedules", "runs", |r| r.runs.json()),
    Col::Both(
        "wall secs",
        |r| format!("{:.3}", r.wall_secs),
        "wall_secs",
        |r| r.wall_secs.json(),
    ),
    Col::Both(
        "schedules/sec",
        |r| format!("{:.0}", r.runs_per_sec),
        "runs_per_sec",
        |r| r.runs_per_sec.json(),
    ),
    Col::Both(
        "speedup vs sequential",
        |r| format!("{:.2}x", r.speedup),
        "speedup",
        |r| r.speedup.json(),
    ),
];

/// The `explore` report.
pub fn explore_report(opts: &ExpOpts) -> Report {
    Report::of(Table::of(EXPLORE_COLS, &explore_bench_rows(opts)))
}

/// E8 — ablation / soundness outcomes for one configuration.
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Variant (or "OneShot" for the corrected fixed-round algorithm).
    pub variant: &'static str,
    /// Scan mode ("atomic", "collect", or "-" for OneShot).
    pub mode: &'static str,
    /// Configuration description.
    pub config: String,
    /// Search mode used ("exhaustive" or "random(N)").
    pub search: String,
    /// Executions examined.
    pub runs: u64,
    /// Did a safety violation appear, and what were the outputs?
    pub violation: Option<Vec<f64>>,
    /// Worst observed spread as a multiple of ε (where measured).
    pub spread_over_eps: Option<f64>,
}

/// Run the E8 grid: 2-process exhaustive safety, the n ≥ 3
/// counterexamples for every Figure 2 variant under both scan modes,
/// the bounded-spread measurement, and the corrected one-shot variant.
pub fn e8_rows(opts: &ExpOpts) -> Vec<E8Row> {
    use apram_agreement::ablation::max_spread;
    use apram_agreement::OneShotAgreement;
    let vname = |v| match v {
        Variant::Full => "Full",
        Variant::NoRescan => "NoRescan",
        Variant::MidpointOfAll => "MidpointOfAll",
    };
    let mname = |m| match m {
        ScanMode::Atomic => "atomic",
        ScanMode::Collect => "collect",
    };
    let mut rows = Vec::new();
    // 2 processes: exhaustive, everything safe.
    for variant in [Variant::Full, Variant::NoRescan, Variant::MidpointOfAll] {
        for mode in [ScanMode::Atomic, ScanMode::Collect] {
            let out = explore_machine(0.6, &[0.0, 1.0], variant, mode, 3_000_000);
            rows.push(E8Row {
                variant: vname(variant),
                mode: mname(mode),
                config: "n=2, ε=0.6, inputs {0,1}".into(),
                search: "exhaustive".into(),
                runs: out.runs,
                violation: out.violation.map(|(_, ys)| ys),
                spread_over_eps: None,
            });
        }
    }
    // 3 processes: seeded random search; every Figure 2 variant breaks.
    // (variant, scan mode, ε, inputs, search seed)
    let wide = [0.0, 0.9, 1.0];
    for (variant, mode, eps, inputs, seed) in [
        (Variant::Full, ScanMode::Collect, 0.15, wide, 1),
        (Variant::Full, ScanMode::Atomic, 0.15, wide, 3),
        (Variant::NoRescan, ScanMode::Collect, 0.15, wide, 1),
        (Variant::NoRescan, ScanMode::Atomic, 0.15, wide, 3),
        (
            Variant::MidpointOfAll,
            ScanMode::Atomic,
            0.1,
            [0.0, 0.7, 1.0],
            2,
        ),
    ] {
        let out = random_search(eps, &inputs, variant, mode, 30_000, seed);
        let spread = max_spread(eps, &inputs, variant, mode, 10_000, seed);
        rows.push(E8Row {
            variant: vname(variant),
            mode: mname(mode),
            config: format!("n={}, ε={eps}, inputs {inputs:?}", inputs.len()),
            search: "random(30000)".into(),
            runs: out.runs,
            violation: out.violation.map(|(_, ys)| ys),
            spread_over_eps: Some(spread),
        });
    }
    // The corrected fixed-round variant on the breaking configurations.
    let sim_seeds = if opts.quick { 40u64 } else { 200 };
    for (eps, inputs) in [
        (0.15f64, vec![0.0, 0.9, 1.0]),
        (0.08, vec![0.0, 0.5, 0.9, 1.0]),
    ] {
        let n = inputs.len();
        let obj = OneShotAgreement::new(n, eps, 0.0, 1.0);
        let mut violation = None;
        let mut runs = 0u64;
        let mut worst: f64 = 0.0;
        for seed in 0..sim_seeds {
            let inputs_ref = &inputs;
            let obj_ref = &obj;
            let out = SimBuilder::new(obj.registers())
                .owners(obj.owners())
                .strategy(apram_model::sim::strategy::SeededRandom::new(
                    opts.seed + seed,
                ))
                .run_symmetric(n, move |ctx| obj_ref.run(ctx, inputs_ref[ctx.proc()]));
            let ys = out.unwrap_results();
            runs += 1;
            worst = worst.max(apram_agreement::range_width(&ys) / eps);
            if !apram_agreement::spec::outputs_valid(eps, &inputs, &ys) {
                violation = Some(ys);
                break;
            }
        }
        rows.push(E8Row {
            variant: "OneShot (fixed R)",
            mode: "-",
            config: format!("n={n}, ε={eps}, inputs {inputs:?}"),
            search: format!("random({sim_seeds} sim)"),
            runs,
            violation,
            spread_over_eps: Some(worst),
        });
    }
    rows
}

const E8_COLS: &[Col<E8Row>] = &[
    Col::Same("variant", "variant", |r| r.variant.json()),
    Col::Same("scan", "scan_mode", |r| r.mode.json()),
    Col::Same("config", "config", |r| r.config.json()),
    Col::Same("search", "search", |r| r.search.json()),
    Col::Same("runs", "runs", |r| r.runs.json()),
    Col::Both(
        "safety",
        |r| match &r.violation {
            Some(ys) => format!("VIOLATION {ys:?}"),
            None => "safe".into(),
        },
        "violation",
        |r| r.violation.json(),
    ),
    Col::Both(
        "max spread/ε",
        |r| r.spread_over_eps.map_or("-".into(), |x| format!("{x:.2}")),
        "max_spread_over_eps",
        |r| r.spread_over_eps.json(),
    ),
];

/// The E8 report.
pub fn e8_report(opts: &ExpOpts) -> Report {
    Report::of(Table::of(E8_COLS, &e8_rows(opts)))
}

/// The recorder cell shared between the E9 factory and its visitors.
/// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>` so the factory is
/// `Send` and can serve as a per-worker factory of the parallel
/// explorer as well as the sequential one.
pub type E9RecCell = Arc<Mutex<Option<Recorder<SnapOp<u32>, SnapResp<u32>>>>>;

/// Number of processes in the E9 scenario (one scanner, two writers).
pub const E9_PROCS: usize = 3;

/// Body factory for the E9 forensics scenario: P0 runs one recorded
/// [`naive_collect`] scan, P1 and P2 each run two recorded updates. Every
/// recorded event sits *between* two shared accesses of its process (each
/// body opens with a warmup read of its own slot), so the captured
/// history is a deterministic function of the schedule — the re-execution
/// contract that exploration and schedule shrinking rely on.
///
/// Shared so the acceptance test in `tests/forensics.rs` drives the exact
/// scenario the experiment reports on.
pub fn e9_factory(
    arr: CollectArray,
    cell: E9RecCell,
) -> impl FnMut() -> Vec<ProcBody<'static, Tagged<u32>, ()>> {
    move || {
        let rec: Recorder<SnapOp<u32>, SnapResp<u32>> = Recorder::new();
        *cell.lock().unwrap() = Some(rec.clone());
        let scanner = rec.clone();
        let mut bodies: Vec<ProcBody<'static, Tagged<u32>, ()>> =
            vec![Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                let _ = ctx.read(0); // warmup: anchor the events below
                scanner.invoke(0, SnapOp::Snap);
                let view = naive_collect(&arr, ctx);
                scanner.respond(0, SnapResp::View(view));
            })];
        for p in 1..E9_PROCS {
            let rec = rec.clone();
            bodies.push(Box::new(move |ctx: &mut SimCtx<Tagged<u32>>| {
                let _ = ctx.read(p); // warmup
                let mut h = DoubleCollect::new(arr);
                for k in 0..2u32 {
                    let v = 10 * p as u32 + k;
                    rec.record(p, SnapOp::Update(v), || {
                        h.update(ctx, v);
                        SnapResp::Ack
                    });
                }
            }));
        }
        bodies
    }
}

/// E9 — one operation class of the shrunk counterexample: observed
/// shared-memory steps vs the paper's per-operation cost.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// Operation class label.
    pub op: &'static str,
    /// Completed operations of that class in the shrunk run.
    pub ops: u64,
    /// Shared accesses the class performed in the shrunk run (warmup
    /// reads excluded).
    pub observed_steps: u64,
    /// Analytic cost: `n` reads per collect, 1 write per update.
    pub bound: u64,
}

/// Everything E9 produces: the exploration (shrunk violation and span
/// tree inside), the per-operation step accounting of the minimal run,
/// the checker's structured witness explanation with its rendering, and
/// the checker's own span tree.
#[derive(Clone, Debug)]
pub struct E9Report {
    /// Exploration stats; [`ExploreStats::violation`] holds the shrink
    /// report and [`ExploreStats::spans`] the explorer span tree.
    pub explore: ExploreStats,
    /// Per-operation step counts vs paper costs, measured on the shrunk
    /// schedule's strict replay.
    pub rows: Vec<E9Row>,
    /// Structured explanation of why the shrunk run's history fails.
    pub explanation: FailureExplanation,
    /// Human-readable rendering of `explanation` (with the operation
    /// timeline).
    pub rendered: String,
    /// Span tree of the final traced linearizability check.
    pub check_spans: SpanNode,
    /// Search nodes the final check explored before concluding.
    pub check_explored: u64,
    /// Histories checked across exploration and shrinking.
    pub histories_checked: u64,
}

/// Run E9 — failure forensics end to end on the naive-collect negative
/// control: explore until the checker rejects a history, shrink the
/// failing schedule to a locally minimal one, strict-replay it, and
/// explain the resulting violation.
///
/// # Panics
/// Panics if the naive collect fails to produce a violation (it always
/// does: that is what makes it the negative control).
pub fn e9_forensics(opts: &ExpOpts) -> E9Report {
    let arr = CollectArray::new(E9_PROCS);
    let spec = SnapshotSpec::<u32>::new(E9_PROCS);
    let cell: E9RecCell = Arc::new(Mutex::new(None));
    let mut histories = 0u64;
    let econfig = ExploreConfig::new()
        .max_runs(if opts.quick { 20_000 } else { 200_000 })
        .shrink(true)
        .trace_spans(true);
    let visit_cell = Arc::clone(&cell);
    let explore = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .explore(&econfig, e9_factory(arr, Arc::clone(&cell)), |out| {
            out.assert_no_panics();
            let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
            histories += 1;
            check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok()
        });
    let report = explore
        .violation
        .clone()
        .expect("the naive collect must produce a violation");

    // Strict-replay the minimal schedule (every entry is serviced, so the
    // step budget pins the execution exactly) and explain its history.
    let mut factory = e9_factory(arr, Arc::clone(&cell));
    let out = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .strategy(Replay::strict(report.schedule.clone()))
        .max_steps(report.schedule.len() as u64)
        .run(factory());
    out.assert_no_panics();
    let hist = cell.lock().unwrap().take().unwrap().snapshot();
    let mut spans = SpanRecorder::new("forensics");
    let verdict = check_linearizable_traced(&spec, &hist, &CheckerConfig::default(), &mut spans);
    let check_spans = spans.finish();
    let CheckOutcome::Violation(Violation::NotLinearizable {
        explored,
        explanation,
    }) = verdict
    else {
        panic!("shrunk schedule no longer violates: {verdict:?}");
    };
    let explanation = *explanation;
    let ops = Ops::extract(&hist);
    let rendered = explanation.render(&ops);

    // Per-operation accounting on the minimal run. The scanner's accesses
    // are its warmup plus one collect (n reads); each serviced update is
    // exactly one write, so a locally minimal schedule should spend
    // nothing beyond the analytic costs.
    let updates: u64 = ops
        .records()
        .iter()
        .filter(|r| matches!(r.op, SnapOp::Update(_)) && !r.is_pending())
        .count() as u64;
    let rows = vec![
        E9Row {
            op: "naive collect scan (P0)",
            ops: 1,
            observed_steps: out.counts[0].reads.saturating_sub(1),
            bound: E9_PROCS as u64,
        },
        E9Row {
            op: "update (P1, P2)",
            ops: updates,
            observed_steps: (1..E9_PROCS).map(|p| out.counts[p].writes).sum(),
            bound: updates,
        },
    ];

    E9Report {
        explore,
        rows,
        explanation,
        rendered,
        check_spans,
        check_explored: explored,
        histories_checked: histories,
    }
}

const E9_COLS: &[Col<E9Row>] = &[
    Col::Same("operation", "op", |r| r.op.json()),
    Col::Same("ops", "ops", |r| r.ops.json()),
    Col::Same("observed steps", "observed_steps", |r| {
        r.observed_steps.json()
    }),
    Col::Same("paper cost", "paper_cost", |r| r.bound.json()),
    Col::Json("within_bound", |r| (r.observed_steps <= r.bound).json()),
];

/// The E9 report: the step table, the shrink summary and the rendered
/// witness; `spans.folded` (both span trees in collapsed-stack format —
/// pipe into any flamegraph renderer) for `--telemetry`; and the
/// `--forensics` bundle: the shrunk schedule as JSONL (a report line,
/// then one line per step), the witness explanation as JSON and as
/// rendered text, and both span trees as JSON.
pub fn e9_report(opts: &ExpOpts) -> Report {
    let r = e9_forensics(opts);
    let shrink = r.explore.violation.as_ref().expect("e9 always violates");
    let explore_spans = r.explore.spans.as_ref().expect("spans traced");
    let rows = Table::of(E9_COLS, &r.rows);
    let witness: Vec<String> = r.rendered.lines().map(|l| format!("    {l}")).collect();
    let mut jsonl = shrink.to_json().to_compact() + "\n";
    for (step, &proc) in shrink.schedule.iter().enumerate() {
        let line = Json::obj([("step", step.json()), ("proc", proc.json())]);
        jsonl += &(line.to_compact() + "\n");
    }
    let spans = Json::obj([
        ("explore", explore_spans.to_json()),
        ("check", r.check_spans.to_json()),
    ]);
    Report::new(Json::obj([
        ("rows", rows.json()),
        ("shrink", shrink.to_json()),
        ("explanation", r.explanation.to_json()),
        ("check_explored", r.check_explored.json()),
        ("histories_checked", r.histories_checked.json()),
    ]))
    .table(rows)
    .text(format!(
        "schedule shrunk {} → {} steps ({} candidate re-executions, {} adopted); \
         final check explored {} nodes; {} histories checked in total",
        shrink.original.len(),
        shrink.schedule.len(),
        shrink.stats.attempts,
        shrink.stats.useful,
        r.check_explored,
        r.histories_checked
    ))
    .text(witness.join("\n"))
    .artifact(Sink::Forensics, "shrunk_schedule.jsonl", jsonl)
    .artifact(
        Sink::Forensics,
        "witness.json",
        r.explanation.to_json().to_pretty(2),
    )
    .artifact(Sink::Forensics, "witness.txt", r.rendered.clone())
    .artifact(Sink::Forensics, "spans.json", spans.to_pretty(2))
    .artifact(
        Sink::Telemetry,
        "spans.folded",
        explore_spans.to_folded() + &r.check_spans.to_folded(),
    )
}

// ---------------------------------------------------------------------------
// E10 — wait-freedom certification: the certified (n, f) grid

/// Workers used for the parallel-agreement half of every E10 cell.
const E10_THREADS: usize = 4;

/// The certified constructions: `(simspec registry name, report label)`.
/// The labels predate the registry and are what `BENCH_e10.json` and
/// the CI gate know the rows by.
const E10_OBJECTS: [(&str, &str); 3] = [
    ("snapshot", "snapshot"),
    ("afek", "afek"),
    ("double-collect", "double collect"),
];

/// One cell of the certified `(n, f)` grid.
#[derive(Clone, Debug)]
pub struct E10Row {
    /// Object under certification (its report label).
    pub object: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Fault budget: the certificate covers every crash pattern with at
    /// most `f` crashes.
    pub f: usize,
    /// Branching depth of the certified schedule/crash prefix.
    pub depth: usize,
    /// Analytic per-process step bound the survivors are held to.
    pub bound: u64,
    /// Whether the cell is expected to certify — `false` only for the
    /// lock-based snapshot, the negative control.
    pub expect_pass: bool,
    /// The one-worker certificate.
    pub cert: Certificate,
    /// Whether a 4-worker certification of the same cell is
    /// bit-identical to the one-worker certificate.
    pub parallel_agrees: bool,
}

impl E10Row {
    /// Worst observed survivor latency in the cell (max over processes;
    /// for a failed cell, over the witness execution).
    pub fn worst_latency(&self) -> u64 {
        self.cert.worst_steps.iter().copied().max().unwrap_or(0)
    }

    /// Verdict matches the expectation and the parallel certifier
    /// agreed.
    pub fn ok(&self) -> bool {
        self.cert.passed() == self.expect_pass && self.parallel_agrees
    }
}

/// Certify one cell through the sweep's exhaustive cell — bounds,
/// depths, workloads and the lock control's step cap all come from the
/// [`apram_objects::simspec`] registry — once with one worker (the
/// sequential order) and once with [`E10_THREADS`].
fn e10_row(object: &str, label: &'static str, n: usize, f: usize, expect_pass: bool) -> E10Row {
    let cell = SweepCell {
        object: object.into(),
        n,
        f,
        sched: CellSched::Exhaustive,
        runs: 0,
        depth: 0,
    };
    let (depth, cert) = certify_cell(&cell, 1);
    let (_, parallel) = certify_cell(&cell, E10_THREADS);
    E10Row {
        object: label,
        n,
        f,
        depth,
        bound: object_bound(object, n),
        expect_pass,
        parallel_agrees: parallel == cert,
        cert,
    }
}

/// E10 — the certified `(n, f)` grid: for each wait-free snapshot
/// construction and each fault budget `f`, an exhaustive fault-aware
/// certificate that every survivor finishes within its analytic step
/// bound and every crash-truncated history linearizes; plus the
/// lock-based snapshot as the expected-to-fail negative control
/// (`n = 2, f = 1`). A crash while holding the lock wedges the survivor
/// on the spin, so the step-bound judge convicts. The *minimized*
/// witness then needs no crash at all — adversarial descheduling
/// starves the survivor just as well, which is exactly why locks are
/// not wait-free in this model.
pub fn e10_rows(opts: &ExpOpts) -> Vec<E10Row> {
    let ns: &[usize] = if opts.quick { &[2] } else { &[2, 3] };
    let mut rows = Vec::new();
    for &n in ns {
        for f in 0..=2usize {
            for (object, label) in E10_OBJECTS {
                rows.push(e10_row(object, label, n, f, true));
            }
        }
    }
    rows.push(e10_row("lock", "lock snapshot", 2, 1, false));
    rows
}

// The table's `verdict` and the report's `passed` are one fact in two
// places of their rows, hence two one-sided columns.
const E10_COLS: &[Col<E10Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("n", "n", |r| r.n.json()),
    Col::Same("f", "f", |r| r.f.json()),
    Col::Same("depth", "depth", |r| r.depth.json()),
    Col::Same("step bound", "bound", |r| r.bound.json()),
    Col::Json("expect_pass", |r| r.expect_pass.json()),
    Col::Json("passed", |r| r.cert.passed().json()),
    Col::Md("runs", |r| r.cert.runs.to_string()),
    Col::Md("crash branches", |r| r.cert.crash_branches.to_string()),
    Col::Same("worst survivor steps", "worst_survivor_steps", |r| {
        r.worst_latency().json()
    }),
    Col::Md("verdict", |r| {
        let verdict = if r.cert.passed() {
            "certified"
        } else {
            "FAILED"
        };
        verdict.into()
    }),
    Col::Same("parallel agrees", "parallel_agrees", |r| {
        r.parallel_agrees.json()
    }),
    Col::Json("certificate", |r| r.cert.to_json()),
];

/// The E10 report: the grid, then what convicted the negative control.
pub fn e10_report(opts: &ExpOpts) -> Report {
    let rows = e10_rows(opts);
    let report = Report::of(Table::of(E10_COLS, &rows));
    let lock = rows.last().expect("grid includes the negative control");
    match &lock.cert.violation {
        Some(v) => report.text(format!(
            "negative control ({}): {:?}; minimized witness = {} steps, {} crashes",
            lock.object,
            v.kind,
            v.report.schedule.len(),
            v.report.crashes.len()
        )),
        None => report,
    }
}

// ---------------------------------------------------------------------------
// E11 — sampled tail latency: the stochastic complement of E10

/// One cell of the sampled tail-latency grid.
#[derive(Clone, Debug)]
pub struct E11Row {
    /// Object under sampling (a [`crate::sweep::SWEEP_OBJECTS`] name).
    pub object: String,
    /// Number of processes.
    pub n: usize,
    /// Random crash victims injected per run.
    pub f: usize,
    /// Analytic per-process step bound (for `lock`, the reference bound
    /// its tail is expected to blow through).
    pub bound: u64,
    /// Whether the tail is expected to stay within the bound — `false`
    /// only for the lock-based negative control.
    pub expect_within: bool,
    /// The sampling result (scheduler, histogram, CI, violations).
    pub report: apram_model::sim::SampleReport,
}

impl E11Row {
    /// The worst sampled survivor step count stayed within the bound.
    /// (`hist.max` is exact — unlike the quantiles it is not bucketed.)
    pub fn within_bound(&self) -> bool {
        self.report.hist.max <= self.bound
    }

    /// Verdict matches the expectation: wait-free tails inside the
    /// bound with zero exceedances, the lock tail outside it.
    pub fn ok(&self) -> bool {
        if self.expect_within {
            self.within_bound() && self.report.exceedances == 0 && self.report.passed()
        } else {
            !self.within_bound() && self.report.exceedances > 0
        }
    }
}

/// E11 — the sampled tail-latency grid: for every wait-free snapshot
/// construction (and the paper's scan object), draw a large budget of
/// uniform-random and PCT schedules with one random crash per run and
/// record the per-survivor step distribution; the analytic bounds of
/// E10 must hold at every sampled percentile (p50/p99/p999/max, with a
/// Wilson 95% CI on the exceedance rate). The lock-based snapshot rides
/// along as the unbounded-tail negative control: its p999/max blow
/// through the reference bound that wait-free objects cannot exceed.
///
/// Seeding follows the sweep scheme exactly — each cell samples from
/// `split(seed, STREAM_CELL ^ fnv1a(cell_id))` — so an E11 cell is
/// bit-identical to the same cell run by `experiments sweep`.
pub fn e11_rows(opts: &ExpOpts) -> Vec<E11Row> {
    let ns: &[usize] = if opts.quick { &[2] } else { &[2, 3] };
    let runs: u64 = if opts.quick { 300 } else { 4000 };
    let scheds = [CellSched::Random, CellSched::Pct(3)];
    let mut rows = Vec::new();
    let push = |object: &str, n: usize, expect_within: bool, rows: &mut Vec<E11Row>| {
        for sched in scheds {
            let cell = SweepCell {
                object: object.into(),
                n,
                f: 1,
                sched,
                runs,
                depth: 0,
            };
            let report = run_sample_cell(&cell, cell.seed(opts.seed), opts.threads);
            rows.push(E11Row {
                object: object.into(),
                n,
                f: 1,
                bound: object_bound(object, n),
                expect_within,
                report,
            });
        }
    };
    for &n in ns {
        for object in ["snapshot", "afek", "double-collect", "scan"] {
            push(object, n, true, &mut rows);
        }
    }
    push("lock", 2, false, &mut rows);
    rows
}

// The table spreads the sample over percentile columns; the report
// nests the whole sample under one key.
const E11_COLS: &[Col<E11Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("n", "n", |r| r.n.json()),
    Col::Same("f", "f", |r| r.f.json()),
    Col::Md("scheduler", |r| r.report.scheduler.clone()),
    Col::Md("runs", |r| r.report.runs.to_string()),
    Col::Md("p50", |r| r.report.hist.p50().to_string()),
    Col::Md("p99", |r| r.report.hist.p99().to_string()),
    Col::Md("p999", |r| r.report.hist.p999().to_string()),
    Col::Md("max", |r| r.report.hist.max.to_string()),
    Col::Same("bound", "bound", |r| r.bound.json()),
    Col::Md("exceed 95% CI", |r| {
        let (lo, hi) = r.report.exceed_ci();
        format!("[{lo:.4}, {hi:.4}]")
    }),
    Col::Md("verdict", |r| {
        let verdict = match (r.ok(), r.expect_within) {
            (false, _) => "UNEXPECTED",
            (true, true) => "within",
            (true, false) => "exceeds (expected)",
        };
        verdict.into()
    }),
    Col::Json("expect_within", |r| r.expect_within.json()),
    Col::Json("within_bound", |r| r.within_bound().json()),
    Col::Json("ok", |r| r.ok().json()),
    Col::Json("sample", |r| r.report.to_json()),
];

/// The E11 report: the grid, then how far out the negative control's
/// tail went.
pub fn e11_report(opts: &ExpOpts) -> Report {
    let rows = e11_rows(opts);
    let lock = rows.last().expect("grid includes the negative control");
    Report::of(Table::of(E11_COLS, &rows)).text(format!(
        "negative control ({}): sampled exceedance rate {:.3} \
         ({} of {} runs past the reference bound)",
        lock.object,
        lock.report.exceed_rate(),
        lock.report.exceedances,
        lock.report.samples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_counts_match_claims() {
        for row in e4_rows(&[2, 3, 5]) {
            assert_eq!(row.literal, row.literal_claim, "n={}", row.n);
            assert_eq!(row.optimized, row.optimized_claim, "n={}", row.n);
        }
    }

    #[test]
    fn e5_counts_match_claims() {
        for row in e5_rows(&[2, 3]) {
            assert_eq!(row.reads, row.reads_claim, "n={}", row.n);
            assert_eq!(row.writes, row.writes_claim, "n={}", row.n);
        }
    }

    #[test]
    fn e2_meets_bound() {
        for row in e2_rows(4) {
            assert!(row.forced_confrontations >= row.bound, "{row:?}");
            assert!(row.final_gap < 3f64.powi(-(row.k as i32)), "{row:?}");
        }
    }

    #[test]
    fn e1_within_bound() {
        for row in e1_rows(&ExpOpts::default())
            .into_iter()
            .filter(|r| r.n <= 4)
        {
            assert!(
                row.measured_worst <= row.bound,
                "measured {} > bound {} at n={} Δ/ε={}",
                row.measured_worst,
                row.bound,
                row.n,
                row.delta_over_eps
            );
        }
    }

    #[test]
    fn e6_explores_and_checks() {
        let opts = ExpOpts {
            seed: 0,
            quick: true,
            threads: 2,
        };
        let s = e6_summary(&opts, None);
        assert_eq!(s.objects.len(), 4);
        let total_runs: u64 = s.objects.iter().map(|(_, st)| st.runs).sum();
        assert_eq!(s.histories_checked, total_runs);
        for (name, st) in &s.objects {
            assert!(st.runs > 0, "{name}: no schedules explored");
            assert!(st.max_depth_reached > 0, "{name}: depth not tracked");
            assert!(st.replay_ratio() < 1.0, "{name}: {st:?}");
            assert_eq!(st.sleep_skips, 0, "{name}: plain explore cannot prune");
        }
    }

    #[test]
    fn explore_bench_engines_agree_on_the_tree() {
        let rows = explore_bench_rows(&ExpOpts {
            seed: 0,
            quick: true,
            threads: 2,
        });
        // Sequential baseline plus one parallel row for the requested
        // thread count; explore_bench_rows itself asserts run equality.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].engine, "sequential");
        assert_eq!(rows[1].engine, "parallel");
        assert_eq!(rows[1].threads, 2);
        assert_eq!(rows[0].runs, rows[1].runs);
        for row in &rows {
            assert!(row.runs > 0, "{row:?}");
            assert!(row.wall_secs > 0.0, "{row:?}");
            assert!(row.runs_per_sec > 0.0, "{row:?}");
            assert!(row.speedup > 0.0, "{row:?}");
        }
    }

    #[test]
    fn e10_grid_certifies_as_expected() {
        let rows = e10_rows(&ExpOpts {
            seed: 0,
            quick: true,
            threads: 0,
        });
        // Quick grid: 3 objects × f ∈ {0,1,2} at n=2, plus the lock.
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert!(row.ok(), "cell failed: {row:?}");
            assert!(row.cert.runs > 0, "{row:?}");
        }
        let lock = rows.last().unwrap();
        assert_eq!(lock.object, "lock snapshot");
        assert!(!lock.cert.passed(), "lock snapshot must not certify");
        let v = lock.cert.violation.as_ref().expect("lock violation");
        assert!(
            matches!(v.kind, apram_model::ViolationKind::StepBound { .. }),
            "{v:?}"
        );
        // The shrinker minimizes the crash pattern all the way to empty:
        // starving the survivor on the lock spin needs no crash, because
        // in this model a crash is only permanent descheduling.
        assert!(v.report.crashes.is_empty(), "{v:?}");
    }

    #[test]
    fn e11_tails_respect_bounds_and_convict_the_lock() {
        let rows = e11_rows(&ExpOpts {
            seed: 0,
            quick: true,
            threads: 2,
        });
        // Quick grid: 4 wait-free objects × 2 samplers at n=2, + 2 lock cells.
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert!(row.ok(), "cell failed: {row:?}");
            assert_eq!(row.report.runs, 300, "{row:?}");
            assert!(row.report.samples > 0, "{row:?}");
        }
        let schedulers: Vec<&str> = rows.iter().map(|r| r.report.scheduler.as_str()).collect();
        assert!(schedulers.contains(&"random") && schedulers.contains(&"pct(3)"));
        // Wait-free tails: every percentile inside the bound, and the
        // 95% CI on the exceedance rate starts at zero.
        for row in rows.iter().filter(|r| r.expect_within) {
            assert!(row.report.hist.p999() <= row.bound, "{row:?}");
            assert_eq!(row.report.exceed_ci().0, 0.0, "{row:?}");
        }
        // The lock's tail blows through the reference bound.
        for lock in rows.iter().filter(|r| r.object == "lock") {
            assert!(lock.report.hist.max > lock.bound, "{lock:?}");
            assert!(lock.report.exceed_rate() > 0.0, "{lock:?}");
        }
    }

    #[test]
    fn e9_minimal_run_meets_paper_costs() {
        let r = e9_forensics(&ExpOpts {
            seed: 0,
            quick: true,
            threads: 0,
        });
        let shrink = r.explore.violation.as_ref().expect("violation captured");
        assert!(
            shrink.schedule.len() < shrink.original.len(),
            "shrunk {} vs original {}",
            shrink.schedule.len(),
            shrink.original.len()
        );
        // A locally minimal run spends exactly the analytic per-op costs.
        for row in &r.rows {
            assert!(row.ops > 0, "{row:?}");
            assert_eq!(row.observed_steps, row.bound, "{row:?}");
        }
        assert!(!r.explanation.edges.is_empty());
        assert!(r.rendered.contains("not linearizable"), "{}", r.rendered);
        assert!(r.rendered.contains("timeline:"), "{}", r.rendered);
        // Both span trees are present: the explorer's (with a nested
        // shrink span) and the checker's.
        let espans = r.explore.spans.as_ref().expect("explore spans");
        assert!(espans.children.iter().any(|c| c.name == "shrink"));
        let check = r
            .check_spans
            .children
            .iter()
            .find(|c| c.name == "check")
            .expect("check span");
        assert_eq!(check.counter("nodes"), Some(r.check_explored));
        assert!(r.histories_checked > r.explore.runs, "shrink re-checks");
    }

    #[test]
    fn e8_shapes() {
        let rows = e8_rows(&ExpOpts::default());
        // 2-process exhaustive rows are all safe.
        assert!(rows
            .iter()
            .filter(|r| r.search == "exhaustive")
            .all(|r| r.violation.is_none()));
        // Every Figure 2 variant violates at n ≥ 3 (both modes for Full).
        for (v, m) in [
            ("Full", "collect"),
            ("Full", "atomic"),
            ("NoRescan", "collect"),
            ("MidpointOfAll", "atomic"),
        ] {
            assert!(
                rows.iter().any(|r| r.variant == v
                    && r.mode == m
                    && r.search != "exhaustive"
                    && r.violation.is_some()),
                "expected {v}/{m} violation"
            );
        }
        // The corrected variant is safe with small spread.
        assert!(rows
            .iter()
            .filter(|r| r.variant.starts_with("OneShot"))
            .all(|r| r.violation.is_none() && r.spread_over_eps.unwrap() < 1.0));
    }
}
