//! E14 — flight-recorder overhead and online linearizability
//! spot-checks on the native backend.
//!
//! PR 8's E13 measured the native register file's raw throughput; E14
//! measures what *observing* it costs. The grid crosses:
//!
//! * **objects** — the striped counter (packed tier), the direct
//!   max-register (packed), the Afek et al. bounded snapshot (buffered
//!   tier, owner-mapped SWMR cells), and `mwreg` — a single buffered
//!   register with *no* owner map, so every write goes through the
//!   MWMR hardware-ticket path and `TicketDraw` events actually fire;
//! * **recorder modes** — `off` (no [`apram_model::FlightRecorder`]
//!   attached: the
//!   per-access cost is one `Option` branch), `sampled64` (1-in-64
//!   ops traced), and `always` (every op traced);
//! * **threads** — the E13 thread grid.
//!
//! Each cell brackets its logical ops with [`apram_model::NativeCtx::op_begin`] /
//! `op_end`, then drains the rings and reports throughput, latency
//! percentiles, and the flight-log columns: events recorded / drained
//! / dropped (exact by the ring accounting invariant), `ReadRetry`
//! event count, ticket draws, and draws that landed within 1µs of
//! another process's draw (`contended_draws` — the Bender et al.
//! contention-event measure).
//!
//! The **spot-check** phase is drain (c) from the flight-recorder
//! design: dedicated always-on runs, small enough that no ring ever
//! drops, whose begin/end events are reconstructed into op histories
//! and batch-checked by the audit of the object's registry row
//! ([`apram_objects::spec::ObjectSpec::audit`]) — the native twin of
//! the simulator's witness pipeline. Reconstruction is sound
//! because a begin stamp is read before any access of the op can start
//! and an end stamp after its last access is visible to every core
//! (fenced stamps: [`apram_model::flight::stamp`]): the measured
//! interval *contains* the true one, so any precedence the
//! reconstruction asserts
//! (`end(A) < begin(B)`) also holds between the true intervals, and a
//! linearization of the widened history would only get easier — i.e.
//! the check can produce false alarms never, missed overlaps at worst.
//!
//! Gates (enforced in CI on the quick grid via
//! `scripts/compare_bench.py --e14-gate`): 1-in-64 sampling must keep
//! ≥ 95% of recorder-off counter throughput (summed across thread
//! counts, which absorbs per-cell runner noise), every spot-checked
//! history must be linearizable, and the spot-check runs must have
//! dropped zero events (otherwise the histories would be partial).

use crate::e13::timed_cell;
use crate::report::{Col, Report, Sink, Table, ToJson};
use crate::{e13_threads, host_parallelism, spec_ops_per_thread, ExpOpts};
use apram_model::seed::split;
use apram_model::telemetry::{HistogramSnapshot, TelemetryRegistry};
use apram_model::{FlightEvent, FlightLog, FlightMode, Json, OpSpan};
use apram_objects::spec::{native_spec, AuditWindow, BuildCtx, OpOutput, OP_READ, OP_UPDATE};

/// The E14 object names, in emission order (each is an
/// [`apram_objects::spec`] registry name; each cell runs on its spec's
/// preferred tier).
pub const E14_OBJECTS: [&str; 4] = ["counter", "maxreg", "afek", "mwreg"];

/// The E14 recorder modes, in emission order.
pub const E14_MODES: [&str; 3] = ["off", "sampled64", "always"];

/// Ring capacity for grid cells. Deliberately smaller than a cell's
/// event volume so drop-oldest actually engages and the accounting
/// columns exercise the lapped path; the spot-check phase uses its own
/// generous capacity and asserts zero drops.
const GRID_FLIGHT_CAP: usize = 1 << 12;

fn e14_mode(name: &str) -> FlightMode {
    match name {
        "off" => FlightMode::Off,
        "sampled64" => FlightMode::Sampled(64),
        "always" => FlightMode::Always,
        other => panic!("unknown E14 mode '{other}'"),
    }
}

/// One cell of the E14 grid.
#[derive(Clone, Debug)]
pub struct E14Row {
    /// Object name (one of [`E14_OBJECTS`]).
    pub object: &'static str,
    /// Recorder mode (one of [`E14_MODES`]).
    pub mode: &'static str,
    /// Concurrent OS threads (= processes).
    pub threads: usize,
    /// Total iterations across all threads (one iteration = update +
    /// read, matching the E13 op convention so ratios are comparable).
    pub total_ops: u64,
    /// Wall-clock of the measured region.
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs`.
    pub ops_per_sec: f64,
    /// Per-iteration latency distribution in nanoseconds.
    pub hist: HistogramSnapshot,
    /// Buffered-tier reader validation retries (memory-global counter).
    pub read_retries: u64,
    /// MWMR hardware tickets drawn (memory-global counter).
    pub ticket_draws: u64,
    /// Flight events recorded across all rings.
    pub events_recorded: u64,
    /// Flight events surviving into the drained log.
    pub events_drained: u64,
    /// Flight events lost to drop-oldest (exact:
    /// `recorded == drained + dropped`).
    pub events_dropped: u64,
    /// `ReadRetry` events in the drained log.
    pub retry_events: u64,
    /// `TicketDraw` events within 1µs of another process's draw on the
    /// same register.
    pub contended_draws: u64,
    /// Complete op spans (begin/end pairs) reconstructed from the log.
    pub sampled_spans: u64,
}

// Wall-clock-derived fields and every flight-log column are volatile
// across runs; `scripts/compare_bench.py` excludes them from diffs and
// gates on the ratios instead. The ticket count is listed twice, one
// side each: the table shows it after the retry events, the report
// before the event counts, and neither order is worth changing.
const E14_COLS: &[Col<E14Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("mode", "mode", |r| r.mode.json()),
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
    Col::Json("p999_ns", |r| r.hist.p999().json()),
    Col::Json("max_ns", |r| r.hist.max.json()),
    Col::Json("mean_ns", |r| r.hist.mean().json()),
    Col::Json("read_retries", |r| r.read_retries.json()),
    Col::Json("ticket_draws", |r| r.ticket_draws.json()),
    Col::Same("events", "events_recorded", |r| r.events_recorded.json()),
    Col::Json("events_drained", |r| r.events_drained.json()),
    Col::Same("dropped", "events_dropped", |r| r.events_dropped.json()),
    Col::Same("retry evts", "retry_events", |r| r.retry_events.json()),
    Col::Md("tickets", |r| r.ticket_draws.to_string()),
    Col::Same("contended", "contended_draws", |r| r.contended_draws.json()),
    Col::Json("sampled_spans", |r| r.sampled_spans.json()),
];

/// Run one grid cell of any registered object on its preferred tier
/// (the E13 timed cell, so the two grids' ratios are comparable) and
/// fold the drained log (if the recorder was on) into the flight
/// columns. When `registry` is set (drain (b): the Prometheus path), the
/// drain goes through the instance's delta-aware `snapshot_prometheus`
/// — the same call `apram-serve`'s `/metrics` endpoint makes.
fn run_obj_cell(
    object: &'static str,
    mode: &'static str,
    threads: usize,
    quick: bool,
    registry: Option<&TelemetryRegistry>,
) -> (E14Row, Option<FlightLog>) {
    let spec = native_spec(object).expect("registry name");
    let ops = spec_ops_per_thread(spec, threads, quick);
    let inst = spec
        .build(&BuildCtx::new(threads, spec.tiers()[0]).flight(e14_mode(mode), GRID_FLIGHT_CAP));
    let (elapsed, hist) = timed_cell(inst.as_ref(), threads, ops);
    let log = match registry {
        Some(reg) => inst.snapshot_prometheus(reg, object),
        None => inst.flight_log(),
    };
    let total_ops = ops * threads as u64;
    // A flight column is a count over the drained log: 0 with the
    // recorder off.
    let drained = |count: fn(&FlightLog) -> u64| log.as_ref().map_or(0, count);
    let row = E14Row {
        object,
        mode,
        threads,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        hist,
        read_retries: inst.read_retries(),
        ticket_draws: inst.ticket_draws(),
        events_recorded: drained(|log| log.recorded),
        events_drained: drained(|log| log.drained),
        events_dropped: drained(|log| log.dropped),
        retry_events: drained(|log| {
            let is_retry = |e: &&FlightEvent| matches!(e, FlightEvent::ReadRetry { .. });
            log.events.iter().flatten().filter(is_retry).count() as u64
        }),
        contended_draws: drained(|log| log.contended_draws(1_000)),
        sampled_spans: drained(|log| log.op_spans().len() as u64),
    };
    (row, log)
}

/// Outcome of the online linearizability spot-check.
#[derive(Clone, Debug, Default)]
pub struct E14SpotCheck {
    /// Histories reconstructed and checked.
    pub histories: u64,
    /// Total op spans across those histories.
    pub ops: u64,
    /// Flight events dropped across the spot-check runs (must be 0 for
    /// the histories to be complete).
    pub dropped: u64,
    /// Whether every history passed its object's audit.
    pub all_linearizable: bool,
    /// Failure descriptions, if any.
    pub failures: Vec<String>,
}

/// Spot-check sizing: small histories (the checker is exponential in
/// ops; the sim-side witness pipeline uses the same scale) but a
/// generous ring, so nothing drops.
const SPOT_PROCS: usize = 3;
const SPOT_ROUNDS: u64 = 4;
const SPOT_FLIGHT_CAP: usize = 1 << 10;

impl E14SpotCheck {
    /// JSON record for the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("histories", self.histories.json()),
            ("ops", self.ops.json()),
            ("dropped", self.dropped.json()),
            ("all_linearizable", self.all_linearizable.json()),
            ("failures", self.failures.json()),
        ])
    }

    /// Spot-check one registry object: per seed, [`SPOT_PROCS`]
    /// free-running threads each drive a session of a fresh always-on
    /// instance through [`SPOT_ROUNDS`] coin-flipped updates and reads;
    /// the flight log and what the sessions returned go to the audit of
    /// the object's row. `salt` keeps the objects' coin streams apart.
    fn check(&mut self, opts: &ExpOpts, object: &'static str, salt: u64) {
        let spec = native_spec(object).expect("registry name");
        let audit = spec.audit.expect("a spot-checked object has an audit");
        let build =
            BuildCtx::new(SPOT_PROCS, spec.tiers()[0]).flight(FlightMode::Always, SPOT_FLIGHT_CAP);
        let mut batch = Vec::new();
        for seed in 0..if opts.quick { 3 } else { 6 } {
            let inst = spec.build(&build);
            // What each process's ops returned, in program order.
            let outs: Vec<Vec<OpOutput>> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..SPOT_PROCS)
                    .map(|p| {
                        let mut sess = inst.session(p);
                        let mut rng = split(opts.seed ^ seed, salt + p as u64);
                        s.spawn(move || {
                            let round = |_| {
                                rng = split(rng, 1);
                                let code = if rng % 2 == 0 { OP_UPDATE } else { OP_READ };
                                sess.op(code, rng % 50, 0)
                            };
                            (0..SPOT_ROUNDS).map(round).collect()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            let log = inst.flight_log().expect("spot-check instances record");
            let spans = log.op_spans();
            self.dropped += log.dropped;
            self.ops += spans.len() as u64;
            self.histories += 1;
            // A process's spans come in program order and (nothing
            // having dropped) its k-th span is its k-th op. A view does
            // not fit a span's recorded word, so the audit gets the
            // outputs beside the spans.
            let mut next = [0; SPOT_PROCS];
            let output = |s: &OpSpan| {
                next[s.proc] += 1;
                outs[s.proc][next[s.proc] - 1].clone()
            };
            let outputs = spans.iter().map(output).collect();
            batch.push(AuditWindow { spans, outputs });
        }
        let outcomes = audit(&batch, opts.threads);
        for (i, o) in outcomes.iter().enumerate().filter(|(_, o)| !o.is_ok()) {
            self.all_linearizable = false;
            self.failures.push(format!("{object} history {i}: {o:?}"));
        }
    }
}

/// Run the online linearizability spot-check: free-running native
/// threads on counter / max-register / Afek snapshot with the recorder
/// always on, histories reconstructed from the flight log and checked
/// in parallel batches.
pub fn e14_spot_check(opts: &ExpOpts) -> E14SpotCheck {
    let mut sc = E14SpotCheck {
        all_linearizable: true,
        ..Default::default()
    };
    for (object, salt) in [("counter", 0), ("maxreg", 100), ("afek", 200)] {
        sc.check(opts, object, salt);
    }
    sc
}

/// Everything E14 produces: the overhead grid, the merged Chrome
/// trace (drain (a)), the Prometheus exposition (drain (b)), and the
/// spot-check outcome (drain (c)).
pub struct E14Output {
    /// The overhead grid.
    pub rows: Vec<E14Row>,
    /// Merged Chrome-trace document: one process per object (the
    /// sampled64 cells at the top thread count), one track per thread.
    pub trace: Json,
    /// Prometheus exposition from the drained logs and memory-global
    /// counters of those same cells.
    pub prom: String,
    /// Online linearizability spot-check outcome.
    pub spot: E14SpotCheck,
}

/// Run the full E14 experiment: grid, trace, telemetry, spot-check.
pub fn e14_run(opts: &ExpOpts) -> E14Output {
    let threads_grid = e13_threads(opts.quick);
    let max_t = *threads_grid.last().unwrap();
    let registry = TelemetryRegistry::new(1);
    let mut rows = Vec::new();
    let mut trace_events = Vec::new();
    for &threads in threads_grid {
        for (oi, object) in E14_OBJECTS.into_iter().enumerate() {
            for mode in E14_MODES {
                // Only the trace-donating cells export telemetry, so
                // the exposition stays one series per object.
                let donate = threads == max_t && mode == "sampled64";
                let (row, log) = run_obj_cell(
                    object,
                    mode,
                    threads,
                    opts.quick,
                    donate.then_some(&registry),
                );
                if donate {
                    if let Some(log) = &log {
                        trace_events.push(Json::obj([
                            ("ph", Json::Str("M".into())),
                            ("pid", Json::UInt(oi as u64)),
                            ("name", Json::Str("process_name".into())),
                            ("args", Json::obj([("name", Json::Str(object.into()))])),
                        ]));
                        let spec = native_spec(object).expect("registry name");
                        let label = |op| spec.op_label(op).to_string();
                        trace_events.extend(log.chrome_trace_events(oi as u64, &label));
                    }
                }
                rows.push(row);
            }
        }
    }
    let trace = Json::obj([
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::Str("ns".into())),
    ]);
    let spot = e14_spot_check(opts);
    E14Output {
        rows,
        trace,
        prom: registry.to_prometheus(),
        spot,
    }
}

fn sum_ops(rows: &[E14Row], object: &str, mode: &str) -> f64 {
    rows.iter()
        .filter(|r| r.object == object && r.mode == mode)
        .map(|r| r.ops_per_sec)
        .sum()
}

/// The gate section of `BENCH_e14.json`.
///
/// * `sampled_over_off_counter` — 1-in-64-sampled counter throughput /
///   recorder-off throughput, summed across the thread grid (CI
///   enforces ≥ 0.95: sampling costs ≤ 5%);
/// * `sampled_over_off_counter_by_threads` — the same ratio per thread
///   count (informational; single cells are noisier);
/// * `always_over_off_counter` — what always-on tracing costs
///   (informational — this is the mode you pay for only when
///   debugging);
/// * `spotcheck_*` — the online check's verdict; CI requires
///   `all_linearizable == true` and `dropped == 0` with at least one
///   history checked;
/// * `stamp_source` — where this run's recorder read its stamps
///   (`tsc` or `instant`, [`apram_model::flight::stamp::source`]): the
///   ratios above are not comparable across the two.
pub fn e14_gates(rows: &[E14Row], spot: &E14SpotCheck, quick: bool) -> Json {
    let ratio = |num: f64, den: f64| {
        if den > 0.0 {
            Json::Float(num / den)
        } else {
            Json::Null
        }
    };
    let by_threads: Vec<(String, Json)> = e13_threads(quick)
        .iter()
        .map(|&t| {
            let pick = |mode: &str| {
                rows.iter()
                    .find(|r| r.object == "counter" && r.mode == mode && r.threads == t)
                    .map(|r| r.ops_per_sec)
                    .unwrap_or(0.0)
            };
            (t.to_string(), ratio(pick("sampled64"), pick("off")))
        })
        .collect();
    Json::obj([
        ("available_parallelism", Json::UInt(host_parallelism())),
        (
            "stamp_source",
            Json::Str(apram_model::flight::stamp::source().into()),
        ),
        (
            "sampled_over_off_counter",
            ratio(
                sum_ops(rows, "counter", "sampled64"),
                sum_ops(rows, "counter", "off"),
            ),
        ),
        ("sampled_over_off_counter_by_threads", Json::Obj(by_threads)),
        (
            "always_over_off_counter",
            ratio(
                sum_ops(rows, "counter", "always"),
                sum_ops(rows, "counter", "off"),
            ),
        ),
        ("spotcheck_histories", Json::UInt(spot.histories)),
        ("spotcheck_ops", Json::UInt(spot.ops)),
        ("spotcheck_dropped", Json::UInt(spot.dropped)),
        (
            "spotcheck_all_linearizable",
            Json::Bool(spot.all_linearizable),
        ),
    ])
}

/// The E14 report: grid, gates and spot-check, with `flight.json` (the
/// merged Chrome trace) and `flight.prom` (the drained logs' Prometheus
/// text).
pub fn e14_report(opts: &ExpOpts) -> Report {
    let out = e14_run(opts);
    Report::of(Table::of(E14_COLS, &out.rows))
        .gates(e14_gates(&out.rows, &out.spot, opts.quick))
        .section("spot_check", out.spot.to_json())
        .artifact(
            Sink::Telemetry,
            "flight.json",
            out.trace.to_compact() + "\n",
        )
        .artifact(Sink::Telemetry, "flight.prom", out.prom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_core::counter::{CounterOp, CounterResp};
    use apram_history::history_from_spans;

    #[test]
    fn spans_to_history_orders_ties_as_overlap() {
        // Two spans with identical stamps on different procs: the
        // merge must emit both invokes before either respond (a tie is
        // overlap, not precedence).
        let spans = vec![
            OpSpan {
                proc: 0,
                op: OP_UPDATE,
                arg: 1,
                resp: 0,
                begin_ns: 10,
                end_ns: 20,
            },
            OpSpan {
                proc: 1,
                op: OP_READ,
                arg: 0,
                resp: 1,
                begin_ns: 10,
                end_ns: 20,
            },
        ];
        let h = history_from_spans(
            &spans,
            |s| {
                if s.op == OP_UPDATE {
                    CounterOp::Inc(1)
                } else {
                    CounterOp::Read
                }
            },
            |s| {
                if s.op == OP_UPDATE {
                    CounterResp::Ack
                } else {
                    CounterResp::Value(s.resp as i64)
                }
            },
        );
        assert!(h.well_formed());
        assert_eq!(h.events().len(), 4);
        assert!(h.events()[0].is_invoke());
        assert!(h.events()[1].is_invoke());
        assert!(!h.events()[2].is_invoke());
        assert!(!h.events()[3].is_invoke());
    }

    #[test]
    fn spans_to_history_monotonicizes_within_proc() {
        // A zero-width span following a tie: per-proc strict bumping
        // must keep program order without panicking or reordering.
        let spans = vec![
            OpSpan {
                proc: 0,
                op: OP_UPDATE,
                arg: 1,
                resp: 0,
                begin_ns: 5,
                end_ns: 5,
            },
            OpSpan {
                proc: 0,
                op: OP_READ,
                arg: 0,
                resp: 1,
                begin_ns: 5,
                end_ns: 5,
            },
        ];
        let h = history_from_spans(&spans, |_| CounterOp::Read, |_| CounterResp::Ack);
        // Program order preserved: invoke, respond, invoke, respond.
        assert!(h.well_formed());
        assert!(h.events()[0].is_invoke());
        assert!(!h.events()[1].is_invoke());
        assert!(h.events()[2].is_invoke());
        assert!(!h.events()[3].is_invoke());
    }

    #[test]
    fn grid_cells_report_flight_columns() {
        for mode in E14_MODES {
            for object in ["counter", "mwreg"] {
                let (row, _) = run_obj_cell(object, mode, 2, true, None);
                assert_eq!(row.hist.count, row.total_ops, "{object}/{mode}");
                assert!(row.ops_per_sec > 0.0);
                // The accounting invariant is exact once threads join.
                assert_eq!(
                    row.events_recorded,
                    row.events_drained + row.events_dropped,
                    "{object}/{mode}"
                );
                match mode {
                    "off" => assert_eq!(row.events_recorded, 0, "{object}"),
                    _ => {
                        assert!(row.events_recorded > 0, "{object}/{mode}");
                        assert!(row.sampled_spans > 0, "{object}/{mode}");
                    }
                }
                if object == "mwreg" {
                    // Every unowned write draws a ticket regardless of
                    // recorder mode.
                    assert_eq!(row.ticket_draws, row.total_ops, "{mode}");
                } else {
                    assert_eq!(row.ticket_draws, 0, "{object}/{mode}");
                }
            }
        }
    }

    #[test]
    fn spot_check_finds_native_histories_linearizable() {
        let opts = ExpOpts {
            seed: 7,
            quick: true,
            threads: 0,
        };
        let sc = e14_spot_check(&opts);
        assert!(sc.all_linearizable, "failures: {:?}", sc.failures);
        // 3 objects × 3 seeds, nothing dropped (the ring is sized so
        // the histories are complete).
        assert_eq!(sc.histories, 9);
        assert_eq!(sc.dropped, 0);
        assert!(sc.ops > 0);
    }

    #[test]
    fn gates_report_ratios_and_spotcheck() {
        let mut rows = Vec::new();
        for &threads in &[1usize, 2] {
            for mode in E14_MODES {
                let (row, _) = run_obj_cell("counter", mode, threads, true, None);
                rows.push(row);
            }
        }
        let spot = E14SpotCheck {
            histories: 9,
            ops: 100,
            dropped: 0,
            all_linearizable: true,
            failures: Vec::new(),
        };
        let gates = e14_gates(&rows, &spot, true);
        let parsed = apram_model::json::parse(&gates.to_compact()).unwrap();
        for key in ["sampled_over_off_counter", "always_over_off_counter"] {
            let v = parsed.get(key).unwrap().as_f64().unwrap();
            assert!(v > 0.0, "{key} = {v}");
        }
        assert_eq!(
            parsed.get("spotcheck_histories").unwrap().as_f64().unwrap(),
            9.0
        );
        assert!(matches!(
            parsed.get("spotcheck_all_linearizable"),
            Some(Json::Bool(true))
        ));
    }
}
