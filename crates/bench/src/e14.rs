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
//! and batch-checked with [`check_histories_parallel`] — the native
//! twin of the simulator's witness pipeline. Reconstruction is sound
//! because begin stamps are taken before the op's first shared access
//! and end stamps after its last: the measured interval *contains* the
//! true one, so any precedence the reconstruction asserts
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

use crate::{e13_threads, host_parallelism, spec_ops_per_thread, ExpOpts};
use apram_core::counter::{CounterOp, CounterResp};
use apram_core::CounterSpec;
use apram_history::check::CheckerConfig;
use apram_history::{check_histories_parallel, history_from_spans, History};
use apram_model::seed::split;
use apram_model::telemetry::{HistogramSnapshot, TelemetryRegistry};
use apram_model::{FlightEvent, FlightLog, FlightMode, Json, NativeMemory, OpSpan, StepHistogram};
use apram_objects::maxreg::{DirectMaxRegister, MaxRegOp, MaxRegResp, MaxRegSpec};
use apram_objects::spec::{decode_opt, encode_opt, native_spec, BuildCtx};
use apram_objects::striped::StripedCounter;
use apram_snapshot::afek::AfekSnapshot;
use apram_snapshot::{SnapOp, SnapResp, SnapshotSpec};
use std::sync::Barrier;
use std::time::Instant;

/// The E14 object names, in emission order (each is an
/// [`apram_objects::spec`] registry name; each cell runs on its spec's
/// preferred tier).
pub const E14_OBJECTS: [&str; 4] = ["counter", "maxreg", "afek", "mwreg"];

/// The E14 recorder modes, in emission order.
pub const E14_MODES: [&str; 3] = ["off", "sampled64", "always"];

/// Flight-op code: the object's update operation (inc / write_max /
/// update / write). Same value every factory session records.
pub const E14_OP_UPDATE: u32 = apram_objects::spec::OP_UPDATE;
/// Flight-op code: the object's read operation (read / snap).
pub const E14_OP_READ: u32 = apram_objects::spec::OP_READ;

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

/// Human-readable flight-op names per object, for the Chrome trace
/// (straight from the object's registry spec).
pub fn e14_op_name(object: &'static str) -> impl Fn(u32) -> String {
    let spec = native_spec(object);
    move |op| match (spec, op) {
        (Some(s), E14_OP_UPDATE | E14_OP_READ) => s.op_label(op).to_string(),
        _ => format!("op{op}"),
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

impl E14Row {
    /// JSON record for `BENCH_e14.json`. Wall-clock-derived fields and
    /// every flight-log column are volatile across runs;
    /// `scripts/compare_bench.py` excludes them from byte diffs and
    /// gates on the ratios instead.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("object", Json::Str(self.object.into())),
            ("mode", Json::Str(self.mode.into())),
            ("threads", Json::UInt(self.threads as u64)),
            ("total_ops", Json::UInt(self.total_ops)),
            ("elapsed_secs", Json::Float(self.elapsed_secs)),
            ("ops_per_sec", Json::Float(self.ops_per_sec)),
            ("p50_ns", Json::UInt(self.hist.p50())),
            ("p99_ns", Json::UInt(self.hist.p99())),
            ("p999_ns", Json::UInt(self.hist.p999())),
            ("max_ns", Json::UInt(self.hist.max)),
            ("mean_ns", Json::Float(self.hist.mean())),
            ("read_retries", Json::UInt(self.read_retries)),
            ("ticket_draws", Json::UInt(self.ticket_draws)),
            ("events_recorded", Json::UInt(self.events_recorded)),
            ("events_drained", Json::UInt(self.events_drained)),
            ("events_dropped", Json::UInt(self.events_dropped)),
            ("retry_events", Json::UInt(self.retry_events)),
            ("contended_draws", Json::UInt(self.contended_draws)),
            ("sampled_spans", Json::UInt(self.sampled_spans)),
        ])
    }
}

/// Run one timed cell (the E13 barrier/clock discipline: session setup
/// outside the measured region, clock started before the barrier
/// releases). Factory sessions bracket every op with
/// `op_begin`/`op_end` themselves, so flight recording needs no
/// per-object code here.
fn e14_run_cell(
    inst: &dyn apram_objects::spec::ObjectInstance,
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
                    sess.op(E14_OP_UPDATE, k, k);
                    sess.op(E14_OP_READ, k, 0);
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
            });
        }
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    (start.elapsed().as_secs_f64(), hist.snapshot())
}

/// Assemble a row from a finished cell: fold the drained log (if the
/// recorder was on) into the flight columns.
#[allow(clippy::too_many_arguments)]
fn finish(
    object: &'static str,
    mode: &'static str,
    threads: usize,
    ops: u64,
    elapsed: f64,
    hist: HistogramSnapshot,
    retries: u64,
    tickets: u64,
    log: Option<&FlightLog>,
) -> E14Row {
    let total_ops = ops * threads as u64;
    let (recorded, drained, dropped, retry_events, contended, spans) = match log {
        Some(log) => (
            log.recorded,
            log.drained,
            log.dropped,
            log.events
                .iter()
                .flatten()
                .filter(|e| matches!(e, FlightEvent::ReadRetry { .. }))
                .count() as u64,
            log.contended_draws(1_000),
            log.op_spans().len() as u64,
        ),
        None => (0, 0, 0, 0, 0, 0),
    };
    E14Row {
        object,
        mode,
        threads,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        hist,
        read_retries: retries,
        ticket_draws: tickets,
        events_recorded: recorded,
        events_drained: drained,
        events_dropped: dropped,
        retry_events,
        contended_draws: contended,
        sampled_spans: spans,
    }
}

/// Run one grid cell of any registered object on its preferred tier.
/// When `registry` is set (drain (b): the Prometheus path), the drain
/// goes through the instance's delta-aware `snapshot_prometheus` — the
/// same call `apram-serve`'s `/metrics` endpoint makes.
fn run_obj_cell(
    object: &'static str,
    mode: &'static str,
    threads: usize,
    quick: bool,
    registry: Option<&TelemetryRegistry>,
) -> (E14Row, Option<FlightLog>) {
    let spec = native_spec(object).unwrap_or_else(|| panic!("unknown object '{object}'"));
    let ops = spec_ops_per_thread(spec, threads, quick);
    let inst = spec
        .build(&BuildCtx::new(threads, spec.tiers()[0]).flight(e14_mode(mode), GRID_FLIGHT_CAP));
    let (elapsed, hist) = e14_run_cell(inst.as_ref(), threads, ops);
    let log = match registry {
        Some(reg) => inst.snapshot_prometheus(reg, object),
        None => inst.flight_log(),
    };
    let row = finish(
        object,
        mode,
        threads,
        ops,
        elapsed,
        hist,
        inst.read_retries(),
        inst.ticket_draws(),
        log.as_ref(),
    );
    (row, log)
}

/// `None` ↦ `u64::MAX`, `Some(v)` ↦ `v as u64` (the E14 max-register
/// workload only writes non-negative values, so the sentinel is free).
/// Same encoding every factory session uses on the wire and in spans.
fn encode_maxreg_resp(v: Option<i64>) -> u64 {
    encode_opt(v)
}

fn decode_maxreg_resp(resp: u64) -> Option<i64> {
    decode_opt(resp)
}

/// Rebuild a checkable [`History`] from reconstructed op spans
/// (drain (c)). Now a thin alias for the shared
/// [`apram_history::history_from_spans`] — the serve audit and the E14
/// spot-checks must reconstruct identically, so the logic lives in one
/// place.
pub fn spans_to_history<O, R>(
    spans: &[OpSpan],
    mk_op: impl Fn(&OpSpan) -> O,
    mk_resp: impl Fn(&OpSpan) -> R,
) -> History<O, R> {
    history_from_spans(spans, mk_op, mk_resp)
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
    /// Whether every history passed [`check_histories_parallel`].
    pub all_linearizable: bool,
    /// Failure descriptions, if any.
    pub failures: Vec<String>,
}

impl E14SpotCheck {
    fn absorb(&mut self, label: &str, outcomes: &[apram_history::check::CheckOutcome]) {
        for (i, o) in outcomes.iter().enumerate() {
            if !o.is_ok() {
                self.all_linearizable = false;
                self.failures.push(format!("{label} history {i}: {o:?}"));
            }
        }
    }

    /// JSON record for the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("histories", Json::UInt(self.histories)),
            ("ops", Json::UInt(self.ops)),
            ("dropped", Json::UInt(self.dropped)),
            ("all_linearizable", Json::Bool(self.all_linearizable)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
        ])
    }
}

/// Spot-check sizing: small histories (the checker is exponential in
/// ops; the sim-side witness pipeline uses the same scale) but a
/// generous ring, so nothing drops.
const SPOT_PROCS: usize = 3;
const SPOT_ROUNDS: u64 = 4;
const SPOT_FLIGHT_CAP: usize = 1 << 10;

/// Drain a spot-check run's log into spans, folding the accounting
/// into `sc`.
fn spot_spans(mem_log: Option<FlightLog>, sc: &mut E14SpotCheck) -> Vec<OpSpan> {
    let log = mem_log.expect("spot-check memories always record");
    sc.dropped += log.dropped;
    let spans = log.op_spans();
    sc.ops += spans.len() as u64;
    sc.histories += 1;
    spans
}

/// Run the online linearizability spot-check: free-running native
/// threads on counter / max-register / Afek snapshot with the recorder
/// always on, histories reconstructed from the flight log and checked
/// in parallel batches.
pub fn e14_spot_check(opts: &ExpOpts) -> E14SpotCheck {
    let n = SPOT_PROCS;
    let seeds: u64 = if opts.quick { 3 } else { 6 };
    let cfg = CheckerConfig::default();
    let mut sc = E14SpotCheck {
        all_linearizable: true,
        ..Default::default()
    };

    // Striped counter (packed tier).
    let mut batch: Vec<History<CounterOp, CounterResp>> = Vec::new();
    for seed in 0..seeds {
        let c = StripedCounter::new(n);
        let mem = NativeMemory::new_packed(n, c.registers())
            .with_owners(c.owners())
            .with_flight(FlightMode::Always, SPOT_FLIGHT_CAP);
        std::thread::scope(|s| {
            for p in 0..n {
                let mem = mem.clone();
                let mut h = c.handle();
                s.spawn(move || {
                    let mut ctx = mem.ctx(p);
                    let mut rng = split(opts.seed ^ seed, p as u64);
                    for _ in 0..SPOT_ROUNDS {
                        rng = split(rng, 1);
                        if rng % 2 == 0 {
                            ctx.op_begin(E14_OP_UPDATE, 1);
                            h.inc(&mut ctx);
                            ctx.op_end(E14_OP_UPDATE, 0);
                        } else {
                            ctx.op_begin(E14_OP_READ, 0);
                            let v = h.read(&mut ctx);
                            ctx.op_end(E14_OP_READ, v);
                        }
                    }
                });
            }
        });
        let spans = spot_spans(mem.flight_log(), &mut sc);
        batch.push(spans_to_history(
            &spans,
            |s| {
                if s.op == E14_OP_UPDATE {
                    CounterOp::Inc(1)
                } else {
                    CounterOp::Read
                }
            },
            |s| {
                if s.op == E14_OP_UPDATE {
                    CounterResp::Ack
                } else {
                    CounterResp::Value(s.resp as i64)
                }
            },
        ));
    }
    let outcomes = check_histories_parallel(&CounterSpec, &batch, &cfg, opts.threads);
    sc.absorb("counter", &outcomes);

    // Direct max-register (packed tier).
    let mut batch: Vec<History<MaxRegOp, MaxRegResp>> = Vec::new();
    for seed in 0..seeds {
        let r = DirectMaxRegister::new(n);
        let mem = NativeMemory::new_packed(n, r.registers())
            .with_owners(r.owners())
            .with_flight(FlightMode::Always, SPOT_FLIGHT_CAP);
        std::thread::scope(|s| {
            for p in 0..n {
                let mem = mem.clone();
                let mut h = r.handle();
                s.spawn(move || {
                    let mut ctx = mem.ctx(p);
                    let mut rng = split(opts.seed ^ seed, 100 + p as u64);
                    for _ in 0..SPOT_ROUNDS {
                        rng = split(rng, 1);
                        if rng % 2 == 0 {
                            let v = (rng % 50) as i64;
                            ctx.op_begin(E14_OP_UPDATE, v as u64);
                            h.write_max(&mut ctx, v);
                            ctx.op_end(E14_OP_UPDATE, 0);
                        } else {
                            ctx.op_begin(E14_OP_READ, 0);
                            let v = h.read(&mut ctx);
                            ctx.op_end(E14_OP_READ, encode_maxreg_resp(v));
                        }
                    }
                });
            }
        });
        let spans = spot_spans(mem.flight_log(), &mut sc);
        batch.push(spans_to_history(
            &spans,
            |s| {
                if s.op == E14_OP_UPDATE {
                    MaxRegOp::WriteMax(s.arg as i64)
                } else {
                    MaxRegOp::Read
                }
            },
            |s| {
                if s.op == E14_OP_UPDATE {
                    MaxRegResp::Ack
                } else {
                    MaxRegResp::Value(decode_maxreg_resp(s.resp))
                }
            },
        ));
    }
    let outcomes = check_histories_parallel(&MaxRegSpec, &batch, &cfg, opts.threads);
    sc.absorb("maxreg", &outcomes);

    // Afek snapshot (buffered tier). Snap views don't fit the span's
    // u64 `resp`, so each thread keeps its views in a side vector and
    // the span's `resp` is the index into it.
    let mut batch: Vec<History<SnapOp<u64>, SnapResp<u64>>> = Vec::new();
    for seed in 0..seeds {
        let snap = AfekSnapshot::new(n);
        let mem = NativeMemory::new(n, snap.registers::<u64>())
            .with_owners(snap.owners())
            .with_flight(FlightMode::Always, SPOT_FLIGHT_CAP);
        let views: Vec<Vec<Vec<Option<u64>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let mem = mem.clone();
                    let snap = &snap;
                    s.spawn(move || {
                        let mut ctx = mem.ctx(p);
                        let mut mine = Vec::new();
                        let mut rng = split(opts.seed ^ seed, 200 + p as u64);
                        for _ in 0..SPOT_ROUNDS {
                            rng = split(rng, 1);
                            let v = rng % 1000;
                            ctx.op_begin(E14_OP_UPDATE, v);
                            snap.update(&mut ctx, v);
                            ctx.op_end(E14_OP_UPDATE, 0);
                            ctx.op_begin(E14_OP_READ, 0);
                            let view = snap.snap::<u64, _>(&mut ctx);
                            ctx.op_end(E14_OP_READ, mine.len() as u64);
                            mine.push(view);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let spans = spot_spans(mem.flight_log(), &mut sc);
        batch.push(spans_to_history(
            &spans,
            |s| {
                if s.op == E14_OP_UPDATE {
                    SnapOp::Update(s.arg)
                } else {
                    SnapOp::Snap
                }
            },
            |s| {
                if s.op == E14_OP_UPDATE {
                    SnapResp::Ack
                } else {
                    SnapResp::View(views[s.proc][s.resp as usize].clone())
                }
            },
        ));
    }
    let spec = SnapshotSpec::<u64>::new(n);
    let outcomes = check_histories_parallel(&spec, &batch, &cfg, opts.threads);
    sc.absorb("afek", &outcomes);

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
                        trace_events
                            .extend(log.chrome_trace_events(oi as u64, &e14_op_name(object)));
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
///   history checked.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_to_history_orders_ties_as_overlap() {
        // Two spans with identical stamps on different procs: the
        // merge must emit both invokes before either respond (a tie is
        // overlap, not precedence).
        let spans = vec![
            OpSpan {
                proc: 0,
                op: E14_OP_UPDATE,
                arg: 1,
                resp: 0,
                begin_ns: 10,
                end_ns: 20,
            },
            OpSpan {
                proc: 1,
                op: E14_OP_READ,
                arg: 0,
                resp: 1,
                begin_ns: 10,
                end_ns: 20,
            },
        ];
        let h = spans_to_history(
            &spans,
            |s| {
                if s.op == E14_OP_UPDATE {
                    CounterOp::Inc(1)
                } else {
                    CounterOp::Read
                }
            },
            |s| {
                if s.op == E14_OP_UPDATE {
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
                op: E14_OP_UPDATE,
                arg: 1,
                resp: 0,
                begin_ns: 5,
                end_ns: 5,
            },
            OpSpan {
                proc: 0,
                op: E14_OP_READ,
                arg: 0,
                resp: 1,
                begin_ns: 5,
                end_ns: 5,
            },
        ];
        let h = spans_to_history(&spans, |_| CounterOp::Read, |_| CounterResp::Ack);
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
            quick: true,
            ..ExpOpts::with_seed(7)
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
