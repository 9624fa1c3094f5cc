//! E15 — serving-layer SLO and offline audit: the wait-free core behind
//! a socket.
//!
//! E13 and E14 measure the native backend in-process; E15 measures it
//! the way an operator would meet it — through `apram-serve`'s framed
//! TCP protocol under a multi-tenant load. For each of
//! [`E15_OBJECTS`] the experiment runs two phases against real
//! in-process servers:
//!
//! * **SLO phase** — flight recorder off, `tenants` concurrent clients
//!   replay a zipfian read/write mix while one tenant is killed
//!   mid-stream (socket dropped, no goodbye) and reconnects. The cell
//!   reports end-to-end op latency percentiles and whether every
//!   tenant — crasher included — finished its budget.
//! * **Audit phase** — a *fresh* server with the flight recorder in
//!   `Always` mode takes a small load, then the per-shard recorders are
//!   drained and every reconstructed history is checked for
//!   linearizability offline ([`apram_serve::run_audit`]).
//!
//! The audit load is deliberately small: the checker's bitmask search
//! caps histories at 128 ops ([`apram_history::check::MAX_OPS`]), and
//! merged counter/maxreg reads leave one span on *every* shard, so the
//! audit budgets are sized to keep each shard's history under the cap.
//! The SLO phase carries the volume; the audit phase carries the proof.
//!
//! The gates (emitted into `BENCH_e15.json` and enforced in CI via
//! `scripts/compare_bench.py --e15-gate`) are machine-independent:
//! worst-case SLO percentiles inside generous budgets (p50 ≤ 10 ms,
//! p99 ≤ 100 ms, p999 ≤ 1 s — loopback sockets are slow on shared
//! runners, wait-freedom is not in question at the transport), zero
//! recorder drops and zero non-linearizable sampled histories in the
//! audit, and every crash scenario's survivors (and the resurrected
//! crasher) completing their budgets. `available_parallelism` is
//! recorded so throughput numbers can be read in context.

use crate::report::{Col, Report, Sink, Table, ToJson};
use crate::{host_parallelism, ExpOpts};
use apram_model::telemetry::HistogramSnapshot;
use apram_model::{validate_prometheus, FlightMode, Json};
use apram_objects::spec::{native_spec, Merge};
use apram_serve::{run_audit, run_load, serve, Client, LoadConfig, ServeConfig, TableConfig};

/// The E15 object names, in emission order: objects a served audit can
/// check, i.e. whose registry row has an audit that works from spans
/// alone — one per kind of merge that splits an object across shards.
pub const E15_OBJECTS: [&str; 3] = ["counter", "maxreg", "lwwmap-direct"];

/// One object's cell: the SLO run and its paired audit run.
#[derive(Clone, Debug)]
pub struct E15Row {
    /// Object name (one of [`E15_OBJECTS`]).
    pub object: &'static str,
    /// Concurrent tenants in the SLO phase.
    pub tenants: usize,
    /// Per-tenant op budget in the SLO phase.
    pub ops_per_tenant: u64,
    /// Total ops acknowledged `ST_OK` across tenants (SLO phase).
    pub total_ops: u64,
    /// Wall-clock of the SLO load.
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs`.
    pub ops_per_sec: f64,
    /// Merged end-to-end op latency (nanoseconds, SLO phase).
    pub latency: HistogramSnapshot,
    /// Reconnects performed by the killed tenant (≥ 1 proves the crash
    /// happened).
    pub crash_reconnects: u64,
    /// Every tenant — including the resurrected crasher — finished its
    /// full budget.
    pub completed: bool,
    /// Ops in the audit phase (all tenants, audit server).
    pub audit_ops: u64,
    /// Op spans reconstructed from the audit server's flight recorders.
    pub audit_spans: u64,
    /// Per-shard histories checked.
    pub audit_histories: u64,
    /// Flight events dropped by the audit recorders (must be 0 for the
    /// audit to be sound).
    pub audit_dropped: u64,
    /// Every sampled history linearized.
    pub audit_linearizable: bool,
    /// Checker failure descriptions (empty when linearizable).
    pub audit_failures: Vec<String>,
}

// Wall-clock-derived fields (`elapsed_secs`, `ops_per_sec`, the `*_ns`
// percentiles) are volatile across runs; `scripts/compare_bench.py`
// excludes them from diffs and gates on the budget relations instead.
const E15_COLS: &[Col<E15Row>] = &[
    Col::Same("object", "object", |r| r.object.json()),
    Col::Same("tenants", "tenants", |r| r.tenants.json()),
    Col::Json("ops_per_tenant", |r| r.ops_per_tenant.json()),
    Col::Same("ops", "total_ops", |r| r.total_ops.json()),
    Col::Json("elapsed_secs", |r| r.elapsed_secs.json()),
    Col::Both(
        "ops/sec",
        |r| format!("{:.0}", r.ops_per_sec),
        "ops_per_sec",
        |r| r.ops_per_sec.json(),
    ),
    Col::Same("p50 ns", "p50_ns", |r| r.latency.p50().json()),
    Col::Same("p99 ns", "p99_ns", |r| r.latency.p99().json()),
    Col::Same("p999 ns", "p999_ns", |r| r.latency.p999().json()),
    Col::Json("max_ns", |r| r.latency.max.json()),
    Col::Json("mean_ns", |r| r.latency.mean().json()),
    Col::Same("reconnects", "crash_reconnects", |r| {
        r.crash_reconnects.json()
    }),
    Col::Same("completed", "completed", |r| r.completed.json()),
    Col::Json("audit_ops", |r| r.audit_ops.json()),
    Col::Json("audit_spans", |r| r.audit_spans.json()),
    Col::Same("audit hists", "audit_histories", |r| {
        r.audit_histories.json()
    }),
    Col::Same("dropped", "audit_dropped", |r| r.audit_dropped.json()),
    Col::Same("linearizable", "audit_linearizable", |r| {
        r.audit_linearizable.json()
    }),
    Col::Json("audit_failures", |r| r.audit_failures.json()),
];

/// Everything one E15 run produces: the grid plus the Prometheus scrape
/// of the first SLO server (the `--telemetry` artifact — it carries the
/// `serve_*` request counters and the native backend's telemetry).
pub struct E15Out {
    /// One row per object.
    pub rows: Vec<E15Row>,
    /// `/metrics` scrape text captured after the first SLO load.
    pub prom: String,
}

/// SLO-phase load shape for one object.
fn slo_config(object: &'static str, quick: bool) -> LoadConfig {
    let mut cfg = LoadConfig::new(object);
    cfg.tenants = if quick { 4 } else { 8 };
    cfg.ops_per_tenant = if quick { 200 } else { 1000 };
    cfg.keys = 64;
    cfg.crash_tenant = true;
    cfg
}

/// Audit-phase load shape: small enough that every shard's
/// reconstructed history stays under the checker's 128-op cap (counter
/// and maxreg reads leave one span on *every* shard: per-shard ops ≈
/// reads + updates/shards must stay < 128).
fn audit_config(object: &'static str) -> LoadConfig {
    let mut cfg = LoadConfig::new(object);
    cfg.ops_per_tenant = 40;
    let merge = native_spec(object).expect("registry name").merge;
    if matches!(merge, Merge::Sum | Merge::Max) {
        // Merged reads: 3 × 40 at 50% reads over 2 shards ≈ 60 + 30 =
        // 90 per shard.
        cfg.tenants = 3;
    } else {
        // Keyed: spans split per shard by key; zipfian skew over 16
        // keys keeps the hot shard ≈ 100.
        cfg.tenants = 4;
        cfg.keys = 16;
    }
    cfg
}

/// Run one object's SLO + audit cell; `scrape` asks for the `/metrics`
/// text after the SLO load (one scrape per run is plenty).
fn e15_cell(object: &'static str, opts: &ExpOpts, scrape: bool) -> (E15Row, Option<String>) {
    // SLO phase: recorder off, crash mid-stream.
    let slo_cfg = slo_config(object, opts.quick);
    let table = TableConfig::new(&[object], 2, slo_cfg.tenants * 2);
    let server = serve(&ServeConfig::local(table)).expect("bind SLO server");
    let report = run_load(server.addr(), 0, &slo_cfg).expect("SLO load");
    let prom = scrape.then(|| Client::scrape_metrics(server.addr()).expect("metrics scrape"));
    server.shutdown();

    let latency = report.merged_latency();
    let elapsed = report.elapsed.as_secs_f64();
    let total_ops = report.total_ops();

    // Audit phase: fresh server, recorder always on, small load.
    let audit_cfg = audit_config(object);
    let table =
        TableConfig::new(&[object], 2, audit_cfg.tenants * 2).flight(FlightMode::Always, 1 << 12);
    let server = serve(&ServeConfig::local(table)).expect("bind audit server");
    let audit_report = run_load(server.addr(), 0, &audit_cfg).expect("audit load");
    let logs = server.drain_flight(object);
    let audit = run_audit(object, &logs, opts.threads);
    server.shutdown();

    let row = E15Row {
        object,
        tenants: slo_cfg.tenants,
        ops_per_tenant: slo_cfg.ops_per_tenant,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        latency,
        crash_reconnects: report.tenants[0].reconnects,
        completed: report.all_completed(&slo_cfg) && audit_report.all_completed(&audit_cfg),
        audit_ops: audit_report.total_ops(),
        audit_spans: audit.spans,
        audit_histories: audit.histories,
        audit_dropped: audit.dropped,
        audit_linearizable: audit.all_linearizable,
        audit_failures: audit.failures,
    };
    (row, prom)
}

/// Run the full E15 grid: one SLO + audit cell per object.
pub fn e15_run(opts: &ExpOpts) -> E15Out {
    let mut rows = Vec::new();
    let mut prom = String::new();
    for (i, object) in E15_OBJECTS.into_iter().enumerate() {
        let (row, scraped) = e15_cell(object, opts, i == 0);
        if let Some(text) = scraped {
            prom = text;
        }
        rows.push(row);
    }
    E15Out { rows, prom }
}

/// SLO budgets in nanoseconds: generous enough to be machine-
/// independent (loopback TCP on a loaded CI runner), tight enough that
/// a stalled tenant — a slot leak, a blocked shard — blows straight
/// through them.
pub const E15_P50_BUDGET_NS: u64 = 10_000_000;
/// p99 budget (100 ms).
pub const E15_P99_BUDGET_NS: u64 = 100_000_000;
/// p999 budget (1 s).
pub const E15_P999_BUDGET_NS: u64 = 1_000_000_000;

/// The gate section of `BENCH_e15.json`: worst-case percentiles across
/// the grid vs their budgets, audit soundness, and crash survival.
pub fn e15_gates(rows: &[E15Row]) -> Json {
    let worst = |f: &dyn Fn(&E15Row) -> u64| rows.iter().map(f).max().unwrap_or(0);
    let worst_p50 = worst(&|r| r.latency.p50());
    let worst_p99 = worst(&|r| r.latency.p99());
    let worst_p999 = worst(&|r| r.latency.p999());
    Json::obj([
        ("available_parallelism", Json::UInt(host_parallelism())),
        ("worst_p50_ns", Json::UInt(worst_p50)),
        ("worst_p99_ns", Json::UInt(worst_p99)),
        ("worst_p999_ns", Json::UInt(worst_p999)),
        ("p50_budget_ns", Json::UInt(E15_P50_BUDGET_NS)),
        ("p99_budget_ns", Json::UInt(E15_P99_BUDGET_NS)),
        ("p999_budget_ns", Json::UInt(E15_P999_BUDGET_NS)),
        (
            "slo_within_budget",
            Json::Bool(
                worst_p50 <= E15_P50_BUDGET_NS
                    && worst_p99 <= E15_P99_BUDGET_NS
                    && worst_p999 <= E15_P999_BUDGET_NS,
            ),
        ),
        (
            "audit_histories",
            Json::UInt(rows.iter().map(|r| r.audit_histories).sum()),
        ),
        (
            "audit_dropped",
            Json::UInt(rows.iter().map(|r| r.audit_dropped).sum()),
        ),
        (
            "audit_all_linearizable",
            Json::Bool(rows.iter().all(|r| r.audit_linearizable)),
        ),
        (
            "crash_survivors_completed",
            Json::Bool(rows.iter().all(|r| r.completed && r.crash_reconnects >= 1)),
        ),
    ])
}

/// The E15 report: grid and gates, with `serve.prom` — the `/metrics`
/// scrape of the first SLO server.
pub fn e15_report(opts: &ExpOpts) -> Report {
    let out = e15_run(opts);
    validate_prometheus(&out.prom).expect("scraped Prometheus text must parse");
    Report::of(Table::of(E15_COLS, &out.rows))
        .gates(e15_gates(&out.rows))
        .artifact(Sink::Telemetry, "serve.prom", out.prom)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny quick cell end to end (counter, scrape on): the row is
    /// structurally sound, the audit is sound, and the gates pass on a
    /// healthy stack.
    #[test]
    fn counter_cell_and_gates() {
        let opts = ExpOpts {
            quick: true,
            ..Default::default()
        };
        let (row, prom) = e15_cell("counter", &opts, true);
        assert_eq!(row.total_ops, row.tenants as u64 * row.ops_per_tenant);
        assert!(row.completed, "{row:?}");
        assert!(row.crash_reconnects >= 1);
        assert_eq!(row.audit_dropped, 0);
        assert!(row.audit_histories >= 1);
        assert!(row.audit_linearizable, "{:?}", row.audit_failures);
        assert_eq!(row.latency.count, row.total_ops);
        let prom = prom.expect("scrape requested");
        assert!(prom.contains("serve_requests_total"), "{prom}");

        let gates = e15_gates(std::slice::from_ref(&row));
        let parsed = apram_model::json::parse(&gates.to_compact()).unwrap();
        for key in [
            "slo_within_budget",
            "audit_all_linearizable",
            "crash_survivors_completed",
        ] {
            assert!(
                matches!(parsed.get(key), Some(Json::Bool(true))),
                "{key}: {gates:?}"
            );
        }
        assert_eq!(
            parsed.get("audit_dropped").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    /// The audit budgets stay under the checker's 128-op per-shard cap
    /// by construction (the sizing argument in `audit_config`'s doc).
    #[test]
    fn audit_budgets_fit_the_checker() {
        for object in E15_OBJECTS {
            let cfg = audit_config(object);
            let total = cfg.tenants as u64 * cfg.ops_per_tenant;
            // Worst case per shard: every read spans every shard plus
            // this shard's half of the updates (2 shards).
            assert!(total / 2 + total / 4 < 128, "{object}: {total} total ops");
        }
    }
}
