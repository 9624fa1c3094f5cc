//! The multi-tenant load driver and the offline linearizability audit.
//!
//! [`run_load`] replays a configurable workload against a running
//! server: each *tenant* is one client connection (= one slot = one
//! process id in every shard memory) issuing a zipfian-keyed read/write
//! mix, recording per-op wire latency into a [`StepHistogram`].
//! Optionally one tenant *crashes* mid-run — drops its socket without a
//! clean close, reconnects, and finishes — which is the serving-layer
//! version of the paper's failure model: the crash must not stall any
//! other tenant, because nothing a dead client held is needed by
//! anyone else.
//!
//! [`run_audit`] is the offline half: the flight recorders on the
//! server's shard memories (run in [`apram_model::FlightMode::Always`]
//! during an audit window) are drained to per-shard op spans,
//! reconstructed into checkable histories with
//! [`apram_history::history_from_spans`], and batch-checked against the
//! object's sequential spec — both by the audit of the object's row
//! ([`apram_objects::spec::ObjectSpec::audit`]), the same one E14's
//! spot-checks run. Per-shard checking is sound (linearizability is
//! local: Herlihy–Wing): value ops
//! route to exactly one shard, and the merged reads (counter sums,
//! max-register maxes) leave one span *per shard* carrying that shard's
//! partial value, so each shard's history is a complete single-object
//! history in its own right.

use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use apram_model::seed::split;
use apram_model::telemetry::{HistogramSnapshot, StepHistogram};
use apram_model::{FlightLog, Json};
use apram_objects::spec::{native_spec, Args, AuditWindow};

use crate::client::Client;
use crate::protocol::{ERR_BUSY, OPC_READ, OPC_UPDATE, ST_OK};

/// Connect/read timeout for tenant connections.
const TENANT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a tenant keeps retrying connect/busy before giving up.
const RECONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// A zipfian(θ) distribution over ranks `0..n` (rank 0 hottest),
/// sampled by binary search on a precomputed CDF.
pub struct Zipfian {
    cdf: Vec<f64>,
}

impl Zipfian {
    /// Build the CDF for `n` ranks with exponent `theta` (0 = uniform).
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipfian { cdf }
    }

    /// Map one uniform random word to a rank.
    pub fn sample(&self, word: u64) -> u64 {
        // 53 mantissa bits of uniformity is plenty for a key draw.
        let u = (word >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Object to drive (an [`apram_objects::spec`] registry name; must
    /// be in the server's table).
    pub object: String,
    /// Concurrent tenant connections (each needs a server slot).
    pub tenants: usize,
    /// Ops issued per tenant.
    pub ops_per_tenant: u64,
    /// Key space for the keyed objects.
    pub keys: u64,
    /// Zipfian exponent for key draws (0 = uniform, 1 = classic).
    pub theta: f64,
    /// Percentage of ops that are reads (0–100).
    pub read_pct: u32,
    /// Root seed; every tenant's op stream derives from it.
    pub seed: u64,
    /// Crash tenant 0 at its halfway point: drop the socket with no
    /// clean close, reconnect, finish.
    pub crash_tenant: bool,
}

impl LoadConfig {
    /// A small default mix against `object`.
    pub fn new(object: &str) -> LoadConfig {
        LoadConfig {
            object: object.to_string(),
            tenants: 4,
            ops_per_tenant: 500,
            keys: 64,
            theta: 1.0,
            read_pct: 50,
            seed: 0xA5_9A7E,
            crash_tenant: false,
        }
    }
}

/// One tenant's outcome.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// Ops that completed with [`ST_OK`].
    pub ops_ok: u64,
    /// Ops answered with an error frame.
    pub ops_err: u64,
    /// Times the tenant (re)connected after the initial connect.
    pub reconnects: u64,
    /// Whether this tenant was the configured crasher.
    pub crashed: bool,
    /// Per-op wire latency (nanoseconds).
    pub latency: HistogramSnapshot,
}

/// A whole run's outcome.
#[derive(Debug)]
pub struct LoadReport {
    /// Per-tenant reports, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Latency over every tenant.
    pub fn merged_latency(&self) -> HistogramSnapshot {
        let mut m = HistogramSnapshot::default();
        for t in &self.tenants {
            m.merge(&t.latency);
        }
        m
    }

    /// Latency over the tenants that did *not* crash — the SLO
    /// population for crash scenarios (the crasher's own stall is its
    /// problem; its neighbors' latency is the server's).
    pub fn survivor_latency(&self) -> HistogramSnapshot {
        let mut m = HistogramSnapshot::default();
        for t in self.tenants.iter().filter(|t| !t.crashed) {
            m.merge(&t.latency);
        }
        m
    }

    /// Total completed ops across tenants.
    pub fn total_ops(&self) -> u64 {
        self.tenants.iter().map(|t| t.ops_ok).sum()
    }

    /// True iff every tenant finished its full op budget.
    pub fn all_completed(&self, cfg: &LoadConfig) -> bool {
        self.tenants.len() == cfg.tenants
            && self
                .tenants
                .iter()
                .all(|t| t.ops_ok + t.ops_err == cfg.ops_per_tenant)
    }
}

/// Connect with retry: a freshly-released slot can lag a crash by one
/// poll interval, and a busy table answers `ERR_BUSY` — both resolve by
/// backing off briefly.
fn connect_tenant(addr: SocketAddr) -> io::Result<Client> {
    let deadline = Instant::now() + RECONNECT_DEADLINE;
    loop {
        match Client::connect_timeout(addr, TENANT_TIMEOUT) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn tenant_loop(
    addr: SocketAddr,
    object_index: u8,
    args: Args,
    cfg: &LoadConfig,
    tenant: usize,
) -> io::Result<TenantReport> {
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let hist = StepHistogram::new();
    let mut ops_ok = 0u64;
    let mut ops_err = 0u64;
    let mut reconnects = 0u64;
    let crash_at = if cfg.crash_tenant && tenant == 0 {
        Some(cfg.ops_per_tenant / 2)
    } else {
        None
    };

    let mut client = Some(connect_tenant(addr)?);
    let mut rng = split(cfg.seed, tenant as u64);
    let mut i = 0u64;
    while i < cfg.ops_per_tenant {
        if crash_at == Some(i) && client.is_some() {
            // The crash: drop the socket mid-stream, no goodbye.
            client = None;
            reconnects += 1;
        }
        let c = match client.as_mut() {
            Some(c) => c,
            None => {
                client = Some(connect_tenant(addr)?);
                client.as_mut().expect("just connected")
            }
        };

        rng = split(rng, 1);
        let key_word = rng;
        rng = split(rng, 2);
        let is_read = (rng % 100) < cfg.read_pct as u64;
        let value = rng % 1000;
        let key = zipf.sample(key_word);
        let (a, b) = match (args, is_read) {
            (Args::KeyValue, true) => (key, 0),
            (Args::KeyValue, false) => (key, value),
            (Args::Value, false) => (value, 0),
            (Args::Value, true) | (Args::None, _) => (0, 0),
        };
        let opcode = if is_read { OPC_READ } else { OPC_UPDATE };

        let t0 = Instant::now();
        match c.op(opcode, object_index, a, b) {
            Ok(resp) if resp.status == ST_OK => {
                hist.record(t0.elapsed().as_nanos() as u64);
                ops_ok += 1;
                i += 1;
            }
            Ok(resp) if resp.kind == ERR_BUSY => {
                // Our slot (or a predecessor's) is still leased; the
                // server closes after a busy frame — reconnect.
                client = None;
                reconnects += 1;
                thread::sleep(Duration::from_millis(10));
            }
            Ok(_) => {
                ops_err += 1;
                i += 1;
            }
            Err(_) => {
                // Transport hiccup (e.g. server-side poll timing on our
                // own crash): reconnect and retry this op.
                client = None;
                reconnects += 1;
            }
        }
    }

    Ok(TenantReport {
        tenant,
        ops_ok,
        ops_err,
        reconnects,
        crashed: crash_at.is_some(),
        latency: hist.snapshot(),
    })
}

/// Replay `cfg` against the server at `addr`, where `object_index` is
/// the table wire index of `cfg.object`. One thread per tenant.
pub fn run_load(addr: SocketAddr, object_index: u8, cfg: &LoadConfig) -> io::Result<LoadReport> {
    let unknown = || io::Error::other(format!("unknown object '{}'", cfg.object));
    let args = native_spec(&cfg.object).ok_or_else(unknown)?.args;
    let start = Instant::now();
    let reports: Vec<io::Result<TenantReport>> = thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|tenant| s.spawn(move || tenant_loop(addr, object_index, args, cfg, tenant)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("tenant panicked")))
            })
            .collect()
    });
    let mut tenants = Vec::with_capacity(reports.len());
    for r in reports {
        tenants.push(r?);
    }
    Ok(LoadReport {
        tenants,
        elapsed: start.elapsed(),
    })
}

/// The offline audit's outcome.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Object audited.
    pub object: String,
    /// Per-shard histories reconstructed and checked.
    pub histories: u64,
    /// Total op spans across shards.
    pub spans: u64,
    /// Flight events the recorders dropped (must be 0 for the audit to
    /// mean anything — a dropped event can hide a violation).
    pub dropped: u64,
    /// Whether every history linearized.
    pub all_linearizable: bool,
    /// Failure descriptions (non-linearizable shards, unsupported
    /// objects).
    pub failures: Vec<String>,
}

impl AuditReport {
    /// JSON record for reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("object", Json::Str(self.object.clone())),
            ("histories", Json::UInt(self.histories)),
            ("spans", Json::UInt(self.spans)),
            ("dropped", Json::UInt(self.dropped)),
            ("all_linearizable", Json::Bool(self.all_linearizable)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Reconstruct one typed history per shard log and batch-check them
/// with the audit of `object`'s row across `threads` checker threads
/// (0 = all available parallelism). An object without one (the clock
/// has no sequential spec; an unknown name has no row) reports a
/// failure, and so does a snapshot: its views do not fit a span.
///
/// Audit windows must start from a fresh object (the initial state is
/// the spec's), and each shard's window must stay under the checker's
/// [`apram_history::check::MAX_OPS`] bitmask limit (128 ops) — size
/// audit loads accordingly; an oversized shard reports as a
/// `TooLarge { ops }` failure that names its size, rather than silently
/// passing. Remember that the counter's and max-register's merged reads
/// leave one span on *every* shard.
pub fn run_audit(object: &str, logs: &[FlightLog], threads: usize) -> AuditReport {
    let mut report = AuditReport {
        object: object.to_string(),
        all_linearizable: true,
        ..Default::default()
    };
    let mut windows = Vec::new();
    for log in logs {
        report.dropped += log.dropped;
        let spans = log.op_spans();
        report.spans += spans.len() as u64;
        if !spans.is_empty() {
            let outputs = Vec::new();
            windows.push(AuditWindow { spans, outputs });
        }
    }
    report.histories = windows.len() as u64;
    let Some(audit) = native_spec(object).and_then(|spec| spec.audit) else {
        report.all_linearizable = false;
        report
            .failures
            .push(format!("audit does not support object '{object}'"));
        return report;
    };
    for (i, o) in audit(&windows, threads).iter().enumerate() {
        if !o.is_ok() {
            report.all_linearizable = false;
            report
                .failures
                .push(format!("{object} shard history {i}: {o:?}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig, ServerHandle};
    use crate::table::TableConfig;
    use apram_model::FlightMode;

    #[test]
    fn zipfian_is_a_distribution_and_skews_hot() {
        let z = Zipfian::new(16, 1.0);
        let mut counts = [0u64; 16];
        let mut rng = 1u64;
        for _ in 0..20_000 {
            rng = split(rng, 1);
            counts[z.sample(rng) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 20_000);
        // Rank 0 must clearly dominate the tail under θ=1.
        assert!(counts[0] > 4 * counts[15], "{counts:?}");
    }

    #[test]
    fn zipfian_theta_zero_is_uniformish() {
        let z = Zipfian::new(8, 0.0);
        let mut counts = [0u64; 8];
        let mut rng = 7u64;
        for _ in 0..16_000 {
            rng = split(rng, 1);
            counts[z.sample(rng) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 1_000, "{counts:?}");
        }
    }

    fn audited_server(object: &str) -> ServerHandle {
        let table = TableConfig::new(&[object], 2, 4).flight(FlightMode::Always, 1 << 12);
        serve(&ServeConfig::local(table)).unwrap()
    }

    #[test]
    fn load_and_audit_counter_end_to_end() {
        let server = audited_server("counter");
        let mut cfg = LoadConfig::new("counter");
        cfg.tenants = 3;
        cfg.ops_per_tenant = 40;
        let report = run_load(server.addr(), 0, &cfg).unwrap();
        assert!(report.all_completed(&cfg), "{report:?}");
        assert_eq!(report.total_ops(), 120);
        assert!(report.merged_latency().count >= 120);

        let logs = server.drain_flight("counter");
        let audit = run_audit("counter", &logs, 0);
        assert_eq!(audit.dropped, 0);
        assert!(audit.histories >= 1);
        assert!(audit.all_linearizable, "{:?}", audit.failures);
        server.shutdown();
    }

    #[test]
    fn audit_rejects_unsupported_objects() {
        let audit = run_audit("clock", &[], 0);
        assert!(!audit.all_linearizable);
        assert_eq!(audit.histories, 0);
    }

    /// A shard one op over the checker's cap fails the audit, and the
    /// failure names the shard's size.
    #[test]
    fn audit_reports_an_oversized_shard_with_its_size() {
        use apram_history::check::MAX_OPS;
        use apram_objects::spec::{BuildCtx, OP_UPDATE};
        let spec = native_spec("counter").expect("counter row");
        let inst =
            spec.build(&BuildCtx::new(1, spec.tiers()[0]).flight(FlightMode::Always, 1 << 12));
        let mut session = inst.session(0);
        for _ in 0..=MAX_OPS {
            session.op(OP_UPDATE, 0, 1);
        }
        let audit = run_audit(
            "counter",
            &[inst.flight_log().expect("recorder attached")],
            1,
        );
        assert_eq!((audit.histories, audit.spans, audit.dropped), (1, 129, 0));
        assert!(!audit.all_linearizable);
        assert_eq!(audit.failures.len(), 1, "{:?}", audit.failures);
        assert!(
            audit.failures[0].contains("TooLarge { ops: 129 }"),
            "{:?}",
            audit.failures
        );
    }

    /// Every row, as recorded by its own session: an update and a read
    /// audit clean exactly where the row has an audit and the read fits
    /// its span (not the clock, not a snapshot's view), and nowhere once
    /// the read's recorded response is corrupted.
    #[test]
    fn audit_flags_a_fabricated_violation() {
        use apram_model::FlightEvent;
        use apram_objects::spec::{native_specs, BuildCtx, OpOutput, OP_READ, OP_UPDATE};
        for spec in native_specs() {
            let name = spec.name();
            let recorded = || {
                let inst = spec
                    .build(&BuildCtx::new(1, spec.tiers()[0]).flight(FlightMode::Always, 1 << 8));
                let mut session = inst.session(0);
                session.op(OP_UPDATE, 5, 6);
                let read = session.op(OP_READ, 5, 0);
                (inst.flight_log().expect("recorder attached"), read)
            };
            let (log, read) = recorded();
            let audit = run_audit(name, &[log], 1);
            assert_eq!(audit.histories, 1, "{name}");
            let fits = spec.audit.is_some() && !matches!(read, OpOutput::View(_));
            assert_eq!(audit.all_linearizable, fits, "{name}: {:?}", audit.failures);

            let (mut log, _) = recorded();
            for event in &mut log.events[0] {
                if let FlightEvent::OpEnd { op, resp, .. } = event {
                    *resp ^= (*op == OP_READ) as u64;
                }
            }
            assert!(!run_audit(name, &[log], 1).all_linearizable, "{name}");
        }
    }
}
