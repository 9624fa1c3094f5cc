//! The benchmark's fixed tables: workloads with their work sizes, the
//! five end-to-end metrics with their bounds, and the per-layer metric
//! names. The hand-written `BENCHMARK.json` at the repo root carries the
//! same names, units, directions, bounds and `why`s (a unit test keeps
//! the two equal);
//! the work sizes live only here because the manifest's schema has no
//! room for them, and are copied into every `results.json`.

use crate::stats::Better::{self, Higher, Lower};

/// Measured segments of an untraced run per second of `--seconds`
/// (rule 2): `segment_ops` below is sized so that a segment is about a
/// tenth of a second on the reference host (2 × Xeon 2.1 GHz).
pub const SEGMENTS_PER_SECOND: usize = 10;
/// The run-level estimate of a per-segment metric is the median of this
/// share of the best segments (rule 2).
pub const BEST_SHARE: f64 = 0.10;
/// `setup_s` is the median of this share of the fastest reps (rule 1).
pub const SETUP_BEST_SHARE: f64 = 0.05;
/// Segments of a `--quick` smoke run.
pub const QUICK_SEGMENTS: usize = 2;
/// Untraced/traced segment pairs of a traced run.
pub const TRACE_PAIRS: usize = 25;
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u64 = 16;

pub struct WorkloadPlan {
    pub name: &'static str,
    pub why: &'static str,
    /// Fixed work of one segment (rule 3).
    pub segment_ops: u64,
    /// Program-only set-up repetitions per run (rule 1).
    pub setup_reps: usize,
}

pub const WORKLOADS: [WorkloadPlan; 6] = [
    WorkloadPlan {
        name: "serve_steady",
        why: "the whole wire path on loopback: syscalls and wakeups are ~97% of a served op, so a framing or dispatch gain shows here and a register-tier gain must not",
        segment_ops: 8_800,
        setup_reps: 120,
    },
    WorkloadPlan {
        name: "native_update_heavy",
        why: "objects + model::native with no sockets, 90% updates: single-writer stores, stripes and ticket draws do all the work",
        segment_ops: 1_400 * 1024,
        setup_reps: 30_000,
    },
    WorkloadPlan {
        name: "native_read_heavy",
        why: "the same objects at 10% updates: reads are collects, scans and cross-stripe sums, so a change that helps one mix and costs the other shows as a regression here",
        segment_ops: 1_650 * 1024,
        setup_reps: 30_000,
    },
    WorkloadPlan {
        name: "native_recorded",
        why: "the same objects at 50/50 with the flight recorder always on: model::flight is about a third of the op here and none of it in the two workloads above",
        segment_ops: 600 * 1024,
        setup_reps: 1_200,
    },
    WorkloadPlan {
        name: "universal_lwwmap",
        why: "the Figure 4 universal construction on the native backend: core::universal + snapshot + lingraph are >99% of the op, three to four orders of magnitude above the register file",
        segment_ops: 4 * 96,
        setup_reps: 400,
    },
    WorkloadPlan {
        name: "explore_verify",
        why: "a fixed forest of schedule trees explored and checked for linearizability: model::sim + history::check do the work, nothing native or served",
        segment_ops: 0, // fixed by the forest, see workloads::explore
        setup_reps: 2_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadPlan> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics, reported for every workload. The bounds
/// are what the reference host can hold run after run, not what it
/// reads in a quiet hour (a tenth of these): see the README, "What this
/// host can resolve".
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    Metric {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.12,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics, from the traced run only: `(name, unit, better)`.
/// The layer probes are the same fixed work whatever the workload; only
/// the `bench.*` rows describe the workload that was traced.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // serve::protocol, over in-memory sinks
    ("serve.protocol.req_encode_ns", "ns", Lower),
    ("serve.protocol.req_decode_ns", "ns", Lower),
    ("serve.protocol.resp_encode_ns", "ns", Lower),
    ("serve.protocol.resp_decode_ns", "ns", Lower),
    ("serve.protocol.frame_write_ns", "ns", Lower),
    ("serve.protocol.frame_read_ns", "ns", Lower),
    ("serve.protocol.writes_per_frame", "count", Lower),
    ("serve.protocol.allocs_per_roundtrip", "count", Lower),
    // serve::table, the serve_steady stream replayed in-process
    ("serve.table.build_ms", "ms", Lower),
    ("serve.table.execute_ns", "ns", Lower),
    ("serve.table.allocs_per_op", "count", Lower),
    ("serve.table.counter.update_ns", "ns", Lower),
    ("serve.table.counter.read_ns", "ns", Lower),
    ("serve.table.maxreg.update_ns", "ns", Lower),
    ("serve.table.maxreg.read_ns", "ns", Lower),
    ("serve.table.lwwmap-direct.update_ns", "ns", Lower),
    ("serve.table.lwwmap-direct.read_ns", "ns", Lower),
    ("serve.table.afek.update_ns", "ns", Lower),
    ("serve.table.afek.read_ns", "ns", Lower),
    // serve::server + client over loopback
    ("serve.server.ready_ms", "ms", Lower),
    ("serve.server.connect_first_op_us", "us", Lower),
    ("serve.server.reconnect_us", "us", Lower),
    ("serve.server.busy_refusals", "count", Lower),
    ("serve.server.requests_counted", "count", Higher),
    ("serve.server.scrape_ms", "ms", Lower),
    ("serve.server.shutdown_ms", "ms", Lower),
    ("serve.client.op_p50_us", "us", Lower),
    ("serve.client.op_p99_us", "us", Lower),
    ("serve.client.op_ptop_us", "us", Lower),
    ("serve.client.samples", "count", Higher),
    ("serve.client.op_p50_us_cross_core", "us", Lower),
    ("serve.wire.residual_us", "us", Lower),
    ("serve.wire.codec_share", "share", Lower),
    ("serve.wire.table_share", "share", Lower),
    ("serve.wire.residual_share", "share", Lower),
    // objects::spec sessions, single thread
    ("objects.counter.update_ns", "ns", Lower),
    ("objects.counter.read_ns", "ns", Lower),
    ("objects.maxreg.update_ns", "ns", Lower),
    ("objects.maxreg.read_ns", "ns", Lower),
    ("objects.lwwmap-direct.update_ns", "ns", Lower),
    ("objects.lwwmap-direct.read_ns", "ns", Lower),
    ("objects.afek.update_ns", "ns", Lower),
    ("objects.afek.read_ns", "ns", Lower),
    ("objects.clock.update_ns", "ns", Lower),
    ("objects.clock.read_ns", "ns", Lower),
    ("objects.mwreg.update_ns", "ns", Lower),
    ("objects.mwreg.read_ns", "ns", Lower),
    ("objects.counter.update_steps", "count", Lower),
    ("objects.counter.read_steps", "count", Lower),
    ("objects.maxreg.update_steps", "count", Lower),
    ("objects.maxreg.read_steps", "count", Lower),
    ("objects.afek.update_steps", "count", Lower),
    ("objects.afek.read_steps", "count", Lower),
    ("objects.lwwmap-direct.update_steps", "count", Lower),
    ("objects.lwwmap-direct.read_steps", "count", Lower),
    ("objects.spec.build_ms", "ms", Lower),
    ("objects.session.op_p99_us", "us", Lower),
    ("objects.session.op_ptop_us", "us", Lower),
    // the native traffic from one real thread per core
    ("objects.contended.update_heavy_ns", "ns", Lower),
    ("objects.contended.read_heavy_ns", "ns", Lower),
    ("objects.contended.read_retries_per_kop", "count", Lower),
    ("objects.contended.ticket_draws_per_kop", "count", Lower),
    // model::native register tiers
    ("model.native.packed.read_ns", "ns", Lower),
    ("model.native.packed.write_ns", "ns", Lower),
    ("model.native.buffered.read_ns", "ns", Lower),
    ("model.native.buffered.write_ns", "ns", Lower),
    ("model.native.buffered.read_ns_contended", "ns", Lower),
    ("model.native.read_retries_per_kop", "count", Lower),
    ("model.native.ticket_draws_per_kop", "count", Lower),
    ("model.native.build_us_per_reg", "us", Lower),
    // model::flight
    ("model.flight.record_ns", "ns", Lower),
    ("model.flight.op_overhead_ns", "ns", Lower),
    ("model.flight.always_over_off", "ratio", Higher),
    ("model.flight.sampled64_over_off", "ratio", Higher),
    ("model.flight.drain_ns_per_event", "ns", Lower),
    ("model.flight.op_spans_ns_per_event", "ns", Lower),
    ("model.flight.recorded", "count", Higher),
    ("model.flight.drained", "count", Higher),
    ("model.flight.dropped", "count", Lower),
    ("model.flight.drop_ratio", "ratio", Lower),
    // model::telemetry
    ("model.telemetry.hist_record_ns", "ns", Lower),
    ("model.telemetry.prometheus_export_ms", "ms", Lower),
    // snapshot
    ("snapshot.snap_ns", "ns", Lower),
    ("snapshot.update_ns", "ns", Lower),
    ("snapshot.snap_reads", "count", Lower),
    ("snapshot.scan_ns", "ns", Lower),
    ("snapshot.scan_reads", "count", Lower),
    // core::universal, lingraph, graph
    ("core.universal.execute_ns_first", "ns", Lower),
    ("core.universal.execute_ns_at_96", "ns", Lower),
    ("core.universal.execute_unpublished_ns", "ns", Lower),
    ("core.universal.memo_hit_ns", "ns", Lower),
    ("core.universal.execute_ns_racing", "ns", Lower),
    ("core.universal.history_len_at_end", "count", Lower),
    ("core.universal.snap_share", "share", Lower),
    ("core.universal.allocs_per_op", "count", Lower),
    ("core.lingraph.build_ns", "ns", Lower),
    ("core.lingraph.canonical_order_ns", "ns", Lower),
    ("core.graph.add_edge_ns", "ns", Lower),
    // model::sim
    ("model.sim.explore.runs", "count", Lower),
    ("model.sim.explore.runs_per_s_1t", "1/s", Higher),
    ("model.sim.explore.runs_per_s_nt", "1/s", Higher),
    ("model.sim.explore.pruning_ratio", "ratio", Higher),
    ("model.sim.explore.replay_ratio", "ratio", Lower),
    ("model.sim.certify_ms", "ms", Lower),
    ("model.sim.sample.runs_per_s", "1/s", Higher),
    ("model.sim.run_us", "us", Lower),
    // history
    ("history.check.ns_per_history_8", "ns", Lower),
    ("history.check.ns_per_history_32", "ns", Lower),
    ("history.check.ns_per_history_120", "ns", Lower),
    ("history.check.parallel_histories_per_s", "1/s", Higher),
    ("history.check.share_of_explore", "share", Lower),
    ("history.spans.from_spans_ns_per_op", "ns", Lower),
    // the instrument itself, for the workload that was traced
    ("bench.load.gen_ns_per_op", "ns", Lower),
    ("bench.load.cpu_us_per_op", "us", Lower),
    ("bench.timer.now_ns", "ns", Lower),
    ("bench.trace.overhead_share", "share", Lower),
    ("bench.trace.op_p99_us", "us", Lower),
    ("bench.trace.op_ptop_us", "us", Lower),
    ("bench.trace.samples", "count", Higher),
    ("bench.trace.spans", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use apram_model::json::parse;
    use apram_model::Json;

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        j.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    /// `BENCHMARK.json` is the driver's view of these tables; the two
    /// must not drift.
    #[test]
    fn manifest_mirrors_the_plan() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at repo root"))
            .expect("BENCHMARK.json parses");

        assert_eq!(field(&manifest, "run_seconds").as_u64(), Some(RUN_SECONDS));
        let workloads = field(&manifest, "workloads").as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (m, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(m, "name").as_str(), Some(w.name));
            assert_eq!(field(m, "why").as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = field(&manifest, "end_to_end").as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name").as_str(), Some(e.name));
            assert_eq!(field(m, "unit").as_str(), Some(e.unit));
            assert_eq!(field(m, "better").as_str(), Some(e.better.label()));
            assert_eq!(field(m, "bound").as_f64(), Some(e.bound));
            assert!(e.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));

        let layers = field(&manifest, "per_layer").as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name").as_str(), Some(*name));
            assert_eq!(field(m, "unit").as_str(), Some(*unit));
            assert_eq!(field(m, "better").as_str(), Some(better.label()));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|l| l.0));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for unit in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|l| l.1))
        {
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
        }
    }
}
