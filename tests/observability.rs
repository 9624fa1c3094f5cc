//! End-to-end observability guarantees: the JSONL trace export parses
//! back and replays to a bit-identical trace, and the run's step counts
//! and contention profile agree exactly with the trace-derived counts on
//! a known schedule.

use apram_model::sim::strategy::{Replay, SeededRandom};
use apram_model::sim::{Budgeted, ExploreConfig, ProcBody, SimBuilder, SimCtx};
use apram_model::telemetry::{buffer_sink, CountingCtx, Heartbeat};
use apram_model::{AccessKind, Json, MemCtx, StepCounts, TelemetryRegistry, Trace};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A deterministic body: three rounds of publish-then-collect, so every
/// process issues a known mix of reads and writes.
fn body(n: usize) -> impl Fn(&mut SimCtx<u64>) -> u64 + Send + Sync {
    move |ctx| {
        let p = ctx.proc();
        let mut acc = 0u64;
        for round in 0..3u64 {
            ctx.write(p, round * n as u64 + p as u64);
            for r in 0..n {
                acc = acc.wrapping_add(ctx.read(r));
            }
        }
        acc
    }
}

/// Export → parse → replay: the trace written as JSONL, parsed back,
/// and driven through `Replay::strict` must reproduce the original
/// execution bit for bit (same JSONL text, same results).
#[test]
fn jsonl_round_trips_through_replay() {
    let n = 3;
    let out = SimBuilder::new(vec![0u64; n])
        .owners((0..n).collect())
        .strategy(SeededRandom::new(42))
        .run_symmetric(n, body(n));
    out.assert_no_panics();
    assert!(!out.trace.is_empty());

    let text = out.trace.to_jsonl();
    let parsed = Trace::from_jsonl(&text).expect("exported JSONL must parse");
    assert_eq!(parsed.events(), out.trace.events());
    assert_eq!(
        parsed.to_jsonl(),
        text,
        "serialise-parse-serialise fixpoint"
    );

    let replayed = SimBuilder::new(vec![0u64; n])
        .owners((0..n).collect())
        .strategy(Replay::strict(parsed.schedule()))
        .run_symmetric(n, body(n));
    replayed.assert_no_panics();
    assert_eq!(replayed.trace.to_jsonl(), text, "replay diverged");
    assert_eq!(replayed.results, out.results);
    assert_eq!(replayed.memory, out.memory);
}

/// A corrupted line must be rejected, not silently skipped.
#[test]
fn jsonl_rejects_corruption() {
    let n = 2;
    let out = SimBuilder::new(vec![0u64; n])
        .owners((0..n).collect())
        .run_symmetric(n, body(n));
    let text = out.trace.to_jsonl();
    let corrupted = text.replacen("\"kind\":\"r\"", "\"kind\":\"x\"", 1);
    assert!(Trace::from_jsonl(&corrupted).is_err());
}

/// Under a fixed round-robin schedule, the step accounting is asserted
/// *through the telemetry registry*: the trace events are replayed into
/// sharded counters (shard = process) and per-op histograms, and the
/// run's own observers — per-process `counts`, per-cell contention
/// profile — must agree with the registry on every number.
#[test]
fn metrics_agree_with_trace_counts() {
    let n = 4;
    let out = SimBuilder::new(vec![0u64; n])
        .owners((0..n).collect())
        .profile(true)
        .run_symmetric(n, body(n));
    out.assert_no_panics();

    let counts = &out.counts;
    let cells = &out.contention.as_ref().expect("profiled").cells;

    // Drive the telemetry registry from the trace: per-process sharded
    // read/write counters plus per-register tallies.
    let reg = TelemetryRegistry::new(n);
    let reads = reg.counter("sim_reads");
    let writes = reg.counter("sim_writes");
    let mut reg_reads = vec![0u64; n];
    let mut reg_writes = vec![0u64; n];
    for ev in out.trace.events() {
        match ev.kind {
            AccessKind::Read => {
                reads.inc(ev.proc);
                reg_reads[ev.reg] += 1;
            }
            AccessKind::Write => {
                writes.inc(ev.proc);
                reg_writes[ev.reg] += 1;
            }
        }
    }

    // The registry is the authority; the run's observers must agree
    // with it shard by shard and in total.
    for (p, c) in counts.iter().enumerate() {
        assert_eq!(c.reads, reads.shard_value(p), "process {p}");
        assert_eq!(c.writes, writes.shard_value(p), "process {p}");
    }
    let total_reads: u64 = cells.iter().map(|c| c.reads).sum();
    let total_writes: u64 = cells.iter().map(|c| c.writes).sum();
    assert_eq!(total_reads, reads.total());
    assert_eq!(total_writes, writes.total());
    assert_eq!(*counts, out.trace.counts(n));

    // Per-register counters, recomputed straight from the events.
    for r in 0..n {
        assert_eq!(cells[r].reads, reg_reads[r], "register {r} reads");
        assert_eq!(cells[r].writes, reg_writes[r], "register {r} writes");
    }
    assert_eq!(total_reads, out.trace.len() as u64 - total_writes);

    // Each process writes 3 times and reads 3n times in `body`.
    let expected = StepCounts {
        reads: 3 * n as u64,
        writes: 3,
    };
    assert_eq!(*counts, vec![expected; n]);

    // The registry's exports carry the same totals and parse cleanly.
    let prom = reg.to_prometheus();
    apram_model::validate_prometheus(&prom).expect("registry Prometheus text must parse");
    assert!(prom.contains(&format!("sim_reads {}", reads.total())));
    let json = reg.to_json().to_compact();
    assert!(json.contains(&format!("\"total\":{}", reads.total())));
}

/// Every heartbeat JSONL record carries a wall-clock `elapsed_ms` field
/// and the values never go backwards across the stream (including the
/// final beat).
#[test]
fn heartbeat_elapsed_ms_is_present_and_monotone() {
    let n = 2;
    let (sink, buf) = buffer_sink();
    let econfig = ExploreConfig::new()
        .max_depth(8)
        .max_runs(50)
        .heartbeat(Heartbeat::shared(Duration::ZERO, sink));
    let stats = SimBuilder::new(vec![0u64; n])
        .owners((0..n).collect())
        .explore(
            &econfig,
            move || {
                (0..n)
                    .map(|_| {
                        let b = body(n);
                        Box::new(move |ctx: &mut SimCtx<u64>| b(ctx)) as ProcBody<'static, u64, u64>
                    })
                    .collect()
            },
            |out| {
                out.assert_no_panics();
                true
            },
        );
    assert!(stats.runs > 0);

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let mut beats = 0u64;
    let mut prev_ms = 0u64;
    for line in text.lines() {
        let doc = apram_model::json::parse(line).expect("heartbeat line must parse as JSON");
        let ms = doc
            .get("elapsed_ms")
            .and_then(Json::as_u64)
            .expect("every beat must carry elapsed_ms");
        assert!(
            ms >= prev_ms,
            "elapsed_ms went backwards: {prev_ms} -> {ms}\n{line}"
        );
        prev_ms = ms;
        assert!(doc.get("runs").and_then(Json::as_u64).is_some());
        beats += 1;
    }
    assert!(
        beats >= 2,
        "expected per-run beats plus a final beat, got {beats}"
    );
}

/// Property check across random schedules: [`CountingCtx`]'s per-op
/// read/write totals must equal the contention profiler's per-cell sums
/// — the two observers count the same accesses from opposite sides of
/// the [`MemCtx`] boundary (op-level wrapper vs scheduler-side
/// profiling), so their totals agree exactly on every schedule.
#[test]
fn counting_ctx_totals_match_profiler_cell_sums() {
    let n = 3;
    for seed in 0..8u64 {
        let totals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(vec![(0, 0); n]));
        let sink = Arc::clone(&totals);
        let out = SimBuilder::new(vec![0u64; n])
            .owners((0..n).collect())
            .strategy(SeededRandom::new(seed))
            .profile(true)
            .run_symmetric(n, move |ctx: &mut SimCtx<u64>| {
                let p = ctx.proc();
                let mut c = CountingCtx::new(ctx);
                c.begin_op();
                let mut acc = 0u64;
                for round in 0..3u64 {
                    c.write(p, round * n as u64 + p as u64);
                    for r in 0..n {
                        acc = acc.wrapping_add(c.read(r));
                    }
                }
                sink.lock().unwrap()[p] = (c.op_reads(), c.op_writes());
                acc
            });
        out.assert_no_panics();

        let map = out.contention.expect("profiling was enabled");
        assert_eq!(map.runs, 1, "seed {seed}");
        let cell_reads: u64 = map.cells.iter().map(|c| c.reads).sum();
        let cell_writes: u64 = map.cells.iter().map(|c| c.writes).sum();
        let per_op = totals.lock().unwrap();
        let op_reads: u64 = per_op.iter().map(|&(r, _)| r).sum();
        let op_writes: u64 = per_op.iter().map(|&(_, w)| w).sum();
        assert_eq!(cell_reads, op_reads, "seed {seed}");
        assert_eq!(cell_writes, op_writes, "seed {seed}");
        // Per-process raw steps are the same numbers sliced the other way.
        for p in 0..n {
            assert_eq!(
                map.proc_steps[p],
                per_op[p].0 + per_op[p].1,
                "seed {seed} process {p}"
            );
        }
        // And the trace-derived counts agree with both observers.
        assert_eq!(out.counts, out.trace.counts(n), "seed {seed}");
        for p in 0..n {
            assert_eq!(out.counts[p].reads, per_op[p].0, "seed {seed} process {p}");
            assert_eq!(out.counts[p].writes, per_op[p].1, "seed {seed} process {p}");
        }
    }
}
