//! End-to-end serving tests: a real TCP server, concurrent tenants,
//! a mid-stream client kill, and the offline linearizability audit.
//!
//! This is the integration surface for the whole serving stack: wire
//! protocol framing, slot leasing, sharded dispatch, flight recording
//! on live shard memories, and span-reconstructed history checking.

use apram_model::FlightMode;
use apram_serve::protocol::{read_frame, write_frame, OPC_READ, OPC_UPDATE, ST_OK};
use apram_serve::{
    run_audit, run_load, serve, Client, LoadConfig, Request, Response, ServeConfig, ServerHandle,
    TableConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn audited_server(objects: &[&str], shards: usize, slots: usize) -> ServerHandle {
    let table = TableConfig::new(objects, shards, slots).flight(FlightMode::Always, 1 << 12);
    serve(&ServeConfig::local(table)).unwrap()
}

/// Four tenants hammer a sharded counter; one is killed mid-stream
/// (socket dropped, no goodbye) and reconnects. The survivors must all
/// finish their budgets, their latency histograms must be populated,
/// and every per-shard sampled history must linearize.
///
/// Op budgets are sized so each shard's history stays under the
/// checker's 128-op bitmask limit (counter reads leave one span on
/// *every* shard; see `apram_history::check::MAX_OPS`).
#[test]
fn crash_one_tenant_survivors_finish_and_audit_passes() {
    let server = audited_server(&["counter"], 2, 8);
    let mut cfg = LoadConfig::new("counter");
    cfg.tenants = 4;
    cfg.ops_per_tenant = 30;
    cfg.crash_tenant = true;

    let report = run_load(server.addr(), 0, &cfg).unwrap();
    assert!(report.all_completed(&cfg), "{report:?}");
    assert_eq!(report.total_ops(), 4 * 30);
    let crasher = &report.tenants[0];
    assert!(crasher.crashed);
    assert!(crasher.reconnects >= 1, "the crash must have happened");

    // Survivor SLO: every non-crashed tenant recorded its full budget
    // of latencies, and the merged histogram has sane percentiles.
    let survivors = report.survivor_latency();
    assert_eq!(survivors.count, 3 * 30);
    assert!(survivors.p50() <= survivors.p99());
    assert!(survivors.p99() > 0);

    // Offline audit over the per-shard flight logs.
    let logs = server.drain_flight("counter");
    let audit = run_audit("counter", &logs, 0);
    assert_eq!(audit.dropped, 0, "audit is void if the recorder dropped");
    assert!(audit.histories >= 1);
    assert!(audit.spans >= 4 * 30, "every op leaves at least one span");
    assert!(audit.all_linearizable, "{:?}", audit.failures);

    server.shutdown();
}

/// The audit also holds for the keyed map under a zipfian mix, where
/// each key lives on exactly one shard.
#[test]
fn keyed_map_load_audits_linearizable() {
    let server = audited_server(&["lwwmap-direct"], 2, 4);
    let mut cfg = LoadConfig::new("lwwmap-direct");
    cfg.tenants = 4;
    cfg.ops_per_tenant = 40;
    cfg.keys = 16;

    let report = run_load(server.addr(), 0, &cfg).unwrap();
    assert!(report.all_completed(&cfg), "{report:?}");

    let logs = server.drain_flight("lwwmap-direct");
    let audit = run_audit("lwwmap-direct", &logs, 0);
    assert_eq!(audit.dropped, 0);
    assert!(audit.all_linearizable, "{:?}", audit.failures);
    server.shutdown();
}

/// Raw protocol sanity straight through a socket: several objects in
/// one table, interleaved on one connection.
#[test]
fn one_connection_drives_many_objects() {
    let server = audited_server(&["counter", "maxreg", "lwwmap-direct"], 2, 2);
    let mut c = Client::connect(server.addr()).unwrap();

    // counter (index 0): three incs, read sums across shards.
    for _ in 0..3 {
        assert_eq!(c.op(OPC_UPDATE, 0, 0, 0).unwrap().status, ST_OK);
    }
    assert_eq!(c.op(OPC_READ, 0, 0, 0).unwrap().values, vec![3]);

    // maxreg (index 1): empty read is the None sentinel, then a write.
    assert_eq!(c.op(OPC_READ, 1, 0, 0).unwrap().as_opt(), None);
    c.op(OPC_UPDATE, 1, 41, 0).unwrap();
    assert_eq!(c.op(OPC_READ, 1, 0, 0).unwrap().as_opt(), Some(41));

    // lwwmap-direct (index 2): keyed put/get.
    c.op(OPC_UPDATE, 2, 5, 500).unwrap();
    assert_eq!(c.op(OPC_READ, 2, 5, 0).unwrap().as_opt(), Some(500));

    drop(c);
    server.shutdown();
}

/// Shutdown with live connections neither hangs nor panics, and the
/// metrics endpoint works up to the end.
#[test]
fn shutdown_with_live_connections_is_clean() {
    let server = audited_server(&["counter"], 1, 4);
    let mut c = Client::connect(server.addr()).unwrap();
    c.op(OPC_UPDATE, 0, 0, 0).unwrap();

    let metrics = Client::scrape_metrics(server.addr()).unwrap();
    assert!(metrics.contains("serve_requests_total"), "{metrics}");

    // Leave `c` open across shutdown: the worker must notice the flag
    // within its poll interval and exit.
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// `n` counter requests as one run of wire bytes, increments and reads
/// alternating.
fn pipelined(n: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..n {
        let req = Request {
            opcode: if i % 2 == 0 { OPC_UPDATE } else { OPC_READ },
            object: 0,
            a: 0,
            b: 0,
        };
        write_frame(&mut wire, &req.encode()).unwrap();
    }
    wire
}

/// A client that pipelines: 64 requests leave in one `write_all`, and
/// 64 replies come back in request order, each counted once.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = audited_server(&["counter"], 1, 2);
    let total = || server.registry().counter_total("serve_requests_total");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A first exchange registers `serve_requests_total` and leaves the
    // counter at 1.
    stream.write_all(&pipelined(2)).unwrap();
    for _ in 0..2 {
        read_frame(&mut stream).unwrap().unwrap();
    }
    let before = total().unwrap();

    stream.write_all(&pipelined(64)).unwrap();
    for i in 0..64u64 {
        let reply = read_frame(&mut stream).unwrap().expect("64 replies");
        let reply = Response::decode(&reply).unwrap();
        assert_eq!(reply.status, ST_OK);
        if i % 2 == 1 {
            // The read after the (i/2 + 1)th increment of this batch.
            assert_eq!(reply.values, vec![1 + i / 2 + 1]);
        }
    }
    assert_eq!(total().unwrap() - before, 64);
    drop(stream);
    server.shutdown();
}

/// Shutdown does not wait for a backlog: issued on the heels of a
/// thousand pipelined requests, it returns within its usual bound
/// whether the worker has got through them or not.
#[test]
fn shutdown_with_buffered_requests_is_prompt() {
    let server = audited_server(&["counter"], 1, 2);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&pipelined(1000)).unwrap();

    let start = std::time::Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10));
}
