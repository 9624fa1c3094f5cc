//! `serve::server` and `serve::client` over loopback: life-cycle costs
//! (ready, connect, reconnect, refusal, scrape, shutdown) and a short
//! closed-loop run whose median round trip is split into codec, table
//! and the wire residual.

use super::Rows;
use crate::harness;
use crate::stats::{self, Better};
use crate::stream;
use crate::workloads::serve;
use apram_serve::protocol::ERR_BUSY;
use apram_serve::{Client, OPC_READ, ST_ERR};
use std::time::{Duration, Instant};

/// Ops of the closed-loop run behind the `serve.client.*` rows.
const CLIENT_OPS: usize = 40_000;
/// Ops of the same run with the client on another core than the server.
const CROSS_CORE_OPS: usize = 8_000;
const CYCLES: usize = 7;

/// Wait (bounded) until the server has noticed every client left, so
/// the next connect finds its slot free.
fn wait_idle(server: &apram_serve::ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn connect_and_read(addr: std::net::SocketAddr) -> (Client, f64) {
    let t0 = Instant::now();
    let mut c = Client::connect(addr).expect("connect to loopback");
    c.op(OPC_READ, 0, 0, 0).expect("first op");
    (c, t0.elapsed().as_nanos() as f64 / 1e3)
}

pub fn probe(seed: u64, codec_ns: f64, execute_ns: f64, rows: &mut Rows) {
    // Life cycle of an idle server.
    let (mut ready, mut shutdown) = (Vec::new(), Vec::new());
    for _ in 0..CYCLES {
        let t0 = Instant::now();
        let server = serve::start_server(1).expect("bind loopback");
        ready.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        server.shutdown();
        shutdown.push(t1.elapsed().as_secs_f64() * 1e3);
    }

    let server = serve::start_server(1).expect("bind loopback");
    let addr = server.addr();
    let mut requests = 0u64;

    // First connection, then a refusal while it holds the only slot.
    let (first, connect_first_op_us) = connect_and_read(addr);
    requests += 1;
    let mut busy_refusals = 0u64;
    let mut second = Client::connect(addr).expect("connect to loopback");
    let refused = second
        .op(OPC_READ, 0, 0, 0)
        .expect("a refusal is still a reply");
    if refused.status == ST_ERR && refused.kind == ERR_BUSY {
        busy_refusals += 1;
    }
    drop(second);
    drop(first);

    // Reconnects resume the suspended slot.
    let mut reconnect = Vec::new();
    for _ in 0..CYCLES {
        wait_idle(&server);
        let (c, us) = connect_and_read(addr);
        requests += 1;
        reconnect.push(us);
        drop(c);
    }
    wait_idle(&server);

    // The closed-loop run.
    let ops = stream::generate(&serve::mix(), seed, 0, CLIENT_OPS);
    let mut tenants =
        serve::connect_tenants(addr, vec![ops], false, 0, Instant::now()).expect("connect tenant");
    let measured = harness::run_segments(&mut tenants, &[false], true, || {});
    requests += tenants[0].requests;
    drop(tenants);
    let samples = &measured.all_samples;
    let p50_us = stats::quantile_sorted_f32(samples, 0.5) as f64 / 1e3;
    let p99_us = stats::quantile_sorted_f32(samples, 0.99) as f64 / 1e3;
    let ptop_us = stats::ptop_sorted_f32(samples).1 as f64 / 1e3;

    // The same traffic with the client a core away from the server:
    // every request and reply is a cross-core wake-up (rule 5).
    wait_idle(&server);
    let ops = stream::generate(&serve::mix(), seed, 0, CROSS_CORE_OPS);
    let mut tenants =
        serve::connect_tenants(addr, vec![ops], false, 0, Instant::now()).expect("connect tenant");
    tenants[0].cpu = crate::host::other_cpu();
    let cross = harness::run_segments(&mut tenants, &[false], false, || {});
    requests += tenants[0].requests;
    drop(tenants);

    let counted = server
        .registry()
        .counter_total("serve_requests_total")
        .unwrap_or(0);
    debug_assert_eq!(counted, requests);
    let t0 = Instant::now();
    let scraped = Client::scrape_metrics(addr).expect("scrape /metrics");
    let scrape_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(scraped.contains("serve_requests_total"));
    wait_idle(&server);
    server.shutdown();

    // By construction the three shares add up to the client's median.
    let codec_us = codec_ns / 1e3;
    let table_us = execute_ns / 1e3;
    let residual_us = p50_us - codec_us - table_us;
    rows.extend([
        (
            "serve.server.ready_ms",
            stats::best_share_median(&ready, 0.5, Better::Lower),
        ),
        ("serve.server.connect_first_op_us", connect_first_op_us),
        ("serve.server.reconnect_us", stats::median(&reconnect)),
        ("serve.server.busy_refusals", busy_refusals as f64),
        ("serve.server.requests_counted", counted as f64),
        ("serve.server.scrape_ms", scrape_ms),
        ("serve.server.shutdown_ms", stats::median(&shutdown)),
        ("serve.client.op_p50_us", p50_us),
        ("serve.client.op_p99_us", p99_us),
        ("serve.client.op_ptop_us", ptop_us),
        ("serve.client.samples", samples.len() as f64),
        (
            "serve.client.op_p50_us_cross_core",
            cross.segs[0].p50_ns / 1e3,
        ),
        ("serve.wire.residual_us", residual_us),
        ("serve.wire.codec_share", codec_us / p50_us),
        ("serve.wire.table_share", table_us / p50_us),
        ("serve.wire.residual_share", residual_us / p50_us),
    ]);
}
