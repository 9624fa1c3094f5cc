//! The TCP service: per-connection worker threads over the sharded
//! object table, plus a piggybacked `/metrics` scrape endpoint.
//!
//! The server is std-only and deliberately boring: a nonblocking accept
//! loop hands each connection a *slot* (a process id in every shard
//! memory) and a dedicated worker thread. Wait-freedom lives below this
//! layer — a slow worker never blocks another slot's operations, because
//! the object table's register files are wait-free; the threads-per-
//! connection shell just keeps the transport out of the story.
//!
//! A worker talks frames through a [`FrameCodec`] that owns the socket
//! and both of the connection's buffers; nothing here knows the frame
//! layout. Each request's reply is encoded straight into the codec's
//! write buffer and flushed once no further whole request is waiting in
//! its read buffer — after every request for a closed-loop client, once
//! per batch for one that pipelines — so a served op is one `read` and
//! one `write`. The socket's read timeout (`POLL_TIMEOUT`) only paces
//! the worker's look at the shutdown flag: whatever part of a frame has
//! arrived stays in the codec, so a client that is slow between a
//! frame's prefix and its body, or inside either, keeps its connection
//! and its slot.
//!
//! A connection whose first four bytes are `b"GET "` is treated as an
//! HTTP scrape: the server answers one `text/plain` Prometheus exposition
//! (built from the shared [`TelemetryRegistry`] plus a delta-aware
//! flight/protocol export from every object) and closes. Read as a
//! length prefix those bytes are far above `MAX_FRAME`, so the sniff is
//! a look at what the codec has buffered when it reports a first frame
//! too large. Anything else is the binary frame protocol from
//! [`crate::protocol`].

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use apram_model::telemetry::TelemetryRegistry;
use apram_model::FlightLog;
use apram_objects::spec::OpOutput;

use crate::protocol::{
    encode_err, encode_output, oversized, DecodeError, FrameCodec, Recv, Request, ERR_BAD_OBJECT,
    ERR_BAD_OPCODE, ERR_BAD_REQUEST, ERR_BUSY,
};
use crate::table::{ObjectTable, SlotSessions, TableConfig};

/// How often blocked reads wake up to check the shutdown flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);
/// Accept-loop idle sleep.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);

/// Server configuration: bind address plus the object table.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The object table to serve.
    pub table: TableConfig,
}

impl ServeConfig {
    /// Serve `table` on an ephemeral localhost port.
    pub fn local(table: TableConfig) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            table,
        }
    }
}

/// One slot's durable state: the process id plus its per-object
/// sessions, created lazily and **reused across connections**.
///
/// This is load-bearing for correctness, not a cache: several object
/// handles carry state that mirrors their process's own single-writer
/// registers (the striped counter's running stripe total, a scan
/// handle's lattice mirror, the universal construction's sequence
/// numbers), under the invariant *one handle per process for the
/// object's lifetime*. A connection is just a transport for a slot; a
/// dropped connection suspends the process and a later lease resumes
/// it — building fresh sessions instead would restart those mirrors
/// from their initial values and clobber the process's own registers.
struct SlotLease {
    slot: usize,
    sessions: Vec<Option<SlotSessions>>,
}

/// State shared between the accept loop, the workers, and the handle.
struct Shared {
    table: ObjectTable,
    registry: TelemetryRegistry,
    /// Serializes scrapes: `snapshot_prometheus` requires callers to
    /// serialize concurrent exports against one registry.
    scrape: Mutex<()>,
    /// Slot pool; `None` = leased to a live connection.
    slots: Mutex<Vec<Option<SlotLease>>>,
    shutdown: AtomicBool,
    active: AtomicUsize,
}

impl Shared {
    /// Build the table and a pool with every slot free.
    fn new(cfg: &TableConfig) -> io::Result<Shared> {
        let table =
            ObjectTable::build(cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let n_objects = table.objects().len();
        let pool = (0..cfg.slots)
            .map(|slot| {
                Some(SlotLease {
                    slot,
                    sessions: (0..n_objects).map(|_| None).collect(),
                })
            })
            .collect();
        Ok(Shared {
            table,
            registry: TelemetryRegistry::new(1),
            scrape: Mutex::new(()),
            slots: Mutex::new(pool),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        })
    }

    fn lease_slot(&self) -> Option<SlotLease> {
        let mut slots = self.slots.lock().expect("slot pool lock");
        slots.iter_mut().find_map(|s| s.take())
    }

    fn release_slot(&self, lease: SlotLease) {
        let slot = lease.slot;
        self.slots.lock().expect("slot pool lock")[slot] = Some(lease);
    }

    /// One Prometheus exposition: registry counters plus a delta export
    /// from every object (which also drains any attached recorders).
    fn scrape_text(&self) -> String {
        let _guard = self.scrape.lock().expect("scrape lock");
        for obj in self.table.objects() {
            obj.export_prometheus(&self.registry);
        }
        self.registry.to_prometheus()
    }
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The served object table.
    pub fn table(&self) -> &ObjectTable {
        &self.shared.table
    }

    /// The shared telemetry registry.
    pub fn registry(&self) -> &TelemetryRegistry {
        &self.shared.registry
    }

    /// The current Prometheus exposition (same text `/metrics` serves).
    pub fn metrics(&self) -> String {
        self.shared.scrape_text()
    }

    /// Drain one object's flight recorders, one log per shard. Audit
    /// windows use this instead of scraping (a scrape also drains).
    pub fn drain_flight(&self, object: &str) -> Vec<FlightLog> {
        self.shared
            .table
            .by_name(object)
            .map(|o| o.drain_flight())
            .unwrap_or_default()
    }

    /// Live connection count.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Stop accepting, wake every worker, and join all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list lock"));
        for h in workers {
            let _ = h.join();
        }
    }
}

/// Bind, build the table, and start the accept loop.
pub fn serve(cfg: &ServeConfig) -> io::Result<ServerHandle> {
    let shared = Arc::new(Shared::new(&cfg.table)?);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let shared = Arc::clone(&shared);
        let workers = Arc::clone(&workers);
        thread::spawn(move || accept_loop(listener, shared, workers))
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    let conns = shared.registry.counter("serve_connections_total");
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.inc(0);
                let shared = Arc::clone(&shared);
                let handle = thread::spawn(move || worker(shared, stream));
                workers.lock().expect("worker list lock").push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_IDLE),
            Err(_) => thread::sleep(ACCEPT_IDLE),
        }
    }
}

fn worker(shared: Arc<Shared>, stream: TcpStream) {
    shared.active.fetch_add(1, Ordering::AcqRel);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let mut conn = FrameCodec::new(stream);
    let mut lease = None;
    let _ = serve_frames(&shared, &mut conn, &mut lease);
    // The slot goes back before the socket closes, so a client that
    // reconnects on seeing the close finds it free.
    if let Some(lease) = lease {
        shared.release_slot(lease);
    }
    shared.active.fetch_sub(1, Ordering::AcqRel);
}

/// One connection's loop. A slot is leased into `lease` when the first
/// whole frame is in — a scrape, a port probe or an idle connect never
/// holds one — and is the caller's to release.
fn serve_frames<T: Read + Write>(
    shared: &Shared,
    conn: &mut FrameCodec<T>,
    lease: &mut Option<SlotLease>,
) -> io::Result<()> {
    let reqs = shared.registry.counter("serve_requests_total");
    // The flag is read before every frame, buffered ones included: a
    // client that never pauses cannot hold up a shutdown.
    while !shared.shutdown.load(Ordering::Acquire) {
        let req = match conn.recv()? {
            Recv::Frame(payload) => Request::decode(payload),
            Recv::Closed => return Ok(()),
            Recv::TimedOut => continue,
            Recv::Oversized(len) => {
                if lease.is_none() && conn.buffered().starts_with(b"GET ") {
                    return serve_scrape(shared, conn);
                }
                // The stream cannot be resynchronised: say why, close.
                let _ = reply(conn, Err(ERR_BAD_REQUEST));
                return Err(oversized(len));
            }
        };
        if lease.is_none() {
            *lease = shared.lease_slot();
        }
        let Some(leased) = lease else {
            // Every process id is leased: refuse politely so the client
            // can back off, without stalling anyone already connected.
            return reply(conn, Err(ERR_BUSY));
        };
        reqs.inc(0);
        reply(conn, dispatch(shared, leased, req))?;
    }
    // Replies held back for a batch that shutdown cut short.
    conn.flush()
}

/// Queue one response frame — an output, or an error code — and flush
/// unless another whole request is already buffered, whose reply will
/// leave in the same `write`.
fn reply<T: Read + Write>(conn: &mut FrameCodec<T>, resp: Result<OpOutput, u8>) -> io::Result<()> {
    conn.queue(|buf| match &resp {
        Ok(out) => encode_output(out, buf),
        Err(code) => encode_err(*code, buf),
    })?;
    if conn.has_frame() {
        return Ok(());
    }
    conn.flush()
}

fn dispatch(
    shared: &Shared,
    lease: &mut SlotLease,
    req: Result<Request, DecodeError>,
) -> Result<OpOutput, u8> {
    let req = req.map_err(|e| match e {
        DecodeError::Opcode(_) => ERR_BAD_OPCODE,
        _ => ERR_BAD_REQUEST,
    })?;
    let obj = shared.table.object(req.object).ok_or(ERR_BAD_OBJECT)?;
    let slot = lease.slot;
    let sess = lease.sessions[req.object as usize].get_or_insert_with(|| obj.sessions(slot));
    Ok(sess.execute(req.opcode, req.a, req.b))
}

/// Answer one HTTP metrics scrape and close. Scrapers send a request
/// line and headers we never need; if their end has not arrived yet,
/// one more read is taken for it, best-effort, so that closing does not
/// reset the connection under the reply.
fn serve_scrape<T: Read + Write>(shared: &Shared, conn: &mut FrameCodec<T>) -> io::Result<()> {
    let whole = conn.buffered().windows(4).any(|w| w == b"\r\n\r\n");
    let stream = conn.get_mut();
    if !whole {
        let _ = stream.read(&mut [0u8; 1024]);
    }
    let body = shared.scrape_text();
    let reply = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::testio::Script;
    use crate::protocol::{
        read_frame, write_frame, Response, MAX_FRAME, OPC_READ, OPC_UPDATE, ST_OK,
    };
    use apram_model::telemetry::validate_prometheus;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn local(objects: &[&str], shards: usize, slots: usize) -> ServerHandle {
        serve(&ServeConfig::local(TableConfig::new(
            objects, shards, slots,
        )))
        .unwrap()
    }

    #[test]
    fn round_trips_counter_ops_over_tcp() {
        let server = local(&["counter"], 2, 2);
        let mut c = Client::connect(server.addr()).unwrap();
        for _ in 0..5 {
            c.op(OPC_UPDATE, 0, 0, 0).unwrap();
        }
        let read = c.op(OPC_READ, 0, 0, 0).unwrap();
        assert_eq!(read.values, vec![5]);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn rejects_unknown_objects_and_keeps_serving() {
        let server = local(&["counter"], 1, 1);
        let mut c = Client::connect(server.addr()).unwrap();
        let resp = c.op(OPC_UPDATE, 9, 0, 0).unwrap();
        assert_eq!(resp.status, crate::protocol::ST_ERR);
        assert_eq!(resp.kind, ERR_BAD_OBJECT);
        assert!(resp.values.is_empty());
        // The connection survives the error.
        let resp = c.op(OPC_READ, 0, 0, 0).unwrap();
        assert_eq!(resp.values, vec![0]);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn busy_when_slot_pool_exhausted() {
        let server = local(&["counter"], 1, 1);
        let mut a = Client::connect(server.addr()).unwrap();
        a.op(OPC_UPDATE, 0, 0, 0).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        let resp = b.op(OPC_UPDATE, 0, 0, 0).unwrap();
        assert_eq!(resp.status, crate::protocol::ST_ERR);
        assert_eq!(resp.kind, ERR_BUSY);
        // Dropping the first connection frees its slot for a newcomer.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut c = Client::connect(server.addr()).unwrap();
            let resp = c.op(OPC_READ, 0, 0, 0).unwrap();
            if resp.status == crate::protocol::ST_OK {
                assert_eq!(resp.values, vec![1]);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "slot never came back");
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn metrics_scrape_is_valid_prometheus() {
        let server = local(&["counter", "mwreg"], 2, 2);
        let mut c = Client::connect(server.addr()).unwrap();
        c.op(OPC_UPDATE, 1, 7, 0).unwrap(); // mwreg write draws a ticket
        drop(c);
        let text = Client::scrape_metrics(server.addr()).unwrap();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("serve_requests_total"), "{text}");
        assert!(text.contains("native_ticket_draws"), "{text}");
        server.shutdown();
    }

    /// One counter increment as wire bytes.
    fn inc_frame() -> Vec<u8> {
        let req = Request {
            opcode: OPC_UPDATE,
            object: 0,
            a: 0,
            b: 0,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &req.encode()).unwrap();
        frame
    }

    fn all_slots_leased(server: &ServerHandle) -> bool {
        let slots = server.shared.slots.lock().unwrap();
        slots.iter().all(Option::is_none)
    }

    /// A frame that trickles in — pauses well past the read timeout
    /// after the prefix, inside the prefix and inside the body — is
    /// answered on the same connection, which keeps its slot throughout.
    #[test]
    fn slow_frame_keeps_its_connection_and_slot() {
        let server = local(&["counter"], 1, 1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let frame = inc_frame();
        for (cuts, pause) in [
            (&[4][..], 4 * POLL_TIMEOUT),
            (&[2, 9][..], 2 * POLL_TIMEOUT),
        ] {
            let mut sent = 0;
            for &cut in cuts {
                stream.write_all(&frame[sent..cut]).unwrap();
                sent = cut;
                thread::sleep(pause);
            }
            stream.write_all(&frame[sent..]).unwrap();
            let reply = read_frame(&mut stream)
                .expect("the connection is still up")
                .expect("a reply, not a close");
            assert_eq!(Response::decode(&reply).unwrap().status, ST_OK);
            assert!(all_slots_leased(&server));
        }
        drop(stream);
        server.shutdown();
    }

    /// The shutdown flag is looked at before every frame, those
    /// already buffered included: the worker of a client that pipelines
    /// stops between two requests, not when the client next pauses.
    #[test]
    fn shutdown_stops_a_worker_with_requests_still_buffered() {
        let shared = Shared::new(&TableConfig::new(&["counter"], 1, 1)).unwrap();
        let mut conn = FrameCodec::new(Script::new(inc_frame().repeat(64), vec![]));
        assert!(matches!(conn.recv().unwrap(), Recv::Frame(_)));
        assert!(conn.has_frame());
        shared.shutdown.store(true, Ordering::Release);
        serve_frames(&shared, &mut conn, &mut None).unwrap();
        assert!(conn.has_frame(), "the backlog was left alone");
        assert!(conn.get_mut().output.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// However the bytes are cut, an oversized prefix after `k` good
        /// requests earns `k` replies, then `ERR_BAD_REQUEST`, then a
        /// closed connection — and whatever follows it is never read as
        /// a request.
        #[test]
        fn oversized_prefix_mid_stream_is_refused_and_closes(
            k in 0usize..6,
            len in (MAX_FRAME as u32 + 1)..=u32::MAX,
            mut cuts in vec(prop_oneof![0usize..4, 0usize..40], 0..6),
        ) {
            prop_assume!(&len.to_le_bytes() != b"GET ");
            cuts.push(1);
            let mut wire = inc_frame().repeat(k);
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(&inc_frame());

            let shared = Shared::new(&TableConfig::new(&["counter"], 1, 1)).unwrap();
            let mut conn = FrameCodec::new(Script::new(wire, cuts));
            let mut lease = None;
            let err = serve_frames(&shared, &mut conn, &mut lease).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            prop_assert_eq!(lease.is_some(), k > 0);

            let mut out = &conn.get_mut().output[..];
            for _ in 0..k {
                let reply = Response::decode(&read_frame(&mut out).unwrap().unwrap()).unwrap();
                prop_assert_eq!(reply.status, ST_OK);
            }
            let last = Response::decode(&read_frame(&mut out).unwrap().unwrap()).unwrap();
            prop_assert_eq!(last, Response::err(ERR_BAD_REQUEST));
            prop_assert!(out.is_empty());
            prop_assert_eq!(shared.registry.counter_total("serve_requests_total"), Some(k as u64));
        }
    }
}
