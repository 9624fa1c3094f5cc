//! `apram-serve`: the wait-free native objects behind a socket.
//!
//! This crate is the serving layer over the workspace's native backend:
//! it exposes the [`apram_objects::spec`] registry's objects (counter,
//! max-register, logical clock, LWW maps, snapshots) to external
//! clients over a hand-rolled length-prefixed binary protocol, with the
//! same zero-dependency discipline as the rest of the workspace —
//! std-only sockets and threads, no serialization or async frameworks.
//!
//! The pieces, bottom up:
//!
//! * [`protocol`] — the wire format: 4-byte LE length prefix, 20-byte
//!   requests, value-vector responses, 64 KiB frame cap;
//! * [`table`] — the sharded object table: each named object striped
//!   over independent shard memories, with the cross-shard read
//!   semantics its registry row declares (sum for the counter, lattice
//!   max for the max-register family, key routing for the maps);
//! * [`server`] — thread-per-connection TCP service with a slot pool
//!   (one process id per connection), graceful shutdown, and a
//!   piggybacked Prometheus `/metrics` scrape;
//! * [`client`] — a minimal blocking client;
//! * [`load`] — the multi-tenant load driver (zipfian keys, read/write
//!   mix, mid-run client crash) and the offline linearizability audit
//!   over drained flight-recorder spans.
//!
//! The crate exists to close the loop the paper leaves implicit: a
//! wait-free shared object is only interesting if *someone* calls it.
//! Serving real sockets makes the progress guarantee observable as an
//! SLO — one stalled or crashed client cannot move another tenant's
//! tail — and the flight-recorder audit makes the correctness claim
//! checkable on the live service, not just in the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod protocol;
pub mod server;
pub mod table;

pub use client::Client;
pub use load::{run_audit, run_load, AuditReport, LoadConfig, LoadReport, TenantReport, Zipfian};
pub use protocol::{Request, Response, MAX_FRAME, OPC_READ, OPC_UPDATE, ST_ERR, ST_OK};
pub use server::{serve, ServeConfig, ServerHandle};
pub use table::{ObjectTable, ShardedObject, SlotSessions, TableConfig};
