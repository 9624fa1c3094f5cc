//! A minimal blocking client for the frame protocol, plus a one-shot
//! HTTP metrics scraper. This is what the load driver and the tests
//! speak; it is intentionally a thin veneer over [`crate::protocol`]'s
//! [`FrameCodec`]: one `write` and one `read` per op.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{oversized, FrameCodec, Recv, Request, Response};

/// One connection to an `apram-serve` instance.
pub struct Client {
    conn: FrameCodec<TcpStream>,
}

impl Client {
    /// Connect (blocking, no read timeout — the server always answers
    /// each frame).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: FrameCodec::new(stream),
        })
    }

    /// Connect with a connect + read timeout (load drivers under crash
    /// scenarios should not hang forever on a dead server).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client {
            conn: FrameCodec::new(stream),
        })
    }

    /// Execute one op and wait for its response frame. A read timeout
    /// is an error: the reply may still come, so the connection is out
    /// of step afterwards and should be dropped.
    pub fn op(&mut self, opcode: u8, object: u8, a: u64, b: u64) -> io::Result<Response> {
        let req = Request {
            opcode,
            object,
            a,
            b,
        };
        self.conn
            .queue(|buf| buf.extend_from_slice(&req.encode()))?;
        self.conn.flush()?;
        match self.conn.recv()? {
            Recv::Frame(payload) => Response::decode(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Recv::Closed => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Recv::TimedOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within the read timeout",
            )),
            Recv::Oversized(len) => Err(oversized(len)),
        }
    }

    /// Scrape `/metrics` with a plain HTTP GET on a fresh connection
    /// and return the exposition body.
    pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: apram\r\nConnection: close\r\n\r\n")?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header break"))?;
        Ok(body)
    }
}
