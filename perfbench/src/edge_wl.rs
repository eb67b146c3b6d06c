//! `edge-wire`: the `serve-mixed` roster and phases over
//! [`Service::serve_edge`] on loopback, from one client thread driving
//! at most `nproc` pipelined connections.

use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfm_core::op::Operation;
use cfm_serve::wire::{self, Decoder, Frame};
use cfm_serve::{EdgeConfig, EdgeHandle, Reject, Request, Service, PROTOCOL_VERSION};

use crate::check::Failures;
use crate::load::{service_config, Done, Target, OFFSETS, PROCESSORS};
use crate::serve_wl::{run_served, Front, Teardown};
use crate::trace::Tracer;
use crate::{host, Params, RunResult};

/// Open-loop offered rate of `edge-wire` (requests/s): about half this
/// workload's closed-loop throughput at the commit that defined the
/// benchmark.
pub const EDGE_OPEN_RATE: f64 = 42_000.0;
/// Latency limit of `edge-wire`'s open loop (µs).
pub const EDGE_LIMIT_US: f64 = 5_000.0;
/// Connections the client opens, capped by `nproc`.
const CONNECTIONS: usize = 2;
/// Longest wait for a handshake or drain reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    wpos: usize,
    drained: bool,
    closed: bool,
}

/// The wire target: pipelined connections to a loopback edge.
pub struct Wire {
    service: Arc<Service>,
    edge: EdgeHandle,
    conns: Vec<Conn>,
    outstanding: usize,
    bytes: u64,
    scratch: Vec<u8>,
    errors: Vec<String>,
}

impl Wire {
    fn flush(conn: &mut Conn, bytes: &mut u64, errors: &mut Vec<String>) {
        while conn.wpos < conn.wbuf.len() && !conn.closed {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    errors.push("connection refused further writes".to_string());
                    conn.closed = true;
                }
                Ok(n) => {
                    conn.wpos += n;
                    *bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    errors.push(format!("write failed: {e}"));
                    conn.closed = true;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
    }
}

impl Target for Wire {
    fn submit(&mut self, id: u64, tenant: usize, op: Operation, tr: &mut Tracer) -> Option<Done> {
        let n = self.conns.len();
        let conn = &mut self.conns[id as usize % n];
        let frame = Frame::Submit {
            request_id: id,
            request: Request::new(tenant, op),
        };
        let t0 = Instant::now();
        wire::encode_into(&frame, &mut conn.wbuf);
        tr.record("wire.encode", id, t0, Instant::now());
        tr.begin("edge.write", id);
        Self::flush(conn, &mut self.bytes, &mut self.errors);
        tr.end();
        self.outstanding += 1;
        None
    }

    fn poll(&mut self, done: &mut Vec<Done>, tr: &mut Tracer) {
        for conn in &mut self.conns {
            if !conn.wbuf.is_empty() {
                Self::flush(conn, &mut self.bytes, &mut self.errors);
            }
            tr.begin("edge.read", 0);
            while !conn.closed {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        if !conn.drained {
                            self.errors
                                .push("edge closed a connection before Drained".into());
                        }
                        conn.closed = true;
                    }
                    Ok(n) => {
                        conn.dec.feed(&self.scratch[..n]);
                        self.bytes += n as u64;
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.errors.push(format!("read failed: {e}"));
                        conn.closed = true;
                    }
                }
            }
            tr.end();
            loop {
                let t0 = Instant::now();
                let frame = match conn.dec.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        self.errors.push(format!("undecodable reply: {e}"));
                        conn.closed = true;
                        break;
                    }
                };
                let t1 = Instant::now();
                match frame {
                    Frame::Response {
                        request_id,
                        response,
                    } => {
                        tr.record("wire.decode", request_id, t0, t1);
                        self.outstanding -= 1;
                        done.push(Done::Response(request_id, response));
                    }
                    Frame::Reject { request_id, reject } => {
                        tr.record("wire.decode", request_id, t0, t1);
                        self.outstanding -= 1;
                        done.push(match reject {
                            Reject::QueueFull { .. } | Reject::Overloaded { .. } => {
                                Done::Refused(request_id)
                            }
                            other => Done::Lost(request_id, format!("refused: {other}")),
                        });
                    }
                    Frame::Drained => conn.drained = true,
                    other => self.errors.push(format!("unexpected frame {other:?}")),
                }
            }
        }
    }

    fn wait(&mut self, done: &mut Vec<Done>, deadline: Instant, tr: &mut Tracer) {
        loop {
            self.poll(done, tr);
            let live = self.conns.iter().any(|c| !c.closed);
            if !done.is_empty() || self.outstanding == 0 || !live || Instant::now() >= deadline {
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Open one connection and complete the Hello/Welcome handshake.
fn connect(edge: &EdgeHandle, failures: &mut Failures) -> io::Result<Conn> {
    let mut stream = TcpStream::connect(edge.addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.write_all(&wire::encode(&Frame::Hello {
        version: PROTOCOL_VERSION,
    }))?;
    let mut dec = Decoder::new();
    let mut buf = [0u8; 256];
    let welcome = loop {
        match dec.next_frame() {
            Ok(Some(frame)) => break frame,
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        dec.feed(&buf[..n]);
    };
    let ok = matches!(welcome, Frame::Welcome { banks, offsets, processors, .. }
        if banks as usize == PROCESSORS && offsets as usize == OFFSETS
            && processors as usize == PROCESSORS);
    failures.check(ok, || format!("handshake answered {welcome:?}"));
    stream.set_nonblocking(true)?;
    Ok(Conn {
        stream,
        dec,
        wbuf: Vec::new(),
        wpos: 0,
        drained: false,
        closed: false,
    })
}

impl Front for Wire {
    const OPEN_RATE: f64 = EDGE_OPEN_RATE;
    const LIMIT_US: f64 = EDGE_LIMIT_US;
    const WIRE: bool = true;

    fn build(failures: &mut Failures) -> Self {
        let service =
            Arc::new(Service::start(service_config()).expect("valid service configuration"));
        let edge = service
            .serve_edge(EdgeConfig::default())
            .expect("the edge binds a loopback port");
        let conns = (0..CONNECTIONS.min(host::nproc()))
            .map(|_| connect(&edge, failures).expect("loopback connection and handshake"))
            .collect();
        Wire {
            service,
            edge,
            conns,
            outstanding: 0,
            bytes: 0,
            scratch: vec![0; 64 * 1024],
            errors: Vec::new(),
        }
    }

    fn teardown(mut self, failures: &mut Failures) -> Teardown {
        let t = Instant::now();
        for conn in &mut self.conns {
            wire::encode_into(&Frame::Drain, &mut conn.wbuf);
        }
        let deadline = t + REPLY_TIMEOUT;
        let mut done = Vec::new();
        let mut tr = Tracer::new(false);
        while self.conns.iter().any(|c| !c.drained && !c.closed) && Instant::now() < deadline {
            self.poll(&mut done, &mut tr);
            std::thread::yield_now();
        }
        for d in done {
            failures.add(format!("reply after the drain request: {d:?}"));
        }
        let drained = self.conns.iter().filter(|c| c.drained).count();
        failures.check(drained == self.conns.len(), || {
            format!(
                "{drained} of {} connections completed the drain handshake",
                self.conns.len()
            )
        });
        for e in self.errors.drain(..) {
            failures.add(e);
        }
        let conns = self.conns.len() as u64;
        drop(self.conns);
        let edge = self.edge.shutdown();
        failures.check(edge.wire_errors == 0, || {
            format!("{} wire errors", edge.wire_errors)
        });
        failures.check(edge.drained_connections == conns, || {
            format!(
                "edge counted {} drained connections of {conns}",
                edge.drained_connections
            )
        });
        let service = Arc::try_unwrap(self.service)
            .unwrap_or_else(|_| panic!("the edge thread released the service"));
        let report = service.drain();
        Teardown {
            report,
            edge: Some(edge),
            drain: t.elapsed(),
        }
    }

    fn connections(&self) -> usize {
        self.conns.len()
    }

    fn wire_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Run `edge-wire`.
pub fn run(params: &Params) -> RunResult {
    run_served::<Wire>(params)
}
