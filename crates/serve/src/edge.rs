//! The TCP edge: serves the [`crate::wire`] protocol on one dedicated
//! nonblocking thread — no async runtime, same discipline as the event
//! loop itself.
//!
//! ## Architecture
//!
//! [`serve`] (or [`crate::Service::serve_edge`]) binds a listener, puts
//! it in nonblocking mode, and spawns a single `cfm-edge` thread. Each
//! iteration that thread:
//!
//! 1. accepts any waiting connections (shedding with a wire-level
//!    [`crate::Reject::Overloaded`] frame — retry hint included — when
//!    the connection cap is reached),
//! 2. reads whatever bytes each connection has, feeding its incremental
//!    [`Decoder`] and dispatching complete frames,
//! 3. polls every in-flight [`crate::Ticket`] with
//!    [`crate::Ticket::try_take`] and encodes finished responses into
//!    the connection's write buffer, and
//! 4. flushes write buffers as far as the sockets allow, carrying
//!    partial writes across iterations.
//!
//! When an iteration makes no progress at all, the thread sleeps 100 µs
//! — idle cost is a few wakeups per millisecond, and submit-to-issue
//! latency stays bounded by that same figure. Readiness is *polled*,
//! not awaited: with nonblocking sockets and thousands of connections
//! this is the classic single-threaded edge, and it keeps the no-tokio
//! constraint honest.
//!
//! ## Backpressure
//!
//! Load shedding happens at three layers, all typed on the wire:
//! - connection cap ([`EdgeConfig::max_connections`]): accepted, sent
//!   one `Reject(Overloaded)` frame, closed;
//! - in-flight caps ([`EdgeConfig::max_inflight_per_conn`],
//!   [`EdgeConfig::max_inflight_total`]): the submit is refused with
//!   `Reject(Overloaded)` carrying a `retry_after_slots` hint computed
//!   from the same drain model the service uses in-process;
//! - the service's own admission ([`crate::Service::submit_request`]):
//!   any in-process [`crate::Reject`] is forwarded verbatim as a
//!   `Reject` frame — the wire surface and the in-process surface are
//!   the same typed enum.
//!
//! A client that stops reading its responses is paused, not buffered
//! for: while a connection holds more than [`WRITE_BUFFER_CAP`]
//! unflushed bytes, the edge neither reads nor dispatches its frames
//! until the socket drains ([`EdgeStats::write_pauses`] counts each
//! pause). The kernel's socket buffers then push back on the client.
//!
//! ## Drain handshake
//!
//! A client that is done sends [`Frame::Drain`]. The edge stops
//! accepting submits on that connection (`Reject(ShuttingDown)` if the
//! client breaks its promise), waits for the connection's in-flight
//! operations to finish, flushes their responses, sends
//! [`Frame::Drained`], and closes. Responses are therefore never lost
//! by a polite disconnect.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::request::{Reject, Ticket};
use crate::service::Service;
use crate::wire::{self, Decoder, Frame, PROTOCOL_VERSION};

/// [`Frame::Error`] code for a frame that is well-formed but illegal in
/// its direction or state (e.g. a client sending `Welcome`). Codes ≥ 1
/// are [`crate::WireError::code`]s.
pub const ERR_PROTOCOL_VIOLATION: u16 = 0;

/// Unflushed response bytes past which a connection's input is paused.
/// A connection's write buffer stays below this plus one frame and its
/// in-flight responses.
pub const WRITE_BUFFER_CAP: usize = 256 * 1024;

/// Tuning for one edge listener.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (the default) for an
    /// ephemeral loopback port.
    pub addr: String,
    /// Concurrent connections before accept-time shedding.
    pub max_connections: usize,
    /// In-flight (submitted, not yet responded) operations per
    /// connection before submit-time shedding.
    pub max_inflight_per_conn: usize,
    /// In-flight operations across all connections before submit-time
    /// shedding.
    pub max_inflight_total: usize,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 2048,
            max_inflight_per_conn: 64,
            max_inflight_total: 4096,
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    active: AtomicU64,
    shed_connections: AtomicU64,
    shed_submits: AtomicU64,
    responses: AtomicU64,
    rejects: AtomicU64,
    wire_errors: AtomicU64,
    drained_connections: AtomicU64,
    write_pauses: AtomicU64,
}

/// A point-in-time snapshot of the edge counters (all monotonic except
/// `active`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted (including ones later shed or closed).
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections shed at accept time by the connection cap.
    pub shed_connections: u64,
    /// Submits shed at the edge by the in-flight caps (before reaching
    /// the service).
    pub shed_submits: u64,
    /// Response frames sent.
    pub responses: u64,
    /// Reject frames sent (edge shedding plus forwarded service
    /// rejections).
    pub rejects: u64,
    /// Connections dropped for a typed [`crate::WireError`].
    pub wire_errors: u64,
    /// Connections that completed the drain handshake.
    pub drained_connections: u64,
    /// Times a connection's input was paused because its unflushed
    /// output passed [`WRITE_BUFFER_CAP`].
    pub write_pauses: u64,
}

/// Handle to a running edge thread: address, counters, shutdown.
#[derive(Debug)]
pub struct EdgeHandle {
    addr: SocketAddr,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl EdgeHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the edge counters.
    pub fn stats(&self) -> EdgeStats {
        EdgeStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            active: self.stats.active.load(Ordering::Relaxed),
            shed_connections: self.stats.shed_connections.load(Ordering::Relaxed),
            shed_submits: self.stats.shed_submits.load(Ordering::Relaxed),
            responses: self.stats.responses.load(Ordering::Relaxed),
            rejects: self.stats.rejects.load(Ordering::Relaxed),
            wire_errors: self.stats.wire_errors.load(Ordering::Relaxed),
            drained_connections: self.stats.drained_connections.load(Ordering::Relaxed),
            write_pauses: self.stats.write_pauses.load(Ordering::Relaxed),
        }
    }

    /// Stop the edge thread and wait for it. Open connections are
    /// closed without ceremony (polite clients drain first); the
    /// service itself is untouched and can keep serving in-process
    /// work or be drained afterwards.
    pub fn shutdown(mut self) -> EdgeStats {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.stats()
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One connection's state: decoder, write buffer (with partial-write
/// offset), and in-flight tickets keyed by the client's request IDs.
struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<(u64, Ticket)>,
    draining: bool,
    sent_drained: bool,
    close_after_flush: bool,
    dead: bool,
    /// Input paused until the write buffer drains below
    /// [`WRITE_BUFFER_CAP`].
    paused: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            draining: false,
            sent_drained: false,
            close_after_flush: false,
            dead: false,
            paused: false,
        }
    }

    fn queue(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.wbuf);
    }

    fn over_write_cap(&self) -> bool {
        self.wbuf.len() - self.wpos > WRITE_BUFFER_CAP
    }
}

/// Serve the wire protocol for `service` per `config`. Binds, spawns
/// the `cfm-edge` thread, and returns immediately; see the module docs
/// for the loop. The service outlives the edge — shut the edge down
/// (or drop the handle) before draining the service.
pub fn serve(service: Arc<Service>, config: EdgeConfig) -> io::Result<EdgeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(StatsInner::default());
    let stop = Arc::new(AtomicBool::new(false));
    let thread = thread::Builder::new().name("cfm-edge".to_string()).spawn({
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        move || run_edge(&service, &listener, &config, &stats, &stop)
    })?;
    Ok(EdgeHandle {
        addr,
        stats,
        stop,
        thread: Some(thread),
    })
}

impl Service {
    /// Serve the wire protocol over TCP for this service. Equivalent to
    /// [`edge::serve`](serve); the `Arc` receiver is what lets the edge
    /// thread share the service with in-process submitters.
    pub fn serve_edge(self: &Arc<Self>, config: EdgeConfig) -> io::Result<EdgeHandle> {
        serve(Arc::clone(self), config)
    }
}

/// Retry hint in machine slots for a backlog of `waiting` operations:
/// drained at one dequeue per lane per slot, plus one bank cycle of
/// pipeline settle — the same model the service uses for its in-process
/// [`Reject::QueueFull`] / [`Reject::Overloaded`] hints.
fn retry_hint(waiting: usize, processors: u64, bank_cycle: u64) -> u64 {
    (waiting as u64).div_ceil(processors.max(1)) + bank_cycle + 1
}

fn run_edge(
    service: &Arc<Service>,
    listener: &TcpListener,
    config: &EdgeConfig,
    stats: &StatsInner,
    stop: &AtomicBool,
) {
    let processors = service.processors() as u64;
    let bank_cycle = u64::from(service.bank_cycle());
    let banks = service.banks() as u32;
    let offsets = service.offsets() as u32;
    let welcome = Frame::Welcome {
        version: PROTOCOL_VERSION,
        banks,
        offsets,
        processors: processors as u32,
    };

    let mut conns: Vec<Conn> = Vec::new();
    let mut inflight_total: usize = 0;
    let mut scratch = [0u8; 16384];

    while !stop.load(Ordering::Acquire) {
        let mut progress = false;

        // 1. Accept, shedding past the connection cap.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    progress = true;
                    if conns.len() >= config.max_connections {
                        stats.shed_connections.fetch_add(1, Ordering::Relaxed);
                        stats.rejects.fetch_add(1, Ordering::Relaxed);
                        shed_connection(stream, conns.len(), config.max_connections, {
                            retry_hint(inflight_total, processors, bank_cycle)
                        });
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd exhaustion): back
                // off to the idle sleep rather than spinning.
                Err(_) => break,
            }
        }

        // 2–4. Read, dispatch, poll tickets, flush — per connection.
        for conn in conns.iter_mut() {
            if conn.over_write_cap() {
                if !conn.paused {
                    conn.paused = true;
                    stats.write_pauses.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                conn.paused = false;
                read_into(conn, &mut scratch, &mut progress);
                dispatch_frames(
                    conn,
                    service,
                    config,
                    stats,
                    &welcome,
                    &mut inflight_total,
                    processors,
                    bank_cycle,
                    &mut progress,
                );
            }
            poll_tickets(conn, stats, &mut inflight_total, &mut progress);
            if conn.draining && !conn.sent_drained && conn.pending.is_empty() {
                conn.queue(&Frame::Drained);
                conn.sent_drained = true;
                conn.close_after_flush = true;
                stats.drained_connections.fetch_add(1, Ordering::Relaxed);
                progress = true;
            }
            flush(conn, &mut progress);
        }

        // Reap closed connections, releasing their in-flight slots
        // (abandoned tickets are harmless — the service fulfills into
        // the shared slot whether or not anyone reads it).
        conns.retain(|c| {
            if c.dead {
                inflight_total -= c.pending.len();
            }
            !c.dead
        });
        stats.active.store(conns.len() as u64, Ordering::Relaxed);

        if !progress {
            thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Best-effort typed refusal for an over-cap connection: one `Reject`
/// frame into the fresh socket buffer, then close.
fn shed_connection(stream: TcpStream, queued: usize, limit: usize, retry_after_slots: u64) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let bytes = wire::encode(&Frame::Reject {
        request_id: 0,
        reject: Reject::Overloaded {
            queued,
            limit,
            retry_after_slots,
        },
    });
    let _ = stream.write(&bytes);
}

fn read_into(conn: &mut Conn, scratch: &mut [u8], progress: &mut bool) {
    if conn.dead || conn.close_after_flush {
        return;
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.dec.feed(&scratch[..n]);
                *progress = true;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_frames(
    conn: &mut Conn,
    service: &Service,
    config: &EdgeConfig,
    stats: &StatsInner,
    welcome: &Frame,
    inflight_total: &mut usize,
    processors: u64,
    bank_cycle: u64,
    progress: &mut bool,
) {
    while !conn.dead && !conn.close_after_flush && !conn.over_write_cap() {
        let frame = match conn.dec.next_frame() {
            Ok(None) => break,
            Ok(Some(frame)) => frame,
            Err(e) => {
                stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                conn.queue(&Frame::Error {
                    code: e.code(),
                    message: e.to_string(),
                });
                conn.close_after_flush = true;
                *progress = true;
                break;
            }
        };
        *progress = true;
        match frame {
            Frame::Hello { .. } => conn.queue(welcome),
            Frame::Submit {
                request_id,
                request,
            } => {
                if conn.draining {
                    stats.rejects.fetch_add(1, Ordering::Relaxed);
                    conn.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::ShuttingDown,
                    });
                } else if conn.pending.len() >= config.max_inflight_per_conn
                    || *inflight_total >= config.max_inflight_total
                {
                    stats.shed_submits.fetch_add(1, Ordering::Relaxed);
                    stats.rejects.fetch_add(1, Ordering::Relaxed);
                    conn.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::Overloaded {
                            queued: *inflight_total,
                            limit: config.max_inflight_total,
                            retry_after_slots: retry_hint(*inflight_total, processors, bank_cycle),
                        },
                    });
                } else {
                    match service.submit_request(request) {
                        Ok(ticket) => {
                            conn.pending.push_back((request_id, ticket));
                            *inflight_total += 1;
                        }
                        Err(reject) => {
                            stats.rejects.fetch_add(1, Ordering::Relaxed);
                            conn.queue(&Frame::Reject { request_id, reject });
                        }
                    }
                }
            }
            Frame::MetricsRequest => conn.queue(&Frame::Metrics {
                json: service.metrics().to_json(),
            }),
            Frame::Drain => conn.draining = true,
            Frame::Welcome { .. }
            | Frame::Response { .. }
            | Frame::Reject { .. }
            | Frame::Metrics { .. }
            | Frame::Drained
            | Frame::Error { .. } => {
                conn.queue(&Frame::Error {
                    code: ERR_PROTOCOL_VIOLATION,
                    message: "frame not valid client-to-server".to_string(),
                });
                conn.close_after_flush = true;
            }
        }
    }
}

fn poll_tickets(
    conn: &mut Conn,
    stats: &StatsInner,
    inflight_total: &mut usize,
    progress: &mut bool,
) {
    let mut i = 0;
    while i < conn.pending.len() {
        if !conn.pending[i].1.is_ready() {
            i += 1;
            continue;
        }
        let (request_id, mut ticket) = conn.pending.remove(i).expect("index in bounds");
        *inflight_total -= 1;
        *progress = true;
        match ticket.try_take() {
            Some(response) => {
                stats.responses.fetch_add(1, Ordering::Relaxed);
                conn.queue(&Frame::Response {
                    request_id,
                    response,
                });
            }
            // Ready but empty: the ticket was closed (service dropped
            // or drained underneath the edge) — surface it typed.
            None => {
                stats.rejects.fetch_add(1, Ordering::Relaxed);
                conn.queue(&Frame::Reject {
                    request_id,
                    reject: Reject::ShuttingDown,
                });
            }
        }
    }
}

fn flush(conn: &mut Conn, progress: &mut bool) {
    if conn.dead {
        return;
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                *progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.close_after_flush {
            conn.dead = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServiceConfig, TenantSpec};
    use crate::request::Response;
    use cfm_core::config::CfmConfig;
    use cfm_core::op::Operation;

    fn small_service() -> Arc<Service> {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        Arc::new(
            Service::start(
                ServiceConfig::new(cfg, 32)
                    .with_tenant(TenantSpec::new("a").queue_capacity(16))
                    .with_tenant(TenantSpec::new("b").queue_capacity(16)),
            )
            .unwrap(),
        )
    }

    /// Minimal blocking test client speaking the wire protocol.
    struct Client {
        stream: TcpStream,
        dec: Decoder,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            Client {
                stream,
                dec: Decoder::new(),
            }
        }

        fn send(&mut self, frame: &Frame) {
            self.stream.write_all(&wire::encode(frame)).unwrap();
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).unwrap();
        }

        /// Next frame, or `None` on clean EOF.
        fn recv(&mut self) -> Option<Frame> {
            loop {
                if let Some(f) = self.dec.next_frame().unwrap() {
                    return Some(f);
                }
                let mut buf = [0u8; 4096];
                match self.stream.read(&mut buf) {
                    Ok(0) => return None,
                    Ok(n) => self.dec.feed(&buf[..n]),
                    Err(e) => panic!("client read failed: {e}"),
                }
            }
        }
    }

    #[test]
    fn hello_submit_metrics_drain_round_trip() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());

        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        assert_eq!(
            client.recv(),
            Some(Frame::Welcome {
                version: PROTOCOL_VERSION,
                banks: 4,
                offsets: 32,
                processors: 4,
            })
        );

        client.send(&Frame::Submit {
            request_id: 1,
            request: crate::Request::new(0, Operation::write(5, vec![42; 4])),
        });
        client.send(&Frame::Submit {
            request_id: 2,
            request: crate::Request::new(1, Operation::read(5)),
        });
        // Responses arrive tagged; the read may race the write at the
        // scheduler so only the IDs (not the read data) are pinned.
        let mut got = Vec::new();
        for _ in 0..2 {
            match client.recv() {
                Some(Frame::Response {
                    request_id,
                    response: Response { tenant, .. },
                }) => got.push((request_id, tenant)),
                other => panic!("expected response, got {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(1, 0), (2, 1)]);

        client.send(&Frame::MetricsRequest);
        match client.recv() {
            Some(Frame::Metrics { json }) => assert!(json.contains("\"budget_deferrals\"")),
            other => panic!("expected metrics, got {other:?}"),
        }

        client.send(&Frame::Drain);
        assert_eq!(client.recv(), Some(Frame::Drained));
        assert_eq!(client.recv(), None, "server closes after Drained");

        let stats = edge.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.responses, 2);
        assert_eq!(stats.wire_errors, 0);
        assert_eq!(stats.drained_connections, 1);
        let report = Arc::try_unwrap(service).ok().unwrap().drain();
        assert_eq!(report.stats.bank_conflicts, 0);
    }

    #[test]
    fn stale_version_gets_typed_error_then_close() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());

        let mut bytes = wire::encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&9u16.to_le_bytes());
        client.send_raw(&bytes);

        match client.recv() {
            Some(Frame::Error { code, message }) => {
                assert_eq!(code, 3, "VersionMismatch code");
                assert!(message.contains("version 9"), "message {message:?}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(client.recv(), None, "connection is dropped after error");
        assert_eq!(edge.shutdown().wire_errors, 1);
    }

    #[test]
    fn service_rejections_are_forwarded_verbatim() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Submit {
            request_id: 7,
            request: crate::Request::new(9, Operation::read(0)),
        });
        assert_eq!(
            client.recv(),
            Some(Frame::Reject {
                request_id: 7,
                reject: Reject::UnknownTenant { tenant: 9 },
            })
        );
        assert_eq!(edge.shutdown().rejects, 1);
    }

    #[test]
    fn inflight_cap_sheds_with_typed_overload_and_hint() {
        let service = small_service();
        let edge = service
            .serve_edge(EdgeConfig {
                max_inflight_total: 0,
                ..EdgeConfig::default()
            })
            .unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Submit {
            request_id: 3,
            request: crate::Request::new(0, Operation::read(0)),
        });
        match client.recv() {
            Some(Frame::Reject {
                request_id: 3,
                reject:
                    Reject::Overloaded {
                        queued: 0,
                        limit: 0,
                        retry_after_slots,
                    },
            }) => assert!(retry_after_slots > 0, "hint must be non-zero"),
            other => panic!("expected overload shed, got {other:?}"),
        }
        let stats = edge.shutdown();
        assert_eq!(stats.shed_submits, 1);
    }

    #[test]
    fn connection_cap_sheds_with_reject_then_close() {
        let service = small_service();
        let edge = service
            .serve_edge(EdgeConfig {
                max_connections: 0,
                ..EdgeConfig::default()
            })
            .unwrap();
        let mut client = Client::connect(edge.addr());
        match client.recv() {
            Some(Frame::Reject {
                request_id: 0,
                reject: Reject::Overloaded { limit: 0, .. },
            }) => {}
            other => panic!("expected connection shed, got {other:?}"),
        }
        assert_eq!(client.recv(), None);
        let stats = edge.shutdown();
        assert_eq!(stats.shed_connections, 1);
        assert_eq!(stats.active, 0);
    }

    #[test]
    fn unread_responses_pause_the_connection() {
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        // The writer pipelines MetricsRequest frames, nothing reads a
        // byte until the edge reports a pause — by then the responses
        // fill the kernel socket buffers in both directions plus the
        // cap — then it finishes its batch and asks to drain. Pacing
        // the batches keeps the writer from running far ahead of the
        // edge through the (large) socket buffers.
        let stop = Arc::new(AtomicBool::new(false));
        let mut writer = client.stream.try_clone().unwrap();
        let writer = thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let batch: Vec<u8> = (0..64)
                    .flat_map(|_| wire::encode(&Frame::MetricsRequest))
                    .collect();
                let mut sent = 0u64;
                while !stop.load(Ordering::Acquire) && sent < 1 << 17 {
                    writer.write_all(&batch).unwrap();
                    sent += 64;
                    thread::sleep(Duration::from_millis(1));
                }
                writer.write_all(&wire::encode(&Frame::Drain)).unwrap();
                sent
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while edge.stats().write_pauses == 0 {
            assert!(Instant::now() < deadline, "the edge never paused");
            thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        let mut metrics = 0u64;
        loop {
            match client.recv() {
                Some(Frame::Metrics { .. }) => metrics += 1,
                Some(Frame::Drained) => break,
                other => panic!("expected Metrics or Drained, got {other:?}"),
            }
        }
        assert_eq!(client.recv(), None, "closed after Drained");
        assert_eq!(metrics, writer.join().unwrap(), "one Metrics per request");
        let stats = edge.shutdown();
        assert!(stats.write_pauses >= 1);
        assert_eq!(stats.drained_connections, 1);
    }

    #[test]
    fn client_to_server_direction_is_enforced() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Drained);
        match client.recv() {
            Some(Frame::Error { code, .. }) => assert_eq!(code, ERR_PROTOCOL_VIOLATION),
            other => panic!("expected protocol violation, got {other:?}"),
        }
        assert_eq!(client.recv(), None);
        edge.shutdown();
    }
}
