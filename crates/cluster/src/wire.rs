//! The one connection core: every TCP server in the workspace is a
//! [`Handler`] behind a [`Listener`], every TCP client a [`LineConn`], and
//! every frame leaves through [`write_line`].
//!
//! The paper's Controller "has a listener to receive and forward incoming
//! requests" and its Cluster Resource Collector speaks the same
//! newline-delimited JSON (§III-D, §III-F). What the three services —
//! controller, router, collector — share is therefore all here, once:
//! bind, the non-blocking accept loop and its shutdown flag, the
//! connection cap, socket options (`TCP_NODELAY`, the [`SHUTDOWN_POLL`]
//! read timeout), fault-plan wrapping by accept-order connection number,
//! the bounded polled frame reader, connection metrics, and the drain on
//! drop. A service sees **lines and a [`Writer`]**, never a socket.
//!
//! ## Metrics
//!
//! A listener registers, under its `metric_prefix`:
//! `{prefix}.connections_total`, `{prefix}.connections_shed` (counters),
//! `{prefix}.active_connections` (gauge — returns to zero as readers
//! exit, no accept traffic required), `{prefix}.disconnects` (connections
//! that ended in a transport or handler error) and
//! `{prefix}.oversize_frames`.

use crate::protocol::{read_line_bounded, LinePoll, LineReader, WireError, MAX_FRAME_BYTES};
use pddl_faults::{Direction, FaultPlan, FaultyRead, FaultyWrite};
use pddl_telemetry::{tlog, Counter, Gauge, Level};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often reader threads surface from a blocking read to poll the
/// shutdown flag (via a socket read timeout). Bounds drain latency; slow
/// enough that fault-plan read schedules advance only modestly on idle
/// connections.
pub const SHUTDOWN_POLL: Duration = Duration::from_millis(250);

/// How long the acceptor sleeps when there is nothing to accept (or
/// `accept` failed) before trying again.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Writes one frame: `line` and its newline in a **single** write, then a
/// flush. Two writes would put the newline in its own segment, which
/// Nagle's algorithm holds back until the peer's delayed ACK (~40 ms per
/// leg); under a fault plan, one write also makes one frame exactly one
/// fault operation.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// The write half of one served connection, shared between the reader
/// thread and whatever workers the handler hands replies to. Cloning is
/// cheap; each [`Writer::send`] is one whole frame under the lock, so
/// frames never interleave.
#[derive(Clone)]
pub struct Writer(Arc<Mutex<Box<dyn Write + Send>>>);

impl Writer {
    /// Sends one reply line (see [`write_line`]).
    pub fn send(&self, line: &str) -> std::io::Result<()> {
        // A writer that panicked mid-frame leaves at worst a torn frame on
        // a connection its peer will resynchronise or drop: poison is safe
        // to clear.
        let mut w = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        write_line(&mut *w, line)
    }
}

/// What a handler wants done with the connection after a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading frames.
    Continue,
    /// Close the connection (cleanly: not counted as a disconnect).
    Close,
}

/// One service behind a [`Listener`]: what to do with each frame, and the
/// two typed lines the listener sends on the service's behalf.
pub trait Handler: Send + Sync + 'static {
    /// Per-connection state, created and used on the connection's reader
    /// thread only.
    type Conn;

    /// A connection was admitted on the listener bound to `local`.
    fn open(&self, local: SocketAddr) -> Self::Conn;

    /// One complete, non-blank frame (newline stripped, at most
    /// [`MAX_FRAME_BYTES`]). Replies go through `out`, in any number. An
    /// `Err` closes the connection and counts a disconnect.
    fn frame(&self, conn: &mut Self::Conn, line: String, out: &Writer)
        -> std::io::Result<Flow>;

    /// The line a connection past the cap is answered with before it is
    /// closed.
    fn connection_limit_line(&self) -> String;

    /// The line an over-long frame is answered with (best effort) before
    /// the connection is closed — line sync is lost.
    fn frame_too_long_line(&self, limit: usize) -> String;
}

struct ConnMetrics {
    total: &'static Counter,
    shed: &'static Counter,
    active: &'static Gauge,
    disconnects: &'static Counter,
    oversize_frames: &'static Counter,
}

/// Everything the acceptor, the readers and the handle share.
struct Core {
    local: SocketAddr,
    prefix: &'static str,
    fault_plan: Option<FaultPlan>,
    metrics: ConnMetrics,
    shutdown: AtomicBool,
    /// Reader threads alive right now (racy: admission and telemetry).
    readers: AtomicUsize,
}

/// A running line server. Dropping the handle stops accepting, lets every
/// reader finish its in-flight frame (they notice within one
/// [`SHUTDOWN_POLL`]) and waits for them — without holding a `JoinHandle`
/// per connection: readers are scoped to the acceptor thread.
pub struct Listener {
    core: Arc<Core>,
    acceptor: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 = ephemeral) and serves `handler` on it: one
    /// acceptor thread, one reader thread per connection, at most
    /// `max_connections` of them — a connection past the cap gets
    /// [`Handler::connection_limit_line`] and is closed without a reader.
    /// Metrics and log lines go under `metric_prefix` (see the module
    /// docs). With a `fault_plan`, connection *n* (accept order, counting
    /// admitted connections from 0) wears `plan.schedule(n, _)` on both
    /// halves.
    pub fn serve<H: Handler>(
        addr: &str,
        max_connections: usize,
        metric_prefix: &'static str,
        fault_plan: Option<FaultPlan>,
        handler: H,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if let Some(plan) = &fault_plan {
            tlog!(Level::Warn, metric_prefix, "fault injection active", plan = plan.to_spec());
        }
        let name = |metric: &str| format!("{metric_prefix}.{metric}");
        let core = Arc::new(Core {
            local,
            prefix: metric_prefix,
            fault_plan,
            metrics: ConnMetrics {
                total: pddl_telemetry::counter(&name("connections_total")),
                shed: pddl_telemetry::counter(&name("connections_shed")),
                active: pddl_telemetry::gauge(&name("active_connections")),
                disconnects: pddl_telemetry::counter(&name("disconnects")),
                oversize_frames: pddl_telemetry::counter(&name("oversize_frames")),
            },
            shutdown: AtomicBool::new(false),
            readers: AtomicUsize::new(0),
        });
        let acceptor = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || accept_loop(&listener, max_connections, &core, &handler))
        };
        Ok(Self { core, acceptor: Some(acceptor) })
    }

    /// The bound address (for clients of an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.core.local
    }

    /// Reader threads currently attached to live connections.
    pub fn connections(&self) -> usize {
        self.core.readers.load(Ordering::Relaxed)
    }

    /// Stops accepting and waits out the readers (the acceptor returns
    /// once the last of them has). Idempotent; also what `Drop` does —
    /// call it explicitly when other teardown must happen after the last
    /// reader is gone.
    pub fn shutdown(&mut self) {
        self.core.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until shutdown. Readers are scoped threads borrowing `core` and
/// `handler`: the scope — and with it this function, and a join on the
/// acceptor — ends only when every reader has, panicked ones included.
fn accept_loop<H: Handler>(
    listener: &TcpListener,
    max_connections: usize,
    core: &Core,
    handler: &H,
) {
    let m = &core.metrics;
    let mut next_conn: u64 = 0;
    std::thread::scope(|readers| {
        while !core.shutdown.load(Ordering::Relaxed) {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) => {
                    // Only the shutdown flag ends this loop: an acceptor
                    // that quit on ECONNABORTED or EMFILE would leave a
                    // server that looks alive and answers nobody.
                    if e.kind() != std::io::ErrorKind::WouldBlock {
                        tlog!(Level::Warn, core.prefix, "accept failed", error = e.to_string());
                    }
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
            };
            m.total.inc();
            stream.set_nonblocking(false).ok();
            stream.set_nodelay(true).ok();
            if core.readers.load(Ordering::Relaxed) >= max_connections {
                // Connection-level shed: typed reply, close, no reader.
                m.shed.inc();
                let _ = write_line(&mut &stream, &handler.connection_limit_line());
                continue;
            }
            // Readers surface from blocking reads on this cadence to poll
            // the shutdown flag.
            stream.set_read_timeout(Some(SHUTDOWN_POLL)).ok();
            m.active.inc();
            core.readers.fetch_add(1, Ordering::Relaxed);
            tlog!(Level::Debug, core.prefix, "connection accepted", peer = peer.to_string());
            let conn = next_conn;
            next_conn += 1;
            readers.spawn(move || {
                if serve_conn(stream, conn, core, handler).is_err() {
                    // Mid-request disconnect or transport death: reap the
                    // connection, keep the service alive.
                    m.disconnects.inc();
                }
                m.active.dec();
                core.readers.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
}

/// One accepted socket, shared by the connection's read and write halves:
/// both go through `&TcpStream`, so a connection costs one descriptor (a
/// duplicated handle per connection would reach a 1,024-descriptor limit
/// at half the 1,024-connection cap). The socket closes when the last half
/// drops.
struct Shared(Arc<TcpStream>);

impl Read for Shared {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self.0).flush()
    }
}

/// Splits a stream into boxed read/write halves, wearing the fault plan's
/// injectors when one is active.
fn split_stream(
    stream: TcpStream,
    plan: Option<&FaultPlan>,
    conn: u64,
) -> (Box<dyn Read + Send>, Box<dyn Write + Send>) {
    let stream = Arc::new(stream);
    let (reader, writer) = (Shared(Arc::clone(&stream)), Shared(stream));
    match plan {
        Some(p) => (
            Box::new(FaultyRead::new(reader, p.schedule(conn, Direction::Read))),
            Box::new(FaultyWrite::new(writer, p.schedule(conn, Direction::Write))),
        ),
        None => (Box::new(reader), Box::new(writer)),
    }
}

/// One connection's reader: frames the byte stream and hands every
/// non-blank line to the handler. Returns on clean EOF, a handler's
/// [`Flow::Close`], an over-long frame, shutdown, or transport death.
fn serve_conn<H: Handler>(
    stream: TcpStream,
    conn: u64,
    core: &Core,
    handler: &H,
) -> std::io::Result<()> {
    let (reader, writer) = split_stream(stream, core.fault_plan.as_ref(), conn);
    let mut reader = BufReader::new(reader);
    let out = Writer(Arc::new(Mutex::new(writer)));
    let mut lines = LineReader::bounded(MAX_FRAME_BYTES);
    let mut state = handler.open(core.local);
    // Drain: the flag is checked between frames, never inside one.
    while !core.shutdown.load(Ordering::Relaxed) {
        let line = match lines.poll(&mut reader) {
            Ok(LinePoll::Line(line)) => line,
            Ok(LinePoll::Eof) => break,
            // The read timed out (SHUTDOWN_POLL): the partial frame is
            // kept, loop back to check the shutdown flag.
            Ok(LinePoll::Pending) => continue,
            Err(WireError::FrameTooLong { limit }) => {
                core.metrics.oversize_frames.inc();
                let _ = out.send(&handler.frame_too_long_line(limit));
                break;
            }
            // LineReader does not parse, so Malformed cannot occur here;
            // treat it like an over-long frame rather than panicking.
            Err(WireError::Malformed { .. }) => break,
            Err(WireError::Io(e)) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        if handler.frame(&mut state, line, &out)? == Flow::Close {
            break;
        }
    }
    Ok(())
}

/// The client side of a line connection: dial, set the socket up, then
/// send lines and read replies.
pub struct LineConn {
    // One socket: replies are read through the buffer, frames are written
    // through `&TcpStream` underneath it.
    stream: BufReader<TcpStream>,
}

impl LineConn {
    /// Dials `addr` — within `connect_timeout` when given, blocking
    /// otherwise — and applies `io_timeout` to every later read and write
    /// (`None` blocks indefinitely). `TCP_NODELAY` is always set: a frame
    /// is one write and must not wait for the peer's delayed ACK.
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Option<Duration>,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = match connect_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream: BufReader::new(stream) })
    }

    /// Sends one line (see [`write_line`]).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.stream.get_ref(), line)
    }

    /// Reads one reply line of any length, trailing whitespace stripped.
    /// A peer that closed without replying is `UnexpectedEof`.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        self.stream.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// Reads one reply line of at most `limit` bytes
    /// ([`read_line_bounded`]); `Ok(None)` on clean EOF.
    pub fn recv_bounded(&mut self, limit: usize) -> Result<Option<String>, WireError> {
        read_line_bounded(&mut self.stream, limit)
    }

    /// Sends `line` and reads the reply: [`Self::send`] then
    /// [`Self::recv`].
    pub fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;
    use std::time::Instant;

    /// Answers every frame with itself; `bye` also hangs up.
    struct Echo;

    impl Handler for Echo {
        type Conn = ();

        fn open(&self, _local: SocketAddr) {}

        fn frame(&self, _conn: &mut (), line: String, out: &Writer) -> std::io::Result<Flow> {
            out.send(&line)?;
            Ok(if line == "bye" { Flow::Close } else { Flow::Continue })
        }

        fn connection_limit_line(&self) -> String {
            "limit".into()
        }

        fn frame_too_long_line(&self, limit: usize) -> String {
            format!("too long: {limit}")
        }
    }

    /// An echo server under a metric prefix of the test's own, so the
    /// parallel tests of this module do not see each other's counts.
    fn echo(prefix: &'static str, cap: usize, plan: Option<FaultPlan>) -> Listener {
        Listener::serve("127.0.0.1:0", cap, prefix, plan, Echo).expect("bind")
    }

    fn dial(server: &Listener) -> LineConn {
        LineConn::connect(server.addr(), None, Some(Duration::from_secs(5))).expect("connect")
    }

    fn eof(conn: &mut LineConn) -> bool {
        conn.recv().is_err_and(|e| e.kind() == std::io::ErrorKind::UnexpectedEof)
    }

    #[test]
    fn connection_past_the_cap_reads_the_limit_line_then_eof() {
        let server = echo("wiretest.cap", 1, None);
        let mut first = dial(&server);
        assert_eq!(first.exchange("a").unwrap(), "a");
        let mut second = dial(&server);
        assert_eq!(second.recv().unwrap(), "limit");
        assert!(eof(&mut second));
        assert_eq!(pddl_telemetry::counter("wiretest.cap.connections_shed").get(), 1);
        assert_eq!(pddl_telemetry::counter("wiretest.cap.connections_total").get(), 2);
        assert_eq!(server.connections(), 1);
        // The admitted connection is untouched, and `Close` hangs up.
        assert_eq!(first.exchange("bye").unwrap(), "bye");
        assert!(eof(&mut first));
        assert_eq!(pddl_telemetry::counter("wiretest.cap.disconnects").get(), 0);
    }

    #[test]
    fn oversize_frame_gets_the_typed_line_then_eof_and_the_server_lives() {
        let server = echo("wiretest.oversize", 8, None);
        let mut hostile = dial(&server);
        // One byte past the bound and no newline: the reader has taken
        // every byte off the socket when the bound trips, so the close is
        // a clean FIN and the reply cannot be lost to a reset.
        hostile.stream.get_ref().write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).unwrap();
        assert_eq!(hostile.recv().unwrap(), format!("too long: {MAX_FRAME_BYTES}"));
        assert!(eof(&mut hostile));
        assert_eq!(pddl_telemetry::counter("wiretest.oversize.oversize_frames").get(), 1);
        assert_eq!(dial(&server).exchange("still here").unwrap(), "still here");
    }

    #[test]
    fn blank_lines_are_skipped_and_a_frame_split_across_a_poll_arrives_whole() {
        let server = echo("wiretest.frames", 8, None);
        let mut conn = dial(&server);
        let mut raw = conn.stream.get_ref();
        raw.write_all(b"\n   \n\r\nhel").unwrap();
        // Longer than one SHUTDOWN_POLL: the reader times out holding
        // "hel" and must keep it.
        std::thread::sleep(SHUTDOWN_POLL + Duration::from_millis(50));
        raw.write_all(b"lo\n").unwrap();
        assert_eq!(conn.recv().unwrap(), "hello");
    }

    #[test]
    fn drop_with_an_idle_client_attached_returns_within_two_polls() {
        let server = echo("wiretest.drain", 8, None);
        let mut idle = dial(&server);
        assert_eq!(idle.exchange("x").unwrap(), "x");
        let active = pddl_telemetry::gauge("wiretest.drain.active_connections");
        assert_eq!(active.get(), 1);
        let t0 = Instant::now();
        drop(server);
        assert!(t0.elapsed() < 2 * SHUTDOWN_POLL, "drop waited {:?}", t0.elapsed());
        assert_eq!(active.get(), 0);
        assert!(eof(&mut idle));
    }

    #[test]
    fn connection_n_wears_the_plans_schedule_n() {
        // Dropped writes only: a swallowed reply is observable from the
        // client, and reads (which `drop` does not apply to) stay clean.
        let plan = FaultPlan {
            seed: 0x5EED,
            p_delay: 0.0,
            p_reset: 0.0,
            p_truncate: 0.0,
            p_garbage: 0.0,
            p_drop: 0.4,
            ..FaultPlan::default()
        };
        let server = echo("wiretest.plan", 8, Some(plan));
        // Dialled one after the other, so accepted in this order.
        let conns = [dial(&server), dial(&server)];
        let lines: Vec<String> = (0..64).map(|i| format!("frame-{i}")).collect();
        let mut survivors = Vec::new();
        for (n, mut conn) in conns.into_iter().enumerate() {
            for line in &lines {
                conn.send(line).unwrap();
            }
            conn.stream.get_ref().shutdown(Shutdown::Write).unwrap();
            let mut got = Vec::new();
            while let Ok(reply) = conn.recv() {
                got.push(reply);
            }
            // What the schedule does to the same 64 replies, off the wire:
            // every logged event is a dropped write, `op` says which.
            let schedule = plan.schedule(n as u64, Direction::Write);
            let mut replay = FaultyWrite::new(Vec::new(), schedule);
            for line in &lines {
                write_line(&mut replay, line).unwrap();
            }
            let dropped: Vec<u64> = replay.log().iter().map(|event| event.op).collect();
            let want: Vec<&String> = (0u64..)
                .zip(&lines)
                .filter(|(op, _)| !dropped.contains(op))
                .map(|(_, line)| line)
                .collect();
            assert_eq!(got.iter().collect::<Vec<_>>(), want, "connection {n}");
            survivors.push(got);
        }
        assert!(survivors.iter().all(|got| got.len() < lines.len()), "the plan injected nothing");
        assert_ne!(survivors[0], survivors[1], "both connections wore the same schedule");
    }

    #[test]
    fn exchange_with_a_peer_that_closes_without_replying_is_unexpected_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(stream).read_line(&mut request).unwrap();
            request
        });
        let mut conn = LineConn::connect(addr, Some(Duration::from_secs(5)), None).unwrap();
        let err = conn.exchange("anyone?").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(peer.join().unwrap(), "anyone?\n");
    }
}
