//! The one connection core: every TCP server in the workspace is a
//! [`Handler`] behind a [`Listener`], every TCP client a [`LineConn`],
//! every frame leaves through [`write_line`] and arrives through a
//! [`LineReader`].
//!
//! The paper's Controller "has a listener to receive and forward incoming
//! requests" (§III-D). What the two services — controller and router — and
//! their clients share is therefore all here, once: bind, the non-blocking
//! accept loop and its shutdown flag, the connection cap, socket options
//! (`TCP_NODELAY`, the [`SHUTDOWN_POLL`] read timeout), fault-plan wrapping
//! by accept-order connection number, the bounded polled frame reader (both
//! directions: a server's requests and a client's replies are cut off at
//! [`MAX_FRAME_BYTES`]), connection metrics, and the drain on drop. A
//! service sees **lines and a [`Writer`]**, never a socket.
//!
//! ## Metrics
//!
//! A listener registers, under its `metric_prefix`:
//! `{prefix}.connections_total`, `{prefix}.connections_shed` (counters),
//! `{prefix}.active_connections` (gauge — returns to zero as readers
//! exit, no accept traffic required), `{prefix}.disconnects` (connections
//! that ended in a transport or handler error) and
//! `{prefix}.oversize_frames`.

use pddl_faults::{Direction, FaultPlan, FaultyRead, FaultyWrite};
use pddl_telemetry::{tlog, Counter, Gauge, Level};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
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

/// Upper bound on a single wire frame (one JSON line, newline excluded),
/// in both directions. A peer that never sends a newline can buffer at
/// most this much before the read fails with [`WireError::FrameTooLong`].
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Structured frame-read failures, so callers can tell a hostile frame
/// from a dead transport.
#[derive(Debug)]
pub enum WireError {
    /// The frame exceeded the length bound before a newline was seen. The
    /// connection is no longer line-synchronized and should be closed.
    FrameTooLong {
        /// The bound that was exceeded.
        limit: usize,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { limit } => {
                write!(f, "wire frame exceeds {limit} bytes without a newline")
            }
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => io,
            too_long => std::io::Error::new(ErrorKind::InvalidData, too_long.to_string()),
        }
    }
}

/// One step of a [`LineReader`] poll.
#[derive(Debug, PartialEq, Eq)]
pub enum LinePoll {
    /// A complete newline-terminated line (newline stripped), or a final
    /// unterminated line at EOF.
    Line(String),
    /// Clean EOF with no buffered bytes.
    Eof,
    /// The read timed out (`WouldBlock` / `TimedOut`) with no complete
    /// line yet. Partial bytes stay buffered; call [`LineReader::poll`]
    /// again.
    Pending,
}

/// The one frame reader: a resumable, bounded line reader for sockets
/// with read timeouts. Every server connection and every [`LineConn`]
/// reads through one.
///
/// The partial frame lives in the reader, not on the caller's stack, so
/// a timed-out read — routine on a socket with `set_read_timeout`, where
/// the serving core's reader threads use it to poll the shutdown flag —
/// loses nothing: it returns [`LinePoll::Pending`] and the next poll
/// resumes where it left off. A peer that never sends a newline fails
/// with [`WireError::FrameTooLong`] once `limit` bytes are buffered.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    limit: usize,
}

impl LineReader {
    /// A reader that bounds each line at `limit` bytes (newline excluded).
    pub fn bounded(limit: usize) -> Self {
        Self { buf: Vec::new(), limit }
    }

    /// Attempts to complete one line from `r`. A timed-out read
    /// (`WouldBlock`, `TimedOut`) yields [`LinePoll::Pending`] with the
    /// partial frame retained, an `Interrupted` one is retried; other I/O
    /// errors are fatal.
    ///
    /// A frame that is not UTF-8 cannot be JSON: it comes back as the
    /// one-character line U+FFFD, which every parser rejects, so
    /// corruption surfaces as a malformed frame rather than killing the
    /// connection — and, unlike a lossy decode (three bytes out per bad
    /// byte in), the line a parser sees never outgrows the bound.
    pub fn poll(&mut self, r: &mut impl BufRead) -> Result<LinePoll, WireError> {
        loop {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) => match e.kind() {
                    ErrorKind::Interrupted => continue,
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => return Ok(LinePoll::Pending),
                    _ => return Err(WireError::Io(e)),
                },
            };
            if chunk.is_empty() {
                return Ok(if self.buf.is_empty() { LinePoll::Eof } else { self.take_line() });
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let n = newline.unwrap_or(chunk.len());
            if self.buf.len().saturating_add(n) > self.limit {
                return Err(WireError::FrameTooLong { limit: self.limit });
            }
            self.buf.extend_from_slice(&chunk[..n]);
            r.consume(n + usize::from(newline.is_some()));
            if newline.is_some() {
                return Ok(self.take_line());
            }
        }
    }

    fn take_line(&mut self) -> LinePoll {
        let frame = std::mem::take(&mut self.buf);
        LinePoll::Line(
            String::from_utf8(frame).unwrap_or_else(|_| char::REPLACEMENT_CHARACTER.to_string()),
        )
    }
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
    fn frame(&self, conn: &mut Self::Conn, line: String, out: &Writer) -> std::io::Result<()>;

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
                    if e.kind() != ErrorKind::WouldBlock {
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
            let slot = ReaderSlot::check_in(core);
            tlog!(Level::Debug, core.prefix, "connection accepted", peer = peer.to_string());
            let conn = next_conn;
            next_conn += 1;
            readers.spawn(move || {
                let _slot = slot;
                if serve_conn(stream, conn, core, handler).is_err() {
                    // Mid-request disconnect or transport death: reap the
                    // connection, keep the service alive.
                    m.disconnects.inc();
                }
            });
        }
    });
}

/// A reader's place in the connection count, given back when the reader
/// exits however it exits: a handler that panics must not hold one of the
/// `max_connections` slots for good.
struct ReaderSlot<'a>(&'a Core);

impl<'a> ReaderSlot<'a> {
    fn check_in(core: &'a Core) -> Self {
        core.metrics.active.inc();
        core.readers.fetch_add(1, Ordering::Relaxed);
        Self(core)
    }
}

impl Drop for ReaderSlot<'_> {
    fn drop(&mut self) {
        self.0.metrics.active.dec();
        self.0.readers.fetch_sub(1, Ordering::Relaxed);
    }
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
/// error, an over-long frame, shutdown, or transport death.
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
            Err(WireError::Io(e)) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        handler.frame(&mut state, line, &out)?;
    }
    Ok(())
}

/// The client side of a line connection: dial, set the socket up, then
/// send lines and read replies — bounded at [`MAX_FRAME_BYTES`] like the
/// requests a server reads.
pub struct LineConn {
    // One socket: replies are read through the buffer, frames are written
    // through `&TcpStream` underneath it.
    stream: BufReader<TcpStream>,
    replies: LineReader,
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
        let replies = LineReader::bounded(MAX_FRAME_BYTES);
        Ok(Self { stream: BufReader::new(stream), replies })
    }

    /// Sends one line (see [`write_line`]).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.stream.get_ref(), line)
    }

    /// Reads one reply line, trailing whitespace stripped. A peer that
    /// closed without replying is `UnexpectedEof`, a read past the
    /// `io_timeout` `TimedOut`, and a reply longer than
    /// [`MAX_FRAME_BYTES`] `InvalidData` — it is cut off, not buffered.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let (kind, what) = match self.replies.poll(&mut self.stream)? {
            LinePoll::Line(mut reply) => {
                reply.truncate(reply.trim_end().len());
                return Ok(reply);
            }
            LinePoll::Eof => (ErrorKind::UnexpectedEof, "peer closed connection"),
            LinePoll::Pending => (ErrorKind::TimedOut, "reply timed out"),
        };
        Err(std::io::Error::new(kind, what))
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

    /// Answers every frame with itself.
    struct Echo;

    impl Handler for Echo {
        type Conn = ();

        fn open(&self, _local: SocketAddr) {}

        fn frame(&self, _conn: &mut (), line: String, out: &Writer) -> std::io::Result<()> {
            out.send(&line)
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
        // The admitted connection is untouched.
        assert_eq!(first.exchange("b").unwrap(), "b");
        assert_eq!(pddl_telemetry::counter("wiretest.cap.disconnects").get(), 0);
    }

    /// Echoes every frame but `boom`, on which it panics.
    struct Fragile;

    impl Handler for Fragile {
        type Conn = ();

        fn open(&self, _local: SocketAddr) {}

        fn frame(&self, _conn: &mut (), line: String, out: &Writer) -> std::io::Result<()> {
            if line == "boom" {
                panic!("handler panics on boom");
            }
            out.send(&line)
        }

        fn connection_limit_line(&self) -> String {
            "limit".into()
        }

        fn frame_too_long_line(&self, limit: usize) -> String {
            format!("too long: {limit}")
        }
    }

    #[test]
    fn a_panicking_reader_gives_its_connection_slot_back() {
        let server =
            Listener::serve("127.0.0.1:0", 2, "wiretest.panic", None, Fragile).expect("bind");
        let active = pddl_telemetry::gauge("wiretest.panic.active_connections");
        let deadline = Instant::now() + Duration::from_secs(5);
        // More panicking connections than the cap, one after another: each
        // must be admitted (hung up on, not shed) and checked out again.
        for _ in 0..3 {
            let mut conn = dial(&server);
            conn.send("boom").unwrap();
            assert!(eof(&mut conn), "a panicking connection must be admitted, then closed");
            while server.connections() > 0 {
                assert!(Instant::now() < deadline, "the panicked reader never checked out");
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(active.get(), 0);
        }
        assert_eq!(dial(&server).exchange("still here").unwrap(), "still here");
        assert_eq!(pddl_telemetry::counter("wiretest.panic.connections_shed").get(), 0);
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
    fn replies_are_bounded_like_requests() {
        // A reply of exactly the bound arrives (the echo server reads the
        // request under the same bound)...
        let server = echo("wiretest.replies", 8, None);
        let longest = "y".repeat(MAX_FRAME_BYTES);
        assert_eq!(dial(&server).exchange(&longest).unwrap(), longest);
        // ...one byte more with no newline is refused, not buffered: the
        // peer keeps the connection open, so only the bound can end the
        // read before the 5 s timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).unwrap();
            // Hold the socket until the client hangs up.
            let _ = stream.read_to_end(&mut Vec::new());
        });
        let mut conn = LineConn::connect(addr, None, Some(Duration::from_secs(5))).unwrap();
        let t0 = Instant::now();
        let err = conn.recv().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(t0.elapsed() < Duration::from_secs(4), "the bound did not end the read");
        drop(conn);
        peer.join().unwrap();
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

    /// Every line `lr` polls out of `r` until EOF, riding out `Pending`s.
    fn poll_all(
        lr: &mut LineReader,
        r: &mut impl BufRead,
    ) -> Result<Vec<String>, WireError> {
        let mut lines = Vec::new();
        loop {
            match lr.poll(r)? {
                LinePoll::Line(l) => lines.push(l),
                LinePoll::Eof => return Ok(lines),
                LinePoll::Pending => continue,
            }
        }
    }

    #[test]
    fn overlong_frame_rejected_with_structured_error() {
        // A "peer" that drips bytes without ever sending a newline must be
        // cut off at the bound, not buffered indefinitely.
        let mut r = BufReader::with_capacity(64, std::io::Cursor::new(vec![b'x'; 4096]));
        let got = LineReader::bounded(1024).poll(&mut r);
        assert!(matches!(got, Err(WireError::FrameTooLong { limit: 1024 })), "{got:?}");
    }

    #[test]
    fn frame_at_limit_is_accepted() {
        let mut r = BufReader::with_capacity(3, &b"aaaaaaaa\nbbbbbbbbb\n"[..]);
        let mut lr = LineReader::bounded(8);
        assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Line("aaaaaaaa".into()));
        assert!(matches!(lr.poll(&mut r), Err(WireError::FrameTooLong { limit: 8 })));
    }

    #[test]
    fn non_utf8_frame_never_outgrows_the_bound() {
        // Lossy decoding would hand the parser 3x the wire bytes.
        let mut bytes = vec![0xffu8; 600];
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xfe; 600]);
        let mut r = BufReader::with_capacity(64, bytes.as_slice());
        let lines = poll_all(&mut LineReader::bounded(1024), &mut r).unwrap();
        assert_eq!(lines, ["\u{fffd}", "\u{fffd}"]);
    }

    /// Fails every other `fill_buf` with `WouldBlock`, like a socket whose
    /// read timeout keeps firing mid-frame; the wrapped reader's capacity
    /// sets the chunk size. (`tests/wire_fuzz.rs` drives the same shape
    /// with fuzzed bytes.)
    struct Choppy<R> {
        inner: R,
        block: bool,
    }

    impl<R: BufRead> Read for Choppy<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl<R: BufRead> BufRead for Choppy<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.block = !self.block;
            if self.block {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt);
        }
    }

    fn choppy(data: &[u8], chunk: usize) -> Choppy<BufReader<&[u8]>> {
        Choppy { inner: BufReader::with_capacity(chunk, data), block: false }
    }

    #[test]
    fn line_reader_survives_wouldblock_mid_frame() {
        // A reader that kept the partial frame on its stack would lose it
        // at each timeout; LineReader hands back the lines an untimed read
        // does.
        let mut r = choppy(b"hello world\nsecond line\n", 4);
        let lines = poll_all(&mut LineReader::bounded(1024), &mut r).unwrap();
        assert_eq!(lines, ["hello world", "second line"]);
    }

    #[test]
    fn line_reader_enforces_limit_across_polls() {
        let mut r = choppy(&[b'x'; 256], 16);
        let err = poll_all(&mut LineReader::bounded(64), &mut r).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLong { limit: 64 }), "{err:?}");
    }

    #[test]
    fn line_reader_final_unterminated_line_at_eof() {
        let mut r = BufReader::new(&b"tail without newline"[..]);
        let mut lr = LineReader::bounded(1024);
        assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Line("tail without newline".into()));
        assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Eof);
    }
}
