//! The Cluster Resource Collector (§III-F).
//!
//! "This component leverages a client-server architecture ... The Cluster
//! Resource Collector maintains one thread open for new connections to the
//! cluster and launches a pool of threads to collect details about available
//! compute and memory resources."
//!
//! [`CollectorServer`] runs a [`Handler`] behind the shared [`Listener`]
//! ([`crate::wire`]): one accept thread, one collector thread per joined
//! server (heartbeat connections are long-lived, so a fixed-size pool
//! would starve once the cluster outgrew it; the paper's pool likewise
//! scales with the servers being collected from), capped at 1,024
//! connections and awaited when the handle drops. Collector threads parse
//! JSON-line messages and update a shared inventory behind a
//! `std::sync::RwLock` (a guard poisoned by a panicking collector
//! thread is recovered, not propagated: one bad connection must not take
//! the inventory down). [`CollectorServer::snapshot`] produces
//! the [`ClusterState`] consumed by the Inference Engine.
//!
//! ## Degradation & chaos
//!
//! A malformed or over-long frame earns the peer an error reply (and, for
//! over-long frames, a closed connection) — never a dead collector thread.
//! Servers whose heartbeats lapse beyond the stale window keep serving
//! last-known-good specs from [`CollectorServer::snapshot`], flagged
//! [`ServerStatus::stale`], instead of erroring. A collector bound with a
//! fault plan (see `pddl-faults`) wraps every accepted connection in
//! deterministic fault injectors, so integration tests run identical
//! chaos schedules.

use crate::protocol::{ClientMsg, ServerMsg, WireError, MAX_FRAME_BYTES};
use crate::retry::{is_transient, Backoff, RetryPolicy};
use crate::spec::ServerSpec;
use crate::state::{ClusterState, ServerStatus};
use crate::wire::{Flow, Handler, LineConn, Listener, Writer};
use pddl_faults::FaultPlan;
use pddl_telemetry::json;
use pddl_telemetry::trace::{flight_recorder, stages};
use pddl_telemetry::{tlog, Counter, Gauge, Histogram, Level, SpanStatus, TraceContext};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// One registered server plus collector-side bookkeeping that must not
/// travel over the wire (liveness is an `Instant`, not data).
struct Entry {
    status: ServerStatus,
    last_seen: Instant,
}

#[derive(Default)]
struct Inventory {
    servers: HashMap<String, Entry>,
}

/// Collector metric handles, resolved once (heartbeat-path updates stay
/// lock-free). The connection metrics are the listener's.
struct Metrics {
    heartbeats: &'static Counter,
    registrations: &'static Counter,
    leaves: &'static Counter,
    rejected_msgs: &'static Counter,
    servers_joined: &'static Gauge,
    stale_servers: &'static Gauge,
    lock_wait: &'static Histogram,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        heartbeats: pddl_telemetry::counter("collector.heartbeats"),
        registrations: pddl_telemetry::counter("collector.registrations"),
        leaves: pddl_telemetry::counter("collector.leaves"),
        rejected_msgs: pddl_telemetry::counter("collector.rejected_msgs"),
        servers_joined: pddl_telemetry::gauge("collector.servers_joined"),
        stale_servers: pddl_telemetry::gauge("collector.stale_servers"),
        lock_wait: pddl_telemetry::histogram("collector.inventory_lock_wait"),
    })
}

/// Acquires the inventory write lock, recording the wait in the
/// `collector.inventory_lock_wait` histogram (nanoseconds).
fn write_inventory<'a>(
    inv: &'a RwLock<Inventory>,
    m: &Metrics,
) -> RwLockWriteGuard<'a, Inventory> {
    let t0 = Instant::now();
    let guard = inv.write().unwrap_or_else(PoisonError::into_inner);
    m.lock_wait.record_duration(t0.elapsed());
    guard
}

/// Heartbeat-lapse window after which a server's snapshot entry is flagged
/// stale (last-known-good data, not live).
pub const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(30);

/// Simultaneously connected servers a collector admits — the same cap the
/// controller and the router default to. A connection past it is answered
/// with a [`ServerMsg::Error`] and closed.
const MAX_CONNECTIONS: usize = 1024;

/// The collector service handle. Dropping it shuts the service down: no
/// new connections, and every collector thread is waited out.
pub struct CollectorServer {
    inventory: Arc<RwLock<Inventory>>,
    stale_after_ms: AtomicU64,
    listener: Listener,
}

impl CollectorServer {
    /// Binds to `addr` (use port 0 for an ephemeral port). With a
    /// `fault_plan`, every accepted connection is wrapped in that plan's
    /// deterministic fault injectors.
    pub fn bind(addr: &str, fault_plan: Option<FaultPlan>) -> std::io::Result<Self> {
        Self::bind_capped(addr, fault_plan, MAX_CONNECTIONS)
    }

    fn bind_capped(
        addr: &str,
        fault_plan: Option<FaultPlan>,
        max_connections: usize,
    ) -> std::io::Result<Self> {
        let inventory = Arc::new(RwLock::new(Inventory::default()));
        let handler = Collecting { inventory: Arc::clone(&inventory) };
        let listener = Listener::serve(addr, max_connections, "collector", fault_plan, handler)?;
        Ok(Self {
            inventory,
            stale_after_ms: AtomicU64::new(DEFAULT_STALE_AFTER.as_millis() as u64),
            listener,
        })
    }

    /// The bound address (for clients connecting to an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Overrides the heartbeat-lapse window after which snapshot entries
    /// are flagged stale (default [`DEFAULT_STALE_AFTER`]).
    pub fn set_stale_after(&self, window: Duration) {
        self.stale_after_ms
            .store(window.as_millis().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Number of currently registered servers (live or stale).
    pub fn num_registered(&self) -> usize {
        self.inventory.read().unwrap_or_else(PoisonError::into_inner).servers.len()
    }

    /// Current cluster snapshot, hostname-sorted for determinism. Servers
    /// whose heartbeats have lapsed beyond the stale window are served with
    /// last-known-good data and [`ServerStatus::stale`] set — degraded, not
    /// dropped. The live stale count is exported as
    /// `collector.stale_servers`.
    pub fn snapshot(&self) -> ClusterState {
        let stale_after =
            Duration::from_millis(self.stale_after_ms.load(Ordering::Relaxed));
        let now = Instant::now();
        let inv = self.inventory.read().unwrap_or_else(PoisonError::into_inner);
        let mut stale = 0i64;
        let mut servers: Vec<ServerStatus> = inv
            .servers
            .values()
            .map(|e| {
                let mut status = e.status.clone();
                status.stale = now.saturating_duration_since(e.last_seen) > stale_after;
                if status.stale {
                    stale += 1;
                }
                status
            })
            .collect();
        drop(inv);
        metrics().stale_servers.set(stale);
        servers.sort_by(|a, b| a.spec.hostname.cmp(&b.spec.hostname));
        ClusterState { servers }
    }
}

/// Renders one reply. A [`ServerMsg`] holds no floats, so it always
/// encodes.
fn line(msg: &ServerMsg) -> String {
    json::to_string(msg).expect("a ServerMsg holds only strings")
}

/// The collector as a [`Handler`]: every frame is one [`ClientMsg`]
/// against the shared inventory.
struct Collecting {
    inventory: Arc<RwLock<Inventory>>,
}

impl Handler for Collecting {
    type Conn = ();

    fn open(&self, _local: SocketAddr) {}

    fn frame(&self, _conn: &mut (), frame: String, out: &Writer) -> std::io::Result<Flow> {
        let m = metrics();
        let inv = &self.inventory;
        let msg = match json::from_str::<ClientMsg>(frame.trim_end()) {
            Ok(msg) => msg,
            Err(e) => {
                // The stream is still line-synchronized: reply and go on.
                m.rejected_msgs.inc();
                out.send(&line(&ServerMsg::Error { reason: format!("malformed frame: {e}") }))?;
                return Ok(Flow::Continue);
            }
        };
        match msg {
            ClientMsg::Register { spec } => {
                let hostname = spec.hostname.clone();
                let mut guard = write_inventory(inv, m);
                guard.servers.insert(
                    spec.hostname.clone(),
                    Entry { status: ServerStatus::idle(spec), last_seen: Instant::now() },
                );
                let joined = guard.servers.len();
                drop(guard);
                m.registrations.inc();
                m.servers_joined.set(joined as i64);
                tlog!(Level::Info, "collector", "server joined", hostname = hostname, joined = joined);
                out.send(&line(&ServerMsg::Ack))?;
            }
            ClientMsg::Heartbeat { hostname, cpu_util, gpus_busy } => {
                let mut guard = write_inventory(inv, m);
                match guard.servers.get_mut(&hostname) {
                    Some(entry) if (0.0..=1.0).contains(&cpu_util) => {
                        entry.status.cpu_util = cpu_util;
                        entry.status.gpus_busy = gpus_busy.min(entry.status.spec.gpus);
                        entry.last_seen = Instant::now();
                        drop(guard);
                        m.heartbeats.inc();
                        tlog!(
                            Level::Trace,
                            "collector.heartbeat",
                            "heartbeat",
                            hostname = hostname,
                            cpu_util = cpu_util,
                        );
                        out.send(&line(&ServerMsg::Ack))?;
                    }
                    Some(_) => {
                        drop(guard);
                        m.rejected_msgs.inc();
                        let reason = "utilization out of [0,1]".into();
                        out.send(&line(&ServerMsg::Error { reason }))?;
                    }
                    None => {
                        drop(guard);
                        m.rejected_msgs.inc();
                        let reason = format!("unknown host {hostname}");
                        out.send(&line(&ServerMsg::Error { reason }))?;
                    }
                }
            }
            ClientMsg::Leave { hostname } => {
                let mut guard = write_inventory(inv, m);
                guard.servers.remove(&hostname);
                let joined = guard.servers.len();
                drop(guard);
                m.leaves.inc();
                m.servers_joined.set(joined as i64);
                tlog!(Level::Info, "collector", "server left", hostname = hostname, joined = joined);
                out.send(&line(&ServerMsg::Ack))?;
                return Ok(Flow::Close);
            }
        }
        // A connection that ends without Leave keeps its entry (the paper's
        // collector treats missing heartbeats as stale data, not departure).
        Ok(Flow::Continue)
    }

    fn connection_limit_line(&self) -> String {
        line(&ServerMsg::Error { reason: "connection limit reached".into() })
    }

    fn frame_too_long_line(&self, limit: usize) -> String {
        line(&ServerMsg::Error { reason: WireError::FrameTooLong { limit }.to_string() })
    }
}

/// Client-side metric handles.
struct ClientMetrics {
    retries: &'static Counter,
    reconnects: &'static Counter,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ClientMetrics {
        retries: pddl_telemetry::counter("collector_client.retries"),
        reconnects: pddl_telemetry::counter("collector_client.reconnects"),
    })
}

/// Client half: runs on each cluster node and reports to the collector.
pub struct CollectorClient {
    conn: LineConn,
    spec: ServerSpec,
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
    exchanges: u64,
}

impl CollectorClient {
    /// Connects and registers the given spec. No retries: a transport
    /// failure surfaces immediately (see [`Self::register_with_retry`]).
    pub fn register(addr: SocketAddr, spec: ServerSpec) -> std::io::Result<Self> {
        Self::connect(addr, spec, None)
    }

    /// Connects and registers under `policy`: capped jittered exponential
    /// backoff across attempts, with the policy's per-attempt deadline on
    /// connect, reads, and writes. Subsequent [`Self::heartbeat`]s
    /// reconnect and re-register under the same policy when the transport
    /// fails mid-stream.
    pub fn register_with_retry(
        addr: SocketAddr,
        spec: ServerSpec,
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let mut backoff = Backoff::new(policy);
        loop {
            match Self::connect(addr, spec.clone(), Some(policy)) {
                Ok(client) => return Ok(client),
                Err(e) if is_transient(&e) => match backoff.next_delay() {
                    Some(delay) => {
                        client_metrics().retries.inc();
                        std::thread::sleep(delay);
                    }
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: dial, then register on the fresh connection.
    fn connect(
        addr: SocketAddr,
        spec: ServerSpec,
        retry: Option<RetryPolicy>,
    ) -> std::io::Result<Self> {
        let mut client = Self { conn: Self::dial(addr, retry)?, spec, addr, retry, exchanges: 0 };
        client.send_register()?;
        Ok(client)
    }

    /// Dials the collector with the policy's per-attempt deadline on
    /// connect, reads and writes (no deadlines without a policy).
    fn dial(addr: SocketAddr, retry: Option<RetryPolicy>) -> std::io::Result<LineConn> {
        let timeout = retry.map(|policy| policy.attempt_timeout);
        LineConn::connect(addr, timeout, timeout)
    }

    /// Records one collector wire exchange as a `collect` span. All of a
    /// node's exchanges share one trace id (derived from the hostname),
    /// so the flight recorder shows a node's register/heartbeat cadence
    /// as a single trace; each exchange is a distinct child span.
    fn record_collect(&mut self, t0: Instant, ok: bool) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.spec.hostname.hash(&mut h);
        let ctx = TraceContext::root(h.finish());
        self.exchanges += 1;
        let rec = flight_recorder();
        let el = t0.elapsed();
        let start = rec.now_us().saturating_sub(el.as_micros() as u64);
        let status = if ok { SpanStatus::Ok } else { SpanStatus::Error };
        rec.record_span(ctx.child(self.exchanges), stages::COLLECT, start, el, status);
    }

    /// One wire exchange — `msg` out, the collector's verdict back —
    /// recorded as a `collect` span.
    fn exchange(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        let t0 = Instant::now();
        let out = json::to_string(msg)
            .map_err(std::io::Error::from)
            .and_then(|frame| self.conn.send(&frame))
            .and_then(|()| self.expect_ack());
        self.record_collect(t0, out.is_ok());
        out
    }

    fn send_register(&mut self) -> std::io::Result<()> {
        self.exchange(&ClientMsg::Register { spec: self.spec.clone() })
    }

    /// Sends a load report. Under a retry policy, transport failures
    /// (resets, timeouts, EOF) trigger reconnect + re-register + resend
    /// with backoff; heartbeats are idempotent (last-write-wins), so a
    /// retried report cannot corrupt the inventory. Semantic rejections
    /// (the collector's `Error` reply) are returned without retry.
    pub fn heartbeat(&mut self, cpu_util: f64, gpus_busy: usize) -> std::io::Result<()> {
        let mut backoff = self.retry.map(Backoff::new);
        loop {
            let hostname = self.spec.hostname.clone();
            match self.exchange(&ClientMsg::Heartbeat { hostname, cpu_util, gpus_busy }) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) => {
                    let delay = match backoff.as_mut().and_then(Backoff::next_delay) {
                        Some(d) => d,
                        None => return Err(e),
                    };
                    client_metrics().retries.inc();
                    std::thread::sleep(delay);
                    if self.reconnect().is_ok() {
                        client_metrics().reconnects.inc();
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-dials the collector and re-registers on the fresh connection.
    fn reconnect(&mut self) -> std::io::Result<()> {
        self.conn = Self::dial(self.addr, self.retry)?;
        self.send_register()
    }

    /// Gracefully leaves the cluster.
    pub fn leave(mut self) -> std::io::Result<()> {
        self.exchange(&ClientMsg::Leave { hostname: self.spec.hostname.clone() })
    }

    fn expect_ack(&mut self) -> std::io::Result<()> {
        let Some(reply) = self.conn.recv_bounded(MAX_FRAME_BYTES)? else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "collector closed connection",
            ));
        };
        match json::from_str(reply.trim_end()) {
            Ok(ServerMsg::Ack) => Ok(()),
            Ok(ServerMsg::Error { reason }) => {
                Err(std::io::Error::new(std::io::ErrorKind::InvalidData, reason))
            }
            // A reply frame torn or corrupted in transit is a transport
            // failure, not the collector's verdict: the stream can no
            // longer be trusted, so surface it as a (transient) abort and
            // let the retry loop reconnect — `InvalidData` stays reserved
            // for the collector's own `Error` reply above.
            Err(e) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                format!("collector reply corrupted in transit: {e}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_msg, write_msg};
    use crate::spec::ServerClass;
    use crate::wire::SHUTDOWN_POLL;
    use std::io::{BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    fn spec(name: &str, class: ServerClass) -> ServerSpec {
        ServerSpec::preset(class, name)
    }

    #[test]
    fn register_and_snapshot() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let c1 = CollectorClient::register(server.addr(), spec("a", ServerClass::GpuP100)).unwrap();
        let c2 = CollectorClient::register(server.addr(), spec("b", ServerClass::CpuE5_2630)).unwrap();
        let snap = server.snapshot();
        assert_eq!(snap.num_servers(), 2);
        assert_eq!(snap.servers[0].spec.hostname, "a");
        assert!(snap.servers.iter().all(|s| !s.stale));
        drop((c1, c2));
    }

    #[test]
    fn heartbeat_updates_utilization() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let mut c = CollectorClient::register(server.addr(), spec("n", ServerClass::CpuE5_2650)).unwrap();
        c.heartbeat(0.4, 0).unwrap();
        let snap = server.snapshot();
        assert!((snap.servers[0].cpu_util - 0.4).abs() < 1e-9);
    }

    #[test]
    fn leave_removes_server() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let c = CollectorClient::register(server.addr(), spec("n", ServerClass::CpuE5_2650)).unwrap();
        assert_eq!(server.num_registered(), 1);
        c.leave().unwrap();
        // The worker processes Leave synchronously before acking, so the
        // inventory is already updated.
        assert_eq!(server.num_registered(), 0);
    }

    #[test]
    fn invalid_heartbeat_rejected() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let mut c = CollectorClient::register(server.addr(), spec("n", ServerClass::GpuP100)).unwrap();
        let err = c.heartbeat(2.0, 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn abrupt_disconnect_keeps_entry() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        {
            let _c = CollectorClient::register(server.addr(), spec("n", ServerClass::GpuP100)).unwrap();
            // dropped without leave()
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(server.num_registered(), 1);
    }

    #[test]
    fn lapsed_heartbeats_flag_stale_but_keep_serving() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        server.set_stale_after(Duration::from_millis(30));
        let mut c = CollectorClient::register(server.addr(), spec("n", ServerClass::GpuP100)).unwrap();
        c.heartbeat(0.2, 1).unwrap();
        assert!(!server.snapshot().servers[0].stale, "fresh heartbeat flagged stale");
        std::thread::sleep(Duration::from_millis(80));
        let snap = server.snapshot();
        // Degraded, not dropped: last-known-good data with the flag set.
        assert_eq!(snap.num_servers(), 1);
        assert!(snap.servers[0].stale);
        assert!((snap.servers[0].cpu_util - 0.2).abs() < 1e-9);
        // A fresh heartbeat revives the entry.
        c.heartbeat(0.3, 0).unwrap();
        assert!(!server.snapshot().servers[0].stale);
    }

    #[test]
    fn malformed_frame_gets_error_reply_and_connection_survives() {
        use std::io::{BufRead, Write};
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = std::io::BufReader::new(stream);
        w.write_all(b"completely bogus\n").unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("error"), "{line}");
        // Same connection still works for a real registration.
        write_msg(&mut w, &ClientMsg::Register { spec: spec("z", ServerClass::GpuP100) }).unwrap();
        let mut ack = String::new();
        r.read_line(&mut ack).unwrap();
        assert!(ack.contains("ack"), "{ack}");
        assert_eq!(server.num_registered(), 1);
    }

    #[test]
    fn oversize_frame_closes_connection_with_error() {
        use std::io::{BufRead, Write};
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = std::io::BufReader::new(stream);
        let huge = vec![b'x'; MAX_FRAME_BYTES + 4096];
        // The collector may reset mid-write once the bound trips; either
        // way the connection must end with at most one error reply.
        let _ = w.write_all(&huge);
        let _ = w.write_all(b"\n");
        let _ = w.flush();
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap_or(0);
        assert!(n == 0 || line.contains("error"), "{line}");
        assert_eq!(server.num_registered(), 0);
    }

    #[test]
    fn register_with_retry_waits_out_a_late_collector() {
        // Reserve an ephemeral port, free it, and bring the collector up on
        // it only after a delay: early attempts see ConnectionRefused and
        // must back off rather than fail.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let server_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            CollectorServer::bind(&addr.to_string(), None).unwrap()
        });
        let c = CollectorClient::register_with_retry(
            addr,
            spec("late", ServerClass::GpuP100),
            RetryPolicy::fast(1),
        );
        let server = server_thread.join().unwrap();
        c.expect("registration should retry until the collector is up");
        assert_eq!(server.num_registered(), 1);
    }

    /// A TCP proxy that kills its first connection after `kill_after`
    /// newline-terminated server replies, then forwards all later
    /// connections transparently — a deterministic mid-stream death for
    /// reconnect tests.
    fn flaky_proxy(upstream: SocketAddr, kill_after: usize) -> SocketAddr {
        use std::net::Shutdown;
        fn pump(mut from: TcpStream, mut to: TcpStream, mut newline_budget: usize) {
            let mut buf = [0u8; 1024];
            loop {
                let n = match std::io::Read::read(&mut from, &mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                if std::io::Write::write_all(&mut to, &buf[..n]).is_err() {
                    break;
                }
                for &b in &buf[..n] {
                    if b == b'\n' {
                        newline_budget = newline_budget.saturating_sub(1);
                        if newline_budget == 0 {
                            let _ = to.shutdown(Shutdown::Both);
                            let _ = from.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                }
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut first = true;
            for conn in listener.incoming() {
                let Ok(client) = conn else { break };
                let Ok(server) = TcpStream::connect(upstream) else { break };
                let budget = if first { kill_after } else { usize::MAX };
                first = false;
                let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                std::thread::spawn(move || pump(c2, server, usize::MAX));
                std::thread::spawn(move || pump(s2, client, budget));
            }
        });
        addr
    }

    #[test]
    fn heartbeat_reconnects_after_midstream_disconnect() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        // Kill the first proxied connection after two server replies: the
        // register ack and the first heartbeat ack.
        let proxy = flaky_proxy(server.addr(), 2);
        let mut c = CollectorClient::register_with_retry(
            proxy,
            spec("n", ServerClass::GpuP100),
            RetryPolicy::fast(2),
        )
        .unwrap();
        c.heartbeat(0.1, 0).unwrap();
        // The connection is now dead; this heartbeat must reconnect,
        // re-register, and land the report on a fresh connection.
        c.heartbeat(0.5, 0).unwrap();
        let snap = server.snapshot();
        assert_eq!(snap.num_servers(), 1);
        assert!((snap.servers[0].cpu_util - 0.5).abs() < 1e-9);
    }

    /// A collector whose first heartbeat ack is cut off mid-frame (what a
    /// `truncate` fault does to a reply); later connections behave.
    fn collector_with_one_torn_ack() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (n, conn) in listener.incoming().enumerate() {
                let Ok(mut w) = conn else { break };
                let mut r = BufReader::new(w.try_clone().unwrap());
                let _register: Option<ClientMsg> = read_msg(&mut r).unwrap();
                write_msg(&mut w, &ServerMsg::Ack).unwrap();
                let _heartbeat: Option<ClientMsg> = read_msg(&mut r).unwrap();
                if n == 0 {
                    w.write_all(b"{\"type\":\"a").unwrap();
                } else {
                    write_msg(&mut w, &ServerMsg::Ack).unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn torn_ack_is_a_transient_failure_and_is_retried() {
        let addr = collector_with_one_torn_ack();
        let mut plain = CollectorClient::register(addr, spec("n", ServerClass::GpuP100)).unwrap();
        let err = plain.heartbeat(0.3, 0).unwrap_err();
        assert!(is_transient(&err), "a torn reply is the transport's fault: {err}");

        let addr = collector_with_one_torn_ack();
        let mut c = CollectorClient::register_with_retry(
            addr,
            spec("n", ServerClass::GpuP100),
            RetryPolicy::fast(3),
        )
        .unwrap();
        c.heartbeat(0.3, 0).expect("reconnects past the torn ack");
    }

    #[test]
    fn dropping_the_server_hangs_up_on_idle_clients() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let mut c =
            CollectorClient::register(server.addr(), spec("n", ServerClass::GpuP100)).unwrap();
        c.heartbeat(0.1, 0).unwrap();
        let t0 = Instant::now();
        drop(server);
        assert!(t0.elapsed() < 2 * SHUTDOWN_POLL, "drop waited {:?}", t0.elapsed());
        // The collector thread is gone with the handle: nobody acks.
        c.heartbeat(0.2, 0).expect_err("a dropped collector must not keep acking");
    }

    #[test]
    fn connection_past_the_cap_gets_a_typed_error_and_is_closed() {
        let (total, shed) = (
            pddl_telemetry::counter("collector.connections_total"),
            pddl_telemetry::counter("collector.connections_shed"),
        );
        let (total0, shed0) = (total.get(), shed.get());
        let server = CollectorServer::bind_capped("127.0.0.1:0", None, 1).unwrap();
        let _first =
            CollectorClient::register(server.addr(), spec("a", ServerClass::GpuP100)).unwrap();
        assert!(pddl_telemetry::gauge("collector.active_connections").get() >= 1);
        // The second peer only listens: the verdict arrives unprompted.
        let mut second = BufReader::new(TcpStream::connect(server.addr()).unwrap());
        match read_msg(&mut second).unwrap().expect("a typed line before the close") {
            ServerMsg::Error { reason } => assert!(reason.contains("connection limit"), "{reason}"),
            ServerMsg::Ack => panic!("a connection past the cap was admitted"),
        }
        let closed = read_msg::<ServerMsg>(&mut second).unwrap().is_none();
        assert!(closed, "the typed line is followed by EOF");
        assert_eq!(server.num_registered(), 1);
        assert!(total.get() >= total0 + 2 && shed.get() > shed0);
    }

    #[test]
    fn many_concurrent_clients() {
        let server = CollectorServer::bind("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..12)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = CollectorClient::register(
                        addr,
                        ServerSpec::preset(ServerClass::CpuE5_2630, format!("node-{i}")),
                    )
                    .unwrap();
                    c.heartbeat(0.1, 0).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.num_registered(), 12);
    }
}
