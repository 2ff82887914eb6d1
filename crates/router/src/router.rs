//! The router process: consistent-hash request placement over a fleet
//! of controller shards.
//!
//! A [`Router`] listens on its own address, speaking the same
//! newline-delimited JSON protocol as the controller. Control ops
//! (`stats`, `trace`) are answered from the router's own
//! telemetry; `{"op":"route_table"}` answers the live fleet membership;
//! every prediction frame is forwarded **verbatim** to the shard owning
//! its routing key ([`crate::key::routing_key`]) and the shard's reply
//! is relayed verbatim back. Verbatim forwarding is what makes the
//! fleet transparent: trace headers, request identities, and response
//! envelopes pass through untouched, so routed results are
//! bit-identical to direct ones, and a re-routed retry is recomputed
//! by the shard it lands on.
//!
//! ## Membership epochs and failure handling
//!
//! Membership (which shards exist, which are healthy) is guarded by one
//! mutex and stamped with an **epoch** that increments on every change.
//! A request is routed once, at admission, under the epoch current at
//! that moment — membership changes mid-flight never re-route an
//! in-flight request; it finishes (or fails) against the shard it was
//! admitted to.
//!
//! Failures split by whether the request may have executed:
//!
//! * **Connect failure** — the request never reached the shard, so the
//!   router transparently re-routes it (up to `max_reroutes` times)
//!   after marking the shard unhealthy.
//! * **Write/read failure after connect** — the shard may have executed
//!   the request before dying, so the router does *not* silently retry
//!   (a batch or bare frame re-executed elsewhere would double-count).
//!   It absorbs the death (epoch bump, ring rebuild) and answers the
//!   client with the typed
//!   `{"error":"shard_moved","epoch":…,"retry_after_ms":…}` line.
//!   Resilient clients refresh their route table and retry; the
//!   replacement shard recomputes the retry, so each enveloped call
//!   still returns exactly one, bit-identical result.
//!
//! A background prober visits every shard each `probe_interval` with
//! `{"op":"stats"}`: probe failure marks a shard unhealthy (it owns no
//! ring keys until it answers again), success marks it back healthy.
//! Convergence after a shard death is therefore bounded by one probe
//! interval — or faster, when a forwarding failure observes the death
//! first.

use crate::key::{frame_key, line_key};
use crate::ring::HashRing;
use pddl_cluster::wire::{Handler, LineConn, Listener, Writer, SHUTDOWN_POLL};
use pddl_telemetry::{
    flight_recorder, tlog, Counter, Gauge, Level, SpanStatus, Stage, TraceContext,
};
use predictddl::protocol::{frame_too_long_line, RouteShard, RouteTable, StatsReply};
use predictddl::{parse_frame, ErrorReply, ParsedFrame, ReloadReply, ShedReason};
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the router process.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// How often the health prober visits every shard.
    pub probe_interval: Duration,
    /// Per-probe (and per-forward-connect) timeout.
    pub probe_timeout: Duration,
    /// Read timeout on shard connections while waiting for a reply; a
    /// shard silent past this is treated as dead. Keep it comfortably
    /// above the shards' queue deadline.
    pub forward_timeout: Duration,
    /// Maximum simultaneously connected clients; beyond it connections
    /// get a typed overload reply and are closed.
    pub max_connections: usize,
    /// Advisory pacing hint carried in typed error replies, in
    /// milliseconds.
    pub retry_after_ms: u64,
    /// Transparent re-route attempts when a shard cannot even be
    /// *connected* (the request provably never executed). Failures
    /// after a successful connect are never retried transparently —
    /// they answer `shard_moved` instead.
    pub max_reroutes: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            vnodes: crate::ring::DEFAULT_VNODES,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            forward_timeout: Duration::from_secs(10),
            max_connections: 1024,
            retry_after_ms: 25,
            max_reroutes: 3,
        }
    }
}

/// Router-side metric handles, resolved once. The connection metrics
/// (`router.connections_total` and friends) are the listener's.
struct Metrics {
    requests_total: &'static Counter,
    forwarded: &'static Counter,
    reroutes: &'static Counter,
    shard_moved_replies: &'static Counter,
    unrouteable: &'static Counter,
    malformed_pass: &'static Counter,
    reload_fanouts: &'static Counter,
    probe_cycles: &'static Counter,
    probe_failures: &'static Counter,
    shard_deaths: &'static Counter,
    shard_revivals: &'static Counter,
    healthy_shards: &'static Gauge,
    membership_epoch: &'static Gauge,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        requests_total: pddl_telemetry::counter("router.requests_total"),
        forwarded: pddl_telemetry::counter("router.forwarded"),
        reroutes: pddl_telemetry::counter("router.reroutes"),
        shard_moved_replies: pddl_telemetry::counter("router.shard_moved_replies"),
        unrouteable: pddl_telemetry::counter("router.unrouteable"),
        malformed_pass: pddl_telemetry::counter("router.malformed_pass"),
        reload_fanouts: pddl_telemetry::counter("router.reload_fanouts"),
        probe_cycles: pddl_telemetry::counter("router.probe_cycles"),
        probe_failures: pddl_telemetry::counter("router.probe_failures"),
        shard_deaths: pddl_telemetry::counter("router.shard_deaths"),
        shard_revivals: pddl_telemetry::counter("router.shard_revivals"),
        healthy_shards: pddl_telemetry::gauge("router.healthy_shards"),
        membership_epoch: pddl_telemetry::gauge("router.membership_epoch"),
    })
}

struct MemberShard {
    id: u64,
    addr: SocketAddr,
    healthy: bool,
}

struct MemberState {
    epoch: u64,
    next_id: u64,
    shards: Vec<MemberShard>,
    ring: HashRing,
}

/// Epoch-stamped fleet membership behind one lock. The hash ring only
/// ever contains *healthy* shards; every mutation rebuilds it and bumps
/// the epoch.
struct Membership {
    vnodes: u32,
    inner: Mutex<MemberState>,
}

impl Membership {
    fn new(vnodes: u32, addrs: &[SocketAddr]) -> Self {
        let shards: Vec<MemberShard> = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| MemberShard { id: i as u64, addr, healthy: true })
            .collect();
        let ring =
            HashRing::with_shards(vnodes, &shards.iter().map(|s| s.id).collect::<Vec<_>>());
        let m = metrics();
        m.healthy_shards.set(shards.len() as i64);
        m.membership_epoch.set(1);
        Self {
            vnodes,
            inner: Mutex::new(MemberState {
                epoch: 1,
                next_id: shards.len() as u64,
                shards,
                ring,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemberState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn rebuild_locked(state: &mut MemberState, vnodes: u32) {
        let healthy: Vec<u64> =
            state.shards.iter().filter(|s| s.healthy).map(|s| s.id).collect();
        state.ring = HashRing::with_shards(vnodes, &healthy);
        state.epoch += 1;
        let m = metrics();
        m.membership_epoch.set(state.epoch as i64);
        m.healthy_shards.set(healthy.len() as i64);
    }

    /// Routes a key under the current epoch: `(epoch, shard id, addr)`.
    fn route(&self, key: u64) -> Option<(u64, u64, SocketAddr)> {
        let state = self.lock();
        let id = state.ring.lookup(key)?;
        let shard = state.shards.iter().find(|s| s.id == id)?;
        Some((state.epoch, shard.id, shard.addr))
    }

    fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Flips a shard's health. Returns the new epoch when the flip
    /// changed anything, `None` when it was already in that state.
    fn mark(&self, id: u64, healthy: bool) -> Option<u64> {
        let mut state = self.lock();
        let shard = state.shards.iter_mut().find(|s| s.id == id)?;
        if shard.healthy == healthy {
            return None;
        }
        shard.healthy = healthy;
        let addr = shard.addr;
        Self::rebuild_locked(&mut state, self.vnodes);
        let m = metrics();
        if healthy {
            m.shard_revivals.inc();
            tlog!(
                Level::Info,
                "router",
                "shard revived",
                shard = id,
                addr = addr.to_string(),
                epoch = state.epoch,
            );
        } else {
            m.shard_deaths.inc();
            tlog!(
                Level::Warn,
                "router",
                "shard marked dead",
                shard = id,
                addr = addr.to_string(),
                epoch = state.epoch,
            );
        }
        Some(state.epoch)
    }

    /// Adds a shard (initially healthy); returns `(id, new epoch)`.
    fn add(&self, addr: SocketAddr) -> (u64, u64) {
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.shards.push(MemberShard { id, addr, healthy: true });
        Self::rebuild_locked(&mut state, self.vnodes);
        tlog!(
            Level::Info,
            "router",
            "shard added",
            shard = id,
            addr = addr.to_string(),
            epoch = state.epoch,
        );
        (id, state.epoch)
    }

    /// Removes a shard entirely; returns the new epoch if it existed.
    fn remove(&self, id: u64) -> Option<u64> {
        let mut state = self.lock();
        let before = state.shards.len();
        state.shards.retain(|s| s.id != id);
        if state.shards.len() == before {
            return None;
        }
        Self::rebuild_locked(&mut state, self.vnodes);
        tlog!(Level::Info, "router", "shard removed", shard = id, epoch = state.epoch);
        Some(state.epoch)
    }

    fn table(&self) -> RouteTable {
        let state = self.lock();
        let mut shards: Vec<RouteShard> = state
            .shards
            .iter()
            .map(|s| RouteShard { id: s.id, addr: s.addr.to_string(), healthy: s.healthy })
            .collect();
        shards.sort_by_key(|s| s.id);
        RouteTable { epoch: state.epoch, vnodes: self.vnodes, shard: None, shards }
    }

    /// Snapshot for the prober: `(id, addr, currently-healthy)`.
    fn probe_targets(&self) -> Vec<(u64, SocketAddr, bool)> {
        self.lock().shards.iter().map(|s| (s.id, s.addr, s.healthy)).collect()
    }
}

/// A running router. Dropping the handle stops it.
pub struct Router {
    listener: Listener,
    membership: Arc<Membership>,
    probe_stop: Arc<AtomicBool>,
    probe_thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Starts a router on `addr` (port 0 = ephemeral) fronting `shards`
    /// (assigned ids `0..shards.len()` in order): a
    /// [`Listener`] whose every client connection gets a cheap forwarding
    /// thread, plus one health-prober thread. The router itself runs
    /// fault-free; chaos lives on the shard sockets.
    pub fn serve(
        addr: &str,
        shards: &[SocketAddr],
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        let membership = Arc::new(Membership::new(config.vnodes.max(1), shards));
        let handler = Routing { membership: Arc::clone(&membership), config };
        let listener = Listener::serve(addr, config.max_connections, "router", None, handler)?;
        tlog!(
            Level::Info,
            "router",
            "listening",
            addr = listener.addr().to_string(),
            shards = shards.len() as u64,
            vnodes = config.vnodes.max(1) as u64,
        );

        let probe_stop = Arc::new(AtomicBool::new(false));
        let probe_thread = {
            let stop = Arc::clone(&probe_stop);
            let membership = Arc::clone(&membership);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    probe_all(&membership, config);
                    // Sleep in slices so shutdown stays responsive.
                    let deadline = Instant::now() + config.probe_interval;
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            })
        };

        Ok(Self { listener, membership, probe_stop, probe_thread: Some(probe_thread) })
    }

    /// The address the router listens on.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The live route table (what `{"op":"route_table"}` answers).
    pub fn table(&self) -> RouteTable {
        self.membership.table()
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Adds a shard to the fleet; keys re-map only onto the new shard
    /// (bounded movement). Returns the assigned shard id.
    pub fn add_shard(&self, addr: SocketAddr) -> u64 {
        self.membership.add(addr).0
    }

    /// Removes a shard from the fleet; only keys it owned re-map.
    /// Returns false when no such shard exists.
    pub fn remove_shard(&self, id: u64) -> bool {
        self.membership.remove(id).is_some()
    }

    /// Marks a shard unhealthy without waiting for the prober — test
    /// hook for deterministic death injection.
    pub fn mark_dead(&self, id: u64) -> bool {
        self.membership.mark(id, false).is_some()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.probe_stop.store(true, Ordering::Relaxed);
        self.listener.shutdown();
        if let Some(t) = self.probe_thread.take() {
            let _ = t.join();
        }
        tlog!(Level::Info, "router", "stopped", epoch = self.membership.epoch());
    }
}

/// The router as a [`Handler`]: control ops are answered from the
/// router's own state, every other frame is forwarded to its shard.
struct Routing {
    membership: Arc<Membership>,
    config: RouterConfig,
}

/// Lazy per-shard connections, owned by one client connection so
/// per-connection request order is preserved end to end.
type ShardLegs = HashMap<u64, LineConn>;

impl Handler for Routing {
    type Conn = ShardLegs;

    fn open(&self, _local: SocketAddr) -> ShardLegs {
        HashMap::new()
    }

    fn connection_limit_line(&self) -> String {
        let retry_after_ms = self.config.retry_after_ms;
        ErrorReply::Overloaded { retry_after_ms, reason: ShedReason::ConnectionLimit }.to_line()
    }

    fn frame_too_long_line(&self, limit: usize) -> String {
        frame_too_long_line(limit)
    }

    fn frame(&self, legs: &mut ShardLegs, line: String, client: &Writer) -> std::io::Result<()> {
        let m = metrics();
        let (membership, config) = (&*self.membership, self.config);
        m.requests_total.inc();
        match parse_frame(&line) {
            Ok(ParsedFrame::Stats) => {
                let snapshot = pddl_telemetry::snapshot();
                client.send(&StatsReply { shard: None, snapshot }.to_line())?
            }
            Ok(ParsedFrame::Trace) => client.send(&flight_recorder().dump().to_line())?,
            Ok(ParsedFrame::RouteTable) => client.send(&membership.table().to_line())?,
            Ok(ParsedFrame::Reload { .. }) => {
                m.reload_fanouts.inc();
                let out = fan_reload(&line, membership, legs, config);
                client.send(&out)?;
            }
            Ok(frame) => {
                let key = frame_key(&frame).unwrap_or_else(|| line_key(&line));
                let trace = match &frame {
                    ParsedFrame::Enveloped(env) => env.trace.map(TraceContext::from),
                    _ => None,
                };
                forward(&line, key, trace, membership, legs, client, config)?;
            }
            Err(_) => {
                // Forward malformed lines too: the shard answers with
                // the same typed error it would on a direct connection.
                m.malformed_pass.inc();
                forward(&line, line_key(&line), None, membership, legs, client, config)?;
            }
        }
        Ok(())
    }
}

/// How one exchange with a shard failed — which decides whether the
/// request may be retried elsewhere (see the module docs).
enum LegError {
    /// The shard could not be connected: the request never reached it.
    Connect(std::io::Error),
    /// The write or the read failed after connecting: the request may
    /// have executed. The leg is already dropped.
    Exchange(std::io::Error),
}

/// Sends `line` down this connection's leg to shard `sid` (dialling it on
/// first use) and reads the shard's reply.
fn shard_exchange(
    legs: &mut ShardLegs,
    sid: u64,
    addr: SocketAddr,
    config: RouterConfig,
    line: &str,
) -> Result<String, LegError> {
    let leg = match legs.entry(sid) {
        Entry::Occupied(leg) => leg.into_mut(),
        Entry::Vacant(slot) => {
            let connect_timeout = config.probe_timeout.max(SHUTDOWN_POLL);
            let timeout = Some(config.forward_timeout);
            let dialled = LineConn::connect(addr, Some(connect_timeout), timeout);
            slot.insert(dialled.map_err(LegError::Connect)?)
        }
    };
    leg.exchange(line).map_err(|e| {
        legs.remove(&sid);
        LegError::Exchange(e)
    })
}

/// Records the `route` stage of one forwarded request. A traced request
/// the router answers with a typed failure (`failed` names the verdict)
/// never reaches a shard's dump, so the router promotes it into its own
/// flight recorder, served by its `{"op":"trace"}`.
fn record_route(trace: Option<TraceContext>, t0: Instant, failed: Option<&'static str>) {
    let status = if failed.is_some() { SpanStatus::Error } else { SpanStatus::Ok };
    Stage::Route.record(trace, t0.elapsed(), status);
    if let (Some(ctx), Some(verdict)) = (trace, failed) {
        flight_recorder().promote(ctx.trace_id, verdict);
    }
}

/// Forwards one work frame to the shard owning `key` and relays the
/// reply. See the module docs for the failure taxonomy.
fn forward(
    line: &str,
    key: u64,
    trace: Option<TraceContext>,
    membership: &Membership,
    legs: &mut ShardLegs,
    client: &Writer,
    config: RouterConfig,
) -> std::io::Result<()> {
    let m = metrics();
    let t0 = Instant::now();
    let retry_after_ms = config.retry_after_ms;
    let mut reroutes = 0u32;
    loop {
        let Some((_epoch, sid, addr)) = membership.route(key) else {
            // No healthy shard owns anything: typed overload, transient.
            m.unrouteable.inc();
            record_route(trace, t0, Some("shed"));
            let reply = ErrorReply::Overloaded { retry_after_ms, reason: ShedReason::Unrouteable };
            return client.send(&reply.to_line());
        };
        match shard_exchange(legs, sid, addr, config, line) {
            Ok(resp) => {
                m.forwarded.inc();
                record_route(trace, t0, None);
                return client.send(&resp);
            }
            Err(LegError::Connect(_)) => {
                // The request never reached the shard — safe to
                // re-route transparently after absorbing the death.
                membership.mark(sid, false);
                reroutes += 1;
                m.reroutes.inc();
                if reroutes > config.max_reroutes {
                    m.shard_moved_replies.inc();
                    record_route(trace, t0, Some("error"));
                    let epoch = membership.epoch();
                    return client.send(&ErrorReply::ShardMoved { epoch, retry_after_ms }.to_line());
                }
            }
            Err(LegError::Exchange(_)) => {
                // The frame (fully or partially) reached the shard: it
                // may have executed, so no transparent retry. Absorb
                // the death, answer the typed re-route signal.
                let epoch = membership.mark(sid, false).unwrap_or_else(|| membership.epoch());
                m.shard_moved_replies.inc();
                record_route(trace, t0, Some("error"));
                return client.send(&ErrorReply::ShardMoved { epoch, retry_after_ms }.to_line());
            }
        }
    }
}

/// Fans a `{"op":"reload"}` line out to every healthy shard and
/// aggregates the replies into one answer for the client.
///
/// All shards accepting with a consistent version answers that
/// [`ReloadReply`] (`previous`/`epoch` from the first shard to answer);
/// any rejection, unreachable shard, or version divergence answers the
/// typed rejection line, naming the shard. Shards that already accepted
/// stay swapped — the registry is versioned, so re-issuing the reload
/// after fixing the failed shard converges the fleet rather than
/// ping-ponging it.
fn fan_reload(
    line: &str,
    membership: &Membership,
    legs: &mut ShardLegs,
    config: RouterConfig,
) -> String {
    let targets: Vec<(u64, SocketAddr)> = membership
        .probe_targets()
        .into_iter()
        .filter(|&(_, _, healthy)| healthy)
        .map(|(id, addr, _)| (id, addr))
        .collect();
    let reject = |reason: String| ErrorReply::ReloadRejected { reason }.to_line();
    if targets.is_empty() {
        return reject("no_healthy_shards".into());
    }
    let mut agreed: Option<ReloadReply> = None;
    for (sid, addr) in targets {
        let resp = match shard_exchange(legs, sid, addr, config, line) {
            Ok(resp) => resp,
            Err(LegError::Connect(e) | LegError::Exchange(e)) => {
                membership.mark(sid, false);
                return reject(format!("shard {sid} unreachable: {e}"));
            }
        };
        if let Some(ErrorReply::ReloadRejected { reason }) = ErrorReply::from_line(&resp) {
            return reject(format!("shard {sid}: {reason}"));
        }
        let reply = match ReloadReply::from_line(&resp) {
            Ok(reply) => reply,
            Err(e) => return reject(format!("shard {sid}: {e}")),
        };
        match &agreed {
            None => agreed = Some(reply),
            Some(first) if first.version != reply.version => {
                return reject(format!(
                    "fanout_diverged: shards report versions {} and {}",
                    first.version, reply.version
                ));
            }
            Some(_) => {}
        }
    }
    match agreed {
        Some(reply) => reply.to_line(),
        None => reject("no_healthy_shards".into()),
    }
}

/// One prober sweep: `{"op":"stats"}` to every shard, health flips on
/// state change.
fn probe_all(membership: &Membership, config: RouterConfig) {
    let m = metrics();
    m.probe_cycles.inc();
    for (id, addr, was_healthy) in membership.probe_targets() {
        let alive = probe_one(addr, config.probe_timeout);
        if !alive {
            m.probe_failures.inc();
        }
        if alive != was_healthy {
            membership.mark(id, alive);
        }
    }
}

/// True when the shard answers a stats probe within `timeout`.
fn probe_one(addr: SocketAddr, timeout: Duration) -> bool {
    LineConn::connect(addr, Some(timeout), Some(timeout))
        .and_then(|mut shard| shard.exchange("{\"op\":\"stats\"}"))
        .is_ok_and(|resp| resp.contains("\"status\":\"stats\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().expect("addr"))
            .collect()
    }

    #[test]
    fn membership_epochs_advance_on_every_change() {
        let m = Membership::new(16, &addrs(3));
        let e0 = m.epoch();
        assert!(m.mark(1, false).is_some());
        assert_eq!(m.epoch(), e0 + 1);
        // Idempotent: marking an already-dead shard changes nothing.
        assert!(m.mark(1, false).is_none());
        assert_eq!(m.epoch(), e0 + 1);
        assert!(m.mark(1, true).is_some());
        let (id, _) = m.add("127.0.0.1:9100".parse().expect("addr"));
        assert_eq!(id, 3);
        assert!(m.remove(id).is_some());
        assert!(m.remove(id).is_none());
    }

    #[test]
    fn dead_shards_own_no_keys() {
        let m = Membership::new(16, &addrs(3));
        m.mark(2, false);
        for k in 0..2_000u64 {
            let (_, sid, _) = m.route(k).expect("two healthy shards remain");
            assert_ne!(sid, 2, "key {k} routed to a dead shard");
        }
    }

    #[test]
    fn route_is_none_when_everything_is_dead() {
        let m = Membership::new(16, &addrs(2));
        m.mark(0, false);
        m.mark(1, false);
        assert!(m.route(42).is_none());
        let table = m.table();
        assert_eq!(table.shards.len(), 2);
        assert!(table.shards.iter().all(|s| !s.healthy));
    }

    #[test]
    fn table_reflects_membership_and_renders() {
        let m = Membership::new(8, &addrs(2));
        m.mark(0, false);
        let table = m.table();
        assert_eq!(table.vnodes, 8);
        assert!(table.shard.is_none());
        let parsed = RouteTable::from_line(&table.to_line()).expect("round trip");
        assert_eq!(parsed, table);
    }
}
