//! The Controller (§III-D): "the entry point to train GHN models and to
//! predict the training time of a DNN architecture. The controller has a
//! listener to receive and forward incoming requests to the Task Checker."
//!
//! The Listener speaks newline-delimited JSON over TCP — the same framing
//! as the Cluster Resource Collector. Each connection may send any number
//! of requests and receives one response line per request. A line holding
//! a JSON *array* of prediction requests is a batch: the controller fans
//! the batch out across the [`pddl_par`] work pool and answers with one
//! JSON array of responses in request order. Besides prediction requests,
//! the wire protocol carries five control ops, each answered inline by
//! the reader so they stay available during overload:
//!
//! * `{"op":"stats"}` — a live JSON snapshot of the telemetry registry
//!   (see `OPERATIONS.md` for the metric catalogue);
//! * `{"op":"metrics"}` — the same registry rendered as Prometheus text
//!   exposition, wrapped as `{"status":"metrics","exposition":"..."}`;
//! * `{"op":"trace"}` — the flight recorder's retained traces
//!   ([`pddl_telemetry::trace::FlightRecorder::retained_json`]);
//! * `{"op":"route_table"}` — the shard's one-entry identity
//!   [`RouteTable`] (the `pddl-router` process answers the same op with
//!   the live fleet membership);
//! * `{"op":"reload"}` — hot-swap the serving model to a checkpoint-
//!   registry version (see below).
//!
//! ## Hot reload
//!
//! The served system lives behind a [`LiveSystem`] slot. Every work frame
//! *pins* the current system as it is read off the socket and uses that
//! pin for its whole lifetime — queued, dispatched, and answered on the
//! model that was live when it arrived, while later frames see the new
//! one. A controller started with [`Controller::serve_live`] and a
//! [`ReloadManager`] answers `{"op":"reload"}` (optional `"version"`,
//! default latest) by loading the candidate from the registry, replaying
//! the manifest's golden probes against it, and swapping only on a pass:
//! `{"status":"reload","version":…,"previous":…,"epoch":…}`. A failed
//! candidate earns the terminal typed line
//! `{"error":"reload_rejected","reason":…}` and the old model keeps
//! serving. Controllers without a registry reject with reason
//! `no_registry`.
//!
//! The wire *shapes* themselves — envelopes, control ops, typed error
//! lines — live in [`crate::protocol`]; `PROTOCOL.md` at the repository
//! root is the op-by-op reference with captured transcripts.
//!
//! ## Sharded serving
//!
//! A controller may be started as one shard of a fleet
//! ([`ServeConfig::shard_id`]): it then echoes its shard id in enveloped
//! responses, in `{"op":"stats"}` replies, and in its identity route
//! table, so clients and the router can attribute every answer to the
//! shard that computed it ([`ControllerClient::last_shard`]). Sharding
//! changes nothing else about the serving loop — the router owns key
//! placement; the shard just declares who it is.
//!
//! ## Request tracing
//!
//! A [`RequestEnvelope`] may carry a [`TraceHeader`] minted by the client;
//! such requests are always traced and the header is echoed on the
//! [`ResponseEnvelope`]. Requests without a header are sampled: every
//! `trace_sample`-th work frame per connection gets a server-minted root
//! context (0 disables). A traced request records one child span per
//! pipeline stage — accept marker, frame decode, queue wait (in
//! [`crate::serve`]), worker dispatch, embedding-cache probe (hit/miss),
//! GHN forward pass on a miss, regression, response serialization — into
//! the process-wide lock-free flight recorder. Traces that end badly
//! (shed, expired, application error) or slowly (`trace_slow_ms`) are
//! tail-promoted into the bounded retained set served by `{"op":"trace"}`
//! and rendered by the CLI `trace` subcommand.
//!
//! ## Bounded serving core
//!
//! Connections are accepted by a single acceptor thread and read by cheap
//! per-connection reader threads (capped at `max_connections`): that part
//! is the [`pddl_cluster::wire::Listener`] the router and the collector
//! also run on, and the controller is the [`Handler`] behind it. The
//! *work* runs on a fixed pool of worker threads consuming a bounded FIFO
//! admission queue ([`crate::serve::ServePool`]). A full queue sheds the
//! request immediately with a typed
//! `{"error":"overloaded","retry_after_ms":...}` reply — the same reply a
//! request gets if it waits in the queue past the configured deadline, or
//! a connection gets past the connection cap. Overload replies are
//! classified as transient by [`pddl_cluster::retry::is_transient`], so
//! [`ControllerClient::connect_resilient`] retries them end-to-end,
//! honoring the server's `retry_after_ms` pacing hint. Shutdown is a
//! graceful drain: stop accepting, let readers finish their in-flight
//! frame, flush the queue, then log a final stats snapshot. Tune with
//! [`Controller::serve_with`] and [`ServeConfig`].
//!
//! ## Hardening
//!
//! Frames are bounded at [`pddl_cluster::MAX_FRAME_BYTES`]; a peer that
//! never sends a newline is cut off, not buffered. Malformed frames earn a
//! typed error reply and a counter bump; over-long frames additionally
//! close the connection (line sync is lost). A request wrapped in a
//! [`RequestEnvelope`] carries a `(client, id)` identity: the controller
//! remembers recent responses per identity, so a client retrying after a
//! lost reply gets the original response back instead of a recomputation —
//! the dedup behind [`ControllerClient::connect_resilient`]'s exactly-once
//! semantics. Under a [`ServeConfig::fault_plan`] (see [`pddl_faults`]),
//! every accepted connection wears deterministic fault injectors.

pub use crate::protocol::{
    parse_frame, ParsedFrame, RequestEnvelope, ResponseEnvelope, TraceHeader, WireResponse,
};

use crate::observe::ObservationSink;
use crate::offline::PredictDdl;
use crate::protocol::{
    frame_too_long_line, metrics_line, observe_rejected_from_line, observe_rejected_line,
    overload_from_line, overload_line, reload_rejected_from_line, reload_rejected_line,
    shard_moved_from_line, stats_line, ObserveReply, ReloadReply, RouteShard, RouteTable,
};
use crate::reload::{LiveSystem, ReloadManager, ReloadOutcome};
use crate::request::{Prediction, PredictionRequest, RequestError};
use crate::serve::{JobOutcome, Latch, OpenOnDrop, ServeConfig, ServePool, SubmitError};
use pddl_cluster::retry::{
    is_transient, overload_retry_hint, shard_moved_retry_hint, Backoff, RetryPolicy,
    ShedReason,
};
use pddl_cluster::wire::{Flow, Handler, LineConn, Listener, Writer};
use pddl_telemetry::json::{self, ToJson};
use pddl_telemetry::trace::{flight_recorder, stage_id, stages};
use pddl_telemetry::{tlog, Counter, Histogram, Level, Snapshot, SpanStatus, TraceContext};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Controller-side metric handles, resolved once (increments stay
/// lock-free on the request path). The connection metrics
/// (`controller.connections_total` and friends) are the listener's.
struct Metrics {
    requests_total: &'static Counter,
    requests_ok: &'static Counter,
    requests_err: &'static Counter,
    stats_requests: &'static Counter,
    trace_requests: &'static Counter,
    metrics_requests: &'static Counter,
    route_table_requests: &'static Counter,
    reload_requests: &'static Counter,
    observe_requests: &'static Counter,
    traced_requests: &'static Counter,
    shed_queue_full: &'static Counter,
    shed_deadline: &'static Counter,
    shed_connection_limit: &'static Counter,
    shed_draining: &'static Counter,
    batch_requests: &'static Counter,
    malformed_frames: &'static Counter,
    dedup_hits: &'static Counter,
    request_latency: &'static Histogram,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        requests_total: pddl_telemetry::counter("controller.requests_total"),
        requests_ok: pddl_telemetry::counter("controller.requests_ok"),
        requests_err: pddl_telemetry::counter("controller.requests_err"),
        stats_requests: pddl_telemetry::counter("controller.stats_requests"),
        trace_requests: pddl_telemetry::counter("controller.trace_requests"),
        metrics_requests: pddl_telemetry::counter("controller.metrics_requests"),
        route_table_requests: pddl_telemetry::counter("controller.route_table_requests"),
        reload_requests: pddl_telemetry::counter("controller.reload_requests"),
        observe_requests: pddl_telemetry::counter("controller.observe_requests"),
        traced_requests: pddl_telemetry::counter("controller.traced_requests"),
        shed_queue_full: pddl_telemetry::counter("controller.shed.queue_full"),
        shed_deadline: pddl_telemetry::counter("controller.shed.deadline"),
        shed_connection_limit: pddl_telemetry::counter("controller.shed.connection_limit"),
        shed_draining: pddl_telemetry::counter("controller.shed.draining"),
        batch_requests: pddl_telemetry::counter("controller.batch_requests"),
        malformed_frames: pddl_telemetry::counter("controller.malformed_frames"),
        dedup_hits: pddl_telemetry::counter("controller.request_dedups"),
        request_latency: pddl_telemetry::histogram("controller.request_latency"),
    })
}

/// Entries kept in the idempotent-retry response cache. Sized so a burst
/// of retried requests stays deduplicated while memory stays bounded
/// (~cache-cap × response-line bytes).
const RESPONSE_CACHE_CAP: usize = 4096;

/// Bounded FIFO cache of rendered response lines keyed by request
/// identity. Shared across connections: a client may retry on a fresh
/// connection after the original died mid-reply.
#[derive(Default)]
struct ResponseCache {
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<(u64, u64), String>,
    order: VecDeque<(u64, u64)>,
}

impl ResponseCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panicked handler cannot leave the cache in a broken state (all
        // mutations are single statements), so poison is safe to clear.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, key: (u64, u64)) -> Option<String> {
        self.lock().map.get(&key).cloned()
    }

    fn put(&self, key: (u64, u64), line: String) {
        let mut inner = self.lock();
        if inner.map.insert(key, line).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > RESPONSE_CACHE_CAP {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }
}

/// [`overload_line`] plus accounting: every shed is attributed to its
/// cause under `controller.shed.<reason>`, so a dashboard (or the load
/// generator's report) can tell a full queue from expired deadlines.
fn shed_line(retry_after_ms: u64, reason: ShedReason) -> String {
    let m = metrics();
    match reason {
        ShedReason::QueueFull => m.shed_queue_full.inc(),
        ShedReason::Deadline => m.shed_deadline.inc(),
        ShedReason::ConnectionLimit => m.shed_connection_limit.inc(),
        ShedReason::Draining => m.shed_draining.inc(),
        ShedReason::Unknown => {} // the server always sheds for a reason
    }
    overload_line(retry_after_ms, reason.as_str())
}

/// A running prediction service. Dropping the handle drains and stops it.
pub struct Controller {
    listener: Listener,
    requests_served: Arc<AtomicU64>,
    pool: Arc<ServePool>,
    live: Arc<LiveSystem>,
    sink: Arc<ObservationSink>,
}

impl Controller {
    /// Serves a trained system on `addr` (port 0 = ephemeral) with the
    /// default [`ServeConfig`]. See [`Controller::serve_with`].
    pub fn serve(addr: &str, system: PredictDdl) -> std::io::Result<Self> {
        Self::serve_with(addr, system, ServeConfig::default())
    }

    /// Serves a trained system on `addr` under `config`: one acceptor
    /// thread, at most `config.max_connections` reader threads, and a
    /// fixed pool of `config.workers` workers behind a bounded admission
    /// queue (see the module docs for the overload semantics). The system
    /// is shared read-only. Connection accounting is load-independent —
    /// each reader checks itself out of the live count as it exits, so
    /// `controller.active_connections` returns to zero on an idle server
    /// with no accept traffic required.
    ///
    /// With a [`ServeConfig::fault_plan`], every accepted connection is
    /// wrapped in that plan's deterministic fault injectors.
    pub fn serve_with(
        addr: &str,
        system: PredictDdl,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        Self::serve_live(addr, Arc::new(LiveSystem::new(system, 0)), config, None)
    }

    /// [`Controller::serve_with`] over an explicit hot-swappable
    /// [`LiveSystem`] slot, optionally answering `{"op":"reload"}` through
    /// `reload` (a controller without a manager rejects the op with reason
    /// `no_registry`). The slot may be shared — with a
    /// [`crate::reload::spawn_watcher`] poller, with the manager, or with
    /// tests asserting swap epochs.
    pub fn serve_live(
        addr: &str,
        live: Arc<LiveSystem>,
        config: ServeConfig,
        reload: Option<Arc<ReloadManager>>,
    ) -> std::io::Result<Self> {
        let requests_served = Arc::new(AtomicU64::new(0));
        let sink = Arc::new(ObservationSink::new());
        let pool = Arc::new(ServePool::start(config));
        let handler = Serving {
            live: Arc::clone(&live),
            reload,
            sink: Arc::clone(&sink),
            served: Arc::clone(&requests_served),
            cache: Arc::new(ResponseCache::default()),
            pool: Arc::clone(&pool),
            config,
        };
        let listener = Listener::serve(
            addr,
            config.max_connections,
            "controller",
            config.fault_plan,
            handler,
        )?;
        tlog!(
            Level::Info,
            "controller",
            "listening",
            addr = listener.addr().to_string(),
            workers = pool.workers() as u64,
            queue_depth = pool.queue_capacity() as u64,
        );
        Ok(Self { listener, requests_served, pool, live, sink })
    }

    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Registry version currently serving (`0` when not registry-backed).
    pub fn live_version(&self) -> u64 {
        self.live.version()
    }

    /// Hot-swap epoch of the serving slot (number of reloads applied).
    pub fn live_epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Total requests answered by computation (deduplicated replays of a
    /// cached response are counted in `controller.request_dedups`, not
    /// here; shed and expired requests are counted in
    /// `controller.requests_shed` / `controller.requests_expired`).
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Reader threads currently attached to live connections. Returns to
    /// zero once every client disconnects, with no accept traffic needed.
    pub fn live_connections(&self) -> usize {
        self.listener.connections()
    }

    /// The feedback inlet behind `{"op":"observe"}` — runtime
    /// observations accepted and drift events fired so far. Shared with
    /// every reader thread; useful for tests and for embedding callers
    /// that want [`ObservationSink::calibrate`] on top of raw predictions.
    pub fn observation_sink(&self) -> &Arc<ObservationSink> {
        &self.sink
    }

    /// High-water mark of the admission queue since startup.
    pub fn queue_peak(&self) -> usize {
        self.pool.queue_peak()
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        // Graceful drain: stop accepting, wait out the readers (they
        // observe the flag within one SHUTDOWN_POLL), flush the admission
        // queue, then leave a final stats line in the log.
        self.listener.shutdown();
        self.pool.shutdown();
        // Drain-time trace dump: the retained set outlives the server
        // handle (the recorder is process-wide), but logging it here puts
        // the interesting traces next to the final stats line.
        let rec = flight_recorder();
        let retained = rec.retained();
        if !retained.is_empty() {
            tlog!(
                Level::Info,
                "controller",
                "retained traces at drain",
                count = retained.len() as u64,
                suppressed = rec.suppressed(),
            );
            tlog!(Level::Debug, "controller", "trace dump", dump = rec.retained_json());
        }
        tlog!(
            Level::Info,
            "controller",
            "drained",
            requests_served = self.requests_served.load(Ordering::Relaxed),
            queue_depth_peak = self.pool.queue_peak() as u64,
        );
    }
}

/// Submits `work` to the pool and blocks until it has written its
/// response (signalled through a [`Latch`], opened by a drop guard even
/// if the handler panics). The reader never polls the next frame until
/// the latch opens, which keeps per-connection responses in request order
/// while the pool interleaves many connections. A full queue is answered
/// inline with the typed overload reply (the pool already counted the
/// shed); a closed pool means the server is draining — reply, then hang
/// up.
fn submit_and_wait(
    pool: &ServePool,
    writer: &Writer,
    retry_after_ms: u64,
    trace: Option<TraceContext>,
    work: Box<dyn FnOnce(JobOutcome) + Send>,
) -> std::io::Result<()> {
    let latch = Arc::new(Latch::new());
    let guard = OpenOnDrop(Arc::clone(&latch));
    match pool.try_submit_traced(trace, move |outcome| {
        let _open = guard;
        work(outcome);
    }) {
        Ok(()) => {
            latch.wait();
            Ok(())
        }
        // The pool records the shed span and promotes the trace on both
        // rejection paths; only the wire reply happens here.
        Err(SubmitError::Full) => {
            writer.send(&shed_line(retry_after_ms, ShedReason::QueueFull))
        }
        Err(SubmitError::Closed) => {
            let _ = writer.send(&shed_line(retry_after_ms, ShedReason::Draining));
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "serving pool draining",
            ))
        }
    }
}

/// The controller as a [`Handler`]: frames the listener hands over are
/// classified, control ops and protocol errors are answered inline, and
/// every prediction frame goes through the bounded pool.
struct Serving {
    live: Arc<LiveSystem>,
    reload: Option<Arc<ReloadManager>>,
    sink: Arc<ObservationSink>,
    served: Arc<AtomicU64>,
    cache: Arc<ResponseCache>,
    pool: Arc<ServePool>,
    config: ServeConfig,
}

/// What one connection's reader remembers between frames.
struct ConnState {
    local: SocketAddr,
    accepted_us: u64,
    accept_marked: bool,
    work_frames: u64,
}

impl Handler for Serving {
    type Conn = ConnState;

    fn open(&self, local: SocketAddr) -> ConnState {
        let accepted_us = flight_recorder().now_us();
        ConnState { local, accepted_us, accept_marked: false, work_frames: 0 }
    }

    fn connection_limit_line(&self) -> String {
        shed_line(self.config.retry_after_ms, ShedReason::ConnectionLimit)
    }

    fn frame_too_long_line(&self, limit: usize) -> String {
        frame_too_long_line(limit)
    }

    fn frame(&self, conn: &mut ConnState, line: String, writer: &Writer) -> std::io::Result<Flow> {
        let m = metrics();
        let rec = flight_recorder();
        let config = self.config;
        let decode_t0 = Instant::now();
        let frame = match parse_frame(&line) {
            Ok(frame) => frame,
            Err(detail) => {
                m.malformed_frames.inc();
                m.requests_total.inc();
                m.requests_err.inc();
                self.served.fetch_add(1, Ordering::Relaxed);
                let response =
                    WireResponse::Err { error: RequestError::InvalidParams(detail) };
                writer.send(&encode_reply(&response))?;
                return Ok(Flow::Continue);
            }
        };
        let decode = decode_t0.elapsed();
        // Trace decision: an explicit client context always traces;
        // otherwise every `trace_sample`-th work frame on this connection
        // gets a server-minted root (0 disables sampling). Control ops
        // are never traced.
        let ctx = match &frame {
            ParsedFrame::Stats
            | ParsedFrame::Trace
            | ParsedFrame::Metrics
            | ParsedFrame::RouteTable
            | ParsedFrame::Reload { .. }
            | ParsedFrame::Observe { .. } => None,
            ParsedFrame::Enveloped(env) if env.trace.is_some() => {
                env.trace.map(TraceContext::from)
            }
            _ => {
                let n = conn.work_frames;
                conn.work_frames += 1;
                (config.trace_sample > 0 && n.is_multiple_of(config.trace_sample))
                    .then(|| TraceContext::root(next_sampled_trace_id()))
            }
        };
        // Start of this request for the root span: now, minus the frame
        // decode we just did.
        let req_start_us = rec.now_us().saturating_sub(decode.as_micros() as u64);
        if let Some(ctx) = ctx {
            m.traced_requests.inc();
            if !conn.accept_marked {
                // Zero-length marker anchoring the waterfall at the
                // moment this connection was accepted.
                rec.record_stage(
                    ctx,
                    stages::ACCEPT,
                    conn.accepted_us,
                    Duration::ZERO,
                    SpanStatus::Ok,
                );
                conn.accept_marked = true;
            }
            rec.record_stage(ctx, stages::FRAME_READ, req_start_us, decode, SpanStatus::Ok);
        }
        match frame {
            // Control ops: answered inline by the reader, never queued or
            // shed — stats, traces, and metrics stay observable *during*
            // overload.
            ParsedFrame::Stats => {
                m.stats_requests.inc();
                let out = stats_line(config.shard_id, &pddl_telemetry::snapshot());
                writer.send(&out)?;
            }
            // A bare controller answers the route-table op with its own
            // one-entry identity table at epoch 0: clients can always ask
            // "who am I talking to", router or not.
            ParsedFrame::RouteTable => {
                m.route_table_requests.inc();
                let id = config.shard_id.unwrap_or(0);
                let table = RouteTable {
                    epoch: 0,
                    vnodes: 0,
                    shard: config.shard_id,
                    shards: vec![RouteShard {
                        id,
                        addr: conn.local.to_string(),
                        healthy: true,
                    }],
                };
                writer.send(&table.to_line())?;
            }
            ParsedFrame::Trace => {
                m.trace_requests.inc();
                writer.send(&rec.retained_json())?;
            }
            // Reload: answered inline like the other control ops (an
            // overloaded or draining pool cannot block a rollback). The
            // manager serializes concurrent attempts; requests pinned
            // before the swap finish on the old model.
            ParsedFrame::Reload { version } => {
                m.reload_requests.inc();
                let out = match &self.reload {
                    Some(mgr) => match mgr.reload(version) {
                        Ok(ReloadOutcome::Swapped { version, previous, epoch }) => {
                            ReloadReply { version, previous, epoch }.to_line()
                        }
                        Ok(ReloadOutcome::AlreadyLive { version, epoch }) => {
                            ReloadReply { version, previous: version, epoch }.to_line()
                        }
                        Err(rej) => reload_rejected_line(&rej.reason),
                    },
                    None => reload_rejected_line("no_registry"),
                };
                writer.send(&out)?;
            }
            // Observe: the continual-refit feedback inlet, answered inline
            // like the other control ops (drift detection must keep
            // working while the pool is saturated — that is exactly when
            // the cost model is most likely to be wrong). The live model
            // re-predicts the request; the residual drives the sink.
            ParsedFrame::Observe { req, actual_secs } => {
                m.observe_requests.inc();
                let out = if !(actual_secs.is_finite() && actual_secs > 0.0) {
                    observe_rejected_line("non_positive_runtime")
                } else {
                    match self.live.pin().predict(&req) {
                        Ok(pred) if pred.seconds > 0.0 => {
                            let servers = req.cluster.servers.len();
                            self.sink.record(pred.seconds, actual_secs, servers).to_line()
                        }
                        Ok(_) => observe_rejected_line("non_positive_prediction"),
                        Err(e) => observe_rejected_line(&format!("prediction_failed: {e}")),
                    }
                };
                writer.send(&out)?;
            }
            ParsedFrame::Metrics => {
                m.metrics_requests.inc();
                let out = metrics_line(&pddl_telemetry::expo::prometheus_global());
                writer.send(&out)?;
            }
            // Batch requests: a JSON *array* of prediction requests. One
            // queue slot per batch; the per-request work still fans out
            // across the work pool via [`PredictDdl::predict_many`].
            ParsedFrame::Batch(reqs) => self.work(
                ctx,
                req_start_us,
                writer,
                None,
                move |system, m| {
                    m.batch_requests.inc();
                    m.requests_total.add(reqs.len() as u64);
                    let t0 = Instant::now();
                    let results = system.predict_many(&reqs);
                    let dispatch_el = t0.elapsed();
                    let mut errored = false;
                    let responses: Vec<WireResponse> = results
                        .into_iter()
                        .map(|r| match r {
                            Ok(prediction) => {
                                m.requests_ok.inc();
                                WireResponse::Ok { prediction }
                            }
                            Err(error) => {
                                m.requests_err.inc();
                                errored = true;
                                WireResponse::Err { error }
                            }
                        })
                        .collect();
                    if let Some(c) = ctx {
                        // One dispatch span for the whole batch; the
                        // per-request fan-out happens inside
                        // predict_many and is not traced separately.
                        let rec = flight_recorder();
                        let start =
                            rec.now_us().saturating_sub(dispatch_el.as_micros() as u64);
                        let d = c.child(stage_id(stages::DISPATCH).wrapping_add(1));
                        let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
                        rec.record_span(d, stages::DISPATCH, start, dispatch_el, status);
                    }
                    let answered = responses.len() as u64;
                    (responses, answered, errored)
                },
                |responses, elapsed| {
                    tlog!(
                        Level::Debug,
                        "controller.request",
                        "served batch",
                        batch_size = responses.len() as u64,
                        latency_us = elapsed.as_micros() as u64,
                    );
                },
            )?,
            // Id-wrapped single request: the reader consults the response
            // cache first, so a retried request replays the original
            // response without consuming a queue slot.
            ParsedFrame::Enveloped(env) => {
                let key = (env.client, env.id);
                if let Some(cached) = self.cache.get(key) {
                    m.dedup_hits.inc();
                    tlog!(
                        Level::Debug,
                        "controller.request",
                        "deduplicated retry",
                        client = env.client,
                        id = env.id,
                    );
                    let replay_t0 = Instant::now();
                    writer.send(&cached)?;
                    if let Some(c) = ctx {
                        // The replay is its own deterministic span: a
                        // re-promotion merges it into the retained trace
                        // without duplicating the original pipeline spans.
                        let el = replay_t0.elapsed();
                        let start = rec.now_us().saturating_sub(el.as_micros() as u64);
                        rec.record_stage(
                            c,
                            stages::DEDUP_REPLAY,
                            start,
                            el,
                            SpanStatus::CacheHit,
                        );
                    }
                    return Ok(Flow::Continue);
                }
                self.work(
                    ctx,
                    req_start_us,
                    writer,
                    Some(key),
                    move |system, m| {
                        m.requests_total.inc();
                        let (resp, errored) = predict_one(system, &env.req, m, ctx);
                        let reply = ResponseEnvelope {
                            client: env.client,
                            id: env.id,
                            trace: env.trace,
                            shard: config.shard_id,
                            resp,
                        };
                        (reply, 1, errored)
                    },
                    |_, _| {},
                )?
            }
            ParsedFrame::Single(req) => self.work(
                ctx,
                req_start_us,
                writer,
                None,
                move |system, m| {
                    m.requests_total.inc();
                    let (response, errored) = predict_one(system, &req, m, ctx);
                    (response, 1, errored)
                },
                |response, elapsed| match response {
                    WireResponse::Ok { .. } => {
                        tlog!(
                            Level::Debug,
                            "controller.request",
                            "served",
                            latency_us = elapsed.as_micros() as u64,
                        );
                    }
                    WireResponse::Err { error } => {
                        tlog!(
                            Level::Warn,
                            "controller.request",
                            "request failed",
                            error = error.to_string(),
                            latency_us = elapsed.as_micros() as u64,
                        );
                    }
                },
            )?,
        }
        Ok(Flow::Continue)
    }
}

impl Serving {
    /// The one path every prediction frame takes: pin the live system,
    /// queue behind the pool, and — on a worker — answer. The three frame
    /// kinds differ only in `compute` (what they predict and count: it
    /// returns the reply, how many requests it answers, and whether any
    /// failed) and `log`; expiry, timing, encoding, the dedup cache
    /// (`dedup`, enveloped frames only), the write and the trace tail are
    /// spelled once, here.
    fn work<R: ToJson>(
        &self,
        ctx: Option<TraceContext>,
        req_start_us: u64,
        writer: &Writer,
        dedup: Option<(u64, u64)>,
        compute: impl FnOnce(&PredictDdl, &Metrics) -> (R, u64, bool) + Send + 'static,
        log: impl FnOnce(&R, Duration) + Send + 'static,
    ) -> std::io::Result<()> {
        let system = self.live.pin();
        let served = Arc::clone(&self.served);
        let cache = Arc::clone(&self.cache);
        let writer_j = writer.clone();
        let ServeConfig { retry_after_ms, trace_slow_ms, .. } = self.config;
        submit_and_wait(
            &self.pool,
            writer,
            retry_after_ms,
            ctx,
            Box::new(move |outcome| {
                let m = metrics();
                if outcome == JobOutcome::Expired {
                    // Never cached: the client's retry should get a real
                    // execution, not a replayed shed.
                    expire_traced(ctx, req_start_us);
                    let _ = writer_j.send(&shed_line(retry_after_ms, ShedReason::Deadline));
                    return;
                }
                let t0 = Instant::now();
                let (reply, answered, errored) = compute(&system, m);
                served.fetch_add(answered, Ordering::Relaxed);
                let s0 = Instant::now();
                let out = encode_reply(&reply);
                if let Some(key) = dedup {
                    cache.put(key, out.clone());
                }
                let _ = writer_j.send(&out);
                finish_traced(ctx, req_start_us, s0.elapsed(), errored, trace_slow_ms);
                let elapsed = t0.elapsed();
                m.request_latency.record_duration(elapsed);
                log(&reply, elapsed);
            }),
        )
    }
}

/// Renders one reply line. A reply only fails to encode when the model
/// produced a non-finite number; the peer then gets a typed error line
/// in place of silence (it is blocked on this reply).
fn encode_reply(reply: &impl ToJson) -> String {
    json::to_string(reply).unwrap_or_else(|e| {
        let error = RequestError::InvalidParams(format!("response not encodable: {e}"));
        json::to_string(&WireResponse::Err { error }).expect("strings always encode")
    })
}

/// Runs one prediction, recording ok/err counters and — when traced —
/// the dispatch span wrapping the inference-stage children recorded by
/// [`PredictDdl::predict_traced`]. Returns the response plus whether it
/// was an error (the tail-sampling trigger).
fn predict_one(
    system: &PredictDdl,
    req: &PredictionRequest,
    m: &Metrics,
    ctx: Option<TraceContext>,
) -> (WireResponse, bool) {
    let dispatch = ctx.map(|c| c.child(stage_id(stages::DISPATCH).wrapping_add(1)));
    let t0 = Instant::now();
    let result = system.predict_traced(req, dispatch);
    let errored = result.is_err();
    if let Some(d) = dispatch {
        let el = t0.elapsed();
        let rec = flight_recorder();
        let start = rec.now_us().saturating_sub(el.as_micros() as u64);
        let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
        rec.record_span(d, stages::DISPATCH, start, el, status);
    }
    let resp = match result {
        Ok(prediction) => {
            m.requests_ok.inc();
            WireResponse::Ok { prediction }
        }
        Err(error) => {
            m.requests_err.inc();
            WireResponse::Err { error }
        }
    };
    (resp, errored)
}

/// Records the trailing spans of one traced request — `serialize` (whose
/// window ends now) and the root `request` span from frame arrival to
/// response write — then applies the tail-sampling verdicts: promote on
/// application error, or as `slow` past the `trace_slow_ms` threshold.
fn finish_traced(
    ctx: Option<TraceContext>,
    req_start_us: u64,
    serialize: Duration,
    errored: bool,
    slow_ms: u64,
) {
    let Some(ctx) = ctx else { return };
    let rec = flight_recorder();
    let end = rec.now_us();
    let s_start = end.saturating_sub(serialize.as_micros() as u64);
    rec.record_stage(ctx, stages::SERIALIZE, s_start, serialize, SpanStatus::Ok);
    let total = Duration::from_micros(end.saturating_sub(req_start_us));
    let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
    rec.record_span(ctx, stages::REQUEST, req_start_us, total, status);
    if errored {
        rec.promote(ctx.trace_id, "error");
    } else if slow_ms > 0 && total.as_millis() as u64 >= slow_ms {
        rec.promote(ctx.trace_id, "slow");
    }
}

/// Records the root span of a traced request that expired in the queue,
/// then re-promotes so the root merges into the already-retained trace
/// (the pool promoted `shed` when it observed the expiry).
fn expire_traced(ctx: Option<TraceContext>, req_start_us: u64) {
    let Some(ctx) = ctx else { return };
    let rec = flight_recorder();
    let total = Duration::from_micros(rec.now_us().saturating_sub(req_start_us));
    rec.record_span(ctx, stages::REQUEST, req_start_us, total, SpanStatus::Expired);
    rec.promote(ctx.trace_id, "shed");
}

/// Server-minted trace ids for sampled (context-free) requests. The top
/// bit marks them as server-minted, keeping them visually distinct from
/// client-minted ids in dumps.
fn next_sampled_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed) | (1 << 63)
}

/// Client-side metric handles.
struct ClientMetrics {
    requests: &'static Counter,
    timeouts: &'static Counter,
    retries: &'static Counter,
    reconnects: &'static Counter,
    mismatches: &'static Counter,
    overloads: &'static Counter,
    shard_moved: &'static Counter,
    route_refreshes: &'static Counter,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ClientMetrics {
        requests: pddl_telemetry::counter("controller_client.requests"),
        timeouts: pddl_telemetry::counter("controller_client.timeouts"),
        retries: pddl_telemetry::counter("controller_client.retries"),
        reconnects: pddl_telemetry::counter("controller_client.reconnects"),
        mismatches: pddl_telemetry::counter("controller_client.response_mismatches"),
        overloads: pddl_telemetry::counter("controller_client.overloads"),
        shard_moved: pddl_telemetry::counter("controller_client.shard_moved"),
        route_refreshes: pddl_telemetry::counter("controller_client.route_refreshes"),
    })
}

/// A process-unique-ish session token for request identities. Collisions
/// across processes are harmless (the dedup cache would merely replay a
/// response to a client that provably sent the same session+id).
fn session_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let t = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ NEXT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        ^ ((std::process::id() as u64) << 32)
}

/// Blocking client for the controller protocol.
pub struct ControllerClient {
    conn: Option<LineConn>,
    addr: SocketAddr,
    timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
    session: u64,
    next_id: u64,
    last_shard: Option<u64>,
    route: Option<RouteTable>,
}

impl ControllerClient {
    /// Connects without timeouts: a dead or stalled server blocks
    /// indefinitely. Prefer [`Self::connect_with_timeout`] for anything
    /// beyond tests on localhost, and [`Self::connect_resilient`] when the
    /// transport itself is unreliable.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut client = Self::disconnected(addr, None, None);
        client.ensure_conn()?;
        Ok(client)
    }

    /// Connects with `timeout` applied to the TCP connect and to every
    /// subsequent read and write. Timed-out requests surface as
    /// `TimedOut`/`WouldBlock` errors and are counted in the
    /// `controller_client.timeouts` counter.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let mut client = Self::disconnected(addr, Some(timeout), None);
        client.ensure_conn()?;
        Ok(client)
    }

    /// Connects under `policy`: every [`Self::predict`] is wrapped in a
    /// [`RequestEnvelope`] with a fresh `(session, id)` identity and
    /// retried with capped jittered exponential backoff on transport
    /// failures, per-attempt deadlines, and reconnection. Combined with
    /// the controller's response cache this gives exactly-once results: a
    /// retried request whose original reply was lost replays the cached
    /// response instead of recomputing.
    ///
    /// The initial TCP connect is itself retried under the policy, so a
    /// resilient client can be created before its controller is up.
    pub fn connect_resilient(addr: SocketAddr, policy: RetryPolicy) -> std::io::Result<Self> {
        let mut client =
            Self::disconnected(addr, Some(policy.attempt_timeout), Some(policy));
        let mut backoff = Backoff::new(policy);
        loop {
            match client.ensure_conn() {
                Ok(_) => return Ok(client),
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

    fn disconnected(
        addr: SocketAddr,
        timeout: Option<Duration>,
        retry: Option<RetryPolicy>,
    ) -> Self {
        Self {
            conn: None,
            addr,
            timeout,
            retry,
            session: session_token(),
            next_id: 1,
            last_shard: None,
            route: None,
        }
    }

    /// The shard id echoed by the most recent enveloped response or
    /// `{"op":"stats"}` reply, if the peer declared one. `None` against
    /// unsharded controllers or before the first answered request —
    /// previous client versions silently dropped this response field.
    pub fn last_shard(&self) -> Option<u64> {
        self.last_shard
    }

    /// The most recently fetched [`RouteTable`], if any — populated by
    /// [`Self::route_table`] and refreshed automatically when a resilient
    /// predict observes a typed `shard_moved` reply.
    pub fn cached_route(&self) -> Option<&RouteTable> {
        self.route.as_ref()
    }

    /// Fetches the peer's route table (`{"op":"route_table"}` on the
    /// wire) and caches it ([`Self::cached_route`]). Against a router
    /// this is the live fleet membership; against a bare controller it is
    /// the one-entry identity table.
    pub fn route_table(&mut self) -> std::io::Result<RouteTable> {
        let resp = self.round_trip("{\"op\":\"route_table\"}")?;
        let table = RouteTable::from_line(&resp).map_err(invalid_data)?;
        client_metrics().route_refreshes.inc();
        self.route = Some(table.clone());
        Ok(table)
    }

    /// Asks the controller to hot-swap to registry version `version`
    /// (latest when `None`) — `{"op":"reload"}` on the wire. The outer
    /// `Result` is transport failure; the inner one is the server's
    /// verdict: `Ok(reply)` when the swap committed (or the target was
    /// already live), `Err(reason)` when the candidate was rejected and
    /// the old model kept serving.
    pub fn reload(
        &mut self,
        version: Option<u64>,
    ) -> std::io::Result<Result<ReloadReply, String>> {
        let line = json::object(|o| o.field("op", "reload").optional("version", &version))?;
        let resp = self.round_trip(&line)?;
        if let Some(reason) = reload_rejected_from_line(&resp) {
            return Ok(Err(reason));
        }
        ReloadReply::from_line(&resp)
            .map(Ok)
            .map_err(invalid_data)
    }

    /// Reports a completed job's measured runtime for the request it was
    /// predicted from — `{"op":"observe"}` on the wire. The outer `Result`
    /// is transport failure; the inner one is the server's verdict:
    /// `Ok(reply)` when the observation was folded into the controller's
    /// [`ObservationSink`], `Err(reason)` when it was rejected (non-positive
    /// runtime, or the live model could not re-predict the request). A
    /// non-finite `actual_secs` has no JSON spelling and fails here, as
    /// `InvalidData`, before anything is sent.
    pub fn observe(
        &mut self,
        req: &PredictionRequest,
        actual_secs: f64,
    ) -> std::io::Result<Result<ObserveReply, String>> {
        let line = json::object(|o| {
            o.field("op", "observe").field("req", req).field("actual_secs", &actual_secs)
        })?;
        let resp = self.round_trip(&line)?;
        if let Some(reason) = observe_rejected_from_line(&resp) {
            return Ok(Err(reason));
        }
        ObserveReply::from_line(&resp).map(Ok).map_err(invalid_data)
    }

    /// Opens the TCP connection if none is live.
    fn ensure_conn(&mut self) -> std::io::Result<&mut LineConn> {
        if self.conn.is_none() {
            let conn = LineConn::connect(self.addr, self.timeout, self.timeout);
            self.conn = Some(conn.inspect_err(|_| {
                if self.timeout.is_some() {
                    client_metrics().timeouts.inc();
                }
            })?);
        }
        self.conn.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "connection unavailable")
        })
    }

    /// Sends one request and waits for the response. Under
    /// [`Self::connect_resilient`], the request is id-wrapped and retried
    /// on transport failures (see [`RequestEnvelope`]).
    pub fn predict(
        &mut self,
        req: &PredictionRequest,
    ) -> std::io::Result<Result<Prediction, RequestError>> {
        if let Some(policy) = self.retry {
            return self.predict_resilient(req, policy, None);
        }
        let line = json::to_string(req)?;
        let resp = self.round_trip(&line)?;
        if let Some(e) = overload_from_line(&resp) {
            // The server shed the request (transient, retryable); the
            // connection stays open. Plain clients surface the error.
            client_metrics().overloads.inc();
            return Err(e);
        }
        if let Some(e) = shard_moved_from_line(&resp) {
            // Router re-route signal; plain clients surface it (resilient
            // clients refresh the route table and retry).
            client_metrics().shard_moved.inc();
            return Err(e);
        }
        let wire: WireResponse = json::from_str(resp.trim_end())?;
        Ok(match wire {
            WireResponse::Ok { prediction } => Ok(prediction),
            WireResponse::Err { error } => Err(error),
        })
    }

    /// The enveloped, retrying predict path. A response is accepted only
    /// if it parses as a [`ResponseEnvelope`] echoing this exact
    /// `(session, id)` — anything else (corrupt frame, stale reply on a
    /// resynchronized stream, the controller's un-id'd malformed-frame
    /// error) drops the connection and retries. Replays hit the
    /// controller's response cache, so results arrive exactly once.
    fn predict_resilient(
        &mut self,
        req: &PredictionRequest,
        policy: RetryPolicy,
        trace: Option<TraceContext>,
    ) -> std::io::Result<Result<Prediction, RequestError>> {
        let cm = client_metrics();
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope {
            client: self.session,
            id,
            trace: trace.map(TraceHeader::from),
            req: req.clone(),
        };
        let line = json::to_string(&envelope)?;
        // Mix the request id into the jitter stream so concurrent requests
        // back off on decorrelated schedules.
        let mut backoff = Backoff::new(RetryPolicy {
            jitter_seed: policy.jitter_seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407),
            ..policy
        });
        let mut last_err: std::io::Error;
        loop {
            let was_connected = self.conn.is_some();
            match self.round_trip(&line) {
                Ok(resp) => {
                    if let Some(e) = overload_from_line(&resp) {
                        // Typed shed: the server kept the connection open,
                        // so back off (honoring its retry_after hint
                        // below) without reconnecting.
                        cm.overloads.inc();
                        last_err = e;
                    } else if let Some(e) = shard_moved_from_line(&resp) {
                        // The routed shard died before answering. The
                        // router has already absorbed the death (the
                        // reply carries the new epoch), so refresh the
                        // cached route table — best effort; the retry
                        // itself is what must land — and go again: the
                        // retry routes to the replacement shard, whose
                        // dedup cache keeps the result exactly-once.
                        cm.shard_moved.inc();
                        let _ = self.route_table();
                        last_err = e;
                    } else {
                        match json::from_str::<ResponseEnvelope>(resp.trim_end()) {
                            Ok(renv) if renv.client == self.session && renv.id == id => {
                                self.last_shard = renv.shard.or(self.last_shard);
                                return Ok(match renv.resp {
                                    WireResponse::Ok { prediction } => Ok(prediction),
                                    WireResponse::Err { error } => Err(error),
                                });
                            }
                            _ => {
                                // Corrupted or mismatched reply: the stream
                                // can no longer be trusted to be in sync.
                                cm.mismatches.inc();
                                self.conn = None;
                                last_err = std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    "response did not echo the request identity",
                                );
                            }
                        }
                    }
                }
                Err(e) if is_transient(&e) => {
                    self.conn = None;
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
            match backoff.next_delay() {
                Some(delay) => {
                    cm.retries.inc();
                    // Count a reconnect only when the connection was
                    // actually lost (an overload shed keeps it open).
                    if was_connected && self.conn.is_none() {
                        cm.reconnects.inc();
                    }
                    // The server's pacing hint is a floor under the
                    // jittered backoff, capped by the policy so a bogus
                    // hint cannot stall the client.
                    let floor = overload_retry_hint(&last_err)
                        .or_else(|| shard_moved_retry_hint(&last_err))
                        .map(|h| h.min(policy.max_delay))
                        .unwrap_or(Duration::ZERO);
                    std::thread::sleep(delay.max(floor));
                }
                None => return Err(last_err),
            }
        }
    }

    /// Sends a batch of requests as one JSON-array line and waits for the
    /// JSON array of per-request responses (request order is preserved).
    /// Server-side the batch fans out across the work pool. Batch frames
    /// are not id-wrapped; under an unreliable transport, prefer repeated
    /// [`Self::predict`] calls on a resilient client.
    pub fn predict_batch(
        &mut self,
        reqs: &[PredictionRequest],
    ) -> std::io::Result<Vec<Result<Prediction, RequestError>>> {
        let line = json::to_string(reqs)?;
        let resp = self.round_trip(&line)?;
        if let Some(e) = overload_from_line(&resp) {
            // A shed batch is one overload frame, not an array; the whole
            // batch is retryable as a unit.
            client_metrics().overloads.inc();
            return Err(e);
        }
        let wire: Vec<WireResponse> = json::from_str(resp.trim_end())?;
        Ok(wire
            .into_iter()
            .map(|w| match w {
                WireResponse::Ok { prediction } => Ok(prediction),
                WireResponse::Err { error } => Err(error),
            })
            .collect())
    }

    /// [`Self::predict`] under an explicit trace context: the request is
    /// id-wrapped with `trace` in its header, so the controller records
    /// the full pipeline span tree under the caller's root span and the
    /// response echoes the ids back. On a resilient client every retry
    /// reuses the same context — the deterministic span derivation merges
    /// the attempts into one retained trace.
    pub fn predict_with_trace(
        &mut self,
        req: &PredictionRequest,
        trace: TraceContext,
    ) -> std::io::Result<Result<Prediction, RequestError>> {
        if let Some(policy) = self.retry {
            return self.predict_resilient(req, policy, Some(trace));
        }
        let cm = client_metrics();
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope {
            client: self.session,
            id,
            trace: Some(TraceHeader::from(trace)),
            req: req.clone(),
        };
        let line = json::to_string(&envelope)?;
        let resp = self.round_trip(&line)?;
        if let Some(e) = overload_from_line(&resp) {
            cm.overloads.inc();
            return Err(e);
        }
        if let Some(e) = shard_moved_from_line(&resp) {
            cm.shard_moved.inc();
            return Err(e);
        }
        let renv: ResponseEnvelope = json::from_str(resp.trim_end())?;
        if renv.client != self.session || renv.id != id {
            cm.mismatches.inc();
            self.conn = None;
            return Err(invalid_data(
                "response did not echo the request identity".to_string(),
            ));
        }
        self.last_shard = renv.shard.or(self.last_shard);
        Ok(match renv.resp {
            WireResponse::Ok { prediction } => Ok(prediction),
            WireResponse::Err { error } => Err(error),
        })
    }

    /// Fetches the flight recorder's retained traces (`{"op":"trace"}` on
    /// the wire) as the parsed dump document; decode the trace list with
    /// [`pddl_telemetry::trace::parse_trace_dump`].
    pub fn trace_dump(&mut self) -> std::io::Result<pddl_telemetry::JsonValue> {
        let resp = self.round_trip("{\"op\":\"trace\"}")?;
        let doc = pddl_telemetry::JsonValue::parse(resp.trim_end())
            .map_err(invalid_data)?;
        if doc.get("status").and_then(|s| s.as_str()) != Some("trace") {
            return Err(invalid_data("response is not a trace payload".to_string()));
        }
        Ok(doc)
    }

    /// Fetches the controller's metrics as Prometheus text exposition
    /// (`{"op":"metrics"}` on the wire).
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let resp = self.round_trip("{\"op\":\"metrics\"}")?;
        let doc = pddl_telemetry::JsonValue::parse(resp.trim_end())
            .map_err(invalid_data)?;
        if doc.get("status").and_then(|s| s.as_str()) != Some("metrics") {
            return Err(invalid_data("response is not a metrics payload".to_string()));
        }
        doc.get("exposition")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| invalid_data("metrics response missing 'exposition'".to_string()))
    }

    /// Requests a live telemetry snapshot from the controller
    /// (`{"op":"stats"}` on the wire).
    pub fn stats(&mut self) -> std::io::Result<Snapshot> {
        let resp = self.round_trip("{\"op\":\"stats\"}")?;
        let doc = pddl_telemetry::JsonValue::parse(resp.trim_end())
            .map_err(invalid_data)?;
        if doc.get("status").and_then(|s| s.as_str()) != Some("stats") {
            return Err(invalid_data("response is not a stats payload".to_string()));
        }
        // Sharded controllers stamp their id on the stats line; surface
        // it instead of silently dropping the unknown field.
        if let Some(shard) = doc.get("shard").and_then(|v| v.as_u64()) {
            self.last_shard = Some(shard);
        }
        let snapshot = doc.get("snapshot").ok_or_else(|| {
            invalid_data("stats response missing 'snapshot'".to_string())
        })?;
        Snapshot::from_value(snapshot).map_err(invalid_data)
    }

    /// Writes one line, reads one line; counts requests and timeouts.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let m = client_metrics();
        m.requests.inc();
        let io = |e: std::io::Error| {
            if matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) {
                m.timeouts.inc();
            }
            e
        };
        self.ensure_conn().map_err(io)?.exchange(line).map_err(io)
    }
}

fn invalid_data(e: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}
