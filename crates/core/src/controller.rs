//! The Controller (§III-D): "the entry point to train GHN models and to
//! predict the training time of a DNN architecture. The controller has a
//! listener to receive and forward incoming requests to the Task Checker."
//!
//! The Listener speaks newline-delimited JSON over TCP. Each connection may
//! send any number of requests and receives one response line per request.
//! A line holding a JSON *array* of prediction requests is a batch: the
//! controller fans the batch out across the [`pddl_par`] work pool and
//! answers with one JSON array of responses in request order. Besides
//! prediction requests, the wire protocol carries five control ops, each
//! answered inline by the reader so they stay available during overload:
//!
//! * `{"op":"stats"}` — a live JSON snapshot of the telemetry registry
//!   (see `OPERATIONS.md` for the metric catalogue);
//! * `{"op":"trace"}` — the flight recorder's retained traces
//!   ([`pddl_telemetry::trace::FlightRecorder::dump`]);
//! * `{"op":"route_table"}` — the shard's one-entry identity
//!   [`RouteTable`] (the `pddl-router` process answers the same op with
//!   the live fleet membership);
//! * `{"op":"reload"}` — hot-swap the serving model to a checkpoint-
//!   registry version (see below);
//! * `{"op":"observe"}` — feed a completed job's measured runtime into
//!   the continual-refit loop ([`crate::observe`]).
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
//! context (0 disables). Every request times each pipeline stage once —
//! frame decode, queue wait (in [`crate::serve`]), worker dispatch,
//! embedding-cache probe (hit/miss), GHN forward pass on a miss,
//! regression, response serialization — into that stage's
//! `trace.stage.<name>` histogram; a traced request also records each
//! (plus an accept marker) as a child span in the process-wide lock-free
//! flight recorder. Traces that end badly
//! (shed, expired, application error) or slowly (`trace_slow_ms`) are
//! tail-promoted into the bounded retained set served by `{"op":"trace"}`
//! and rendered by the CLI `trace` subcommand.
//!
//! ## Bounded serving core
//!
//! Connections are accepted by a single acceptor thread and read by cheap
//! per-connection reader threads (capped at `max_connections`): that part
//! is the [`pddl_cluster::wire::Listener`] the router also runs on, and the
//! controller is the [`Handler`] behind it. The *work* runs on a fixed pool
//! of worker threads consuming a bounded FIFO admission queue
//! ([`crate::serve::ServePool`]). A full queue sheds the request
//! immediately with a typed `{"error":"overloaded","retry_after_ms":...}`
//! reply — the same reply a request gets if it waits in the queue past the
//! configured deadline, or a connection gets past the connection cap.
//! Overload replies are classified as transient by
//! [`pddl_cluster::retry::is_transient`], so
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
//! [`RequestEnvelope`] carries a `(client, id)` identity that the reply
//! echoes, so [`ControllerClient::connect_resilient`] can match a reply
//! to its request across retries. The controller keeps no per-identity
//! state: a retried identity is recomputed on the model live when it
//! arrives, which returns the original bits unless a reload swapped the
//! model in between. Under a [`ServeConfig::fault_plan`] (see
//! [`pddl_faults`]), every accepted connection wears deterministic fault
//! injectors.

pub use crate::protocol::{
    parse_frame, ParsedFrame, RequestEnvelope, ResponseEnvelope, TraceHeader, WireResponse,
};

use crate::observe::ObservationSink;
use crate::offline::PredictDdl;
use crate::protocol::{
    frame_too_long_line, ErrorReply, ObserveReply, ReloadReply, RouteShard, RouteTable,
    ShedReason, StatsReply,
};
use crate::reload::{LiveSystem, ReloadManager, ReloadOutcome};
use crate::request::{Prediction, PredictionRequest, RequestError};
use crate::serve::{JobOutcome, Latch, OpenOnDrop, ServeConfig, ServePool, SubmitError};
use pddl_cluster::retry::{is_transient, Backoff, RetryPolicy};
use pddl_cluster::wire::{Handler, LineConn, Listener, Writer};
use pddl_telemetry::json::{self, ToJson};
use pddl_telemetry::trace::TraceDump;
use pddl_telemetry::{
    flight_recorder, tlog, Counter, Histogram, Level, SpanStatus, Stage, TraceContext,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Controller-side metric handles, resolved once (increments stay
/// lock-free on the request path). The connection metrics
/// (`controller.connections_total` and friends) are the listener's.
struct Metrics {
    requests_total: &'static Counter,
    requests_ok: &'static Counter,
    requests_err: &'static Counter,
    reload_requests: &'static Counter,
    observe_requests: &'static Counter,
    traced_requests: &'static Counter,
    shed_queue_full: &'static Counter,
    shed_deadline: &'static Counter,
    shed_connection_limit: &'static Counter,
    shed_draining: &'static Counter,
    batch_requests: &'static Counter,
    malformed_frames: &'static Counter,
    request_latency: &'static Histogram,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        requests_total: pddl_telemetry::counter("controller.requests_total"),
        requests_ok: pddl_telemetry::counter("controller.requests_ok"),
        requests_err: pddl_telemetry::counter("controller.requests_err"),
        reload_requests: pddl_telemetry::counter("controller.reload_requests"),
        observe_requests: pddl_telemetry::counter("controller.observe_requests"),
        traced_requests: pddl_telemetry::counter("controller.traced_requests"),
        shed_queue_full: pddl_telemetry::counter("controller.shed.queue_full"),
        shed_deadline: pddl_telemetry::counter("controller.shed.deadline"),
        shed_connection_limit: pddl_telemetry::counter("controller.shed.connection_limit"),
        shed_draining: pddl_telemetry::counter("controller.shed.draining"),
        batch_requests: pddl_telemetry::counter("controller.batch_requests"),
        malformed_frames: pddl_telemetry::counter("controller.malformed_frames"),
        request_latency: pddl_telemetry::histogram("controller.request_latency"),
    })
}

/// The typed overload reply plus accounting: every shed is attributed to its
/// cause under `controller.shed.<reason>`, so a dashboard (or the load
/// generator's report) can tell a full queue from expired deadlines.
fn shed_line(retry_after_ms: u64, reason: ShedReason) -> String {
    let m = metrics();
    match reason {
        ShedReason::QueueFull => m.shed_queue_full.inc(),
        ShedReason::Deadline => m.shed_deadline.inc(),
        ShedReason::ConnectionLimit => m.shed_connection_limit.inc(),
        ShedReason::Draining => m.shed_draining.inc(),
        // Only the router sheds as unrouteable, and a server always
        // sheds for a reason.
        ShedReason::Unrouteable | ShedReason::Unknown => {}
    }
    ErrorReply::Overloaded { retry_after_ms, reason }.to_line()
}

/// A running prediction service. Dropping the handle drains and stops it.
pub struct Controller {
    listener: Listener,
    requests_served: Arc<AtomicU64>,
    pool: Arc<ServePool>,
    live: Arc<LiveSystem>,
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
        let pool = Arc::new(ServePool::start(config));
        let handler = Serving {
            live: Arc::clone(&live),
            reload,
            sink: ObservationSink::new(),
            served: Arc::clone(&requests_served),
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
        Ok(Self { listener, requests_served, pool, live })
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

    /// Total requests answered by computation, retries included (shed
    /// and expired requests are counted in `controller.requests_shed` /
    /// `controller.requests_expired`).
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Reader threads currently attached to live connections. Returns to
    /// zero once every client disconnects, with no accept traffic needed.
    pub fn live_connections(&self) -> usize {
        self.listener.connections()
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
        let dump = flight_recorder().dump();
        if !dump.retained.is_empty() {
            tlog!(
                Level::Info,
                "controller",
                "retained traces at drain",
                count = dump.retained.len() as u64,
                suppressed = dump.suppressed,
            );
            tlog!(Level::Debug, "controller", "trace dump", dump = dump.to_line());
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
    sink: ObservationSink,
    served: Arc<AtomicU64>,
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

    fn frame(&self, conn: &mut ConnState, line: String, writer: &Writer) -> std::io::Result<()> {
        let m = metrics();
        let config = self.config;
        let arrived = Instant::now();
        let frame = match parse_frame(&line) {
            Ok(frame) => frame,
            Err(detail) => {
                m.malformed_frames.inc();
                m.requests_total.inc();
                m.requests_err.inc();
                self.served.fetch_add(1, Ordering::Relaxed);
                let response =
                    WireResponse::Err { error: RequestError::InvalidParams(detail) };
                return writer.send(&encode_reply(&response));
            }
        };
        let decode = arrived.elapsed();
        // Trace decision: an explicit client context always traces;
        // otherwise every `trace_sample`-th work frame on this connection
        // gets a server-minted root (0 disables sampling). Control ops
        // are never traced.
        let ctx = match &frame {
            ParsedFrame::Stats
            | ParsedFrame::Trace
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
        if let Some(ctx) = ctx {
            m.traced_requests.inc();
            if !conn.accept_marked {
                // Zero-length marker anchoring the waterfall at the
                // moment this connection was accepted.
                flight_recorder().record(
                    Stage::Accept,
                    Some(Stage::Accept.child_of(ctx)),
                    conn.accepted_us,
                    Duration::ZERO,
                    SpanStatus::Ok,
                );
                conn.accept_marked = true;
            }
        }
        Stage::FrameRead.record(ctx, decode, SpanStatus::Ok);
        match frame {
            // Control ops: answered inline by the reader, never queued or
            // shed — stats and traces stay observable *during* overload.
            ParsedFrame::Stats => {
                let snapshot = pddl_telemetry::snapshot();
                writer.send(&StatsReply { shard: config.shard_id, snapshot }.to_line())?;
            }
            // A bare controller answers the route-table op with its own
            // one-entry identity table at epoch 0: clients can always ask
            // "who am I talking to", router or not.
            ParsedFrame::RouteTable => {
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
                writer.send(&flight_recorder().dump().to_line())?;
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
                        Err(rej) => ErrorReply::ReloadRejected { reason: rej.reason }.to_line(),
                    },
                    None => ErrorReply::ReloadRejected { reason: "no_registry".into() }.to_line(),
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
                let reject = |reason: String| ErrorReply::ObserveRejected { reason }.to_line();
                let out = if !(actual_secs.is_finite() && actual_secs > 0.0) {
                    reject("non_positive_runtime".into())
                } else {
                    match self.live.pin().predict(&req) {
                        Ok(pred) if pred.seconds > 0.0 => {
                            let servers = req.cluster.servers.len();
                            self.sink.record(pred.seconds, actual_secs, servers).to_line()
                        }
                        Ok(_) => reject("non_positive_prediction".into()),
                        Err(e) => reject(format!("prediction_failed: {e}")),
                    }
                };
                writer.send(&out)?;
            }
            // Batch requests: a JSON *array* of prediction requests. One
            // queue slot per batch; the per-request work still fans out
            // across the work pool via [`PredictDdl::predict_many`].
            ParsedFrame::Batch(reqs) => self.work(
                ctx,
                arrived,
                writer,
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
                    // One dispatch span for the whole batch; the
                    // per-request fan-out happens inside predict_many and
                    // is not traced separately.
                    let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
                    Stage::Dispatch.record(ctx, dispatch_el, status);
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
            // Id-wrapped single request: `Single` plus the identity echo. A
            // retried identity is recomputed on the live model.
            ParsedFrame::Enveloped(env) => self.work(
                ctx,
                arrived,
                writer,
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
            )?,
            ParsedFrame::Single(req) => self.work(
                ctx,
                arrived,
                writer,
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
        Ok(())
    }
}

impl Serving {
    /// The one path every prediction frame takes: pin the live system,
    /// queue behind the pool, and — on a worker — answer. The three frame
    /// kinds differ only in `compute` (what they predict and count: it
    /// returns the reply, how many requests it answers, and whether any
    /// failed) and `log`; expiry, timing, encoding, the write and the
    /// request's trailing stages are spelled once, here. `arrived` is
    /// when the frame came off the socket: the root `request` span
    /// starts there.
    fn work<R: ToJson>(
        &self,
        ctx: Option<TraceContext>,
        arrived: Instant,
        writer: &Writer,
        compute: impl FnOnce(&PredictDdl, &Metrics) -> (R, u64, bool) + Send + 'static,
        log: impl FnOnce(&R, Duration) + Send + 'static,
    ) -> std::io::Result<()> {
        let system = self.live.pin();
        let served = Arc::clone(&self.served);
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
                    expire(ctx, arrived);
                    let _ = writer_j.send(&shed_line(retry_after_ms, ShedReason::Deadline));
                    return;
                }
                let t0 = Instant::now();
                let (reply, answered, errored) = compute(&system, m);
                served.fetch_add(answered, Ordering::Relaxed);
                let s0 = Instant::now();
                let out = encode_reply(&reply);
                let _ = writer_j.send(&out);
                finish(ctx, arrived, s0.elapsed(), errored, trace_slow_ms);
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

/// Runs one prediction, recording ok/err counters and the `dispatch`
/// stage wrapping the inference stages recorded by
/// [`PredictDdl::predict_traced`] (its children when traced). Returns
/// the response plus whether it was an error (the tail-sampling trigger).
fn predict_one(
    system: &PredictDdl,
    req: &PredictionRequest,
    m: &Metrics,
    ctx: Option<TraceContext>,
) -> (WireResponse, bool) {
    let t0 = Instant::now();
    let result = system.predict_traced(req, ctx.map(|c| Stage::Dispatch.child_of(c)));
    let errored = result.is_err();
    let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
    Stage::Dispatch.record(ctx, t0.elapsed(), status);
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

/// Records the trailing stages of one request — `serialize` (whose
/// window ends now) and the root `request` from frame arrival to response
/// write — then applies the tail-sampling verdicts to a traced one:
/// promote on application error, or as `slow` past the `trace_slow_ms`
/// threshold.
fn finish(
    ctx: Option<TraceContext>,
    arrived: Instant,
    serialize: Duration,
    errored: bool,
    slow_ms: u64,
) {
    Stage::Serialize.record(ctx, serialize, SpanStatus::Ok);
    let total = arrived.elapsed();
    let status = if errored { SpanStatus::Error } else { SpanStatus::Ok };
    Stage::Request.record_as(ctx, total, status);
    let Some(ctx) = ctx else { return };
    if errored {
        flight_recorder().promote(ctx.trace_id, "error");
    } else if slow_ms > 0 && total.as_millis() as u64 >= slow_ms {
        flight_recorder().promote(ctx.trace_id, "slow");
    }
}

/// Records the root `request` of a request that expired in the queue,
/// then re-promotes a traced one so the root merges into the already-
/// retained trace (the pool promoted `shed` when it observed the expiry).
fn expire(ctx: Option<TraceContext>, arrived: Instant) {
    Stage::Request.record_as(ctx, arrived.elapsed(), SpanStatus::Expired);
    if let Some(ctx) = ctx {
        flight_recorder().promote(ctx.trace_id, "shed");
    }
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

/// A process-unique-ish token for one client's request identities, kept
/// across its reconnects. Collisions across processes are harmless: the
/// controller keeps no per-identity state, so a reused identity is
/// simply computed again.
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
    /// `TimedOut` errors (a stalled write as `WouldBlock`), are counted in
    /// the `controller_client.timeouts` counter, and drop the connection:
    /// the next call dials afresh rather than read the late reply.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let mut client = Self::disconnected(addr, Some(timeout), None);
        client.ensure_conn()?;
        Ok(client)
    }

    /// Connects under `policy`: every [`Self::predict`] is wrapped in a
    /// [`RequestEnvelope`] with a fresh `(session, id)` identity and
    /// retried with capped jittered exponential backoff on transport
    /// failures, per-attempt deadlines, and reconnection. Each call
    /// returns exactly one result: a retry whose original reply was lost
    /// is recomputed, and predictions are a pure function of the request
    /// and the live model.
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
        if let Some(ErrorReply::ReloadRejected { reason }) = ErrorReply::from_line(&resp) {
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
        if let Some(ErrorReply::ObserveRejected { reason }) = ErrorReply::from_line(&resp) {
            return Ok(Err(reason));
        }
        ObserveReply::from_line(&resp).map(Ok).map_err(invalid_data)
    }

    /// Opens the TCP connection if none is live.
    fn ensure_conn(&mut self) -> std::io::Result<&mut LineConn> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => LineConn::connect(self.addr, self.timeout, self.timeout).inspect_err(|_| {
                if self.timeout.is_some() {
                    client_metrics().timeouts.inc();
                }
            })?,
        };
        Ok(self.conn.insert(conn))
    }

    /// Sends one request and waits for the response. Under
    /// [`Self::connect_resilient`], the request is id-wrapped and retried
    /// on transport failures (see [`RequestEnvelope`]).
    pub fn predict(
        &mut self,
        req: &PredictionRequest,
    ) -> std::io::Result<Result<Prediction, RequestError>> {
        if let Some(policy) = self.retry {
            return self.enveloped(req, None, policy);
        }
        let resp = self.round_trip(&json::to_string(req)?)?;
        Ok(outcome(json::from_str(&resp)?))
    }

    /// Sends a batch of requests as one JSON-array line and waits for the
    /// JSON array of per-request responses (request order is preserved).
    /// Server-side the batch fans out across the work pool. Batch frames
    /// are not id-wrapped; under an unreliable transport, prefer repeated
    /// [`Self::predict`] calls on a resilient client. A shed batch is one
    /// overload line, not an array: the whole batch is retryable as a
    /// unit.
    pub fn predict_batch(
        &mut self,
        reqs: &[PredictionRequest],
    ) -> std::io::Result<Vec<Result<Prediction, RequestError>>> {
        let resp = self.round_trip(&json::to_string(reqs)?)?;
        let wire: Vec<WireResponse> = json::from_str(&resp)?;
        Ok(wire.into_iter().map(outcome).collect())
    }

    /// [`Self::predict`] under an explicit trace context: the request is
    /// id-wrapped with `trace` in its header, so the controller records
    /// the full pipeline span tree under the caller's root span and the
    /// response echoes the ids back. On a resilient client every retry
    /// reuses the same context — the deterministic span derivation merges
    /// the attempts into one retained trace; a plain client makes one
    /// attempt.
    pub fn predict_with_trace(
        &mut self,
        req: &PredictionRequest,
        trace: TraceContext,
    ) -> std::io::Result<Result<Prediction, RequestError>> {
        let one_attempt = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        self.enveloped(req, Some(trace), self.retry.unwrap_or(one_attempt))
    }

    /// The enveloped predict path: one `(session, id)` identity for up to
    /// `policy.max_attempts` attempts. A response is accepted only if it
    /// parses as a [`ResponseEnvelope`] echoing that identity — anything
    /// else (corrupt frame, stale reply on a resynchronized stream, the
    /// controller's un-id'd malformed-frame error) drops the connection
    /// and counts as a failed attempt, as do transient errors. A retry
    /// is recomputed by whichever shard receives it, so each call still
    /// returns exactly one result.
    fn enveloped(
        &mut self,
        req: &PredictionRequest,
        trace: Option<TraceContext>,
        policy: RetryPolicy,
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
        loop {
            let was_connected = self.conn.is_some();
            let err = match self.round_trip(&line) {
                Ok(resp) => match json::from_str::<ResponseEnvelope>(&resp) {
                    Ok(renv) if renv.client == self.session && renv.id == id => {
                        self.last_shard = renv.shard.or(self.last_shard);
                        return Ok(outcome(renv.resp));
                    }
                    _ => {
                        // Corrupted or mismatched reply: the stream can no
                        // longer be trusted to be in sync.
                        cm.mismatches.inc();
                        self.conn = None;
                        invalid_data("response did not echo the request identity".to_string())
                    }
                },
                Err(e) if is_transient(&e) => e,
                Err(e) => return Err(e),
            };
            let Some(delay) = backoff.next_delay() else { return Err(err) };
            cm.retries.inc();
            // Count a reconnect only when the connection was actually lost
            // (an overload shed keeps it open).
            if was_connected && self.conn.is_none() {
                cm.reconnects.inc();
            }
            let reply = ErrorReply::of(&err);
            if let Some(ErrorReply::ShardMoved { .. }) = reply {
                // The routed shard died before answering and the router
                // has absorbed the death (the reply carries the new
                // epoch): refresh the cached route table — best effort;
                // the retry itself is what must land, on the replacement
                // shard, which recomputes it.
                let _ = self.route_table();
            }
            // The server's pacing hint is a floor under the jittered
            // backoff, capped by the policy so a bogus hint cannot stall
            // the client.
            let floor = reply
                .and_then(ErrorReply::retry_after)
                .map_or(Duration::ZERO, |h| h.min(policy.max_delay));
            std::thread::sleep(delay.max(floor));
        }
    }

    /// Fetches the flight recorder's retained traces (`{"op":"trace"}` on
    /// the wire).
    pub fn trace_dump(&mut self) -> std::io::Result<TraceDump> {
        let resp = self.round_trip("{\"op\":\"trace\"}")?;
        TraceDump::from_line(&resp).map_err(invalid_data)
    }

    /// Requests a live telemetry snapshot from the controller
    /// (`{"op":"stats"}` on the wire). A sharded controller's id is also
    /// remembered as [`Self::last_shard`].
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        let resp = self.round_trip("{\"op\":\"stats\"}")?;
        let reply = StatsReply::from_line(&resp).map_err(invalid_data)?;
        self.last_shard = reply.shard.or(self.last_shard);
        Ok(reply)
    }

    /// The one reply path: writes one line, reads one line, counts the
    /// request, and classifies the reply once. A typed overload or
    /// `shard_moved` line becomes its transient error (counted; the
    /// connection stays open). Any transport error drops the connection,
    /// so a reply that arrives after a timeout is never read as the
    /// answer to the next request.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let m = client_metrics();
        m.requests.inc();
        let resp = match self.ensure_conn().and_then(|conn| conn.exchange(line)) {
            Ok(resp) => resp,
            Err(e) => {
                use std::io::ErrorKind::{TimedOut, WouldBlock};
                if matches!(e.kind(), TimedOut | WouldBlock) {
                    m.timeouts.inc();
                }
                self.conn = None;
                return Err(e);
            }
        };
        let (counter, reply) = match ErrorReply::from_line(&resp) {
            Some(reply @ ErrorReply::Overloaded { .. }) => (&m.overloads, reply),
            Some(reply @ ErrorReply::ShardMoved { .. }) => (&m.shard_moved, reply),
            _ => return Ok(resp),
        };
        counter.inc();
        Err(reply.into())
    }
}

fn outcome(wire: WireResponse) -> Result<Prediction, RequestError> {
    match wire {
        WireResponse::Ok { prediction } => Ok(prediction),
        WireResponse::Err { error } => Err(error),
    }
}

fn invalid_data(e: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}
