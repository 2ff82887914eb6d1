//! The controller-plane wire protocol: every type that crosses the TCP
//! boundary between clients, the router, and controller shards.
//!
//! The protocol is newline-delimited JSON over TCP, frames bounded at
//! [`pddl_cluster::MAX_FRAME_BYTES`]. This module owns the *shapes* —
//! request/response envelopes, control ops, typed error lines — while
//! [`crate::controller`] owns the serving loop that speaks them and
//! `pddl-router` forwards them between processes. `PROTOCOL.md` at the
//! repository root is the operator-facing reference: it documents every
//! op in [`WIRE_OPS`] with complete request and reply lines, and the
//! tier-1 test `protocol_docs` (`tests/protocol_docs.rs`) replays every
//! one of them through this module, so neither side can drift.
//!
//! ## Frame taxonomy
//!
//! A request line is parsed once and classified by shape — see
//! [`parse_frame`] — into one of:
//!
//! * a bare [`PredictionRequest`] object (`predict`);
//! * a JSON array of requests (`predict_batch`);
//! * a [`RequestEnvelope`] with a `(client, id)` identity and optional
//!   [`TraceHeader`] (`predict_envelope` — the retry path);
//! * a control op — any object with an `"op"` key: `stats`, `trace`,
//!   `route_table`, `reload`, `observe` — answered inline by
//!   the connection reader so they stay available during overload.
//!
//! ## Typed error lines
//!
//! The four `{"error":"<kind>",…}` refusals — the overload shed, the
//! router's re-route signal, and the reload and observe rejections — are
//! one type, [`ErrorReply`], with one codec: [`ErrorReply::to_line`]
//! renders and [`ErrorReply::from_line`] recognises them, so resilient
//! clients classify without string matching. The two transient kinds
//! convert into a `WouldBlock` [`std::io::Error`] carrying the reply,
//! which [`pddl_cluster::retry::is_transient`] approves for retry and
//! [`ErrorReply::of`] reads back.

use crate::request::{PredictionRequest, RequestError};
use pddl_telemetry::json::{self, Fields, FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use pddl_telemetry::{Snapshot, TraceContext};
use std::time::Duration;

/// Every operation the controller-plane wire protocol carries, in the
/// order PROTOCOL.md documents them. The first three are the prediction
/// frame shapes (no `"op"` tag on the wire — they are distinguished
/// structurally); the other five are the `{"op":…}` control frames.
/// `tests/protocol_docs.rs` requires a
/// ``### `<op>` `` section in PROTOCOL.md for each entry, holding at
/// least one complete request line and one complete reply line.
pub const WIRE_OPS: &[&str] = &[
    "predict",
    "predict_batch",
    "predict_envelope",
    "stats",
    "trace",
    "route_table",
    "reload",
    "observe",
];

/// Wire response: one object, tagged by `"status"` (`ok` / `err`).
#[derive(Clone, Debug)]
pub enum WireResponse {
    /// Successful prediction.
    Ok {
        /// The prediction payload.
        prediction: crate::request::Prediction,
    },
    /// Rejected or failed request.
    Err {
        /// Why the request failed.
        error: crate::request::RequestError,
    },
}

impl ToJson for WireResponse {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            WireResponse::Ok { prediction } => {
                o.field("status", "ok").field("prediction", prediction)
            }
            WireResponse::Err { error } => o.field("status", "err").field("error", error),
        }
        .end();
    }
}

impl FromJson for WireResponse {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        match o.field::<String>("status")?.as_str() {
            "ok" => Ok(WireResponse::Ok { prediction: o.field("prediction")? }),
            "err" => Ok(WireResponse::Err { error: o.field("error")? }),
            other => Err(JsonError::unknown_variant(other)),
        }
    }
}

/// A prediction request wrapped with a client-chosen identity that the
/// [`ResponseEnvelope`] echoes, so a retrying client can match a reply
/// to its call. The controller keeps no per-identity state: the same
/// identity sent again (e.g. after the original reply was lost in
/// transit) is recomputed on the live model.
#[derive(Clone, Debug)]
pub struct RequestEnvelope {
    /// Client session token (unique per [`crate::ControllerClient`]
    /// instance, kept across its reconnects).
    pub client: u64,
    /// Request number within the session.
    pub id: u64,
    /// Client-minted trace context. When present the request is always
    /// traced (sampling applies only to context-free requests) and the
    /// same ids are echoed on the response. Absent on the wire for
    /// clients that predate tracing.
    pub trace: Option<TraceHeader>,
    /// The wrapped request.
    pub req: PredictionRequest,
}

impl ToJson for RequestEnvelope {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("client", &self.client)
            .field("id", &self.id)
            .optional("trace", &self.trace)
            .field("req", &self.req)
            .end();
    }
}

impl FromJson for RequestEnvelope {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            client: o.field("client")?,
            id: o.field("id")?,
            trace: o.field("trace")?,
            req: o.field("req")?,
        })
    }
}

/// The response to a [`RequestEnvelope`], echoing its identity so the
/// client can match replies to requests across retries and reject frames
/// corrupted in transit.
#[derive(Clone, Debug)]
pub struct ResponseEnvelope {
    /// Echo of the request's client token.
    pub client: u64,
    /// Echo of the request's id.
    pub id: u64,
    /// Echo of the request's trace context, if it carried one.
    pub trace: Option<TraceHeader>,
    /// Id of the controller shard that computed this response. Absent
    /// from unsharded controllers (no `--shard-id`) and from responses
    /// predating the fleet protocol; surfaced by
    /// [`crate::ControllerClient::last_shard`].
    pub shard: Option<u64>,
    /// The actual response.
    pub resp: WireResponse,
}

impl ToJson for ResponseEnvelope {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("client", &self.client)
            .field("id", &self.id)
            .optional("trace", &self.trace)
            .optional("shard", &self.shard)
            .field("resp", &self.resp)
            .end();
    }
}

impl FromJson for ResponseEnvelope {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            client: o.field("client")?,
            id: o.field("id")?,
            trace: o.field("trace")?,
            shard: o.field("shard")?,
            resp: o.field("resp")?,
        })
    }
}

/// Wire form of a [`TraceContext`], carried as the optional `trace` field
/// of the request/response envelopes. Ids are plain u64s — the codec
/// keeps all 64 bits; the trace dump's hex strings are for human readers.
#[derive(Clone, Copy, Debug)]
pub struct TraceHeader {
    /// Logical request id, stable across retries and reconnects.
    pub trace_id: u64,
    /// The client's root span id.
    pub span_id: u64,
    /// Enclosing span id (0 when the client's span is the root).
    pub parent_id: u64,
}

pddl_telemetry::json_struct!(TraceHeader { trace_id, span_id, parent_id });

impl From<TraceContext> for TraceHeader {
    fn from(c: TraceContext) -> TraceHeader {
        TraceHeader { trace_id: c.trace_id, span_id: c.span_id, parent_id: c.parent_id }
    }
}

impl From<TraceHeader> for TraceContext {
    fn from(h: TraceHeader) -> TraceContext {
        TraceContext { trace_id: h.trace_id, span_id: h.span_id, parent_id: h.parent_id }
    }
}

/// One classified request frame (see [`parse_frame`]).
#[derive(Clone, Debug)]
pub enum ParsedFrame {
    /// `{"op":"stats"}` — telemetry snapshot request.
    Stats,
    /// `{"op":"trace"}` — retained-trace dump request.
    Trace,
    /// `{"op":"route_table"}` — serving-plane membership request.
    RouteTable,
    /// `{"op":"reload"}` — hot-swap to a checkpoint-registry version
    /// (latest when `version` is absent).
    Reload {
        /// Target registry version; `None` selects the latest.
        version: Option<u64>,
    },
    /// `{"op":"observe"}` — feed a completed job's measured runtime back
    /// into the continual-refit loop.
    Observe {
        /// The workload + cluster the observation was measured on.
        req: Box<PredictionRequest>,
        /// Measured training time, seconds.
        actual_secs: f64,
    },
    /// A JSON array of prediction requests (a batch).
    Batch(Vec<PredictionRequest>),
    /// An id-wrapped single request (the retry path).
    Enveloped(RequestEnvelope),
    /// A bare single request.
    Single(Box<PredictionRequest>),
}

/// Classifies one request line into a [`ParsedFrame`]. This is the
/// controller's entire peer-facing parser: it must return `Err` — never
/// panic — for arbitrary bytes (enforced by `tests/wire_fuzz.rs`).
///
/// The line is parsed once; the shape of the document then picks the one
/// typed decode that runs: an array is a batch, an object with an `op`
/// key is a control op, an object with `client`, `id` and `req` is an
/// envelope, and anything else must be a bare request. None of those
/// keys is a [`PredictionRequest`] field, so the classes cannot overlap.
pub fn parse_frame(line: &str) -> Result<ParsedFrame, String> {
    let doc = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let has = |key: &str| doc.get(key).is_some();
    let (what, frame) = if doc.as_array().is_some() {
        ("batch request", FromJson::read_json(&doc).map(ParsedFrame::Batch))
    } else if has("op") {
        ("control op", doc.fields().and_then(control_frame))
    } else if has("client") && has("id") && has("req") {
        ("request envelope", FromJson::read_json(&doc).map(ParsedFrame::Enveloped))
    } else {
        ("request", FromJson::read_json(&doc).map(ParsedFrame::Single))
    };
    frame.map_err(|e| format!("malformed {what}: {e}"))
}

/// Decodes an `{"op":…}` frame. An `observe` without `actual_secs` reads
/// as NaN, which the controller answers with the typed
/// `non_positive_runtime` rejection rather than a parse error.
fn control_frame(o: Fields) -> Result<ParsedFrame, JsonError> {
    Ok(match o.field::<String>("op")?.as_str() {
        "stats" => ParsedFrame::Stats,
        "trace" => ParsedFrame::Trace,
        "route_table" => ParsedFrame::RouteTable,
        "reload" => ParsedFrame::Reload { version: o.field("version")? },
        "observe" => ParsedFrame::Observe {
            req: o.field("req")?,
            actual_secs: o.field::<Option<f64>>("actual_secs")?.unwrap_or(f64::NAN),
        },
        other => return Err(JsonError::Shape(format!("unknown op `{other}`"))),
    })
}

/// The fields of a `{"status":"<status>",…}` reply line.
fn reply_fields<'a>(doc: &'a JsonValue, status: &str) -> Result<Fields<'a>, JsonError> {
    let o = doc.fields()?;
    if o.get("status").and_then(JsonValue::as_str) != Some(status) {
        return Err(JsonError::Shape(format!("response is not a {status} payload")));
    }
    Ok(o)
}

/// Renders the error reply to a frame that outgrew `limit` bytes without
/// a newline; line sync is lost, so the sender closes the connection next.
pub fn frame_too_long_line(limit: usize) -> String {
    let error = RequestError::InvalidParams(format!("frame exceeds {limit} bytes"));
    json::to_string(&WireResponse::Err { error }).expect("strings always encode")
}

/// Reply to `{"op":"stats"}`: the answering process's telemetry
/// snapshot, stamped with its shard id when it has one.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Id of the controller shard that answered; absent from unsharded
    /// controllers and from the router.
    pub shard: Option<u64>,
    /// The answering process's metrics registry.
    pub snapshot: Snapshot,
}

impl ToJson for StatsReply {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("status", "stats")
            .optional("shard", &self.shard)
            .field("snapshot", &self.snapshot)
            .end();
    }
}

impl FromJson for StatsReply {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = reply_fields(v, "stats")?;
        Ok(Self { shard: o.field("shard")?, snapshot: o.field("snapshot")? })
    }
}

impl StatsReply {
    /// Renders the `{"status":"stats",…}` response line.
    pub fn to_line(&self) -> String {
        json::to_string(self).expect("a snapshot always encodes")
    }

    /// Parses a `{"status":"stats",…}` response line.
    pub fn from_line(line: &str) -> Result<StatsReply, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

/// Why a server shed a request — the `reason` field of an `overloaded`
/// reply. Distinguishing the causes matters operationally: `QueueFull`
/// wants more capacity, `Deadline` wants a laxer deadline or faster
/// handlers, `ConnectionLimit` wants fewer clients per node,
/// `Unrouteable` wants a healthy shard behind the router, and `Draining`
/// is expected during rollout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded request queue was at capacity.
    QueueFull,
    /// The request expired in the queue past its deadline.
    Deadline,
    /// The per-process connection cap was reached.
    ConnectionLimit,
    /// The server is draining for graceful shutdown.
    Draining,
    /// The router has no healthy shard to send the request to.
    Unrouteable,
    /// The reply carried no (or an unrecognised) reason — e.g. a peer
    /// predating the typed field.
    Unknown,
}

impl ShedReason {
    /// Wire name, as carried in the `reason` field of a shed reply.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::ConnectionLimit => "connection_limit",
            ShedReason::Draining => "draining",
            ShedReason::Unrouteable => "unrouteable",
            ShedReason::Unknown => "unknown",
        }
    }

    /// Parses a wire name; anything unrecognised maps to `Unknown` rather
    /// than erroring — the reason is advisory.
    pub fn parse(s: &str) -> ShedReason {
        match s {
            "queue_full" => ShedReason::QueueFull,
            "deadline" => ShedReason::Deadline,
            "connection_limit" => ShedReason::ConnectionLimit,
            "draining" => ShedReason::Draining,
            "unrouteable" => ShedReason::Unrouteable,
            _ => ShedReason::Unknown,
        }
    }
}

/// A typed `{"error":"<kind>",…}` reply: a refusal a client classifies
/// by kind. The first two kinds are transient — nothing was executed and
/// a retry after `retry_after_ms` can succeed; the two rejections are
/// terminal for the line, since the same line earns the same answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorReply {
    /// `overloaded`: the server shed the request instead of doing the
    /// work.
    Overloaded {
        /// Server-suggested minimum wait before retrying.
        retry_after_ms: u64,
        /// Why the server shed the request.
        reason: ShedReason,
    },
    /// `shard_moved`: the router's re-route signal — the shard a request
    /// was routed to died before answering. This reply is only sent in
    /// place of an answer; the client's retry is recomputed by the
    /// replacement shard, so the call still returns exactly one
    /// result.
    ShardMoved {
        /// Membership epoch after the death was absorbed, so a client
        /// whose cached route table already carries it need not refresh.
        epoch: u64,
        /// Router-suggested minimum wait before retrying.
        retry_after_ms: u64,
    },
    /// `reload_rejected`: a `{"op":"reload"}` did not swap — the
    /// candidate failed to load or failed its validation probe, the
    /// registry is empty, or there is no registry at all. The old model
    /// stays live: a rejection is a rollback, not an outage.
    ReloadRejected {
        /// The rejection class, with its detail after a colon.
        reason: String,
    },
    /// `observe_rejected`: an `{"op":"observe"}` the controller could not
    /// absorb — a non-positive or non-finite runtime, or a request the
    /// live model could not predict. The model is unchanged.
    ObserveRejected {
        /// The rejection class, with its detail after a colon.
        reason: String,
    },
}

impl ErrorReply {
    /// Renders the reply line.
    pub fn to_line(&self) -> String {
        json::to_string(self).expect("typed error lines hold no floats")
    }

    /// Recognises a typed error line. Every other reply — including a
    /// prediction error, whose `error` is an object — is `None`, and is
    /// turned away without a parse. A missing integer reads as 0 and a
    /// missing reason as `unknown`.
    pub fn from_line(resp: &str) -> Option<ErrorReply> {
        let trimmed = resp.trim_end();
        // Only a typed error line has a string-valued `error` key.
        if !trimmed.contains("\"error\":\"") {
            return None;
        }
        json::from_str(trimmed).ok()
    }

    /// The pacing hint of a transient kind; `None` for a rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        match *self {
            ErrorReply::Overloaded { retry_after_ms, .. }
            | ErrorReply::ShardMoved { retry_after_ms, .. } => {
                Some(Duration::from_millis(retry_after_ms))
            }
            ErrorReply::ReloadRejected { .. } | ErrorReply::ObserveRejected { .. } => None,
        }
    }

    /// The reply `e` carries, if it was made from one.
    pub fn of(e: &std::io::Error) -> Option<&ErrorReply> {
        e.get_ref()?.downcast_ref()
    }
}

impl ToJson for ErrorReply {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            ErrorReply::Overloaded { retry_after_ms, reason } => o
                .field("error", "overloaded")
                .field("retry_after_ms", retry_after_ms)
                .field("reason", reason.as_str()),
            ErrorReply::ShardMoved { epoch, retry_after_ms } => o
                .field("error", "shard_moved")
                .field("epoch", epoch)
                .field("retry_after_ms", retry_after_ms),
            ErrorReply::ReloadRejected { reason } => {
                o.field("error", "reload_rejected").field("reason", reason)
            }
            ErrorReply::ObserveRejected { reason } => {
                o.field("error", "observe_rejected").field("reason", reason)
            }
        }
        .end();
    }
}

impl FromJson for ErrorReply {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let int = |key| o.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let reason = || o.get("reason").and_then(JsonValue::as_str).unwrap_or("unknown");
        Ok(match o.field::<String>("error")?.as_str() {
            "overloaded" => ErrorReply::Overloaded {
                retry_after_ms: int("retry_after_ms"),
                reason: ShedReason::parse(reason()),
            },
            "shard_moved" => ErrorReply::ShardMoved {
                epoch: int("epoch"),
                retry_after_ms: int("retry_after_ms"),
            },
            "reload_rejected" => ErrorReply::ReloadRejected { reason: reason().to_string() },
            "observe_rejected" => ErrorReply::ObserveRejected { reason: reason().to_string() },
            other => return Err(JsonError::unknown_variant(other)),
        })
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorReply::Overloaded { retry_after_ms, reason } => write!(
                f,
                "server overloaded ({}); retry after {retry_after_ms}ms",
                reason.as_str()
            ),
            ErrorReply::ShardMoved { epoch, retry_after_ms } => write!(
                f,
                "shard moved (membership epoch {epoch}); retry after {retry_after_ms}ms"
            ),
            ErrorReply::ReloadRejected { reason } => write!(f, "reload rejected: {reason}"),
            ErrorReply::ObserveRejected { reason } => write!(f, "observe rejected: {reason}"),
        }
    }
}

impl std::error::Error for ErrorReply {}

impl From<ErrorReply> for std::io::Error {
    /// A transient kind becomes `WouldBlock`, which the retry loops back
    /// off and retry; a rejection becomes `InvalidInput`, which they
    /// return, since the server would repeat it verbatim.
    fn from(reply: ErrorReply) -> std::io::Error {
        let kind = match reply.retry_after() {
            Some(_) => std::io::ErrorKind::WouldBlock,
            None => std::io::ErrorKind::InvalidInput,
        };
        std::io::Error::new(kind, reply)
    }
}

/// Reply to a successful `{"op":"reload"}`: the version now live, the
/// version it replaced (equal when the target was already live — the
/// reload was a no-op), and the live slot's swap epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReloadReply {
    /// Registry version now live.
    pub version: u64,
    /// Registry version that was live before the swap.
    pub previous: u64,
    /// The live slot's epoch after the swap (increments once per swap;
    /// unchanged when `version == previous`).
    pub epoch: u64,
}

impl ToJson for ReloadReply {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("status", "reload")
            .field("version", &self.version)
            .field("previous", &self.previous)
            .field("epoch", &self.epoch)
            .end();
    }
}

impl FromJson for ReloadReply {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = reply_fields(v, "reload")?;
        Ok(Self {
            version: o.field("version")?,
            previous: o.field("previous")?,
            epoch: o.field("epoch")?,
        })
    }
}

impl ReloadReply {
    /// Renders the `{"status":"reload",…}` response line.
    pub fn to_line(&self) -> String {
        json::to_string(self).expect("a control-plane reply holds no floats")
    }

    /// Parses a `{"status":"reload",…}` response line.
    pub fn from_line(line: &str) -> Result<ReloadReply, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

/// Reply to a successful `{"op":"observe"}`: the sink's lifetime
/// observation count, how many drift events have fired, the standardized
/// residual of *this* observation against the live model, and whether it
/// tripped the drift detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObserveReply {
    /// Observations accepted by this controller's sink (lifetime).
    pub observations: u64,
    /// Drift events fired by the sink's detector (lifetime).
    pub drift_events: u64,
    /// This observation's log-space residual, standardized against the
    /// sink's healthy-noise scale estimate.
    pub residual_z: f64,
    /// True when this observation fired the drift detector.
    pub drifted: bool,
}

impl ToJson for ObserveReply {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("status", "observe")
            .field("observations", &self.observations)
            .field("drift_events", &self.drift_events)
            .field("residual_z", &self.residual_z)
            .field("drifted", &self.drifted)
            .end();
    }
}

impl FromJson for ObserveReply {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = reply_fields(v, "observe")?;
        Ok(Self {
            observations: o.field("observations")?,
            drift_events: o.field("drift_events")?,
            residual_z: o.field("residual_z")?,
            drifted: o.field("drifted")?,
        })
    }
}

impl ObserveReply {
    /// Renders the `{"status":"observe",…}` response line. The residual
    /// is written in its shortest round-trip form, so `from_line`
    /// recovers the exact value. A non-finite residual (the live model
    /// predicted an infinite runtime) has no JSON spelling and renders as
    /// the typed `non_finite_residual` rejection instead.
    pub fn to_line(&self) -> String {
        json::to_string(self).unwrap_or_else(|_| {
            ErrorReply::ObserveRejected { reason: "non_finite_residual".into() }.to_line()
        })
    }

    /// Parses a `{"status":"observe",…}` response line.
    pub fn from_line(line: &str) -> Result<ObserveReply, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

/// One shard entry in a [`RouteTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteShard {
    /// Stable shard id — what responses echo in their `shard` field.
    pub id: u64,
    /// The shard's listener address, `host:port`.
    pub addr: String,
    /// False once the health prober has marked the shard dead; unhealthy
    /// shards stay listed (so operators see them) but own no ring keys.
    pub healthy: bool,
}

impl ToJson for RouteShard {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("healthy", &self.healthy)
            .end();
    }
}

impl FromJson for RouteShard {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            id: o.field("id")?,
            addr: o.field("addr")?,
            healthy: o.field::<Option<bool>>("healthy")?.unwrap_or(true),
        })
    }
}

/// The serving plane's membership, answered for `{"op":"route_table"}`.
/// The `epoch` increments on every membership change (shard added,
/// removed, or marked unhealthy); in-flight requests finish against the
/// shard they were routed to under their admission epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTable {
    /// Membership epoch — bumped on every shard add/remove/health flip.
    pub epoch: u64,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Set when a single controller shard answered for itself (its own
    /// id); `None` when the router answered for the whole fleet.
    pub shard: Option<u64>,
    /// Every known shard, healthy or not, in id order.
    pub shards: Vec<RouteShard>,
}

impl ToJson for RouteTable {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("status", "route_table")
            .field("epoch", &self.epoch)
            .field("vnodes", &self.vnodes)
            .optional("shard", &self.shard)
            .field("shards", &self.shards)
            .end();
    }
}

impl FromJson for RouteTable {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = reply_fields(v, "route_table")?;
        Ok(Self {
            epoch: o.field("epoch")?,
            vnodes: o.field("vnodes")?,
            shard: o.field("shard")?,
            shards: o.field("shards")?,
        })
    }
}

impl RouteTable {
    /// Renders the `{"status":"route_table",…}` response line.
    pub fn to_line(&self) -> String {
        json::to_string(self).expect("a control-plane reply holds no floats")
    }

    /// Parses a `{"status":"route_table",…}` response line.
    pub fn from_line(line: &str) -> Result<RouteTable, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::retry::is_transient;

    #[test]
    fn route_table_op_parses() {
        assert!(matches!(
            parse_frame("{\"op\":\"route_table\"}"),
            Ok(ParsedFrame::RouteTable)
        ));
    }

    #[test]
    fn route_table_line_round_trips() {
        let table = RouteTable {
            epoch: 7,
            vnodes: 64,
            shard: Some(2),
            shards: vec![
                RouteShard { id: 0, addr: "127.0.0.1:7071".into(), healthy: true },
                RouteShard { id: 2, addr: "127.0.0.1:7072".into(), healthy: false },
            ],
        };
        let line = table.to_line();
        assert_eq!(RouteTable::from_line(&line).unwrap(), table);

        let fleet = RouteTable { shard: None, ..table };
        assert_eq!(RouteTable::from_line(&fleet.to_line()).unwrap(), fleet);
    }

    #[test]
    fn reload_op_parses_with_and_without_version() {
        assert!(matches!(
            parse_frame("{\"op\":\"reload\"}"),
            Ok(ParsedFrame::Reload { version: None })
        ));
        assert!(matches!(
            parse_frame("{\"op\":\"reload\",\"version\":7}"),
            Ok(ParsedFrame::Reload { version: Some(7) })
        ));
    }

    #[test]
    fn reload_reply_round_trips() {
        let reply = ReloadReply { version: 4, previous: 3, epoch: 9 };
        assert_eq!(ReloadReply::from_line(&reply.to_line()).unwrap(), reply);
        assert!(ReloadReply::from_line("{\"status\":\"ok\"}").is_err());
    }

    #[test]
    fn observe_op_parses() {
        let req = PredictionRequest::zoo(
            pddl_ddlsim::Workload::standard("resnet18", "cifar10"),
            pddl_cluster::ClusterState::homogeneous(pddl_cluster::ServerClass::GpuP100, 4),
        );
        let line = format!(
            "{{\"op\":\"observe\",\"actual_secs\":123.5,\"req\":{}}}",
            json::to_string(&req).unwrap()
        );
        match parse_frame(&line) {
            Ok(ParsedFrame::Observe { req, actual_secs }) => {
                assert_eq!(req.dataset, "cifar10");
                assert_eq!(actual_secs, 123.5);
            }
            other => panic!("expected observe frame, got {other:?}"),
        }
    }

    #[test]
    fn observe_reply_round_trips() {
        let reply = ObserveReply {
            observations: 41,
            drift_events: 2,
            residual_z: -0.037_251,
            drifted: false,
        };
        assert_eq!(ObserveReply::from_line(&reply.to_line()).unwrap(), reply);
        assert!(ObserveReply::from_line("{\"status\":\"reload\"}").is_err());
    }

    /// One table row: a line, what [`ErrorReply::from_line`] reads from
    /// it, and whether [`ErrorReply::to_line`] gives the line back byte
    /// for byte (a lenient read does not).
    type Row = (&'static str, Option<ErrorReply>, bool);

    fn check_rows(rows: &[Row]) {
        for (line, want, round_trips) in rows {
            let got = ErrorReply::from_line(line);
            assert_eq!(&got, want, "{line}");
            let Some(reply) = got else { continue };
            if *round_trips {
                assert_eq!(reply.to_line(), *line);
            }
            // Only the two transient kinds enter the retry path, and the
            // error carries the reply back out.
            let err = std::io::Error::from(reply.clone());
            assert_eq!(ErrorReply::of(&err), Some(&reply), "{line}");
            let transient =
                matches!(reply, ErrorReply::Overloaded { .. } | ErrorReply::ShardMoved { .. });
            assert_eq!(is_transient(&err), transient, "{line}");
            assert_eq!(reply.retry_after().is_some(), transient, "{line}");
        }
    }

    #[test]
    fn overload_line_classifies() {
        let shed = |retry_after_ms, reason| Some(ErrorReply::Overloaded { retry_after_ms, reason });
        check_rows(&[
            (
                r#"{"error":"overloaded","retry_after_ms":25,"reason":"queue_full"}"#,
                shed(25, ShedReason::QueueFull),
                true,
            ),
            (
                r#"{"error":"overloaded","retry_after_ms":50,"reason":"connection_limit"}"#,
                shed(50, ShedReason::ConnectionLimit),
                true,
            ),
            (
                r#"{"error":"overloaded","retry_after_ms":50,"reason":"unrouteable"}"#,
                shed(50, ShedReason::Unrouteable),
                true,
            ),
            (r#"{"error":"overloaded","retry_after_ms":5}"#, shed(5, ShedReason::Unknown), false),
            (
                r#"{"error":"overloaded","retry_after_ms":5,"reason":"???"}"#,
                shed(5, ShedReason::Unknown),
                false,
            ),
            (r#"{"error":"overloaded"}"#, shed(0, ShedReason::Unknown), false),
        ]);
    }

    #[test]
    fn shard_moved_line_classifies() {
        check_rows(&[(
            r#"{"error":"shard_moved","epoch":9,"retry_after_ms":15}"#,
            Some(ErrorReply::ShardMoved { epoch: 9, retry_after_ms: 15 }),
            true,
        )]);
    }

    #[test]
    fn reload_rejected_line_classifies() {
        check_rows(&[(
            r#"{"error":"reload_rejected","reason":"probe_mismatch: \"w0\" drifted"}"#,
            Some(ErrorReply::ReloadRejected { reason: "probe_mismatch: \"w0\" drifted".into() }),
            true,
        )]);
    }

    #[test]
    fn observe_rejected_line_classifies() {
        let rejected = |reason: &str| Some(ErrorReply::ObserveRejected { reason: reason.into() });
        check_rows(&[
            (
                r#"{"error":"observe_rejected","reason":"actual_secs must be positive"}"#,
                rejected("actual_secs must be positive"),
                true,
            ),
            (r#"{"error":"observe_rejected"}"#, rejected("unknown"), false),
        ]);
    }

    /// Replies that are not typed error lines: the success statuses, a
    /// prediction error (whose `error` is an object), and an unknown kind.
    #[test]
    fn typed_error_lines_classify() {
        check_rows(&[
            (r#"{"status":"ok"}"#, None, false),
            (r#"{"status":"reload"}"#, None, false),
            (r#"{"status":"observe"}"#, None, false),
            (r#"{"status":"err","error":{"invalid_params":"frame exceeds 9 bytes"}}"#, None, false),
            (r#"{"error":"teapot","reason":"short and stout"}"#, None, false),
        ]);
    }

    // The errors the controller client raises from the typed refusals are
    // the ones `is_transient` retries, and they carry their hint out.

    #[test]
    fn overload_errors_are_transient_and_carry_the_hint() {
        let reply = ErrorReply::Overloaded { retry_after_ms: 40, reason: ShedReason::Unknown };
        let e = std::io::Error::from(reply.clone());
        assert!(is_transient(&e), "overload must enter the retry path");
        assert_eq!(ErrorReply::of(&e), Some(&reply));
        assert_eq!(reply.retry_after(), Some(Duration::from_millis(40)));
        assert!(e.to_string().contains("overloaded"), "{e}");
        // Unrelated errors of the same kind carry no reply.
        let plain = std::io::Error::new(std::io::ErrorKind::WouldBlock, "timed out");
        assert_eq!(ErrorReply::of(&plain), None);
    }

    #[test]
    fn shard_moved_errors_are_transient_and_carry_the_epoch() {
        let e = std::io::Error::from(ErrorReply::ShardMoved { epoch: 12, retry_after_ms: 15 });
        assert!(is_transient(&e), "shard_moved must enter the retry path");
        let Some(&ErrorReply::ShardMoved { epoch, retry_after_ms }) = ErrorReply::of(&e) else {
            panic!("expected a shard_moved reply, got {e}");
        };
        assert_eq!((epoch, retry_after_ms), (12, 15));
        assert!(e.to_string().contains("epoch 12"), "{e}");
        // Rejections are not transient: the server would repeat them.
        let rejected = std::io::Error::from(ErrorReply::ReloadRejected { reason: "x".into() });
        assert!(!is_transient(&rejected));
    }

    #[test]
    fn shed_reasons_round_trip_and_tolerate_garbage() {
        for r in [
            ShedReason::QueueFull,
            ShedReason::Deadline,
            ShedReason::ConnectionLimit,
            ShedReason::Draining,
            ShedReason::Unrouteable,
            ShedReason::Unknown,
        ] {
            assert_eq!(ShedReason::parse(r.as_str()), r);
        }
        assert_eq!(ShedReason::parse("???"), ShedReason::Unknown);
        let shed = ErrorReply::Overloaded { retry_after_ms: 10, reason: ShedReason::QueueFull };
        let e = std::io::Error::from(shed.clone());
        assert_eq!(ErrorReply::of(&e), Some(&shed));
        assert!(e.to_string().contains("overloaded (queue_full)"), "{e}");
    }

    #[test]
    fn wire_ops_list_is_unique_and_nonempty() {
        assert!(!WIRE_OPS.is_empty());
        let mut seen = std::collections::HashSet::new();
        for op in WIRE_OPS {
            assert!(seen.insert(op), "duplicate wire op {op}");
        }
    }
}
