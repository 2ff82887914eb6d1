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
//!   [`TraceHeader`] (`predict_envelope` — the idempotent-retry path);
//! * a control op — any object with an `"op"` key: `stats`, `trace`,
//!   `metrics`, `route_table`, `reload`, `observe` — answered inline by
//!   the connection reader so they stay available during overload.
//!
//! ## Typed error lines
//!
//! Two error replies are typed so resilient clients can classify them
//! without string matching: the overload shed
//! (`{"error":"overloaded","retry_after_ms":…,"reason":…}`, rendered by
//! [`overload_line`] and recognised by [`overload_from_line`]) and the
//! router's re-route signal
//! (`{"error":"shard_moved","epoch":…,"retry_after_ms":…}`, rendered by
//! [`shard_moved_line`] and recognised by [`shard_moved_from_line`]).
//! Both map onto transient [`std::io::Error`]s that
//! [`pddl_cluster::retry::is_transient`] approves for retry.

use crate::request::{PredictionRequest, RequestError};
use pddl_cluster::retry::{
    overloaded_error_with_reason, shard_moved_error, ShedReason,
};
use pddl_telemetry::json::{
    self, Fields, FromJson, JsonError, JsonValue, JsonWriter, ObjectWriter, ToJson,
};
use pddl_telemetry::{Snapshot, TraceContext};

/// Every operation the controller-plane wire protocol carries, in the
/// order PROTOCOL.md documents them. The first three are the prediction
/// frame shapes (no `"op"` tag on the wire — they are distinguished
/// structurally); the middle five are the `{"op":…}` control frames; the
/// last three are the Cluster Resource Collector's registration protocol
/// (see [`pddl_cluster::protocol`]). `tests/protocol_docs.rs` requires a
/// ``### `<op>` `` section in PROTOCOL.md for each entry, holding at
/// least one complete request line and one complete reply line.
pub const WIRE_OPS: &[&str] = &[
    "predict",
    "predict_batch",
    "predict_envelope",
    "stats",
    "trace",
    "metrics",
    "route_table",
    "reload",
    "observe",
    "register",
    "heartbeat",
    "leave",
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

/// A prediction request wrapped with a client-chosen identity, enabling
/// idempotent retry: the controller caches the response under
/// `(client, id)` and serves it again verbatim if the same identity
/// reappears (e.g. after the original reply was lost in transit).
#[derive(Clone, Debug)]
pub struct RequestEnvelope {
    /// Client session token (unique per [`crate::ControllerClient`]
    /// instance).
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

impl ToJson for TraceHeader {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("trace_id", &self.trace_id)
            .field("span_id", &self.span_id)
            .field("parent_id", &self.parent_id)
            .end();
    }
}

impl FromJson for TraceHeader {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            trace_id: o.field("trace_id")?,
            span_id: o.field("span_id")?,
            parent_id: o.field("parent_id")?,
        })
    }
}

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
    /// `{"op":"metrics"}` — Prometheus exposition request.
    Metrics,
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
    /// An id-wrapped single request (idempotent-retry path).
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
        "metrics" => ParsedFrame::Metrics,
        "route_table" => ParsedFrame::RouteTable,
        "reload" => ParsedFrame::Reload { version: o.field("version")? },
        "observe" => ParsedFrame::Observe {
            req: o.field("req")?,
            actual_secs: o.field::<Option<f64>>("actual_secs")?.unwrap_or(f64::NAN),
        },
        other => return Err(JsonError::Shape(format!("unknown op `{other}`"))),
    })
}

/// Renders a control-plane line. Everything built here holds integers,
/// booleans, strings and pre-rendered JSON, so encoding cannot fail.
fn line(fields: impl for<'a> FnOnce(ObjectWriter<'a>) -> ObjectWriter<'a>) -> String {
    json::object(fields).expect("control-plane lines hold no floats")
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

/// Renders the `{"op":"stats"}` reply: the answering process's telemetry
/// snapshot, stamped with its shard id when it has one.
pub fn stats_line(shard: Option<u64>, snapshot: &Snapshot) -> String {
    line(|o| {
        o.field("status", "stats")
            .optional("shard", &shard)
            .field_with("snapshot", |w| w.raw(&snapshot.to_json()))
    })
}

/// Renders the `{"op":"metrics"}` reply around a Prometheus exposition.
pub fn metrics_line(exposition: &str) -> String {
    line(|o| o.field("status", "metrics").field("exposition", exposition))
}

/// Renders a terminal `{"error":"<kind>","reason":…}` rejection line.
fn rejected_line(kind: &str, reason: &str) -> String {
    line(|o| o.field("error", kind).field("reason", reason))
}

/// Renders the typed overload reply; `reason` is one of `queue_full`,
/// `deadline`, `connection_limit`, `draining`.
pub fn overload_line(retry_after_ms: u64, reason: &str) -> String {
    format!("{{\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\"reason\":\"{reason}\"}}")
}

/// Classifies a response line as a typed overload reply, mapping it to
/// the transient [`pddl_cluster::retry::Overloaded`] error the resilient
/// retry loop understands.
pub fn overload_from_line(resp: &str) -> Option<std::io::Error> {
    let trimmed = resp.trim_end();
    // Fast path: every overload reply carries this exact key/value.
    if !trimmed.contains("\"error\":\"overloaded\"") {
        return None;
    }
    let doc = JsonValue::parse(trimmed).ok()?;
    if doc.get("error")?.as_str()? != "overloaded" {
        return None;
    }
    let ms = doc.get("retry_after_ms").and_then(|v| v.as_u64()).unwrap_or(0);
    let reason = doc
        .get("reason")
        .and_then(|v| v.as_str())
        .map(ShedReason::parse)
        .unwrap_or(ShedReason::Unknown);
    Some(overloaded_error_with_reason(ms, reason))
}

/// Renders the typed re-route reply the router sends when the shard a
/// request was routed to died before answering. `epoch` is the membership
/// epoch *after* the death was absorbed, so a client that refreshes its
/// route table can tell whether it already saw the new topology.
pub fn shard_moved_line(epoch: u64, retry_after_ms: u64) -> String {
    format!("{{\"error\":\"shard_moved\",\"epoch\":{epoch},\"retry_after_ms\":{retry_after_ms}}}")
}

/// Classifies a response line as a typed `shard_moved` reply, mapping it
/// to the transient [`pddl_cluster::retry::ShardMoved`] error. Resilient
/// clients react by refreshing their route table and retrying — the
/// request itself was *not* executed twice (the reply is only sent when
/// the routed shard died without answering, and the dedup cache on the
/// replacement shard absorbs any replay the shard did answer).
pub fn shard_moved_from_line(resp: &str) -> Option<std::io::Error> {
    let trimmed = resp.trim_end();
    if !trimmed.contains("\"error\":\"shard_moved\"") {
        return None;
    }
    let doc = JsonValue::parse(trimmed).ok()?;
    if doc.get("error")?.as_str()? != "shard_moved" {
        return None;
    }
    let epoch = doc.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0);
    let ms = doc.get("retry_after_ms").and_then(|v| v.as_u64()).unwrap_or(0);
    Some(shard_moved_error(epoch, ms))
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

/// Renders the typed rejection reply for a `{"op":"reload"}` that did not
/// swap: the candidate failed to load or failed its validation probe, the
/// registry is empty, or the controller has no registry at all. The old
/// model stays live — rejection is a *rollback*, not an outage — so the
/// reply is terminal for the attempt, not transient like the overload
/// shed.
pub fn reload_rejected_line(reason: &str) -> String {
    rejected_line("reload_rejected", reason)
}

/// Classifies a response line as a typed `reload_rejected` reply,
/// returning the rejection reason.
pub fn reload_rejected_from_line(resp: &str) -> Option<String> {
    let trimmed = resp.trim_end();
    if !trimmed.contains("\"error\":\"reload_rejected\"") {
        return None;
    }
    let doc = JsonValue::parse(trimmed).ok()?;
    if doc.get("error")?.as_str()? != "reload_rejected" {
        return None;
    }
    Some(
        doc.get("reason")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string(),
    )
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
        json::to_string(self).unwrap_or_else(|_| observe_rejected_line("non_finite_residual"))
    }

    /// Parses a `{"status":"observe",…}` response line.
    pub fn from_line(line: &str) -> Result<ObserveReply, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

/// Renders the typed rejection reply for an `{"op":"observe"}` the
/// controller could not absorb: the measured runtime was non-positive or
/// non-finite, or the live model could not predict the request (unknown
/// dataset, infeasible cluster). The observation is dropped; the model is
/// unchanged. Terminal for the attempt, not transient.
pub fn observe_rejected_line(reason: &str) -> String {
    rejected_line("observe_rejected", reason)
}

/// Classifies a response line as a typed `observe_rejected` reply,
/// returning the rejection reason.
pub fn observe_rejected_from_line(resp: &str) -> Option<String> {
    let trimmed = resp.trim_end();
    if !trimmed.contains("\"error\":\"observe_rejected\"") {
        return None;
    }
    let doc = JsonValue::parse(trimmed).ok()?;
    if doc.get("error")?.as_str()? != "observe_rejected" {
        return None;
    }
    Some(
        doc.get("reason")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string(),
    )
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
    fn shard_moved_line_classifies() {
        let line = shard_moved_line(9, 15);
        let err = shard_moved_from_line(&line).expect("typed shard_moved");
        assert!(pddl_cluster::retry::is_transient(&err));
        assert_eq!(pddl_cluster::retry::shard_moved_epoch(&err), Some(9));
        assert!(shard_moved_from_line("{\"status\":\"ok\"}").is_none());
        assert!(overload_from_line(&line).is_none());
    }

    #[test]
    fn overload_line_classifies() {
        let line = overload_line(25, "queue_full");
        let err = overload_from_line(&line).expect("typed overload");
        assert!(pddl_cluster::retry::is_transient(&err));
        assert!(shard_moved_from_line(&line).is_none());
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
    fn reload_rejected_line_classifies() {
        let line = reload_rejected_line("probe_mismatch: \"w0\" drifted");
        assert_eq!(
            reload_rejected_from_line(&line).as_deref(),
            Some("probe_mismatch: \"w0\" drifted")
        );
        assert!(reload_rejected_from_line("{\"status\":\"reload\"}").is_none());
        assert!(overload_from_line(&line).is_none());
        assert!(shard_moved_from_line(&line).is_none());
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

    #[test]
    fn observe_rejected_line_classifies() {
        let line = observe_rejected_line("actual_secs must be positive");
        assert_eq!(
            observe_rejected_from_line(&line).as_deref(),
            Some("actual_secs must be positive")
        );
        assert!(observe_rejected_from_line("{\"status\":\"observe\"}").is_none());
        assert!(reload_rejected_from_line(&line).is_none());
        assert!(overload_from_line(&line).is_none());
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
