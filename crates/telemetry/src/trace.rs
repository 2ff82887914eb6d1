//! End-to-end request tracing: trace contexts, a lock-free flight
//! recorder of recent span events, and tail-sampled retention of
//! interesting traces.
//!
//! A [`TraceContext`] is minted at the client (`trace_id` identifies the
//! logical request across retries; `span_id` is the root span) and carried
//! through the wire envelope. Every pipeline [`Stage`] is timed once per
//! request into its `trace.stage.<name>` histogram, traced or not; a
//! traced request's stages also land as child spans in the global
//! [`FlightRecorder`] — a fixed-size ring of seqlock slots written with a
//! handful of relaxed atomic stores, so the hot path never takes a lock
//! and never allocates.
//!
//! The ring alone only answers "what happened recently". Tail sampling
//! makes it useful after the fact: when a trace ends badly (shed, error)
//! or slowly (over a configurable threshold), [`FlightRecorder::promote`]
//! copies its spans out of the ring into a small bounded retained set,
//! which `{"op":"trace"}` serves over the wire and the CLI renders as a
//! per-stage waterfall.
//!
//! ## Determinism
//!
//! Child span ids are derived by hashing the parent span id with the
//! stage's fixed seed ([`Stage::seed`]), so the same logical request
//! produces the same span ids on every attempt and in every process. A
//! retried request therefore *merges* into one retained trace instead of
//! appearing twice, and a fault-plan seed that produces the same outcomes
//! produces the same retained trace ids.
//!
//! ## Concurrency
//!
//! Writers claim a slot with one `fetch_add` and publish through a
//! seqlock version word (odd while mid-write, even when consistent).
//! Readers discard torn slots by re-checking the version. If the ring
//! wraps a full generation during a single slot write, two writers can
//! interleave on one slot; the version check still rejects most such
//! races and the worst case is one garbled *telemetry* event — never a
//! memory-safety issue (all fields are plain atomics).

use crate::hash::mix64;
use crate::json::{self, FromJson, Hex64, JsonError, JsonValue, JsonWriter, ToJson};
use crate::metrics::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Identity of one span within one trace, carried across the wire.
///
/// `trace_id` names the logical request and survives retries and
/// reconnects; `span_id` names this span; `parent_id` is the enclosing
/// span (0 for a root).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Logical request id, stable across retries.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Enclosing span id; 0 when this is the root.
    pub parent_id: u64,
}

impl TraceContext {
    /// Mints the root context for a trace. The root span id is derived
    /// from the trace id, so equal trace ids yield equal span trees.
    pub fn root(trace_id: u64) -> TraceContext {
        TraceContext { trace_id, span_id: mix64(trace_id), parent_id: 0 }
    }

    /// Derives a deterministic child context: the same parent and `seq`
    /// always produce the same child span id.
    pub fn child(&self, seq: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: mix64(self.span_id ^ seq.wrapping_mul(0x9E3779B97F4A7C15)),
            parent_id: self.span_id,
        }
    }
}

/// Outcome recorded on a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Completed with an application error.
    Error,
    /// Rejected by admission control (`overloaded`).
    Shed,
    /// Expired in the queue past its deadline.
    Expired,
    /// Cache probe that hit.
    CacheHit,
    /// Cache probe that missed.
    CacheMiss,
}

impl SpanStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
            SpanStatus::Shed => "shed",
            SpanStatus::Expired => "expired",
            SpanStatus::CacheHit => "hit",
            SpanStatus::CacheMiss => "miss",
        }
    }

    fn code(self) -> u64 {
        match self {
            SpanStatus::Ok => 0,
            SpanStatus::Error => 1,
            SpanStatus::Shed => 2,
            SpanStatus::Expired => 3,
            SpanStatus::CacheHit => 4,
            SpanStatus::CacheMiss => 5,
        }
    }

    fn from_code(code: u64) -> Option<SpanStatus> {
        Some(match code {
            0 => SpanStatus::Ok,
            1 => SpanStatus::Error,
            2 => SpanStatus::Shed,
            3 => SpanStatus::Expired,
            4 => SpanStatus::CacheHit,
            5 => SpanStatus::CacheMiss,
            _ => return None,
        })
    }
}

/// One stage of the serving pipeline. A stage owns its wire name, the
/// seed its child span ids derive from, and its one `trace.stage.<name>`
/// latency histogram. The discriminant is both the seed and the ring's
/// stage code, so it is part of the wire contract (the golden trace
/// fixtures pin it): new stages go at the end, and a deleted stage's
/// seed is never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading one request frame off the socket.
    FrameRead = 1,
    /// Root span of a request (frame arrival to response write).
    Request,
    /// Time spent queued before a worker picked the job up; zero-length
    /// with status `shed` when admission refused the job.
    QueueWait,
    /// Embedding-cache probe; status distinguishes hit from miss.
    EmbedCache,
    /// GHN forward pass computing an embedding on a cache miss.
    GhnEmbed,
    /// Regressor inference over the assembled feature vector.
    Regress,
    /// Worker-side handler execution (wraps embed + regress).
    Dispatch,
    /// Serializing and writing the response frame.
    Serialize,
    /// Zero-length marker at the moment a connection was accepted,
    /// recorded with the connection's first traced frame.
    Accept,
    // Seeds 10 and 11 belonged to deleted stages and are not reused.
    /// Router-side handling of one request: ring lookup, forward to the
    /// routed shard, and relay of its reply.
    Route = 12,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 10] = [
        Stage::FrameRead,
        Stage::Request,
        Stage::QueueWait,
        Stage::EmbedCache,
        Stage::GhnEmbed,
        Stage::Regress,
        Stage::Dispatch,
        Stage::Serialize,
        Stage::Accept,
        Stage::Route,
    ];

    /// Wire name, as it appears in dumps and waterfalls.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameRead => "frame_read",
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::EmbedCache => "embed_cache",
            Stage::GhnEmbed => "ghn_embed",
            Stage::Regress => "regress",
            Stage::Dispatch => "dispatch",
            Stage::Serialize => "serialize",
            Stage::Accept => "accept",
            Stage::Route => "route",
        }
    }

    /// The `seq` this stage's child spans derive their ids from
    /// ([`TraceContext::child`]): fixed per stage, so equal requests get
    /// equal span ids in every process.
    pub fn seed(self) -> u64 {
        self as u64
    }

    /// The stage whose [`Stage::seed`] is `seed`, if any.
    fn from_seed(seed: u64) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.seed() == seed)
    }

    /// This stage's span under `parent`.
    pub fn child_of(self, parent: TraceContext) -> TraceContext {
        parent.child(self.seed())
    }

    /// The stage's `trace.stage.<name>` latency histogram, resolved once.
    pub(crate) fn histogram(self) -> &'static Histogram {
        // Indexed by seed, up to the last stage's.
        static HISTS: [OnceLock<&'static Histogram>; Stage::Route as usize + 1] =
            [const { OnceLock::new() }; Stage::Route as usize + 1];
        HISTS[self as usize].get_or_init(|| match self {
            Stage::FrameRead => crate::histogram("trace.stage.frame_read"),
            Stage::Request => crate::histogram("trace.stage.request"),
            Stage::QueueWait => crate::histogram("trace.stage.queue_wait"),
            Stage::EmbedCache => crate::histogram("trace.stage.embed_cache"),
            Stage::GhnEmbed => crate::histogram("trace.stage.ghn_embed"),
            Stage::Regress => crate::histogram("trace.stage.regress"),
            Stage::Dispatch => crate::histogram("trace.stage.dispatch"),
            Stage::Serialize => crate::histogram("trace.stage.serialize"),
            Stage::Accept => crate::histogram("trace.stage.accept"),
            Stage::Route => crate::histogram("trace.stage.route"),
        })
    }

    /// Records one interval of this stage that ended just now: always
    /// into its histogram, and into the global [`flight_recorder`] as a
    /// child span of `parent` when the request is traced.
    pub fn record(self, parent: Option<TraceContext>, dur: Duration, status: SpanStatus) {
        self.record_as(parent.map(|p| self.child_of(p)), dur, status);
    }

    /// [`Stage::record`] as the span `span` itself rather than a child:
    /// for the root `request` span.
    pub fn record_as(self, span: Option<TraceContext>, dur: Duration, status: SpanStatus) {
        let rec = flight_recorder();
        // The start only matters to the ring: untraced records read no clock.
        let start_us = span.map_or(0, |_| rec.now_us().saturating_sub(dur.as_micros() as u64));
        rec.record(self, span, start_us, dur, status);
    }
}

/// One completed span, as read back out of the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Logical request id.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Enclosing span id (0 = root).
    pub parent_id: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Start time in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Outcome.
    pub status: SpanStatus,
}

/// Seqlock slot layout: `seq` is odd while a writer is mid-flight and
/// even (and nonzero) when the payload is consistent.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    stage: AtomicU64,
    start_us: AtomicU64,
    dur_ns: AtomicU64,
    status: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            status: AtomicU64::new(0),
        }
    }
}

/// A trace promoted out of the ring because it ended badly or slowly:
/// what [`FlightRecorder::promote`] keeps, `{"op":"trace"}` writes and
/// every reader decodes. Verdict, stage and status are owned strings, so
/// a dump from a build with other stages still decodes; ids are written
/// as zero-padded hex strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetainedTrace {
    /// Logical request id.
    pub trace_id: u64,
    /// Why the trace was retained: `shed`, `error`, `slow`, or `drain`.
    pub verdict: String,
    /// The trace's spans, sorted by start time then span id.
    pub spans: Vec<RetainedSpan>,
}

/// One span of a [`RetainedTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetainedSpan {
    /// This span's id.
    pub span_id: u64,
    /// Enclosing span id (0 = root).
    pub parent_id: u64,
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Start time in microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Outcome ([`SpanStatus::as_str`]: `ok`, `error`, `shed`, `expired`,
    /// `hit`, `miss`).
    pub status: String,
}

impl From<SpanEvent> for RetainedSpan {
    fn from(ev: SpanEvent) -> RetainedSpan {
        RetainedSpan {
            span_id: ev.span_id,
            parent_id: ev.parent_id,
            stage: ev.stage.name().to_string(),
            start_us: ev.start_us,
            dur_ns: ev.dur_ns,
            status: ev.status.as_str().to_string(),
        }
    }
}

/// The `{"op":"trace"}` reply, as [`FlightRecorder::dump`] produces it:
/// `{"status":"trace","suppressed":N,"retained":[…]}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDump {
    /// Promotions dropped because the retained set was full.
    pub suppressed: u64,
    /// The retained traces, oldest first.
    pub retained: Vec<RetainedTrace>,
}

impl TraceDump {
    /// Renders the `{"status":"trace",…}` reply line.
    pub fn to_line(&self) -> String {
        json::to_string(self).expect("a trace dump holds no floats")
    }

    /// Parses a `{"status":"trace",…}` reply line.
    pub fn from_line(line: &str) -> Result<TraceDump, String> {
        json::from_str(line.trim_end()).map_err(|e| e.to_string())
    }
}

struct Retained {
    traces: VecDeque<RetainedTrace>,
    cap: usize,
}

/// Always-on, lock-free ring buffer of recent [`SpanEvent`]s with a
/// bounded tail-sampled retained set. See the module docs for the design;
/// most code uses the process-wide [`flight_recorder`].
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    epoch: Instant,
    retained: Mutex<Retained>,
    /// Promotions suppressed because the retained set was full.
    suppressed: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with `ring_cap` span slots and at most
    /// `retain_cap` retained traces. Both caps are clamped to ≥ 1.
    pub fn new(ring_cap: usize, retain_cap: usize) -> FlightRecorder {
        let ring_cap = ring_cap.max(1);
        FlightRecorder {
            slots: (0..ring_cap).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            retained: Mutex::new(Retained {
                traces: VecDeque::new(),
                cap: retain_cap.max(1),
            }),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Microseconds since this recorder's epoch — use as a span's start
    /// timestamp.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The one stage record: feeds `stage`'s `trace.stage.<name>`
    /// histogram and, when `span` is present, writes the span into the
    /// ring starting at `start_us`. Lock-free: one `fetch_add` to claim a
    /// slot plus eight atomic stores. Most call sites go through
    /// [`Stage::record`], which times the span as ending now.
    pub fn record(
        &self,
        stage: Stage,
        span: Option<TraceContext>,
        start_us: u64,
        dur: Duration,
        status: SpanStatus,
    ) {
        stage.histogram().record_duration(dur);
        let Some(ctx) = span else { return };
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // Seqlock write: odd while in flight, even (generation-stamped)
        // when done. Readers that observe an odd or changed seq discard.
        slot.seq.store(idx.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        slot.trace_id.store(ctx.trace_id, Ordering::Relaxed);
        slot.span_id.store(ctx.span_id, Ordering::Relaxed);
        slot.parent_id.store(ctx.parent_id, Ordering::Relaxed);
        slot.stage.store(stage.seed(), Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.status.store(status.code(), Ordering::Relaxed);
        slot.seq.store(idx.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    fn read_slot(&self, slot: &Slot) -> Option<SpanEvent> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let ev = SpanEvent {
            trace_id: slot.trace_id.load(Ordering::Relaxed),
            span_id: slot.span_id.load(Ordering::Relaxed),
            parent_id: slot.parent_id.load(Ordering::Relaxed),
            stage: Stage::from_seed(slot.stage.load(Ordering::Relaxed))?,
            start_us: slot.start_us.load(Ordering::Relaxed),
            dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            status: SpanStatus::from_code(slot.status.load(Ordering::Relaxed))?,
        };
        let s2 = slot.seq.load(Ordering::Acquire);
        (s1 == s2).then_some(ev)
    }

    /// Consistent snapshot of every readable span in the ring, sorted by
    /// start time then span id. Torn (mid-write) slots are skipped.
    pub fn recent(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> =
            self.slots.iter().filter_map(|s| self.read_slot(s)).collect();
        out.sort_by_key(|e| (e.start_us, e.span_id));
        out
    }

    /// Spans of one trace currently in the ring, sorted by start time.
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self
            .slots
            .iter()
            .filter_map(|s| self.read_slot(s))
            .filter(|e| e.trace_id == trace_id)
            .collect();
        out.sort_by_key(|e| (e.start_us, e.span_id));
        out
    }

    /// Tail-sampling promotion: copies `trace_id`'s spans out of the ring
    /// into the retained set under `verdict`, one event per span id: a
    /// retried attempt re-records the stages it repeats under the same
    /// derived ids, and only the earliest of each is kept. Re-promoting a
    /// retained trace merges any new spans (same key) and keeps the first
    /// verdict — a retried request stays one trace. Once the retained set
    /// is full, promotions of *new* traces become a cheap counter bump
    /// (no scan, no eviction) so shed storms stay cheap and the first
    /// retained traces stay stable.
    pub fn promote(&self, trace_id: u64, verdict: &'static str) {
        {
            let r = self.retained.lock().unwrap_or_else(|e| e.into_inner());
            if r.traces.len() >= r.cap && !r.traces.iter().any(|t| t.trace_id == trace_id) {
                drop(r);
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                crate::counter("trace.promotions_suppressed").inc();
                return;
            }
        }
        let mut seen = std::collections::HashSet::new();
        let spans: Vec<RetainedSpan> = self
            .spans_for(trace_id)
            .into_iter()
            .filter(|ev| seen.insert(ev.span_id))
            .map(RetainedSpan::from)
            .collect();
        let mut r = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = r.traces.iter_mut().find(|t| t.trace_id == trace_id) {
            for ev in spans {
                if !t.spans.iter().any(|s| s.span_id == ev.span_id) {
                    t.spans.push(ev);
                }
            }
            t.spans.sort_by_key(|e| (e.start_us, e.span_id));
            return;
        }
        if r.traces.len() >= r.cap {
            // Raced to full between the check and the scan.
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            crate::counter("trace.promotions_suppressed").inc();
            return;
        }
        r.traces.push_back(RetainedTrace { trace_id, verdict: verdict.to_string(), spans });
        crate::counter("trace.promoted").inc();
        crate::counter(match verdict {
            "shed" => "trace.promoted_shed",
            "error" => "trace.promoted_error",
            "slow" => "trace.promoted_slow",
            _ => "trace.promoted_other",
        })
        .inc();
    }

    /// The retained set (oldest first) and the suppressed-promotion
    /// count: the `{"op":"trace"}` reply.
    pub fn dump(&self) -> TraceDump {
        let r = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        TraceDump {
            suppressed: self.suppressed.load(Ordering::Relaxed),
            retained: r.traces.iter().cloned().collect(),
        }
    }

    /// Empties the ring and the retained set (handles stay valid). For
    /// tests and bench harnesses; concurrent writes may land either side.
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.seq.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Relaxed);
        let mut r = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        r.traces.clear();
        self.suppressed.store(0, Ordering::Relaxed);
    }
}

/// The process-wide flight recorder used by the serving pipeline: 2048
/// span slots, 64 retained traces.
pub fn flight_recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(2048, 64))
}

impl ToJson for RetainedSpan {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("span_id", &Hex64(self.span_id))
            .field("parent_id", &Hex64(self.parent_id))
            .field("stage", &self.stage)
            .field("start_us", &self.start_us)
            .field("dur_ns", &self.dur_ns)
            .field("status", &self.status)
            .end();
    }
}

impl FromJson for RetainedSpan {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            span_id: o.field::<Hex64>("span_id")?.0,
            parent_id: o.field::<Hex64>("parent_id")?.0,
            stage: o.field("stage")?,
            start_us: o.field("start_us")?,
            dur_ns: o.field("dur_ns")?,
            status: o.field("status")?,
        })
    }
}

impl ToJson for RetainedTrace {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("trace_id", &Hex64(self.trace_id))
            .field("verdict", &self.verdict)
            .field("spans", &self.spans)
            .end();
    }
}

impl FromJson for RetainedTrace {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            trace_id: o.field::<Hex64>("trace_id")?.0,
            verdict: o.field("verdict")?,
            spans: o.field("spans")?,
        })
    }
}

impl ToJson for TraceDump {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("status", "trace")
            .field("suppressed", &self.suppressed)
            .field("retained", &self.retained)
            .end();
    }
}

impl FromJson for TraceDump {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        if o.get("status").and_then(JsonValue::as_str) != Some("trace") {
            return Err(JsonError::Shape("response is not a trace payload".into()));
        }
        Ok(Self { suppressed: o.field("suppressed")?, retained: o.field("retained")? })
    }
}

/// Renders retained traces as a fixed-width per-stage waterfall, one
/// block per trace: each span is indented by tree depth with a bar
/// scaled against the trace's total duration. Deterministic for a given
/// input, so tests can pin the exact output.
pub fn render_waterfall(traces: &[RetainedTrace]) -> String {
    const BAR: usize = 32;
    let mut out = String::new();
    for t in traces {
        let t0 = t.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = t
            .spans
            .iter()
            .map(|s| s.start_us.saturating_sub(t0) * 1000 + s.dur_ns)
            .max()
            .unwrap_or(0)
            .max(1);
        out.push_str(&format!(
            "trace {:016x}  verdict={}  spans={}  total={}us\n",
            t.trace_id,
            t.verdict,
            t.spans.len(),
            end / 1000
        ));
        for s in &t.spans {
            let depth = depth_of(t, s);
            let off_ns = s.start_us.saturating_sub(t0) * 1000;
            let lead = (off_ns as u128 * BAR as u128 / end as u128) as usize;
            let fill = ((s.dur_ns as u128 * BAR as u128).div_ceil(end as u128) as usize)
                .clamp(1, BAR - lead.min(BAR - 1));
            let label = format!("{}{}", "  ".repeat(depth), s.stage);
            out.push_str(&format!(
                "  {label:<22} [{}{}{}] {:>9}us {}\n",
                " ".repeat(lead.min(BAR - 1)),
                "#".repeat(fill),
                " ".repeat(BAR.saturating_sub(lead.min(BAR - 1) + fill)),
                s.dur_ns / 1000,
                s.status,
            ));
        }
    }
    out
}

/// Tree depth of a span inside its trace (root = 0); bounded walk so a
/// malformed parent cycle cannot hang the renderer.
fn depth_of(t: &RetainedTrace, s: &RetainedSpan) -> usize {
    let mut depth = 0;
    let mut parent = s.parent_id;
    while parent != 0 && depth < 8 {
        match t.spans.iter().find(|p| p.span_id == parent) {
            Some(p) => {
                depth += 1;
                parent = p.parent_id;
            }
            None => break,
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Records `stage` on `r` as a child span of `parent`.
    fn child(
        r: &FlightRecorder,
        parent: TraceContext,
        stage: Stage,
        start_us: u64,
        dur: Duration,
        status: SpanStatus,
    ) {
        r.record(stage, Some(stage.child_of(parent)), start_us, dur, status);
    }

    #[test]
    fn child_ids_are_deterministic_and_distinct() {
        let root = TraceContext::root(42);
        assert_eq!(root, TraceContext::root(42));
        assert_eq!(root.parent_id, 0);
        let a = root.child(1);
        let b = root.child(2);
        assert_eq!(a, root.child(1), "same seq, same child");
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(a.parent_id, root.span_id);
        assert_eq!(a.trace_id, root.trace_id);
    }

    #[test]
    fn ring_records_and_reads_back() {
        let r = FlightRecorder::new(8, 4);
        let ctx = TraceContext::root(7);
        r.record(Stage::Request, Some(ctx), 10, ms(2), SpanStatus::Ok);
        child(&r, ctx, Stage::QueueWait, 11, ms(1), SpanStatus::Ok);
        let events = r.recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::Request);
        assert_eq!(events[1].stage, Stage::QueueWait);
        assert_eq!(events[1].parent_id, ctx.span_id);
        assert_eq!(events[1].dur_ns, 1_000_000);
    }

    #[test]
    fn ring_wraps_keeping_latest() {
        let r = FlightRecorder::new(4, 4);
        for i in 0..10u64 {
            r.record(Stage::Request, Some(TraceContext::root(i)), i, ms(1), SpanStatus::Ok);
        }
        let events = r.recent();
        assert_eq!(events.len(), 4, "ring keeps exactly cap events");
        let ids: Vec<u64> = events.iter().map(|e| e.start_us).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest events overwritten first");
    }

    #[test]
    fn promotion_copies_spans_and_merges_retries() {
        let r = FlightRecorder::new(32, 4);
        let ctx = TraceContext::root(99);
        r.record(Stage::Request, Some(ctx), 0, ms(3), SpanStatus::Error);
        child(&r, ctx, Stage::Regress, 1, ms(1), SpanStatus::Ok);
        r.promote(99, "error");
        // A retry re-records the same deterministic span ids plus one new
        // stage; re-promotion merges instead of duplicating.
        r.record(Stage::Request, Some(ctx), 50, ms(3), SpanStatus::Error);
        child(&r, ctx, Stage::Serialize, 51, ms(1), SpanStatus::Ok);
        r.promote(99, "shed");
        let retained = r.dump().retained;
        assert_eq!(retained.len(), 1);
        let t = &retained[0];
        assert_eq!(t.verdict, "error", "first verdict wins");
        assert_eq!(t.spans.len(), 3, "merged, not doubled: {:?}", t.spans);
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.span_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "span ids unique after merge");
    }

    #[test]
    fn first_promotion_keeps_one_event_per_span_id() {
        // Both attempts of a retried request land in the ring before
        // anything promotes the trace (the soak tier's shape).
        let r = FlightRecorder::new(32, 4);
        let ctx = TraceContext::root(7);
        child(&r, ctx, Stage::FrameRead, 10, ms(1), SpanStatus::Ok);
        child(&r, ctx, Stage::FrameRead, 60, ms(1), SpanStatus::Ok);
        child(&r, ctx, Stage::Regress, 61, ms(1), SpanStatus::Ok);
        r.promote(7, "slow");
        let spans = &r.dump().retained[0].spans;
        assert_eq!(spans.len(), 2, "one event per span id: {spans:?}");
        assert_eq!(spans[0].start_us, 10, "the earliest attempt's event is the one kept");
    }

    #[test]
    fn full_retained_set_suppresses_new_promotions() {
        let r = FlightRecorder::new(32, 2);
        for i in 0..5u64 {
            let ctx = TraceContext::root(i);
            r.record(Stage::Request, Some(ctx), i, ms(1), SpanStatus::Shed);
            r.promote(i, "shed");
        }
        let retained = r.dump().retained;
        assert_eq!(retained.len(), 2, "bounded");
        let ids: Vec<u64> = retained.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![0, 1], "first promotions stick");
        assert_eq!(r.dump().suppressed, 3);
        // Re-promoting an already-retained trace still merges.
        r.promote(1, "shed");
        assert_eq!(r.dump().suppressed, 3);
    }

    #[test]
    fn same_inputs_same_retained_ids() {
        let run = || {
            let r = FlightRecorder::new(64, 8);
            for i in 0..6u64 {
                let ctx = TraceContext::root(0x1000 + i);
                let status = if i % 2 == 0 { SpanStatus::Error } else { SpanStatus::Ok };
                r.record(Stage::Request, Some(ctx), i, ms(1), status);
                if i % 2 == 0 {
                    r.promote(ctx.trace_id, "error");
                }
            }
            let mut ids: Vec<u64> = r.dump().retained.iter().map(|t| t.trace_id).collect();
            ids.sort_unstable();
            (ids, r.dump().to_line())
        };
        assert_eq!(run(), run(), "same events, same retained set and dump");
    }

    #[test]
    fn dump_round_trips_through_parser() {
        let r = FlightRecorder::new(32, 4);
        let ctx = TraceContext::root(0xDEAD_BEEF);
        r.record(Stage::Request, Some(ctx), 5, ms(4), SpanStatus::Shed);
        child(&r, ctx, Stage::QueueWait, 6, ms(2), SpanStatus::Expired);
        r.promote(ctx.trace_id, "shed");
        let line = r.dump().to_line();
        assert!(line.starts_with(r#"{"status":"trace","suppressed":0,"#), "{line}");
        let dump = TraceDump::from_line(&line).expect("dump decodes");
        assert_eq!(dump, r.dump());
        assert!(TraceDump::from_line(r#"{"status":"stats","suppressed":0,"retained":[]}"#).is_err());
        let traces = dump.retained;
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].trace_id, 0xDEAD_BEEF);
        assert_eq!(traces[0].verdict, "shed");
        assert_eq!(traces[0].spans.len(), 2);
        assert_eq!(traces[0].spans[1].stage, Stage::QueueWait.name());
        assert_eq!(traces[0].spans[1].status, "expired");
        assert_eq!(traces[0].spans[1].parent_id, ctx.span_id);
    }

    #[test]
    fn waterfall_renders_parented_tree() {
        let r = FlightRecorder::new(32, 4);
        let ctx = TraceContext::root(0xAB);
        r.record(Stage::Request, Some(ctx), 0, ms(10), SpanStatus::Ok);
        child(&r, ctx, Stage::QueueWait, 1, ms(2), SpanStatus::Ok);
        child(&r, ctx, Stage::Regress, 4, ms(5), SpanStatus::Ok);
        r.promote(ctx.trace_id, "slow");
        let traces = TraceDump::from_line(&r.dump().to_line()).unwrap().retained;
        let rendered = render_waterfall(&traces);
        assert!(rendered.contains("verdict=slow"), "{rendered}");
        assert!(rendered.contains("request"), "{rendered}");
        assert!(rendered.contains("  queue_wait"), "children indented: {rendered}");
        assert!(rendered.contains('#'), "bars present: {rendered}");
        // Deterministic: same input, same art.
        assert_eq!(rendered, render_waterfall(&traces));
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        let r = FlightRecorder::new(16, 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let ctx = TraceContext::root((t << 32) | i);
                        r.record(Stage::Dispatch, Some(ctx), i, ms(1), SpanStatus::Ok);
                    }
                });
            }
            let r = &r;
            s.spawn(move || {
                for _ in 0..200 {
                    for ev in r.recent() {
                        // Every surfaced event decodes to a known stage
                        // and status; torn slots must be filtered out.
                        assert_eq!(ev.stage, Stage::Dispatch);
                        assert_eq!(ev.status, SpanStatus::Ok);
                        assert_eq!(ev.dur_ns, 1_000_000);
                    }
                }
            });
        });
    }

    #[test]
    fn reset_empties_ring_and_retained() {
        let r = FlightRecorder::new(8, 4);
        let ctx = TraceContext::root(1);
        r.record(Stage::Request, Some(ctx), 0, ms(1), SpanStatus::Error);
        r.promote(1, "error");
        r.reset();
        assert!(r.recent().is_empty());
        assert!(r.dump().retained.is_empty());
        assert_eq!(r.dump().suppressed, 0);
    }

    #[test]
    fn stages_keep_their_names_and_seeds() {
        // The seed is the wire contract: it fixes every child span id, so
        // reordering the enum must fail here, not in a dump.
        let pinned = [
            ("frame_read", 1),
            ("request", 2),
            ("queue_wait", 3),
            ("embed_cache", 4),
            ("ghn_embed", 5),
            ("regress", 6),
            ("dispatch", 7),
            ("serialize", 8),
            ("accept", 9),
            ("route", 12),
        ];
        let live: Vec<(&str, u64)> = Stage::ALL.iter().map(|s| (s.name(), s.seed())).collect();
        assert_eq!(live, pinned);
        for stage in Stage::ALL {
            let named = crate::histogram(&format!("trace.stage.{}", stage.name()));
            assert!(std::ptr::eq(stage.histogram(), named), "{stage:?} histogram misnamed");
        }
    }

    #[test]
    fn untraced_records_feed_the_histogram_only() {
        let r = FlightRecorder::new(8, 4);
        let before = Stage::Route.histogram().count();
        r.record(Stage::Route, None, 0, ms(1), SpanStatus::Ok);
        assert!(Stage::Route.histogram().count() > before);
        assert!(r.recent().is_empty(), "no context, no ring slot");
    }
}
