//! `BENCH_serve.json` — the serving-capacity benchmark report.
//!
//! `pddl-loadgen` (src/bin/loadgen.rs) measures the bounded controller
//! under a low-rate phase (expected: zero sheds) and a saturation phase
//! (expected: nonzero sheds) and renders one [`ServeReport`] as the first
//! point on the repository's perf trajectory. The JSON is rendered by
//! hand — deterministic field order, fixed float precision — so the
//! shape can be pinned mechanically: the golden
//! schema test (`crates/bench/tests/bench_schema.rs`) compares
//! [`schema_paths`] of a rendered report against
//! `tests/fixtures/bench_serve_schema.json`, and future PRs diff
//! trajectory files without parsing ambiguity.
//!
//! Units are encoded in the field names: `*_us` are microseconds, `*_rps`
//! are requests per second, `*_ms` milliseconds. Telemetry entries carry
//! the exact `pddl-telemetry` counter/gauge names so a report can be
//! cross-checked against a live `{"op":"stats"}` snapshot.
//!
//! The same conventions apply to [`TensorReport`] / `BENCH_tensor.json`
//! (the GEMM-core benchmark written by `pddl-tensorbench`, pinned by
//! `tests/fixtures/bench_tensor_schema.json`), to [`ShardReport`] /
//! `BENCH_shard.json` (the sharded-fleet benchmark written by
//! `pddl-loadgen --transport fleet`, pinned by
//! `tests/fixtures/bench_shard_schema.json`), and to [`SchedReport`] /
//! `BENCH_sched.json` (the prediction-driven-scheduling benchmark
//! written by `pddl-schedbench`, pinned by
//! `tests/fixtures/bench_sched_schema.json` — deterministic, not
//! wall-clock: the same seed reproduces the file byte for byte).

use pddl_telemetry::JsonValue;

/// Exact latency percentiles over one phase's completed requests, in
/// microseconds. Percentiles are computed from the full sorted sample
/// (nearest-rank), not a sketch — loadgen keeps every latency.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest completed request.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
}

/// Nearest-rank percentile (`p` in `[0, 1]`) over an ascending-sorted slice.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Summarizes a latency sample (sorts in place).
pub fn summarize(latencies_us: &mut [u64]) -> LatencySummary {
    latencies_us.sort_unstable();
    if latencies_us.is_empty() {
        return LatencySummary::default();
    }
    let sum: u128 = latencies_us.iter().map(|&v| v as u128).sum();
    LatencySummary {
        p50_us: percentile(latencies_us, 0.50),
        p95_us: percentile(latencies_us, 0.95),
        p99_us: percentile(latencies_us, 0.99),
        max_us: *latencies_us.last().unwrap(),
        mean_us: (sum / latencies_us.len() as u128) as u64,
    }
}

/// Typed breakdown of *why* requests were rejected during a phase. The
/// four buckets mirror [`pddl_cluster::retry::ShedReason`] — every shed
/// and expiry lands in exactly one, so `queue_full + deadline +
/// connection_limit + draining <= shed + expired + failed` (transport
/// deaths carry no reason).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShedReasons {
    /// Admission queue was full (`SubmitError::Full` / `queue_full`).
    pub queue_full: u64,
    /// Expired waiting in the queue past the request deadline.
    pub deadline: u64,
    /// Rejected at accept because the connection cap was reached.
    pub connection_limit: u64,
    /// Rejected because the pool was shutting down.
    pub draining: u64,
}

/// One load phase: a client fleet driven at `target_rps` (0 = unpaced,
/// i.e. saturation) with every request outcome accounted for —
/// `completed + shed + expired + failed == requests`.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase label: `low_rate` or `saturate`.
    pub name: String,
    /// Aggregate offered rate across the fleet (0 = as fast as possible).
    pub target_rps: f64,
    /// Wall-clock length of the phase.
    pub duration_secs: f64,
    /// Round trips attempted.
    pub requests: u64,
    /// Requests answered with a real prediction.
    pub completed: u64,
    /// Requests shed at admission (`queue_full` / `connection_limit`).
    pub shed: u64,
    /// Typed reasons behind the sheds and expiries.
    pub shed_reasons: ShedReasons,
    /// Requests expired in the queue (`deadline`).
    pub expired: u64,
    /// Requests that failed for any other reason (transport death).
    pub failed: u64,
    /// Client-side retries performed (resilient clients only).
    pub retries: u64,
    /// Completed requests per second of phase wall-clock.
    pub throughput_rps: f64,
    /// Latency of completed requests.
    pub latency: LatencySummary,
}

/// Per-pipeline-stage latency summary read from the `trace.stage.*`
/// histograms after the run — the serving pipeline as the flight recorder
/// saw it, in microseconds (histograms record nanoseconds; the report
/// divides by 1000).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSummary {
    /// Spans recorded for this stage across the whole run.
    pub count: u64,
    /// Median stage latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile stage latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile stage latency, microseconds.
    pub p99_us: u64,
}

/// Tracing-overhead measurement from dedicated closed-loop bursts on the
/// serving core, interleaving rounds with every request carrying a trace
/// context against rounds with tracing fully off. `overhead_ratio` is the
/// median of the per-round `untraced / traced` throughput ratios, so 1.0
/// means free and 1.05 means tracing costs 5% throughput — the committed
/// baseline is gated at ≤ 1.05 by the bench schema tier.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracingSummary {
    /// Median completed requests/second with per-request trace contexts.
    pub traced_rps: f64,
    /// Median completed requests/second with tracing off.
    pub untraced_rps: f64,
    /// Median per-round `untraced_rps / traced_rps` (0 when the bursts
    /// did not run). Not exactly the quotient of the two medians above.
    pub overhead_ratio: f64,
}

/// The full benchmark report — rendered to `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// `inproc` (ServePool driven directly) or `tcp` (full wire stack).
    pub transport: String,
    /// Worker threads in the serving pool.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_depth: usize,
    /// Concurrent load-generating clients.
    pub clients: usize,
    /// Requests attempted per client per phase.
    pub requests_per_client: usize,
    /// Queue-wait deadline, milliseconds.
    pub deadline_ms: u64,
    /// Overload pacing hint, milliseconds.
    pub retry_after_ms: u64,
    /// The measured phases, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Per-stage latency summaries keyed by flight-recorder stage name
    /// (`queue_wait`, `embed_cache`, `ghn_embed`, `regress`, `serialize`),
    /// in render order.
    pub stages: Vec<(String, StageSummary)>,
    /// Tracing-overhead burst results.
    pub tracing: TracingSummary,
    /// Final values of the serving-side telemetry series, keyed by their
    /// exact registry names (e.g. `controller.requests_shed`).
    pub telemetry: Vec<(String, u64)>,
}

fn fnum(v: f64) -> String {
    // Fixed precision keeps renders byte-stable across runs of the same
    // measurements and diffs small across trajectory points.
    format!("{v:.3}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl ServeReport {
    /// Renders the report as pretty-printed JSON with a fixed field
    /// order. This exact shape is pinned by the golden schema test.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"serve\",\n");
        // v2: per-phase shed_reasons, per-stage percentiles, tracing block.
        // v4: v3's `precision` block removed (one inference arithmetic).
        out.push_str("  \"version\": 4,\n");
        out.push_str(&format!("  \"transport\": \"{}\",\n", escape(&self.transport)));
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"workers\": {},\n", self.workers));
        out.push_str(&format!("    \"queue_depth\": {},\n", self.queue_depth));
        out.push_str(&format!("    \"clients\": {},\n", self.clients));
        out.push_str(&format!(
            "    \"requests_per_client\": {},\n",
            self.requests_per_client
        ));
        out.push_str(&format!("    \"deadline_ms\": {},\n", self.deadline_ms));
        out.push_str(&format!("    \"retry_after_ms\": {}\n", self.retry_after_ms));
        out.push_str("  },\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", escape(&p.name)));
            out.push_str(&format!("      \"target_rps\": {},\n", fnum(p.target_rps)));
            out.push_str(&format!(
                "      \"duration_secs\": {},\n",
                fnum(p.duration_secs)
            ));
            out.push_str(&format!("      \"requests\": {},\n", p.requests));
            out.push_str(&format!("      \"completed\": {},\n", p.completed));
            out.push_str(&format!("      \"shed\": {},\n", p.shed));
            out.push_str("      \"shed_reasons\": {\n");
            out.push_str(&format!(
                "        \"queue_full\": {},\n",
                p.shed_reasons.queue_full
            ));
            out.push_str(&format!("        \"deadline\": {},\n", p.shed_reasons.deadline));
            out.push_str(&format!(
                "        \"connection_limit\": {},\n",
                p.shed_reasons.connection_limit
            ));
            out.push_str(&format!("        \"draining\": {}\n", p.shed_reasons.draining));
            out.push_str("      },\n");
            out.push_str(&format!("      \"expired\": {},\n", p.expired));
            out.push_str(&format!("      \"failed\": {},\n", p.failed));
            out.push_str(&format!("      \"retries\": {},\n", p.retries));
            out.push_str(&format!(
                "      \"throughput_rps\": {},\n",
                fnum(p.throughput_rps)
            ));
            out.push_str("      \"latency_us\": {\n");
            out.push_str(&format!("        \"p50\": {},\n", p.latency.p50_us));
            out.push_str(&format!("        \"p95\": {},\n", p.latency.p95_us));
            out.push_str(&format!("        \"p99\": {},\n", p.latency.p99_us));
            out.push_str(&format!("        \"max\": {},\n", p.latency.max_us));
            out.push_str(&format!("        \"mean\": {}\n", p.latency.mean_us));
            out.push_str("      }\n");
            out.push_str(if i + 1 == self.phases.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"stages\": {\n");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", escape(name)));
            out.push_str(&format!("      \"count\": {},\n", s.count));
            out.push_str(&format!("      \"p50_us\": {},\n", s.p50_us));
            out.push_str(&format!("      \"p95_us\": {},\n", s.p95_us));
            out.push_str(&format!("      \"p99_us\": {}\n", s.p99_us));
            out.push_str(if i + 1 == self.stages.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  },\n");
        out.push_str("  \"tracing\": {\n");
        out.push_str(&format!("    \"traced_rps\": {},\n", fnum(self.tracing.traced_rps)));
        out.push_str(&format!(
            "    \"untraced_rps\": {},\n",
            fnum(self.tracing.untraced_rps)
        ));
        out.push_str(&format!(
            "    \"overhead_ratio\": {}\n",
            fnum(self.tracing.overhead_ratio)
        ));
        out.push_str("  },\n");
        out.push_str("  \"telemetry\": {\n");
        for (i, (name, value)) in self.telemetry.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", escape(name), value));
            out.push_str(if i + 1 == self.telemetry.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// One GEMM shape measured four ways: the reference transpose+dot
/// kernel, the blocked packed kernel run serially, the blocked kernel
/// with the work pool enabled, and the blocked kernel pinned to the
/// scalar microkernel. Times are the median of the run's reps.
#[derive(Clone, Debug)]
pub struct GemmCase {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// `matmul_reference` median, microseconds.
    pub reference_us: f64,
    /// Blocked kernel, serial (caller-owned pack buffer), microseconds.
    pub blocked_us: f64,
    /// Blocked kernel over the global work pool, microseconds.
    pub pooled_us: f64,
    /// Blocked kernel forced onto the scalar microkernel, microseconds.
    pub scalar_us: f64,
    /// `reference_us / blocked_us`.
    pub speedup_blocked: f64,
    /// `reference_us / pooled_us`.
    pub speedup_pooled: f64,
    /// `scalar_us / blocked_us` — what the dispatched SIMD microkernel
    /// buys over the portable fallback (1.0 when the host is scalar).
    pub speedup_simd: f64,
    /// Blocked-kernel throughput, `2·m·n·k / blocked_us / 1e3` GFLOP/s.
    pub gflops_blocked: f64,
}

/// End-to-end GHN inference: one `embed_with_schedule` call on a real zoo
/// architecture, scalar per-edge reference loops vs the inference path
/// (`batched_us` is that path's key in the pinned report schema).
#[derive(Clone, Debug)]
pub struct EmbedE2e {
    pub model: String,
    pub nodes: usize,
    pub reference_us: f64,
    pub batched_us: f64,
    pub speedup: f64,
}

/// End-to-end GHN meta-training cost on the current (fused) tape.
#[derive(Clone, Debug)]
pub struct TrainE2e {
    pub num_graphs: usize,
    pub epochs: usize,
    pub total_us: f64,
    pub us_per_epoch: f64,
}

/// The GEMM-core benchmark report — rendered to `BENCH_tensor.json`.
#[derive(Clone, Debug)]
pub struct TensorReport {
    /// Worker threads the pooled measurements ran with.
    pub threads: usize,
    /// Repetitions per measurement (medians are reported).
    pub reps: usize,
    /// Microkernel backend the run dispatched to (`avx2+fma`, `neon`,
    /// `scalar`) — `pddl_tensor::backend().name()` at measurement time.
    pub kernel: String,
    pub gemm: Vec<GemmCase>,
    pub embed_graph: EmbedE2e,
    pub train_epoch: TrainE2e,
    /// Final tensor/par telemetry counters, keyed by registry name.
    pub telemetry: Vec<(String, u64)>,
}

impl TensorReport {
    /// Renders pretty-printed JSON with a fixed field order; the shape is
    /// pinned by the golden schema test like [`ServeReport::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"tensor\",\n");
        out.push_str("  \"version\": 3,\n");
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"threads\": {},\n", self.threads));
        out.push_str(&format!("    \"reps\": {},\n", self.reps));
        out.push_str(&format!("    \"kernel\": \"{}\"\n", escape(&self.kernel)));
        out.push_str("  },\n");
        out.push_str("  \"gemm\": [\n");
        for (i, c) in self.gemm.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"m\": {},\n", c.m));
            out.push_str(&format!("      \"k\": {},\n", c.k));
            out.push_str(&format!("      \"n\": {},\n", c.n));
            out.push_str(&format!("      \"reference_us\": {},\n", fnum(c.reference_us)));
            out.push_str(&format!("      \"blocked_us\": {},\n", fnum(c.blocked_us)));
            out.push_str(&format!("      \"pooled_us\": {},\n", fnum(c.pooled_us)));
            out.push_str(&format!("      \"scalar_us\": {},\n", fnum(c.scalar_us)));
            out.push_str(&format!(
                "      \"speedup_blocked\": {},\n",
                fnum(c.speedup_blocked)
            ));
            out.push_str(&format!(
                "      \"speedup_pooled\": {},\n",
                fnum(c.speedup_pooled)
            ));
            out.push_str(&format!("      \"speedup_simd\": {},\n", fnum(c.speedup_simd)));
            out.push_str(&format!(
                "      \"gflops_blocked\": {}\n",
                fnum(c.gflops_blocked)
            ));
            out.push_str(if i + 1 == self.gemm.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"embed_graph\": {\n");
        out.push_str(&format!("    \"model\": \"{}\",\n", escape(&self.embed_graph.model)));
        out.push_str(&format!("    \"nodes\": {},\n", self.embed_graph.nodes));
        out.push_str(&format!(
            "    \"reference_us\": {},\n",
            fnum(self.embed_graph.reference_us)
        ));
        out.push_str(&format!(
            "    \"batched_us\": {},\n",
            fnum(self.embed_graph.batched_us)
        ));
        out.push_str(&format!("    \"speedup\": {}\n", fnum(self.embed_graph.speedup)));
        out.push_str("  },\n");
        out.push_str("  \"train_epoch\": {\n");
        out.push_str(&format!("    \"num_graphs\": {},\n", self.train_epoch.num_graphs));
        out.push_str(&format!("    \"epochs\": {},\n", self.train_epoch.epochs));
        out.push_str(&format!("    \"total_us\": {},\n", fnum(self.train_epoch.total_us)));
        out.push_str(&format!(
            "    \"us_per_epoch\": {}\n",
            fnum(self.train_epoch.us_per_epoch)
        ));
        out.push_str("  },\n");
        out.push_str("  \"telemetry\": {\n");
        for (i, (name, value)) in self.telemetry.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", escape(name), value));
            out.push_str(if i + 1 == self.telemetry.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// One point on the fleet-scaling curve: the same saturating client
/// fleet (scaled with the shard count) driven through the consistent-hash
/// ring at a given fleet size.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Fleet size this point was measured at.
    pub shards: usize,
    /// Concurrent clients driving the fleet.
    pub clients: usize,
    /// Round trips attempted.
    pub requests: u64,
    /// Requests answered with a real prediction.
    pub completed: u64,
    /// Requests shed at admission (clients back off and retry).
    pub shed: u64,
    /// Wall-clock length of the point.
    pub duration_secs: f64,
    /// Completed requests per second of wall-clock.
    pub throughput_rps: f64,
    /// `throughput_rps / single-shard throughput_rps` — the headline
    /// fleet-scaling number (1.0 by construction on the first point).
    pub speedup_vs_1: f64,
}

/// The measured cost of one ring resize, counted over a fixed synthetic
/// keyspace: consistent hashing promises `moved_fraction` stays near
/// `1/to_shards` (only the new shard's arcs move) instead of the
/// `1 - 1/to_shards` a modulo router would pay.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceStep {
    /// Fleet size before the resize.
    pub from_shards: usize,
    /// Fleet size after the resize.
    pub to_shards: usize,
    /// Keys sampled.
    pub keys: u64,
    /// Keys whose owning shard changed.
    pub moved: u64,
    /// `moved / keys`.
    pub moved_fraction: f64,
    /// The bound the schema tier pins: `1/to_shards` plus vnode-variance
    /// slack. `moved_fraction` must stay at or below it.
    pub bound_fraction: f64,
}

/// Exactly-once accounting for the shard-death phase: a shard is killed
/// mid-load, clients observe the typed re-route signal, refresh
/// membership, and retry on the survivor ring. Every request must end
/// completed (exactly once) or shed — `duplicates` and `unanswered`
/// are hard zeros on the committed baseline.
#[derive(Clone, Copy, Debug)]
pub struct KillSummary {
    /// Fleet size before the kill.
    pub shards: usize,
    /// Id of the shard killed mid-load.
    pub killed_shard: u64,
    /// Round trips attempted across the phase.
    pub requests: u64,
    /// Requests answered with a real prediction, exactly once each.
    pub completed: u64,
    /// Requests that hit the dead shard and were re-routed to a survivor.
    pub rerouted: u64,
    /// Requests shed by survivor admission control (typed, retried-out).
    pub shed: u64,
    /// Requests answered more than once — must be zero.
    pub duplicates: u64,
    /// Requests never answered at all — must be zero.
    pub unanswered: u64,
    /// Membership epoch at phase start.
    pub epoch_before: u64,
    /// Membership epoch after the kill converged (one bump per death).
    pub epoch_after: u64,
}

/// The sharded-fleet benchmark report — rendered to `BENCH_shard.json`
/// by `pddl-loadgen --transport fleet`.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Worker threads per shard pool.
    pub workers_per_shard: usize,
    /// Admission queue capacity per shard.
    pub queue_depth: usize,
    /// Clients per shard in the scaling fleet (total = this × shards).
    pub clients_per_shard: usize,
    /// Requests attempted per client per point.
    pub requests_per_client: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Floor per-request service time, microseconds — models a shard
    /// whose capacity is accelerator/IO-bound rather than host-CPU-bound,
    /// so fleet scaling is measurable on a single-core runner.
    pub service_us: u64,
    /// Distinct workloads (ring keys) in the request mix.
    pub keyspace: usize,
    /// The scaling curve, ascending fleet sizes, first entry is the
    /// single-shard baseline.
    pub scaling: Vec<ScalingPoint>,
    /// Ring-resize costs over the synthetic keyspace.
    pub rebalance: Vec<RebalanceStep>,
    /// The shard-death phase.
    pub kill: KillSummary,
    /// Final values of fleet-side telemetry series, keyed by their exact
    /// registry names.
    pub telemetry: Vec<(String, u64)>,
}

impl ShardReport {
    /// Renders pretty-printed JSON with a fixed field order; the shape is
    /// pinned by the golden schema test like [`ServeReport::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"shard\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"workers_per_shard\": {},\n", self.workers_per_shard));
        out.push_str(&format!("    \"queue_depth\": {},\n", self.queue_depth));
        out.push_str(&format!("    \"clients_per_shard\": {},\n", self.clients_per_shard));
        out.push_str(&format!(
            "    \"requests_per_client\": {},\n",
            self.requests_per_client
        ));
        out.push_str(&format!("    \"vnodes\": {},\n", self.vnodes));
        out.push_str(&format!("    \"service_us\": {},\n", self.service_us));
        out.push_str(&format!("    \"keyspace\": {}\n", self.keyspace));
        out.push_str("  },\n");
        out.push_str("  \"scaling\": [\n");
        for (i, p) in self.scaling.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"shards\": {},\n", p.shards));
            out.push_str(&format!("      \"clients\": {},\n", p.clients));
            out.push_str(&format!("      \"requests\": {},\n", p.requests));
            out.push_str(&format!("      \"completed\": {},\n", p.completed));
            out.push_str(&format!("      \"shed\": {},\n", p.shed));
            out.push_str(&format!("      \"duration_secs\": {},\n", fnum(p.duration_secs)));
            out.push_str(&format!(
                "      \"throughput_rps\": {},\n",
                fnum(p.throughput_rps)
            ));
            out.push_str(&format!("      \"speedup_vs_1\": {}\n", fnum(p.speedup_vs_1)));
            out.push_str(if i + 1 == self.scaling.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"rebalance\": [\n");
        for (i, r) in self.rebalance.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"from_shards\": {},\n", r.from_shards));
            out.push_str(&format!("      \"to_shards\": {},\n", r.to_shards));
            out.push_str(&format!("      \"keys\": {},\n", r.keys));
            out.push_str(&format!("      \"moved\": {},\n", r.moved));
            out.push_str(&format!(
                "      \"moved_fraction\": {},\n",
                fnum(r.moved_fraction)
            ));
            out.push_str(&format!(
                "      \"bound_fraction\": {}\n",
                fnum(r.bound_fraction)
            ));
            out.push_str(if i + 1 == self.rebalance.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"kill\": {\n");
        out.push_str(&format!("    \"shards\": {},\n", self.kill.shards));
        out.push_str(&format!("    \"killed_shard\": {},\n", self.kill.killed_shard));
        out.push_str(&format!("    \"requests\": {},\n", self.kill.requests));
        out.push_str(&format!("    \"completed\": {},\n", self.kill.completed));
        out.push_str(&format!("    \"rerouted\": {},\n", self.kill.rerouted));
        out.push_str(&format!("    \"shed\": {},\n", self.kill.shed));
        out.push_str(&format!("    \"duplicates\": {},\n", self.kill.duplicates));
        out.push_str(&format!("    \"unanswered\": {},\n", self.kill.unanswered));
        out.push_str(&format!("    \"epoch_before\": {},\n", self.kill.epoch_before));
        out.push_str(&format!("    \"epoch_after\": {}\n", self.kill.epoch_after));
        out.push_str("  },\n");
        out.push_str("  \"telemetry\": {\n");
        for (i, (name, value)) in self.telemetry.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", escape(name), value));
            out.push_str(if i + 1 == self.telemetry.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// One policy's aggregate outcome on the burst scenario — the
/// missed-deadline/utilization comparison the sched benchmark is
/// committed to demonstrate.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Policy name (`fifo`, `sjf_predicted`, `deadline_aware`,
    /// `autoscale_predicted`).
    pub policy: String,
    /// Jobs submitted (== completed: the scenario runs to drain).
    pub submitted: u64,
    pub completed: u64,
    /// Jobs carrying a deadline SLO.
    pub deadlines_total: u64,
    pub deadlines_missed: u64,
    /// `100 × deadlines_missed / deadlines_total`.
    pub missed_pct: f64,
    /// Busy server-seconds / available capacity-seconds.
    pub utilization: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_secs: f64,
    /// 99th-percentile queue wait, seconds.
    pub p99_wait_secs: f64,
    /// Deepest the waiting queue ever got.
    pub peak_queue: u64,
}

/// One point of the committed frozen-vs-online accuracy curve (mean
/// relative prediction error per launch-time bucket).
#[derive(Clone, Copy, Debug)]
pub struct AccuracyPoint {
    /// Bucket end, seconds of simulation time.
    pub t_end_secs: f64,
    /// Mean `|pred/actual − 1|` of the continually-refit predictor.
    pub online_err: f64,
    /// Same for the frozen fit-once baseline.
    pub frozen_err: f64,
    /// Jobs launched in the bucket.
    pub jobs: u64,
}

/// The mid-run cost-shift scenario: one engine run whose runtime model
/// shifts by `factor` at `at_fraction` of the arrival horizon, with the
/// online predictor refitting through the shift while a frozen clone of
/// the same bootstrap fit degrades.
#[derive(Clone, Debug)]
pub struct ShiftScenario {
    /// Policy the shift run used.
    pub policy: String,
    /// Runtime multiplier applied at the shift point.
    pub factor: f64,
    /// Shift position within the arrival horizon (0..1).
    pub at_fraction: f64,
    /// Page–Hinkley fires during the run (expected: exactly 1).
    pub drift_events: u64,
    /// Window refits performed by the online model.
    pub refits: u64,
    /// Observations folded into the online model.
    pub updates: u64,
    /// Mean relative error before the shift, online predictor.
    pub pre_shift_online: f64,
    pub pre_shift_frozen: f64,
    /// Mean relative error after the shift (recovery transient excluded).
    pub post_shift_online: f64,
    pub post_shift_frozen: f64,
    /// `post_shift_online / pre_shift_online` — pinned ≤ 1.5.
    pub recovery_ratio: f64,
    /// `post_shift_frozen / post_shift_online` — pinned ≥ 3.
    pub frozen_vs_online: f64,
    /// The full accuracy-over-time curve.
    pub curve: Vec<AccuracyPoint>,
}

/// The prediction-driven-scheduling benchmark report — rendered to
/// `BENCH_sched.json` by `pddl-schedbench`. Unlike the wall-clock
/// benchmarks above, every number here is **bit-deterministic** for the
/// committed seed: re-running the binary must reproduce the file exactly.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Jobs per scenario run.
    pub jobs: usize,
    /// Server-pool size.
    pub servers: usize,
    /// The seed every scenario derives from.
    pub seed: u64,
    /// Burst-scenario policy comparison, fixed policy order.
    pub burst: Vec<PolicyRow>,
    /// The cost-shift scenario.
    pub shift: ShiftScenario,
    /// Final values of the scheduling/refit telemetry series, keyed by
    /// their exact registry names.
    pub telemetry: Vec<(String, u64)>,
}

impl SchedReport {
    /// Renders pretty-printed JSON with a fixed field order; the shape is
    /// pinned by the golden schema test like [`ServeReport::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"sched\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("    \"servers\": {},\n", self.servers));
        out.push_str(&format!("    \"seed\": {}\n", self.seed));
        out.push_str("  },\n");
        out.push_str("  \"burst\": [\n");
        for (i, p) in self.burst.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"policy\": \"{}\",\n", escape(&p.policy)));
            out.push_str(&format!("      \"submitted\": {},\n", p.submitted));
            out.push_str(&format!("      \"completed\": {},\n", p.completed));
            out.push_str(&format!("      \"deadlines_total\": {},\n", p.deadlines_total));
            out.push_str(&format!(
                "      \"deadlines_missed\": {},\n",
                p.deadlines_missed
            ));
            out.push_str(&format!("      \"missed_pct\": {},\n", fnum(p.missed_pct)));
            out.push_str(&format!("      \"utilization\": {},\n", fnum(p.utilization)));
            out.push_str(&format!(
                "      \"mean_wait_secs\": {},\n",
                fnum(p.mean_wait_secs)
            ));
            out.push_str(&format!(
                "      \"p99_wait_secs\": {},\n",
                fnum(p.p99_wait_secs)
            ));
            out.push_str(&format!("      \"peak_queue\": {}\n", p.peak_queue));
            out.push_str(if i + 1 == self.burst.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"shift\": {\n");
        let s = &self.shift;
        out.push_str(&format!("    \"policy\": \"{}\",\n", escape(&s.policy)));
        out.push_str(&format!("    \"factor\": {},\n", fnum(s.factor)));
        out.push_str(&format!("    \"at_fraction\": {},\n", fnum(s.at_fraction)));
        out.push_str(&format!("    \"drift_events\": {},\n", s.drift_events));
        out.push_str(&format!("    \"refits\": {},\n", s.refits));
        out.push_str(&format!("    \"updates\": {},\n", s.updates));
        out.push_str(&format!(
            "    \"pre_shift_online\": {},\n",
            fnum(s.pre_shift_online)
        ));
        out.push_str(&format!(
            "    \"pre_shift_frozen\": {},\n",
            fnum(s.pre_shift_frozen)
        ));
        out.push_str(&format!(
            "    \"post_shift_online\": {},\n",
            fnum(s.post_shift_online)
        ));
        out.push_str(&format!(
            "    \"post_shift_frozen\": {},\n",
            fnum(s.post_shift_frozen)
        ));
        out.push_str(&format!(
            "    \"recovery_ratio\": {},\n",
            fnum(s.recovery_ratio)
        ));
        out.push_str(&format!(
            "    \"frozen_vs_online\": {},\n",
            fnum(s.frozen_vs_online)
        ));
        out.push_str("    \"curve\": [\n");
        for (i, c) in s.curve.iter().enumerate() {
            out.push_str("      {\n");
            out.push_str(&format!("        \"t_end_secs\": {},\n", fnum(c.t_end_secs)));
            out.push_str(&format!("        \"online_err\": {},\n", fnum(c.online_err)));
            out.push_str(&format!("        \"frozen_err\": {},\n", fnum(c.frozen_err)));
            out.push_str(&format!("        \"jobs\": {}\n", c.jobs));
            out.push_str(if i + 1 == s.curve.len() { "      }\n" } else { "      },\n" });
        }
        out.push_str("    ]\n");
        out.push_str("  },\n");
        out.push_str("  \"telemetry\": {\n");
        for (i, (name, value)) in self.telemetry.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", escape(name), value));
            out.push_str(if i + 1 == self.telemetry.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Flattens a JSON document into its sorted set of key paths — the
/// *schema* of the document, independent of values. Array elements
/// contribute `[]`-suffixed paths (all elements are visited, so a phase
/// missing a field is caught). `telemetry` keys are data, not schema, so
/// they are summarized as a single `telemetry.*` path with a count-free
/// wildcard.
pub fn schema_paths(doc: &JsonValue) -> Vec<String> {
    let mut paths = Vec::new();
    walk(doc, "", &mut paths);
    paths.sort();
    paths.dedup();
    paths
}

fn walk(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                // Telemetry keys are metric names (data, varies by run);
                // the schema pins only that the object exists.
                if path == "telemetry" {
                    out.push("telemetry.*".to_string());
                    continue;
                }
                walk(child, &path, out);
            }
        }
        JsonValue::Array(items) => {
            let path = format!("{prefix}[]");
            if items.is_empty() {
                out.push(path.clone());
            }
            for item in items {
                walk(item, &path, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            transport: "inproc".into(),
            workers: 2,
            queue_depth: 4,
            clients: 8,
            requests_per_client: 50,
            deadline_ms: 5000,
            retry_after_ms: 25,
            phases: vec![
                PhaseReport {
                    name: "low_rate".into(),
                    target_rps: 50.0,
                    duration_secs: 1.0,
                    requests: 400,
                    completed: 400,
                    shed: 0,
                    shed_reasons: ShedReasons::default(),
                    expired: 0,
                    failed: 0,
                    retries: 0,
                    throughput_rps: 400.0,
                    latency: LatencySummary {
                        p50_us: 100,
                        p95_us: 200,
                        p99_us: 300,
                        max_us: 400,
                        mean_us: 120,
                    },
                },
                PhaseReport {
                    name: "saturate".into(),
                    target_rps: 0.0,
                    duration_secs: 0.5,
                    requests: 400,
                    completed: 300,
                    shed: 100,
                    shed_reasons: ShedReasons { queue_full: 100, ..Default::default() },
                    expired: 0,
                    failed: 0,
                    retries: 0,
                    throughput_rps: 600.0,
                    latency: LatencySummary::default(),
                },
            ],
            stages: vec![
                ("queue_wait".into(), StageSummary { count: 700, p50_us: 40, p95_us: 90, p99_us: 120 }),
                ("regress".into(), StageSummary { count: 700, p50_us: 5, p95_us: 9, p99_us: 12 }),
            ],
            tracing: TracingSummary {
                traced_rps: 950.0,
                untraced_rps: 1000.0,
                overhead_ratio: 1.053,
            },
            telemetry: vec![
                ("controller.requests_shed".into(), 100),
                ("controller.queue_depth_peak".into(), 4),
            ],
        }
    }

    #[test]
    fn render_parses_back() {
        let doc = JsonValue::parse(&sample().render()).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("serve"));
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(4));
        let tracing = doc.get("tracing").expect("tracing block");
        assert_eq!(tracing.get("overhead_ratio").and_then(|v| v.as_f64()), Some(1.053));
        let qw = doc.get("stages").and_then(|s| s.get("queue_wait")).expect("queue_wait");
        assert_eq!(qw.get("p95_us").and_then(|v| v.as_u64()), Some(90));
        let sat = doc.get("phases").and_then(|p| p.as_array()).unwrap()[1]
            .get("shed_reasons")
            .expect("shed_reasons");
        assert_eq!(sat.get("queue_full").and_then(|v| v.as_u64()), Some(100));
        let phases = doc.get("phases").expect("phases");
        match phases {
            JsonValue::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("phases not an array: {other:?}"),
        }
    }

    fn sample_tensor() -> TensorReport {
        TensorReport {
            threads: 1,
            reps: 5,
            kernel: "avx2+fma".into(),
            gemm: vec![GemmCase {
                m: 128,
                k: 128,
                n: 128,
                reference_us: 700.0,
                blocked_us: 180.0,
                pooled_us: 180.0,
                scalar_us: 410.0,
                speedup_blocked: 3.9,
                speedup_pooled: 3.9,
                speedup_simd: 2.28,
                gflops_blocked: 23.0,
            }],
            embed_graph: EmbedE2e {
                model: "resnet18".into(),
                nodes: 70,
                reference_us: 9000.0,
                batched_us: 4000.0,
                speedup: 2.25,
            },
            train_epoch: TrainE2e {
                num_graphs: 8,
                epochs: 2,
                total_us: 1.5e6,
                us_per_epoch: 7.5e5,
            },
            telemetry: vec![
                ("tensor.gemm_calls".into(), 1234),
                ("tensor.gemm_flops".into(), 4_000_000),
            ],
        }
    }

    #[test]
    fn tensor_render_parses_back() {
        let doc = JsonValue::parse(&sample_tensor().render()).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("tensor"));
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("kernel")).and_then(|v| v.as_str()),
            Some("avx2+fma")
        );
        let gemm = doc.get("gemm").expect("gemm");
        match gemm {
            JsonValue::Array(items) => assert_eq!(items.len(), 1),
            other => panic!("gemm not an array: {other:?}"),
        }
        assert!(doc.get("embed_graph").is_some());
        assert!(doc.get("train_epoch").is_some());
    }

    fn sample_shard() -> ShardReport {
        ShardReport {
            workers_per_shard: 1,
            queue_depth: 4,
            clients_per_shard: 4,
            requests_per_client: 50,
            vnodes: 64,
            service_us: 1500,
            keyspace: 64,
            scaling: vec![
                ScalingPoint {
                    shards: 1,
                    clients: 4,
                    requests: 200,
                    completed: 200,
                    shed: 0,
                    duration_secs: 0.4,
                    throughput_rps: 500.0,
                    speedup_vs_1: 1.0,
                },
                ScalingPoint {
                    shards: 4,
                    clients: 16,
                    requests: 800,
                    completed: 800,
                    shed: 12,
                    duration_secs: 0.45,
                    throughput_rps: 1780.0,
                    speedup_vs_1: 3.56,
                },
            ],
            rebalance: vec![RebalanceStep {
                from_shards: 3,
                to_shards: 4,
                keys: 10_000,
                moved: 2_480,
                moved_fraction: 0.248,
                bound_fraction: 0.375,
            }],
            kill: KillSummary {
                shards: 4,
                killed_shard: 2,
                requests: 800,
                completed: 800,
                rerouted: 190,
                shed: 3,
                duplicates: 0,
                unanswered: 0,
                epoch_before: 1,
                epoch_after: 2,
            },
            telemetry: vec![("controller.requests_shed".into(), 15)],
        }
    }

    #[test]
    fn shard_render_parses_back() {
        let doc = JsonValue::parse(&sample_shard().render()).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("shard"));
        let scaling = doc.get("scaling").and_then(|v| v.as_array()).expect("scaling");
        assert_eq!(scaling.len(), 2);
        assert_eq!(scaling[1].get("shards").and_then(|v| v.as_u64()), Some(4));
        let kill = doc.get("kill").expect("kill block");
        assert_eq!(kill.get("duplicates").and_then(|v| v.as_u64()), Some(0));
        let rb = doc.get("rebalance").and_then(|v| v.as_array()).expect("rebalance");
        assert_eq!(rb[0].get("to_shards").and_then(|v| v.as_u64()), Some(4));
        // Schema paths must be value-independent here too.
        let a = schema_paths(&doc);
        let mut other = sample_shard();
        other.kill.rerouted = 7;
        let b = schema_paths(&JsonValue::parse(&other.render()).unwrap());
        assert_eq!(a, b);
    }

    fn sample_sched() -> SchedReport {
        let row = |policy: &str, missed: u64| PolicyRow {
            policy: policy.into(),
            submitted: 12_000,
            completed: 12_000,
            deadlines_total: 8_400,
            deadlines_missed: missed,
            missed_pct: 100.0 * missed as f64 / 8_400.0,
            utilization: 0.61,
            mean_wait_secs: 14.2,
            p99_wait_secs: 240.0,
            peak_queue: 310,
        };
        SchedReport {
            jobs: 12_000,
            servers: 32,
            seed: 91,
            burst: vec![row("fifo", 910), row("deadline_aware", 260)],
            shift: ShiftScenario {
                policy: "fifo".into(),
                factor: 2.5,
                at_fraction: 0.5,
                drift_events: 1,
                refits: 1,
                updates: 20_000,
                pre_shift_online: 0.041,
                pre_shift_frozen: 0.042,
                post_shift_online: 0.047,
                post_shift_frozen: 1.47,
                recovery_ratio: 1.15,
                frozen_vs_online: 31.3,
                curve: vec![
                    AccuracyPoint { t_end_secs: 100.0, online_err: 0.04, frozen_err: 0.04, jobs: 800 },
                    AccuracyPoint { t_end_secs: 200.0, online_err: 0.05, frozen_err: 1.5, jobs: 820 },
                ],
            },
            telemetry: vec![
                ("sched.jobs_launched".into(), 60_000),
                ("refit.drift_events".into(), 1),
            ],
        }
    }

    #[test]
    fn sched_render_parses_back() {
        let doc = JsonValue::parse(&sample_sched().render()).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("sched"));
        let burst = doc.get("burst").and_then(|v| v.as_array()).expect("burst");
        assert_eq!(burst.len(), 2);
        assert_eq!(burst[0].get("policy").and_then(|v| v.as_str()), Some("fifo"));
        let shift = doc.get("shift").expect("shift block");
        assert_eq!(shift.get("drift_events").and_then(|v| v.as_u64()), Some(1));
        let curve = shift.get("curve").and_then(|v| v.as_array()).expect("curve");
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[1].get("jobs").and_then(|v| v.as_u64()), Some(820));
        // Schema paths must be value-independent for the golden pin.
        let a = schema_paths(&doc);
        let mut other = sample_sched();
        other.shift.refits = 9;
        other.burst[1].peak_queue = 1;
        let b = schema_paths(&JsonValue::parse(&other.render()).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn summarize_orders_and_averages() {
        let mut xs = vec![30, 10, 20];
        let s = summarize(&mut xs);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.max_us, 30);
        assert_eq!(s.mean_us, 20);
    }

    #[test]
    fn schema_paths_are_stable_and_value_independent() {
        let a = schema_paths(&JsonValue::parse(&sample().render()).unwrap());
        let mut other = sample();
        other.phases[0].completed = 1; // values must not change the schema
        other.telemetry.push(("controller.requests_expired".into(), 0));
        let b = schema_paths(&JsonValue::parse(&other.render()).unwrap());
        assert_eq!(a, b, "schema must not depend on values or telemetry keys");
        assert!(a.contains(&"phases[].latency_us.p50".to_string()));
        assert!(a.contains(&"config.queue_depth".to_string()));
        assert!(a.contains(&"telemetry.*".to_string()));
    }
}
