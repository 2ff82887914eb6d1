//! `pddl-loadgen` — serving-capacity benchmark for the bounded controller.
//!
//! Drives K concurrent clients against the serving core in two phases and
//! writes `BENCH_serve.json` (see `pddl_bench::report` for the schema).
//! Before the phases, two dedicated closed-loop bursts (one untraced, one
//! with a trace context on every request) measure the flight recorder's
//! throughput overhead — reported as `tracing.overhead_ratio` and gated
//! at ≤ 1.05 on the committed baseline by the bench schema tier. The
//! in-proc phases themselves run fully traced, so the report's `stages`
//! block carries real per-stage (queue wait, embed cache, regress)
//! percentiles from the `trace.stage.*` histograms, and every shed is
//! bucketed by typed reason in `shed_reasons`. The phases:
//!
//! 1. **low_rate** — the fleet is paced to `--low-rps` with client
//!    start times staggered across one pacing interval; the queue never
//!    fills, so the report must show zero sheds;
//! 2. **saturate** — unpaced, with a 4× fleet (closed-loop clients
//!    self-regulate down to `workers + queue_depth` in flight, so the
//!    base fleet alone barely sheds); in-flight demand durably exceeds
//!    capacity and the report must show nonzero sheds.
//!
//! Three transports:
//!
//! * `--transport inproc` (default): clients call
//!   [`predictddl::ServePool`] directly. No sockets, no JSON — this is
//!   the mode that produces the committed baseline, and it isolates the
//!   serving core's own overhead.
//! * `--transport tcp`: a full controller is served on an ephemeral port
//!   and clients use [`predictddl::ControllerClient::connect_resilient`],
//!   measuring the wire stack end-to-end (retries and overload replies
//!   included) over loopback.
//! * `--transport fleet`: the sharded-serving benchmark — N in-process
//!   shard pools behind the router's real [`pddl_router::HashRing`] and
//!   [`pddl_router::routing_key`], writing `BENCH_shard.json` instead
//!   (scaling curve at 1/2/4 shards, ring-rebalance cost, and a
//!   shard-kill phase with exactly-once accounting). Each request pays a
//!   `--service-us` floor, modelling shards whose capacity is
//!   accelerator/IO-bound, so fleet scaling is measurable on the
//!   single-core runner. Like `inproc`, it needs no sockets — it is the
//!   mode that produces the committed `BENCH_shard.json` baseline.
//!
//! ```text
//! pddl-loadgen [--transport inproc|tcp] [--clients 8] [--requests 100]
//!              [--workers 2] [--queue-depth 4] [--deadline-ms 5000]
//!              [--low-rps 50] [--out BENCH_serve.json]
//! pddl-loadgen --transport fleet [--clients 4] [--requests 50]
//!              [--queue-depth 8] [--service-us 4000] [--vnodes 128]
//!              [--keyspace 256] [--out BENCH_shard.json]
//! ```

use pddl_bench::report::{
    summarize, KillSummary, PhaseReport, RebalanceStep, ScalingPoint, ServeReport, ShardReport,
    ShedReasons, StageSummary, TracingSummary,
};
use pddl_router::{routing_key, HashRing};
use pddl_cluster::retry::{RetryPolicy, ShedReason};
use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use pddl_telemetry::trace::stages;
use pddl_telemetry::TraceContext;
use predictddl::serve::Latch;
use predictddl::{
    Controller, ControllerClient, JobOutcome, OfflineTrainer, PredictDdl, PredictionRequest,
    ServeConfig, ServePool, SubmitError,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    let transport = flags.get("transport").map_or("inproc", |s| s.as_str()).to_string();
    if transport == "fleet" {
        run_fleet(&flags);
        return;
    }
    let clients: usize = flag(&flags, "clients", 8);
    let requests: usize = flag(&flags, "requests", 100);
    let workers: usize = flag(&flags, "workers", 2);
    let queue_depth: usize = flag(&flags, "queue-depth", 4);
    let deadline_ms: u64 = flag(&flags, "deadline-ms", 5000);
    let low_rps: f64 = flag(&flags, "low-rps", 50.0);
    let out = flags.get("out").map_or("BENCH_serve.json", |s| s.as_str()).to_string();

    let config = ServeConfig {
        workers,
        queue_depth,
        request_deadline: Duration::from_millis(deadline_ms),
        ..ServeConfig::default()
    };

    eprintln!("training tiny system for the benchmark workload ...");
    let system = Arc::new(OfflineTrainer::tiny().train_full());
    let req = bench_request();

    eprintln!(
        "loadgen: transport={transport} clients={clients} requests={requests} \
         workers={workers} queue_depth={queue_depth}"
    );
    // Tracing-overhead bursts run first, on a dedicated pool, so the two
    // measurements see identical cache state regardless of transport.
    let tracing = measure_tracing_overhead(Arc::clone(&system), &req, config, requests);
    eprintln!(
        "tracing overhead: {:.0} rps untraced vs {:.0} rps traced (ratio {:.3})",
        tracing.untraced_rps, tracing.traced_rps, tracing.overhead_ratio
    );
    let phases = match transport.as_str() {
        "inproc" => run_inproc(system, &req, config, clients, requests, low_rps),
        "tcp" => {
            let system = Arc::try_unwrap(system).unwrap_or_else(|_| {
                eprintln!("error: serving core still referenced after overhead bursts");
                std::process::exit(1);
            });
            run_tcp(system, &req, config, clients, requests, low_rps)
        }
        other => {
            eprintln!("error: unknown --transport '{other}' (inproc|tcp|fleet)");
            std::process::exit(2);
        }
    };

    let snapshot = pddl_telemetry::snapshot();
    let telemetry = vec![
        ("controller.requests_shed", counter(&snapshot, "controller.requests_shed")),
        ("controller.requests_expired", counter(&snapshot, "controller.requests_expired")),
        ("controller.traced_requests", counter(&snapshot, "controller.traced_requests")),
        ("controller.queue_depth_peak", gauge(&snapshot, "controller.queue_depth_peak")),
        ("controller_client.retries", counter(&snapshot, "controller_client.retries")),
        ("controller_client.overloads", counter(&snapshot, "controller_client.overloads")),
    ];
    // The serving pipeline as the flight recorder saw it: per-stage
    // percentiles out of the `trace.stage.*` histograms (ns → µs).
    let stage_summaries = [
        stages::QUEUE_WAIT,
        stages::EMBED_CACHE,
        stages::GHN_EMBED,
        stages::REGRESS,
        stages::SERIALIZE,
    ]
    .iter()
    .map(|name| {
        let s = snapshot
            .histogram(&format!("trace.stage.{name}"))
            .map(|h| StageSummary {
                count: h.count,
                p50_us: h.p50 / 1000,
                p95_us: h.p95 / 1000,
                p99_us: h.p99 / 1000,
            })
            .unwrap_or_default();
        (name.to_string(), s)
    })
    .collect();
    let report = ServeReport {
        transport,
        workers,
        queue_depth,
        clients,
        requests_per_client: requests,
        deadline_ms,
        retry_after_ms: config.retry_after_ms,
        phases,
        stages: stage_summaries,
        tracing,
        telemetry: telemetry.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    };
    for p in &report.phases {
        eprintln!(
            "phase {}: {} completed / {} requests, {} shed, {} expired, \
             {:.0} req/s, p50={}us p95={}us p99={}us",
            p.name, p.completed, p.requests, p.shed, p.expired, p.throughput_rps,
            p.latency.p50_us, p.latency.p95_us, p.latency.p99_us,
        );
    }
    std::fs::write(&out, report.render()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}

/// The fixed benchmark workload: a mid-sized zoo model on the dataset the
/// tiny trainer covers.
fn bench_request() -> PredictionRequest {
    PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    )
}

/// Per-phase accumulator shared by the client fleet.
#[derive(Default)]
struct Tally {
    completed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    rq_queue_full: AtomicU64,
    rq_deadline: AtomicU64,
    rq_connection_limit: AtomicU64,
    rq_draining: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

impl Tally {
    fn record_latency(&self, t0: Instant) {
        let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.latencies_us.lock().unwrap_or_else(|e| e.into_inner()).push(us);
    }

    /// Buckets a typed rejection reason (unknown reasons go uncounted —
    /// they still show up in the coarse shed/failed totals).
    fn record_reason(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => &self.rq_queue_full,
            ShedReason::Deadline => &self.rq_deadline,
            ShedReason::ConnectionLimit => &self.rq_connection_limit,
            ShedReason::Draining => &self.rq_draining,
            ShedReason::Unknown => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn into_phase(self, name: &str, target_rps: f64, duration: Duration) -> PhaseReport {
        let completed = self.completed.load(Ordering::Relaxed);
        let shed = self.shed.load(Ordering::Relaxed);
        let expired = self.expired.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let mut latencies =
            self.latencies_us.into_inner().unwrap_or_else(|e| e.into_inner());
        let secs = duration.as_secs_f64().max(1e-9);
        PhaseReport {
            name: name.to_string(),
            target_rps,
            duration_secs: secs,
            requests: completed + shed + expired + failed,
            completed,
            shed,
            shed_reasons: ShedReasons {
                queue_full: self.rq_queue_full.load(Ordering::Relaxed),
                deadline: self.rq_deadline.load(Ordering::Relaxed),
                connection_limit: self.rq_connection_limit.load(Ordering::Relaxed),
                draining: self.rq_draining.load(Ordering::Relaxed),
            },
            expired,
            failed,
            retries: self.retries.load(Ordering::Relaxed),
            throughput_rps: completed as f64 / secs,
            latency: summarize(&mut latencies),
        }
    }
}

/// The two benchmark phases: `(name, rps, fleet multiplier)`. The
/// saturation fleet is widened because closed-loop clients that honor
/// the shed back-off settle at `workers + queue_depth` in flight — a
/// base-sized fleet would demonstrate convergence, not shedding.
const PHASES: [(&str, bool, usize); 2] = [("low_rate", true, 1), ("saturate", false, 4)];

fn phase_plan(low_rps: f64) -> [(&'static str, f64, usize); 2] {
    PHASES.map(|(name, paced, mult)| (name, if paced { low_rps } else { 0.0 }, mult))
}

/// Sleeps long enough to hold `per_client_interval` between request
/// starts (no-op when unpaced).
fn pace(t0: Instant, per_client_interval: Duration) {
    if per_client_interval.is_zero() {
        return;
    }
    let elapsed = t0.elapsed();
    if elapsed < per_client_interval {
        std::thread::sleep(per_client_interval - elapsed);
    }
}

/// Spreads client start times uniformly across one pacing interval so a
/// paced fleet doesn't submit in phase-aligned bursts (which would shed
/// even at a trivially low aggregate rate).
fn stagger(client: usize, fleet: usize, interval: Duration) {
    if !interval.is_zero() && fleet > 0 {
        std::thread::sleep(interval.mul_f64(client as f64 / fleet as f64));
    }
}

/// In-process phases: the fleet submits directly to a [`ServePool`], one
/// job per request, waiting on a per-request latch like the controller's
/// readers do. Sheds back off by the pool's own `retry_after_ms` hint —
/// the same contract resilient TCP clients follow.
fn run_inproc(
    system: Arc<PredictDdl>,
    req: &PredictionRequest,
    config: ServeConfig,
    clients: usize,
    requests: usize,
    low_rps: f64,
) -> Vec<PhaseReport> {
    let pool = Arc::new(ServePool::start(config));
    let mut phases = Vec::new();
    for (name, rps, mult) in phase_plan(low_rps) {
        let fleet = clients * mult;
        let tally = Arc::new(Tally::default());
        let interval = if rps > 0.0 {
            Duration::from_secs_f64(fleet as f64 / rps)
        } else {
            Duration::ZERO
        };
        let t_phase = Instant::now();
        std::thread::scope(|s| {
            for c in 0..fleet {
                let pool = Arc::clone(&pool);
                let tally = Arc::clone(&tally);
                let system = Arc::clone(&system);
                let req = req.clone();
                s.spawn(move || {
                    stagger(c, fleet, interval);
                    for _ in 0..requests {
                        let t0 = Instant::now();
                        let latch = Arc::new(Latch::new());
                        let outcome: Arc<Mutex<Option<JobOutcome>>> =
                            Arc::new(Mutex::new(None));
                        // Every in-proc request carries a trace context,
                        // exactly like a header-carrying wire client — the
                        // committed baseline measures the traced hot path.
                        let ctx = TraceContext::root(next_trace_id());
                        let submit = {
                            let latch = Arc::clone(&latch);
                            let outcome = Arc::clone(&outcome);
                            let system = Arc::clone(&system);
                            let req = req.clone();
                            pool.try_submit_traced(Some(ctx), move |o| {
                                if o == JobOutcome::Run {
                                    let _ = system.predict_traced(&req, Some(ctx));
                                }
                                *outcome.lock().unwrap_or_else(|e| e.into_inner()) =
                                    Some(o);
                                latch.open();
                            })
                        };
                        match submit {
                            Ok(()) => {
                                latch.wait();
                                let o = outcome
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .take();
                                match o {
                                    Some(JobOutcome::Run) => {
                                        tally.completed.fetch_add(1, Ordering::Relaxed);
                                        tally.record_latency(t0);
                                    }
                                    _ => {
                                        tally.expired.fetch_add(1, Ordering::Relaxed);
                                        tally.record_reason(ShedReason::Deadline);
                                    }
                                }
                            }
                            Err(SubmitError::Full) => {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                                tally.retries.fetch_add(1, Ordering::Relaxed);
                                tally.record_reason(ShedReason::QueueFull);
                                std::thread::sleep(Duration::from_millis(
                                    config.retry_after_ms,
                                ));
                            }
                            Err(SubmitError::Closed) => {
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                                tally.record_reason(ShedReason::Draining);
                                break;
                            }
                        }
                        pace(t0, interval);
                    }
                });
            }
        });
        let tally = Arc::try_unwrap(tally).unwrap_or_else(|_| unreachable!());
        phases.push(tally.into_phase(name, rps, t_phase.elapsed()));
    }
    pool.shutdown();
    phases
}

/// Unique per-request trace ids for the in-proc fleet.
fn next_trace_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One closed-loop burst against the pool: `fleet` clients each complete
/// `requests` predictions (sheds are retried without being counted), with
/// or without per-request trace contexts. Returns completed requests per
/// second of burst wall-clock.
fn run_burst(
    pool: &Arc<ServePool>,
    system: &Arc<PredictDdl>,
    req: &PredictionRequest,
    fleet: usize,
    requests: usize,
    traced: bool,
) -> f64 {
    let completed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..fleet {
            let completed = &completed;
            let pool = Arc::clone(pool);
            let system = Arc::clone(system);
            let req = req.clone();
            s.spawn(move || {
                for _ in 0..requests {
                    let ctx = if traced {
                        Some(TraceContext::root(next_trace_id()))
                    } else {
                        None
                    };
                    loop {
                        let latch = Arc::new(Latch::new());
                        let ran = Arc::new(AtomicU64::new(0));
                        let submit = {
                            let latch = Arc::clone(&latch);
                            let ran = Arc::clone(&ran);
                            let system = Arc::clone(&system);
                            let req = req.clone();
                            pool.try_submit_traced(ctx, move |o| {
                                if o == JobOutcome::Run {
                                    let _ = system.predict_traced(&req, ctx);
                                    ran.store(1, Ordering::Relaxed);
                                }
                                latch.open();
                            })
                        };
                        match submit {
                            Ok(()) => {
                                latch.wait();
                                if ran.load(Ordering::Relaxed) == 1 {
                                    completed.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Err(SubmitError::Full) => {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(SubmitError::Closed) => return,
                        }
                    }
                }
            });
        }
    });
    completed.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Median of a throughput sample (sorts in place; 0 when empty).
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// The tracing-overhead measurement: a dedicated pool, a warmup pass to
/// populate the embedding cache, then five interleaved rounds of an
/// untraced and a traced burst of identical shape, reduced by median.
/// Interleaving cancels slow environment drift (CPU-quota throttling,
/// thermal decay) that would otherwise bias whichever mode ran second;
/// the median rejects one-off scheduler stalls. The fleet is sized to
/// `workers + queue_depth` so the closed loop sits exactly at capacity —
/// the comparison stresses the recorder's hot path (span recording on
/// every queue wait, cache probe, and regression) rather than admission
/// churn.
fn measure_tracing_overhead(
    system: Arc<PredictDdl>,
    req: &PredictionRequest,
    config: ServeConfig,
    requests: usize,
) -> TracingSummary {
    const ROUNDS: usize = 5;
    let pool = Arc::new(ServePool::start(config));
    let fleet = (config.workers.max(1) + config.queue_depth).max(1);
    let per_client = requests.max(250);
    run_burst(&pool, &system, req, 1, 8, false);
    let mut untraced = Vec::with_capacity(ROUNDS);
    let mut traced = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which mode goes first so a monotone slowdown across
        // the measurement biases neither mode.
        let (u, t) = if round % 2 == 0 {
            let u = run_burst(&pool, &system, req, fleet, per_client, false);
            (u, run_burst(&pool, &system, req, fleet, per_client, true))
        } else {
            let t = run_burst(&pool, &system, req, fleet, per_client, true);
            (run_burst(&pool, &system, req, fleet, per_client, false), t)
        };
        untraced.push(u);
        traced.push(t);
        if t > 0.0 {
            // Each round's two bursts are adjacent in time, so their
            // ratio is immune to drift that spans rounds.
            ratios.push(u / t);
        }
    }
    pool.shutdown();
    TracingSummary {
        traced_rps: median(&mut traced),
        untraced_rps: median(&mut untraced),
        overhead_ratio: median(&mut ratios),
    }
}

/// TCP phases: a real controller on an ephemeral port, resilient clients
/// with tight backoff. Plain (non-resilient) round trips are used so a
/// shed surfaces as one counted overload instead of being retried
/// invisibly; resilient convergence is covered by `tests/load.rs`.
fn run_tcp(
    system: PredictDdl,
    req: &PredictionRequest,
    config: ServeConfig,
    clients: usize,
    requests: usize,
    low_rps: f64,
) -> Vec<PhaseReport> {
    let controller =
        Controller::serve_with("127.0.0.1:0", system, config).expect("bind controller");
    let addr = controller.addr();
    let mut phases = Vec::new();
    for (name, rps, mult) in phase_plan(low_rps) {
        let fleet = clients * mult;
        let tally = Arc::new(Tally::default());
        let interval = if rps > 0.0 {
            Duration::from_secs_f64(fleet as f64 / rps)
        } else {
            Duration::ZERO
        };
        let t_phase = Instant::now();
        std::thread::scope(|s| {
            for c in 0..fleet {
                let tally = Arc::clone(&tally);
                let req = req.clone();
                s.spawn(move || {
                    stagger(c, fleet, interval);
                    let policy = RetryPolicy::fast(0xBEEF ^ c as u64);
                    let mut client = match ControllerClient::connect_with_timeout(
                        addr,
                        policy.attempt_timeout,
                    ) {
                        Ok(c) => c,
                        Err(_) => {
                            tally.failed.fetch_add(requests as u64, Ordering::Relaxed);
                            return;
                        }
                    };
                    for _ in 0..requests {
                        let t0 = Instant::now();
                        match client.predict(&req) {
                            Ok(_) => {
                                tally.completed.fetch_add(1, Ordering::Relaxed);
                                tally.record_latency(t0);
                            }
                            Err(e)
                                if pddl_cluster::retry::overload_retry_hint(&e)
                                    .is_some() =>
                            {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                                tally.retries.fetch_add(1, Ordering::Relaxed);
                                if let Some(r) = pddl_cluster::retry::overload_reason(&e) {
                                    tally.record_reason(r);
                                }
                                std::thread::sleep(Duration::from_millis(
                                    config.retry_after_ms,
                                ));
                            }
                            Err(_) => {
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        pace(t0, interval);
                    }
                });
            }
        });
        let tally = Arc::try_unwrap(tally).unwrap_or_else(|_| unreachable!());
        phases.push(tally.into_phase(name, rps, t_phase.elapsed()));
    }
    drop(controller);
    phases
}

/// Live membership for the in-proc fleet: the router's real ring plus a
/// dead-set, behind one lock with an epoch that bumps on every change —
/// the same discipline `pddl_router::Router` applies to TCP shards.
struct Fleet {
    pools: Vec<Arc<ServePool>>,
    state: Mutex<FleetState>,
}

struct FleetState {
    epoch: u64,
    ring: HashRing,
    dead: Vec<bool>,
}

impl Fleet {
    fn new(shards: usize, vnodes: u32, config: ServeConfig) -> Self {
        let ids: Vec<u64> = (0..shards as u64).collect();
        Self {
            pools: (0..shards).map(|_| Arc::new(ServePool::start(config))).collect(),
            state: Mutex::new(FleetState {
                epoch: 1,
                ring: HashRing::with_shards(vnodes, &ids),
                dead: vec![false; shards],
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard owning `key` under the current membership.
    fn route(&self, key: u64) -> Option<usize> {
        self.lock().ring.lookup(key).map(|id| id as usize)
    }

    /// Removes a discovered-dead shard from the ring (idempotent; only
    /// the first discovery bumps the epoch).
    fn mark_dead(&self, sid: usize) {
        let mut state = self.lock();
        if state.dead[sid] {
            return;
        }
        state.dead[sid] = true;
        state.ring.remove_shard(sid as u64);
        state.epoch += 1;
    }

    fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    fn shutdown(&self) {
        for pool in &self.pools {
            pool.shutdown();
        }
    }
}

/// Shared accounting for one fleet phase. `completions[id]` counts how
/// many times request `id` was answered — exactly-once means every slot
/// ends at exactly 1.
struct FleetTally {
    shed: AtomicU64,
    rerouted: AtomicU64,
    progress: AtomicU64,
    completions: Vec<AtomicU64>,
}

impl FleetTally {
    fn new(total_requests: usize) -> Self {
        Self {
            shed: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            completions: (0..total_requests).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn duplicates(&self) -> u64 {
        self.completions
            .iter()
            .map(|c| c.load(Ordering::Relaxed).saturating_sub(1))
            .sum()
    }

    fn unanswered(&self) -> u64 {
        self.completions
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) == 0)
            .count() as u64
    }

    fn completed(&self) -> u64 {
        self.completions
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 0)
            .count() as u64
    }
}

/// Drives `clients` closed-loop clients through the ring until every
/// request is answered exactly once (requests whose shard dies are
/// re-routed onto the survivor ring). Returns phase wall-clock.
#[allow(clippy::too_many_arguments)]
fn drive_fleet(
    fleet: &Fleet,
    system: &Arc<PredictDdl>,
    mix: &[(PredictionRequest, u64)],
    clients: usize,
    requests: usize,
    service_us: u64,
    retry_after_ms: u64,
    tally: &Arc<FleetTally>,
) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let tally = Arc::clone(tally);
            s.spawn(move || {
                for i in 0..requests {
                    let id = c * requests + i;
                    // Stride the keyspace so every shard sees work from
                    // every client throughout the phase.
                    let (req, key) = &mix[(c * 7 + i) % mix.len()];
                    loop {
                        let Some(sid) = fleet.route(*key) else {
                            return; // whole fleet dead: id stays unanswered
                        };
                        let latch = Arc::new(Latch::new());
                        let ran = Arc::new(AtomicU64::new(0));
                        let submit = {
                            let latch = Arc::clone(&latch);
                            let ran = Arc::clone(&ran);
                            let system = Arc::clone(system);
                            let req = req.clone();
                            let tally = Arc::clone(&tally);
                            fleet.pools[sid].try_submit(move |o| {
                                if o == JobOutcome::Run {
                                    let t_job = Instant::now();
                                    let _ = system.predict(&req);
                                    // Pad to the service-time floor: the
                                    // shard's capacity bound, not the
                                    // host CPU, is what the fleet scales.
                                    let floor = Duration::from_micros(service_us);
                                    let spent = t_job.elapsed();
                                    if spent < floor {
                                        std::thread::sleep(floor - spent);
                                    }
                                    tally.completions[id]
                                        .fetch_add(1, Ordering::Relaxed);
                                    tally.progress.fetch_add(1, Ordering::Relaxed);
                                    ran.store(1, Ordering::Relaxed);
                                }
                                latch.open();
                            })
                        };
                        match submit {
                            Ok(()) => {
                                latch.wait();
                                if ran.load(Ordering::Relaxed) == 1 {
                                    break;
                                }
                                // Expired in queue: provably never ran,
                                // safe to resubmit.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(SubmitError::Full) => {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            Err(SubmitError::Closed) => {
                                // The shard died under us; the submit was
                                // rejected, so the request never executed
                                // — re-route on the survivor ring.
                                tally.rerouted.fetch_add(1, Ordering::Relaxed);
                                fleet.mark_dead(sid);
                            }
                        }
                    }
                }
            });
        }
    });
    t0.elapsed()
}

/// The sharded-fleet benchmark: scaling at 1/2/4 shards, ring-rebalance
/// cost, and a shard-kill phase — writes `BENCH_shard.json`.
fn run_fleet(flags: &Flags) {
    let clients_per_shard: usize = flag(flags, "clients", 4);
    let requests: usize = flag(flags, "requests", 50);
    let queue_depth: usize = flag(flags, "queue-depth", 8);
    let service_us: u64 = flag(flags, "service-us", 4000);
    let vnodes: u32 = flag(flags, "vnodes", 128);
    let keyspace: usize = flag(flags, "keyspace", 256).max(1);
    let out = flags.get("out").map_or("BENCH_shard.json", |s| s.as_str()).to_string();

    // One worker per shard: each shard is a serialized capacity of
    // 1e6/service_us rps, so the scaling curve isolates the routing
    // plane's aggregation rather than host parallelism.
    let config = ServeConfig {
        workers: 1,
        queue_depth,
        request_deadline: Duration::from_secs(30),
        retry_after_ms: 2,
        ..ServeConfig::default()
    };

    eprintln!("training tiny system for the fleet workload ...");
    let system = Arc::new(OfflineTrainer::tiny().train_full());
    // Distinct workloads = distinct ring keys: the request mix spans the
    // keyspace so load spreads the way a real reusable-workload mix does.
    let mix: Vec<(PredictionRequest, u64)> = (0..keyspace)
        .map(|i| {
            let req = PredictionRequest::zoo(
                Workload::new("resnet18", "cifar10", 16 + i, 2),
                ClusterState::homogeneous(ServerClass::GpuP100, 4),
            );
            let key = routing_key(&req);
            (req, key)
        })
        .collect();

    // Phase 1: the scaling curve.
    let mut scaling: Vec<ScalingPoint> = Vec::new();
    let mut base_rps = 0.0;
    for &shards in &[1usize, 2, 4] {
        let clients = clients_per_shard * shards;
        let total = clients * requests;
        let fleet = Fleet::new(shards, vnodes, config);
        let tally = Arc::new(FleetTally::new(total));
        let elapsed = drive_fleet(
            &fleet,
            &system,
            &mix,
            clients,
            requests,
            service_us,
            config.retry_after_ms,
            &tally,
        );
        fleet.shutdown();
        let completed = tally.completed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let rps = completed as f64 / secs;
        if shards == 1 {
            base_rps = rps;
        }
        let speedup = if base_rps > 0.0 { rps / base_rps } else { 0.0 };
        eprintln!(
            "scaling {shards} shard(s): {completed}/{total} completed in {secs:.2}s, \
             {rps:.0} rps, speedup {speedup:.2}x"
        );
        scaling.push(ScalingPoint {
            shards,
            clients,
            requests: total as u64,
            completed,
            shed: tally.shed.load(Ordering::Relaxed),
            duration_secs: secs,
            throughput_rps: rps,
            speedup_vs_1: speedup,
        });
    }

    // Phase 2: rebalance cost, pure ring math over a synthetic keyspace.
    const REBALANCE_KEYS: u64 = 10_000;
    let rebalance: Vec<RebalanceStep> = [(1usize, 2usize), (3, 4)]
        .iter()
        .map(|&(from, to)| {
            let ids: Vec<u64> = (0..from as u64).collect();
            let before = HashRing::with_shards(vnodes, &ids);
            let mut after = before.clone();
            after.add_shard(from as u64);
            let moved = before.moved_keys(&after, 0..REBALANCE_KEYS) as u64;
            RebalanceStep {
                from_shards: from,
                to_shards: to,
                keys: REBALANCE_KEYS,
                moved,
                moved_fraction: moved as f64 / REBALANCE_KEYS as f64,
                // 1/to_shards plus 50% slack for vnode variance — far
                // below the 1 - 1/to a modulo router would pay.
                bound_fraction: 1.5 / to as f64,
            }
        })
        .collect();
    for r in &rebalance {
        eprintln!(
            "rebalance {}->{} shards: {}/{} keys moved ({:.3}, bound {:.3})",
            r.from_shards, r.to_shards, r.moved, r.keys, r.moved_fraction, r.bound_fraction
        );
    }

    // Phase 3: kill a shard mid-load; every request must still be
    // answered exactly once, on the survivor ring.
    let kill_shards = 4usize;
    let clients = clients_per_shard * kill_shards;
    let total = clients * requests;
    let fleet = Arc::new(Fleet::new(kill_shards, vnodes, config));
    let tally = Arc::new(FleetTally::new(total));
    let epoch_before = fleet.epoch();
    let victim = 1u64;
    let killer = {
        let fleet = Arc::clone(&fleet);
        let tally = Arc::clone(&tally);
        std::thread::spawn(move || {
            // Crash the victim once a quarter of the load has completed
            // — a mid-load death, not an edge case at either end.
            while tally.progress.load(Ordering::Relaxed) < total as u64 / 4 {
                std::thread::sleep(Duration::from_millis(2));
            }
            fleet.pools[victim as usize].shutdown();
        })
    };
    let elapsed = drive_fleet(
        &fleet,
        &system,
        &mix,
        clients,
        requests,
        service_us,
        config.retry_after_ms,
        &tally,
    );
    killer.join().expect("killer thread");
    fleet.shutdown();
    let kill = KillSummary {
        shards: kill_shards,
        killed_shard: victim,
        requests: total as u64,
        completed: tally.completed(),
        rerouted: tally.rerouted.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        duplicates: tally.duplicates(),
        unanswered: tally.unanswered(),
        epoch_before,
        epoch_after: fleet.epoch(),
    };
    eprintln!(
        "kill phase: {}/{} completed ({} rerouted, {} dup, {} unanswered) in {:.2}s; \
         epoch {} -> {}",
        kill.completed,
        kill.requests,
        kill.rerouted,
        kill.duplicates,
        kill.unanswered,
        elapsed.as_secs_f64(),
        kill.epoch_before,
        kill.epoch_after,
    );

    let snapshot = pddl_telemetry::snapshot();
    let report = ShardReport {
        workers_per_shard: 1,
        queue_depth,
        clients_per_shard,
        requests_per_client: requests,
        vnodes,
        service_us,
        keyspace,
        scaling,
        rebalance,
        kill,
        telemetry: vec![
            ("controller.requests_shed".to_string(), counter(&snapshot, "controller.requests_shed")),
            ("controller.requests_expired".to_string(), counter(&snapshot, "controller.requests_expired")),
            ("controller.queue_depth_peak".to_string(), gauge(&snapshot, "controller.queue_depth_peak")),
        ],
    };
    std::fs::write(&out, report.render()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}

fn counter(snapshot: &pddl_telemetry::Snapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

fn gauge(snapshot: &pddl_telemetry::Snapshot, name: &str) -> u64 {
    snapshot.gauge(name).unwrap_or(0).max(0) as u64
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
