//! The traced run: per-layer metrics, taken from outside by timing calls
//! into each layer's public functions.
//!
//! The benchmark performs the prediction pipeline itself, step by step —
//! resolve the graph, look the embedding up (on a miss the GHN embeds),
//! regress, find the nearest architecture — with a span around each step,
//! and checks that the result equals `PredictDdl::predict` bit for bit.
//! Work a step does behind a function the benchmark cannot open (the
//! cache fingerprints the graph and runs the GHN inside one call) is run
//! again right after the request and recorded as a *replayed* child span.

use crate::report::Report;
use crate::serving::{mismatches, observed_secs, run_paced, Segment};
use crate::stats::{latency_from_due, mean, median, percentile, slices, steady_percentile};
use crate::sut::{resolve, train_serving, warm_up, Digest, Oracle};
use crate::trace::{Recorder, Span};
use crate::workload::{poisson_schedule, Class, Generator, Mix, Plan};
use pddl_ghn::Schedule;
use pddl_regress::OnlineRidge;
use pddl_telemetry::Counter;
use predictddl::{
    EmbeddingCache, ModelRef, ObservationSink, PredictDdl, PredictionRequest, ServeConfig,
    ServePool,
};
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests `par.predict_many_speedup` is measured over.
const PAR_REQUESTS: usize = 256;
/// Submissions `serve.handoff_us` is the median of.
const HANDOFF_PINGS: usize = 2000;
/// Share of `--seconds` the traced run's paced segment lasts.
const TRACED_PACED_SHARE: f64 = 0.3;

/// Exact work counters of the tensor layer.
struct GemmCounters {
    calls: &'static Counter,
    flops: &'static Counter,
}

impl GemmCounters {
    fn new() -> Self {
        Self {
            calls: pddl_telemetry::counter("tensor.gemm_calls"),
            flops: pddl_telemetry::counter("tensor.gemm_flops"),
        }
    }

    fn read(&self) -> (u64, u64) {
        (self.calls.get(), self.flops.get())
    }
}

/// What the traced pass adds up besides spans.
#[derive(Default)]
struct EmbedWork {
    embeds: u64,
    nodes: u64,
    gemm_calls: u64,
    gemm_flops: u64,
}

/// The benchmark's stand-ins for what the pipeline keeps across requests.
struct Stepwise<'a> {
    system: &'a PredictDdl,
    /// The benchmark's own cache, in the state `system.cache` is in.
    cache: &'a EmbeddingCache,
    gemm: GemmCounters,
    sink: ObservationSink,
    ridge: OnlineRidge,
    work: EmbedWork,
}

impl Stepwise<'_> {
    /// One request through the pipeline, a span around each step.
    /// Returns the result and the work to replay once the request is over.
    fn request(&mut self, plan: &Plan, pos: usize, rec: &mut Recorder) -> (Digest, Replay) {
        let system = self.system;
        let req = &plan.item(pos).req;
        let root = rec.open("request", None, pos);
        let (graph, _) = match &req.model {
            ModelRef::Zoo(_) => rec.time("zoo.build_model", Some(root), pos, || resolve(req)),
            ModelRef::Graph(_) => {
                rec.time("graph.validate_clone", Some(root), pos, || resolve(req))
            }
        };
        let graph = graph.expect("generated requests are valid");
        let t0 = rec.now();
        let (embedding, hit) = self
            .cache
            .get_or_embed_detailed(&system.registry, &req.dataset, &graph)
            .expect("trained dataset");
        let t1 = rec.now();
        let lookup = rec.push(
            if hit {
                "embeddings.hit"
            } else {
                "embeddings.miss"
            },
            t0,
            t1,
            Some(root),
            pos,
        );
        let (seconds, _) = rec.time("inference.predict", Some(root), pos, || {
            system.engine.predict(
                &embedding,
                &req.cluster,
                req.batch_size,
                req.epochs,
                &req.dataset,
            )
        });
        let (nearest, _) = rec.time("embeddings.nearest", Some(root), pos, || {
            system.embeddings.nearest(&req.dataset, &embedding)
        });
        rec.close(root);
        (
            Digest::new(seconds, &nearest),
            Replay {
                graph,
                embedding,
                hit,
                lookup,
            },
        )
    }

    /// Runs again, to time it, what the cache lookup did inside.
    fn replay(
        &mut self,
        plan: &Plan,
        pos: usize,
        r: Replay,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let req = &plan.item(pos).req;
        rec.time_replayed("graph.fingerprint", r.lookup, pos, || {
            black_box(r.graph.fingerprint())
        });
        if r.hit {
            return;
        }
        let ghn = self
            .system
            .registry
            .get(&req.dataset)
            .expect("trained dataset");
        let (sched, _) = rec.time_replayed("ghn.schedule", r.lookup, pos, || {
            Schedule::new(&r.graph, ghn.cfg.s_max)
        });
        let before = self.gemm.read();
        let (again, _) = rec.time_replayed("ghn.embed", r.lookup, pos, || {
            ghn.embed_with_schedule(&r.graph, &sched)
        });
        let after = self.gemm.read();
        self.work.embeds += 1;
        self.work.nodes += r.graph.num_nodes() as u64;
        self.work.gemm_calls += after.0 - before.0;
        self.work.gemm_flops += after.1 - before.1;
        if again
            .iter()
            .map(|x| x.to_bits())
            .ne(r.embedding.iter().map(|x| x.to_bits()))
        {
            report.violation(format!(
                "request {pos}: replayed embedding differs from the cached one"
            ));
        }
    }
}

/// What a request's lookup worked on, kept for [`Stepwise::replay`].
struct Replay {
    graph: pddl_graph::CompGraph,
    embedding: Vec<f32>,
    hit: bool,
    lookup: usize,
}

/// What an observe job does after its re-prediction (`predicted` is what
/// that returns: the request's own answer): record, then calibrate.
fn traced_observe(
    step: &mut Stepwise,
    plan: &Plan,
    pos: usize,
    predicted: f64,
    second_half: bool,
    rec: &mut Recorder,
) {
    let item = plan.item(pos);
    let servers = item.req.cluster.num_servers();
    let actual = observed_secs(item, second_half);
    let root = rec.open("observe", None, pos);
    let sink = &step.sink;
    let (_, record) = rec.time("observe.record", Some(root), pos, || {
        black_box(sink.record(predicted, actual, servers))
    });
    rec.time("observe.calibrate", Some(root), pos, || {
        black_box(sink.calibrate(predicted, servers))
    });
    rec.close(root);
    // The rank-1 update `record` makes on its calibration model.
    let x = [predicted.ln(), (servers as f64).ln()];
    rec.time_replayed("regress.online_update", record, pos, || {
        step.ridge.observe(&x, actual.ln())
    });
}

/// Mean self time per call of `stage` in µs: the median over slices of
/// the request range, so one burst does not set it. 0 when never called.
fn stage_us(
    rec: &Recorder,
    self_ns: &[i64],
    stage: &str,
    positions: &Range<usize>,
) -> (f64, usize) {
    let calls: Vec<(usize, f64)> = rec
        .spans()
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == stage && positions.contains(&s.request))
        .map(|(s, &ns)| (s.request, ns as f64 / 1e3))
        .collect();
    let per_slice: Vec<f64> = slices(positions.len())
        .into_iter()
        .map(|r| positions.start + r.start..positions.start + r.end)
        .map(|r| {
            calls
                .iter()
                .filter(|(p, _)| r.contains(p))
                .map(|(_, us)| *us)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .map(|v| mean(&v))
        .collect();
    (
        if per_slice.is_empty() {
            0.0
        } else {
            median(&per_slice).max(0.0)
        },
        calls.len(),
    )
}

/// Serves `positions` twice, request by request — as served, through
/// `PredictDdl::predict`, and step by step with spans — and reports what
/// the two give. `system.cache` and `cache` must be in the same state.
/// Returns the summary members of the trace file.
pub fn replay(
    system: &PredictDdl,
    cache: &EmbeddingCache,
    plan: &Plan,
    positions: Range<usize>,
    rec: &mut Recorder,
    report: &mut Report,
) -> String {
    let n = positions.len();
    let half = positions.start + n / 2;
    let mut step = Stepwise {
        system,
        cache,
        gemm: GemmCounters::new(),
        sink: ObservationSink::new(),
        ridge: OnlineRidge::new(2, 1e-3, 2048),
        work: EmbedWork::default(),
    };
    let before = system.cache.stats();
    let mut direct_us = Vec::with_capacity(n);
    let mut differing = 0usize;
    for pos in positions.clone() {
        let direct = |direct_us: &mut Vec<f64>| {
            let t0 = Instant::now();
            let p = system
                .predict(&plan.item(pos).req)
                .expect("generated requests succeed");
            direct_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            Digest::of(&p)
        };
        // As served and step by step, on caches in the same state; which
        // goes first alternates, so neither always finds the graph warm.
        let (served, (stepwise, replay)) = if pos % 2 == 0 {
            let d = direct(&mut direct_us);
            (d, step.request(plan, pos, rec))
        } else {
            let s = step.request(plan, pos, rec);
            (direct(&mut direct_us), s)
        };
        differing += usize::from(served != stepwise);
        step.replay(plan, pos, replay, rec, report);
        if plan.observe[pos] {
            traced_observe(&mut step, plan, pos, stepwise.seconds(), pos >= half, rec);
        }
    }
    if differing > 0 {
        report.violation(format!(
            "{differing} of {n} stepwise results differ from PredictDdl::predict"
        ));
    }
    let after = system.cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let work = step.work;

    let self_ns = rec.self_times();
    for (metric, stage) in [
        ("zoo.build_model_us", "zoo.build_model"),
        ("graph.validate_clone_us", "graph.validate_clone"),
        ("graph.fingerprint_us", "graph.fingerprint"),
        ("ghn.schedule_us", "ghn.schedule"),
        ("ghn.embed_us", "ghn.embed"),
        ("embeddings.hit_us", "embeddings.hit"),
        ("embeddings.miss_overhead_us", "embeddings.miss"),
        ("embeddings.nearest_us", "embeddings.nearest"),
        ("inference.predict_us", "inference.predict"),
        ("observe.record_us", "observe.record"),
        ("observe.calibrate_us", "observe.calibrate"),
        ("regress.online_update_us", "regress.online_update"),
    ] {
        let (us, calls) = stage_us(rec, &self_ns, stage, &positions);
        report.set_n(metric, us, calls);
    }

    // The pipeline proper: the request spans and what hangs off them.
    let is_request = |s: &Span| s.name == "request" && positions.contains(&s.request);
    let stages = rec.stage_totals(is_request);
    let traced_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| is_request(s))
        .map(Span::duration_ns)
        .sum();
    let stage_ns = |name: &str| stages.get(name).map_or(0, |t| t.self_ns.max(0) as u64);
    let (schedule_ns, embed_ns) = (stage_ns("ghn.schedule"), stage_ns("ghn.embed"));
    // What the steps took, without the request span's own share (the
    // gaps between steps: the recorder's clock reads).
    let stage_sum_ns: i64 = stages
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, t)| t.self_ns)
        .sum();
    let wall_us = mean(&direct_us);
    let stage_sum_us = stage_sum_ns as f64 / 1e3 / n as f64;
    report.set_n("predict.wall_us", wall_us, n);
    report.set_n("predict.stage_sum_us", stage_sum_us, n);
    report.set("predict.unattributed_share", 1.0 - stage_sum_us / wall_us);
    report.set(
        "telemetry.trace_overhead_ratio",
        traced_ns as f64 / 1e3 / direct_us.iter().sum::<f64>(),
    );
    if let Some(p99) = steady_percentile(&direct_us, 0.99) {
        report.set_n("latency_p99_us", p99, n);
    }

    if work.embeds > 0 {
        report.set(
            "ghn.schedule_share",
            schedule_ns as f64 / (schedule_ns + embed_ns) as f64,
        );
        report.set(
            "ghn.embed_us_per_node",
            embed_ns as f64 / 1e3 / work.nodes as f64,
        );
        report.set_n(
            "tensor.gemm_calls_per_embed",
            work.gemm_calls as f64 / work.embeds as f64,
            work.embeds as usize,
        );
        report.set_n(
            "tensor.gemm_flops_per_embed",
            work.gemm_flops as f64 / work.embeds as f64,
            work.embeds as usize,
        );
        report.set(
            "tensor.gemm_gflops",
            work.gemm_flops as f64 / embed_ns as f64,
        );
    }
    report.set_n(
        "embeddings.hit_rate",
        hits as f64 / (hits + misses) as f64,
        n,
    );
    report.set(
        "embeddings.ghn_embeds",
        (after.computes - before.computes) as f64,
    );
    report.set(
        "embeddings.evictions",
        (after.evictions - before.evictions) as f64,
    );

    let mut summary = format!(
        "\"requests\": {n},\n\"predict_wall_us\": {wall_us},\n\"stage_sum_us\": {stage_sum_us},\n\"stages\": ["
    );
    for (i, (name, t)) in stages.iter().enumerate() {
        summary.push_str(if i == 0 { "\n" } else { ",\n" });
        summary.push_str(&format!(
            "{{\"name\":\"{name}\",\"count\":{},\"self_ns\":{}}}",
            t.count, t.self_ns
        ));
    }
    summary.push_str("\n]");
    summary
}

/// `predict_many` over `positions` against the serial loop over the same
/// requests, each on a freshly warmed cache.
fn predict_many_speedup(
    system: &mut PredictDdl,
    plan: &Plan,
    mix: Mix,
    seed: u64,
    positions: Range<usize>,
) -> f64 {
    let reqs: Vec<PredictionRequest> = positions.map(|p| plan.item(p).req.clone()).collect();
    let timed = |system: &mut PredictDdl, parallel: bool| {
        system.cache = EmbeddingCache::default();
        warm_up(system, &system.cache, plan, mix, seed);
        let t0 = Instant::now();
        if parallel {
            black_box(system.predict_many(&reqs));
        } else {
            for r in &reqs {
                black_box(system.predict(r).expect("generated requests succeed"));
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let serial = timed(system, false);
    let parallel = timed(system, true);
    system.cache = EmbeddingCache::default();
    serial / parallel
}

/// Submit on an idle one-worker pool to the start of the job, µs, median.
fn handoff_us() -> f64 {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        queue_depth: 256,
        ..ServeConfig::default()
    });
    let epoch = Instant::now();
    let started = Arc::new(AtomicU64::new(0));
    let mut samples = Vec::with_capacity(HANDOFF_PINGS);
    for _ in 0..HANDOFF_PINGS {
        // Let the worker go back to sleep: an idle pool is the case measured.
        std::thread::sleep(Duration::from_micros(100));
        started.store(0, Ordering::Release);
        let t0 = epoch.elapsed().as_nanos() as u64;
        let s = Arc::clone(&started);
        pool.try_submit(move |_| s.store(epoch.elapsed().as_nanos() as u64, Ordering::Release))
            .expect("an idle pool admits");
        let t1 = loop {
            let t = started.load(Ordering::Acquire);
            if t != 0 {
                break t;
            }
            std::hint::spin_loop();
        };
        samples.push((t1 - t0) as f64 / 1e3);
    }
    pool.shutdown();
    median(&samples)
}

/// Builds the spans of a paced segment from what its jobs wrote down and
/// reports the serve and client metrics.
fn paced_metrics(
    seg: &Segment,
    plan: &Plan,
    due: &[u64],
    slo_limit_us: f64,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let mut waits = Vec::new();
    let mut lateness = Vec::new();
    let mut busy_ns = seg.observe_busy_ns;
    for (k, slot) in seg.slots.iter().enumerate() {
        let pos = seg.range.start + k;
        let (due_ns, sent) = (due[k], seg.submit_ns[k]);
        lateness.push((sent - due_ns) as f64 / 1e3);
        if !slot.ok() {
            continue;
        }
        let (start, done) = (slot.start_ns(), slot.done_ns());
        let root = rec.push("paced_request", due_ns, done, None, pos);
        rec.push("client.lateness", due_ns, sent, Some(root), pos);
        rec.push("serve.queue_wait", sent, start.max(sent), Some(root), pos);
        rec.push("serve.execute", start.max(sent), done, Some(root), pos);
        waits.push(start.saturating_sub(sent) as f64 / 1e3);
        busy_ns += done - start;
    }
    // Open-loop latency, from the due time, by request class.
    let lat: Vec<(Class, f64)> = seg
        .slots
        .iter()
        .zip(due)
        .enumerate()
        .filter(|(_, (s, _))| s.ok())
        .map(|(k, (s, &d))| {
            (
                plan.item(seg.range.start + k).class,
                latency_from_due(d, s.done_ns()) as f64 / 1e3,
            )
        })
        .collect();
    let of_class = |class: Class| -> Vec<f64> {
        lat.iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, l)| *l)
            .collect()
    };
    let all: Vec<f64> = lat.iter().map(|(_, l)| *l).collect();
    let mut set_tail = |name: &'static str, v: &[f64], p: f64| {
        if let Some(x) = percentile(v, p) {
            report.set_n(name, x, v.len());
        }
    };
    set_tail("serve.queue_wait_p50_us", &waits, 0.5);
    set_tail("serve.queue_wait_p99_us", &waits, 0.99);
    set_tail("client.generator_lateness_p99_us", &lateness, 0.99);
    set_tail("client.latency_p50_us", &all, 0.5);
    set_tail("client.latency_p99_us", &all, 0.99);
    let (hit, miss) = (of_class(Class::Warm), of_class(Class::Cold));
    set_tail("client.latency_p50_us.hit", &hit, 0.5);
    set_tail("client.latency_p99_us.hit", &hit, 0.99);
    set_tail("client.latency_p50_us.miss", &miss, 0.5);
    set_tail("client.latency_p99_us.miss", &miss, 0.99);
    report.set("client.samples", all.len() as f64);
    report.set(
        "serve.worker_busy_share",
        busy_ns as f64 / seg.wall_ns as f64,
    );
    report.set("serve.shed", seg.shed as f64);
    report.set("serve.expired", seg.expired as f64);
    report.set("serve.queue_depth_peak", seg.queue_peak as f64);
    report.set("observe.drift_events", seg.drift_events as f64);
    // A request that failed misses the limit.
    let missed = all.iter().filter(|&&l| l > slo_limit_us).count() + (seg.slots.len() - all.len());
    report.set_n(
        "slo_miss_share",
        missed as f64 / seg.slots.len() as f64,
        seg.slots.len(),
    );
}

/// The traced run of a serving workload: every per-layer metric, and
/// `out/trace.<workload>.json`.
pub fn run(mix: Mix, name: &str, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let frozen = mix.frozen();
    let n_replay = frozen.replay;
    let n_paced = ((frozen.paced_rps * seconds * TRACED_PACED_SHARE) as usize).max(1);
    // A prefix of the seeded sequence the untraced run serves.
    let n = n_replay + n_paced + PAR_REQUESTS;
    let mut system = train_serving(1).system;
    let plan = Generator::new(seed).plan(mix, n);
    let due = poisson_schedule(seed, frozen.paced_rps, n_paced);
    println!(
        "# requests={n} replay={n_replay} paced={n_paced}@{}rps sequence_hash={:016x}",
        frozen.paced_rps,
        plan.sequence_hash()
    );

    let mut report = Report::default();
    let mut rec = Recorder::default();

    let par = n_replay + n_paced..n_replay + n_paced + PAR_REQUESTS;
    report.set_n(
        "par.predict_many_speedup",
        predict_many_speedup(&mut system, &plan, mix, seed, par),
        PAR_REQUESTS,
    );

    let cache = EmbeddingCache::default();
    warm_up(&system, &system.cache, &plan, mix, seed);
    warm_up(&system, &cache, &plan, mix, seed);
    let summary = replay(&system, &cache, &plan, 0..n_replay, &mut rec, &mut report);

    let system = Arc::new(system);
    let plan = Arc::new(plan);
    let seg = run_paced(&system, &plan, n_replay..n_replay + n_paced, &due);
    paced_metrics(
        &seg,
        &plan,
        &due,
        frozen.slo_limit_us,
        &mut rec,
        &mut report,
    );
    report.set("serve.handoff_us", handoff_us());

    let wrong = mismatches(&seg, &plan, mix, &mut Oracle::new(&system));
    if wrong > 0 {
        report.violation(format!(
            "{wrong} paced predictions differ from their reference"
        ));
    }
    report.attempted = (2 * n_replay) as u64 + seg.attempted();
    report.failed = seg.failed() + wrong;
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted as f64,
    );
    write_trace(&rec, out_dir, name, seed, &summary);
    report
}

/// Writes `out_dir/trace.<workload>.json`.
pub fn write_trace(rec: &Recorder, out_dir: &Path, workload: &str, seed: u64, summary: &str) {
    let path = out_dir.join(format!("trace.{workload}.json"));
    let head = format!("\"workload\": \"{workload}\",\n\"seed\": {seed},\n{summary}");
    rec.write_json(&path, &head)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# trace: {} spans in {}", rec.spans().len(), path.display());
}
