//! The two timed segments of a serving workload, and the untraced run that
//! reports the end-to-end metrics.
//!
//! * **Paced**: open loop. One generator thread submits at seeded Poisson
//!   arrival times to `ServePool { workers: 1, queue_depth: 256 }`;
//!   latency runs from the due time to the stamp taken in the job.
//! * **Closed**: closed loop. Two threads call `PredictDdl::predict`
//!   directly over a fixed request list.
//!
//! At most two threads are ever busy: the box has two cores.

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, slice_median, slices};
use crate::sut::{train_serving, warm_serving, Accuracy, Digest, Oracle, Trained, SETUP_REPEATS};
use crate::workload::{Generator, Item, Mix, Plan};
use pddl_telemetry::TraceContext;
use predictddl::{JobOutcome, ObservationSink, PredictDdl, ServeConfig, ServePool};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rates, sizes and limits frozen for one workload; `README.md` says how
/// each was calibrated. Changing one is its own PR with a new baseline.
pub struct Frozen {
    /// Open-loop arrival rate of the paced segment, 20–35 % of what one
    /// worker sustains.
    pub paced_rps: f64,
    /// What two closed-loop callers sustained when this was frozen, req/s:
    /// sizes the closed segment's fixed request count.
    pub closed_rps: f64,
    /// Latency limit of `slo_miss_share`.
    pub slo_limit_us: f64,
    /// Requests the traced pass replays.
    pub replay: usize,
}

impl Mix {
    pub fn frozen(self) -> Frozen {
        match self {
            Mix::WarmZoo => Frozen {
                paced_rps: 2000.0,
                closed_rps: 27_000.0,
                slo_limit_us: 1000.0,
                replay: 2000,
            },
            Mix::ColdNas => Frozen {
                paced_rps: 200.0,
                closed_rps: 1400.0,
                slo_limit_us: 15_000.0,
                replay: 1000,
            },
            Mix::MixedObserve => Frozen {
                paced_rps: 800.0,
                closed_rps: 5300.0,
                slo_limit_us: 10_000.0,
                replay: 1000,
            },
        }
    }
}

/// Closed-loop callers: one per core.
const CALLERS: usize = 2;
/// Share of `--seconds` the untraced run's closed segment is sized for.
const CLOSED_SHARE: f64 = 0.5;
/// One in this many `cold_nas` / `mixed_observe` predictions is checked
/// against the oracle; every `warm_zoo` prediction is.
const CHECK_EVERY: usize = 16;
/// Ground truth reported by observe jobs in the second half of a segment
/// is scaled by this: the cluster got slower, the drift detector fires.
const DRIFT_FACTOR: f64 = 1.5;

const PENDING: u8 = 0;
const OK: u8 = 1;
const EXPIRED: u8 = 2;
const ERROR: u8 = 3;
const SHED: u8 = 4;

/// What one request's job wrote down.
#[derive(Default)]
pub struct Slot {
    /// When the job began, ns since the segment's epoch.
    start_ns: AtomicU64,
    /// Completion stamp, taken in the job right after the prediction.
    done_ns: AtomicU64,
    secs_bits: AtomicU64,
    nearest: AtomicU64,
    status: AtomicU8,
}

impl Slot {
    fn finish(&self, now: impl Fn() -> u64, result: Result<predictddl::Prediction, u8>) -> u8 {
        let status = match result {
            Ok(p) => {
                let d = Digest::of(&p);
                self.secs_bits.store(d.secs_bits, Ordering::Relaxed);
                self.nearest.store(d.nearest, Ordering::Relaxed);
                OK
            }
            Err(status) => status,
        };
        self.done_ns.store(now(), Ordering::Relaxed);
        self.status.store(status, Ordering::Release);
        status
    }

    pub fn ok(&self) -> bool {
        self.status.load(Ordering::Acquire) == OK
    }

    pub fn start_ns(&self) -> u64 {
        self.start_ns.load(Ordering::Relaxed)
    }

    pub fn done_ns(&self) -> u64 {
        self.done_ns.load(Ordering::Relaxed)
    }

    pub fn digest(&self) -> Digest {
        Digest {
            secs_bits: self.secs_bits.load(Ordering::Relaxed),
            nearest: self.nearest.load(Ordering::Relaxed),
        }
    }
}

/// Counts of the observe jobs a segment ran.
#[derive(Default)]
struct ObserveCounts {
    attempted: AtomicU64,
    failed: AtomicU64,
    /// Time observe jobs kept a worker busy, ns.
    busy_ns: AtomicU64,
}

/// A finished segment.
pub struct Segment {
    /// Sequence positions the segment served.
    pub range: Range<usize>,
    /// One per position of `range`.
    pub slots: Vec<Slot>,
    /// First submit (or first call) to last completion, ns.
    pub wall_ns: u64,
    /// When the generator sent each request, ns (paced only).
    pub submit_ns: Vec<u64>,
    pub shed: u64,
    pub expired: u64,
    pub errors: u64,
    pub observe_attempted: u64,
    pub observe_failed: u64,
    pub observe_busy_ns: u64,
    pub drift_events: u64,
    pub queue_peak: usize,
}

impl Segment {
    fn collect(
        range: Range<usize>,
        slots: Vec<Slot>,
        wall_ns: u64,
        submit_ns: Vec<u64>,
        observe: &ObserveCounts,
        sink: &ObservationSink,
        queue_peak: usize,
    ) -> Self {
        let count = |s: u8| {
            slots
                .iter()
                .filter(|x| x.status.load(Ordering::Acquire) == s)
                .count() as u64
        };
        assert_eq!(
            count(PENDING),
            0,
            "a request was neither served nor refused"
        );
        Self {
            shed: count(SHED),
            expired: count(EXPIRED),
            errors: count(ERROR),
            range,
            slots,
            wall_ns,
            submit_ns,
            observe_attempted: observe.attempted.load(Ordering::Relaxed),
            observe_failed: observe.failed.load(Ordering::Relaxed),
            observe_busy_ns: observe.busy_ns.load(Ordering::Relaxed),
            drift_events: sink.drift_events(),
            queue_peak,
        }
    }

    /// Predictions and observe jobs sent.
    pub fn attempted(&self) -> u64 {
        self.slots.len() as u64 + self.observe_attempted
    }

    /// Operations shed, expired or answered with an error.
    pub fn failed(&self) -> u64 {
        self.shed + self.expired + self.errors + self.observe_failed
    }
}

/// The runtime an observe job reports for `item`.
pub fn observed_secs(item: &Item, second_half: bool) -> f64 {
    item.truth_secs * if second_half { DRIFT_FACTOR } else { 1.0 }
}

/// The observe job that follows a prediction: re-predict, report the
/// (possibly drifted) ground truth, calibrate.
fn observe_job(
    system: &PredictDdl,
    plan: &Plan,
    sink: &ObservationSink,
    pos: usize,
    second_half: bool,
) -> bool {
    let item = plan.item(pos);
    let servers = item.req.cluster.num_servers();
    let actual = observed_secs(item, second_half);
    match system.predict(&item.req) {
        Ok(p) => {
            black_box(sink.record(p.seconds, actual, servers));
            black_box(sink.calibrate(p.seconds, servers));
            true
        }
        Err(_) => false,
    }
}

struct PacedShared {
    system: Arc<PredictDdl>,
    plan: Arc<Plan>,
    range: Range<usize>,
    slots: Vec<Slot>,
    epoch: Instant,
    /// Jobs submitted and not yet finished, observe jobs included.
    pending: AtomicU64,
    observe: ObserveCounts,
    sink: ObservationSink,
}

impl PacedShared {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Open loop: submits `plan[range]` at `due` to a one-worker pool. Each
/// submission carries a `TraceContext`, as a traced wire request would.
pub fn run_paced(
    system: &Arc<PredictDdl>,
    plan: &Arc<Plan>,
    range: Range<usize>,
    due: &[u64],
) -> Segment {
    assert_eq!(due.len(), range.len());
    let pool = Arc::new(ServePool::start(ServeConfig {
        workers: 1,
        queue_depth: 256,
        ..ServeConfig::default()
    }));
    let shared = Arc::new(PacedShared {
        system: Arc::clone(system),
        plan: Arc::clone(plan),
        range: range.clone(),
        slots: (0..range.len()).map(|_| Slot::default()).collect(),
        epoch: Instant::now(),
        pending: AtomicU64::new(0),
        observe: ObserveCounts::default(),
        sink: ObservationSink::new(),
    });
    let mut submit_ns = Vec::with_capacity(range.len());
    for (k, &due_ns) in due.iter().enumerate() {
        wait_until(|| shared.now(), due_ns);
        submit_ns.push(shared.now());
        shared.pending.fetch_add(1, Ordering::AcqRel);
        let job = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            move |outcome| paced_job(&shared, &pool, k, outcome)
        };
        if pool
            .try_submit_traced(Some(TraceContext::root(k as u64 + 1)), job)
            .is_err()
        {
            shared.slots[k].finish(|| shared.now(), Err(SHED));
            shared.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
    while shared.pending.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let wall_ns = shared.now() - submit_ns.first().copied().unwrap_or(0);
    pool.shutdown();
    let queue_peak = pool.queue_peak();
    drop(pool);
    let shared = Arc::into_inner(shared).expect("every job has finished and dropped its handle");
    Segment::collect(
        range,
        shared.slots,
        wall_ns,
        submit_ns,
        &shared.observe,
        &shared.sink,
        queue_peak,
    )
}

/// Waits for `due_ns`: sleeps through the bulk of a long gap, so the
/// generator does not hold a core the system needs, and spins through the
/// last stretch, which a sleep would overshoot.
fn wait_until(now: impl Fn() -> u64, due_ns: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let t = now();
        if t >= due_ns {
            return;
        }
        if due_ns - t > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - t - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Counts a job as no longer pending when it ends, even by a panic (the
/// pool catches those): the generator must not wait for it for ever.
struct Finished<'a>(&'a AtomicU64);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn paced_job(shared: &Arc<PacedShared>, pool: &Arc<ServePool>, k: usize, outcome: JobOutcome) {
    let _finished = Finished(&shared.pending);
    let slot = &shared.slots[k];
    slot.start_ns.store(shared.now(), Ordering::Relaxed);
    let pos = shared.range.start + k;
    let result = match outcome {
        JobOutcome::Expired => Err(EXPIRED),
        JobOutcome::Run => shared
            .system
            .predict(&shared.plan.item(pos).req)
            .map_err(|_| ERROR),
    };
    let status = slot.finish(|| shared.now(), result);
    if status == OK && shared.plan.observe[pos] {
        shared.observe.attempted.fetch_add(1, Ordering::Relaxed);
        shared.pending.fetch_add(1, Ordering::AcqRel);
        let second_half = k >= shared.range.len() / 2;
        let s = Arc::clone(shared);
        let submitted = pool.try_submit(move |outcome| {
            let _finished = Finished(&s.pending);
            let t0 = s.now();
            let done = outcome == JobOutcome::Run
                && observe_job(&s.system, &s.plan, &s.sink, pos, second_half);
            if !done {
                s.observe.failed.fetch_add(1, Ordering::Relaxed);
            }
            s.observe.busy_ns.fetch_add(s.now() - t0, Ordering::Relaxed);
        });
        if submitted.is_err() {
            shared.observe.failed.fetch_add(1, Ordering::Relaxed);
            shared.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Closed loop: [`CALLERS`] threads take `plan[range]` from a shared
/// cursor and call `predict` directly; an observe job runs inline after
/// its prediction.
pub fn run_closed(system: &PredictDdl, plan: &Plan, range: Range<usize>) -> Segment {
    let slots: Vec<Slot> = (0..range.len()).map(|_| Slot::default()).collect();
    let cursor = AtomicU64::new(0);
    let observe = ObserveCounts::default();
    let sink = ObservationSink::new();
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if k >= slots.len() {
                    break;
                }
                let pos = range.start + k;
                slots[k].start_ns.store(now(), Ordering::Relaxed);
                let result = system.predict(&plan.item(pos).req).map_err(|_| ERROR);
                let status = slots[k].finish(now, result);
                if status == OK && plan.observe[pos] {
                    observe.attempted.fetch_add(1, Ordering::Relaxed);
                    if !observe_job(system, plan, &sink, pos, k >= slots.len() / 2) {
                        observe.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall_ns = now();
    Segment::collect(range, slots, wall_ns, Vec::new(), &observe, &sink, 0)
}

/// Requests per second of each slice of a closed segment (slice: an
/// index range; its wall runs from its first start to its last end).
pub fn closed_slice_rps(seg: &Segment) -> Vec<f64> {
    slices(seg.slots.len())
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let s = &seg.slots[r];
            let first = s.iter().map(Slot::start_ns).min().expect("non-empty slice");
            let last = s.iter().map(Slot::done_ns).max().expect("non-empty slice");
            s.len() as f64 / ((last - first) as f64 / 1e9)
        })
        .collect()
}

/// Checks served predictions against the oracle; returns how many differ.
pub fn mismatches(seg: &Segment, plan: &Plan, mix: Mix, oracle: &mut Oracle) -> u64 {
    let every = if mix == Mix::WarmZoo { 1 } else { CHECK_EVERY };
    let mut wrong = 0;
    for (k, slot) in seg.slots.iter().enumerate().step_by(every) {
        if slot.ok() && slot.digest() != oracle.reference(plan.item(seg.range.start + k)) {
            wrong += 1;
        }
    }
    wrong
}

/// Per-call latency of every served request of a closed segment, µs, in
/// sequence order.
pub fn closed_latencies_us(seg: &Segment) -> Vec<f64> {
    seg.slots
        .iter()
        .filter(|s| s.ok())
        .map(|s| (s.done_ns() - s.start_ns()) as f64 / 1e3)
        .collect()
}

/// Request count of the closed segment for `--seconds`.
pub fn closed_size(frozen: &Frozen, seconds: f64) -> usize {
    ((frozen.closed_rps * seconds * CLOSED_SHARE) as usize).max(crate::stats::SLICES)
}

/// The untraced run of a serving workload: every end-to-end metric, from
/// one closed-loop segment.
pub fn run(mix: Mix, seed: u64, seconds: f64) -> Report {
    let n = closed_size(&mix.frozen(), seconds);
    let Trained {
        mut system,
        build_s,
        train_s,
    } = train_serving(SETUP_REPEATS);
    let plan = Generator::new(seed).plan(mix, n);
    println!(
        "# requests={n} distinct={} sequence_hash={:016x}",
        plan.table.len(),
        plan.sequence_hash()
    );
    let warm_s = warm_serving(&mut system, &plan, mix, seed, SETUP_REPEATS);
    let closed = run_closed(&system, &plan, 0..n);

    let mut report = Report::default();
    let wrong = mismatches(&closed, &plan, mix, &mut Oracle::new(&system));
    if wrong > 0 {
        report.violation(format!(
            "{wrong} served predictions differ from their reference"
        ));
    }
    report.attempted = closed.attempted();
    report.failed = closed.failed() + wrong;

    let lat = closed_latencies_us(&closed);
    let p50 = slice_median(&lat, |s| percentile(s, 0.5)).expect("at least one request per slice");
    report.set_n("latency_p50_us", p50, lat.len());
    report.set_n("throughput_rps", median(&closed_slice_rps(&closed)), n);

    // Accuracy of what was served, against the simulator's ground truth.
    let served: Vec<(&Item, f64)> = closed
        .slots
        .iter()
        .zip(closed.range.clone())
        .filter(|(s, _)| s.ok())
        .map(|(s, pos)| (plan.item(pos), s.digest().seconds()))
        .collect();
    let acc = Accuracy::score(&system.records, &served);
    report.set_n("mean_rel_err", acc.ours, served.len());
    report.set("err_ratio_vs_ernest", acc.ratio_vs_ernest());
    report.set_n("setup_s", build_s + warm_s, SETUP_REPEATS);
    report.set_n("train_s", train_s, SETUP_REPEATS);
    report.set("peak_rss_mb", peak_rss_mb());
    report
}
