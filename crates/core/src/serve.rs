//! Bounded serving core: the fixed worker pool and admission queue behind
//! the controller's listener.
//!
//! Admission control in one sentence: requests are *shed, not buffered*.
//! [`ServePool::try_submit`] either admits a job into a bounded FIFO queue
//! (a [`pddl_par::TaskQueue`]) consumed by a fixed pool of workers, or
//! hands it back as [`SubmitError::Full`] so the caller can answer the
//! peer with the typed `{"error":"overloaded","retry_after_ms":...}`
//! reply. Three overload modes, three observable outcomes:
//!
//! * **Queue full** → shed at admission (`controller.requests_shed`); the
//!   submitter replies immediately, nothing ever queues.
//! * **Deadline exceeded while queued** → expired at dispatch
//!   (`controller.requests_expired`); the job still runs, but with
//!   [`JobOutcome::Expired`], so it answers the peer with an overload
//!   reply instead of doing work that is no longer wanted.
//! * **Pool closed** → [`SubmitError::Closed`]; jobs admitted before the
//!   close are drained to completion first — a graceful drain, not an
//!   abort.
//!
//! Queue pressure is exported live: `controller.queue_depth` (gauge),
//! `controller.queue_depth_peak` (high-water gauge via
//! [`pddl_telemetry::Gauge::set_max`]), and `controller.queue_wait`
//! (histogram of time spent queued).

use pddl_faults::FaultPlan;
use pddl_par::{PushError, TaskQueue};
use pddl_telemetry::trace::{flight_recorder, stage_handle, stages, StageHandle};
use pddl_telemetry::{tlog, Counter, Gauge, Histogram, Level, SpanStatus, TraceContext};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the bounded serving core. The defaults suit a test or
/// benchmark controller; production deployments size `workers` to cores
/// and `queue_depth` to the latency budget (a deep queue converts overload
/// into latency, a shallow one into sheds).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads executing requests (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed with a
    /// typed overload reply (clamped to ≥ 1).
    pub queue_depth: usize,
    /// Maximum simultaneously connected peers; connections beyond it get
    /// an overload reply and are closed without a reader thread.
    pub max_connections: usize,
    /// Longest a request may wait in the queue before it is expired (it
    /// then answers with an overload reply instead of executing).
    /// `Duration::ZERO` expires everything — useful for tests.
    pub request_deadline: Duration,
    /// Advisory pacing hint carried in every overload reply, in
    /// milliseconds.
    pub retry_after_ms: u64,
    /// Trace one in `trace_sample` requests that arrive without an
    /// explicit [`TraceContext`] (0 disables sampling; envelopes carrying
    /// a context are always traced). Sampling keeps the flight-recorder
    /// writes off most of the hot path at high request rates.
    pub trace_sample: u64,
    /// Promote a traced request to the retained set as `slow` when its
    /// end-to-end time exceeds this many milliseconds (0 disables the
    /// latency trigger; shed/error promotion is always on).
    pub trace_slow_ms: u64,
    /// This controller's stable shard id when it serves as one shard of a
    /// router-fronted fleet. A sharded controller echoes the id in
    /// enveloped responses, `{"op":"stats"}` replies, and its identity
    /// route table; `None` (the default) leaves the wire shapes exactly
    /// as they were before sharding existed.
    pub shard_id: Option<u64>,
    /// Wire-fault plan every accepted connection wears (`None`, the
    /// default, serves fault-free). The library never reads
    /// `PDDL_FAULT_PLAN` itself: `predictddl-cli serve` does, once, and
    /// passes the plan here.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: pddl_par::num_threads().max(2),
            queue_depth: 256,
            max_connections: 1024,
            request_deadline: Duration::from_secs(5),
            retry_after_ms: 25,
            trace_sample: 1,
            trace_slow_ms: 0,
            shard_id: None,
            fault_plan: None,
        }
    }
}

/// How the pool dispatched a job: normally, or past its queue deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job was dispatched within its deadline — do the work.
    Run,
    /// The job sat in the queue past the deadline — answer the peer with
    /// an overload reply, skip the work.
    Expired,
}

/// Why [`ServePool::try_submit`] rejected a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity — shed the request.
    Full,
    /// The pool is draining; no new work is admitted.
    Closed,
}

struct Job {
    enqueued: Instant,
    /// Root context of the request this job serves, when it is traced;
    /// the dispatching worker records the `queue_wait` span against it.
    trace: Option<TraceContext>,
    run: Box<dyn FnOnce(JobOutcome) + Send>,
}

/// Pool-side metric handles, resolved once.
struct PoolMetrics {
    queue_depth: &'static Gauge,
    queue_depth_peak: &'static Gauge,
    requests_shed: &'static Counter,
    requests_expired: &'static Counter,
    queue_wait: &'static Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        queue_depth: pddl_telemetry::gauge("controller.queue_depth"),
        queue_depth_peak: pddl_telemetry::gauge("controller.queue_depth_peak"),
        requests_shed: pddl_telemetry::counter("controller.requests_shed"),
        requests_expired: pddl_telemetry::counter("controller.requests_expired"),
        queue_wait: pddl_telemetry::histogram("controller.queue_wait"),
    })
}

/// The queue-wait stage handle, resolved once so the per-job trace record
/// on the worker hot path takes no lock.
fn queue_wait_stage() -> StageHandle {
    static STAGE: OnceLock<StageHandle> = OnceLock::new();
    *STAGE.get_or_init(|| stage_handle(stages::QUEUE_WAIT))
}

/// A fixed pool of workers consuming a bounded admission queue. See the
/// module docs for the overload semantics.
pub struct ServePool {
    queue: Arc<TaskQueue<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    deadline: Duration,
}

impl ServePool {
    /// Starts `config.workers` worker threads over a queue of
    /// `config.queue_depth` slots.
    pub fn start(config: ServeConfig) -> Self {
        let worker_count = config.workers.max(1);
        let queue = Arc::new(TaskQueue::bounded(config.queue_depth));
        let handles = (0..worker_count)
            .map(|i| {
                let q = Arc::clone(&queue);
                let deadline = config.request_deadline;
                std::thread::Builder::new()
                    .name(format!("pddl-serve-{i}"))
                    .spawn(move || worker_loop(&q, deadline))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            queue,
            workers: Mutex::new(handles),
            worker_count,
            deadline: config.request_deadline,
        }
    }

    /// Admits `f` if there is queue room; never blocks. On admission the
    /// job is guaranteed to run exactly once — with [`JobOutcome::Run`] if
    /// dispatched within the deadline, [`JobOutcome::Expired`] otherwise —
    /// even if the pool is shut down right after (drain semantics).
    pub fn try_submit<F>(&self, f: F) -> Result<(), SubmitError>
    where
        F: FnOnce(JobOutcome) + Send + 'static,
    {
        self.try_submit_traced(None, f)
    }

    /// [`ServePool::try_submit`] for a traced request: the dispatching
    /// worker records a `queue_wait` child span of `trace`, and a shed at
    /// admission promotes the trace into the flight recorder's retained
    /// set (the tail-sampling contract: every shed trace is kept, up to
    /// the retained bound).
    pub fn try_submit_traced<F>(
        &self,
        trace: Option<TraceContext>,
        f: F,
    ) -> Result<(), SubmitError>
    where
        F: FnOnce(JobOutcome) + Send + 'static,
    {
        let m = pool_metrics();
        let job = Job { enqueued: Instant::now(), trace, run: Box::new(f) };
        match self.queue.try_push(job) {
            Ok(()) => {
                m.queue_depth.inc();
                m.queue_depth_peak.set_max(self.queue.peak() as i64);
                Ok(())
            }
            Err(PushError::Full(job)) => {
                m.requests_shed.inc();
                if let Some(ctx) = job.trace {
                    let rec = flight_recorder();
                    rec.record_stage_resolved(
                        ctx,
                        queue_wait_stage(),
                        rec.now_us(),
                        Duration::ZERO,
                        SpanStatus::Shed,
                    );
                    rec.promote(ctx.trace_id, "shed");
                }
                Err(SubmitError::Full)
            }
            Err(PushError::Closed(job)) => {
                if let Some(ctx) = job.trace {
                    flight_recorder().promote(ctx.trace_id, "shed");
                }
                Err(SubmitError::Closed)
            }
        }
    }

    /// Jobs currently queued (racy; telemetry only).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of this pool's queue depth.
    pub fn queue_peak(&self) -> usize {
        self.queue.peak()
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// The queue-wait deadline jobs are expired against.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Closes admission, drains every already-admitted job, and joins the
    /// workers. Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles = std::mem::take(
            &mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(queue: &TaskQueue<Job>, deadline: Duration) {
    let m = pool_metrics();
    while let Some(job) = queue.pop() {
        m.queue_depth.dec();
        let waited = job.enqueued.elapsed();
        m.queue_wait.record_duration(waited);
        let outcome = if deadline.is_zero() || waited > deadline {
            m.requests_expired.inc();
            JobOutcome::Expired
        } else {
            JobOutcome::Run
        };
        if let Some(ctx) = job.trace {
            let rec = flight_recorder();
            let start = rec.now_us().saturating_sub(waited.as_micros() as u64);
            let status = match outcome {
                JobOutcome::Run => SpanStatus::Ok,
                JobOutcome::Expired => SpanStatus::Expired,
            };
            rec.record_stage_resolved(ctx, queue_wait_stage(), start, waited, status);
            if outcome == JobOutcome::Expired {
                // Deadline expiry answers the peer with an overload
                // reply, so retain the trace like any other shed.
                rec.promote(ctx.trace_id, "shed");
            }
        }
        let run = job.run;
        // A panicking handler must not take the worker (and its queue
        // slot) down with it — the reader waiting on this job's latch is
        // released by the latch's drop guard, and the worker lives on.
        if std::panic::catch_unwind(AssertUnwindSafe(move || run(outcome))).is_err() {
            tlog!(Level::Error, "controller.pool", "request handler panicked");
        }
    }
}

/// A one-shot completion latch: the reader thread submits a job with a
/// clone, then [`Latch::wait`]s; the job [`Latch::open`]s it when the
/// response has been written. That hand-off is what serializes responses
/// per connection while the pool runs many connections' jobs in parallel.
#[derive(Default)]
pub(crate) struct Latch {
    opened: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    /// A closed latch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Opens the latch, releasing every waiter. Idempotent.
    pub(crate) fn open(&self) {
        *self.opened.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Blocks until the latch is opened.
    pub(crate) fn wait(&self) {
        let mut opened = self.opened.lock().unwrap_or_else(|e| e.into_inner());
        while !*opened {
            opened = self.cv.wait(opened).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Opens a latch when dropped — the job-side guard that releases the
/// waiting reader even if the handler panics mid-response.
pub(crate) struct OpenOnDrop(pub(crate) Arc<Latch>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_config(workers: usize, depth: usize) -> ServeConfig {
        ServeConfig { workers, queue_depth: depth, ..ServeConfig::default() }
    }

    #[test]
    fn admitted_jobs_all_run() {
        let pool = ServePool::start(test_config(3, 64));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move |o| {
                assert_eq!(o, JobOutcome::Run);
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn full_queue_sheds_with_conservation() {
        // One worker pinned on a gate, depth 2: the 4th submission must
        // shed. admitted + shed == submitted throughout.
        let pool = ServePool::start(test_config(1, 2));
        let gate = Arc::new(Latch::new());
        let done = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            let done = Arc::clone(&done);
            pool.try_submit(move |_| {
                gate.wait();
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        // Wait until the worker holds the gated job so the queue is empty.
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        let mut admitted = 1;
        let mut shed = 0;
        for _ in 0..8 {
            let done = Arc::clone(&done);
            match pool.try_submit(move |_| {
                done.fetch_add(1, Ordering::Relaxed);
            }) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Full) => shed += 1,
                Err(SubmitError::Closed) => panic!("pool closed early"),
            }
        }
        assert!(shed >= 6, "depth 2 must shed most of 8: shed={shed}");
        assert_eq!(admitted + shed, 9, "conservation");
        gate.open();
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), admitted, "drain runs every admitted job");
        assert!(pool.queue_peak() <= pool.queue_capacity());
    }

    #[test]
    fn zero_deadline_expires_every_job() {
        let pool = ServePool::start(ServeConfig {
            request_deadline: Duration::ZERO,
            ..test_config(2, 16)
        });
        let expired = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let expired = Arc::clone(&expired);
            pool.try_submit(move |o| {
                assert_eq!(o, JobOutcome::Expired);
                expired.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(expired.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn closed_pool_rejects_but_drains() {
        let pool = ServePool::start(test_config(1, 8));
        let gate = Arc::new(Latch::new());
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            pool.try_submit(move |_| gate.wait()).unwrap();
        }
        for _ in 0..3 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        // Close admission from another thread while the worker is gated,
        // then release; shutdown must still run the 3 queued jobs.
        let closer = std::thread::spawn({
            let gate = Arc::clone(&gate);
            move || {
                std::thread::sleep(Duration::from_millis(20));
                gate.open();
            }
        });
        pool.shutdown();
        closer.join().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(pool.try_submit(|_| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = ServePool::start(test_config(1, 8));
        let latch = Arc::new(Latch::new());
        {
            let guard = OpenOnDrop(Arc::clone(&latch));
            pool.try_submit(move |_| {
                let _guard = guard;
                panic!("handler bug");
            })
            .unwrap();
        }
        latch.wait(); // released by the drop guard despite the panic
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            pool.try_submit(move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the lone worker survived");
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 2);
        assert!(c.queue_depth >= 1);
        assert!(c.max_connections >= 1);
        assert!(!c.request_deadline.is_zero());
        assert!(c.retry_after_ms > 0);
        assert_eq!(c.trace_sample, 1, "tracing on by default");
        assert_eq!(c.trace_slow_ms, 0, "latency trigger off by default");
        assert!(c.fault_plan.is_none(), "fault-free unless a plan is passed in");
    }

    #[test]
    fn traced_dispatch_records_queue_wait_span() {
        let pool = ServePool::start(test_config(1, 8));
        let ctx = TraceContext::root(0x5EAF_0001);
        let latch = Arc::new(Latch::new());
        {
            let guard = OpenOnDrop(Arc::clone(&latch));
            pool.try_submit_traced(Some(ctx), move |o| {
                assert_eq!(o, JobOutcome::Run);
                drop(guard);
            })
            .unwrap();
        }
        latch.wait();
        pool.shutdown();
        let spans = flight_recorder().spans_for(ctx.trace_id);
        assert!(
            spans.iter().any(|s| s.stage == stages::QUEUE_WAIT
                && s.parent_id == ctx.span_id
                && s.status == SpanStatus::Ok),
            "queue_wait child span recorded: {spans:?}"
        );
    }

    #[test]
    fn traced_shed_promotes_the_trace() {
        // One worker pinned, depth 1: the third submission sheds and its
        // trace must land in the retained set with a shed verdict.
        let pool = ServePool::start(test_config(1, 1));
        let gate = Arc::new(Latch::new());
        {
            let gate = Arc::clone(&gate);
            pool.try_submit(move |_| gate.wait()).unwrap();
        }
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|_| {}).unwrap();
        let ctx = TraceContext::root(0x5EAF_0002);
        assert_eq!(
            pool.try_submit_traced(Some(ctx), |_| {}),
            Err(SubmitError::Full)
        );
        gate.open();
        pool.shutdown();
        let retained = flight_recorder().retained();
        let t = retained
            .iter()
            .find(|t| t.trace_id == ctx.trace_id)
            .expect("shed trace retained");
        assert_eq!(t.verdict, "shed");
        assert!(
            t.spans.iter().any(|s| s.stage == stages::QUEUE_WAIT
                && s.status == SpanStatus::Shed),
            "shed marker span present: {:?}",
            t.spans
        );
    }
}
