//! The discrete-event scheduling engine, driven by the live
//! continually-refit predictor.
//!
//! It runs 10⁵–10⁶ jobs through a binary-heap event queue in O(log n) per
//! event: seeded Poisson/burst [`crate::arrivals::ArrivalProcess`]
//! arrivals, deadline SLOs, a finite (optionally autoscaled) server pool,
//! and a mid-run **cost-model shift** that multiplies every subsequent
//! runtime — the scenario where the paper's fit-once predictor quietly
//! rots. Policies consume the *live* [`crate::live::LivePredictor`],
//! bootstrapped either on simulated measurements or on a caller's table
//! of predicted seconds ([`EngineConfig::prior`], e.g. PredictDDL's); a
//! frozen clone of the same bootstrap fit is shadow-evaluated on every job
//! so one run yields the frozen-vs-online accuracy comparison that
//! `pddl-experiments exp_sched_policies` prints.
//!
//! Per-job ground truth is a precomputed `expected[class][servers]` table
//! from [`pddl_ddlsim::Simulator::expected_time`] (O(1) per job) times the
//! active shift factor times seeded lognormal run-to-run noise, so the
//! engine is bit-deterministic for a fixed seed: every f64 in
//! [`EngineMetrics`] is reproducible across runs and thread counts.

use crate::arrivals::ArrivalProcess;
use crate::live::LivePredictor;
use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use pddl_regress::DriftEvent;
use pddl_tensor::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Bounded backfill scan depth for the heap-ordered policies: how many
/// queue heads may be skipped looking for a job that fits the free pool.
const BACKFILL_SCAN: usize = 64;

/// The server class every pool is built from.
const SERVER_CLASS: ServerClass = ServerClass::GpuP100;

/// The job classes: the standard six-class CNN mix, one epoch of CIFAR-10
/// each, drawn uniformly.
const CLASS_MODELS: [&str; 6] =
    ["resnet18", "vgg16", "squeezenet1_1", "alexnet", "resnet50", "densenet161"];

/// Largest allocation a job can get (the right-sizing search space).
const MAX_ALLOC: usize = 16;

/// Deadline slack range: deadline = submit + U(lo, hi) × expected
/// pre-shift runtime at the requested allocation.
const DEADLINE_SLACK: (f32, f32) = (1.5, 4.0);

/// Run-to-run lognormal noise σ on actual runtimes.
const NOISE_SIGMA: f64 = 0.03;

/// The elastic pool of [`PolicyKind::AutoscalePredicted`]: capacity moves
/// in steps of `AUTOSCALE_STEP` servers within `[AUTOSCALE_MIN,
/// AUTOSCALE_MAX]`, up when the predicted backlog per server exceeds
/// `AUTOSCALE_HIGH` mean pre-shift job runtimes, down below `AUTOSCALE_LOW`.
const AUTOSCALE_MIN: usize = 32;
const AUTOSCALE_MAX: usize = 128;
const AUTOSCALE_STEP: usize = 8;
const AUTOSCALE_HIGH: f64 = 4.0;
const AUTOSCALE_LOW: f64 = 1.0;

/// Allocation policy the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-in-first-out, requested allocation, head-of-line blocking —
    /// the predictor-free baseline.
    Fifo,
    /// Shortest-predicted-job-first (priority fixed at enqueue) with a
    /// bounded backfill scan.
    SjfPredicted,
    /// Earliest-deadline-first with prediction-driven right-sizing: each
    /// job gets the smallest allocation predicted to meet its deadline.
    DeadlineAware,
    /// FIFO over an elastic pool: capacity scales with the *predicted*
    /// backlog.
    AutoscalePredicted,
}

impl PolicyKind {
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::SjfPredicted => "sjf_predicted",
            PolicyKind::DeadlineAware => "deadline_aware",
            PolicyKind::AutoscalePredicted => "autoscale_predicted",
        }
    }
}

/// A step change in the cluster cost model: every job *started* at or
/// after the shift point runs `factor`× its pre-shift expected time
/// (factors compound across multiple shifts). `at_fraction` positions the
/// shift within the arrival horizon (0 = first arrival, 1 = last).
#[derive(Clone, Copy, Debug)]
pub struct CostShift {
    pub at_fraction: f64,
    pub factor: f64,
}

/// Arrival intensity as a target load ρ (offered work / pool capacity),
/// resolved against the engine's expected runtime table so scenarios stay
/// calibrated across workload mixes.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalSpec {
    /// Poisson arrivals loading the pool to `rho`.
    PoissonLoad { rho: f64 },
    /// Bursty arrivals: base load `rho_base` with periodic bursts to
    /// `rho_burst`. The cycle period is `period_runtimes` mean job
    /// runtimes; each burst occupies `burst_fraction` of the cycle.
    BurstLoad {
        rho_base: f64,
        rho_burst: f64,
        period_runtimes: f64,
        burst_fraction: f64,
    },
}

/// Full engine configuration. Build with [`EngineConfig::new`] and adjust
/// fields; every field participates in the determinism contract.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub seed: u64,
    /// Total jobs to generate.
    pub jobs: usize,
    /// Server-pool size (initial capacity under autoscale).
    pub servers: usize,
    pub arrivals: ArrivalSpec,
    /// Fraction of jobs carrying a deadline SLO.
    pub deadline_fraction: f64,
    /// Mid-run cost-model shifts (may be empty).
    pub shifts: Vec<CostShift>,
    pub policy: PolicyKind,
    /// Bootstrap observations per (class, allocation) pair, each a noisy
    /// simulated measurement. Unused when `prior` is set.
    pub pretrain_per_pair: usize,
    /// A [`runtime_table`] of predicted seconds to bootstrap the live
    /// predictor on, one observation per (class, allocation) pair, in
    /// place of the measured bootstrap.
    pub prior: Option<Vec<Vec<f64>>>,
    /// Buckets in the frozen-vs-online accuracy curve.
    pub accuracy_buckets: usize,
    /// Jobs launched after a shift that are excluded from the "recovered"
    /// post-shift error (the drift-detect + refit transient).
    pub post_shift_skip: usize,
    /// Stop processing events after this time (for conservation tests);
    /// `None` runs to completion.
    pub horizon: Option<f64>,
}

impl EngineConfig {
    pub fn new(policy: PolicyKind, jobs: usize, seed: u64) -> Self {
        Self {
            seed,
            jobs,
            servers: 64,
            arrivals: ArrivalSpec::PoissonLoad { rho: 0.7 },
            deadline_fraction: 0.5,
            shifts: Vec::new(),
            policy,
            pretrain_per_pair: 3,
            prior: None,
            accuracy_buckets: 24,
            post_shift_skip: 1000,
            horizon: None,
        }
    }
}

/// A `[class][servers]` table of `secs(workload, cluster)` over the job
/// classes and homogeneous pools of `1..=16` servers (column 0 unused):
/// the shape of the engine's ground truth and of [`EngineConfig::prior`].
pub fn runtime_table(secs: impl Fn(&Workload, &ClusterState) -> f64) -> Vec<Vec<f64>> {
    let row = |model: &str| {
        let w = Workload::new(model, "cifar10", 128, 1);
        let cluster = |n| ClusterState::homogeneous(SERVER_CLASS, n);
        let mut row = vec![f64::INFINITY];
        row.extend((1..=MAX_ALLOC).map(|n| secs(&w, &cluster(n))));
        row
    };
    CLASS_MODELS.map(row).into()
}

/// Bit-deterministic aggregate outcome of one engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineMetrics {
    /// Arrivals admitted (≤ configured jobs when a horizon cuts the run).
    pub submitted: u64,
    pub completed: u64,
    /// Still queued when the run stopped (0 without a horizon).
    pub in_queue: u64,
    /// Still running when the run stopped (0 without a horizon).
    pub in_flight: u64,
    pub deadlines_total: u64,
    pub deadlines_met: u64,
    pub deadlines_missed: u64,
    pub makespan: f64,
    pub mean_wait: f64,
    pub p50_wait: f64,
    pub p95_wait: f64,
    pub p99_wait: f64,
    /// Busy server-seconds / available capacity-seconds.
    pub utilization: f64,
    pub server_seconds: f64,
    pub capacity_seconds: f64,
    pub peak_queue: u64,
    pub peak_capacity: u64,
    pub drift_events: u64,
    pub refits: u64,
    /// Observations fed to the live model (== completed jobs observed).
    pub updates: u64,
}

impl EngineMetrics {
    /// Missed-deadline fraction among deadline-carrying completed jobs.
    pub fn missed_pct(&self) -> f64 {
        if self.deadlines_total == 0 {
            0.0
        } else {
            100.0 * self.deadlines_missed as f64 / self.deadlines_total as f64
        }
    }

    /// The f64 fields in a fixed order, for exact-bits golden pinning.
    pub fn float_fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("makespan", self.makespan),
            ("mean_wait", self.mean_wait),
            ("p50_wait", self.p50_wait),
            ("p95_wait", self.p95_wait),
            ("p99_wait", self.p99_wait),
            ("utilization", self.utilization),
            ("server_seconds", self.server_seconds),
            ("capacity_seconds", self.capacity_seconds),
        ]
    }

    /// The integer fields in a fixed order, for golden pinning.
    pub fn int_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("in_queue", self.in_queue),
            ("in_flight", self.in_flight),
            ("deadlines_total", self.deadlines_total),
            ("deadlines_met", self.deadlines_met),
            ("deadlines_missed", self.deadlines_missed),
            ("peak_queue", self.peak_queue),
            ("peak_capacity", self.peak_capacity),
            ("drift_events", self.drift_events),
            ("refits", self.refits),
            ("updates", self.updates),
        ]
    }
}

/// One point of the frozen-vs-online accuracy curve (bucketed by launch
/// time over the arrival horizon).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyBucket {
    /// Bucket end time, seconds.
    pub t_end: f64,
    /// Mean |pred/actual − 1| of the live predictor in this bucket.
    pub online_err: f64,
    /// Same for the frozen baseline.
    pub frozen_err: f64,
    pub jobs: u64,
}

/// Frozen-vs-online prediction accuracy around the shift point.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracySummary {
    /// Mean relative error before the first shift.
    pub pre_shift_online: f64,
    pub pre_shift_frozen: f64,
    /// Mean relative error after the first shift, excluding the
    /// configured recovery transient.
    pub post_shift_online: f64,
    pub post_shift_frozen: f64,
    /// `post_shift_online / pre_shift_online` — ≤ 1.5 means the online
    /// model recovered.
    pub recovery_ratio: f64,
    /// `post_shift_frozen / post_shift_online` — how much worse the
    /// fit-once baseline is after the shift.
    pub frozen_vs_online: f64,
    pub curve: Vec<AccuracyBucket>,
}

/// A drift fire with the simulation time at which it was observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftRecord {
    pub time: f64,
    pub event: DriftEvent,
}

/// Full result of one engine run.
#[derive(Clone, Debug)]
pub struct EngineTrace {
    pub metrics: EngineMetrics,
    pub accuracy: AccuracySummary,
    pub drift: Vec<DriftRecord>,
    /// Resolved absolute shift times (from [`CostShift::at_fraction`]).
    pub shift_times: Vec<f64>,
}

struct JobSpec {
    class: u32,
    servers: u32,
    submit: f64,
    /// `f64::INFINITY` when the job has no SLO.
    deadline: f64,
    /// Per-job lognormal noise factor on the actual runtime.
    noise: f64,
}

/// Accuracy set a launched job belongs to.
const ACC_PRE: u8 = 0;
const ACC_POST_SKIP: u8 = 1;
const ACC_POST: u8 = 2;

/// Runs the engine to completion (or to the configured horizon).
pub fn run_engine(cfg: &EngineConfig) -> EngineTrace {
    assert!(cfg.servers >= 1, "need at least one server");
    let sim = Simulator::new(SimConfig::default());

    // Pre-shift expected-runtime table: O(1) ground-truth lookups per job.
    let expected = runtime_table(|w, cluster| {
        sim.expected_time(w, cluster).expect("every job class fits a P100 pool")
    });
    let classes = expected.len();
    if let Some(prior) = &cfg.prior {
        let shaped = prior.len() == classes && prior.iter().all(|row| row.len() == MAX_ALLOC + 1);
        assert!(shaped, "a prior is a runtime_table");
    }

    // Requested-allocation choices and the mean per-job work, used to
    // calibrate load-based arrival specs and autoscale watermarks.
    let widest = MAX_ALLOC.min(cfg.servers);
    let req_choices: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&n| n <= widest).collect();
    let (mut mean_secs, mut mean_work) = (0.0f64, 0.0f64);
    for row in &expected {
        for &n in &req_choices {
            mean_secs += row[n];
            mean_work += row[n] * n as f64;
        }
    }
    let pairs = (classes * req_choices.len()) as f64;
    mean_secs /= pairs;
    mean_work /= pairs;

    let per_rho = cfg.servers as f64 / mean_work;
    let arrivals = match cfg.arrivals {
        ArrivalSpec::PoissonLoad { rho } => ArrivalProcess::Poisson { rate: rho * per_rho },
        ArrivalSpec::BurstLoad { rho_base, rho_burst, period_runtimes, burst_fraction } => {
            let period = period_runtimes * mean_secs;
            ArrivalProcess::Burst {
                base_rate: rho_base * per_rho,
                burst_rate: rho_burst * per_rho,
                period,
                burst_len: burst_fraction * period,
            }
        }
    };

    // Deterministic job generation from one seeded stream.
    let mut rng = Rng::new(cfg.seed);
    let submit_times = arrivals.generate(cfg.jobs, &mut rng);
    let horizon_est = submit_times.last().copied().unwrap_or(0.0).max(1e-9);
    let mut jobs = Vec::with_capacity(cfg.jobs);
    for &submit in &submit_times {
        let class = rng.below(classes);
        let servers = *rng.pick(&req_choices);
        let deadline = if rng.chance(cfg.deadline_fraction) {
            let slack = rng.uniform(DEADLINE_SLACK.0, DEADLINE_SLACK.1) as f64;
            submit + slack * expected[class][servers]
        } else {
            f64::INFINITY
        };
        let noise = rng.lognormal_factor(NOISE_SIGMA as f32) as f64;
        jobs.push(JobSpec {
            class: class as u32,
            servers: servers as u32,
            submit,
            deadline,
            noise,
        });
    }

    // Resolve shifts against the arrival horizon, sorted by time.
    let mut shift_times: Vec<(f64, f64)> = cfg
        .shifts
        .iter()
        .map(|s| (s.at_fraction * horizon_est, s.factor))
        .collect();
    shift_times.sort_by(|a, b| a.0.total_cmp(&b.0));
    let first_shift = shift_times.first().map(|&(t, _)| t);
    let shift_factor = |t: f64| -> f64 {
        shift_times.iter().take_while(|&&(at, _)| t >= at).map(|&(_, f)| f).product()
    };

    // Bootstrap both predictors on pre-shift observations — the caller's
    // predicted table, or noisy measurements — then freeze one: the
    // fit-once baseline the accuracy comparison is against.
    let mut boot_rng = Rng::new(cfg.seed ^ 0xB007_5EED);
    let mut boot = Vec::with_capacity(classes * MAX_ALLOC * cfg.pretrain_per_pair);
    for (c, row) in expected.iter().enumerate() {
        for (n, &exp_secs) in row.iter().enumerate().skip(1) {
            if let Some(prior) = &cfg.prior {
                boot.push((c, n, prior[c][n]));
                continue;
            }
            for _ in 0..cfg.pretrain_per_pair {
                let secs = exp_secs * boot_rng.lognormal_factor(NOISE_SIGMA as f32) as f64;
                boot.push((c, n, secs));
            }
        }
    }
    let mut live = LivePredictor::new(classes);
    live.pretrain(&boot);
    let frozen = live.clone(); // the fit-once baseline: never fed

    // ---- Event loop state ----
    let n_jobs = jobs.len();
    let mut waiting_fifo: VecDeque<u32> = VecDeque::new();
    let mut waiting_heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut finish_heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut start = vec![f64::NAN; n_jobs];
    let mut finish = vec![f64::NAN; n_jobs];
    let mut alloc = vec![0u32; n_jobs];
    let mut pred_online = vec![0.0f64; n_jobs];
    let mut pred_frozen = vec![0.0f64; n_jobs];
    let mut actual = vec![0.0f64; n_jobs];
    let mut acc_set = vec![ACC_PRE; n_jobs];
    let mut enq_pred = vec![0.0f64; n_jobs];
    let mut waits: Vec<f64> = Vec::with_capacity(n_jobs);

    let elastic = cfg.policy == PolicyKind::AutoscalePredicted;
    let mut capacity = if elastic {
        cfg.servers.clamp(AUTOSCALE_MIN, AUTOSCALE_MAX)
    } else {
        cfg.servers
    };
    let mut in_use = 0usize;
    let mut backlog_pred = 0.0f64;
    let mut busy_integral = 0.0f64;
    let mut capacity_integral = 0.0f64;
    let mut now = 0.0f64;
    let mut ptr = 0usize;
    let mut completed = 0u64;
    let mut post_launches = 0u64;
    let mut deadlines_total = 0u64;
    let mut deadlines_met = 0u64;
    let mut peak_queue = 0usize;
    let mut peak_capacity = capacity;
    let mut drift: Vec<DriftRecord> = Vec::new();

    // Accuracy accumulators.
    let buckets = cfg.accuracy_buckets.max(1);
    let bucket_width = horizon_est / buckets as f64;
    let mut bucket_online = vec![0.0f64; buckets];
    let mut bucket_frozen = vec![0.0f64; buckets];
    let mut bucket_jobs = vec![0u64; buckets];
    let mut sums = [[0.0f64; 2]; 3]; // [acc_set][online|frozen]
    let mut counts = [0u64; 3];

    let uses_heap =
        matches!(cfg.policy, PolicyKind::SjfPredicted | PolicyKind::DeadlineAware);

    macro_rules! queue_len {
        () => {
            if uses_heap { waiting_heap.len() } else { waiting_fifo.len() }
        };
    }

    loop {
        let next_arrival = if ptr < n_jobs { jobs[ptr].submit } else { f64::INFINITY };
        let next_finish =
            finish_heap.peek().map_or(f64::INFINITY, |Reverse((b, _))| f64::from_bits(*b));
        let t = next_arrival.min(next_finish);
        if !t.is_finite() {
            break;
        }
        if let Some(h) = cfg.horizon {
            if t > h {
                break;
            }
        }
        busy_integral += in_use as f64 * (t - now);
        capacity_integral += capacity as f64 * (t - now);
        now = t;

        if next_finish <= next_arrival {
            // Drain every completion at this instant.
            while let Some(&Reverse((b, id))) = finish_heap.peek() {
                if f64::from_bits(b) > now {
                    break;
                }
                finish_heap.pop();
                let id = id as usize;
                in_use -= alloc[id] as usize;
                completed += 1;
                let a = actual[id];
                if jobs[id].deadline.is_finite() {
                    deadlines_total += 1;
                    if finish[id] <= jobs[id].deadline {
                        deadlines_met += 1;
                    }
                }
                // Shadow-evaluate both predictors, then feed the live one.
                let online_err = (pred_online[id] / a - 1.0).abs();
                let frozen_err = (pred_frozen[id] / a - 1.0).abs();
                let set = acc_set[id] as usize;
                sums[set][0] += online_err;
                sums[set][1] += frozen_err;
                counts[set] += 1;
                let bi = ((start[id] / bucket_width) as usize).min(buckets - 1);
                bucket_online[bi] += online_err;
                bucket_frozen[bi] += frozen_err;
                bucket_jobs[bi] += 1;
                if let Some(e) = live.observe(jobs[id].class as usize, alloc[id] as usize, a) {
                    drift.push(DriftRecord { time: now, event: e });
                }
            }
        } else {
            // One arrival (arrival times are continuous, ties vanishingly
            // rare — and handled correctly by re-entering the loop).
            let id = ptr as u32;
            let j = &jobs[ptr];
            ptr += 1;
            match cfg.policy {
                PolicyKind::Fifo | PolicyKind::AutoscalePredicted => {
                    waiting_fifo.push_back(id);
                }
                PolicyKind::SjfPredicted => {
                    let p = live.predict_secs(j.class as usize, j.servers as usize);
                    enq_pred[id as usize] = p;
                    waiting_heap.push(Reverse((p.to_bits(), id)));
                }
                PolicyKind::DeadlineAware => {
                    waiting_heap.push(Reverse((j.deadline.to_bits(), id)));
                }
            }
            if elastic {
                backlog_pred += live.predict_secs(j.class as usize, j.servers as usize);
            }
            peak_queue = peak_queue.max(queue_len!());
        }

        if elastic {
            let per_server = backlog_pred / capacity.max(1) as f64;
            if per_server > AUTOSCALE_HIGH * mean_secs && capacity < AUTOSCALE_MAX {
                capacity = (capacity + AUTOSCALE_STEP).min(AUTOSCALE_MAX);
                peak_capacity = peak_capacity.max(capacity);
            } else if per_server < AUTOSCALE_LOW * mean_secs
                && capacity > AUTOSCALE_MIN.max(in_use)
            {
                capacity =
                    (capacity - AUTOSCALE_STEP.min(capacity)).max(AUTOSCALE_MIN).max(in_use);
            }
        }

        // ---- Launch phase ----
        let mut launch = |id: u32, servers: usize, now: f64| {
            let id = id as usize;
            let j = &jobs[id];
            let c = j.class as usize;
            debug_assert!(now >= j.submit, "job {id} launched at {now} before its arrival");
            let runtime = expected[c][servers] * shift_factor(now) * j.noise;
            start[id] = now;
            finish[id] = now + runtime;
            alloc[id] = servers as u32;
            actual[id] = runtime;
            pred_online[id] = live.predict_secs(c, servers);
            pred_frozen[id] = frozen.predict_secs(c, servers);
            acc_set[id] = match first_shift {
                Some(at) if now >= at => {
                    post_launches += 1;
                    if post_launches <= cfg.post_shift_skip as u64 {
                        ACC_POST_SKIP
                    } else {
                        ACC_POST
                    }
                }
                _ => ACC_PRE,
            };
            waits.push(now - j.submit);
            finish_heap.push(Reverse((finish[id].to_bits(), id as u32)));
        };

        match cfg.policy {
            PolicyKind::Fifo | PolicyKind::AutoscalePredicted => {
                while let Some(&id) = waiting_fifo.front() {
                    let need = jobs[id as usize].servers as usize;
                    if in_use + need > capacity {
                        break;
                    }
                    waiting_fifo.pop_front();
                    in_use += need;
                    if elastic {
                        backlog_pred = (backlog_pred
                            - live.predict_secs(
                                jobs[id as usize].class as usize,
                                jobs[id as usize].servers as usize,
                            ))
                        .max(0.0);
                    }
                    launch(id, need, now);
                }
            }
            PolicyKind::SjfPredicted | PolicyKind::DeadlineAware => {
                let mut skipped: Vec<Reverse<(u64, u32)>> = Vec::new();
                let mut scanned = 0usize;
                while scanned < BACKFILL_SCAN && in_use < capacity {
                    let Some(Reverse((key, id))) = waiting_heap.pop() else { break };
                    let j = &jobs[id as usize];
                    let need = if cfg.policy == PolicyKind::DeadlineAware {
                        right_size(&live, j, now, widest)
                    } else {
                        j.servers as usize
                    };
                    if in_use + need <= capacity {
                        in_use += need;
                        launch(id, need, now);
                    } else {
                        skipped.push(Reverse((key, id)));
                        scanned += 1;
                    }
                }
                for entry in skipped {
                    waiting_heap.push(entry);
                }
            }
        }
        debug_assert!(in_use <= capacity, "{in_use} servers busy in a pool of {capacity}");
    }

    // ---- Metrics assembly ----
    let in_queue = queue_len!() as u64;
    let in_flight = finish_heap.len() as u64;
    let makespan = finish
        .iter()
        .filter(|f| f.is_finite())
        .fold(0.0f64, |m, &f| if f <= now || cfg.horizon.is_none() { m.max(f) } else { m });
    let mean_wait = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    let mut sorted_waits = waits.clone();
    sorted_waits.sort_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if sorted_waits.is_empty() {
            return 0.0;
        }
        let idx = ((q * sorted_waits.len() as f64).ceil() as usize).max(1) - 1;
        sorted_waits[idx.min(sorted_waits.len() - 1)]
    };
    let utilization = if capacity_integral > 0.0 { busy_integral / capacity_integral } else { 0.0 };

    let mean_of = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    let pre_online = mean_of(sums[ACC_PRE as usize][0], counts[ACC_PRE as usize]);
    let pre_frozen = mean_of(sums[ACC_PRE as usize][1], counts[ACC_PRE as usize]);
    let post_online = mean_of(sums[ACC_POST as usize][0], counts[ACC_POST as usize]);
    let post_frozen = mean_of(sums[ACC_POST as usize][1], counts[ACC_POST as usize]);
    let accuracy = AccuracySummary {
        pre_shift_online: pre_online,
        pre_shift_frozen: pre_frozen,
        post_shift_online: post_online,
        post_shift_frozen: post_frozen,
        recovery_ratio: if pre_online > 0.0 { post_online / pre_online } else { 0.0 },
        frozen_vs_online: if post_online > 0.0 { post_frozen / post_online } else { 0.0 },
        curve: (0..buckets)
            .map(|i| AccuracyBucket {
                t_end: bucket_width * (i + 1) as f64,
                online_err: mean_of(bucket_online[i], bucket_jobs[i]),
                frozen_err: mean_of(bucket_frozen[i], bucket_jobs[i]),
                jobs: bucket_jobs[i],
            })
            .collect(),
    };

    EngineTrace {
        metrics: EngineMetrics {
            submitted: ptr as u64,
            completed,
            in_queue,
            in_flight,
            deadlines_total,
            deadlines_met,
            deadlines_missed: deadlines_total - deadlines_met,
            makespan,
            mean_wait,
            p50_wait: pct(0.50),
            p95_wait: pct(0.95),
            p99_wait: pct(0.99),
            utilization,
            server_seconds: busy_integral,
            capacity_seconds: capacity_integral,
            peak_queue: peak_queue as u64,
            peak_capacity: peak_capacity as u64,
            drift_events: live.drift_events(),
            refits: live.refits(),
            updates: live.observed(),
        },
        accuracy,
        drift,
        shift_times: shift_times.iter().map(|&(t, _)| t).collect(),
    }
}

/// Smallest allocation the live predictor expects to meet the deadline;
/// falls back to the requested allocation (no SLO) or the widest (SLO
/// already hopeless — throw width at it).
fn right_size(live: &LivePredictor, j: &JobSpec, now: f64, widest: usize) -> usize {
    if !j.deadline.is_finite() {
        return j.servers as usize;
    }
    let slack = j.deadline - now;
    for n in 1..=widest {
        if live.predict_secs(j.class as usize, n) <= slack {
            return n;
        }
    }
    widest
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [PolicyKind; 4] = [
        PolicyKind::Fifo,
        PolicyKind::SjfPredicted,
        PolicyKind::DeadlineAware,
        PolicyKind::AutoscalePredicted,
    ];

    fn quick(policy: PolicyKind) -> EngineConfig {
        let mut cfg = EngineConfig::new(policy, 3000, 17);
        cfg.servers = 32;
        cfg.pretrain_per_pair = 2;
        cfg
    }

    fn bits(m: &EngineMetrics) -> Vec<u64> {
        let mut v: Vec<u64> = m.float_fields().iter().map(|(_, f)| f.to_bits()).collect();
        v.extend(m.int_fields().iter().map(|&(_, i)| i));
        v
    }

    #[test]
    fn all_policies_complete_every_job() {
        for policy in POLICIES {
            let t = run_engine(&quick(policy));
            assert_eq!(t.metrics.completed, 3000, "{}", policy.name());
            assert_eq!(t.metrics.in_queue, 0);
            assert_eq!(t.metrics.in_flight, 0);
            assert!(t.metrics.utilization > 0.0 && t.metrics.utilization <= 1.0);
        }
    }

    #[test]
    fn fixed_seed_is_bit_deterministic() {
        let cfg = quick(PolicyKind::SjfPredicted);
        let a = run_engine(&cfg);
        let b = run_engine(&cfg);
        assert_eq!(bits(&a.metrics), bits(&b.metrics));
    }

    #[test]
    fn horizon_conserves_jobs() {
        let mut cfg = quick(PolicyKind::Fifo);
        let full = run_engine(&cfg);
        cfg.horizon = Some(full.metrics.makespan * 0.4);
        let t = run_engine(&cfg);
        let m = &t.metrics;
        assert!(m.in_queue + m.in_flight > 0, "horizon should cut mid-run");
        assert_eq!(m.completed + m.in_queue + m.in_flight, m.submitted);
    }

    #[test]
    fn shift_fires_drift_exactly_once_and_online_recovers() {
        let mut cfg = EngineConfig::new(PolicyKind::Fifo, 20_000, 23);
        cfg.servers = 32;
        cfg.arrivals = ArrivalSpec::PoissonLoad { rho: 0.45 };
        cfg.shifts = vec![CostShift { at_fraction: 0.5, factor: 2.5 }];
        cfg.post_shift_skip = 500;
        let t = run_engine(&cfg);
        assert_eq!(t.drift.len(), 1, "one shift → one drift fire: {:?}", t.drift);
        assert_eq!(t.metrics.drift_events, 1);
        assert!(t.metrics.refits >= 1);
        let a = &t.accuracy;
        assert!(a.recovery_ratio <= 1.5, "online failed to recover: {a:?}");
        assert!(a.frozen_vs_online >= 3.0, "frozen not degraded enough: {a:?}");
    }

    #[test]
    fn prediction_driven_policies_beat_fifo_in_bursts() {
        let mk = |policy| {
            let mut cfg = EngineConfig::new(policy, 12_000, 31);
            cfg.servers = 32;
            cfg.arrivals = ArrivalSpec::BurstLoad {
                rho_base: 0.5,
                rho_burst: 2.5,
                period_runtimes: 4.0,
                burst_fraction: 0.25,
            };
            cfg.deadline_fraction = 0.7;
            run_engine(&cfg).metrics
        };
        let fifo = mk(PolicyKind::Fifo);
        let aware = mk(PolicyKind::DeadlineAware);
        assert!(
            aware.missed_pct() < fifo.missed_pct(),
            "deadline-aware {:.2}% vs fifo {:.2}%",
            aware.missed_pct(),
            fifo.missed_pct()
        );
    }

    /// The simulator's own expected seconds as a prior: the table a
    /// perfect predictor would bootstrap the engine on.
    fn oracle_prior() -> Vec<Vec<f64>> {
        let sim = Simulator::new(SimConfig::default());
        runtime_table(|w, c| sim.expected_time(w, c).unwrap())
    }

    #[test]
    fn every_policy_drains_on_a_predicted_prior() {
        for policy in POLICIES {
            let mut cfg = quick(policy);
            cfg.prior = Some(oracle_prior());
            let m = run_engine(&cfg).metrics;
            assert_eq!(m.completed, 3000, "{}", policy.name());
            assert_eq!((m.in_queue, m.in_flight), (0, 0), "{}", policy.name());
            assert!(m.makespan > 0.0);
        }
    }

    #[test]
    fn no_job_starts_before_it_arrives() {
        for policy in POLICIES {
            // A lone job on an idle pool launches the instant it arrives.
            let lone = run_engine(&EngineConfig::new(policy, 1, 5)).metrics;
            assert_eq!(lone.completed, 1, "{}", policy.name());
            assert_eq!((lone.mean_wait, lone.p99_wait), (0.0, 0.0), "{}", policy.name());
            // Cut before the first arrival, a run has launched nothing.
            let mut cfg = quick(policy);
            cfg.horizon = Some(0.0);
            let m = run_engine(&cfg).metrics;
            assert_eq!((m.submitted, m.completed, m.in_flight), (0, 0, 0), "{}", policy.name());
            assert_eq!(m.server_seconds, 0.0, "{}", policy.name());
        }
    }

    #[test]
    fn deadline_aware_on_an_oracle_prior_beats_fifo() {
        let mk = |policy| {
            let mut cfg = quick(policy);
            cfg.arrivals = ArrivalSpec::BurstLoad {
                rho_base: 0.5,
                rho_burst: 2.5,
                period_runtimes: 4.0,
                burst_fraction: 0.25,
            };
            cfg.deadline_fraction = 0.7;
            cfg.prior = Some(oracle_prior());
            run_engine(&cfg).metrics
        };
        let fifo = mk(PolicyKind::Fifo);
        let aware = mk(PolicyKind::DeadlineAware);
        assert!(
            aware.deadlines_met > fifo.deadlines_met,
            "deadline-aware met {}/{} vs fifo {}/{}",
            aware.deadlines_met,
            aware.deadlines_total,
            fifo.deadlines_met,
            fifo.deadlines_total
        );
        // Right-sizing also bills fewer server-seconds than the requested
        // allocations.
        assert!(aware.server_seconds < fifo.server_seconds, "{aware:?} vs {fifo:?}");
    }
}
