//! Property tests over schedule validity: whatever the policy and
//! estimator, the produced schedule must be *physically consistent*.
//! Seeded loops on the in-tree [`Rng`]: a failure names the seed that
//! replays it (see [`for_each_case`]).

use pddl_cluster::ServerClass;
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use pddl_sched::policy::Policy;
use pddl_sched::{
    DeadlineAware, FcfsFixed, NaiveEstimator, QueueSimulator, SchedJob, SpjfBackfill,
};
use pddl_tensor::rng::for_each_case;
use pddl_tensor::Rng;

/// Cases per property.
const CASES: u64 = 12;

const MODELS: [&str; 5] = ["resnet18", "vgg16", "squeezenet1_1", "alexnet", "mobilenet_v2"];

fn random_jobs(n: usize, seed: u64) -> Vec<SchedJob> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let model = MODELS[rng.below(MODELS.len())];
            let submit = rng.uniform(0.0, 60.0) as f64;
            let mut j = SchedJob::new(i, Workload::new(model, "cifar10", 128, 1), submit);
            if rng.chance(0.5) {
                j = j.with_deadline(submit + rng.uniform(30.0, 400.0) as f64);
            }
            let min = 1 + rng.below(3);
            j.with_server_range(min, min + rng.below(6))
        })
        .collect()
}

/// Checks physical consistency of a trace against its job set and capacity.
fn assert_valid(trace: &pddl_sched::ScheduleTrace, jobs: &[SchedJob], capacity: usize) {
    assert_eq!(trace.outcomes.len(), jobs.len(), "lost jobs");
    for o in &trace.outcomes {
        let job = jobs.iter().find(|j| j.id == o.id).unwrap();
        assert!(o.start + 1e-9 >= job.submit_time, "job {} started early", o.id);
        assert!(o.finish > o.start, "non-positive runtime");
        assert!(o.servers >= 1 && o.servers <= job.max_servers.max(1));
    }
    // Capacity: at every start event, the sum of overlapping allocations
    // must not exceed the pool.
    for o in &trace.outcomes {
        let t = o.start + 1e-6;
        let in_use: usize = trace
            .outcomes
            .iter()
            .filter(|x| x.start <= t && t < x.finish)
            .map(|x| x.servers)
            .sum();
        assert!(
            in_use <= capacity,
            "overcommit at t={t}: {in_use} > {capacity}"
        );
    }
}

#[test]
fn schedules_are_physically_consistent() {
    for_each_case(CASES, |rng| {
        let (seed, n, capacity) = (rng.next_u64(), rng.range(1, 7), rng.range(4, 16));
        let sim = Simulator::new(SimConfig::default());
        let q = QueueSimulator::new(capacity, ServerClass::GpuP100, &sim);
        let jobs = random_jobs(n, seed);
        let est = NaiveEstimator { assumed_secs: 60.0 };
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FcfsFixed { servers_per_job: 4 }),
            Box::new(DeadlineAware),
            Box::new(SpjfBackfill),
        ];
        for p in policies {
            let trace = q.run(&jobs, p.as_ref(), &est);
            assert_valid(&trace, &jobs, capacity);
        }
    });
}

#[test]
fn makespan_never_beats_total_work_over_capacity() {
    for_each_case(CASES, |rng| {
        let (seed, n) = (rng.next_u64(), rng.range(2, 6));
        // Lower bound: makespan ≥ Σ(serial work)/capacity under any policy.
        let capacity = 8;
        let sim = Simulator::new(SimConfig::default());
        let q = QueueSimulator::new(capacity, ServerClass::GpuP100, &sim);
        let jobs = random_jobs(n, seed);
        let est = NaiveEstimator { assumed_secs: 60.0 };
        let trace = q.run(&jobs, &SpjfBackfill, &est);
        let total_server_secs = trace.metrics.server_seconds;
        assert!(
            trace.metrics.makespan + 1e-6 >= total_server_secs / capacity as f64 * 0.99,
            "makespan {} below work bound {}",
            trace.metrics.makespan,
            total_server_secs / capacity as f64
        );
    });
}
