//! Property tests over schedule validity: whatever the policy and
//! configuration, an engine run must be *physically consistent*.
//! Seeded loops on the in-tree [`Rng`]: a failure names the seed that
//! replays it (see [`for_each_case`]). That no launch overcommits the pool
//! or starts a job before its arrival is the engine's own `debug_assert!`,
//! live in every debug run of these loops.

use pddl_ddlsim::{SimConfig, Simulator};
use pddl_sched::{run_engine, runtime_table, ArrivalSpec, CostShift, EngineConfig, PolicyKind};
use pddl_tensor::rng::for_each_case;
use pddl_tensor::Rng;

/// Cases per property.
const CASES: u64 = 12;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fifo,
    PolicyKind::SjfPredicted,
    PolicyKind::DeadlineAware,
    PolicyKind::AutoscalePredicted,
];

/// A small random configuration: few jobs, a pool from 1 to 40 servers
/// (below, at and above the widest allocation), either arrival shape, and
/// sometimes a shift or a bootstrap prior.
fn random_config(rng: &mut Rng, policy: PolicyKind) -> EngineConfig {
    let mut cfg = EngineConfig::new(policy, rng.range(1, 300), rng.next_u64());
    cfg.servers = rng.range(1, 41);
    cfg.deadline_fraction = rng.uniform(0.0, 1.0) as f64;
    cfg.pretrain_per_pair = rng.range(1, 4);
    let rho = rng.uniform(0.2, 1.5) as f64;
    cfg.arrivals = if rng.chance(0.5) {
        ArrivalSpec::PoissonLoad { rho }
    } else {
        ArrivalSpec::BurstLoad {
            rho_base: rho,
            rho_burst: 3.0 * rho,
            period_runtimes: 4.0,
            burst_fraction: rng.uniform(0.1, 0.5) as f64,
        }
    };
    if rng.chance(0.5) {
        cfg.shifts = vec![CostShift { at_fraction: rng.uniform(0.2, 0.8) as f64, factor: 2.0 }];
    }
    if rng.chance(0.25) {
        let skew = rng.uniform(0.5, 2.0) as f64;
        let sim = Simulator::new(SimConfig::default());
        cfg.prior = Some(runtime_table(|w, c| skew * sim.expected_time(w, c).unwrap()));
    }
    cfg
}

/// Every job drains, the pool is never billed for more than it had, and
/// waits are ordered and non-negative.
#[test]
fn schedules_are_physically_consistent() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        for policy in POLICIES {
            let cfg = random_config(&mut Rng::new(seed), policy);
            let m = run_engine(&cfg).metrics;
            let what = format!("{} on {} servers", policy.name(), cfg.servers);
            assert_eq!(m.completed, m.submitted, "{what}: lost jobs");
            assert_eq!(m.submitted, cfg.jobs as u64, "{what}");
            assert!(m.server_seconds <= m.capacity_seconds, "{what}: {m:?}");
            let waits = [0.0, m.p50_wait, m.p95_wait, m.p99_wait];
            assert!(waits.windows(2).all(|w| w[0] <= w[1]), "{what}: waits {waits:?}");
            assert!(m.mean_wait >= 0.0, "{what}: mean wait {}", m.mean_wait);
        }
    });
}

/// Lower bound: under any policy, the work done fits in makespan × the
/// largest pool the run ever had.
#[test]
fn makespan_never_beats_total_work_over_capacity() {
    for_each_case(CASES, |rng| {
        let seed = rng.next_u64();
        for policy in POLICIES {
            let cfg = random_config(&mut Rng::new(seed), policy);
            let m = run_engine(&cfg).metrics;
            let bound = m.makespan * m.peak_capacity as f64 * (1.0 + 1e-12);
            assert!(
                bound >= m.server_seconds,
                "{} on {} servers: makespan {} × capacity {} below work {}",
                policy.name(),
                cfg.servers,
                m.makespan,
                m.peak_capacity,
                m.server_seconds
            );
        }
    });
}
