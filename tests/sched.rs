//! The sched tier: the continual-refit loop under the large-scale
//! discrete-event engine, pinned end to end. A `pddl-sched` test target.
//!
//! Four contracts, each load-bearing for the scheduling tables that
//! `pddl-experiments exp_sched_policies` prints:
//!
//! 1. **Determinism** — a fixed `EngineConfig` yields bit-identical
//!    metrics across repeat runs *and* across concurrent OS threads (the
//!    engine shares telemetry counters process-wide, so this catches any
//!    accidental cross-run coupling).
//! 2. **Drift discipline** — one mid-run cost shift fires Page–Hinkley
//!    exactly once, two shifts exactly twice, and every fire lands at or
//!    after its shift time. A refit that over- or under-corrects shows up
//!    here as an extra (or missing) fire.
//! 3. **Online = batch** — the Sherman–Morrison path tracks a cold
//!    `batch_ridge` solve of the same window to ≤1e-8 relative error, so
//!    the incremental model is the closed-form model, not an
//!    approximation of it.
//! 4. **Conservation** — truncating a run mid-flight with `horizon` loses
//!    no jobs: `completed + in_queue + in_flight == submitted` for every
//!    policy.
//!
//! On top of those, two golden fixtures pin full engine traces (three
//! policies each, stable and mid-run-shift scenarios) bit-for-bit, with
//! `f64` bit patterns stored as decimal strings and compared byte for
//! byte — no float parsing anywhere, so every last ulp is covered. On an
//! intentional engine change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test --test sched` and review the diff.

use pddl_regress::{batch_ridge, OnlineRidge};
use pddl_sched::{
    run_engine, ArrivalSpec, CostShift, EngineConfig, EngineTrace, PolicyKind,
};
use pddl_tensor::Rng;
use std::path::PathBuf;

/// The three policies the golden fixtures pin (autoscale is exercised by
/// the engine's own tests and `exp_sched_policies`; keeping it out of
/// the fixtures halves regeneration churn when tuning autoscale knobs).
const GOLDEN_POLICIES: [PolicyKind; 3] =
    [PolicyKind::Fifo, PolicyKind::SjfPredicted, PolicyKind::DeadlineAware];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// Every numeric outcome of one run as exact bit patterns: metric floats,
/// metric ints, the accuracy summary, per-bucket curve points, drift-fire
/// times, and resolved shift times.
fn render_trace(policy: PolicyKind, t: &EngineTrace) -> String {
    let mut s = String::new();
    let b = |v: f64| v.to_bits().to_string();
    s.push_str(&format!("    {{\n      \"policy\": \"{}\",\n", policy.name()));
    s.push_str("      \"ints\": {");
    let ints = t.metrics.int_fields();
    for (i, (name, v)) in ints.iter().enumerate() {
        let sep = if i + 1 < ints.len() { ", " } else { "" };
        s.push_str(&format!("\"{name}\": {v}{sep}"));
    }
    s.push_str("},\n      \"float_bits\": {");
    let floats = t.metrics.float_fields();
    for (i, (name, v)) in floats.iter().enumerate() {
        let sep = if i + 1 < floats.len() { ", " } else { "" };
        s.push_str(&format!("\"{name}\": \"{}\"{sep}", b(*v)));
    }
    s.push_str("},\n      \"accuracy_bits\": {");
    let a = &t.accuracy;
    for (i, (name, v)) in [
        ("pre_shift_online", a.pre_shift_online),
        ("pre_shift_frozen", a.pre_shift_frozen),
        ("post_shift_online", a.post_shift_online),
        ("post_shift_frozen", a.post_shift_frozen),
        ("recovery_ratio", a.recovery_ratio),
        ("frozen_vs_online", a.frozen_vs_online),
    ]
    .iter()
    .enumerate()
    {
        let sep = if i < 5 { ", " } else { "" };
        s.push_str(&format!("\"{name}\": \"{}\"{sep}", b(*v)));
    }
    s.push_str("},\n      \"curve_bits\": [");
    for (i, p) in a.curve.iter().enumerate() {
        let sep = if i + 1 < a.curve.len() { ", " } else { "" };
        s.push_str(&format!(
            "[\"{}\", \"{}\", \"{}\", {}]{sep}",
            b(p.t_end),
            b(p.online_err),
            b(p.frozen_err),
            p.jobs
        ));
    }
    s.push_str("],\n      \"drift_time_bits\": [");
    for (i, d) in t.drift.iter().enumerate() {
        let sep = if i + 1 < t.drift.len() { ", " } else { "" };
        s.push_str(&format!("\"{}\"{sep}", b(d.time)));
    }
    s.push_str("],\n      \"shift_time_bits\": [");
    for (i, st) in t.shift_times.iter().enumerate() {
        let sep = if i + 1 < t.shift_times.len() { ", " } else { "" };
        s.push_str(&format!("\"{}\"{sep}", b(*st)));
    }
    s.push_str("]\n    }");
    s
}

fn golden_traces(cfg_for: impl Fn(PolicyKind) -> EngineConfig) -> Vec<(PolicyKind, EngineTrace)> {
    GOLDEN_POLICIES.iter().map(|&p| (p, run_engine(&cfg_for(p)))).collect()
}

fn render_fixture(name: &str, traces: &[(PolicyKind, EngineTrace)]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"fixture\": \"{name}\",\n  \"version\": 1,\n  \"policies\": [\n"
    ));
    for (i, (policy, t)) in traces.iter().enumerate() {
        s.push_str(&render_trace(*policy, t));
        s.push_str(if i + 1 < traces.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Byte-for-byte fixture check with `PDDL_REGEN_GOLDEN=1` regeneration.
fn check_golden(name: &str, live: &str) {
    let path = fixtures_dir().join(format!("{name}.json"));
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(fixtures_dir()).expect("create fixtures dir");
        std::fs::write(&path, live).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}; regenerate with PDDL_REGEN_GOLDEN=1", path.display()));
    assert_eq!(
        stored, live,
        "{name} drifted from its golden fixture; if the engine change is \
         intentional, regenerate with PDDL_REGEN_GOLDEN=1 and review the diff"
    );
}

/// The stable golden scenario: moderate Poisson load, no shift.
fn stable_cfg(policy: PolicyKind) -> EngineConfig {
    let mut cfg = EngineConfig::new(policy, 3000, 17);
    cfg.servers = 32;
    cfg.pretrain_per_pair = 2;
    cfg.arrivals = ArrivalSpec::PoissonLoad { rho: 0.6 };
    cfg.accuracy_buckets = 8;
    cfg
}

/// The shift golden scenario: a 2.5× cost-model shift at the midpoint.
fn shift_cfg(policy: PolicyKind) -> EngineConfig {
    let mut cfg = EngineConfig::new(policy, 12_000, 23);
    cfg.servers = 32;
    cfg.arrivals = ArrivalSpec::PoissonLoad { rho: 0.45 };
    cfg.shifts = vec![CostShift { at_fraction: 0.5, factor: 2.5 }];
    cfg.post_shift_skip = 400;
    cfg.accuracy_buckets = 8;
    cfg
}

// ---------------------------------------------------------------------------
// 1. Determinism
// ---------------------------------------------------------------------------

#[test]
fn metrics_are_bit_identical_across_runs_and_threads() {
    let cfg = || {
        let mut c = EngineConfig::new(PolicyKind::SjfPredicted, 4000, 77);
        c.servers = 32;
        c.shifts = vec![CostShift { at_fraction: 0.6, factor: 2.0 }];
        c.post_shift_skip = 300;
        c
    };
    let reference = render_trace(PolicyKind::SjfPredicted, &run_engine(&cfg()));
    // Repeat run in this thread.
    assert_eq!(
        reference,
        render_trace(PolicyKind::SjfPredicted, &run_engine(&cfg())),
        "repeat run diverged"
    );
    // Four concurrent runs: telemetry counters are process-global, so this
    // catches any state the engine accidentally shares across instances.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let c = cfg();
            std::thread::spawn(move || render_trace(PolicyKind::SjfPredicted, &run_engine(&c)))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(reference, h.join().expect("engine thread"), "thread {i} diverged");
    }
}

// ---------------------------------------------------------------------------
// 2. Drift discipline
// ---------------------------------------------------------------------------

#[test]
fn drift_fires_exactly_once_per_shift() {
    // One shift → one fire, at or after the shift time.
    let mut cfg = EngineConfig::new(PolicyKind::Fifo, 20_000, 91);
    cfg.servers = 32;
    cfg.arrivals = ArrivalSpec::PoissonLoad { rho: 0.45 };
    cfg.shifts = vec![CostShift { at_fraction: 0.5, factor: 2.5 }];
    cfg.post_shift_skip = 500;
    let one = run_engine(&cfg);
    assert_eq!(one.drift.len(), 1, "one shift → one fire: {:?}", one.drift);
    assert_eq!(one.metrics.drift_events, 1);
    assert!(
        one.drift[0].time >= one.shift_times[0],
        "fire at {} precedes the shift at {}",
        one.drift[0].time,
        one.shift_times[0]
    );

    // Two well-separated shifts → exactly two fires, one after each.
    cfg.shifts = vec![
        CostShift { at_fraction: 0.35, factor: 2.5 },
        CostShift { at_fraction: 0.7, factor: 2.5 },
    ];
    let two = run_engine(&cfg);
    assert_eq!(two.drift.len(), 2, "two shifts → two fires: {:?}", two.drift);
    assert_eq!(two.metrics.drift_events, 2);
    assert!(two.drift[0].time >= two.shift_times[0]);
    assert!(two.drift[0].time < two.shift_times[1], "first fire must precede the second shift");
    assert!(two.drift[1].time >= two.shift_times[1]);
    // Each fire triggered a recovery refit.
    assert!(two.metrics.refits >= 2, "refits {}", two.metrics.refits);
}

// ---------------------------------------------------------------------------
// 3. Online = batch
// ---------------------------------------------------------------------------

#[test]
fn online_ridge_matches_batch_solve_within_1e8() {
    let lambda = 1e-3;
    let features = 6;
    let mut rng = Rng::new(0x5C_4ED);
    let mut online = OnlineRidge::new(features, lambda, 4096);
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for i in 0..400 {
        let x: Vec<f64> = (0..features).map(|_| rng.normal() as f64).collect();
        let y = x.iter().enumerate().map(|(j, v)| (j as f64 - 2.0) * v).sum::<f64>()
            + 0.1 * rng.normal() as f64;
        online.observe(&x, y);
        xs.push(x);
        ys.push(y);
        // Spot-check along the stream, not only at the end, so a drifting
        // rank-1 update cannot cancel back to the batch answer by luck.
        if (i + 1) % 100 == 0 {
            let batch = batch_ridge(&xs, &ys, lambda);
            let sm = online.coefficients();
            assert_eq!(sm.len(), batch.len());
            for (a, b) in sm.iter().zip(batch.iter()) {
                let scale = b.abs().max(1.0);
                assert!(
                    (a - b).abs() / scale <= 1e-8,
                    "after {} obs: SM {a} vs batch {b}",
                    i + 1
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Conservation under truncation
// ---------------------------------------------------------------------------

#[test]
fn truncated_horizon_conserves_jobs_under_every_policy() {
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::SjfPredicted,
        PolicyKind::DeadlineAware,
        PolicyKind::AutoscalePredicted,
    ] {
        let mut cfg = EngineConfig::new(policy, 3000, 41);
        cfg.servers = 32;
        cfg.pretrain_per_pair = 2;
        let full = run_engine(&cfg);
        cfg.horizon = Some(full.metrics.makespan * 0.4);
        let m = run_engine(&cfg).metrics;
        assert!(
            m.in_queue + m.in_flight > 0,
            "{}: horizon must cut mid-run to test anything",
            policy.name()
        );
        assert_eq!(
            m.completed + m.in_queue + m.in_flight,
            m.submitted,
            "{}: jobs leaked at the horizon",
            policy.name()
        );
        assert!(m.submitted <= 3000);
    }
}

// ---------------------------------------------------------------------------
// 5. Scale
// ---------------------------------------------------------------------------

#[test]
fn hundred_thousand_jobs_complete_with_sane_metrics() {
    let mut cfg = EngineConfig::new(PolicyKind::SjfPredicted, 100_000, 13);
    cfg.arrivals = ArrivalSpec::PoissonLoad { rho: 0.7 };
    let t = run_engine(&cfg);
    let m = &t.metrics;
    assert_eq!(m.completed, 100_000);
    assert_eq!(m.in_queue, 0);
    assert_eq!(m.in_flight, 0);
    assert!(m.utilization > 0.0 && m.utilization <= 1.0, "utilization {}", m.utilization);
    assert!(m.p50_wait <= m.p95_wait && m.p95_wait <= m.p99_wait);
    assert!(m.server_seconds <= m.capacity_seconds);
    // No shift configured → the detector must stay quiet over 10⁵ jobs.
    assert_eq!(m.drift_events, 0, "false drift fire at scale");
    assert_eq!(m.updates, 100_000, "every completion must update the live model");
}

// ---------------------------------------------------------------------------
// 6. Golden fixtures
// ---------------------------------------------------------------------------

#[test]
fn golden_stable_traces_match_fixture() {
    let traces = golden_traces(stable_cfg);
    // A stable scenario is only a useful pin if the loop stayed healthy.
    for (policy, t) in &traces {
        assert_eq!(t.drift.len(), 0, "{}: stable scenario must not fire", policy.name());
        assert_eq!(t.metrics.completed, 3000, "{}", policy.name());
    }
    check_golden("sched_trace_stable", &render_fixture("sched_trace_stable", &traces));
}

#[test]
fn golden_shift_traces_match_fixture() {
    let traces = golden_traces(shift_cfg);
    // The shift scenario is only a useful pin if the loop actually
    // engaged: every policy's first fire lands at the shift. FIFO and SJF
    // keep allocations stationary, so for them the shift is the *only*
    // fire; deadline-aware re-sizes allocations off its own predictions
    // after the shift makes the pre-shift-slack deadlines hopeless, and
    // the detector legitimately flags that policy-induced regime wander
    // too — the fixture pins its full fire list bit-for-bit instead.
    for (policy, t) in &traces {
        assert!(
            !t.drift.is_empty() && t.drift[0].time >= t.shift_times[0],
            "{}: first fire must land at the shift; shifts {:?}, fires {:?}",
            policy.name(),
            t.shift_times,
            t.drift
        );
        if matches!(policy, PolicyKind::Fifo | PolicyKind::SjfPredicted) {
            assert_eq!(t.drift.len(), 1, "{}: one shift → one fire", policy.name());
        }
    }
    check_golden("sched_trace_shift", &render_fixture("sched_trace_shift", &traces));
}
