//! Golden schema fixture for `BENCH_serve.json`.
//!
//! The serving benchmark report is the first point on the repository's
//! perf trajectory, so its *shape* — field names, nesting, units encoded
//! in the names, the telemetry block — is pinned here the same way the
//! simulator curves are pinned in `tests/golden_traces.rs`. Values are
//! free to change run over run; a renamed or dropped field fails this
//! test.
//!
//! Two documents are checked against `tests/fixtures/bench_serve_schema
//! .json`:
//!
//! 1. a freshly rendered sample [`ServeReport`] — catches code-side
//!    drift in `render()` even when no benchmark has been re-run, and
//! 2. the committed `BENCH_serve.json` baseline at the repository root
//!    (when present) — catches a stale baseline after an intentional
//!    schema change.
//!
//! On an intentional schema change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p pddl-bench --test bench_schema`
//! and review the fixture diff like any other code change. Fixtures are
//! parsed with `pddl_telemetry::JsonValue`.

use pddl_bench::report::{
    schema_paths, EmbedE2e, GemmCase, LatencySummary, PhaseReport, ServeReport, ShedReasons,
    StageSummary, TensorReport, TracingSummary, TrainE2e,
};
use pddl_telemetry::JsonValue;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_path() -> PathBuf {
    repo_root().join("tests/fixtures/bench_serve_schema.json")
}

fn tensor_fixture_path() -> PathBuf {
    repo_root().join("tests/fixtures/bench_tensor_schema.json")
}

/// A fully populated tensor report exercising every field the renderer
/// can emit (two gemm cases so array visiting is covered).
fn sample_tensor_report() -> TensorReport {
    TensorReport {
        threads: 1,
        reps: 7,
        kernel: "avx2+fma".into(),
        gemm: vec![
            GemmCase {
                m: 1,
                k: 32,
                n: 32,
                reference_us: 2.0,
                blocked_us: 0.4,
                pooled_us: 0.4,
                scalar_us: 0.9,
                speedup_blocked: 5.0,
                speedup_pooled: 5.0,
                speedup_simd: 2.25,
                gflops_blocked: 5.1,
            },
            GemmCase {
                m: 128,
                k: 128,
                n: 128,
                reference_us: 1200.0,
                blocked_us: 320.0,
                pooled_us: 300.0,
                scalar_us: 780.0,
                speedup_blocked: 3.8,
                speedup_pooled: 4.0,
                speedup_simd: 2.44,
                gflops_blocked: 13.1,
            },
        ],
        embed_graph: EmbedE2e {
            model: "resnet18".into(),
            nodes: 71,
            reference_us: 1300.0,
            batched_us: 1050.0,
            speedup: 1.24,
        },
        train_epoch: TrainE2e {
            num_graphs: 16,
            epochs: 2,
            total_us: 55_000.0,
            us_per_epoch: 27_500.0,
        },
        telemetry: vec![
            ("tensor.gemm_calls".into(), 140_000),
            ("tensor.gemm_flops".into(), 126_000_000),
        ],
    }
}

/// A fully populated report: both phase names, nonzero sheds/expiries,
/// and a telemetry block — exercising every field `render()` can emit.
fn sample_report() -> ServeReport {
    ServeReport {
        transport: "inproc".into(),
        workers: 2,
        queue_depth: 4,
        clients: 8,
        requests_per_client: 100,
        deadline_ms: 5000,
        retry_after_ms: 25,
        phases: vec![
            PhaseReport {
                name: "low_rate".into(),
                target_rps: 50.0,
                duration_secs: 2.0,
                requests: 800,
                completed: 800,
                shed: 0,
                shed_reasons: ShedReasons::default(),
                expired: 0,
                failed: 0,
                retries: 0,
                throughput_rps: 400.0,
                latency: LatencySummary {
                    p50_us: 120,
                    p95_us: 340,
                    p99_us: 510,
                    max_us: 900,
                    mean_us: 150,
                },
            },
            PhaseReport {
                name: "saturate".into(),
                target_rps: 0.0,
                duration_secs: 0.7,
                requests: 800,
                completed: 640,
                shed: 150,
                shed_reasons: ShedReasons {
                    queue_full: 140,
                    deadline: 8,
                    connection_limit: 10,
                    draining: 0,
                },
                expired: 8,
                failed: 2,
                retries: 150,
                throughput_rps: 914.3,
                latency: LatencySummary {
                    p50_us: 800,
                    p95_us: 2400,
                    p99_us: 3100,
                    max_us: 4800,
                    mean_us: 1000,
                },
            },
        ],
        stages: ["queue_wait", "embed_cache", "ghn_embed", "regress", "serialize"]
            .iter()
            .map(|name| {
                (
                    name.to_string(),
                    StageSummary { count: 640, p50_us: 30, p95_us: 80, p99_us: 110 },
                )
            })
            .collect(),
        tracing: TracingSummary {
            traced_rps: 970.0,
            untraced_rps: 1000.0,
            overhead_ratio: 1.031,
        },
        telemetry: vec![
            ("controller.requests_shed".into(), 150),
            ("controller.requests_expired".into(), 8),
            ("controller.traced_requests".into(), 640),
            ("controller.queue_depth_peak".into(), 4),
            ("controller_client.retries".into(), 150),
            ("controller_client.overloads".into(), 150),
        ],
    }
}

fn render_fixture(paths: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"serve\",\n  \"schema_version\": 1,\n");
    out.push_str("  \"paths\": [\n");
    for (i, p) in paths.iter().enumerate() {
        out.push_str(&format!(
            "    \"{p}\"{}\n",
            if i + 1 < paths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn stored_paths(doc: &JsonValue) -> Vec<String> {
    match doc.get("paths") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .unwrap_or_else(|| panic!("non-string schema path: {v:?}"))
                    .to_string()
            })
            .collect(),
        other => panic!("fixture 'paths' is not an array: {other:?}"),
    }
}

#[test]
fn bench_serve_schema_matches_golden_fixture() {
    let rendered = sample_report().render();
    let doc = JsonValue::parse(&rendered).expect("rendered report parses");
    let live = schema_paths(&doc);
    let path = fixture_path();

    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, render_fixture(&live)).unwrap();
        eprintln!("bench schema fixture regenerated — commit the fixture diff");
        return;
    }

    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let fixture = JsonValue::parse(&stored)
        .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", path.display()));
    assert_eq!(
        stored_paths(&fixture),
        live,
        "BENCH_serve.json schema drifted from golden fixture \
         (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
    );
}

/// The committed baseline at the repository root must match the pinned
/// schema too — a schema change without a regenerated baseline (or vice
/// versa) fails here, not in a downstream trajectory diff.
#[test]
fn committed_baseline_matches_pinned_schema() {
    let baseline = repo_root().join("BENCH_serve.json");
    let Ok(contents) = std::fs::read_to_string(&baseline) else {
        // The baseline is produced by `pddl-loadgen`; a fresh checkout
        // mid-regeneration may not have one yet. The fixture test above
        // still pins the renderer.
        eprintln!("no committed BENCH_serve.json — skipping baseline check");
        return;
    };
    let doc = JsonValue::parse(&contents)
        .unwrap_or_else(|e| panic!("{}: unparseable baseline: {e}", baseline.display()));
    let live = schema_paths(&doc);

    let stored = std::fs::read_to_string(fixture_path())
        .expect("schema fixture exists (PDDL_REGEN_GOLDEN=1 to create)");
    let fixture = JsonValue::parse(&stored).expect("fixture parses");
    assert_eq!(
        stored_paths(&fixture),
        live,
        "committed BENCH_serve.json does not match the pinned schema — \
         re-run pddl-loadgen after a schema change"
    );

    // Sanity-pin the invariants the baseline is committed to demonstrate:
    // zero sheds at low rate, nonzero sheds at saturation, and full
    // accounting of every request in both phases.
    let phases = match doc.get("phases") {
        Some(JsonValue::Array(ps)) => ps,
        other => panic!("baseline 'phases' is not an array: {other:?}"),
    };
    assert_eq!(phases.len(), 2, "baseline must have low_rate + saturate phases");
    for p in phases {
        let name = p.get("name").and_then(|v| v.as_str()).expect("phase name");
        let get = |k: &str| p.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let (requests, completed) = (get("requests"), get("completed"));
        assert_eq!(
            requests,
            completed + get("shed") + get("expired") + get("failed"),
            "phase {name}: request accounting does not balance"
        );
        let reasons = p.get("shed_reasons").expect("phase shed_reasons");
        let reason = |k: &str| reasons.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        match name {
            "low_rate" => assert_eq!(get("shed"), 0, "low_rate phase must not shed"),
            "saturate" => {
                assert!(get("shed") > 0, "saturate phase must shed");
                assert!(
                    reason("queue_full") > 0,
                    "saturation sheds must be typed queue_full"
                );
            }
            other => panic!("unexpected phase name {other:?}"),
        }
    }
}

/// Tracing must stay cheap: the committed baseline's dedicated overhead
/// bursts may show at most a 5% throughput regression with per-request
/// trace contexts on (`tracing.overhead_ratio <= 1.05`), and the traced
/// phases must actually have produced per-stage data. Reads the committed
/// file only — deterministic, no benchmark runs in the test.
#[test]
fn committed_serve_baseline_meets_tracing_overhead_floor() {
    let baseline = repo_root().join("BENCH_serve.json");
    let Ok(contents) = std::fs::read_to_string(&baseline) else {
        eprintln!("no committed BENCH_serve.json — skipping tracing overhead check");
        return;
    };
    let doc = JsonValue::parse(&contents)
        .unwrap_or_else(|e| panic!("{}: unparseable baseline: {e}", baseline.display()));
    let tracing = doc.get("tracing").expect("baseline has a tracing block");
    let rps = |k: &str| tracing.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    assert!(rps("traced_rps") > 0.0, "tracing bursts must have run");
    assert!(rps("untraced_rps") > 0.0, "tracing bursts must have run");
    let ratio = tracing
        .get("overhead_ratio")
        .and_then(|v| v.as_f64())
        .expect("tracing.overhead_ratio");
    assert!(
        ratio > 0.0 && ratio <= 1.05,
        "tracing may cost at most 5% throughput (committed ratio: {ratio})"
    );

    let qw = doc
        .get("stages")
        .and_then(|s| s.get("queue_wait"))
        .expect("baseline stages.queue_wait");
    assert!(
        qw.get("count").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "traced phases must record queue_wait spans"
    );
}

#[test]
fn bench_tensor_schema_matches_golden_fixture() {
    let rendered = sample_tensor_report().render();
    let doc = JsonValue::parse(&rendered).expect("rendered tensor report parses");
    let live = schema_paths(&doc);
    let path = tensor_fixture_path();

    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, render_tensor_fixture(&live)).unwrap();
        eprintln!("tensor schema fixture regenerated — commit the fixture diff");
        return;
    }

    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let fixture = JsonValue::parse(&stored)
        .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", path.display()));
    assert_eq!(
        stored_paths(&fixture),
        live,
        "BENCH_tensor.json schema drifted from golden fixture \
         (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
    );
}

fn render_tensor_fixture(paths: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"tensor\",\n  \"schema_version\": 1,\n");
    out.push_str("  \"paths\": [\n");
    for (i, p) in paths.iter().enumerate() {
        out.push_str(&format!(
            "    \"{p}\"{}\n",
            if i + 1 < paths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed `BENCH_tensor.json` must match the pinned schema, carry
/// the 128×128·128×128 anchor shape, and demonstrate the blocked kernel's
/// headline win: ≥2× over the reference at that shape, plus a measured
/// end-to-end embedding improvement. These assertions read the committed
/// file, so they are deterministic — no benchmark runs in the test.
#[test]
fn committed_tensor_baseline_meets_speedup_floor() {
    let baseline = repo_root().join("BENCH_tensor.json");
    let Ok(contents) = std::fs::read_to_string(&baseline) else {
        eprintln!("no committed BENCH_tensor.json — skipping baseline check");
        return;
    };
    let doc = JsonValue::parse(&contents)
        .unwrap_or_else(|e| panic!("{}: unparseable baseline: {e}", baseline.display()));
    let live = schema_paths(&doc);

    let stored = std::fs::read_to_string(tensor_fixture_path())
        .expect("tensor schema fixture exists (PDDL_REGEN_GOLDEN=1 to create)");
    let fixture = JsonValue::parse(&stored).expect("fixture parses");
    assert_eq!(
        stored_paths(&fixture),
        live,
        "committed BENCH_tensor.json does not match the pinned schema — \
         re-run pddl-tensorbench after a schema change"
    );

    let cases = match doc.get("gemm") {
        Some(JsonValue::Array(cs)) => cs,
        other => panic!("baseline 'gemm' is not an array: {other:?}"),
    };
    let dim = |c: &JsonValue, k: &str| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let anchor = cases
        .iter()
        .find(|c| dim(c, "m") == 128 && dim(c, "k") == 128 && dim(c, "n") == 128)
        .expect("baseline must include the 128x128·128x128 anchor shape");
    let speedup = anchor
        .get("speedup_blocked")
        .and_then(|v| v.as_f64())
        .expect("anchor speedup_blocked");
    assert!(
        speedup >= 2.0,
        "blocked GEMM must be >=2x reference at 128^3 (committed: {speedup})"
    );

    let embed_speedup = doc
        .get("embed_graph")
        .and_then(|e| e.get("speedup"))
        .and_then(|v| v.as_f64())
        .expect("embed_graph.speedup");
    assert!(
        embed_speedup > 1.0,
        "batched embed_graph must beat the scalar reference (committed: {embed_speedup})"
    );

    // SIMD floor: on hosts where a vector microkernel was dispatched, the
    // committed baseline must show >=1.5x over the forced-scalar kernel on
    // the embed-path shapes (the large cases the GHN hot path actually
    // runs). A scalar-only host trivially reports speedup_simd ~1.0, so
    // the floor only applies when config.kernel is a real SIMD backend.
    let kernel = doc
        .get("config")
        .and_then(|c| c.get("kernel"))
        .and_then(|v| v.as_str())
        .expect("config.kernel");
    if kernel != "scalar" {
        let mut checked = 0;
        for c in cases {
            let (m, k, n) = (dim(c, "m"), dim(c, "k"), dim(c, "n"));
            // Embed-path shapes: the square panels >=64 wide that dominate
            // `embed_with_schedule` (node MLP + message passing GEMMs).
            if m < 64 || k < 64 || n < 64 {
                continue;
            }
            let simd = c
                .get("speedup_simd")
                .and_then(|v| v.as_f64())
                .expect("gemm case speedup_simd");
            assert!(
                simd >= 1.5,
                "{kernel} microkernel must be >=1.5x forced-scalar at \
                 {m}x{k}·{k}x{n} (committed: {simd})"
            );
            checked += 1;
        }
        assert!(checked >= 2, "baseline must include >=2 embed-path shapes");
    }

}

// ---------------------------------------------------------------------------
// BENCH_sched.json: the prediction-driven-scheduling benchmark.
// ---------------------------------------------------------------------------

use pddl_bench::report::{AccuracyPoint, PolicyRow, SchedReport, ShiftScenario};

fn sched_fixture_path() -> PathBuf {
    repo_root().join("tests/fixtures/bench_sched_schema.json")
}

/// A fully populated sched report: two policy rows and a two-point
/// accuracy curve — every field `render()` can emit.
fn sample_sched_report() -> SchedReport {
    let row = |policy: &str, missed: u64| PolicyRow {
        policy: policy.into(),
        submitted: 100_000,
        completed: 100_000,
        deadlines_total: 70_000,
        deadlines_missed: missed,
        missed_pct: 100.0 * missed as f64 / 70_000.0,
        utilization: 0.62,
        mean_wait_secs: 18.0,
        p99_wait_secs: 300.0,
        peak_queue: 2_000,
    };
    SchedReport {
        jobs: 100_000,
        servers: 64,
        seed: 91,
        burst: vec![row("fifo", 7_000), row("deadline_aware", 2_400)],
        shift: ShiftScenario {
            policy: "fifo".into(),
            factor: 2.5,
            at_fraction: 0.5,
            drift_events: 1,
            refits: 1,
            updates: 100_000,
            pre_shift_online: 0.04,
            pre_shift_frozen: 0.04,
            post_shift_online: 0.05,
            post_shift_frozen: 1.4,
            recovery_ratio: 1.2,
            frozen_vs_online: 28.0,
            curve: vec![
                AccuracyPoint { t_end_secs: 500.0, online_err: 0.04, frozen_err: 0.04, jobs: 4_000 },
                AccuracyPoint { t_end_secs: 1000.0, online_err: 0.05, frozen_err: 1.4, jobs: 4_100 },
            ],
        },
        telemetry: vec![
            ("sched.jobs_launched".into(), 500_000),
            ("refit.updates".into(), 500_000),
            ("refit.refits".into(), 5),
            ("refit.drift_events".into(), 1),
        ],
    }
}

fn render_sched_fixture(paths: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"sched\",\n  \"schema_version\": 1,\n");
    out.push_str("  \"paths\": [\n");
    for (i, p) in paths.iter().enumerate() {
        out.push_str(&format!(
            "    \"{p}\"{}\n",
            if i + 1 < paths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn bench_sched_schema_matches_golden_fixture() {
    let rendered = sample_sched_report().render();
    let doc = JsonValue::parse(&rendered).expect("rendered sched report parses");
    let live = schema_paths(&doc);
    let path = sched_fixture_path();

    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, render_sched_fixture(&live)).unwrap();
        eprintln!("sched schema fixture regenerated — commit the fixture diff");
        return;
    }

    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let fixture = JsonValue::parse(&stored)
        .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", path.display()));
    assert_eq!(
        stored_paths(&fixture),
        live,
        "BENCH_sched.json schema drifted from golden fixture \
         (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
    );
}

/// The committed `BENCH_sched.json` must match the pinned schema and
/// demonstrate the continual-refit headline claims: through a mid-run
/// cost-model shift the online predictor's post-shift error stays within
/// 1.5× its pre-shift error while the frozen fit-once baseline is ≥3×
/// worse than online, with exactly one drift fire; and in the burst
/// scenario at least one prediction-driven policy misses fewer deadlines
/// than FIFO. Reads the committed file only — deterministic, no engine
/// runs in the test.
#[test]
fn committed_sched_baseline_meets_refit_floors() {
    let baseline = repo_root().join("BENCH_sched.json");
    let Ok(contents) = std::fs::read_to_string(&baseline) else {
        eprintln!("no committed BENCH_sched.json — skipping baseline check");
        return;
    };
    let doc = JsonValue::parse(&contents)
        .unwrap_or_else(|e| panic!("{}: unparseable baseline: {e}", baseline.display()));
    let live = schema_paths(&doc);

    let stored = std::fs::read_to_string(sched_fixture_path())
        .expect("sched schema fixture exists (PDDL_REGEN_GOLDEN=1 to create)");
    let fixture = JsonValue::parse(&stored).expect("fixture parses");
    assert_eq!(
        stored_paths(&fixture),
        live,
        "committed BENCH_sched.json does not match the pinned schema — \
         re-run pddl-schedbench after a schema change"
    );

    // Shift floors: online recovers, frozen rots, drift fires once.
    let shift = doc.get("shift").expect("baseline has a shift block");
    let f = |k: &str| shift.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    let recovery = f("recovery_ratio");
    assert!(
        recovery > 0.0 && recovery <= 1.5,
        "online post-shift error must stay within 1.5x pre-shift (committed: {recovery})"
    );
    let frozen_ratio = f("frozen_vs_online");
    assert!(
        frozen_ratio >= 3.0,
        "frozen baseline must be >=3x worse than online post-shift (committed: {frozen_ratio})"
    );
    assert_eq!(
        shift.get("drift_events").and_then(|v| v.as_u64()),
        Some(1),
        "one shift must fire exactly one drift event"
    );
    assert!(
        shift.get("refits").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "the drift fire must trigger at least one window refit"
    );

    // Burst floor: prediction-driven scheduling beats FIFO on missed
    // deadlines, on a fully drained run (no lost jobs).
    let burst = match doc.get("burst") {
        Some(JsonValue::Array(rows)) => rows,
        other => panic!("baseline 'burst' is not an array: {other:?}"),
    };
    let find = |name: &str| {
        burst
            .iter()
            .find(|r| r.get("policy").and_then(|v| v.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("baseline burst scenario missing policy {name:?}"))
    };
    let missed = |r: &JsonValue| {
        r.get("missed_pct")
            .and_then(|v| v.as_f64())
            .expect("policy row missed_pct")
    };
    let fifo = missed(find("fifo"));
    let aware = missed(find("deadline_aware"));
    assert!(
        aware < fifo,
        "deadline-aware must miss fewer deadlines than FIFO \
         (committed: {aware:.3}% vs {fifo:.3}%)"
    );
    for r in burst {
        let get = |k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        assert_eq!(
            get("submitted"),
            get("completed"),
            "burst run must drain every submitted job"
        );
    }
}

// ---------------------------------------------------------------------------
// BENCH_shard.json: the sharded-fleet benchmark.
// ---------------------------------------------------------------------------

use pddl_bench::report::{KillSummary, RebalanceStep, ScalingPoint, ShardReport};

fn shard_fixture_path() -> PathBuf {
    repo_root().join("tests/fixtures/bench_shard_schema.json")
}

/// A fully populated shard report: a three-point scaling curve, two
/// rebalance steps, and a kill phase — every field `render()` can emit.
fn sample_shard_report() -> ShardReport {
    let point = |shards: usize, rps: f64, speedup: f64| ScalingPoint {
        shards,
        clients: 4 * shards,
        requests: 200 * shards as u64,
        completed: 200 * shards as u64,
        shed: 12,
        duration_secs: 0.9,
        throughput_rps: rps,
        speedup_vs_1: speedup,
    };
    ShardReport {
        workers_per_shard: 1,
        queue_depth: 8,
        clients_per_shard: 4,
        requests_per_client: 50,
        vnodes: 128,
        service_us: 4000,
        keyspace: 256,
        scaling: vec![
            point(1, 240.0, 1.0),
            point(2, 410.0, 1.71),
            point(4, 790.0, 3.29),
        ],
        rebalance: vec![
            RebalanceStep {
                from_shards: 1,
                to_shards: 2,
                keys: 10_000,
                moved: 4_960,
                moved_fraction: 0.496,
                bound_fraction: 0.75,
            },
            RebalanceStep {
                from_shards: 3,
                to_shards: 4,
                keys: 10_000,
                moved: 2_580,
                moved_fraction: 0.258,
                bound_fraction: 0.375,
            },
        ],
        kill: KillSummary {
            shards: 4,
            killed_shard: 1,
            requests: 800,
            completed: 800,
            rerouted: 1,
            shed: 40,
            duplicates: 0,
            unanswered: 0,
            epoch_before: 1,
            epoch_after: 2,
        },
        telemetry: vec![
            ("controller.requests_shed".into(), 52),
            ("controller.requests_expired".into(), 0),
            ("controller.queue_depth_peak".into(), 8),
        ],
    }
}

fn render_shard_fixture(paths: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"shard\",\n  \"schema_version\": 1,\n");
    out.push_str("  \"paths\": [\n");
    for (i, p) in paths.iter().enumerate() {
        out.push_str(&format!(
            "    \"{p}\"{}\n",
            if i + 1 < paths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn bench_shard_schema_matches_golden_fixture() {
    let rendered = sample_shard_report().render();
    let doc = JsonValue::parse(&rendered).expect("rendered shard report parses");
    let live = schema_paths(&doc);
    let path = shard_fixture_path();

    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, render_shard_fixture(&live)).unwrap();
        eprintln!("shard schema fixture regenerated — commit the fixture diff");
        return;
    }

    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let fixture = JsonValue::parse(&stored)
        .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", path.display()));
    assert_eq!(
        stored_paths(&fixture),
        live,
        "BENCH_shard.json schema drifted from golden fixture \
         (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
    );
}

/// The committed `BENCH_shard.json` must match the pinned schema and
/// demonstrate the serving fleet's headline claims: ≥2.5× throughput at
/// 4 shards, consistent-hash movement within its theoretical bound on
/// every resize, and a mid-load shard kill with zero duplicated and zero
/// lost requests. Reads the committed file only — deterministic, no
/// benchmark runs in the test.
#[test]
fn committed_shard_baseline_meets_fleet_floors() {
    let baseline = repo_root().join("BENCH_shard.json");
    let Ok(contents) = std::fs::read_to_string(&baseline) else {
        eprintln!("no committed BENCH_shard.json — skipping baseline check");
        return;
    };
    let doc = JsonValue::parse(&contents)
        .unwrap_or_else(|e| panic!("{}: unparseable baseline: {e}", baseline.display()));
    let live = schema_paths(&doc);

    let stored = std::fs::read_to_string(shard_fixture_path())
        .expect("shard schema fixture exists (PDDL_REGEN_GOLDEN=1 to create)");
    let fixture = JsonValue::parse(&stored).expect("fixture parses");
    assert_eq!(
        stored_paths(&fixture),
        live,
        "committed BENCH_shard.json does not match the pinned schema — \
         re-run `pddl-loadgen --transport fleet` after a schema change"
    );

    // Scaling floor: the curve must start at 1 shard (speedup 1.0 by
    // construction) and reach >=2.5x at the 4-shard point.
    let scaling = match doc.get("scaling") {
        Some(JsonValue::Array(points)) => points,
        other => panic!("baseline 'scaling' is not an array: {other:?}"),
    };
    let shards_of = |p: &JsonValue| p.get("shards").and_then(|v| v.as_u64()).unwrap_or(0);
    assert_eq!(shards_of(&scaling[0]), 1, "first scaling point must be the 1-shard baseline");
    let four = scaling
        .iter()
        .find(|p| shards_of(p) == 4)
        .expect("baseline must include a 4-shard scaling point");
    let speedup = four
        .get("speedup_vs_1")
        .and_then(|v| v.as_f64())
        .expect("4-shard speedup_vs_1");
    assert!(
        speedup >= 2.5,
        "4-shard fleet must reach >=2.5x single-shard throughput (committed: {speedup})"
    );
    for p in scaling {
        let get = |k: &str| p.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        assert_eq!(
            get("requests"),
            get("completed"),
            "scaling point at {} shards lost requests (sheds must be retried to completion)",
            shards_of(p)
        );
    }

    // Rebalance bound: every resize stays within its committed bound —
    // the consistent-hashing guarantee (a modulo rehash moves ~1-1/N and
    // blows straight through it).
    let rebalance = match doc.get("rebalance") {
        Some(JsonValue::Array(steps)) => steps,
        other => panic!("baseline 'rebalance' is not an array: {other:?}"),
    };
    assert!(!rebalance.is_empty(), "baseline must measure at least one resize");
    for step in rebalance {
        let frac = |k: &str| step.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let (moved, bound) = (frac("moved_fraction"), frac("bound_fraction"));
        assert!(
            moved <= bound,
            "resize {}->{} moved {moved} of the keyspace, over its bound {bound}",
            step.get("from_shards").and_then(|v| v.as_u64()).unwrap_or(0),
            step.get("to_shards").and_then(|v| v.as_u64()).unwrap_or(0),
        );
    }

    // Kill phase: exactly-once accounting and epoch convergence.
    let kill = doc.get("kill").expect("baseline has a kill block");
    let get = |k: &str| kill.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
    assert_eq!(get("duplicates"), 0, "a killed shard must not duplicate predictions");
    assert_eq!(get("unanswered"), 0, "every request must be answered or shed typed");
    assert_eq!(
        get("requests"),
        get("completed"),
        "kill phase lost requests (survivors must absorb the dead shard's load)"
    );
    assert!(get("rerouted") >= 1, "the kill must actually have been observed mid-load");
    assert!(
        get("epoch_after") > get("epoch_before"),
        "the shard death must bump the membership epoch"
    );
}
