//! Golden schema fixture for `BENCH_sched.json`.
//!
//! The scheduling benchmark report is bit-reproducible from its seed, so
//! its *shape* — field names, nesting, units encoded in the names, the
//! telemetry block — is pinned here the same way the simulator curves are
//! pinned in `tests/golden_traces.rs`. A renamed or dropped field fails
//! this test.
//!
//! Two documents are checked against
//! `tests/fixtures/bench_sched_schema.json`:
//!
//! 1. a freshly rendered sample [`SchedReport`] — catches code-side drift
//!    in `render()` even when the benchmark has not been re-run, and
//! 2. the committed `BENCH_sched.json` at the repository root (when
//!    present) — catches a stale baseline after an intentional schema
//!    change.
//!
//! On an intentional schema change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p pddl-bench --test bench_schema`
//! and review the fixture diff like any other code change. Fixtures are
//! parsed with `pddl_telemetry::JsonValue`.

use pddl_bench::report::{schema_paths, AccuracyPoint, PolicyRow, SchedReport, ShiftScenario};
use pddl_telemetry::JsonValue;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
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
