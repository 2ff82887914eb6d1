//! Golden-trace fixtures: seeded `pddl-ddlsim` scaling curves for three
//! architectures on two server classes, pinned bit-for-bit under
//! `tests/fixtures/`.
//!
//! The simulator is the ground truth every regression layer trains
//! against, so a silent change to its cost model shifts every downstream
//! accuracy number. These fixtures pin the exact `f64` bit patterns
//! (stored as decimal strings — the fixture parser keeps numbers as
//! `f64`, which cannot hold all 64-bit patterns) of the noise-free
//! expected time and two seeded noisy measurements per point.
//!
//! On an intentional cost-model change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the
//! fixture diff like any other code change.
//!
//! Fixtures are parsed with `pddl_telemetry::JsonValue`.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use pddl_telemetry::JsonValue;
use std::path::PathBuf;

const MODELS: [&str; 3] = ["resnet18", "vgg16", "mobilenet_v2"];
const CLASSES: [(ServerClass, &str); 2] =
    [(ServerClass::GpuP100, "gpu_p100"), (ServerClass::CpuE5_2650, "cpu_e5_2650")];
const SERVERS: [usize; 6] = [1, 2, 4, 8, 12, 16];
const RUNS: [u64; 2] = [1, 2];
const BATCH: usize = 128;
const EPOCHS: usize = 2;

struct Point {
    servers: usize,
    expected: Result<f64, String>,
    measured: Vec<(u64, Result<f64, String>)>,
}

fn curve(model: &str, class: ServerClass) -> Vec<Point> {
    let sim = Simulator::new(SimConfig::default());
    let w = Workload::new(model, "cifar10", BATCH, EPOCHS);
    SERVERS
        .iter()
        .map(|&n| {
            let cluster = ClusterState::homogeneous(class, n);
            Point {
                servers: n,
                expected: sim.expected_time(&w, &cluster).map_err(|e| e.to_string()),
                measured: RUNS
                    .iter()
                    .map(|&run| {
                        (run, sim.measure(&w, &cluster, run).map_err(|e| e.to_string()))
                    })
                    .collect(),
            }
        })
        .collect()
}

fn render_value(r: &Result<f64, String>) -> String {
    match r {
        Ok(v) => format!("{{\"seconds\":{:?},\"bits\":\"{}\"}}", v, v.to_bits()),
        Err(e) => format!("{{\"error\":{e:?}}}"),
    }
}

fn render_fixture(model: &str, class: ServerClass, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"model\": \"{model}\",\n"));
    out.push_str("  \"dataset\": \"cifar10\",\n");
    out.push_str(&format!("  \"server_class\": \"{class:?}\",\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    out.push_str(&format!("  \"epochs\": {EPOCHS},\n"));
    out.push_str(&format!("  \"sim_seed\": {},\n", SimConfig::default().seed));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let measured: Vec<String> = p
            .measured
            .iter()
            .map(|(run, r)| format!("{{\"run\":{run},\"value\":{}}}", render_value(r)))
            .collect();
        out.push_str(&format!(
            "    {{\"servers\":{},\"expected\":{},\"measured\":[{}]}}{}\n",
            p.servers,
            render_value(&p.expected),
            measured.join(","),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn fixture_path(model: &str, slug: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("ddlsim_{model}_{slug}.json"))
}

/// Extracts the pinned value from `{"seconds":..,"bits":".."}` /
/// `{"error":".."}`.
fn stored_value(v: &JsonValue) -> Result<u64, String> {
    if let Some(err) = v.get("error").and_then(|e| e.as_str()) {
        return Err(err.to_string());
    }
    let bits = v
        .get("bits")
        .and_then(|b| b.as_str())
        .unwrap_or_else(|| panic!("fixture value missing 'bits': {v:?}"));
    Ok(bits.parse::<u64>().unwrap_or_else(|_| panic!("bad bits string '{bits}'")))
}

fn as_bits(r: &Result<f64, String>) -> Result<u64, String> {
    r.as_ref().map(|v| v.to_bits()).map_err(|e| e.clone())
}

#[test]
fn simulator_curves_match_golden_fixtures() {
    let regen = std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1");
    for model in MODELS {
        for (class, slug) in CLASSES {
            let points = curve(model, class);
            let path = fixture_path(model, slug);
            if regen {
                std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
                std::fs::write(&path, render_fixture(model, class, &points)).unwrap();
                continue;
            }
            let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
                    path.display()
                )
            });
            let doc = JsonValue::parse(&stored)
                .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", path.display()));
            assert_eq!(doc.get("model").and_then(|m| m.as_str()), Some(model));
            let stored_points = match doc.get("points") {
                Some(JsonValue::Array(pts)) => pts,
                other => panic!("{}: 'points' is not an array: {other:?}", path.display()),
            };
            assert_eq!(
                stored_points.len(),
                points.len(),
                "{}: point count changed",
                path.display()
            );
            for (p, sp) in points.iter().zip(stored_points) {
                let ctx = format!("{model}/{class:?} at {} servers", p.servers);
                assert_eq!(
                    sp.get("servers").and_then(|s| s.as_u64()),
                    Some(p.servers as u64),
                    "{ctx}: servers mismatch"
                );
                let exp = sp.get("expected").unwrap_or_else(|| panic!("{ctx}: no expected"));
                assert_eq!(
                    as_bits(&p.expected),
                    stored_value(exp),
                    "{ctx}: expected_time drifted from golden fixture \
                     (intentional? regenerate with PDDL_REGEN_GOLDEN=1)"
                );
                let runs = match sp.get("measured") {
                    Some(JsonValue::Array(rs)) => rs,
                    other => panic!("{ctx}: 'measured' is not an array: {other:?}"),
                };
                assert_eq!(runs.len(), p.measured.len(), "{ctx}: run count changed");
                for ((run, r), sr) in p.measured.iter().zip(runs) {
                    assert_eq!(
                        sr.get("run").and_then(|x| x.as_u64()),
                        Some(*run),
                        "{ctx}: run id mismatch"
                    );
                    let val = sr.get("value").unwrap_or_else(|| panic!("{ctx}: no value"));
                    assert_eq!(
                        as_bits(r),
                        stored_value(val),
                        "{ctx} run {run}: measurement drifted from golden fixture"
                    );
                }
            }
        }
    }
    if regen {
        // Make an accidental always-regen CI configuration loud.
        eprintln!("golden fixtures regenerated — commit the fixture diff");
    }
}

/// The fixtures pin determinism; this pins *reusability* of the noise
/// stream: the same run id reproduces the same measurement, different run
/// ids differ (no accidental seed aliasing across the curve).
#[test]
fn measurement_noise_is_run_id_deterministic() {
    let sim = Simulator::new(SimConfig::default());
    let w = Workload::new("resnet18", "cifar10", BATCH, EPOCHS);
    let cluster = ClusterState::homogeneous(ServerClass::GpuP100, 4);
    let a = sim.measure(&w, &cluster, 9).unwrap();
    let b = sim.measure(&w, &cluster, 9).unwrap();
    let c = sim.measure(&w, &cluster, 10).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
    assert_ne!(a.to_bits(), c.to_bits());
}
