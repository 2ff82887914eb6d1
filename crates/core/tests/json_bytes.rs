//! Every JSON type on the checkpoint and controller-wire paths, pinned by
//! its bytes: one `Type len fnv1a` line per type for `json::to_string` of
//! one seeded value, after checking that decode → re-encode gives the same
//! bytes back, then the text of a few decode errors. The values are built
//! without the dispatched float kernels — seeded constructors, hand-set
//! regressors, and regressors whose fit is scalar code — so the pin holds
//! on both kernel lanes (`PDDL_FORCE_SCALAR=1` or not). A change to the
//! codec or to a type's declaration that is meant to move no bytes must
//! leave `fixtures/json_bytes.txt` as it is. On an intentional change,
//! regenerate with `PDDL_REGEN_GOLDEN=1 cargo test -p predictddl --test
//! json_bytes` and review the fixture diff like any other code change.

use pddl_autodiff::{GruCell, Linear, Mlp, ParamStore};
use pddl_cluster::{ClusterState, ServerClass, ServerSpec};
use pddl_ddlsim::{TraceRecord, Workload};
use pddl_ernest::ErnestModel;
use pddl_ghn::{EmbeddingSet, Ghn, GhnConfig, GhnEncoder};
use pddl_graph::{CompGraph, NodeAttrs};
use pddl_regress::{
    Kernel, LinearRegression, MlpRegressor, PolyFeatures, Regression, Regressor, Ridge,
    StandardScaler, Svr,
};
use pddl_registry::Registry;
use pddl_telemetry::hash::fnv1a;
use pddl_telemetry::json::{self, FromJson, JsonValue, ToJson};
use pddl_tensor::{Activation, Matrix, Rng};
use predictddl::inference::{EngineSample, InferenceConfig};
use predictddl::offline::TrainCost;
use predictddl::{
    load_checkpoint, save_checkpoint, EmbeddingCache, EmbeddingsGenerator, GhnRegistry,
    InferenceEngine, PredictDdl, Prediction, PredictionRequest, TraceHeader, CACHE_ARTIFACT,
};
use std::fmt::Write;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    fixture_named("json_bytes.txt")
}

fn fixture_named(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Appends `name`'s `len fnv1a` line for `text`.
fn pin_text(out: &mut String, name: &str, text: &str) {
    writeln!(out, "{name} {} {:016x}", text.len(), fnv1a(text.as_bytes())).unwrap();
}

/// Pins `value`'s bytes, once decode → re-encode has given them back.
fn pin<T: ToJson + FromJson>(out: &mut String, name: &str, value: &T) {
    let text = json::to_string(value).unwrap_or_else(|e| panic!("{name}: {e}"));
    let back: T = json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(json::to_string(&back).unwrap(), text, "{name}: decode → re-encode");
    pin_text(out, name, &text);
}

/// Appends the text of the error decoding `doc` as a `T` gives.
fn pin_error<T: FromJson>(out: &mut String, name: &str, what: &str, doc: &str) {
    match json::from_str::<T>(doc) {
        Ok(_) => panic!("{name} {what}: decoded"),
        Err(e) => writeln!(out, "error {name} {what}: {e}").unwrap(),
    }
}

/// `text` with the top-level `keys` removed.
fn without(text: &str, keys: &[&str]) -> String {
    let mut doc = json::parse(text).unwrap();
    let JsonValue::Object(members) = &mut doc else { panic!("not an object: {text}") };
    for key in keys {
        members.remove(*key).unwrap_or_else(|| panic!("no `{key}` in {text}"));
    }
    doc.to_json()
}

/// A hand-set 6×2 design and a linear target.
fn design() -> (Matrix, Vec<f32>) {
    let x = Matrix::from_rows(&[
        &[0.5, -1.0],
        &[1.5, 0.25],
        &[-0.75, 2.0],
        &[2.0, 1.0],
        &[0.0, -0.5],
        &[1.0, 3.0],
    ]);
    let y = (0..x.rows()).map(|r| 1.0 + 2.0 * x[(r, 0)] - 0.5 * x[(r, 1)]).collect();
    (x, y)
}

fn graph() -> CompGraph {
    pddl_zoo::build_model("resnet18", &pddl_zoo::CIFAR10).expect("zoo model")
}

fn ghn() -> GhnEncoder {
    Ghn::new(GhnConfig::tiny(), &mut Rng::new(0x31)).into_encoder()
}

fn record() -> TraceRecord {
    TraceRecord {
        workload: Workload::standard("resnet18", "cifar10"),
        server_class: ServerClass::GpuP100,
        num_servers: 4,
        time_secs: 1234.5,
        expected_secs: 1200.25,
    }
}

/// An engine fitted by SVR (scalar coordinate descent) on hand-set samples.
fn engine() -> InferenceEngine {
    let samples: Vec<EngineSample> = (0..6)
        .map(|i| EngineSample {
            embedding: vec![0.1 * i as f32, -0.2, 0.05 * (i * i) as f32],
            cluster: ClusterState::homogeneous(ServerClass::GpuP100, 1 + i),
            batch_size: 64 << (i % 2),
            epochs: 2 + i,
            dataset: "cifar10".into(),
            time_secs: 100.0 * (1 + i) as f64,
        })
        .collect();
    let regression = Regression::svr(Kernel::Rbf { gamma: 0.25 }, 10.0, 0.05);
    let mut engine = InferenceEngine::new(InferenceConfig { regression, log_target: true });
    engine.fit(&samples);
    engine
}

fn embeddings() -> EmbeddingsGenerator {
    let mut e = EmbeddingsGenerator::new();
    e.record("cifar10", "resnet18", vec![0.25, -0.5, 1.0]);
    e.record("cifar10", "vgg16", vec![1e-3, 2.5e7, -0.125]);
    e.record("tiny-imagenet", "resnet18", vec![0.5, 0.5, 0.0]);
    e
}

fn registry() -> GhnRegistry {
    let mut r = GhnRegistry::default();
    r.insert("cifar10", ghn());
    r
}

fn system() -> PredictDdl {
    PredictDdl {
        registry: registry(),
        embeddings: embeddings(),
        engine: engine(),
        train_cost: TrainCost { ghn_secs: 2.75, embed_secs: 0.125, fit_secs: 0.0625 },
        records: vec![record()],
        cache: EmbeddingCache::default(),
    }
}

/// The embedding-cache artifact of a checkpoint. Its `CacheSnapshot` and
/// `CacheEntry` are private to the checkpoint module, so they are pinned
/// through the registry: publish, read the artifact, load, publish the
/// loaded system again and compare.
fn cache_snapshot() -> String {
    let root = std::env::temp_dir().join(format!("pddl-json-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (registry, _) = Registry::open(&root, 4).unwrap();
    let mut system = system();
    // No records, no probes: publishing predicts nothing, so no embedding
    // computed on a kernel lane lands in the cache.
    system.records.clear();
    system.cache.preload("cifar10", 0x5eed, vec![0.25, -0.5, 1.0]);
    system.cache.preload("tiny-imagenet", 0x0bad, vec![1e-3, 2.5e7, -0.125]);
    let v = save_checkpoint(&registry, &system, "pin").unwrap();
    let text = registry.read_artifact(v, CACHE_ARTIFACT).unwrap();
    let again = save_checkpoint(&registry, &load_checkpoint(&registry, v).unwrap(), "again").unwrap();
    assert_eq!(registry.read_artifact(again, CACHE_ARTIFACT).unwrap(), text, "CacheSnapshot re-encode");
    std::fs::remove_dir_all(&root).ok();
    String::from_utf8(text).unwrap()
}

#[test]
fn json_types_keep_their_bytes() {
    let mut live = String::new();
    let out = &mut live;

    let spec = ServerSpec::preset(ServerClass::GpuP100, "node-0");
    pin(out, "ServerSpec", &spec);
    let cluster = ClusterState::homogeneous(ServerClass::CpuE5_2650, 3);
    pin(out, "ClusterState", &cluster);
    let g = graph();
    pin(out, "Node", &g.node(3).clone());
    pin(out, "NodeAttrs", &NodeAttrs::group_conv(32, 64, 3, 2, 32, 16));
    pin(out, "CompGraph", &g);

    // One store the three layer kinds register into; the layers keep only
    // their ids, so the store is all there is to pin.
    let mut ps = ParamStore::new();
    let mut rng = Rng::new(0x32);
    Linear::new(&mut ps, "lin", 3, 2, &mut rng);
    Mlp::new(&mut ps, "mlp", [2, 4, 1], Activation::Tanh, &mut rng);
    GruCell::new(&mut ps, "gru", 2, 3, &mut rng);
    pin(out, "ParamStore", &ps);
    pin(out, "GhnConfig", &GhnConfig::default());
    let mut set = EmbeddingSet::new();
    set.insert("resnet18", vec![0.25, -0.5, 1.0]);
    set.insert("vgg16", vec![1e-3, 2.5e7, -0.125]);
    pin(out, "EmbeddingSet", &set);
    pin(out, "GhnEncoder", &ghn());

    let (x, y) = design();
    pin(out, "Ridge", &Ridge { lambda: 1e-3, coef: vec![1.0, 2.0, -0.5, 0.0078125] });
    pin(out, "LinearRegression", &LinearRegression { coef: vec![0.5, -1.25, 3.0] });
    pin(out, "PolyFeatures", &PolyFeatures::new(2, true));
    pin(out, "StandardScaler", &StandardScaler::fit(&x));
    let mut svr = Svr::new(Kernel::Rbf { gamma: 0.5 }, 10.0, 0.05);
    svr.fit(&x, &y);
    pin(out, "Svr", &svr);
    // No epochs: the fitted state (`Fitted`) is its seeded initialisation
    // and the scalers, none of it touched by a kernel.
    let mut mlp_reg = MlpRegressor::new(3, 0, 0.01, 5);
    mlp_reg.fit(&x, &y);
    pin(out, "MlpRegressor", &mlp_reg);
    pin(out, "ErnestModel", &ErnestModel { theta: vec![0.5, 0.0, 12.25, 3e-4] });

    pin(out, "Workload", &Workload::standard("resnet18", "cifar10"));
    pin(out, "TraceRecord", &record());
    let ridge = Ridge { lambda: 1e-3, coef: vec![1.0, 2.0, -0.5] };
    let regression = Regression::Polynomial { expand: PolyFeatures::new(2, false), model: ridge };
    pin(out, "InferenceConfig", &InferenceConfig { regression, log_target: true });
    pin(out, "InferenceEngine", &engine());
    pin(out, "EmbeddingsGenerator", &embeddings());
    pin(out, "GhnRegistry", &registry());
    pin(out, "TrainCost", &TrainCost { ghn_secs: 2.75, embed_secs: 0.125, fit_secs: 0.0625 });

    let zoo_req = PredictionRequest::zoo(Workload::standard("resnet18", "cifar10"), cluster.clone());
    pin(out, "PredictionRequest", &zoo_req);
    let graph_req = PredictionRequest::graph(g, "cifar10", 64, 3, ClusterState::homogeneous(ServerClass::GpuP100, 2));
    pin(out, "PredictionRequest/graph", &graph_req);
    let prediction = Prediction {
        seconds: 812.0625,
        nearest_architecture: Some(("resnet34".into(), 0.96875)),
        inference_secs: 1.25e-4,
    };
    pin(out, "Prediction", &prediction);
    pin(out, "TraceHeader", &TraceHeader { trace_id: u64::MAX, span_id: 7, parent_id: 0 });
    pin_text(out, "CacheSnapshot", &cache_snapshot());
    pin(out, "PredictDdl", &system());

    // Decode errors name the first field, in declaration order, that is
    // missing or mistyped, with the path of the fields it sits in.
    let req = json::to_string(&zoo_req).unwrap();
    pin_error::<PredictionRequest>(out, "PredictionRequest", "missing", &without(&req, &["epochs"]));
    let cores = format!("\"cpu_cores\":{}", cluster.servers[0].spec.cpu_cores);
    let mistyped = req.replacen(&cores, "\"cpu_cores\":\"many\"", 1);
    pin_error::<PredictionRequest>(out, "PredictionRequest", "nested", &mistyped);
    let spec_doc = without(&json::to_string(&spec).unwrap(), &["hostname", "net_bps"]);
    pin_error::<ServerSpec>(out, "ServerSpec", "two-missing", &spec_doc);
    let ghn_doc = json::to_string(&ghn()).unwrap().replacen("\"hidden_dim\":8", "\"hidden_dim\":-8", 1);
    pin_error::<GhnEncoder>(out, "GhnEncoder", "nested", &ghn_doc);

    let path = fixture();
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &live).unwrap();
        eprintln!("json_bytes.txt regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    for (i, (want, got)) in stored.lines().zip(live.lines()).enumerate() {
        assert_eq!(got, want, "json_bytes.txt line {} drifted", i + 1);
    }
    assert_eq!(stored.lines().count(), live.lines().count(), "json_bytes.txt line count");
}

/// `json::to_string(&system())` as an older checkpoint format wrote it,
/// pinned by its `PredictDdl` line of `json_bytes.txt` at the time,
/// decodes through the one reader into exactly the bytes this build
/// writes for `system()`, in which none of the old members is left.
fn decodes_to_this_builds_bytes(fixture: &str, pin: (usize, u64)) {
    let old = std::fs::read_to_string(fixture_named(fixture)).unwrap();
    assert_eq!((old.len(), fnv1a(old.as_bytes())), pin, "{fixture}");
    let now = json::to_string(&system()).unwrap();
    let migrated: PredictDdl = json::from_str(&old).unwrap();
    assert_eq!(json::to_string(&migrated).unwrap(), now, "{fixture}");
    for key in ["decoder", "train_config", "normalize", "decoder_hidden", "embed", "msg", "gru", "net", "in_dim"] {
        assert!(!now.contains(&format!("\"{key}\"")), "`{key}` in a format-3 system");
    }
}

/// Format 1 wrote each GHN with its decoder, `cfg.normalize` and
/// `cfg.decoder_hidden`, and the registry with its `ghn_config`,
/// `train_config` and `seed`.
#[test]
fn format_1_system_decodes_to_format_3_bytes() {
    decodes_to_this_builds_bytes("system_v1.json", (18448, 0x9d14_50b1_cc9f_af73));
}

/// Format 2 wrote each GHN's layers — `embed`, `msg`, `msg_sp`, `gru`:
/// their parameter ids and widths — beside its store.
#[test]
fn format_2_system_decodes_to_format_3_bytes() {
    decodes_to_this_builds_bytes("system_v2.json", (12907, 0x11b5_a4ef_3b4c_c5f8));
}
