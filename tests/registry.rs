//! Registry tier: crash/torn-write recovery of the checkpoint store,
//! zero-downtime hot reload over real TCP, probe-gated rollback, warm
//! restart of the embedding cache, and the golden manifest fixture
//! pinning the on-disk format.
//!
//! Regenerate the manifest fixture (after an intentional format change)
//! with `PDDL_REGEN_GOLDEN=1 cargo test --test registry`.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use pddl_registry::{
    ArtifactEntry, CrashPlan, CrashPoint, Manifest, ProbeRecord, Registry, FORMAT_VERSION,
};
use predictddl::{
    load_checkpoint, save_checkpoint, spawn_watcher, Controller, ControllerClient, LiveSystem,
    OfflineTrainer, PredictDdl, PredictionRequest, ReloadManager, ServeConfig, SYSTEM_ARTIFACT,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn unique_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "pddl-registry-tier-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tiny_system() -> PredictDdl {
    OfflineTrainer::tiny().train_full()
}

fn fixed_request() -> PredictionRequest {
    PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    )
}

/// Raw (non-checkpoint) artifact set for fast crash-plan sweeps.
fn raw_artifacts() -> Vec<(String, Vec<u8>)> {
    vec![
        ("system.json".to_string(), (0..2048u32).flat_map(|i| i.to_le_bytes()).collect()),
        ("embed_cache.json".to_string(), vec![7u8; 513]),
    ]
}

/// The acceptance sweep: for every seeded crash plan, a publish that dies
/// mid-write must leave the registry recoverable — a fresh open() (the
/// "process restart") lands on the newest *verifiable* version, the
/// debris is quarantined (never deleted), and the recovered version's
/// artifacts re-verify on read. 100% of seeds, no exceptions.
#[test]
fn open_recovers_newest_verifiable_version_for_every_seed() {
    let arts = raw_artifacts();
    for seed in 0..32u64 {
        let root = unique_root("seed");
        let good = {
            let (reg, _) = Registry::open(&root, 0).unwrap();
            reg.publish("good-1", &arts, &[]).unwrap();
            let good = reg.publish("good-2", &arts, &[]).unwrap();
            let crash = CrashPlan::new(seed).pick(&arts);
            let doomed = reg.publish_crashing("doomed", &arts, crash).unwrap();
            assert!(doomed > good, "seed {seed}: doomed version is newer");
            good
        };
        // Process restart: recovery must land on the last good version.
        let (reg, report) = Registry::open(&root, 0).unwrap();
        assert_eq!(
            report.recovered,
            Some(good),
            "seed {seed}: open() must recover the newest verifiable version"
        );
        assert_eq!(reg.latest(), Some(good), "seed {seed}");
        for (name, bytes) in &arts {
            assert_eq!(
                &reg.read_artifact(good, name).unwrap(),
                bytes,
                "seed {seed}: recovered artifact {name} content-verified"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// A process killed mid-checkpoint of a *real* trained system can never
/// make a restarted server observe half a model: the torn candidate is
/// quarantined and the previous checkpoint serves bit-identical
/// predictions.
#[test]
fn crash_mid_checkpoint_never_serves_half_swapped_model() {
    let system = tiny_system();
    let req = fixed_request();
    let baseline = system.predict(&req).unwrap().seconds.to_bits();

    let root = unique_root("kill");
    let v1 = {
        let (reg, _) = Registry::open(&root, 4).unwrap();
        let v1 = save_checkpoint(&reg, &system, "good").unwrap();
        // The "new model" dies mid-write in the worst way: the artifact is
        // committed truncated while the manifest records the full hash —
        // only content verification can catch it.
        let system_json = reg.read_artifact(v1, SYSTEM_ARTIFACT).unwrap();
        let keep = system_json.len() / 2;
        let arts = vec![(SYSTEM_ARTIFACT.to_string(), system_json)];
        reg.publish_crashing("killed", &arts, CrashPoint::TornCommitted { artifact: 0, keep })
            .unwrap();
        v1
    };

    // Restart: open recovers v1, quarantines the torn candidate, and the
    // loaded checkpoint reproduces the original predictions exactly.
    let (reg, report) = Registry::open(&root, 4).unwrap();
    assert_eq!(report.recovered, Some(v1));
    assert_eq!(report.quarantined.len(), 1, "torn candidate quarantined");
    let loaded = load_checkpoint(&reg, v1).unwrap();
    assert_eq!(
        loaded.predict(&req).unwrap().seconds.to_bits(),
        baseline,
        "recovered checkpoint is bit-identical"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The headline acceptance test: live reload during load drops zero
/// requests, and an unchanged model predicts bit-identically across the
/// swap.
#[test]
fn tcp_reload_under_load_drops_nothing_and_is_bit_identical() {
    let system = tiny_system();
    let root = unique_root("live");
    let (registry, _) = Registry::open(&root, 4).unwrap();
    let v1 = save_checkpoint(&registry, &system, "v1").unwrap();
    // v2 is the same model republished — the "retrain produced an
    // unchanged system" case where bit-identity must hold across the swap.
    let v2 = save_checkpoint(&registry, &load_checkpoint(&registry, v1).unwrap(), "v2").unwrap();

    let serving = load_checkpoint(&registry, v1).unwrap();
    let live = Arc::new(LiveSystem::new(serving, v1));
    let manager = ReloadManager::new(registry, Arc::clone(&live));
    let controller =
        Controller::serve_live("127.0.0.1:0", Arc::clone(&live), ServeConfig::default(), Some(manager))
            .unwrap();
    let addr = controller.addr();

    let req = fixed_request();
    let mut probe = ControllerClient::connect(addr).unwrap();
    let before = probe.predict(&req).unwrap().unwrap().seconds.to_bits();

    // Load generators: hammer predictions across the swap; every single
    // request must succeed (no sheds, no transport errors, no app errors).
    let stop = Arc::new(AtomicBool::new(false));
    let loadgen: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let req = req.clone();
            std::thread::spawn(move || -> Result<(usize, Vec<u64>), String> {
                let mut client =
                    ControllerClient::connect(addr).map_err(|e| e.to_string())?;
                let mut ok = 0usize;
                let mut bits = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let pred = client
                        .predict(&req)
                        .map_err(|e| format!("transport: {e}"))?
                        .map_err(|e| format!("app: {e}"))?;
                    bits.push(pred.seconds.to_bits());
                    ok += 1;
                }
                Ok((ok, bits))
            })
        })
        .collect();

    // Let the load run, then swap mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    let reply = probe.reload(Some(v2)).unwrap().expect("reload accepted");
    assert_eq!((reply.version, reply.previous, reply.epoch), (v2, v1, 1));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Release);

    let mut total = 0usize;
    for h in loadgen {
        let (ok, bits) = h.join().unwrap().expect("zero dropped/failed requests");
        total += ok;
        for b in bits {
            assert_eq!(b, before, "prediction drifted across the hot swap");
        }
    }
    assert!(total > 0, "load generators actually ran ({total} requests)");
    assert_eq!(controller.live_version(), v2);
    assert_eq!(controller.live_epoch(), 1);
    let after = probe.predict(&req).unwrap().unwrap().seconds.to_bits();
    assert_eq!(after, before, "unchanged model is bit-identical after reload");
    std::fs::remove_dir_all(&root).ok();
}

/// A candidate failing its golden probes is rejected over the wire with
/// the typed line; the old version keeps serving untouched.
#[test]
fn failing_probe_is_rejected_over_tcp_and_rolls_back() {
    let system = tiny_system();
    let root = unique_root("rollback");
    let (registry, _) = Registry::open(&root, 4).unwrap();
    let v1 = save_checkpoint(&registry, &system, "good").unwrap();
    // Poisoned candidate: valid system artifact, impossible probe.
    let system_json = registry.read_artifact(v1, SYSTEM_ARTIFACT).unwrap();
    let poisoned = vec![ProbeRecord::from_seconds("poisoned|probe", 987654.321)];
    let v2 = registry
        .publish("poisoned", &[(SYSTEM_ARTIFACT.to_string(), system_json)], &poisoned)
        .unwrap();

    let live = Arc::new(LiveSystem::new(load_checkpoint(&registry, v1).unwrap(), v1));
    let manager = ReloadManager::new(registry, Arc::clone(&live));
    let controller =
        Controller::serve_live("127.0.0.1:0", live, ServeConfig::default(), Some(manager)).unwrap();

    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    let req = fixed_request();
    let before = client.predict(&req).unwrap().unwrap().seconds.to_bits();

    let verdict = client.reload(Some(v2)).unwrap();
    let reason = verdict.expect_err("poisoned candidate must be rejected");
    assert!(
        reason.starts_with("probe_mismatch:"),
        "typed rejection reason, got: {reason}"
    );
    assert_eq!(controller.live_version(), v1, "rollback: v1 still live");
    assert_eq!(controller.live_epoch(), 0, "no swap happened");
    let after = client.predict(&req).unwrap().unwrap().seconds.to_bits();
    assert_eq!(after, before, "old model keeps serving, bit-identical");
    std::fs::remove_dir_all(&root).ok();
}

/// A controller without a registry answers the reload op with the typed
/// `no_registry` rejection instead of an untyped error.
#[test]
fn reload_without_registry_is_rejected_typed() {
    let controller = Controller::serve("127.0.0.1:0", tiny_system()).unwrap();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    assert_eq!(client.reload(None).unwrap(), Err("no_registry".to_string()));
    // The connection survives the rejection — it is a reply, not a hangup.
    assert!(client.predict(&fixed_request()).unwrap().is_ok());
}

/// Warm restart: a fresh process opening the registry gets the embedding
/// cache exactly as the publisher left it, so resident workloads skip the
/// GHN forward pass from the first request on.
#[test]
fn warm_restart_rehydrates_embedding_cache() {
    let system = tiny_system();
    let req = fixed_request();
    system.predict(&req).unwrap(); // warm one entry
    let warmed = system.cache.snapshot_entries();
    assert!(!warmed.is_empty(), "prediction warmed the cache");

    let root = unique_root("warm");
    let v = {
        let (reg, _) = Registry::open(&root, 4).unwrap();
        save_checkpoint(&reg, &system, "warm").unwrap()
    };
    // "New process": a fresh registry handle over the same root.
    let (reg, _) = Registry::open(&root, 4).unwrap();
    let restarted = load_checkpoint(&reg, v).unwrap();
    assert_eq!(restarted.cache.snapshot_entries(), warmed);
    let stats_before = restarted.cache.stats();
    restarted.predict(&req).unwrap();
    let stats_after = restarted.cache.stats();
    assert_eq!(
        stats_after.hits,
        stats_before.hits + 1,
        "first request after warm restart is a cache hit"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// `serve --watch-registry`: the poller notices a version published by an
/// external process handle and swaps to it without any wire op.
#[test]
fn watcher_auto_reloads_externally_published_version() {
    let system = tiny_system();
    let root = unique_root("watch");
    let (registry, _) = Registry::open(&root, 4).unwrap();
    let v1 = save_checkpoint(&registry, &system, "v1").unwrap();

    let live = Arc::new(LiveSystem::new(load_checkpoint(&registry, v1).unwrap(), v1));
    let manager = ReloadManager::new(registry, Arc::clone(&live));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = spawn_watcher(Arc::clone(&manager), Duration::from_millis(20), Arc::clone(&stop));

    // External retrainer: a separate handle over the same root.
    let (external, _) = Registry::open(&root, 4).unwrap();
    let v2 = save_checkpoint(&external, &system, "v2").unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while live.version() != v2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);
    watcher.join().unwrap();
    assert_eq!(live.version(), v2, "watcher swapped to the external publish");
    assert_eq!(live.epoch(), 1);
    std::fs::remove_dir_all(&root).ok();
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join("registry_manifest.json")
}

/// Deterministic sample manifest: every field class the format carries
/// (escaped label, multiple artifacts, probe bit patterns).
fn golden_manifest() -> Manifest {
    Manifest {
        format: FORMAT_VERSION,
        version: 42,
        created_unix: 1_722_470_400,
        label: "nightly \"retrain\" #7".to_string(),
        artifacts: vec![
            ArtifactEntry { name: "system.json".into(), len: 8192, fnv1a: 0xcbf2_9ce4_8422_2325 },
            ArtifactEntry { name: "embed_cache.json".into(), len: 517, fnv1a: 0x0100_0000_01b3_0000 },
        ],
        probes: vec![
            ProbeRecord::from_seconds("resnet18|cifar10|b128|e2|GpuP100x4", 1234.5625),
            ProbeRecord::from_seconds("vgg16|cifar10|b128|e2|CpuE5_2630x8", 0.1),
        ],
    }
}

/// Pins the on-disk manifest JSON byte-for-byte. A failing diff means the
/// checkpoint format changed: bump `FORMAT_VERSION` (old readers must
/// reject newer manifests) and regenerate with `PDDL_REGEN_GOLDEN=1`.
///
/// The fixture lost its `precision` line without a `FORMAT_VERSION` bump:
/// every v1 reader already parses a manifest without the key as f32, and
/// f32 is the only precision a writer can now publish.
#[test]
fn manifest_format_matches_golden_fixture() {
    let rendered = golden_manifest().to_json();
    let path = fixture_path();
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("registry manifest fixture regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        stored,
        rendered,
        "manifest rendering drifted from the pinned on-disk format \
         (intentional? bump FORMAT_VERSION and regenerate with PDDL_REGEN_GOLDEN=1)"
    );
    // And the pinned bytes still parse back to the same manifest.
    assert_eq!(Manifest::from_json(&stored).unwrap(), golden_manifest());
}

/// `json` as the parent format wrote it: with a `precision` line between
/// the label and the artifact list.
fn stamp_precision(json: &str, precision: &str) -> String {
    let stamped = json.replace(
        "  \"artifacts\"",
        &format!("  \"precision\": \"{precision}\",\n  \"artifacts\""),
    );
    assert_ne!(stamped, json, "artifacts line moved: {json}");
    stamped
}

/// Manifests come from disk: one a parent build stamped `"f32"` reads
/// back as exactly the manifest this build would have written.
#[test]
fn parent_format_f32_precision_round_trips() {
    let old = stamp_precision(&golden_manifest().to_json(), "f32");
    assert_eq!(Manifest::from_json(&old).unwrap(), golden_manifest());
}

/// Any other precision is refused by name — never served as f32 by guess.
#[test]
fn unsupported_precision_is_refused_with_reason() {
    let err = Manifest::from_json(&stamp_precision(&golden_manifest().to_json(), "bf16")).unwrap_err();
    assert!(err.contains("`precision`") && err.contains("\"bf16\""), "got: {err}");
}

/// A store holding an f32 version and a newer one a parent build published
/// at bf16 opens on the f32 one; the other goes to `quarantine/` intact
/// (its probes and cache snapshot were computed in arithmetic this build
/// cannot reproduce).
#[test]
fn open_quarantines_version_published_at_unsupported_precision() {
    let arts = raw_artifacts();
    let root = unique_root("precision");
    let (good, newer) = {
        let (reg, _) = Registry::open(&root, 0).unwrap();
        (reg.publish("f32", &arts, &[]).unwrap(), reg.publish("bf16", &arts, &[]).unwrap())
    };
    let manifest_path = root.join(format!("v{newer:04}")).join("manifest.json");
    let json = std::fs::read_to_string(&manifest_path).unwrap();
    std::fs::write(&manifest_path, stamp_precision(&json, "bf16")).unwrap();

    let (reg, report) = Registry::open(&root, 0).unwrap();
    assert_eq!(report.recovered, Some(good));
    assert_eq!(reg.latest(), Some(good));
    assert_eq!(report.quarantined.len(), 1);
    let (version, reason) = &report.quarantined[0];
    assert_eq!(*version, newer);
    assert!(reason.starts_with("manifest_invalid:") && reason.contains("precision"), "got: {reason}");
    let kept = root.join("quarantine").join(format!("v{newer:04}-manifest_invalid"));
    for (name, bytes) in &arts {
        assert_eq!(&std::fs::read(kept.join(name)).unwrap(), bytes, "{name} kept, not deleted");
    }
    std::fs::remove_dir_all(&root).ok();
}
