//! Registry tier: crash/torn-write recovery of the checkpoint store,
//! zero-downtime hot reload over real TCP, probe-gated rollback, warm
//! restart of the embedding cache, and the golden manifest fixture
//! pinning the on-disk format.
//!
//! Regenerate the manifest fixture (after an intentional format change)
//! with `PDDL_REGEN_GOLDEN=1 cargo test --test registry`.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::Workload;
use pddl_registry::{ArtifactEntry, Manifest, ProbeRecord, Registry, FORMAT_VERSION};
use pddl_tensor::Rng;
use predictddl::{
    load_checkpoint, save_checkpoint, spawn_watcher, Controller, ControllerClient, LiveSystem,
    OfflineTrainer, PredictDdl, PredictionRequest, ReloadManager, ServeConfig, SYSTEM_ARTIFACT,
};
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
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
    let _ = fs::remove_dir_all(&d);
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

/// Raw (non-checkpoint) artifact set for fast crash sweeps.
fn raw_artifacts() -> Vec<(String, Vec<u8>)> {
    vec![
        ("system.json".to_string(), (0..2048u32).flat_map(|i| i.to_le_bytes()).collect()),
        ("embed_cache.json".to_string(), vec![7u8; 513]),
    ]
}

/// Where a publish dies, by the step of the commit protocol it dies in
/// (`crates/registry/src/store.rs`: each artifact in list order via
/// tempfile → fsync → rename, `manifest.json` last). A cut length is taken
/// modulo the file's length — modulo one less for the manifest, so its
/// closing brace is always lost — so any seed-drawn value is a real tear.
#[derive(Clone, Copy, Debug)]
enum Cut {
    /// Dies writing artifact `artifact`: its `<name>.tmp` holds `keep`
    /// bytes; the later artifacts and the manifest were never written.
    TornTmp { artifact: usize, keep: usize },
    /// Every artifact committed, the manifest never written.
    NoManifest,
    /// The manifest renamed into place holding only `keep` bytes (a file
    /// system that reorders data against metadata).
    TornManifest { keep: usize },
    /// Artifact `artifact` renamed into place holding only `keep` bytes
    /// while the manifest records its full length and hash.
    TornArtifact { artifact: usize, keep: usize },
    /// The publish completed, then one bit of artifact `artifact` flipped
    /// at byte `offset` (latent media corruption).
    BitFlip { artifact: usize, offset: usize },
}

impl Cut {
    /// The cut `seed` picks for a version of `artifacts` files: same seed,
    /// same debris.
    fn pick(seed: u64, artifacts: usize) -> Cut {
        let mut rng = Rng::new(seed);
        let (kind, artifact, cut) = (rng.below(5), rng.below(artifacts), rng.next_u64() as usize);
        match kind {
            0 => Cut::TornTmp { artifact, keep: cut },
            1 => Cut::NoManifest,
            2 => Cut::TornManifest { keep: cut },
            3 => Cut::TornArtifact { artifact, keep: cut },
            _ => Cut::BitFlip { artifact, offset: cut },
        }
    }
}

/// Cuts `version`, which a real `publish` just wrote, back to the disk
/// state a crash at `cut` leaves.
fn cut_back(reg: &Registry, version: u64, cut: Cut) {
    let dir = reg.root().join(format!("v{version:04}"));
    let names: Vec<String> =
        reg.manifest(version).expect("published").artifacts.into_iter().map(|a| a.name).collect();
    let manifest = dir.join("manifest.json");
    let tear = |path: &Path, keep: usize, spare: usize| {
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..keep % (bytes.len() - spare)]).unwrap();
    };
    match cut {
        Cut::TornTmp { artifact, keep } => {
            fs::remove_file(&manifest).unwrap();
            for name in &names[artifact + 1..] {
                fs::remove_file(dir.join(name)).unwrap();
            }
            let tmp = dir.join(format!("{}.tmp", names[artifact]));
            fs::rename(dir.join(&names[artifact]), &tmp).unwrap();
            tear(&tmp, keep, 0);
        }
        Cut::NoManifest => fs::remove_file(&manifest).unwrap(),
        Cut::TornManifest { keep } => tear(&manifest, keep, 1),
        Cut::TornArtifact { artifact, keep } => tear(&dir.join(&names[artifact]), keep, 0),
        Cut::BitFlip { artifact, offset } => {
            let path = dir.join(&names[artifact]);
            let mut bytes = fs::read(&path).unwrap();
            let at = offset % bytes.len();
            bytes[at] ^= 1;
            fs::write(&path, bytes).unwrap();
        }
    }
}

/// Every file directly in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Publishes `good_versions` versions of `arts`, then one cut back by
/// `cut`, restarts on the store, and asserts the recovery contract: the
/// newest verifiable version is recovered and content-verifies, the debris
/// is quarantined with every byte kept, and the doomed version number is
/// never reused.
fn assert_recovers_from(cut: Cut, arts: &[(String, Vec<u8>)], good_versions: usize) {
    let root = unique_root("cut");
    let (good, doomed, debris) = {
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let good = (0..good_versions).map(|i| reg.publish(&format!("good-{i}"), arts, &[]).unwrap()).last();
        let doomed = reg.publish("doomed", arts, &[]).unwrap();
        assert!(Some(doomed) > good, "{cut:?}: doomed version is newer");
        cut_back(&reg, doomed, cut);
        (good.expect("a good version"), doomed, files(&root.join(format!("v{doomed:04}"))))
    };
    // Process restart: recovery must land on the last good version.
    let (reg, report) = Registry::open(&root, 0).unwrap();
    assert_eq!(report.recovered, Some(good), "{cut:?}: newest verifiable version recovered");
    assert_eq!(reg.latest(), Some(good), "{cut:?}");
    for (name, bytes) in arts {
        assert_eq!(&reg.read_artifact(good, name).unwrap(), bytes, "{cut:?}: {name} content-verified");
    }
    assert_eq!(report.quarantined.len(), 1, "{cut:?}: {:?}", report.quarantined);
    assert_eq!(report.quarantined[0].0, doomed, "{cut:?}");
    let quarantine: Vec<PathBuf> =
        fs::read_dir(root.join("quarantine")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(quarantine.len(), 1, "{cut:?}: {quarantine:?}");
    let mut kept = files(&quarantine[0]);
    assert!(kept.remove("QUARANTINE_REASON").is_some(), "{cut:?}");
    assert_eq!(kept, debris, "{cut:?}: debris quarantined, none of it deleted");
    let next = reg.publish("after", arts, &[]).unwrap();
    assert!(next > doomed, "{cut:?}: {next} reuses the doomed v{doomed}");
    fs::remove_dir_all(&root).ok();
}

/// The acceptance sweep: for every seed, a real publish cut back to the
/// debris of the seed's crash leaves the registry recoverable — a fresh
/// open() (the "process restart") lands on the newest *verifiable*
/// version, quarantines the debris without deleting any of it, and never
/// hands the doomed number out again. 100% of seeds, no exceptions, and
/// the seeds reach all five kinds of debris.
#[test]
fn open_recovers_newest_verifiable_version_for_every_seed() {
    let arts = raw_artifacts();
    let mut kinds = HashSet::new();
    for seed in 0..32u64 {
        let cut = Cut::pick(seed, arts.len());
        kinds.insert(std::mem::discriminant(&cut));
        assert_recovers_from(cut, &arts, 2);
    }
    assert_eq!(kinds.len(), 5, "32 seeds reach every kind of debris");
}

/// Each kind of debris, cut at a fixed place in a three-artifact version.
#[test]
fn every_crash_point_is_recovered_from() {
    let arts: Vec<(String, Vec<u8>)> = (0..3u8)
        .map(|i| (format!("part{i}.bin"), (0..64u8).map(|b| b.wrapping_add(i)).collect()))
        .collect();
    for cut in [
        Cut::TornTmp { artifact: 1, keep: 10 },
        Cut::NoManifest,
        Cut::TornManifest { keep: 20 },
        Cut::TornArtifact { artifact: 2, keep: 5 },
        Cut::BitFlip { artifact: 0, offset: 7 },
    ] {
        assert_recovers_from(cut, &arts, 1);
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
        // The "new model" dies mid-write in the worst way: `system.json`
        // is committed torn while the manifest records the full hash —
        // only content verification can catch it.
        let v2 = save_checkpoint(&reg, &system, "killed").unwrap();
        let manifest = reg.manifest(v2).unwrap();
        let artifact =
            manifest.artifacts.iter().position(|a| a.name == SYSTEM_ARTIFACT).expect("system.json");
        let keep = manifest.artifacts[artifact].len as usize / 2;
        cut_back(&reg, v2, Cut::TornArtifact { artifact, keep });
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
    fs::remove_dir_all(&root).ok();
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
    fs::remove_dir_all(&root).ok();
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
    fs::remove_dir_all(&root).ok();
}

/// Rollback across the format bumps: versions a format-1 and a format-2
/// build published (manifest `"format": 1` / `2`; their system artifacts
/// `system_v1.json`, each GHN with its decoder, and `system_v2.json`, each
/// layer's parameter ids beside the store) still open, load and go live
/// over `{"op":"reload"}`, and the format-3 version comes back after each.
#[test]
fn reload_rolls_back_to_a_format_1_version_and_forward_again() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let root = unique_root("format1");
    let (old, new) = {
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let old = [1, 2].map(|format| {
            let system = fs::read(fixtures.join(format!("system_v{format}.json"))).unwrap();
            let v = reg.publish(&format!("format-{format}"), &[(SYSTEM_ARTIFACT.to_string(), system)], &[]).unwrap();
            (format, v)
        });
        (old, save_checkpoint(&reg, &tiny_system(), "format-3").unwrap())
    };
    for (format, v) in old {
        let manifest_path = root.join(format!("v{v:04}")).join("manifest.json");
        let json = fs::read_to_string(&manifest_path).unwrap();
        let stamped = json.replacen(&format!("\"format\": {FORMAT_VERSION}"), &format!("\"format\": {format}"), 1);
        assert_ne!(stamped, json, "format line moved: {json}");
        fs::write(&manifest_path, stamped).unwrap();
    }

    let (registry, report) = Registry::open(&root, 0).unwrap();
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    for (format, v) in old {
        assert_eq!(registry.manifest(v).map(|m| m.format), Some(format));
    }
    let live = Arc::new(LiveSystem::new(load_checkpoint(&registry, new).unwrap(), new));
    let manager = ReloadManager::new(registry, Arc::clone(&live));
    let controller =
        Controller::serve_live("127.0.0.1:0", Arc::clone(&live), ServeConfig::default(), Some(manager)).unwrap();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();

    for (format, v) in old {
        let back = client.reload(Some(v)).unwrap().unwrap_or_else(|e| panic!("format-{format} version reloads: {e}"));
        assert_eq!((back.version, back.previous), (v, new));
        assert_eq!(controller.live_version(), v);
        assert!(live.pin().registry.has("cifar10"), "format-{format} GHN is served");
        let forward = client.reload(Some(new)).unwrap().expect("format-3 version reloads");
        assert_eq!((forward.version, forward.previous), (new, v));
        assert!(client.predict(&fixed_request()).unwrap().is_ok());
    }
    fs::remove_dir_all(&root).ok();
}

/// A controller without a registry answers the reload op with the typed
/// `no_registry` rejection instead of an untyped error.
#[test]
fn reload_without_registry_is_rejected_typed() {
    let controller = Controller::serve("127.0.0.1:0", tiny_system()).unwrap();
    let mut client = ControllerClient::connect(controller.addr()).unwrap();
    let reloads = |client: &mut ControllerClient| {
        client.stats().unwrap().snapshot.counter("controller.reload_requests").unwrap_or(0)
    };
    let before = reloads(&mut client);
    assert_eq!(client.reload(None).unwrap(), Err("no_registry".to_string()));
    // A rejected reload is still a reload request (the registry is
    // process-global, so other tests may add to the count too).
    assert!(reloads(&mut client) > before, "controller.reload_requests did not count");
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
    fs::remove_dir_all(&root).ok();
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
    fs::remove_dir_all(&root).ok();
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
        fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        fs::write(&path, &rendered).unwrap();
        eprintln!("registry manifest fixture regenerated — commit the fixture diff");
        return;
    }
    let stored = fs::read_to_string(&path).unwrap_or_else(|e| {
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
    let json = fs::read_to_string(&manifest_path).unwrap();
    fs::write(&manifest_path, stamp_precision(&json, "bf16")).unwrap();

    let (reg, report) = Registry::open(&root, 0).unwrap();
    assert_eq!(report.recovered, Some(good));
    assert_eq!(reg.latest(), Some(good));
    assert_eq!(report.quarantined.len(), 1);
    let (version, reason) = &report.quarantined[0];
    assert_eq!(*version, newer);
    assert!(reason.starts_with("manifest_invalid:") && reason.contains("precision"), "got: {reason}");
    let kept = root.join("quarantine").join(format!("v{newer:04}-manifest_invalid"));
    for (name, bytes) in &arts {
        assert_eq!(&fs::read(kept.join(name)).unwrap(), bytes, "{name} kept, not deleted");
    }
    fs::remove_dir_all(&root).ok();
}
