//! Persistence of trained systems: the single-file document and the
//! checkpoint format on top of the versioned registry.
//!
//! PredictDDL's value is amortization: the GHN and the regression model are
//! trained once and reused across sessions. [`PredictDdl::save`] /
//! [`PredictDdl::load`] write and read the entire trained system (GHN
//! weights per dataset, the embedding atlas, the fitted regression and its
//! scaler, the training trace) as one JSON document, rendered by the
//! workspace codec ([`pddl_telemetry::json`]) — deterministic bytes for a
//! given system, every float bit-exact through a round trip.
//!
//! A checkpoint version holds two artifacts: that same document
//! ([`SYSTEM_ARTIFACT`]) and a snapshot of the service-level embedding
//! cache ([`CACHE_ARTIFACT`]) so a warm restart starts with the cache
//! already populated instead of paying cold misses for every resident
//! workload.
//!
//! Each version's manifest also carries *validation probes*: a small,
//! deterministically chosen set of prediction requests replayed from the
//! system's own training trace, with the prediction recorded as exact
//! `f64` bit patterns at publish time. A reload candidate must reproduce
//! those predictions within tolerance before it is swapped live — an
//! unchanged model must reproduce them bit-identically.

use crate::embeddings::EmbeddingCache;
use crate::offline::PredictDdl;
use crate::request::PredictionRequest;
use pddl_registry::{Manifest, ProbeRecord, Registry, RegistryError};
use pddl_telemetry::json::{self, JsonError};
use std::io::{Read, Write};
use std::path::Path;

/// Artifact name of the serialized trained system inside a version.
pub const SYSTEM_ARTIFACT: &str = "system.json";
/// Artifact name of the embedding-cache snapshot inside a version.
pub const CACHE_ARTIFACT: &str = "embed_cache.json";
/// Default number of validation probes stamped into a manifest.
pub const DEFAULT_PROBES: usize = 4;

/// Failures while saving or loading a system, as a file or a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem read/write failure on a system file.
    Io(std::io::Error),
    /// Registry-level failure (I/O, corruption, missing version/artifact).
    Registry(RegistryError),
    /// The system or cache payload failed to encode (a non-finite weight)
    /// or to decode.
    Json(JsonError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Registry(e) => write!(f, "registry: {e}"),
            CheckpointError::Json(e) => write!(f, "serialization: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RegistryError> for CheckpointError {
    fn from(e: RegistryError) -> Self {
        CheckpointError::Registry(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

impl PredictDdl {
    /// Serializes the trained system to a writer as JSON.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        Ok(w.write_all(json::to_string(self)?.as_bytes())?)
    }

    /// Saves to a file path atomically: the document is staged in a
    /// sibling tempfile, fsynced, and renamed over `path`, so a crash
    /// mid-save can never leave a torn system file behind — a reader sees
    /// the old document or the new one, nothing in between.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let doc = json::to_string(self)?;
        Ok(pddl_registry::atomic_write(path.as_ref(), doc.as_bytes())?)
    }

    /// Deserializes a trained system from a reader.
    pub fn load_from(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        Ok(json::from_str(&buf)?)
    }

    /// Loads from a file path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::load_from(&mut std::fs::File::open(path)?)
    }
}

/// Serialized form of the embedding cache: the completed entries, in
/// deterministic order, small enough to rehydrate with [`EmbeddingCache::preload`].
struct CacheSnapshot {
    entries: Vec<CacheEntry>,
}

pddl_telemetry::json_struct!(CacheSnapshot { entries });

struct CacheEntry {
    dataset: String,
    fingerprint: u64,
    embedding: Vec<f32>,
}

pddl_telemetry::json_struct!(CacheEntry { dataset, fingerprint, embedding });

fn snapshot_cache(cache: &EmbeddingCache) -> CacheSnapshot {
    CacheSnapshot {
        entries: cache
            .snapshot_entries()
            .into_iter()
            .map(|(dataset, fingerprint, embedding)| CacheEntry { dataset, fingerprint, embedding })
            .collect(),
    }
}

/// Derives the validation-probe request set from the system's own training
/// trace: the first `max` distinct `(model, dataset, batch, epochs,
/// cluster)` combinations, each with a stable display key. Deterministic
/// for a given system, so publish-time and reload-time derivations agree.
pub fn probe_requests(system: &PredictDdl, max: usize) -> Vec<(String, PredictionRequest)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for rec in &system.records {
        if out.len() >= max {
            break;
        }
        let key = format!(
            "{}|{}|b{}|e{}|{:?}x{}",
            rec.workload.model,
            rec.workload.dataset,
            rec.workload.batch_size,
            rec.workload.epochs,
            rec.server_class,
            rec.num_servers
        );
        if !seen.insert(key.clone()) {
            continue;
        }
        out.push((key, PredictionRequest::zoo(rec.workload.clone(), rec.cluster())));
    }
    out
}

/// Runs the probe set against `system` and records each prediction as
/// exact bits. A probe whose prediction *errors* is skipped — it cannot
/// gate reloads it can't reproduce deterministically.
pub fn probe_records(system: &PredictDdl, max: usize) -> Vec<ProbeRecord> {
    probe_requests(system, max)
        .into_iter()
        .filter_map(|(key, req)| {
            system
                .predict(&req)
                .ok()
                .map(|p| ProbeRecord::from_seconds(&key, p.seconds))
        })
        .collect()
}

/// Replays `manifest`'s probes against `candidate` and checks each
/// prediction lands within `tolerance` seconds of the recorded value
/// (bit-equal always passes, so `tolerance == 0.0` demands exactness).
///
/// Returns the first mismatch as a human-readable reason. A manifest with
/// no probes passes vacuously — old checkpoints stay loadable.
pub fn validate_probes(
    candidate: &PredictDdl,
    manifest: &Manifest,
    tolerance: f64,
) -> Result<(), String> {
    if manifest.probes.is_empty() {
        return Ok(());
    }
    let replayed: std::collections::BTreeMap<String, u64> =
        probe_records(candidate, manifest.probes.len())
            .into_iter()
            .map(|p| (p.key, p.seconds_bits))
            .collect();
    for probe in &manifest.probes {
        let bits = match replayed.get(&probe.key) {
            Some(bits) => *bits,
            None => return Err(format!("probe {:?} not reproducible by candidate", probe.key)),
        };
        if bits == probe.seconds_bits {
            continue;
        }
        let diff = (f64::from_bits(bits) - probe.seconds()).abs();
        if !diff.is_finite() || diff > tolerance {
            return Err(format!(
                "probe {:?} drifted: recorded {:016x}, candidate {:016x}",
                probe.key, probe.seconds_bits, bits
            ));
        }
    }
    Ok(())
}

/// Publishes `system` (plus its current embedding-cache contents and a
/// fresh probe set) as a new registry version. Returns the version number.
pub fn save_checkpoint(
    registry: &Registry,
    system: &PredictDdl,
    label: &str,
) -> Result<u64, CheckpointError> {
    let system_json = json::to_string(system)?.into_bytes();
    let cache_json = json::to_string(&snapshot_cache(&system.cache))?.into_bytes();
    let probes = probe_records(system, DEFAULT_PROBES);
    let artifacts = vec![
        (SYSTEM_ARTIFACT.to_string(), system_json),
        (CACHE_ARTIFACT.to_string(), cache_json),
    ];
    Ok(registry.publish(label, &artifacts, &probes)?)
}

/// Loads the system stored at `version`, rehydrating its embedding cache
/// from the snapshot artifact. Content hashes are re-verified by the
/// registry on every read, so a torn or bit-flipped artifact surfaces
/// here as an error instead of as a silently wrong model.
pub fn load_checkpoint(registry: &Registry, version: u64) -> Result<PredictDdl, CheckpointError> {
    // Content hashes were verified by read_artifact, so the bytes are the
    // published ones — which were valid UTF-8 JSON by construction.
    let system_json = registry.read_artifact(version, SYSTEM_ARTIFACT)?;
    let system: PredictDdl = json::from_str(&String::from_utf8_lossy(&system_json))?;
    match registry.read_artifact(version, CACHE_ARTIFACT) {
        Ok(cache_json) => {
            let snap: CacheSnapshot = json::from_str(&String::from_utf8_lossy(&cache_json))?;
            for entry in snap.entries {
                system.cache.preload(&entry.dataset, entry.fingerprint, entry.embedding);
            }
        }
        // A version written by an external tool may omit the cache
        // snapshot; the system still serves, just cold.
        Err(RegistryError::NoSuchArtifact { .. }) => {}
        Err(e) => return Err(e.into()),
    }
    Ok(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflineTrainer;
    use pddl_cluster::{ClusterState, ServerClass};
    use pddl_ddlsim::Workload;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unique_root(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "pddl-core-ckpt-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions_bit_exactly() {
        let system = OfflineTrainer::tiny().train_full();
        let root = unique_root("roundtrip");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v = save_checkpoint(&registry, &system, "test").unwrap();
        let loaded = load_checkpoint(&registry, v).unwrap();

        for (key, req) in probe_requests(&system, DEFAULT_PROBES) {
            let a = system.predict(&req).unwrap().seconds;
            let b = loaded.predict(&req).unwrap().seconds;
            assert_eq!(a.to_bits(), b.to_bits(), "probe {key} drifted through checkpoint");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn probes_are_deterministic_and_validate_against_self() {
        let system = OfflineTrainer::tiny().train_full();
        let a = probe_records(&system, DEFAULT_PROBES);
        let b = probe_records(&system, DEFAULT_PROBES);
        assert!(!a.is_empty(), "tiny trainer yields at least one probe");
        assert_eq!(a, b, "probe derivation is deterministic");

        let root = unique_root("validate");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v = save_checkpoint(&registry, &system, "test").unwrap();
        let manifest = registry.manifest(v).unwrap();
        let loaded = load_checkpoint(&registry, v).unwrap();
        validate_probes(&loaded, &manifest, 0.0).expect("unchanged model passes at zero tolerance");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tampered_probe_is_rejected() {
        let system = OfflineTrainer::tiny().train_full();
        let root = unique_root("tamper");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v = save_checkpoint(&registry, &system, "test").unwrap();
        let mut manifest = registry.manifest(v).unwrap();
        let probe = &mut manifest.probes[0];
        probe.seconds_bits = ProbeRecord::from_seconds("x", probe.seconds() * 2.0 + 1.0).seconds_bits;
        let loaded = load_checkpoint(&registry, v).unwrap();
        let err = validate_probes(&loaded, &manifest, 1e-9).unwrap_err();
        assert!(err.contains("drifted"), "got: {err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cache_snapshot_rehydrates_on_load() {
        let system = OfflineTrainer::tiny().train_full();
        // Warm the cache through a real prediction, then checkpoint.
        let (_, req) = probe_requests(&system, 1).pop().expect("one probe");
        system.predict(&req).unwrap();
        assert!(!system.cache.snapshot_entries().is_empty(), "prediction warmed the cache");

        let root = unique_root("cache");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v = save_checkpoint(&registry, &system, "test").unwrap();
        let loaded = load_checkpoint(&registry, v).unwrap();
        assert_eq!(
            loaded.cache.snapshot_entries(),
            system.cache.snapshot_entries(),
            "warm restart starts with the publisher's cache contents"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let system = OfflineTrainer::tiny().train_full();
        let req = PredictionRequest::zoo(
            Workload::new("resnet18", "cifar10", 128, 2),
            ClusterState::homogeneous(ServerClass::GpuP100, 4),
        );
        let before = system.predict(&req).unwrap().seconds;

        let mut buf = Vec::new();
        system.save_to(&mut buf).unwrap();
        let loaded = PredictDdl::load_from(&mut buf.as_slice()).unwrap();
        let after = loaded.predict(&req).unwrap().seconds;
        assert!(
            (before - after).abs() < 1e-9,
            "prediction drifted through persistence: {before} vs {after}"
        );
    }

    /// Saving is a pure function of the system: the same bytes every time
    /// (maps are written in sorted key order), and a loaded system saves
    /// back to exactly the bytes it was loaded from.
    #[test]
    fn save_is_deterministic_and_a_fixed_point_of_load() {
        let system = OfflineTrainer::tiny().train_full();
        let (mut first, mut second, mut reloaded) = (Vec::new(), Vec::new(), Vec::new());
        system.save_to(&mut first).unwrap();
        system.save_to(&mut second).unwrap();
        assert!(first == second, "two saves of one system differ");
        PredictDdl::load_from(&mut first.as_slice()).unwrap().save_to(&mut reloaded).unwrap();
        assert!(reloaded == first, "load then save changed the document");
    }

    /// A NaN weight must fail the save, not load back as something else.
    #[test]
    fn non_finite_weight_fails_the_save() {
        let mut system = OfflineTrainer::tiny().train_full();
        system.train_cost.fit_secs = f64::NAN;
        let err = system.save_to(&mut Vec::new()).unwrap_err();
        assert!(matches!(err, CheckpointError::Json(JsonError::NonFinite)), "{err}");
        let root = unique_root("nan");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        assert!(save_checkpoint(&registry, &system, "nan").is_err());
        assert!(registry.versions().is_empty(), "a failed encode published nothing");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn loaded_system_keeps_atlas() {
        let system = OfflineTrainer::tiny().train_full();
        let n = system.embeddings.atlas_size("cifar10");
        assert!(n > 0);
        let mut buf = Vec::new();
        system.save_to(&mut buf).unwrap();
        let loaded = PredictDdl::load_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.embeddings.atlas_size("cifar10"), n);
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let garbage = b"not a system";
        let r = PredictDdl::load_from(&mut garbage.as_slice());
        assert!(r.is_err());
    }

    /// Per-test scratch directory: unique per process *and* per call, so
    /// parallel tests (and parallel `cargo test` invocations) never race
    /// on a shared path.
    fn unique_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pddl-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip() {
        let system = OfflineTrainer::tiny().train_full();
        let dir = unique_dir("round-trip");
        let path = dir.join("system.json");
        system.save(&path).unwrap();
        let loaded = PredictDdl::load(&path).unwrap();
        assert_eq!(
            loaded.registry.datasets().count(),
            system.registry.datasets().count()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let system = OfflineTrainer::tiny().train_full();
        let dir = unique_dir("atomic");
        let path = dir.join("system.json");
        std::fs::write(&path, b"stale garbage from a previous run").unwrap();
        system.save(&path).unwrap();
        let loaded = PredictDdl::load(&path).unwrap();
        assert_eq!(
            loaded.registry.datasets().count(),
            system.registry.datasets().count()
        );
        assert!(
            !dir.join("system.json.tmp").exists(),
            "staging tempfile renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
