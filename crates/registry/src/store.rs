//! The versioned store: `vNNNN/` directories under a root, recovery on
//! open, retention, and pinning.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   v0001/
//!     manifest.json      # commit record, written last
//!     system.json        # artifacts named by the publisher
//!     cache.json
//!   v0002/ ...
//!   quarantine/
//!     v0003-torn_manifest/   # versions that failed verification on open
//! ```
//!
//! ## Commit protocol
//!
//! [`Registry::publish`] claims the next version number by atomically
//! creating the `vNNNN` directory (`create_dir` is the mutual exclusion —
//! two concurrent writers can never claim the same number), commits each
//! artifact via tempfile → fsync → rename, then writes `manifest.json`
//! the same way. The manifest rename is the commit point: a crash at any
//! earlier step leaves a directory without a verifiable manifest, which
//! [`Registry::open`] quarantines.
//!
//! ## Recovery
//!
//! `open` verifies every version end-to-end (manifest parses, format is
//! supported, every artifact exists with the recorded length and FNV-1a
//! hash) and moves failures into `quarantine/` with a reason suffix.
//! Nothing is deleted during recovery — quarantined debris stays
//! inspectable. The newest surviving version is reported as `recovered`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pddl_telemetry::{tlog, Level};

use crate::manifest::{ArtifactEntry, Manifest, ProbeRecord, FORMAT_VERSION};
use crate::writer::{self, atomic_write, sync_parent, CrashPoint};
use crate::fnv1a;

/// File name of the per-version commit record.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Subdirectory receiving versions that failed verification.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A version exists but fails verification (hash/length mismatch).
    Corrupt {
        /// The version that failed verification.
        version: u64,
        /// Human-readable mismatch description.
        reason: String,
    },
    /// The requested version is not present (or was quarantined).
    NoSuchVersion(u64),
    /// The version exists but does not contain the named artifact.
    NoSuchArtifact {
        /// Version that was consulted.
        version: u64,
        /// Artifact name that was requested.
        name: String,
    },
    /// The registry has no verifiable versions.
    Empty,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry io error: {e}"),
            RegistryError::Corrupt { version, reason } => {
                write!(f, "registry version v{version} corrupt: {reason}")
            }
            RegistryError::NoSuchVersion(v) => write!(f, "registry has no version v{v}"),
            RegistryError::NoSuchArtifact { version, name } => {
                write!(f, "registry version v{version} has no artifact `{name}`")
            }
            RegistryError::Empty => write!(f, "registry has no verifiable versions"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// What [`Registry::open`] found and repaired.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Newest verifiable version, if any — the one a serving process
    /// should load.
    pub recovered: Option<u64>,
    /// Versions moved to `quarantine/`, with the verification failure.
    pub quarantined: Vec<(u64, String)>,
    /// Stray `.tmp` files swept out of otherwise-valid version dirs.
    pub swept_tmp: usize,
}

struct State {
    versions: BTreeMap<u64, Manifest>,
    pinned: BTreeSet<u64>,
}

/// A versioned artifact store rooted at one directory.
///
/// All methods take `&self`; an `Arc<Registry>` can be shared between the
/// serving threads and a reload watcher. In-process publishes are
/// serialized per handle by an internal mutex; cross-handle (or
/// cross-process) publishers stay correct because the version number is
/// claimed via atomic directory creation.
pub struct Registry {
    root: PathBuf,
    retain: usize,
    state: Mutex<State>,
}

struct Metrics {
    publishes: &'static pddl_telemetry::Counter,
    quarantined: &'static pddl_telemetry::Counter,
    collected: &'static pddl_telemetry::Counter,
    verify_failures: &'static pddl_telemetry::Counter,
    versions: &'static pddl_telemetry::Gauge,
    latest: &'static pddl_telemetry::Gauge,
    publish_latency: &'static pddl_telemetry::Histogram,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        publishes: pddl_telemetry::counter("registry.publishes"),
        quarantined: pddl_telemetry::counter("registry.quarantined"),
        collected: pddl_telemetry::counter("registry.collected"),
        verify_failures: pddl_telemetry::counter("registry.verify_failures"),
        versions: pddl_telemetry::gauge("registry.versions"),
        latest: pddl_telemetry::gauge("registry.latest_version"),
        publish_latency: pddl_telemetry::histogram("registry.publish_latency"),
    })
}

impl Registry {
    /// Opens (creating if absent) the registry at `root`, verifying every
    /// version and quarantining the ones that fail.
    ///
    /// `retain` is the retention width: after each publish, only the
    /// newest `retain` versions (plus any pinned ones) are kept.
    /// `retain == 0` disables collection entirely.
    pub fn open(
        root: impl AsRef<Path>,
        retain: usize,
    ) -> Result<(Registry, RecoveryReport), RegistryError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let mut report = RecoveryReport::default();
        let mut versions = BTreeMap::new();
        let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(v) = parse_version_dir(&name) {
                candidates.push((v, entry.path()));
            }
        }
        candidates.sort();
        for (version, dir) in candidates {
            match verify_version(&dir, version, &mut report.swept_tmp) {
                Ok(manifest) => {
                    versions.insert(version, manifest);
                }
                Err(reason) => {
                    metrics().quarantined.inc();
                    tlog!(
                        Level::Warn,
                        "registry",
                        "quarantining unverifiable version",
                        version = version,
                        reason = reason.as_str(),
                    );
                    quarantine(&root, &dir, version, &reason)?;
                    report.quarantined.push((version, reason));
                }
            }
        }
        report.recovered = versions.keys().next_back().copied();
        let reg = Registry {
            root,
            retain,
            state: Mutex::new(State {
                versions,
                pinned: BTreeSet::new(),
            }),
        };
        reg.refresh_gauges();
        Ok((reg, report))
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Re-scans the root for versions published since [`Registry::open`]
    /// (e.g. by a separate retraining process), verifying each and
    /// quarantining failures exactly like open does. Returns the newly
    /// visible version numbers, ascending. Versions already known are left
    /// untouched.
    pub fn rescan(&self) -> Result<Vec<u64>, RegistryError> {
        let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
        {
            let st = self.lock();
            for entry in fs::read_dir(&self.root)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(v) = parse_version_dir(&name) {
                    if !st.versions.contains_key(&v) {
                        candidates.push((v, entry.path()));
                    }
                }
            }
        }
        candidates.sort();
        let mut swept = 0usize;
        let mut fresh = Vec::new();
        for (version, dir) in candidates {
            match verify_version(&dir, version, &mut swept) {
                Ok(manifest) => {
                    self.lock().versions.insert(version, manifest);
                    fresh.push(version);
                }
                Err(reason) => {
                    // A concurrent publisher may still be mid-write: its
                    // directory exists but the manifest hasn't landed yet.
                    // Leave it alone — only a *failed* publish becomes
                    // debris, and open() handles that on next restart.
                    tlog!(
                        Level::Debug,
                        "registry",
                        "rescan skipping unverifiable version",
                        version = version,
                        reason = reason.as_str(),
                    );
                }
            }
        }
        if !fresh.is_empty() {
            self.refresh_gauges();
        }
        Ok(fresh)
    }

    /// Newest verifiable version, if any.
    pub fn latest(&self) -> Option<u64> {
        self.lock().versions.keys().next_back().copied()
    }

    /// All verifiable versions, ascending.
    pub fn versions(&self) -> Vec<u64> {
        self.lock().versions.keys().copied().collect()
    }

    /// The manifest of `version`, if present.
    pub fn manifest(&self, version: u64) -> Option<Manifest> {
        self.lock().versions.get(&version).cloned()
    }

    /// Currently pinned versions, ascending.
    pub fn pinned(&self) -> Vec<u64> {
        self.lock().pinned.iter().copied().collect()
    }

    /// Pins `version` so retention never collects it (e.g. because a
    /// serving process has it live).
    pub fn pin(&self, version: u64) -> Result<(), RegistryError> {
        let mut st = self.lock();
        if !st.versions.contains_key(&version) {
            return Err(RegistryError::NoSuchVersion(version));
        }
        st.pinned.insert(version);
        Ok(())
    }

    /// Removes a pin; the version becomes collectible again.
    pub fn unpin(&self, version: u64) {
        self.lock().pinned.remove(&version);
    }

    /// Publishes a new version containing `artifacts`, stamped with the
    /// current wall-clock time. Returns the committed version number.
    pub fn publish(
        &self,
        label: &str,
        artifacts: &[(String, Vec<u8>)],
        probes: &[ProbeRecord],
    ) -> Result<u64, RegistryError> {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.publish_at(now, label, artifacts, probes)
    }

    /// [`Registry::publish`] with an explicit `created_unix` timestamp,
    /// for deterministic tests and golden fixtures.
    pub fn publish_at(
        &self,
        created_unix: u64,
        label: &str,
        artifacts: &[(String, Vec<u8>)],
        probes: &[ProbeRecord],
    ) -> Result<u64, RegistryError> {
        let start = Instant::now();
        let (version, dir) = self.claim_version()?;
        let mut entries = Vec::with_capacity(artifacts.len());
        for (name, bytes) in artifacts {
            atomic_write(&dir.join(name), bytes)?;
            entries.push(ArtifactEntry {
                name: name.clone(),
                len: bytes.len() as u64,
                fnv1a: fnv1a(bytes),
            });
        }
        let manifest = Manifest {
            format: FORMAT_VERSION,
            version,
            created_unix,
            label: label.to_string(),
            artifacts: entries,
            probes: probes.to_vec(),
        };
        atomic_write(&dir.join(MANIFEST_FILE), manifest.to_json().as_bytes())?;
        sync_parent(&dir)?;
        {
            let mut st = self.lock();
            st.versions.insert(version, manifest);
        }
        metrics().publishes.inc();
        metrics().publish_latency.record_duration(start.elapsed());
        self.collect()?;
        self.refresh_gauges();
        tlog!(
            Level::Info,
            "registry",
            "published checkpoint",
            version = version,
            label = label,
        );
        Ok(version)
    }

    /// Simulates a publish interrupted by `crash` (for the recovery test
    /// tier): performs the staged write exactly as [`Registry::publish`]
    /// would, but stops at — or corrupts according to — the crash point,
    /// leaving the corresponding on-disk debris. The in-memory state is
    /// *not* updated, modeling process death; reopen the registry to
    /// observe recovery. Returns the version number the doomed publish
    /// had claimed.
    pub fn publish_crashing(
        &self,
        label: &str,
        artifacts: &[(String, Vec<u8>)],
        crash: CrashPoint,
    ) -> Result<u64, RegistryError> {
        let (version, dir) = self.claim_version()?;
        let mut entries = Vec::with_capacity(artifacts.len());
        for (i, (name, bytes)) in artifacts.iter().enumerate() {
            match crash {
                CrashPoint::TornTmp { artifact, keep } if artifact == i => {
                    writer::write_torn(&writer::tmp_path(&dir.join(name)), bytes, keep)?;
                    return Ok(version);
                }
                CrashPoint::TornCommitted { artifact, keep } if artifact == i => {
                    // Torn data under a completed rename: the manifest
                    // below records the intended length + hash.
                    writer::write_torn(&dir.join(name), bytes, keep)?;
                }
                _ => atomic_write(&dir.join(name), bytes)?,
            }
            entries.push(ArtifactEntry {
                name: name.clone(),
                len: bytes.len() as u64,
                fnv1a: fnv1a(bytes),
            });
        }
        if crash == CrashPoint::BeforeManifest {
            return Ok(version);
        }
        let manifest = Manifest {
            format: FORMAT_VERSION,
            version,
            created_unix: 0,
            label: label.to_string(),
            artifacts: entries,
            probes: Vec::new(),
        };
        let json = manifest.to_json();
        if let CrashPoint::TornManifest { keep } = crash {
            writer::write_torn(&dir.join(MANIFEST_FILE), json.as_bytes(), keep)?;
            return Ok(version);
        }
        atomic_write(&dir.join(MANIFEST_FILE), json.as_bytes())?;
        if let CrashPoint::BitFlip { artifact, offset } = crash {
            if let Some((name, _)) = artifacts.get(artifact) {
                writer::flip_bit(&dir.join(name), offset)?;
            }
        }
        Ok(version)
    }

    /// Reads an artifact from `version`, verifying its recorded length
    /// and FNV-1a hash before returning the bytes.
    pub fn read_artifact(&self, version: u64, name: &str) -> Result<Vec<u8>, RegistryError> {
        let manifest = self
            .manifest(version)
            .ok_or(RegistryError::NoSuchVersion(version))?;
        let entry = manifest
            .artifact(name)
            .ok_or_else(|| RegistryError::NoSuchArtifact {
                version,
                name: name.to_string(),
            })?;
        let bytes = fs::read(self.version_dir(version).join(name))?;
        if bytes.len() as u64 != entry.len || fnv1a(&bytes) != entry.fnv1a {
            metrics().verify_failures.inc();
            return Err(RegistryError::Corrupt {
                version,
                reason: format!(
                    "artifact `{name}`: len {} hash {:016x}, manifest says len {} hash {:016x}",
                    bytes.len(),
                    fnv1a(&bytes),
                    entry.len,
                    entry.fnv1a
                ),
            });
        }
        Ok(bytes)
    }

    /// Applies retention: keeps the newest `retain` versions plus every
    /// pinned version, removes the rest. Returns the collected versions.
    /// No-op when `retain == 0`.
    pub fn collect(&self) -> Result<Vec<u64>, RegistryError> {
        if self.retain == 0 {
            return Ok(Vec::new());
        }
        let doomed: Vec<u64> = {
            let st = self.lock();
            let keep: BTreeSet<u64> = st
                .versions
                .keys()
                .rev()
                .take(self.retain)
                .copied()
                .chain(st.pinned.iter().copied())
                .collect();
            st.versions
                .keys()
                .filter(|v| !keep.contains(v))
                .copied()
                .collect()
        };
        for v in &doomed {
            fs::remove_dir_all(self.version_dir(*v))?;
            self.lock().versions.remove(v);
            metrics().collected.inc();
        }
        if !doomed.is_empty() {
            self.refresh_gauges();
        }
        Ok(doomed)
    }

    fn version_dir(&self, version: u64) -> PathBuf {
        self.root.join(format!("v{version:04}"))
    }

    /// Claims the next version number by atomically creating its
    /// directory. Retries past concurrently-claimed numbers, so two
    /// racing publishers always get distinct, monotonically increasing
    /// versions.
    fn claim_version(&self) -> Result<(u64, PathBuf), RegistryError> {
        let mut next = self.scan_max()?.max(self.latest().unwrap_or(0)) + 1;
        loop {
            let dir = self.version_dir(next);
            match fs::create_dir(&dir) {
                Ok(()) => return Ok((next, dir)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    next += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Highest version number present on disk, including uncommitted
    /// debris and quarantined versions — version numbers are never
    /// reused even after the directory fails verification.
    fn scan_max(&self) -> Result<u64, RegistryError> {
        let mut max = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(v) = parse_version_dir(&entry.file_name().to_string_lossy()) {
                max = max.max(v);
            }
        }
        if let Ok(entries) = fs::read_dir(self.root.join(QUARANTINE_DIR)) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                // Quarantined dirs are named `vNNNN-<reason>`.
                let prefix = name.split('-').next().unwrap_or("");
                if let Some(v) = parse_version_dir(prefix) {
                    max = max.max(v);
                }
            }
        }
        Ok(max)
    }

    fn refresh_gauges(&self) {
        let st = self.lock();
        metrics().versions.set(st.versions.len() as i64);
        metrics()
            .latest
            .set(st.versions.keys().next_back().copied().unwrap_or(0) as i64);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn parse_version_dir(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('v')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Full verification of one version directory; returns its manifest or
/// the reason it fails.
fn verify_version(dir: &Path, version: u64, swept_tmp: &mut usize) -> Result<Manifest, String> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let raw = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("manifest_unreadable: {e}"))?;
    let manifest = Manifest::from_json(&raw).map_err(|e| format!("manifest_invalid: {e}"))?;
    if manifest.format > FORMAT_VERSION {
        return Err(format!("format_unsupported: {}", manifest.format));
    }
    if manifest.version != version {
        return Err(format!(
            "version_mismatch: dir v{version}, manifest v{}",
            manifest.version
        ));
    }
    for entry in &manifest.artifacts {
        let bytes =
            fs::read(dir.join(&entry.name)).map_err(|e| format!("artifact_missing: {e}"))?;
        if bytes.len() as u64 != entry.len {
            return Err(format!(
                "artifact_truncated: `{}` has {} bytes, manifest says {}",
                entry.name,
                bytes.len(),
                entry.len
            ));
        }
        if fnv1a(&bytes) != entry.fnv1a {
            return Err(format!("artifact_hash_mismatch: `{}`", entry.name));
        }
    }
    // Valid version: sweep any stray tempfiles a past failed writer left.
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") && fs::remove_file(e.path()).is_ok() {
                *swept_tmp += 1;
            }
        }
    }
    Ok(manifest)
}

/// Moves an unverifiable version directory into `quarantine/` with a
/// short reason suffix. Never deletes anything.
fn quarantine(root: &Path, dir: &Path, version: u64, reason: &str) -> Result<(), RegistryError> {
    let qdir = root.join(QUARANTINE_DIR);
    fs::create_dir_all(&qdir)?;
    let short: String = reason
        .split(':')
        .next()
        .unwrap_or("unknown")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let mut target = qdir.join(format!("v{version:04}-{short}"));
    let mut suffix = 1;
    while target.exists() {
        suffix += 1;
        target = qdir.join(format!("v{version:04}-{short}-{suffix}"));
    }
    fs::rename(dir, &target)?;
    // Marker file so an operator can see the full failure without logs.
    let mut f = File::create(target.join("QUARANTINE_REASON"))?;
    writeln!(f, "{reason}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn unique_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "pddl-registry-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn arts(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("part{i}.bin"),
                    (0..64u8).map(|b| b.wrapping_add(i as u8)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn publish_and_reopen() {
        let root = unique_root("roundtrip");
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let v1 = reg.publish("one", &arts(2), &[]).unwrap();
        let v2 = reg.publish("two", &arts(2), &[]).unwrap();
        assert_eq!((v1, v2), (1, 2));
        drop(reg);
        let (reg, report) = Registry::open(&root, 0).unwrap();
        assert_eq!(report.recovered, Some(2));
        assert!(report.quarantined.is_empty());
        assert_eq!(reg.versions(), vec![1, 2]);
        assert_eq!(reg.read_artifact(1, "part0.bin").unwrap(), arts(2)[0].1);
        assert_eq!(reg.manifest(2).unwrap().label, "two");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_crash_point_is_recovered_from() {
        let artifacts = arts(3);
        let crashes = [
            CrashPoint::TornTmp {
                artifact: 1,
                keep: 10,
            },
            CrashPoint::BeforeManifest,
            CrashPoint::TornManifest { keep: 20 },
            CrashPoint::TornCommitted {
                artifact: 2,
                keep: 5,
            },
            CrashPoint::BitFlip {
                artifact: 0,
                offset: 7,
            },
        ];
        for crash in crashes {
            let root = unique_root("crash");
            let (reg, _) = Registry::open(&root, 0).unwrap();
            let good = reg.publish("good", &artifacts, &[]).unwrap();
            let doomed = reg.publish_crashing("doomed", &artifacts, crash).unwrap();
            assert!(doomed > good);
            drop(reg);
            let (reg, report) = Registry::open(&root, 0).unwrap();
            assert_eq!(
                report.recovered,
                Some(good),
                "{crash:?} must not mask the last good version"
            );
            assert_eq!(reg.versions(), vec![good], "{crash:?}");
            // TornTmp and BeforeManifest leave a dir with no manifest;
            // the rest leave a manifest that fails verification. All are
            // quarantined, never deleted.
            assert_eq!(report.quarantined.len(), 1, "{crash:?}");
            assert_eq!(report.quarantined[0].0, doomed);
            let q = root.join(QUARANTINE_DIR);
            assert_eq!(fs::read_dir(&q).unwrap().count(), 1, "{crash:?}");
            // Version numbers are never reused past quarantined debris.
            let next = reg.publish("after", &artifacts, &[]).unwrap();
            assert!(next > doomed, "{crash:?}: {next} <= {doomed}");
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn read_artifact_detects_post_open_corruption() {
        let root = unique_root("latent");
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let v = reg.publish("x", &arts(1), &[]).unwrap();
        // Corrupt after open: verification happens again at read time.
        writer::flip_bit(&root.join(format!("v{v:04}")).join("part0.bin"), 3).unwrap();
        match reg.read_artifact(v, "part0.bin") {
            Err(RegistryError::Corrupt { version, .. }) => assert_eq!(version, v),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rescan_picks_up_external_publishes() {
        let root = unique_root("rescan");
        let (reg, _) = Registry::open(&root, 4).unwrap();
        reg.publish("a", &arts(1), &[]).unwrap();

        // A second handle over the same root models an external retrainer
        // process publishing behind our back.
        let (other, _) = Registry::open(&root, 4).unwrap();
        let v2 = other.publish("b", &arts(2), &[]).unwrap();

        assert_eq!(reg.latest(), Some(1), "first handle has not seen v2 yet");
        assert_eq!(reg.rescan().unwrap(), vec![v2]);
        assert_eq!(reg.latest(), Some(v2));
        assert!(reg.read_artifact(v2, "part1.bin").is_ok());
        assert_eq!(reg.rescan().unwrap(), Vec::<u64>::new(), "idempotent");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn retention_keeps_last_k_and_pinned() {
        let root = unique_root("retain");
        let (reg, _) = Registry::open(&root, 2).unwrap();
        let v1 = reg.publish("a", &arts(1), &[]).unwrap();
        reg.pin(v1).unwrap();
        for label in ["b", "c", "d", "e"] {
            reg.publish(label, &arts(1), &[]).unwrap();
        }
        // Keep newest 2 (v4, v5) plus pinned v1.
        assert_eq!(reg.versions(), vec![1, 4, 5]);
        assert!(root.join("v0001").exists());
        assert!(!root.join("v0002").exists());
        reg.unpin(v1);
        reg.publish("f", &arts(1), &[]).unwrap();
        assert_eq!(reg.versions(), vec![5, 6]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pin_missing_version_fails() {
        let root = unique_root("pinmiss");
        let (reg, _) = Registry::open(&root, 0).unwrap();
        assert!(matches!(
            reg.pin(9),
            Err(RegistryError::NoSuchVersion(9))
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_publishers_get_unique_monotonic_versions() {
        let root = unique_root("concurrent");
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let reg = Arc::new(reg);
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..8 {
                    let before = reg.latest().unwrap_or(0);
                    let v = reg
                        .publish(&format!("t{t}-{i}"), &arts(1), &[])
                        .unwrap();
                    assert!(v > before, "published {v} not above {before}");
                    got.push(v);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let deduped: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(deduped.len(), all.len(), "duplicate version numbers");
        assert_eq!(all, (1..=32).collect::<Vec<u64>>());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seeded_crash_plans_always_recover() {
        // The acceptance loop in miniature: for every seed, the derived
        // crash leaves debris that open() must route around.
        let artifacts = arts(2);
        for seed in 0..32 {
            let root = unique_root("seeded");
            let (reg, _) = Registry::open(&root, 0).unwrap();
            let good = reg.publish("good", &artifacts, &[]).unwrap();
            let crash = crate::CrashPlan::new(seed).pick(&artifacts);
            reg.publish_crashing("doomed", &artifacts, crash).unwrap();
            drop(reg);
            let (reg, report) = Registry::open(&root, 0).unwrap();
            assert_eq!(report.recovered, Some(good), "seed {seed} ({crash:?})");
            assert_eq!(reg.versions(), vec![good], "seed {seed} ({crash:?})");
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn probes_survive_round_trip() {
        let root = unique_root("probes");
        let (reg, _) = Registry::open(&root, 0).unwrap();
        let probes = vec![
            ProbeRecord::from_seconds("w0", 1.5),
            ProbeRecord::from_seconds("w1", 0.001953125),
        ];
        let v = reg.publish("p", &arts(1), &probes).unwrap();
        drop(reg);
        let (reg, _) = Registry::open(&root, 0).unwrap();
        assert_eq!(reg.manifest(v).unwrap().probes, probes);
        fs::remove_dir_all(&root).unwrap();
    }
}
