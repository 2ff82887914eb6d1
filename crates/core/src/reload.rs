//! Zero-downtime hot reload of the serving model.
//!
//! The trained system lives behind a [`LiveSystem`] slot: an epoch-counted
//! `Arc` that request handlers *pin* (clone) once per request. A swap
//! installs the new system for all subsequent pins while in-flight
//! requests finish on the `Arc` they already hold — there is no moment at
//! which a request can observe half of the old model and half of the new.
//!
//! [`ReloadManager`] drives the swap protocol against the checkpoint
//! registry: resolve the target version, load it, replay the manifest's
//! golden probes against the candidate, and only then swap. Any failure
//! *rejects* the reload and leaves the old version serving — rollback is
//! the default, not a recovery action.

use crate::checkpoint::{load_checkpoint, validate_probes};
use crate::offline::PredictDdl;
use pddl_registry::Registry;
use pddl_telemetry::{tlog, Counter, Histogram, Level};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Probe tolerance in seconds: effectively "bit-identical or a rounding
/// hair away" — an unchanged model passes, a retrained one that drifts on
/// its own training workloads does not.
const PROBE_TOLERANCE: f64 = 1e-9;

struct ReloadMetrics {
    reloads: &'static Counter,
    rejected: &'static Counter,
    reload: &'static Histogram,
}

fn reload_metrics() -> &'static ReloadMetrics {
    static METRICS: OnceLock<ReloadMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ReloadMetrics {
        reloads: pddl_telemetry::counter("registry.reloads"),
        rejected: pddl_telemetry::counter("registry.reload_rejected"),
        reload: pddl_telemetry::histogram("registry.reload"),
    })
}

/// The hot-swappable serving slot.
///
/// Readers call [`LiveSystem::pin`] once per request and use the returned
/// `Arc` for the whole request; writers call [`LiveSystem::swap`]. The
/// epoch increments exactly once per swap, so a test (or an operator) can
/// assert "the swap happened while my requests were in flight" and that
/// every individual request saw exactly one model.
pub struct LiveSystem {
    slot: RwLock<Arc<PredictDdl>>,
    version: AtomicU64,
    epoch: AtomicU64,
}

impl LiveSystem {
    /// Wraps a trained system. `version` is the registry version it came
    /// from, or `0` for a system booted from a plain file or in-memory
    /// training (never a valid registry version — those start at 1).
    pub fn new(system: PredictDdl, version: u64) -> Self {
        Self {
            slot: RwLock::new(Arc::new(system)),
            version: AtomicU64::new(version),
            epoch: AtomicU64::new(0),
        }
    }

    /// Pins the current system for the duration of one request.
    pub fn pin(&self) -> Arc<PredictDdl> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Registry version currently live (`0` when not registry-backed).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Number of swaps performed on this slot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically installs `system` as `version`; returns the new epoch.
    pub fn swap(&self, system: Arc<PredictDdl>, version: u64) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        *slot = system;
        self.version.store(version, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// What a successful reload attempt did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// A new version was validated and swapped live.
    Swapped {
        /// Version now live.
        version: u64,
        /// Version that was live before.
        previous: u64,
        /// Slot epoch after the swap.
        epoch: u64,
    },
    /// The target version was already live; nothing changed.
    AlreadyLive {
        /// The live (and requested) version.
        version: u64,
        /// Current slot epoch (unchanged).
        epoch: u64,
    },
}

/// A rejected reload: the old model keeps serving, `reason` says why the
/// candidate was refused (wire shape: `{"error":"reload_rejected",…}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReloadRejected {
    /// Machine-prefixed reason (`empty_registry`, `no_such_version: …`,
    /// `load_failed: …`, `probe_mismatch: …`).
    pub reason: String,
}

impl std::fmt::Display for ReloadRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reload rejected: {}", self.reason)
    }
}

impl std::error::Error for ReloadRejected {}

/// Drives validated hot reloads of a [`LiveSystem`] from a [`Registry`].
pub struct ReloadManager {
    registry: Registry,
    live: Arc<LiveSystem>,
    /// Serializes reload attempts: concurrent `{"op":"reload"}` frames
    /// validate and swap one at a time.
    gate: Mutex<()>,
}

impl ReloadManager {
    /// Creates a manager whose probe gate admits a candidate within 1e-9 s
    /// of every recorded probe.
    pub fn new(registry: Registry, live: Arc<LiveSystem>) -> Arc<Self> {
        Arc::new(Self { registry, live, gate: Mutex::new(()) })
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The live slot this manager swaps.
    pub fn live(&self) -> &Arc<LiveSystem> {
        &self.live
    }

    /// Attempts a reload to `target` (or the registry's latest version
    /// when `None`). On success the new version is pinned in the registry
    /// (so retention never collects the live model) and the previous
    /// version unpinned. On rejection nothing observable changes.
    pub fn reload(&self, target: Option<u64>) -> Result<ReloadOutcome, ReloadRejected> {
        let _timer = reload_metrics().reload.start_timer();
        let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());

        let reject = |reason: String| {
            reload_metrics().rejected.inc();
            tlog!(
                Level::Warn,
                "registry",
                "reload rejected",
                reason = reason.as_str(),
            );
            Err(ReloadRejected { reason })
        };

        // Pick up versions an external retrainer published since open().
        if let Err(e) = self.registry.rescan() {
            return reject(format!("rescan_failed: {e}"));
        }
        let target = match target.or_else(|| self.registry.latest()) {
            Some(v) => v,
            None => return reject("empty_registry".to_string()),
        };
        if target == self.live.version() {
            return Ok(ReloadOutcome::AlreadyLive {
                version: target,
                epoch: self.live.epoch(),
            });
        }
        let manifest = match self.registry.manifest(target) {
            Some(m) => m,
            None => return reject(format!("no_such_version: {target}")),
        };
        let candidate = match load_checkpoint(&self.registry, target) {
            Ok(c) => c,
            Err(e) => return reject(format!("load_failed: {e}")),
        };
        if let Err(e) = validate_probes(&candidate, &manifest, PROBE_TOLERANCE) {
            return reject(format!("probe_mismatch: {e}"));
        }
        if let Err(e) = self.registry.pin(target) {
            return reject(format!("pin_failed: {e}"));
        }
        let previous = self.live.version();
        let epoch = self.live.swap(Arc::new(candidate), target);
        if previous != 0 {
            self.registry.unpin(previous);
        }
        reload_metrics().reloads.inc();
        tlog!(
            Level::Info,
            "registry",
            "hot reload swapped",
            version = target,
            previous = previous,
            epoch = epoch,
        );
        Ok(ReloadOutcome::Swapped {
            version: target,
            previous,
            epoch,
        })
    }
}

/// Spawns the `--watch-registry` poller: every `interval` it rescans the
/// registry and reloads when a version newer than the live one appears.
/// Rejected candidates are logged and left alone (the registry quarantines
/// or retains them; the poller just keeps serving the old model). Returns
/// the thread handle; set `shutdown` to stop it.
pub fn spawn_watcher(
    manager: Arc<ReloadManager>,
    interval: Duration,
    shutdown: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("pddl-registry-watch".to_string())
        .spawn(move || {
            let tick = Duration::from_millis(25).min(interval);
            let mut elapsed = Duration::ZERO;
            while !shutdown.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed < interval {
                    continue;
                }
                elapsed = Duration::ZERO;
                let newest = match manager.registry().rescan() {
                    Ok(_) => manager.registry().latest(),
                    Err(e) => {
                        tlog!(
                            Level::Warn,
                            "registry",
                            "watcher rescan failed",
                            error = e.to_string().as_str(),
                        );
                        continue;
                    }
                };
                if let Some(v) = newest {
                    if v > manager.live().version() {
                        // reload() logs both outcomes; nothing to do here.
                        let _ = manager.reload(Some(v));
                    }
                }
            }
        })
        .expect("spawn registry watcher")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_checkpoint;
    use crate::offline::OfflineTrainer;
    use pddl_registry::ProbeRecord;
    use std::sync::atomic::{AtomicU64 as SeqU64, Ordering as SeqOrd};

    fn unique_root(tag: &str) -> std::path::PathBuf {
        static N: SeqU64 = SeqU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "pddl-core-reload-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, SeqOrd::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn reload_swaps_to_latest_and_pins_it() {
        let system = OfflineTrainer::tiny().train_full();
        let root = unique_root("swap");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v = save_checkpoint(&registry, &system, "first").unwrap();

        let live = Arc::new(LiveSystem::new(system, 0));
        let mgr = ReloadManager::new(registry, Arc::clone(&live));
        let outcome = mgr.reload(None).unwrap();
        assert_eq!(
            outcome,
            ReloadOutcome::Swapped { version: v, previous: 0, epoch: 1 }
        );
        assert_eq!(live.version(), v);
        assert_eq!(mgr.registry().pinned(), vec![v], "live version pinned");

        // Reloading the same version again is a no-op.
        assert_eq!(
            mgr.reload(None).unwrap(),
            ReloadOutcome::AlreadyLive { version: v, epoch: 1 }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failing_probe_rejects_and_keeps_old_model_live() {
        let system = OfflineTrainer::tiny().train_full();
        let root = unique_root("reject");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let v1 = save_checkpoint(&registry, &system, "good").unwrap();

        // Publish a candidate whose manifest demands predictions the
        // stored system cannot produce: a poisoned probe.
        let system_json = registry.read_artifact(v1, crate::checkpoint::SYSTEM_ARTIFACT).unwrap();
        let poisoned = vec![ProbeRecord::from_seconds("poisoned|probe", 1234.5)];
        let arts = vec![(crate::checkpoint::SYSTEM_ARTIFACT.to_string(), system_json)];
        let v2 = registry.publish("poisoned", &arts, &poisoned).unwrap();

        let live = Arc::new(LiveSystem::new(system, 0));
        let mgr = ReloadManager::new(registry, Arc::clone(&live));
        let ok = mgr.reload(Some(v1)).unwrap();
        assert!(matches!(ok, ReloadOutcome::Swapped { version, .. } if version == v1));

        let err = mgr.reload(Some(v2)).unwrap_err();
        assert!(err.reason.starts_with("probe_mismatch:"), "got: {}", err.reason);
        assert_eq!(live.version(), v1, "rollback: old version still live");
        assert_eq!(live.epoch(), 1, "no swap happened");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_registry_is_rejected_typed() {
        let root = unique_root("empty");
        let (registry, _) = Registry::open(&root, 4).unwrap();
        let live = Arc::new(LiveSystem::new(OfflineTrainer::tiny().train_full(), 0));
        let mgr = ReloadManager::new(registry, live);
        assert_eq!(mgr.reload(None).unwrap_err().reason, "empty_registry");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pin_never_observes_half_swapped_model() {
        // Hammer pin() from readers while a writer swaps repeatedly between
        // two systems with distinct record counts; every pinned Arc must be
        // exactly one of the two — internal consistency of each pin is
        // guaranteed by the Arc, and the record-count marker proves the
        // slot never hands out a torn view.
        let a = OfflineTrainer::tiny().train_full();
        let mut b = OfflineTrainer::tiny().train_full();
        let marker = b.records[0].clone();
        b.records.push(marker);
        let (len_a, len_b) = (a.records.len(), b.records.len());

        let a2 = Arc::new(OfflineTrainer::tiny().train_full());
        let live = Arc::new(LiveSystem::new(a, 1));
        let b = Arc::new(b);
        let stop = Arc::new(AtomicBool::new(false));
        // The writer's 200 swaps take less time than a thread takes to
        // start: it waits here until every reader has pinned once.
        let pinned = Arc::new(std::sync::Barrier::new(5));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let live = Arc::clone(&live);
                let stop = Arc::clone(&stop);
                let pinned = Arc::clone(&pinned);
                std::thread::spawn(move || {
                    let mut pins = 0usize;
                    loop {
                        let sys = live.pin();
                        let n = sys.records.len();
                        assert!(n == len_a || n == len_b, "torn view: {n} records");
                        pins += 1;
                        if pins == 1 {
                            pinned.wait();
                        }
                        if stop.load(Ordering::Acquire) {
                            break pins;
                        }
                    }
                })
            })
            .collect();

        pinned.wait();
        for i in 0..200 {
            let (sys, ver) = if i % 2 == 0 {
                (Arc::clone(&b), 2)
            } else {
                (Arc::clone(&a2), 1)
            };
            live.swap(sys, ver);
        }
        stop.store(true, Ordering::Release);
        let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers actually pinned");
        assert_eq!(live.epoch(), 200);
    }
}
