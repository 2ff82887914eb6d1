//! Versioned on-disk checkpoint registry with crash-safe writes.
//!
//! PredictDDL's value proposition is amortization: train the GHN and the
//! latency regressor once, then reuse them across workloads and serving
//! sessions. That only holds if the trained artifacts survive crashes and
//! can be swapped into a live fleet without a restart. This crate provides
//! the storage half of that story:
//!
//! - **Atomic checkpoint writer** ([`atomic_write`], [`store::Registry::publish`]):
//!   every file lands via tempfile → fsync → rename, and a version is only
//!   *committed* once its `manifest.json` (written last) renames into place.
//! - **Versioned layout**: each checkpoint lives in `vNNNN/` under the
//!   registry root, alongside a [`Manifest`] carrying a format version,
//!   FNV-1a content hash and byte length per artifact, free-form label,
//!   and an optional golden probe set used by the serving layer to
//!   validate a candidate before hot-swapping it live.
//! - **Recovery on open**: [`store::Registry::open`] verifies every version
//!   (manifest parses, hashes and lengths match) and quarantines the ones
//!   that don't into `quarantine/`, so the newest *verifiable* version is
//!   always the one served — a torn or partial write can never win.
//! - **Retention**: keep the last K versions; pinned versions (e.g. the
//!   one currently live in a serving process) are never collected.
//! - **Deterministic crash simulation** ([`CrashPoint`], [`CrashPlan`],
//!   [`store::Registry::publish_crashing`]): seeded, reproducible torn/truncated
//!   write debris in the style of `pddl-faults`, so the recovery tier can
//!   assert "open() lands on the newest verifiable version" across many
//!   seeds without flaky timing games.
//!
//! The crate is plain `std` (it reuses `pddl-telemetry`'s JSON parser for
//! manifests).
//!
//! # Example
//!
//! ```
//! use pddl_registry::{Registry, ProbeRecord};
//!
//! let dir = std::env::temp_dir().join(format!("pddl-registry-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let (reg, report) = Registry::open(&dir, 4).unwrap();
//! assert!(report.recovered.is_none());
//! let v = reg
//!     .publish(
//!         "first",
//!         &[("system.json".to_string(), b"{}".to_vec())],
//!         &[ProbeRecord::from_seconds("probe-0", 1.25)],
//!     )
//!     .unwrap();
//! assert_eq!(reg.latest(), Some(v));
//! assert_eq!(reg.read_artifact(v, "system.json").unwrap(), b"{}");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod manifest;
pub mod store;
pub mod writer;

pub use manifest::{ArtifactEntry, Manifest, ProbeRecord, FORMAT_VERSION};
pub use store::{RecoveryReport, Registry, RegistryError};
pub use writer::{atomic_write, CrashPlan, CrashPoint};

/// FNV-1a 64-bit content hash — the same construction the router uses for
/// routing keys, chosen here for the manifest because it is trivially
/// reimplementable by any reader of the on-disk format.
pub use pddl_telemetry::hash::fnv1a;

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_known_vectors() {
        // Offset basis for the empty input; standard FNV-1a test vector for "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
    }
}
