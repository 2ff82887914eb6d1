//! Crash-safe file writing and deterministic crash simulation.
//!
//! Every durable write in the registry goes through [`atomic_write`]:
//! write the full payload to a sibling tempfile, fsync it, rename it over
//! the destination, then fsync the parent directory so the rename itself
//! is durable. A reader can therefore never observe a half-written file —
//! it sees either the old content or the new content.
//!
//! For the recovery test tier, [`CrashPoint`] enumerates the distinct ways
//! a staged publish can be interrupted (torn tempfile, missing manifest,
//! truncated-but-committed artifact, latent bit flip, ...) and
//! [`CrashPlan`] derives one deterministically from a seed, in the same
//! seeded-schedule style as `pddl-faults`: the same seed always produces
//! the same debris, so "open() recovers in 100% of seeds" is a plain loop.

use pddl_telemetry::hash::splitmix64;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes`.
///
/// The payload is written to `<path>.tmp`, flushed and fsynced, renamed
/// over `path`, and the parent directory is fsynced so the rename survives
/// a crash. On any error the tempfile may be left behind; registry
/// recovery sweeps stray `.tmp` files on open.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. Missing parent (relative bare filename) is treated as the
/// current directory.
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Directory fsync is not supported on every platform; opening
    // read-only and syncing is the portable best effort.
    match File::open(parent) {
        Ok(d) => d.sync_all(),
        Err(e) => Err(e),
    }
}

pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    name.push_str(".tmp");
    path.with_file_name(name)
}

/// Where a simulated crash interrupts a staged publish.
///
/// Artifact indices refer to the artifact list passed to
/// [`crate::Registry::publish_crashing`]; offsets are clamped to the
/// artifact's length, so any seed-derived value is valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// The process dies mid-write of artifact `artifact`: its tempfile is
    /// truncated at `keep` bytes and never renamed. Earlier artifacts are
    /// committed, the manifest is never written.
    TornTmp {
        /// Index of the artifact being written when the crash hits.
        artifact: usize,
        /// Bytes of the artifact that made it to the tempfile.
        keep: usize,
    },
    /// All artifacts are committed but the process dies before the
    /// manifest is written — the version has no commit record.
    BeforeManifest,
    /// The manifest itself is torn: truncated at `keep` bytes yet renamed
    /// into place (models a file system that reorders data vs. metadata).
    TornManifest {
        /// Bytes of the manifest JSON that survive.
        keep: usize,
    },
    /// Artifact `artifact` is committed truncated at `keep` bytes while
    /// the manifest records the intended full length and hash — the
    /// classic torn write that only content verification catches.
    TornCommitted {
        /// Index of the torn artifact.
        artifact: usize,
        /// Bytes of that artifact that survive on disk.
        keep: usize,
    },
    /// The publish completes, then one bit of artifact `artifact` flips at
    /// byte `offset` (latent media corruption surfaced at next open).
    BitFlip {
        /// Index of the corrupted artifact.
        artifact: usize,
        /// Byte offset whose low bit is flipped.
        offset: usize,
    },
}

/// Seeded, deterministic chooser of a [`CrashPoint`] for a given artifact
/// list. Same seed + same artifacts ⇒ same crash, every run.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    seed: u64,
}

impl CrashPlan {
    /// Creates a plan from a seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Picks the crash point this plan injects for `artifacts`.
    pub fn pick(&self, artifacts: &[(String, Vec<u8>)]) -> CrashPoint {
        let mut s = self.seed;
        let kind = splitmix64(&mut s) % 5;
        let n = artifacts.len().max(1);
        let artifact = (splitmix64(&mut s) as usize) % n;
        let len = artifacts.get(artifact).map(|(_, b)| b.len()).unwrap_or(0);
        let cut = |s: &mut u64, len: usize| {
            if len == 0 {
                0
            } else {
                (splitmix64(s) as usize) % len
            }
        };
        match kind {
            0 => CrashPoint::TornTmp {
                artifact,
                keep: cut(&mut s, len),
            },
            1 => CrashPoint::BeforeManifest,
            2 => CrashPoint::TornManifest {
                keep: cut(&mut s, 64),
            },
            3 => CrashPoint::TornCommitted {
                artifact,
                keep: cut(&mut s, len),
            },
            _ => CrashPoint::BitFlip {
                artifact,
                offset: cut(&mut s, len),
            },
        }
    }
}

/// Writes `bytes` truncated at `keep` to `path` without the atomic dance —
/// the debris a torn write leaves behind.
pub(crate) fn write_torn(path: &Path, bytes: &[u8], keep: usize) -> io::Result<()> {
    let keep = keep.min(bytes.len());
    let mut f = File::create(path)?;
    f.write_all(&bytes[..keep])?;
    Ok(())
}

/// Flips the low bit of the byte at `offset` in `path` (clamped in-range).
pub(crate) fn flip_bit(path: &Path, offset: usize) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let off = (offset as u64).min(len - 1);
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(&mut byte)?;
    byte[0] ^= 1;
    f.seek(SeekFrom::Start(off))?;
    f.write_all(&byte)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pddl-registry-writer-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_content() {
        let d = tmp_dir("replace");
        let p = d.join("x.json");
        atomic_write(&p, b"old").unwrap();
        atomic_write(&p, b"new").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"new");
        assert!(!tmp_path(&p).exists(), "tempfile cleaned by rename");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_plan_is_deterministic() {
        let artifacts = vec![
            ("a".to_string(), vec![0u8; 100]),
            ("b".to_string(), vec![1u8; 50]),
        ];
        for seed in 0..64 {
            let a = CrashPlan::new(seed).pick(&artifacts);
            let b = CrashPlan::new(seed).pick(&artifacts);
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn crash_plan_covers_all_kinds() {
        let artifacts = vec![("a".to_string(), vec![0u8; 100])];
        let mut seen = [false; 5];
        for seed in 0..200 {
            match CrashPlan::new(seed).pick(&artifacts) {
                CrashPoint::TornTmp { .. } => seen[0] = true,
                CrashPoint::BeforeManifest => seen[1] = true,
                CrashPoint::TornManifest { .. } => seen[2] = true,
                CrashPoint::TornCommitted { .. } => seen[3] = true,
                CrashPoint::BitFlip { .. } => seen[4] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "200 seeds hit every kind: {seen:?}");
    }

    #[test]
    fn write_torn_truncates() {
        let d = tmp_dir("torn");
        let p = d.join("t.bin");
        write_torn(&p, b"0123456789", 4).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"0123");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let d = tmp_dir("flip");
        let p = d.join("f.bin");
        fs::write(&p, [0u8; 8]).unwrap();
        flip_bit(&p, 3).unwrap();
        let got = fs::read(&p).unwrap();
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(got[3], 1);
        fs::remove_dir_all(&d).unwrap();
    }
}
