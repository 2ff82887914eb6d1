//! Crash-safe file writing.
//!
//! Every durable write in the registry goes through [`atomic_write`]:
//! write the full payload to a sibling tempfile, fsync it, rename it over
//! the destination, then fsync the parent directory so the rename itself
//! is durable. A reader can therefore never observe a half-written file —
//! it sees either the old content or the new content. A crash mid-write
//! leaves at most a `<name>.tmp` sibling; `tests/registry.rs` cuts real
//! publishes back to each such step and reopens the store.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

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
    File::open(parent)?.sync_all()
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    name.push_str(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
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
}
