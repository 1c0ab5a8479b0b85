//! The per-run scratch directory. Every generated file and extract of a
//! run lives under one directory that no other run can share: its name
//! comes from the clock and is claimed with an exclusive `create_dir`,
//! so concurrent runs never race on a path. Dropping the guard removes
//! the directory (also when the run unwinds from a panic).

use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(root: &Path) -> io::Result<ScratchDir> {
        std::fs::create_dir_all(root)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        for attempt in 0..1000u32 {
            let path = root.join(format!("run-{nanos:x}-{attempt}"));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(ScratchDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "no free scratch directory name",
        ))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory (one per repeated set-up).
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_runs_get_distinct_dirs_and_cleanup_removes_them() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp");
        let a = ScratchDir::create(&root).unwrap();
        let b = ScratchDir::create(&root).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let pa = a.path().to_path_buf();
        drop(a);
        drop(b);
        assert!(!pa.exists());
    }
}
