//! Write-ahead logging for the Job Store.
//!
//! Records are single lines of tab-separated fields; configuration payloads
//! are the deterministic single-line JSON produced by `turbine-config`
//! (string escapes guarantee no raw newlines or tabs), so the format is
//! unambiguous. Two storage backends are provided: an in-memory log for
//! simulations and tests, and a real file-backed log demonstrating durable
//! recovery across process restarts.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Error raised by WAL storage backends.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure (file backend).
    Io(std::io::Error),
    /// A record failed to parse during recovery.
    Corrupt {
        /// 0-based index of the bad record.
        record: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { record, message } => {
                write!(f, "WAL corrupt at record {record}: {message}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Abstract append-only record log.
pub trait WalStorage {
    /// Append one record (a single line, no newline characters).
    fn append(&mut self, record: &str) -> Result<(), WalError>;

    /// Read every record in append order.
    fn read_all(&self) -> Result<Vec<String>, WalError>;

    /// Atomically replace the whole log (compaction).
    fn replace_all(&mut self, records: &[String]) -> Result<(), WalError>;

    /// Number of records currently stored.
    fn len(&self) -> Result<usize, WalError> {
        Ok(self.read_all()?.len())
    }

    /// True if the log holds no records.
    fn is_empty(&self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }
}

/// In-memory log: the default for simulations, where "durability" means
/// surviving simulated component crashes, not host power loss.
#[derive(Debug, Default, Clone)]
pub struct MemWal {
    records: Vec<String>,
}

impl MemWal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WalStorage for MemWal {
    fn append(&mut self, record: &str) -> Result<(), WalError> {
        debug_assert!(!record.contains('\n'), "WAL records must be single lines");
        self.records.push(record.to_string());
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<String>, WalError> {
        Ok(self.records.clone())
    }

    fn replace_all(&mut self, records: &[String]) -> Result<(), WalError> {
        self.records = records.to_vec();
        Ok(())
    }

    fn len(&self) -> Result<usize, WalError> {
        Ok(self.records.len())
    }
}

turbine_types::snap_struct!(MemWal { records });

/// File-backed log with line-per-record framing and fsync on append.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: File,
}

impl FileWal {
    /// Open (creating if missing) the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        Ok(FileWal { path, file })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, record: &str) -> Result<(), WalError> {
        debug_assert!(!record.contains('\n'), "WAL records must be single lines");
        self.file.write_all(record.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<String>, WalError> {
        let file = File::open(&self.path)?;
        let mut records = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if !line.is_empty() {
                records.push(line);
            }
        }
        Ok(records)
    }

    fn replace_all(&mut self, records: &[String]) -> Result<(), WalError> {
        // Write to a sibling temp file, fsync, then rename over the old
        // log — the standard crash-safe compaction dance.
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = File::create(&tmp)?;
            for r in records {
                f.write_all(r.as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_wal_appends_and_reads_in_order() {
        let mut wal = MemWal::new();
        wal.append("a\t1").expect("append");
        wal.append("b\t2").expect("append");
        assert_eq!(wal.read_all().expect("read"), vec!["a\t1", "b\t2"]);
        assert_eq!(wal.len().expect("len"), 2);
    }

    #[test]
    fn mem_wal_replace_all_compacts() {
        let mut wal = MemWal::new();
        for i in 0..10 {
            wal.append(&format!("r{i}")).expect("append");
        }
        wal.replace_all(&["snapshot".to_string()]).expect("replace");
        assert_eq!(wal.read_all().expect("read"), vec!["snapshot"]);
    }

    #[test]
    fn file_wal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("turbine-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("reopen.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).expect("open");
            wal.append("first").expect("append");
            wal.append("second").expect("append");
        }
        let wal = FileWal::open(&path).expect("reopen");
        assert_eq!(wal.read_all().expect("read"), vec!["first", "second"]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn file_wal_replace_all_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("turbine-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("compact.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = FileWal::open(&path).expect("open");
        for i in 0..5 {
            wal.append(&format!("r{i}")).expect("append");
        }
        wal.replace_all(&["only".to_string()]).expect("replace");
        // Appends continue to work after compaction.
        wal.append("after").expect("append");
        assert_eq!(wal.read_all().expect("read"), vec!["only", "after"]);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
