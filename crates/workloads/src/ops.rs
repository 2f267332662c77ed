//! The operation-trace vocabulary and the replay driver.

use std::collections::HashMap;

use s4_clock::{SimClock, SimDuration};
use s4_fs::server::FsError;
use s4_fs::{FileServer, Handle};

/// One file-system operation in a trace. Paths are `/`-separated and
/// relative to the server root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// Create a directory.
    Mkdir(String),
    /// Create an empty file.
    Create(String),
    /// Write `data` at `offset`.
    Write {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Append `data` at end of file.
    Append {
        /// Target path.
        path: String,
        /// Payload.
        data: Vec<u8>,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
    },
    /// Read the whole file in 4 KiB transfers (the paper's NFS transfer
    /// size).
    ReadAll(String),
    /// Remove a file.
    Remove(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// List a directory.
    Readdir(String),
    /// Stat a path.
    Stat(String),
    /// Truncate a file.
    Truncate {
        /// Target path.
        path: String,
        /// New size.
        size: u64,
    },
    /// Client CPU think time (e.g. compilation); requires
    /// [`replay_with_clock`].
    CpuThink(SimDuration),
}

/// Outcome of a trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed (traces are designed to succeed; failures
    /// indicate a server bug).
    pub errors: u64,
    /// Bytes written by the trace.
    pub bytes_written: u64,
    /// Bytes read by the trace.
    pub bytes_read: u64,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
}

fn split_path(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}

fn apply_op<S: FileServer + ?Sized>(
    server: &S,
    op: &FsOp,
    handles: &mut HashMap<String, Handle>,
    stats: &mut ReplayStats,
) -> Result<(), FsError> {
    fn resolve<S: FileServer + ?Sized>(
        server: &S,
        handles: &mut HashMap<String, Handle>,
        path: &str,
    ) -> Result<Handle, FsError> {
        if path.is_empty() {
            return Ok(server.root());
        }
        if let Some(&h) = handles.get(path) {
            return Ok(h);
        }
        let h = server.resolve_path(path)?;
        handles.insert(path.to_string(), h);
        Ok(h)
    }

    match op {
        FsOp::Mkdir(path) => {
            let (dir, name) = split_path(path);
            let d = resolve(server, handles, dir)?;
            let h = server.mkdir(d, name)?;
            handles.insert(path.clone(), h);
        }
        FsOp::Create(path) => {
            let (dir, name) = split_path(path);
            let d = resolve(server, handles, dir)?;
            let h = server.create(d, name)?;
            handles.insert(path.clone(), h);
        }
        FsOp::Write { path, offset, data } => {
            let h = resolve(server, handles, path)?;
            server.write(h, *offset, data)?;
            stats.bytes_written += data.len() as u64;
        }
        FsOp::Append { path, data } => {
            let h = resolve(server, handles, path)?;
            let size = server.getattr(h)?.size;
            server.write(h, size, data)?;
            stats.bytes_written += data.len() as u64;
        }
        FsOp::Read { path, offset, len } => {
            let h = resolve(server, handles, path)?;
            let data = server.read(h, *offset, *len)?;
            stats.bytes_read += data.len() as u64;
        }
        FsOp::ReadAll(path) => {
            let h = resolve(server, handles, path)?;
            let size = server.getattr(h)?.size;
            let mut off = 0;
            while off < size {
                let data = server.read(h, off, 4096)?;
                if data.is_empty() {
                    break;
                }
                stats.bytes_read += data.len() as u64;
                off += data.len() as u64;
            }
        }
        FsOp::Remove(path) => {
            let (dir, name) = split_path(path);
            let d = resolve(server, handles, dir)?;
            server.remove(d, name)?;
            handles.remove(path);
        }
        FsOp::Rmdir(path) => {
            let (dir, name) = split_path(path);
            let d = resolve(server, handles, dir)?;
            server.rmdir(d, name)?;
            handles.remove(path);
        }
        FsOp::Rename { from, to } => {
            let (fd, fname) = split_path(from);
            let (td, tname) = split_path(to);
            let fdh = resolve(server, handles, fd)?;
            let tdh = resolve(server, handles, td)?;
            server.rename(fdh, fname, tdh, tname)?;
            if let Some(h) = handles.remove(from) {
                handles.insert(to.clone(), h);
            }
        }
        FsOp::Readdir(path) => {
            let h = resolve(server, handles, path)?;
            server.readdir(h)?;
        }
        FsOp::Stat(path) => {
            let h = resolve(server, handles, path)?;
            server.getattr(h)?;
        }
        FsOp::Truncate { path, size } => {
            let h = resolve(server, handles, path)?;
            server.truncate(h, *size)?;
        }
        FsOp::CpuThink(_) => {}
    }
    Ok(())
}

/// Replays `trace` against `server`, resolving paths through a handle
/// cache (as an NFS client's name cache would). [`FsOp::CpuThink`] ops
/// are counted but cost nothing; use [`replay_with_clock`] for traces
/// with think time.
pub fn replay<S: FileServer + ?Sized>(server: &S, trace: &[FsOp]) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let start = server.now();
    let mut handles = HashMap::new();
    for op in trace {
        stats.ops += 1;
        if apply_op(server, op, &mut handles, &mut stats).is_err() {
            stats.errors += 1;
        }
    }
    stats.elapsed = server.now() - start;
    stats
}

/// Replays `trace`, advancing `clock` for [`FsOp::CpuThink`] operations
/// (client-side compilation etc.).
pub fn replay_with_clock<S: FileServer + ?Sized>(
    server: &S,
    trace: &[FsOp],
    clock: &SimClock,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let start = server.now();
    let mut handles = HashMap::new();
    for op in trace {
        stats.ops += 1;
        if let FsOp::CpuThink(d) = op {
            clock.advance(*d);
            continue;
        }
        if apply_op(server, op, &mut handles, &mut stats).is_err() {
            stats.errors += 1;
        }
    }
    stats.elapsed = server.now() - start;
    stats
}

/// Total bytes a trace writes.
#[cfg(test)]
pub(crate) fn trace_write_bytes(trace: &[FsOp]) -> u64 {
    trace
        .iter()
        .map(|op| match op {
            FsOp::Write { data, .. } | FsOp::Append { data, .. } => data.len() as u64,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_path_cases() {
        assert_eq!(split_path("a/b/c"), ("a/b", "c"));
        assert_eq!(split_path("top"), ("", "top"));
    }

    #[test]
    fn trace_write_accounting() {
        let trace = vec![
            FsOp::Create("f".into()),
            FsOp::Write {
                path: "f".into(),
                offset: 0,
                data: vec![0; 100],
            },
            FsOp::Append {
                path: "f".into(),
                data: vec![0; 50],
            },
            FsOp::Read {
                path: "f".into(),
                offset: 0,
                len: 10,
            },
        ];
        assert_eq!(trace_write_bytes(&trace), 150);
    }
}
