//! The [`FileServer`] trait: the NFSv2-style operation set every
//! benchmarked system implements.
//!
//! The paper compares four servers (two S4 configurations, FreeBSD NFS,
//! Linux NFS-sync) under identical workloads. Expressing the NFS op set
//! as a trait lets the workload replayer drive any of them through the
//! same code path.

use s4_clock::SimTime;

use crate::server::FsResult;

/// An NFS-style file handle. For the S4 backend this is the ObjectID
/// (§4.1.2: "the NFS file handle can be directly hashed into the
/// ObjectID").
pub type Handle = u64;

/// File type: the kind byte of the directory-object format, whose one
/// definition is [`s4_detect::dirblob`].
pub use s4_detect::dirblob::EntryKind as FileKind;

/// Attributes returned by `getattr`-style operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// File type.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Last modification (simulated time).
    pub mtime: SimTime,
    /// Unix-style mode bits (informational).
    pub mode: u16,
}

/// The NFSv2-style operation set.
pub trait FileServer {
    /// Handle of the exported root directory.
    fn root(&self) -> Handle;

    /// Resolves `name` within directory `dir`.
    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle>;

    /// Creates a regular file.
    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle>;

    /// Creates a directory.
    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle>;

    /// Creates a symbolic link holding `target`.
    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle>;

    /// Reads a symlink's target.
    fn readlink(&self, file: Handle) -> FsResult<String>;

    /// Reads up to `len` bytes at `offset`.
    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>>;

    /// Writes `data` at `offset` (durable on return, per NFSv2).
    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()>;

    /// Returns attributes.
    fn getattr(&self, file: Handle) -> FsResult<FileAttr>;

    /// Truncates the file to `size` (the `setattr(size)` NFS path).
    fn truncate(&self, file: Handle, size: u64) -> FsResult<()>;

    /// Removes a regular file or symlink.
    fn remove(&self, dir: Handle, name: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()>;

    /// Renames within/between directories.
    fn rename(
        &self,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
    ) -> FsResult<()>;

    /// Lists a directory.
    fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>>;

    /// Current simulated time at the server (benchmarks measure in this
    /// timeline).
    fn now(&self) -> SimTime;

    /// Resolves a `/`-separated path from the root. Provided for tools
    /// and tests.
    fn resolve_path(&self, path: &str) -> FsResult<Handle> {
        let mut h = self.root();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            h = self.lookup(h, part)?;
        }
        Ok(h)
    }
}
